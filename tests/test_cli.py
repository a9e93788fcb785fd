"""CLI subcommands, artifacts, exit codes, determinism."""

import json
import os
import subprocess
import sys

import numpy as np
import pytest

from conwill.cli import load_job, run
from conwill.errors import ConfigError
from conwill.geom_core import Grid2D


def test_energy_clifford(capsys):
    r = 1.0 / np.sqrt(2.0)
    code = run(["energy", "--builder", "homogeneous-torus",
                "--r1", f"{r:.17g}", "--r2", f"{r:.17g}", "--resolution", "48"])
    out = capsys.readouterr().out
    assert code == 0
    will = [ln for ln in out.splitlines() if ln.startswith("willmore")][0]
    assert abs(float(will.split()[1]) - 2 * np.pi ** 2) < 1e-6


def test_certify_homog_critical(tmp_path, capsys):
    out = tmp_path / "cert.json"
    code = run(["certify", "--builder", "homogeneous-torus", "--r1", "0.6",
                "--r2", "0.8", "--functional", "area", "--resolution", "48",
                "--expect-critical", "--out", str(out)])
    assert code == 0
    cert = json.loads(out.read_text())
    assert cert["verdict"] == "critical"
    assert abs(cert["coeffs"][0] + 0.07) < 1e-8


def test_certify_exit_code_two(tmp_path, capsys):
    # the round-sphere band is not constrained area-critical
    code = run(["certify", "--builder", "revolution-sphere-band", "--R", "1.0",
                "--extent", "2.0", "--functional", "area", "--resolution", "64",
                "--expect-critical"])
    assert code == 2


def test_certify_willmore_cmc(capsys):
    code = run(["certify", "--builder", "homogeneous-torus", "--r1", "0.6",
                "--r2", "0.8", "--functional", "willmore", "--resolution", "48",
                "--expect-critical"])
    assert code == 0


def test_curve_subcommand(tmp_path, capsys):
    out = tmp_path / "trace.csv"
    code = run(["curve", "--ode", "burstall", "--a", "0.2", "--b", "0.02",
                "--k0", "1", "--dk0", "0", "--span", "20", "--out", str(out)])
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "s,kappa,x,y"
    assert len(lines) > 100


def test_check_gradients_csv(tmp_path, capsys):
    out = tmp_path / "g.csv"
    code = run(["check-gradients", "--builder", "homogeneous-torus", "--r1", "0.6",
                "--r2", "0.8", "--resolution", "48", "--trials", "1",
                "--seed", "1", "--out", str(out)])
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "functional,step,analytic,fd,rel_err"
    # extrapolated rows (step 0) stay within the FD tolerance
    for ln in lines[1:]:
        kind, step, analytic, fd, rel = ln.split(",")
        if float(step) == 0.0:
            assert float(rel) < 1e-3


def test_export_obj_csv(tmp_path):
    obj = tmp_path / "m.obj"
    csv = tmp_path / "m.csv"
    code = run(["export", "--builder", "hopf-circle", "--kappa", "1.0",
                "--resolution", "32", "16", "--obj", str(obj), "--csv", str(csv)])
    assert code == 0
    head = obj.read_text().splitlines()
    assert head[0].startswith("v ")
    assert any(ln.startswith("f ") for ln in head)
    # stereographic projection: finite three-coordinate vertices
    first = head[0].split()
    assert len(first) == 4
    assert csv.read_text().splitlines()[0].startswith("i,j,x0")


def test_build_writes_artifacts(tmp_path, capsys):
    out = tmp_path / "art"
    code = run(["build", "--builder", "clifford", "--resolution", "32",
                "--out", str(out)])
    assert code == 0
    assert (tmp_path / "art.obj").exists()
    assert (tmp_path / "art.csv").exists()
    summary = json.loads((tmp_path / "art.json").read_text())
    assert summary["space_form"] == "Sphere3"
    assert summary["conformality_residual"] < 1e-8


def test_determinism(tmp_path, capsys, monkeypatch):
    """The same arguments give the same bytes, also with another number of
    worker threads."""
    argv = ["check-gradients", "--builder", "homogeneous-torus", "--resolution", "32",
            "--trials", "2", "--seed", "7"]
    outs = [tmp_path / f"{name}.csv" for name in ("a", "b", "one", "two")]
    for out, threads in zip(outs, ["2", "2", "1", "2"]):
        monkeypatch.setenv("CONWILL_THREADS", threads)
        assert run(argv + ["--out", str(out)]) == 0
    assert len({out.read_bytes() for out in outs}) == 1


def test_verify_identities(capsys):
    assert run(["verify-identities"]) == 0
    out = capsys.readouterr().out
    assert "PASS" in out and "FAIL" not in out


def test_job_file_validation(tmp_path):
    good = tmp_path / "job.json"
    good.write_text(json.dumps({"builder": "clifford", "resolution": 32}))
    assert load_job(str(good))["builder"] == "clifford"
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"builder": "clifford", "frobnicate": 1}))
    with pytest.raises(ConfigError):
        load_job(str(bad))
    badres = tmp_path / "badres.json"
    badres.write_text(json.dumps({"builder": "clifford", "resolution": 5000}))
    with pytest.raises(ConfigError):
        load_job(str(badres))


def test_build_from_job_file(tmp_path, capsys):
    job = tmp_path / "job.json"
    job.write_text(json.dumps({"builder": "homogeneous-torus", "r1": 0.6,
                               "r2": 0.8, "resolution": [32, 32]}))
    out = tmp_path / "surf"
    code = run(["build", "--spec", str(job), "--out", str(out)])
    assert code == 0
    summary = json.loads((tmp_path / "surf.json").read_text())
    assert summary["builder"] == "homogeneous-torus"


def test_build_needs_a_builder(tmp_path, capsys):
    job = tmp_path / "job.json"
    job.write_text(json.dumps({"resolution": 16}))
    for spec in ([], ["--spec", str(job)]):
        assert run(["build", "--out", str(tmp_path / "surf")] + spec) == 1
        assert capsys.readouterr().err.startswith("error (build): build needs --builder")
    assert not list(tmp_path.glob("surf*"))


@pytest.mark.parametrize("key, value", [
    ("resolution", "abc"),
    ("resolution", 32.0),
    ("resolution", [32.5]),
    ("resolution", [32, True]),
    ("resolution", []),
    ("resolution", [32, 32, 64]),
    ("tol", "1e-5"),
    ("tol", 0),
    ("tol", True),
    ("r1", "x"),
    ("extent", True),
    ("R", None),
    ("span", float("nan")),
    ("seed", 1.5),
    ("basis_degree", False),
    ("out", 5),
    ("builder", ["plane"]),
    ("functional", 1),
])
def test_job_file_rejects_malformed_values(tmp_path, capsys, key, value):
    """A job value of the wrong JSON type (a bool is not a number) or out of
    range is a configuration error that names its key, not a traceback."""
    job = tmp_path / "job.json"
    job.write_text(json.dumps({key: value}))
    code = run(["build", "--builder", "plane", "--spec", str(job),
                "--out", str(tmp_path / "surf")])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error (build): {'tolerance' if key == 'tol' else key}")
    assert not list(tmp_path.glob("surf*"))


def test_export_checks_arguments_before_building(monkeypatch, capsys):
    import conwill.cli as cli

    def no_build(args):
        raise AssertionError("build_surface called")

    monkeypatch.setattr(cli, "build_surface", no_build)
    assert run(["export", "--builder", "plane"]) == 1
    assert "error (export): export needs --obj and/or --csv" in capsys.readouterr().err


@pytest.mark.parametrize("argv, message", [
    (["check-gradients", "--builder", "plane", "--resolution", "16", "--seed", "-1"],
     "--seed must be a non-negative integer, got -1"),
    (["build", "--builder", "plane", "--resolution", "16", "--out", "nodir/surface"],
     "--out nodir/surface: no such directory"),
    (["build", "--spec", "job.json"], "--out nodir/job: no such directory"),
    (["certify", "--builder", "plane", "--out", "nodir/cert.json"],
     "--out nodir/cert.json: no such directory"),
    (["check-gradients", "--builder", "plane", "--out", "nodir/g.csv"],
     "--out nodir/g.csv: no such directory"),
])
def test_seed_and_output_directory_checked_before_building(tmp_path, monkeypatch, capsys,
                                                           argv, message):
    """A negative --seed and an --out in a missing directory (also one that a
    job file names) are refused, naming the flag, before any surface is built."""
    import conwill.cli as cli

    def no_build(args):
        raise AssertionError("build_surface called")

    monkeypatch.setattr(cli, "build_surface", no_build)
    monkeypatch.chdir(tmp_path)
    (tmp_path / "job.json").write_text(json.dumps({"builder": "plane", "out": "nodir/job"}))
    assert run(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == f"error ({argv[0]}): {message}\n"
    assert sorted(os.listdir(tmp_path)) == ["job.json"]


def test_successive_runs_get_independent_namespaces(monkeypatch):
    # the parser is built once per process; each run still parses into its
    # own namespace, and flags of one run do not reach the next
    import conwill.cli as cli

    seen, built = [], []
    for name in ("cmd_check_gradients", "cmd_certify"):
        monkeypatch.setattr(cli, name, lambda args: seen.append(args) or 0)
    make_parser = cli.make_parser
    monkeypatch.setattr(cli, "make_parser", lambda: built.append(1) or make_parser())
    cli._parser.cache_clear()
    assert run(["check-gradients", "--builder", "plane", "--resolution", "32", "40",
                "--steps", "1e-3", "2e-3", "--trials", "1"]) == 0
    assert run(["certify", "--builder", "clifford", "--tol", "1e-3"]) == 0
    assert run(["check-gradients", "--builder", "clifford"]) == 0
    first, second, third = seen
    assert len(built) == 1
    assert (first.command, first.builder, first.resolution) == ("check-gradients", "plane", [32, 40])
    assert (first.steps, first.trials) == ([1e-3, 2e-3], 1)
    assert (second.command, second.builder, second.resolution) == ("certify", "clifford", (128,))
    assert second.tol == 1e-3 and not hasattr(second, "steps") and not hasattr(second, "trials")
    assert (third.resolution, third.steps, third.trials) == ((128,), (1e-4, 5e-5), 3)
    assert not hasattr(first, "tol") and not hasattr(third, "tol")


def test_resolution_bounds():
    code = run(["energy", "--builder", "clifford", "--resolution", "4"])
    assert code == 1
    # a third value names no axis, so it is an error, not ignored
    code = run(["energy", "--builder", "clifford", "--resolution", "32", "32", "5000"])
    assert code == 1


def test_certify_rejects_negative_basis_degree(capsys):
    # no certificate for a basis nobody asked for
    code = run(["certify", "--builder", "plane", "--resolution", "32",
                "--basis-degree", "-2"])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == "" and "basis degree" in captured.err


def test_certify_refuses_basis_degree_on_flat_torus_chart(capsys):
    # a revolution torus chart is periodic in u and v: only constant phi there
    code = run(["certify", "--builder", "revolution-torus", "--resolution", "32",
                "--functional", "willmore", "--basis-degree", "1"])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == "" and "only constant phi are holomorphic" in captured.err


def test_bad_tolerance():
    code = run(["certify", "--builder", "clifford", "--resolution", "32",
                "--tol", "-1"])
    assert code == 1


@pytest.mark.parametrize("argv", [
    ["certify", "--builder", "clifford", "--resolution", "32", "--functional", "willmore",
     "--tol", "nan"],
    ["certify", "--builder", "clifford", "--resolution", "32", "--tol", "inf"],
    ["curve", "--ode", "elastica", "--a", "1", "--b", "0", "--k0", "1", "--span", "-1"],
    ["check-gradients", "--builder", "plane", "--resolution", "16", "--seed", "-1"],
    ["build", "--builder", "plane", "--resolution", "16", "--extent", "-1"],
    ["build", "--builder", "plane", "--resolution", "16", "--out", "{tmp}/nodir/surface"],
])
def test_bad_values_are_errors_not_tracebacks(tmp_path, monkeypatch, capsys, argv):
    """A value the package refuses (its ValueError) or a path it cannot write
    (OSError) ends as `error (<command>): ...` with exit code 1."""
    monkeypatch.chdir(tmp_path)
    assert run([a.format(tmp=tmp_path) for a in argv]) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith(f"error ({argv[0]}): ")


def test_threads_env(monkeypatch):
    from conwill.cli import max_threads

    monkeypatch.setenv("CONWILL_THREADS", "3")
    assert max_threads() == 3
    monkeypatch.setenv("CONWILL_THREADS", "junk")
    assert max_threads() >= 1


def test_threads_default_respects_affinity(monkeypatch):
    """Without CONWILL_THREADS the pool is sized by the CPUs the process may
    run on, not by all CPUs of the machine."""
    import conwill.cli as cli

    monkeypatch.delenv("CONWILL_THREADS", raising=False)
    monkeypatch.setattr(cli.os, "cpu_count", lambda: 64)
    monkeypatch.setattr(cli.os, "sched_getaffinity", lambda pid: {2, 5}, raising=False)
    assert cli.max_threads() == 2
    monkeypatch.delattr(cli.os, "sched_getaffinity")
    assert cli.max_threads() == 64


@pytest.mark.parametrize("g", [Grid2D(64, 48, 2 * np.pi * 0.6, 2 * np.pi * 0.8),
                               Grid2D(40, 32, 2.0, 1.5, False, False, u0=-1.0, v0=0.25)])
def test_check_gradients_trial_field_matches_dense_mesh(g):
    """A trial's normal field on the open mesh has the bits of the same
    formula on the dense mesh."""
    from conwill.cli import _trial_field

    for c in np.random.default_rng(3).normal(size=(4, 5)):
        u = _trial_field(g, c, *g.open_mesh())
        assert u.shape == (g.nu, g.nv)
        assert np.array_equal(u, _trial_field(g, c, *g.mesh()))


@pytest.mark.parametrize("extra", [
    ["--trials", "0"],
    ["--trials", "-2"],
    ["--steps", "1e-4", "1e-4"],
    ["--steps", "1e-4", "5e-5", "1e-4"],
    ["--steps", "0"],
    ["--steps", "-0.0001"],
    ["--steps", "nan"],
    ["--steps", "inf", "1e-4"],
])
def test_check_gradients_rejects_bad_arguments(tmp_path, capsys, extra):
    out = tmp_path / "g.csv"
    code = run(["check-gradients", "--builder", "plane", "--resolution", "16",
                "--out", str(out)] + extra)
    assert code == 1
    assert capsys.readouterr().err.startswith("error (check-gradients):")
    assert not out.exists()


def test_check_gradients_pool_leaves_shared_caches_alone(monkeypatch, tmp_path):
    """The warm-up fills every stage of the shared surface before the pool starts,
    so no worker thread adds or replaces a cache entry."""
    _check_pool_caches(monkeypatch, tmp_path, "homogeneous-torus", {"first", "normal", "second"})


def test_check_gradients_pool_leaves_r3_caches_alone(monkeypatch, tmp_path):
    """An R^3 chart also carries the position stage its deformed charts
    share, filled before the pool starts."""
    _check_pool_caches(monkeypatch, tmp_path, "revolution-torus",
                       {"first", "normal", "second", "positions"})


def _check_pool_caches(monkeypatch, tmp_path, builder, stages):
    import threading

    import conwill.cli as cli

    build, fd_derivative = cli.build_surface, cli.fd_functional_derivative
    shared, seen, threads = [], [], set()
    lock = threading.Lock()

    def caches(s):
        return {"stage": dict(s._stage_cache), "fund": s._fund}

    def keep(args):
        shared.append(build(args))
        return shared[0]

    def snapshot_first(s, *a, **kw):
        with lock:
            threads.add(threading.get_ident())
            if not seen:
                seen.append(caches(s))
        return fd_derivative(s, *a, **kw)

    monkeypatch.setenv("CONWILL_THREADS", "2")
    monkeypatch.setattr(cli, "build_surface", keep)
    monkeypatch.setattr(cli, "fd_functional_derivative", snapshot_first)
    assert run(["check-gradients", "--builder", builder, "--resolution", "32",
                "--trials", "3", "--out", str(tmp_path / "g.csv")]) == 0
    assert threads and threading.get_ident() not in threads
    before, after = seen[0], caches(shared[0])
    assert set(before["stage"]) == stages
    assert before["fund"] is not None and after["fund"] is before["fund"]
    assert after["stage"].keys() == before["stage"].keys()
    assert all(after["stage"][k] is before["stage"][k] for k in before["stage"])


GUARD_SCRIPT = """
import contextlib, io, sys
import conwill, conwill.cli
from conwill.cli import run

def scipy_modules():
    return sorted(m for m in sys.modules if m.split(".")[0] == "scipy")

with contextlib.redirect_stdout(io.StringIO()):
    assert run(["certify", "--builder", "homogeneous-torus", "--resolution", "32"]) == 0
    assert run(["check-gradients", "--builder", "revolution-torus", "--resolution", "16",
                "--trials", "1", "--out", "g.csv"]) == 0
    assert run(["build", "--builder", "revolution-sphere-band", "--resolution", "16",
                "--out", "band"]) == 0
    assert run(["build", "--builder", "plane", "--resolution", "16", "--out", "plane"]) == 0
    s = conwill.homogeneous_torus(0.6, 0.8, 32, 32)
    assert conwill.is_strongly_isothermic(s, conwill.make_qd_basis(s)).is_strongly_isothermic
    assert scipy_modules() == [], scipy_modules()
    assert run(["build", "--builder", "cylinder-ellipse", "--resolution", "16",
                "--out", "ellipse"]) == 0
    assert "scipy.interpolate" in sys.modules
"""


def test_analytic_charts_do_not_load_scipy(tmp_path):
    # the package and the CLI import numpy only; certify, check-gradients,
    # build and the strong-isothermicity test on analytic charts never load
    # scipy, and the first spline curve (the ellipse cylinder) does
    import conwill

    src = os.path.dirname(os.path.dirname(os.path.abspath(conwill.__file__)))
    env = dict(os.environ, PYTHONPATH=src, CONWILL_THREADS="1")
    proc = subprocess.run([sys.executable, "-c", GUARD_SCRIPT], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
