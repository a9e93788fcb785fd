"""Seeded job lists of the four workloads, the jobs themselves, and their checks.

Every workload repeats rounds. A round has a fixed composition (job kinds and
grid sizes); the seed picks each job's parameters from a fixed catalogue,
shares charts between jobs, and orders the round. Fixed composition keeps the
work per round equal across seeds; the catalogue keeps every possible job
covered by a reference value recorded when the benchmark was added
(`references.json`).

A job's `run` is the timed call into conwill. Its `summarize` turns the raw
result into numbers outside the timed region, and `check` compares those
numbers with the reference under per-field rules:

    ("exact",)            equal
    ("close", rtol, atol) |x - ref| <= rtol |ref| + atol, elementwise
    ("below", limit)      x <= limit (no reference needed)
    ("ratio", k, floor)   x <= max(k ref, floor)
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import math
import os
import random
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

import conwill
from conwill import cli

FULL, TOY = "full", "toy"
FUNCTIONALS = ("area", "volume", "willmore")


@dataclass
class Job:
    key: str                                  # reference key; sizes are part of it
    label: str                                # kind and size, for per-kind rows
    run: Callable[[dict], object]             # timed; the dict is the round's shared state
    summarize: Callable[[object], dict]
    rules: dict = field(default_factory=dict)


def check(summary: dict, ref: dict | None, rules: dict) -> list[str]:
    """Problems found comparing a job summary with its reference."""
    problems = []
    for name, rule in rules.items():
        if name not in summary:
            problems.append(f"{name}: missing from output")
            continue
        val = summary[name]
        if rule[0] == "below":
            if not np.all(np.asarray(val) <= rule[1]):
                problems.append(f"{name}={val} above {rule[1]}")
            continue
        if ref is None or name not in ref:
            problems.append(f"{name}: no reference value")
            continue
        want = ref[name]
        if rule[0] == "exact":
            ok = val == want
        elif rule[0] == "close":
            a, b = np.asarray(val, dtype=float), np.asarray(want, dtype=float)
            ok = a.shape == b.shape and bool(np.all(np.abs(a - b) <= rule[1] * np.abs(b) + rule[2]))
        else:  # ratio
            ok = val <= max(rule[1] * want, rule[2])
        if not ok:
            problems.append(f"{name}={val!r} vs reference {want!r} ({rule})")
    return problems


def _cli(argv: list[str]) -> None:
    with contextlib.redirect_stdout(io.StringIO()):
        rc = cli.run(argv)
    if rc != 0:
        raise RuntimeError(f"conwill {' '.join(argv)} exited with {rc}")


def _fmt(x: float) -> str:
    return repr(float(x))


# ----------------------------------------------------------------------
# catalogues (parameters the seed chooses from)
# ----------------------------------------------------------------------

HOM_R1 = (0.45, 0.5, 0.55, 0.6, 0.65, 0.7, 0.75, 0.8)
REV_RA = ((2.0, 0.5), (1.8, 0.5), (2.2, 0.6), (1.6, 0.4), (2.4, 0.7), (1.5, 0.5),
          (2.0, 0.8), (3.0, 1.0))
ELLIPSE = ((2.0, 1.0), (1.5, 1.0), (1.0, 0.6), (2.5, 1.2), (1.2, 0.9), (3.0, 1.5),
           (1.8, 0.7), (1.4, 1.1))
BAND = ((1.0, 2.0), (0.8, 1.5), (1.2, 2.5), (1.5, 1.8), (0.6, 2.2), (2.0, 1.2),
        (1.1, 1.6), (0.9, 2.4))
PLANE_L = (1.0, 1.5, 2.0, 2.5, 3.0, 0.8, 1.2, 4.0)
# closed elastica on S^2 with target (1, 3): (a, b, narrow kappa0 bracket)
SHOOT = ((1.0, 0.5, (1.6, 2.0)), (1.0, 0.3, (1.65, 2.05)), (0.8, 0.5, (1.5, 1.9)),
         (1.2, 0.5, (1.7, 2.1)), (0.9, 0.4, (1.55, 1.95)), (1.1, 0.6, (1.65, 2.05)),
         (0.9, 0.6, (1.55, 1.95)), (1.1, 0.4, (1.65, 2.05)))
# elastica initial data (a, b, k0, dk0), integrated over [0, ODE_SPAN] and traced on S^2
ODE = ((1.0, 0.5, 1.2, 0.0), (0.8, 0.3, 1.5, 0.1), (1.2, 0.4, 0.9, -0.2), (0.5, 0.5, 1.8, 0.0),
       (1.0, 0.0, 1.0, 0.3), (1.5, 0.6, 1.3, 0.0), (0.9, 0.2, 2.0, -0.1), (1.1, 0.7, 0.7, 0.2))
N_VARIANTS = 8

SIZES = {
    "certify_mix": {FULL: (128, 256, 512), TOY: (32, 40, 48)},
    "gradient_sweep": {FULL: (128, 256), TOY: (32, 48)},
    "build_export": {FULL: (128, 256), TOY: (16, 24)},
}
HOPF_GRID = {FULL: (256, 32), TOY: (32, 8)}
ODE_SPAN = {FULL: 4.4, TOY: 0.5}


# ----------------------------------------------------------------------
# certify_mix: builder -> make_qd_basis -> solve_multiplier / certify
# ----------------------------------------------------------------------

def _ellipse(rx: float, ry: float):
    return conwill.curve_from_parametric(
        "Plane",
        lambda t: np.stack([rx * np.cos(t), ry * np.sin(t)], axis=-1),
        lambda t: np.stack([-rx * np.sin(t), ry * np.cos(t)], axis=-1),
        lambda t: np.stack([-rx * np.cos(t), -ry * np.sin(t)], axis=-1),
        (0.0, 2 * np.pi))


def _chart(kind: str, v: int, n: int):
    """(chart key, builder thunk, umbilic?, basis degree) of catalogue entry v."""
    if kind == "hom":
        r1 = HOM_R1[v]
        return (f"hom r1={r1} {n}",
                lambda: conwill.homogeneous_torus(r1, math.sqrt(1 - r1 * r1), n, n), False, 0)
    if kind == "rev":
        R, a = REV_RA[v]
        return (f"rev R={R} a={a} {n}",
                lambda: conwill.surface_of_revolution(conwill.torus_profile(R, a), nu=n, nv=n),
                False, 0)
    if kind == "cyl":
        rx, ry = ELLIPSE[v]
        return (f"cyl rx={rx} ry={ry} {n}",
                lambda: conwill.cylinder_over_curve(_ellipse(rx, ry), (-1.0, 1.0), n, n),
                False, 0)
    if kind == "band":
        R, e = BAND[v]
        return (f"band R={R} e={e} {n}",
                lambda: conwill.surface_of_revolution(conwill.sphere_profile(R), x_span=(-e, e),
                                                      nu=n, nv=n), True, 0)
    if kind == "plane":
        L = PLANE_L[v]
        return (f"plane L={L} {n}", lambda: conwill.plane_patch(L, L, n, n), True, 4)
    raise ValueError(kind)


CERT_RULES = {"verdict": ("exact",), "residual": ("close", 1e-8, 1e-8),
              "grad_norm": ("close", 1e-9, 1e-12)}


def certify_job(kind: str, v: int, n: int, functional: str) -> Job:
    chart_key, build, umbilic, degree = _chart(kind, v, n)

    def run(state):
        s = state.get(chart_key)
        if s is None:
            s = state[chart_key] = build()
        basis = conwill.make_qd_basis(s, degree=degree)
        if functional == "willmore":
            return s, conwill.certify_constrained_willmore(s, basis)
        return s, conwill.solve_multiplier(s, functional, basis)

    def summarize(out):
        s, cert = out
        summary = {"verdict": cert.verdict, "residual": cert.residual_l2,
                   "grad_norm": cert.gradient_l2}
        # coefficients are roundoff-defined on umbilic charts, so never compared there
        if not umbilic:
            summary["coeffs"] = [float(c) for c in cert.coefficients]
        if kind == "cyl" and functional == "area":
            summary["closed_form_err"] = float(np.max(np.abs(cert.coefficients - [-0.25, 0.0])))
        if kind == "hom" and functional == "willmore":
            phi = complex(np.mean(conwill.cmc_multiplier(s).phi))
            summary["closed_form_err"] = float(
                np.max(np.abs(cert.coefficients - [phi.real, phi.imag])))
        return summary

    rules = dict(CERT_RULES)
    if not umbilic:
        rules["coeffs"] = ("close", 1e-8, 1e-10)
    if (kind, functional) in (("cyl", "area"), ("hom", "willmore")):
        rules["closed_form_err"] = ("below", 1e-8)
    return Job(f"certify {chart_key} {functional}", f"certify {kind} {n}", run, summarize, rules)


def certify_round(rng: random.Random, scale: str) -> list[Job]:
    """14 jobs: four shared 128^2 charts with 8 certificates between them, a degree-4
    plane, two 256^2 charts sharing 3 certificates, and two 512^2 Willmore tori."""
    small, mid, large = SIZES["certify_mix"][scale]
    jobs = []

    def certs(kind, n, count):
        funcs = rng.sample(FUNCTIONALS, count)
        v = rng.randrange(N_VARIANTS)
        jobs.extend(certify_job(kind, v, n, f) for f in funcs)

    split = rng.choice([c for c in itertools.product((1, 2, 3), repeat=4) if sum(c) == 8])
    for kind, count in zip(("hom", "rev", "cyl", "band"), split):
        certs(kind, small, count)
    certs("plane", small, 1)
    first = rng.choice((1, 2))
    certs("rev", mid, first)
    certs("cyl", mid, 3 - first)
    for v in rng.sample(range(N_VARIANTS), 2):
        jobs.append(certify_job("hom", v, large, "willmore"))
    rng.shuffle(jobs)
    return jobs


def certify_catalogue(scale: str) -> list[Job]:
    small, mid, large = SIZES["certify_mix"][scale]
    jobs = []
    for v in range(N_VARIANTS):
        for kind in ("hom", "rev", "cyl", "band", "plane"):
            jobs += [certify_job(kind, v, small, f) for f in FUNCTIONALS]
        for kind in ("rev", "cyl"):
            jobs += [certify_job(kind, v, mid, f) for f in FUNCTIONALS]
        jobs.append(certify_job("hom", v, large, "willmore"))
    return jobs


def certify_warmup(workdir: str) -> None:
    state: dict = {}
    for job in certify_round(random.Random(0), TOY):
        job.run(state)


# ----------------------------------------------------------------------
# gradient_sweep: `conwill check-gradients` through cli.run
# ----------------------------------------------------------------------

def _builder_args(kind: str, v: int) -> list[str]:
    if kind == "hom":
        r1 = HOM_R1[v]
        return ["--builder", "homogeneous-torus", "--r1", _fmt(r1),
                "--r2", _fmt(math.sqrt(1 - r1 * r1))]
    if kind == "rev":
        R, a = REV_RA[v]
        return ["--builder", "revolution-torus", "--R", _fmt(R), "--a-minor", _fmt(a)]
    if kind == "cyl":
        rx, ry = ELLIPSE[v]
        return ["--builder", "cylinder-ellipse", "--rx", _fmt(rx), "--ry", _fmt(ry),
                "--extent", "1.0"]
    if kind == "band":
        R, e = BAND[v]
        return ["--builder", "revolution-sphere-band", "--R", _fmt(R), "--extent", _fmt(e)]
    if kind == "plane":
        return ["--builder", "plane", "--extent", _fmt(PLANE_L[v])]
    raise ValueError(kind)


def gradient_job(kind: str, v: int, n: int, workdir: str) -> Job:
    out = os.path.join(workdir, "gradients.csv")
    argv = (["check-gradients"] + _builder_args(kind, v)
            + ["--resolution", str(n), "--trials", "2", "--seed", str(v), "--out", out])

    def summarize(_):
        with open(out) as fh:
            rows = [line.split(",") for line in fh.read().splitlines()[1:]]
        return {"functional": [r[0] for r in rows],
                "step": [float(r[1]) for r in rows],
                "analytic": [float(r[2]) for r in rows],
                "fd": [float(r[3]) for r in rows]}

    rules = {"functional": ("exact",), "step": ("exact",),
             "analytic": ("close", 1e-9, 1e-12), "fd": ("close", 1e-7, 1e-7)}
    return Job(f"gradients {kind} v{v} {n}", f"check-gradients {kind} {n}",
               lambda state: _cli(argv), summarize, rules)


GRADIENT_KINDS = (("rev", 0), ("hom", 0), ("plane", 0), ("rev", 0), ("rev", 1), ("hom", 1))


def gradient_round(rng: random.Random, scale: str, workdir: str) -> list[Job]:
    """Four 128^2 jobs (two revolution tori, a homogeneous torus, a plane) and two
    256^2 jobs (a revolution and a homogeneous torus)."""
    sizes = SIZES["gradient_sweep"][scale]
    jobs = [gradient_job(kind, rng.randrange(N_VARIANTS), sizes[i], workdir)
            for kind, i in GRADIENT_KINDS]
    rng.shuffle(jobs)
    return jobs


def gradient_catalogue(scale: str, workdir: str) -> list[Job]:
    sizes = SIZES["gradient_sweep"][scale]
    pairs = sorted(set(GRADIENT_KINDS))
    return [gradient_job(kind, v, sizes[i], workdir) for kind, i in pairs
            for v in range(N_VARIANTS)]


def gradient_warmup(workdir: str) -> None:
    gradient_job("rev", 0, 16, workdir).run({})


# ----------------------------------------------------------------------
# build_export: `conwill build` through cli.run, OBJ + CSV + JSON
# ----------------------------------------------------------------------

def _numbers(lines: list[str], sep: str | None) -> np.ndarray:
    text = (sep or " ").join(lines)
    return np.array(text.split(sep) if sep else text.split(), dtype=float)


def build_job(kind: str, v: int, n: int, workdir: str) -> Job:
    out = os.path.join(workdir, "surface")
    argv = ["build"] + _builder_args(kind, v) + ["--resolution", str(n), "--out", out]

    def summarize(_):
        with open(out + ".json") as fh:
            info = json.load(fh)
        with open(out + ".obj") as fh:
            lines = fh.read().splitlines()
        verts = _numbers([ln[2:] for ln in lines if ln.startswith("v ")], None)
        faces = _numbers([ln[2:] for ln in lines if ln.startswith("f ")], None)
        with open(out + ".csv") as fh:
            rows = fh.read().splitlines()
        ncol = len(rows[0].split(","))
        table = _numbers(rows[1:], ",").reshape(len(rows) - 1, ncol)
        return {
            "nodes": info["nodes"], "space_form": info["space_form"],
            "area": info["area"], "willmore": info["willmore"],
            "conformality_residual": info["conformality_residual"],
            "obj_counts": [len(verts) // 3, len(faces) // 3, int(faces.sum())],
            "obj_sumsq": float(np.sum(verts ** 2)),
            "csv_rows": len(table),
            "csv_sumsq": [float(x) for x in np.sum(table[:, 2:] ** 2, axis=0)],
        }

    rules = {"nodes": ("exact",), "space_form": ("exact",),
             "area": ("close", 1e-10, 1e-12), "willmore": ("close", 1e-10, 1e-12),
             "conformality_residual": ("close", 0.0, 1e-9),
             "obj_counts": ("exact",), "obj_sumsq": ("close", 1e-10, 1e-9),
             "csv_rows": ("exact",), "csv_sumsq": ("close", 1e-9, 1e-9)}
    return Job(f"build {kind} v{v} {n}", f"build {kind} {n}",
               lambda state: _cli(argv), summarize, rules)


BUILD_KINDS = (("hom", 0), ("rev", 0), ("band", 0), ("plane", 0), ("cyl", 1), ("rev", 1))


def build_round(rng: random.Random, scale: str, workdir: str) -> list[Job]:
    """Four 128^2 builds (homogeneous torus, revolution torus, sphere band, plane)
    and two 256^2 builds (ellipse cylinder, revolution torus)."""
    sizes = SIZES["build_export"][scale]
    jobs = [build_job(kind, rng.randrange(N_VARIANTS), sizes[i], workdir)
            for kind, i in BUILD_KINDS]
    rng.shuffle(jobs)
    return jobs


def build_catalogue(scale: str, workdir: str) -> list[Job]:
    sizes = SIZES["build_export"][scale]
    return [build_job(kind, v, sizes[i], workdir) for kind, i in BUILD_KINDS
            for v in range(N_VARIANTS)]


def build_warmup(workdir: str) -> None:
    build_job("hom", 0, 8, workdir).run({})


# ----------------------------------------------------------------------
# elastica_hopf: shooting, elastica ODE + S^2 frame integration, Hopf lift
# ----------------------------------------------------------------------

def shoot_job(v: int) -> Job:
    a, b, bracket = SHOOT[v]

    def run(state):
        found = conwill.shoot_closed_elastica(
            [a], [b], targets=[(1, 3)], kappa0_bracket=bracket, n_scan=3,
            include_circles=False, h=1e-3, max_results=1)
        state[f"curve {v}"] = found[0].curve
        return found[0]

    def summarize(c):
        return {"kappa0": c.kappa0, "period": c.period, "closure_gap": c.closure_gap,
                "lobes_winding": [c.n_lobes, c.winding]}

    rules = {"kappa0": ("close", 0.0, 1e-10), "period": ("close", 1e-9, 0.0),
             "closure_gap": ("below", 1e-7), "lobes_winding": ("exact",)}
    return Job(f"shoot a={a} b={b}", "shoot", run, summarize, rules)


def lift_job(v: int, scale: str) -> Job:
    """Hopf torus over the closed curve that shoot_job(v) found in the same round."""
    nu, nv = HOPF_GRID[scale]

    def run(state):
        curve = state[f"curve {v}"]
        s = conwill.hopf_cylinder(curve, nu, nv)
        return curve, s, conwill.willmore_energy(s)

    def summarize(out):
        curve, s, w = out
        # fiber-torus identity: W = pi * int (kappa^2 + 1) ds over the closed curve
        line = np.pi * float(np.sum(curve.kappa ** 2 + 1.0)) * curve.length / len(curve.kappa)
        return {"seam_gap": s.metadata["seam_gap"], "lift_defect": s.metadata["lift_defect"],
                "willmore": w, "identity_err": abs(w - line) / line}

    rules = {"seam_gap": ("ratio", 10.0, 1e-9), "lift_defect": ("ratio", 10.0, 1e-9),
             "willmore": ("close", 1e-8, 0.0), "identity_err": ("below", 1e-6)}
    a, b, _ = SHOOT[v]
    return Job(f"lift a={a} b={b} {nu}x{nv}", f"hopf-lift {nu}x{nv}", run, summarize, rules)


def ode_job(v: int, scale: str) -> Job:
    a, b, k0, dk0 = ODE[v]
    span = ODE_SPAN[scale]

    def run(state):
        sol = conwill.elastica_ode(a, b, k0, dk0, (0.0, span))
        return sol, conwill.integrate_curve(sol.as_callable(), "Sphere2", (0.0, span))

    def summarize(out):
        sol, curve = out
        return {"energy_drift": sol.energy_drift,
                "end": [float(x) for x in np.concatenate([curve.position[-1],
                                                          curve.tangent[-1]])],
                "closure_gap": curve.closure_gap}

    rules = {"energy_drift": ("below", 1e-9), "end": ("close", 0.0, 1e-8),
             "closure_gap": ("close", 1e-8, 1e-10)}
    return Job(f"ode a={a} b={b} k0={k0} dk0={dk0} L={span}", f"elastica-ode L={span}",
               run, summarize, rules)


def elastica_round(rng: random.Random, scale: str) -> list[Job]:
    """Two triples, each a shot closed elastica, the Hopf torus over it, and an
    elastica ODE curve; the shoot variants differ."""
    jobs = []
    for v, w in zip(rng.sample(range(N_VARIANTS), 2), rng.sample(range(N_VARIANTS), 2)):
        pair = [shoot_job(v), lift_job(v, scale)]  # the lift needs the shot curve
        ode = [ode_job(w, scale)]
        jobs += ode + pair if rng.random() < 0.5 else pair + ode
    return jobs


def elastica_catalogue(scale: str) -> list[Job]:
    jobs = []
    for v in range(N_VARIANTS):
        jobs += [shoot_job(v), lift_job(v, scale), ode_job(v, scale)]
    return jobs


def elastica_warmup(workdir: str) -> None:
    # every curve integration takes at least 10^4 steps, so warm-up only loads
    # what shoot_closed_elastica imports lazily
    import scipy.optimize  # noqa: F401


# ----------------------------------------------------------------------

@dataclass
class Workload:
    round: Callable                 # (rng, scale, workdir) -> list[Job]
    catalogue: Callable             # (scale, workdir) -> list[Job]
    warmup: Callable                # (workdir) -> None


WORKLOADS = {
    "certify_mix": Workload(lambda rng, scale, wd: certify_round(rng, scale),
                            lambda scale, wd: certify_catalogue(scale), certify_warmup),
    "gradient_sweep": Workload(gradient_round, gradient_catalogue, gradient_warmup),
    "elastica_hopf": Workload(lambda rng, scale, wd: elastica_round(rng, scale),
                              lambda scale, wd: elastica_catalogue(scale), elastica_warmup),
    "build_export": Workload(build_round, build_catalogue, build_warmup),
}
