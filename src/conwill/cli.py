"""Command-line interface.

Subcommands: build, energy, certify, curve, check-gradients, export,
verify-identities. Exit codes: 0 success, 1 error, 2 a --expect-critical
certification came back non-critical.

Structured results are JSON, traces/fields CSV, meshes OBJ. Outputs are
deterministic for identical arguments and seed. The environment variable
CONWILL_THREADS caps the worker pool used by finite-difference sweeps.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys

import numpy as np

from . import builders, curves, export, functionals
from ._stencils import MARGIN
from .conformal_ops import make_qd_basis, hopf_differential, delta_star
from .errors import ConfigError, ConwillError
from .geom_core import integrate_2form
from .multiplier import cmc_multiplier, solve_multiplier
from .variations import Variation, fd_functional_derivative, prepare_deformations

BUILDERS = (
    "homogeneous-torus", "clifford", "cylinder-circle", "cylinder-ellipse",
    "cylinder-burstall", "hopf-circle", "hopf-elastica", "revolution-torus",
    "revolution-sphere-band", "plane",
)

RESOLUTION_RANGE = (8, 4096)


def max_threads() -> int:
    """CONWILL_THREADS if it is an integer (at least 1), else the CPUs this
    process may run on: its affinity mask where the platform has one."""
    raw = os.environ.get("CONWILL_THREADS", "")
    try:
        n = int(raw)
        return max(1, n)
    except ValueError:
        if hasattr(os, "sched_getaffinity"):
            return max(1, len(os.sched_getaffinity(0)))
        return os.cpu_count() or 1


def _check_resolution(n: int) -> int:
    if not (RESOLUTION_RANGE[0] <= n <= RESOLUTION_RANGE[1]):
        raise ConfigError(f"resolution {n} outside {RESOLUTION_RANGE}")
    return n


def _ellipse(rx: float, ry: float) -> "curves.CurvatureCurve":
    return curves.curve_from_parametric(
        "Plane",
        lambda t: np.stack([rx * np.cos(t), ry * np.sin(t)], axis=-1),
        lambda t: np.stack([-rx * np.sin(t), ry * np.cos(t)], axis=-1),
        lambda t: np.stack([-rx * np.cos(t), -ry * np.sin(t)], axis=-1),
        (0.0, 2 * np.pi))


def build_surface(args) -> "builders.ParamSurface":
    if not 1 <= len(args.resolution) <= 2:
        raise ConfigError(f"resolution takes one or two values, got {args.resolution}")
    nu = _check_resolution(args.resolution[0])
    nv = _check_resolution(args.resolution[1] if len(args.resolution) > 1 else args.resolution[0])
    name = args.builder
    if name == "homogeneous-torus":
        return builders.homogeneous_torus(args.r1, args.r2, nu, nv)
    if name == "clifford":
        return builders.clifford_torus(nu, nv)
    if name == "cylinder-circle":
        curve = curves.integrate_curve(lambda s: 1.0 / args.radius, "Plane",
                                       (0.0, 2 * np.pi * args.radius))
        return builders.cylinder_over_curve(curve, (-args.extent, args.extent), nu, nv)
    if name == "cylinder-ellipse":
        curve = _ellipse(args.rx, args.ry)
        return builders.cylinder_over_curve(curve, (-args.extent, args.extent), nu, nv)
    if name == "cylinder-burstall":
        sol = curves.burstall_ode(args.a, args.b, args.k0, args.dk0, (0.0, args.span))
        curve = curves.integrate_curve(sol.as_callable(), "Plane", (0.0, args.span))
        return builders.cylinder_over_curve(curve, (-args.extent, args.extent), nu, nv)
    if name == "hopf-circle":
        c = args.kappa
        length = 2 * np.pi / np.sqrt(1 + c * c)
        curve = curves.integrate_curve(lambda s: c, "Sphere2", (0.0, length))
        return builders.hopf_cylinder(curve, nu, nv)
    if name == "hopf-elastica":
        found = curves.shoot_closed_elastica([args.a], [args.b],
                                             include_circles=False, max_results=1)
        return builders.hopf_cylinder(found[0].curve, nu, nv)
    if name == "revolution-torus":
        return builders.surface_of_revolution(builders.torus_profile(args.R, args.a_minor),
                                              nu=nu, nv=nv)
    if name == "revolution-sphere-band":
        return builders.surface_of_revolution(builders.sphere_profile(args.R),
                                              x_span=(-args.extent, args.extent), nu=nu, nv=nv)
    if name == "plane":
        return builders.plane_patch(args.extent, args.extent, nu, nv)
    raise ConfigError(f"unknown builder {name!r}")


def _add_builder_args(p: argparse.ArgumentParser, builder_required: bool = True) -> None:
    p.add_argument("--builder", choices=BUILDERS, required=builder_required)
    p.add_argument("--resolution", type=int, nargs="+", default=(128,),
                   help="grid nodes (one value for both axes, or NU NV)")
    p.add_argument("--r1", type=float, default=0.6)
    p.add_argument("--r2", type=float, default=0.8)
    p.add_argument("--radius", type=float, default=1.0)
    p.add_argument("--rx", type=float, default=2.0)
    p.add_argument("--ry", type=float, default=1.0)
    p.add_argument("--R", type=float, default=2.0)
    p.add_argument("--a-minor", type=float, default=0.5)
    p.add_argument("--kappa", type=float, default=1.0)
    p.add_argument("--a", type=float, default=0.2)
    p.add_argument("--b", type=float, default=0.4)
    p.add_argument("--k0", type=float, default=1.0)
    p.add_argument("--dk0", type=float, default=0.0)
    p.add_argument("--span", type=float, default=20.0)
    p.add_argument("--extent", type=float, default=2.0)


JOB_REALS = {"r1", "r2", "radius", "rx", "ry", "R", "a_minor", "kappa", "a", "b", "k0", "dk0",
             "span", "extent"}
JOB_INTS = {"basis_degree", "seed"}
JOB_STRINGS = {"builder", "functional", "out"}
JOB_KEYS = JOB_REALS | JOB_INTS | JOB_STRINGS | {"resolution", "tol"}


def load_job(path) -> dict:
    with open(path) as fh:
        job = json.load(fh)
    unknown = set(job) - JOB_KEYS
    if unknown:
        raise ConfigError(f"unknown job keys: {sorted(unknown)}")
    # exact JSON types: a bool is not a number here
    for key, val in job.items():
        if key in JOB_REALS and not (type(val) in (int, float) and -np.inf < val < np.inf):
            raise ConfigError(f"{key} must be a finite real number, got {val!r}")
        if key in JOB_INTS and type(val) is not int:
            raise ConfigError(f"{key} must be an integer, got {val!r}")
        if key in JOB_STRINGS and type(val) is not str:
            raise ConfigError(f"{key} must be a string, got {val!r}")
    if "tol" in job and not (type(job["tol"]) in (int, float) and 0 < job["tol"] < np.inf):
        raise ConfigError(f"tolerance must be a positive real number, got {job['tol']!r}")
    if "resolution" in job:
        res = job["resolution"]
        res = res if isinstance(res, list) else [res]
        if any(type(n) is not int for n in res):
            raise ConfigError(f"resolution must be integers, got {job['resolution']!r}")
        for n in res:
            _check_resolution(n)
    return job


def _apply_job(args, job: dict) -> None:
    for key, val in job.items():
        setattr(args, key, val if key != "resolution" or isinstance(val, list) else [val])


def cmd_build(args) -> int:
    if args.builder is None:
        raise ConfigError("build needs --builder or a --spec job file with a builder")
    s = build_surface(args)
    out = args.out or "surface"
    export.write_obj(out + ".obj", s)
    export.write_surface_csv(out + ".csv", s)
    summary = {
        "builder": args.builder,
        "nodes": [s.grid.nu, s.grid.nv],
        "space_form": s.space_form.kind,
        "conformality_residual": s.conformality_residual(),
        "area": functionals.area(s),
        "willmore": functionals.willmore_energy(s),
    }
    with open(out + ".json", "w") as fh:
        json.dump(summary, fh, indent=2)
    print(json.dumps(summary, indent=2))
    return 0


def cmd_energy(args) -> int:
    s = build_surface(args)
    a1 = functionals.area(s)
    w1 = functionals.willmore_energy(s)
    vol = None
    if s.space_form.kind == "Euclidean3" and functionals.is_closed_surface(s):
        vol = functionals.enclosed_volume(s)
    # one refinement for the convergence estimate
    fine_args = argparse.Namespace(**vars(args))
    fine_args.resolution = [min(2 * n, RESOLUTION_RANGE[1]) for n in args.resolution]
    s2 = build_surface(fine_args)
    a2 = functionals.area(s2)
    w2 = functionals.willmore_energy(s2)
    print(f"{'quantity':<12}{'value':>20}{'refined':>20}{'delta':>12}")
    print(f"{'area':<12}{a1:>20.12f}{a2:>20.12f}{abs(a2 - a1):>12.2e}")
    print(f"{'willmore':<12}{w1:>20.12f}{w2:>20.12f}{abs(w2 - w1):>12.2e}")
    if vol is not None:
        print(f"{'volume':<12}{vol:>20.12f}{'':>20}{'':>12}")
    print(f"{'nodes':<12}{s.grid.nu}x{s.grid.nv} -> {s2.grid.nu}x{s2.grid.nv}")
    return 0


def cmd_certify(args) -> int:
    s = build_surface(args)
    try:
        basis = make_qd_basis(s, degree=args.basis_degree)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    cert = solve_multiplier(s, args.functional, basis, tol=args.tol)
    text = cert.to_json()
    print(text)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text + "\n")
    if args.expect_critical and not cert.is_critical:
        return 2
    return 0


def cmd_curve(args) -> int:
    if args.ode == "elastica":
        sol = curves.elastica_ode(args.a, args.b, args.k0, args.dk0, (0.0, args.span))
        extra = f"energy_drift={sol.energy_drift:.3e}"
    else:
        sol = curves.burstall_ode(args.a, args.b, args.k0, args.dk0, (0.0, args.span))
        extra = "no conserved quantity"
    curve = curves.integrate_curve(sol.as_callable(), args.ambient, (0.0, args.span),
                                   n_samples=min(4097, len(sol.s)))
    out = args.out or "curve.csv"
    export.write_curve_csv(out, curve)
    print(f"wrote {out}: {len(curve.s)} samples, span {args.span}, {extra}")
    print(f"closure report: gap={curve.closure_gap:.3e} closed={curve.closed}")
    return 0


def cmd_check_gradients(args) -> int:
    from concurrent.futures import ThreadPoolExecutor

    if args.trials < 1:
        raise ConfigError(f"--trials must be at least 1, got {args.trials}")
    if (not all(np.isfinite(t) and t > 0 for t in args.steps)
            or len(set(args.steps)) < len(args.steps)):
        raise ConfigError(f"--steps must be distinct positive finite numbers, got {args.steps}")
    s = build_surface(args)
    # fills every chart stage of s that a trial reads (and s._fund) before
    # the worker pool shares s, so no worker writes to its caches
    prepare_deformations(s)
    rng = np.random.default_rng(args.seed)
    U, V = s.grid.open_mesh()
    rows = []
    kinds = [args.functional] if args.functional else ["area", "willmore"]

    # draw coefficients deterministically first, then evaluate in parallel
    jobs = []
    for kind in kinds:
        for trial in range(args.trials):
            u = _trial_field(s.grid, rng.normal(size=5), U, V)
            if not (s.grid.periodic_u and s.grid.periodic_v):
                u = u * _support_window(s)
            jobs.append((kind, u))

    def evaluate(job):
        kind, u = job
        res = fd_functional_derivative(s, kind, Variation(s, u), steps=args.steps)
        return kind, res

    with ThreadPoolExecutor(max_workers=max_threads()) as pool:
        for kind, res in pool.map(evaluate, jobs):
            for t, fd_val in zip(args.steps, res["fd_by_step"]):
                rows.append((kind, t, res["analytic"], fd_val,
                             abs(fd_val - res["analytic"]) / max(abs(res["analytic"]), 1e-12)))
            rows.append((kind, 0.0, res["analytic"], res["fd"], res["rel_err"]))

    out = args.out or "gradients.csv"
    with open(out, "w") as fh:
        fh.write("functional,step,analytic,fd,rel_err\n")
        export._write_rows(fh, "%s," + ",".join([export.FLT] * 4) + "\n",
                           np.array(rows, dtype=object))
    worst = max(r[4] for r in rows if r[1] == 0.0)
    print(f"wrote {out}; worst extrapolated rel_err = {worst:.3e}")
    return 0


def _trial_field(g, c, U, V) -> np.ndarray:
    """The (nu, nv) normal field of a check-gradients trial with the five
    coefficients c, on node coordinates U, V; on the open mesh
    (`Grid2D.open_mesh`) three of its four trigonometric terms are taken on
    one axis only, with the same bits as on the dense mesh."""
    return (c[0] + c[1] * np.cos(2 * np.pi * U / g.Lu)
            + c[2] * np.sin(2 * np.pi * V / g.Lv)
            + c[3] * np.cos(2 * np.pi * (U / g.Lu + V / g.Lv))
            + c[4] * np.sin(4 * np.pi * U / g.Lu)) * 0.2


def _support_window(s) -> np.ndarray:
    """Smooth bump vanishing on open-chart margins."""
    g = s.grid
    win = np.ones((g.nu, g.nv))

    def axis_window(n, h, periodic):
        if periodic:
            return np.ones(n)
        x = h * np.arange(n)
        t = (x - x[MARGIN]) / (x[n - 1 - MARGIN] - x[MARGIN])
        inside = (t > 0) & (t < 1)
        core = np.exp(-0.0625 / np.maximum(t * (1 - t), 1e-300))
        return np.where(inside, core, 0.0)

    win *= axis_window(g.nu, g.hu, g.periodic_u)[:, None]
    win *= axis_window(g.nv, g.hv, g.periodic_v)[None, :]
    return win


def cmd_export(args) -> int:
    if not (args.obj or args.csv):
        raise ConfigError("export needs --obj and/or --csv")
    s = build_surface(args)
    if args.obj:
        export.write_obj(args.obj, s)
        print(f"wrote {args.obj}")
    if args.csv:
        export.write_surface_csv(args.csv, s)
        print(f"wrote {args.csv}")
    return 0


def _hopf_identity_error(s) -> float:
    """Relative max error of delta_star(Q) = 4 (H^2 - G) dsigma on s."""
    fd = s.fundamental_data()
    rhs = 4 * (fd.H ** 2 - fd.G) * fd.dsigma
    return float(np.max(np.abs(delta_star(s, hopf_differential(s)) - rhs))
                 / max(float(np.max(np.abs(rhs))), 1e-30))


def cmd_verify_identities(args) -> int:
    checks = []

    s = builders.homogeneous_torus(0.6, 0.8, 128, 128)
    checks.append(("hopf-diff identity (torus)", _hopf_identity_error(s), 1e-7))
    cyl = builders.cylinder_over_curve(_ellipse(2.0, 1.0), (-1.0, 1.0), 256, 32)
    checks.append(("hopf-diff identity (cylinder)", _hopf_identity_error(cyl), 1e-7))

    # fibration-torus energy identity on the Clifford torus
    gc = curves.integrate_curve(lambda t: 0.0, "Sphere2", (0.0, 2 * np.pi))
    cliff = builders.hopf_cylinder(gc, 128, 32)
    w = functionals.willmore_energy(cliff)
    line = np.pi * 2 * np.pi  # pi * integral (kappa^2 + 1) ds with kappa = 0
    checks.append(("fiber-torus energy identity", abs(w - line) / line, 1e-6))
    checks.append(("clifford energy = 2 pi^2", abs(w - 2 * np.pi ** 2), 1e-4))

    # cylinder multiplier -1/4
    circ = curves.integrate_curve(lambda t: 1.0, "Plane", (0.0, 2 * np.pi))
    ccyl = builders.cylinder_over_curve(circ, (-1.0, 1.0), 128, 32)
    cert = solve_multiplier(ccyl, "area", make_qd_basis(ccyl))
    checks.append(("cylinder area multiplier", abs(cert.coefficients[0] + 0.25)
                   + abs(cert.coefficients[1]), 1e-8))

    # CMC multiplier q = H/2 Q balances grad(W)
    q = cmc_multiplier(s)
    gw = functionals.gradient(s, "willmore")
    resid = np.abs(gw - delta_star(s, q))
    rel = float(np.max(resid) / max(float(np.max(np.abs(gw))), 1e-30))
    checks.append(("cmc multiplier identity", rel, 1e-7))

    width = max(len(c[0]) for c in checks) + 2
    ok = True
    for name, err, tol in checks:
        passed = err < tol
        ok = ok and passed
        print(f"{name:<{width}} err={err:.3e}  tol={tol:.0e}  {'PASS' if passed else 'FAIL'}")
    return 0 if ok else 1


def make_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="conwill", description=__doc__)
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("build", help="build a surface and write OBJ/CSV/JSON artifacts")
    _add_builder_args(p, builder_required=False)
    p.add_argument("--spec", help="JSON job file overriding the flags; it may name the builder")
    p.add_argument("--out", default="surface")

    p = sub.add_parser("energy", help="area / Willmore / volume table with one refinement")
    _add_builder_args(p)

    p = sub.add_parser("certify", help="solve for the Lagrange multiplier and print a certificate")
    _add_builder_args(p)
    p.add_argument("--functional", choices=["area", "volume", "willmore"], default="area")
    p.add_argument("--basis-degree", type=int, default=0)
    p.add_argument("--tol", type=float, default=1e-5)
    p.add_argument("--expect-critical", action="store_true")
    p.add_argument("--out")

    p = sub.add_parser("curve", help="integrate a curvature ODE and trace the curve")
    p.add_argument("--ode", choices=["elastica", "burstall"], required=True)
    p.add_argument("--a", type=float, required=True)
    p.add_argument("--b", type=float, required=True)
    p.add_argument("--k0", type=float, required=True)
    p.add_argument("--dk0", type=float, default=0.0)
    p.add_argument("--span", type=float, default=60.0)
    p.add_argument("--ambient", choices=["Plane", "Sphere2"], default="Plane")
    p.add_argument("--out")

    p = sub.add_parser("check-gradients", help="finite-difference gradient sweep, CSV output")
    _add_builder_args(p)
    p.add_argument("--functional", choices=["area", "volume", "willmore"])
    p.add_argument("--trials", type=int, default=3)
    p.add_argument("--steps", type=float, nargs="+", default=(1e-4, 5e-5))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out")

    p = sub.add_parser("export", help="write OBJ/CSV for a builder surface")
    _add_builder_args(p)
    p.add_argument("--obj")
    p.add_argument("--csv")

    sub.add_parser("verify-identities", help="closed-form identity suite")
    return ap


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser, built once per process. Each parse_args call fills a new
    namespace, and the defaults the calls share are immutable."""
    return make_parser()


def run(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        if getattr(args, "spec", None):
            _apply_job(args, load_job(args.spec))
        if not 0 < getattr(args, "tol", 1.0) < np.inf:
            raise ConfigError("tolerances must be positive and finite")
        if getattr(args, "seed", 0) < 0:
            raise ConfigError(f"--seed must be a non-negative integer, got {args.seed}")
        if not os.path.isdir(os.path.dirname(getattr(args, "out", None) or "") or "."):
            raise ConfigError(f"--out {args.out}: no such directory")
        # looked up at each call, so a wrapped or replaced cmd_* is the one run
        return globals()["cmd_" + args.command.replace("-", "_")](args)
    # bad argument values the package refuses, and files it cannot open or write
    except (ConwillError, ValueError, OSError) as exc:
        print(f"error ({args.command}): {exc}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
