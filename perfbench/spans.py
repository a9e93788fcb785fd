"""Span tracing of conwill's public functions, applied from outside the package.

`Tracer.install()` replaces every public function of the layer modules with a
wrapper that records a span (name, start, end, parent, thread, job, tag) and
puts the wrapper into every conwill module namespace that holds the original,
so calls through names that other modules imported are traced too. Private
helpers (leading underscore) are never wrapped, so deleting one in a refactor
leaves the trace valid. Spans stay in memory until `spans_as_dicts()`.
"""

from __future__ import annotations

import contextlib
import inspect
import itertools
import os
import statistics
import sys
import threading
import time

from conwill.curves import CurvatureCurve
from conwill.geom_core import ParamSurface

# layer name -> modules whose public functions belong to it
LAYERS = {
    "builders": ("conwill.builders",),
    "geom_core": ("conwill.geom_core", "conwill._stencils"),
    "functionals": ("conwill.functionals",),
    "conformal_ops": ("conwill.conformal_ops",),
    "multiplier": ("conwill.multiplier",),
    "variations": ("conwill.variations",),
    "curves": ("conwill.curves",),
    "export": ("conwill.export",),
    "cli": ("conwill.cli",),
}

BUILD_FNS = ("builders.plane_patch", "builders.homogeneous_torus",
             "builders.surface_of_revolution", "builders.cylinder_over_curve")
EXPORT_WRITERS = ("export.write_obj", "export.write_surface_csv",
                  "export.write_qd_csv", "export.write_curve_csv")


class Span:
    __slots__ = ("id", "parent", "name", "layer", "tag", "start", "end", "thread", "job",
                 "nodes", "nbytes")

    def __init__(self, sid, parent, name, layer, thread, job):
        self.id, self.parent, self.name, self.layer = sid, parent, name, layer
        self.thread, self.job = thread, job
        self.tag, self.start, self.end, self.nodes, self.nbytes = "", 0.0, 0.0, 0, 0


def _describe(args, kwargs, result) -> tuple[str, int]:
    """Short size tag of a call, and the grid node count it touched."""
    parts, nodes = [], 0
    for a in list(args) + list(kwargs.values()) + [result]:
        if isinstance(a, ParamSurface):
            if not nodes:
                nodes = a.grid.nu * a.grid.nv
                parts.append(f"{a.grid.nu}x{a.grid.nv}")
        elif isinstance(a, str) and a in ("area", "volume", "willmore", "Plane", "Sphere2"):
            parts.append(a)
        elif isinstance(a, list) and a and type(a[0]).__name__ == "QuadraticDifferential":
            parts.append(f"basis{len(a)}")
        elif isinstance(a, CurvatureCurve) and a is not result:
            parts.append(f"L={a.length:.1f}")
        elif (isinstance(a, tuple) and len(a) == 2
              and all(isinstance(x, (int, float)) for x in a)):
            parts.append(f"L={a[1] - a[0]:.1f}")
    if "degree" in kwargs:
        parts.append(f"degree{kwargs['degree']}")
    return " ".join(dict.fromkeys(parts)), nodes


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.job = None
        self.active = True
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._main = threading.get_ident()
        self._main_stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    def _stack(self) -> list[int]:
        if threading.get_ident() == self._main:
            return self._main_stack
        st = getattr(self._local, "stack", None)
        if st is None:
            st = self._local.stack = []
        return st

    @contextlib.contextmanager
    def span(self, name: str, layer: str, tag: str = ""):
        stack = self._stack()
        # a pool thread's outermost span belongs to the main thread's open span
        parent = stack[-1] if stack else (self._main_stack[-1] if self._main_stack else None)
        sp = Span(next(self._ids), parent, name, layer, threading.get_ident(), self.job)
        sp.tag = tag
        stack.append(sp.id)
        sp.start = time.perf_counter()
        try:
            yield sp
        finally:
            sp.end = time.perf_counter()
            stack.pop()
            self.spans.append(sp)

    @contextlib.contextmanager
    def paused(self):
        self.active = False
        try:
            yield
        finally:
            self.active = True

    def _wrap(self, fn, name: str, layer: str):
        tracer = self
        writer = name in EXPORT_WRITERS

        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            with tracer.span(name, layer) as sp:
                result = fn(*args, **kwargs)
                sp.tag, sp.nodes = _describe(args, kwargs, result)
                if writer:
                    sp.nbytes = os.path.getsize(args[0])
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = fn.__name__
        return wrapper

    def install(self) -> None:
        wrapped = {}
        for layer, modnames in LAYERS.items():
            for modname in modnames:
                mod = sys.modules[modname]
                short = modname.rsplit(".", 1)[1]
                for attr, obj in vars(mod).items():
                    if (not attr.startswith("_") and inspect.isfunction(obj)
                            and obj.__module__ == modname):
                        wrapped[id(obj)] = self._wrap(obj, f"{short}.{attr}", layer)
        for modname, mod in list(sys.modules.items()):
            if modname != "conwill" and not modname.startswith("conwill."):
                continue
            for attr, obj in list(vars(mod).items()):
                if id(obj) in wrapped and getattr(wrapped[id(obj)], "__wrapped__", None) is obj:
                    self._restore.append((mod, attr, obj))
                    setattr(mod, attr, wrapped[id(obj)])

    def uninstall(self) -> None:
        for mod, attr, obj in reversed(self._restore):
            setattr(mod, attr, obj)
        self._restore.clear()

    def spans_as_dicts(self) -> list[dict]:
        return [{k: getattr(s, k) for k in Span.__slots__} for s in self.spans]


def _covered(intervals: list[tuple[float, float]]) -> float:
    total, cur_s, cur_e = 0.0, None, None
    for s, e in sorted(intervals):
        if cur_e is None or s > cur_e:
            if cur_e is not None:
                total += cur_e - cur_s
            cur_s, cur_e = s, e
        else:
            cur_e = max(cur_e, e)
    if cur_e is not None:
        total += cur_e - cur_s
    return total


def self_times(spans: list[Span]) -> dict[int, float]:
    """Span duration minus the part of it that its child spans cover."""
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append((s.start, s.end))
    return {s.id: (s.end - s.start) - _covered(children.get(s.id, [])) for s in spans}


def _outermost(spans: list[Span], names) -> list[Span]:
    """Spans named in `names` that have no ancestor also named in `names`."""
    by_id = {s.id: s for s in spans}
    out = []
    for s in spans:
        if s.name not in names:
            continue
        p = by_id.get(s.parent)
        while p is not None and p.name not in names:
            p = by_id.get(p.parent)
        if p is None:
            out.append(s)
    return out


# metric -> functions whose outermost spans it times (inclusive of children)
INCLUSIVE_S = {
    "builders.build_s": BUILD_FNS,
    "builders.hopf_lift_s": ("builders.hopf_cylinder",),
    "geom_core.fundamental_data_s": ("geom_core.fundamental_data",),
    "conformal_ops.delta_star_s": ("conformal_ops.delta_star",),
    "conformal_ops.dbar_residual_s": ("conformal_ops.dbar_residual",),
    "conformal_ops.make_qd_basis_s": ("conformal_ops.make_qd_basis",),
    "functionals.gradient_s": ("functionals.gradient",),
    "functionals.value_s": ("functionals.value",),
    "variations.deform_s": ("variations.deform",),
    "variations.fd_derivative_s": ("variations.fd_functional_derivative",),
    "curves.shoot_s": ("curves.shoot_closed_elastica",),
    "curves.integrate_curve_s": ("curves.integrate_curve",),
    "curves.elastica_ode_s": ("curves.elastica_ode",),
    "curves.curve_from_parametric_s": ("curves.curve_from_parametric",),
    "export.write_s": EXPORT_WRITERS,
}
CALLS = {
    "builders.calls": BUILD_FNS,
    "geom_core.fundamental_data_calls": ("geom_core.fundamental_data",),
    "conformal_ops.delta_star_calls": ("conformal_ops.delta_star",),
}


def layer_metrics(spans: list[Span], n_jobs: int, pool_threads: int) -> dict[str, float]:
    """Per-layer figures per traced job (times in s/job, counts in count/job)."""
    selft = self_times(spans)
    per = 1.0 / max(n_jobs, 1)
    m = {f"{layer}.self_s": per * sum(selft[s.id] for s in spans if s.layer == layer)
         for layer in LAYERS}
    for name, fns in INCLUSIVE_S.items():
        m[name] = per * sum(s.end - s.start for s in _outermost(spans, set(fns)))
    for name, fns in CALLS.items():
        m[name] = per * sum(1 for s in spans if s.name in fns)
    m["multiplier.solve_self_s"] = per * sum(
        selft[s.id] for s in spans if s.name == "multiplier.solve_multiplier")
    nodes = sum(s.nodes for s in spans if s.name == "geom_core.fundamental_data")
    fd_s = m["geom_core.fundamental_data_s"] / per
    m["geom_core.mnodes_per_s"] = nodes / fd_s / 1e6 if fd_s > 0 else 0.0
    nbytes = sum(s.nbytes for s in spans if s.name in EXPORT_WRITERS)
    write_s = m["export.write_s"] / per
    m["export.bytes_written"] = per * nbytes
    m["export.mb_per_s"] = nbytes / write_s / 1e6 if write_s > 0 else 0.0
    m["cli.pool_busy_frac"] = _pool_busy(spans, pool_threads)
    return m


def _pool_busy(spans: list[Span], threads: int) -> float:
    """Summed derivative span time / (threads x pool wall time), over all jobs.

    The pool's wall time in one job runs from its first derivative span's start
    to its last one's end.
    """
    by_job: dict[object, list[Span]] = {}
    for s in spans:
        if s.name == "variations.fd_functional_derivative":
            by_job.setdefault(s.job, []).append(s)
    busy = wall = 0.0
    for group in by_job.values():
        busy += sum(s.end - s.start for s in group)
        wall += max(s.end for s in group) - min(s.start for s in group)
    return busy / (threads * wall) if wall > 0 else 0.0


def size_rows(spans: list[Span]) -> list[dict]:
    """Median and min duration per (function, size tag); bench.job rows are whole jobs."""
    groups: dict[tuple[str, str, str], list[float]] = {}
    for s in spans:
        groups.setdefault((s.layer, s.name, s.tag), []).append(s.end - s.start)
    return [{"layer": layer, "case": name, "size": tag, "n": len(d),
             "median_s": statistics.median(d), "min_s": min(d)}
            for (layer, name, tag), d in sorted(groups.items())]
