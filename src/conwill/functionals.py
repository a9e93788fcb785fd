"""Area, Willmore energy, enclosed volume, and their gradient 2-forms.

Gradients (as 2-forms, paired with normal variations u by <omega, u>):

    grad(Area)     = -2 H dsigma
    grad(Volume)   =      dsigma
    grad(Willmore) = (Lap H + 2 H (H^2 - G)) dsigma

The Willmore energy is int (H^2 + Kbar) dsigma with Kbar the ambient
sectional curvature (0 in R^3, 1 in S^3); in R^3 it coincides with int H^2.
The values read only the chart stages they need (W for the area, W and xi
for the volume, W and H for the Willmore energy), never `fundamental_data`.
Enclosed volume is only evaluated for closed surfaces in R^3, via the
divergence theorem V = 1/3 int <f, xi> dsigma; its gradient form dsigma is
available everywhere.
"""

from __future__ import annotations

import numpy as np

from .errors import NotClosed, WrongSpaceForm
from .geom_core import (
    EUCLIDEAN3,
    ParamSurface,
    _first_stage,
    _normal_stage,
    _second_stage,
    integrate_2form,
    laplace_beltrami,
)

AREA = "area"
VOLUME = "volume"
WILLMORE = "willmore"
FUNCTIONAL_KINDS = (AREA, VOLUME, WILLMORE)
CLOSED_END_TOL = 1e-2  # largest diameter of a collapsed open end, relative to the surface's


def _check_kind(kind: str) -> str:
    if kind not in FUNCTIONAL_KINDS:
        raise ValueError(f"unknown functional {kind!r}; expected one of {FUNCTIONAL_KINDS}")
    return kind


def area(s: ParamSurface) -> float:
    *_, W = _first_stage(s)
    return integrate_2form(s, W)


def willmore_energy(s: ParamSurface) -> float:
    *_, W = _first_stage(s)
    *_, H = _second_stage(s)
    kbar = s.space_form.sectional_curvature
    return integrate_2form(s, (H ** 2 + kbar) * W)


def _boundary_ring_spread(ring: np.ndarray) -> float:
    center = ring.mean(axis=0)
    return float(2.0 * np.max(np.linalg.norm(ring - center, axis=-1)))


def is_closed_surface(s: ParamSurface) -> bool:
    """Doubly periodic, or open ends that degenerate to points.

    An open chart still bounds a region when each non-periodic boundary ring
    collapses (e.g. a sphere parametrized up to tiny polar caps); such ends
    are accepted when their diameter is below CLOSED_END_TOL times the
    surface diameter.
    """
    g = s.grid
    if g.periodic_u and g.periodic_v:
        return True
    p = s.position
    diam = float(np.linalg.norm(p.reshape(-1, p.shape[-1]).max(axis=0)
                                - p.reshape(-1, p.shape[-1]).min(axis=0)))
    rings = []
    if not g.periodic_u:
        rings += [p[0], p[-1]]
    if not g.periodic_v:
        rings += [p[:, 0], p[:, -1]]
    return all(_boundary_ring_spread(r) < CLOSED_END_TOL * diam for r in rings)


def enclosed_volume(s: ParamSurface) -> float:
    """Signed volume 1/3 int <f, xi> dsigma of a closed surface in R^3."""
    if s.space_form.kind != EUCLIDEAN3:
        raise WrongSpaceForm("enclosed volume is only defined in R^3")
    if not is_closed_surface(s):
        raise NotClosed("surface has genuinely open ends")
    *_, W = _first_stage(s)
    integrand = np.einsum("ijk,ijk->ij", s.position, _normal_stage(s)) * W
    return integrate_2form(s, integrand) / 3.0


def gradient(s: ParamSurface, kind: str) -> np.ndarray:
    """Gradient 2-form coefficient of the functional (w.r.t. dx ^ dy)."""
    _check_kind(kind)
    fd = s.fundamental_data()
    if kind == AREA:
        return -2.0 * fd.H * fd.dsigma
    if kind == VOLUME:
        return fd.dsigma.copy()
    lap_h = laplace_beltrami(s, fd.H)
    return (lap_h + 2.0 * fd.H * (fd.H ** 2 - fd.G)) * fd.dsigma


def value(s: ParamSurface, kind: str) -> float:
    """Evaluate the functional itself (volume only on closed R^3 surfaces)."""
    _check_kind(kind)
    if kind == AREA:
        return area(s)
    if kind == VOLUME:
        return enclosed_volume(s)
    return willmore_energy(s)
