"""Infinitesimal variations, first-variation formulas, and their
finite-difference verification against genuinely deformed surfaces.

A variation is u xi + df(X) with u a compactly supported scalar (normal
component) and X a tangent field. Normal deformations move points along
straight lines in R^3 and along great-circle geodesics in S^3, so deformed
surfaces stay on the space form exactly; their geometry is recomputed from
positions with finite differences, which is what the analytic rate formulas
(metric_dot, jdot_normal, the functional gradients) are checked against.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np
from scipy.interpolate import CubicSpline

from ._stencils import MARGIN, diff_uniform
from .conformal_ops import delta_op, dbar_vector_field
from .errors import DegenerateDeformation, NotRotationallySymmetric
from .functionals import value
from .geom_core import (
    EUCLIDEAN3,
    ParamSurface,
    _check_field,
    _complex_structure,
    _first_form,
    integrate_2form,
)


def _support_violation(grid, arr) -> float:
    worst = 0.0
    if not grid.periodic_u:
        worst = max(worst, float(np.max(np.abs(arr[:MARGIN]))),
                    float(np.max(np.abs(arr[-MARGIN:]))))
    if not grid.periodic_v:
        worst = max(worst, float(np.max(np.abs(arr[:, :MARGIN]))),
                    float(np.max(np.abs(arr[:, -MARGIN:]))))
    return worst


@dataclass
class Variation:
    """Normal component u and tangential component X of an infinitesimal
    variation; both must vanish on the margin band of open chart directions."""

    surface: ParamSurface
    u: np.ndarray
    X: Optional[np.ndarray] = None
    enforce_support: bool = True

    def __post_init__(self):
        self.u = _check_field(self.surface.grid, np.asarray(self.u, dtype=float))
        if self.X is not None:
            self.X = _check_field(self.surface.grid, np.asarray(self.X, dtype=float), (2,))
        if self.enforce_support:
            bad = _support_violation(self.surface.grid, self.u)
            if self.X is not None:
                bad = max(bad, _support_violation(self.surface.grid, self.X))
            if bad > 1e-14:
                raise ValueError(
                    f"variation does not vanish on the open-chart margin band ({bad:.2e})")


def metric_dot(s: ParamSurface, u: np.ndarray) -> np.ndarray:
    """Rate of change of the induced metric under u xi: -2 u g(A _, _) = -2 u II."""
    u = _check_field(s.grid, u)
    return -2.0 * u[..., None, None] * s.fundamental_data().II


def jdot_normal(s: ParamSurface, u: np.ndarray) -> np.ndarray:
    """Rate of change of the complex structure under u xi: 2 u A0 J."""
    return delta_op(s, u)


def deform(s: ParamSurface, u: np.ndarray, t: float) -> ParamSurface:
    """Surface displaced by t u along the unit normal (geodesically in S^3).

    The result carries positions only (fourth-order finite differences) and
    drops the conformality claim. Quotient-seam charts raise
    DegenerateDeformation.
    """
    u = _check_field(s.grid, u)
    if s.quotient_seam:
        raise DegenerateDeformation("quotient-seam charts cannot be deformed node-wise")
    fd = s.fundamental_data()
    if s.space_form.kind == EUCLIDEAN3:
        pos = s.position + t * u[..., None] * fd.xi
    else:
        ang = t * u[..., None]
        pos = np.cos(ang) * s.position + np.sin(ang) * fd.xi
    return ParamSurface(s.space_form, s.grid, pos, None,
                        orientation=s.orientation, conformal=False,
                        metadata={"deformed_from": s.metadata.get("builder")})


def _deformed_tangents(s: ParamSurface, u: np.ndarray, du: np.ndarray,
                       dv: np.ndarray, t: float) -> tuple[np.ndarray, np.ndarray]:
    """Exact coordinate tangents of the deformed surface.

    Uses d xi = -df(A _) (valid in R^3 and, for the tangential-to-S^3
    normal, in S^3), so no position differencing enters; du, dv are the
    chart derivatives of u.
    """
    fd = s.fundamental_data()
    fu, fv = s.derivative("fu"), s.derivative("fv")
    xi_u = -(fd.A[..., 0, 0, None] * fu + fd.A[..., 1, 0, None] * fv)
    xi_v = -(fd.A[..., 0, 1, None] * fu + fd.A[..., 1, 1, None] * fv)
    if s.space_form.kind == EUCLIDEAN3:
        fut = fu + t * (du[..., None] * fd.xi + u[..., None] * xi_u)
        fvt = fv + t * (dv[..., None] * fd.xi + u[..., None] * xi_v)
    else:
        ang = t * u[..., None]
        c, si = np.cos(ang), np.sin(ang)
        f = s.position
        fut = c * fu + si * xi_u + t * du[..., None] * (-si * f + c * fd.xi)
        fvt = c * fv + si * xi_v + t * dv[..., None] * (-si * f + c * fd.xi)
    return fut, fvt


def _j_from_tangents(fu: np.ndarray, fv: np.ndarray) -> np.ndarray:
    E, F, G = _first_form(fu, fv)
    return _complex_structure(E, F, G, np.sqrt(E * G - F * F))


def jdot_fd_check(
    s: ParamSurface,
    u: np.ndarray,
    steps: Sequence[float] = (1e-3, 1e-4, 1e-5),
    du: Optional[np.ndarray] = None,
    dv: Optional[np.ndarray] = None,
) -> dict:
    """Difference quotients of the deformed complex structure against 2 u A0 J.

    J(t) is recomputed from the deformed induced metric; errors should decay
    first-order in t, and the Richardson extrapolation of the two smallest
    steps should match the analytic rate. When du, dv are omitted they are
    taken by fourth-order differences of u (a small spatial floor).
    """
    u = _check_field(s.grid, u)
    g = s.grid
    if du is None:
        du = diff_uniform(u, g.hu, 1, g.periodic_u, axis=0)
    if dv is None:
        dv = diff_uniform(u, g.hv, 1, g.periodic_v, axis=1)
    analytic = jdot_normal(s, u)
    J0 = s.fundamental_data().J

    def norm(R):
        mag2 = np.einsum("...ij,...ij->...", R, R)
        return float(np.sqrt(max(integrate_2form(s, mag2 * s.fundamental_data().dsigma), 0.0)))

    quotients, errors = [], []
    for t in steps:
        Jt = _j_from_tangents(*_deformed_tangents(s, u, du, dv, t))
        q = (Jt - J0) / t
        quotients.append(q)
        errors.append(norm(q - analytic))
    mismatch = errors[-1]
    if len(steps) >= 2:
        t1, t2 = steps[-2], steps[-1]
        extrap = (t1 * quotients[-1] - t2 * quotients[-2]) / (t1 - t2)
        mismatch = norm(extrap - analytic)
    return {"errors": errors, "extrapolated_mismatch": mismatch, "steps": list(steps)}


def conformality_residual(s: ParamSurface, v: Variation) -> float:
    """L2(dsigma) norm of 2 u A0 J + L_X J; zero iff v is conformal."""
    fd = s.fundamental_data()
    R = delta_op(s, v.u)
    if v.X is not None:
        R = R + dbar_vector_field(s, v.X)
    mag2 = np.einsum("...ij,...ij->...", R, R)
    return float(np.sqrt(max(integrate_2form(s, mag2 * fd.dsigma), 0.0)))


def fd_functional_derivative(
    s: ParamSurface,
    kind: str,
    v: Variation,
    steps: Sequence[float] = (1e-4, 5e-5),
) -> dict:
    """Analytic <grad(kind), u> against central differences of the functional.

    Central differences at each step are Richardson-extrapolated (order 2);
    returns {"analytic", "fd", "rel_err", "fd_by_step"}.
    """
    from .functionals import gradient

    analytic = integrate_2form(s, gradient(s, kind) * v.u)
    fds = []
    for t in steps:
        fp = value(deform(s, v.u, +t), kind)
        fm = value(deform(s, v.u, -t), kind)
        fds.append((fp - fm) / (2.0 * t))
    fd_best = fds[-1]
    if len(fds) >= 2:
        t1, t2 = steps[-2], steps[-1]
        # central differences have error ~ C t^2
        fd_best = (t1 ** 2 * fds[-1] - t2 ** 2 * fds[-2]) / (t1 ** 2 - t2 ** 2)
    rel = abs(fd_best - analytic) / max(abs(analytic), 1e-12)
    return {"analytic": analytic, "fd": fd_best, "rel_err": rel, "fd_by_step": fds}


def conformal_completion_revolution(s: ParamSurface, u: np.ndarray) -> Variation:
    """Tangential completion of a rotationally symmetric normal variation.

    On a revolution chart (x = meridian hyperbolic arc length, y = angle)
    the trace-free Weingarten part is diagonal, so 2 u A0 J + L_X J = 0 is
    solved by X = psi(x) d/dx with psi' = 2 u A0_{11}; psi is integrated
    from the left margin. Outside the support psi is constant, and constant
    multiples of d/dx are themselves conformal fields on such charts.
    """
    if not s.metadata.get("is_revolution"):
        raise NotRotationallySymmetric("surface was not built as a revolution chart")
    u = _check_field(s.grid, u)
    if float(np.max(np.abs(u - u[:, :1]))) > 1e-12 * max(1.0, float(np.max(np.abs(u)))):
        raise NotRotationallySymmetric("u must depend only on the profile coordinate")

    fd = s.fundamental_data()
    alpha = fd.A0[..., 0, 0].mean(axis=1)
    uprof = u[:, 0]
    x = s.grid.u_coords()
    # psi' = 2 u A0_11 on the cubic spline of its node values, integrated
    # exactly from the left margin
    psi = CubicSpline(x, 2.0 * uprof * alpha).antiderivative()(x)

    X = np.zeros(u.shape + (2,))
    X[..., 0] = psi[:, None]
    return Variation(s, u, X, enforce_support=False)
