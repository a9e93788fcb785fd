"""Constructors for the stock example surfaces.

All builders produce positively oriented charts with analytic derivative
callbacks where closed forms exist, so that conformality holds to machine
precision. Every chart is separable (each component a sum of products of a
function of u and a function of v), and its callbacks are called on the
open mesh (U of shape (nu, 1), V of shape (1, nv)): they evaluate each factor
once per row or column and size their output by broadcasting U against V,
so they accept the dense mesh as well. Each builder takes its position from
its "f" callback on the same open mesh. Normal-sign conventions are pinned
per builder:

* cylinder over a plane curve: outward normal on the unit circle, so the
  Weingarten operator is diag(-kappa, 0) and H = -kappa/2;
* preimage tori/cylinders of the fibration S^3 -> S^2 (chart
  f(x, y) = e^{-i y} lift(x)): A = [[-2 kappa, -1], [-1, 0]], H = -kappa.
  The lift and its x-derivatives are read off the SU(2) frames of the curve
  march in `curves` as complex pairs (z1, z2), and the lift is checked
  against the curve's positions; the callbacks return the real view
  (Re z1, Im z1, Re z2, Im z2);
* homogeneous torus (r1 e^{i u}, r2 e^{i v}): H = (r2^2 - r1^2)/(2 r1 r2),
  consistent with the fibration chart on latitude circles;
* surfaces of revolution: outward normal (positive enclosed volume for
  closed profiles).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .curves import PLANE, SPHERE2, CurvatureCurve, _frame_quaternion, _march, _norm2
from .errors import AxisContact, BadRadii, GridMismatch, LiftDrift, NotArcLength, WrongSpaceForm
from .geom_core import R3, S3, Grid2D, ParamSurface


# ----------------------------------------------------------------------
# plane patch
# ----------------------------------------------------------------------

def plane_patch(Lu=1.0, Lv=1.0, nu=64, nv=64, u0=0.0, v0=0.0) -> ParamSurface:
    """Flat patch f(u, v) = (u, v, 0); open chart, exact callbacks."""
    grid = Grid2D(nu, nv, Lu, Lv, periodic_u=False, periodic_v=False, u0=u0, v0=v0)

    def vec(c0, c1, c2):
        def cb(U, V):
            out = np.empty(np.broadcast_shapes(U.shape, V.shape) + (3,))
            out[..., 0] = c0(U, V)
            out[..., 1] = c1(U, V)
            out[..., 2] = c2(U, V)
            return out
        return cb

    zero = lambda U, V: np.zeros_like(U)
    cbs = {
        "f": vec(lambda U, V: U, lambda U, V: V, zero),
        "fu": vec(lambda U, V: np.ones_like(U), zero, zero),
        "fv": vec(zero, lambda U, V: np.ones_like(U), zero),
        "fuu": vec(zero, zero, zero),
        "fuv": vec(zero, zero, zero),
        "fvv": vec(zero, zero, zero),
    }
    U, V = grid.open_mesh()
    return ParamSurface(R3, grid, cbs["f"](U, V), cbs, orientation=1, conformal=True,
                        metadata={"builder": "plane"})


# ----------------------------------------------------------------------
# homogeneous torus in S^3
# ----------------------------------------------------------------------

def homogeneous_torus(r1: float, r2: float, nu=128, nv=128) -> ParamSurface:
    """Product torus (r1 e^{i u}, r2 e^{i v}) in S^3, isometric chart.

    Chart coordinates (x, y) = (r1 u, r2 v) with periods (2 pi r1, 2 pi r2);
    the induced metric is the identity (flat torus).
    """
    if not (r1 > 0 and r2 > 0) or abs(r1 * r1 + r2 * r2 - 1.0) > 1e-12:
        raise BadRadii("need r1, r2 > 0 with r1^2 + r2^2 = 1")
    grid = Grid2D(nu, nv, 2 * np.pi * r1, 2 * np.pi * r2, True, True)

    def make(du: int, dv: int) -> Callable:
        # n-th x-derivative of r1 e^{i x/r1} is r1^{1-n} e^{i(x/r1 + n pi/2)};
        # the first complex coordinate depends only on x, the second only on y
        def cb(U, V):
            out = np.zeros(np.broadcast_shapes(U.shape, V.shape) + (4,))
            if dv == 0:
                out[..., 0] = r1 ** (1 - du) * np.cos(U / r1 + du * np.pi / 2)
                out[..., 1] = r1 ** (1 - du) * np.sin(U / r1 + du * np.pi / 2)
            if du == 0:
                out[..., 2] = r2 ** (1 - dv) * np.cos(V / r2 + dv * np.pi / 2)
                out[..., 3] = r2 ** (1 - dv) * np.sin(V / r2 + dv * np.pi / 2)
            return out
        return cb

    cbs = {
        "f": make(0, 0),
        "fu": make(1, 0),
        "fv": make(0, 1),
        "fuu": make(2, 0),
        "fuv": make(1, 1),
        "fvv": make(0, 2),
    }
    U, V = grid.open_mesh()
    return ParamSurface(S3, grid, cbs["f"](U, V), cbs, orientation=-1, conformal=True,
                        metadata={"builder": "homogeneous-torus", "r1": r1, "r2": r2})


def clifford_torus(nu=128, nv=128) -> ParamSurface:
    r = 1.0 / np.sqrt(2.0)
    return homogeneous_torus(r, r, nu, nv)


# ----------------------------------------------------------------------
# cylinder over a plane curve
# ----------------------------------------------------------------------

def cylinder_over_curve(curve: CurvatureCurve, v_span=(-2.0, 2.0), nu=256, nv=64,
                        analytic=True) -> ParamSurface:
    """Cylinder f(u, v) = (x(u), y(u), v) over an arc-length plane curve.

    The chart is isometric; u runs along the curve (periodic iff the curve
    is closed) and v along the rulings (open). With analytic=False the
    surface carries positions only and differentiates them with
    fourth-order stencils.
    """
    if curve.ambient != PLANE:
        raise WrongSpaceForm("cylinder_over_curve needs a plane curve")
    tnorm = np.linalg.norm(curve.tangent, axis=-1)
    if np.max(np.abs(tnorm - 1.0)) > 1e-9:
        raise NotArcLength("curve tangents are not unit vectors")
    Lu = curve.length if curve.closed else float(curve.s[-1] - curve.s[0])
    grid = Grid2D(nu, nv, Lu, float(v_span[1] - v_span[0]),
                  periodic_u=curve.closed, periodic_v=False,
                  u0=float(curve.s[0]), v0=float(v_span[0]))

    def shape3(U, V):
        return np.broadcast_shapes(U.shape, V.shape) + (3,)

    def cb_f(U, V):
        out = np.empty(shape3(U, V))
        out[..., :2] = curve.position_at(U)
        out[..., 2] = V
        return out

    def cb_fu(U, V):
        out = np.zeros(shape3(U, V))
        out[..., :2] = curve.tangent_at(U)
        return out

    def cb_fv(U, V):
        out = np.zeros(shape3(U, V))
        out[..., 2] = 1.0
        return out

    def cb_fuu(U, V):
        out = np.zeros(shape3(U, V))
        out[..., :2] = curve.second_derivative_at(U)
        return out

    zero3 = lambda U, V: np.zeros(shape3(U, V))
    cbs = {"f": cb_f, "fu": cb_fu, "fv": cb_fv, "fuu": cb_fuu,
           "fuv": zero3, "fvv": zero3}
    U, V = grid.open_mesh()
    pos = cb_f(U, V)
    return ParamSurface(R3, grid, pos, cbs if analytic else None, orientation=1,
                        conformal=True,
                        metadata={"builder": "cylinder", "curve_length": Lu,
                                  "curve": curve})


# ----------------------------------------------------------------------
# preimage cylinders/tori of the fibration S^3 -> S^2
# ----------------------------------------------------------------------

def _fib_proj(q):
    """The fibration map S^3 -> S^2, (2 z1 conj(z2), |z1|^2 - |z2|^2), on
    complex pairs q (..., 2)."""
    z1, z2 = q[..., 0], q[..., 1]
    w = 2 * z1 * z2.conjugate()
    return np.stack([w.real, w.imag, abs(z1) ** 2 - abs(z2) ** 2], axis=-1)


def hopf_cylinder(curve: CurvatureCurve, nu=256, nv=64, lift_tol=1e-7) -> ParamSurface:
    """Preimage surface in S^3 of a spherical curve under the fibration.

    Chart f(x, y) = e^{-i y} lift(x) with x the arc length of the horizontal
    lift (x = s/2) and y the fiber arc length; the chart is isometric. For a
    closed curve of length L the surface is a torus represented on the
    rectangular fundamental domain [0, L/2) x [0, 2 pi) with a fiber-shift
    seam in x (see ParamSurface.quotient_seam). The lift and its first two
    x-derivatives are read off the quaternions of the curve march in closed
    form; StepTooLarge is raised when those drift from unit norm as in
    `integrate_curve`, LiftDrift when the projection defect
    |pi(lift) - curve.position_at(s)| at the nodes, metadata["lift_defect"],
    exceeds lift_tol: a lift that leaves its curve (kappa samples that do not
    match the positions, or an unresolved integration) is refused.
    """
    if nu < 8 or nv < 8:
        raise ValueError(f"grid needs nu, nv >= 8, got {nu} x {nv}")
    if curve.ambient != SPHERE2:
        raise WrongSpaceForm("hopf_cylinder needs a curve on S^2")
    tnorm = np.linalg.norm(curve.tangent, axis=-1)
    if np.max(np.abs(tnorm - 1.0)) > 1e-9:
        raise NotArcLength("curve tangents are not unit vectors")

    L = curve.length if curve.closed else float(curve.s[-1] - curve.s[0])
    s0 = float(curve.s[0])
    p0 = curve.position_at(s0)
    t0 = curve.tangent_at(s0)

    # The march gives, at the nu + 1 nodes, kappa, Phi = int kappa ds and the
    # SU(2) lift U(s) of the frame, u' = u omega / 2 with omega = kappa i + k,
    # from the frame (p0, t0, n0). The lift starts at U(0) r for the fixed
    # r = (1, 1)/sqrt(2) over e1 (any start over p0 is this one up to a
    # constant fiber phase, an isometry of S^3). U r lies over the curve and
    # turns along the fiber at rate kappa/2, so the horizontal lift is
    # q = e^{-i Phi/2} U r. Over e1 the quaternion i acts as the multiplication
    # by i; so q_s = e^{-i Phi/2} U (omega - i kappa) r / 2 = e^{-i Phi/2} U k r / 2,
    # and with k = i sigma_z, q_x = e^{-i Phi/2} U (i sigma_z r). In the pair
    # convention of `curves`, U r = (a - conj(c), c + conj(a)) / sqrt(2) and
    # U sigma_z r = (a + conj(c), c - conj(a)) / sqrt(2).
    a0, c0 = _frame_quaternion(np.stack([p0, t0, np.cross(p0, t0)], axis=-1))
    kap, Phi, (a, c) = _march(curve.kappa_at, s0, L, nu + 1, (a0, c0))
    turn = (np.exp(-0.5j * Phi) / np.sqrt(2 * _norm2(a, c)))[:, None]
    Q = turn * np.stack([a - c.conjugate(), c + a.conjugate()], axis=-1)
    lift_x = 1j * turn * np.stack([a + c.conjugate(), c - a.conjugate()], axis=-1)
    # second x-derivative from the lift equation: q_xx = -q - 2 i kappa q_x
    lift_xx = -Q - 2j * kap[:, None] * lift_x
    # the lift is measured against the curve it lifts, spline error included
    nodes = s0 + L / nu * np.arange(nu + 1)
    defect = float(np.max(np.linalg.norm(_fib_proj(Q) - curve.position_at(nodes), axis=-1)))
    if not defect <= lift_tol:
        raise LiftDrift(f"lift projection defect {defect:.2e} exceeds {lift_tol:.0e}")

    closed = curve.closed
    if closed:
        # fiber-shift monodromy: lift(L) = e^{i phi} lift(0)
        phi = np.angle(np.vdot(Q[0], Q[nu]))
        seam_gap = np.linalg.norm(np.exp(1j * phi) * Q[0] - Q[nu])
    else:
        phi, seam_gap = 0.0, 0.0

    grid = Grid2D(nu, nv, L / 2.0, 2 * np.pi, periodic_u=closed, periodic_v=True,
                  u0=s0 / 2.0)

    def node_index(U):
        # the lift is sampled at the nodes only: arguments more than 1e-6 hu
        # off a node, or outside the nodes 0 .. nu, are refused, not snapped
        x = (np.asarray(U, dtype=float) - grid.u0) / grid.hu
        idx = np.rint(x)
        if np.any(np.abs(x - idx) > 1e-6) or np.any((idx < 0) | (idx > nu)):
            raise GridMismatch("hopf_cylinder callbacks take grid-node arguments only")
        return idx.astype(int)

    def make_cb(base, fiber_i):
        # base: (nu+1, 2) complex node samples along x; value e^{-i y} base[x],
        # times (-i)^fiber_i from y-differentiation of e^{-i y}, as the real
        # view (Re z1, Im z1, Re z2, Im z2)
        def cb(U, V):
            turn = (-1j) ** fiber_i * np.exp(-1j * np.asarray(V, dtype=float))
            return (base[node_index(U)] * turn[..., None]).view(float)
        return cb

    cbs = {
        "f": make_cb(Q, 0),
        "fu": make_cb(lift_x, 0),
        "fv": make_cb(Q, 1),
        "fuu": make_cb(lift_xx, 0),
        "fuv": make_cb(lift_x, 1),
        "fvv": make_cb(Q, 2),
    }
    U, V = grid.open_mesh()
    pos = cbs["f"](U, V)
    return ParamSurface(
        S3, grid, pos, cbs, orientation=1, conformal=True,
        quotient_seam=closed,
        metadata={
            "builder": "hopf",
            "curve_length": L,
            "fiber_shift": -phi,
            "seam_gap": float(seam_gap),
            "lift_defect": defect,
            "curve": curve,
        },
    )


# ----------------------------------------------------------------------
# surfaces of revolution
# ----------------------------------------------------------------------

@dataclass
class RevolutionProfile:
    """Meridian (h(x), rho(x)) in the half plane rho > 0, with derivatives.

    x is expected to be the hyperbolic arc length of the meridian (euclidean
    speed equal to the distance rho from the axis), which makes the revolved
    chart conformal.
    """

    name: str
    rho: Callable
    h: Callable
    drho: Callable
    dh: Callable
    d2rho: Callable
    d2h: Callable
    x_period: Optional[float] = None  # closed profiles


def line_profile(rho0: float = 1.0) -> RevolutionProfile:
    """Line at distance rho0 from the axis; revolves to a round cylinder."""
    z = lambda x: np.zeros_like(np.asarray(x, dtype=float))
    return RevolutionProfile(
        "line",
        rho=lambda x: np.full_like(np.asarray(x, dtype=float), rho0),
        h=lambda x: rho0 * np.asarray(x, dtype=float),
        drho=z, dh=lambda x: np.full_like(np.asarray(x, dtype=float), rho0),
        d2rho=z, d2h=z,
    )


def disc_profile(height: float = 0.0) -> RevolutionProfile:
    """Meridian along the distance axis: revolves to a planar annulus.

    Hyperbolic arc length puts the radius at rho = e^x (conformal polar
    coordinates on the punctured plane).
    """
    e = lambda x: np.exp(np.asarray(x, dtype=float))
    z = lambda x: np.zeros_like(np.asarray(x, dtype=float))
    return RevolutionProfile(
        "disc",
        rho=e, h=lambda x: np.full_like(np.asarray(x, dtype=float), height),
        drho=e, dh=z, d2rho=e, d2h=z,
    )


def sphere_profile(R: float = 1.0) -> RevolutionProfile:
    """Semicircle of radius R touching the axis; revolves to a round sphere.

    Hyperbolic arc length gives the Mercator parametrization: the polar
    angle is theta(x) = 2 arctan(e^x), so rho = R sin(theta), h = -R cos(theta),
    and rho' = R sin(theta) cos(theta) etc.
    """
    def theta(x):
        return 2.0 * np.arctan(np.exp(np.asarray(x, dtype=float)))

    # d theta/dx = sin(theta)
    return RevolutionProfile(
        "sphere",
        rho=lambda x: R * np.sin(theta(x)),
        h=lambda x: -R * np.cos(theta(x)),
        drho=lambda x: R * np.sin(theta(x)) * np.cos(theta(x)),
        dh=lambda x: R * np.sin(theta(x)) ** 2,
        d2rho=lambda x: R * np.sin(theta(x)) * (np.cos(theta(x)) ** 2 - np.sin(theta(x)) ** 2),
        d2h=lambda x: 2 * R * np.sin(theta(x)) ** 2 * np.cos(theta(x)),
    )


def torus_profile(R: float, a: float) -> RevolutionProfile:
    """Circle of radius a centered at distance R > a from the axis.

    The hyperbolic arc length has the closed form
    x(phi) = (2/c') arctan(k tan(phi/2)) with c' = sqrt(R^2-a^2)/a and
    k = sqrt((R-a)/(R+a)); inverting gives phi(x) branch-wise. The profile
    closes with x-period 2 pi a / sqrt(R^2 - a^2).
    """
    if not R > a > 0:
        raise AxisContact("need R > a > 0 for a torus profile")
    c = np.sqrt(R * R - a * a) / a
    k = np.sqrt((R + a) / (R - a))

    def phi(x):
        t = 0.5 * c * np.asarray(x, dtype=float)
        n = np.round(t / np.pi)
        return 2.0 * (np.pi * n + np.arctan(k * np.tan(t - np.pi * n)))

    def dphi(x):
        return (R + a * np.cos(phi(x))) / a

    # rho = R + a cos(phi), h = a sin(phi)
    return RevolutionProfile(
        "torus",
        rho=lambda x: R + a * np.cos(phi(x)),
        h=lambda x: a * np.sin(phi(x)),
        drho=lambda x: -a * np.sin(phi(x)) * dphi(x),
        dh=lambda x: a * np.cos(phi(x)) * dphi(x),
        d2rho=lambda x: -a * (np.cos(phi(x)) * dphi(x) ** 2
                              + np.sin(phi(x)) * (-np.sin(phi(x)) * dphi(x))),
        d2h=lambda x: a * (-np.sin(phi(x)) * dphi(x) ** 2
                           + np.cos(phi(x)) * (-np.sin(phi(x)) * dphi(x))),
        x_period=2 * np.pi / c,
    )


def numeric_profile(t: np.ndarray, h_vals: np.ndarray, rho_vals: np.ndarray) -> RevolutionProfile:
    """Reparametrize a sampled meridian by hyperbolic arc length.

    Returns spline-backed callables; derivative accuracy is that of the
    cubic splines, so surfaces built from numeric profiles are best used
    with finite-difference tolerances.
    """
    from scipy.integrate import cumulative_simpson
    from scipy.interpolate import CubicSpline

    t = np.asarray(t, dtype=float)
    rho_vals = np.asarray(rho_vals, dtype=float)
    h_vals = np.asarray(h_vals, dtype=float)
    if np.min(rho_vals) <= 1e-6:
        raise AxisContact("profile touches the axis")
    hs = CubicSpline(t, h_vals)
    rs = CubicSpline(t, rho_vals)
    speed = np.sqrt(hs(t, 1) ** 2 + rs(t, 1) ** 2)
    x_of_t = cumulative_simpson(speed / rho_vals, x=t, initial=0.0)
    t_of_x = CubicSpline(x_of_t, t)

    def mk(spl, order):
        def f(x):
            tt = t_of_x(np.asarray(x, dtype=float))
            if order == 0:
                return spl(tt)
            if order == 1:
                return spl(tt, 1) * t_of_x(x, 1)
            return spl(tt, 2) * t_of_x(x, 1) ** 2 + spl(tt, 1) * t_of_x(x, 2)
        return f

    return RevolutionProfile(
        "numeric",
        rho=mk(rs, 0), h=mk(hs, 0),
        drho=mk(rs, 1), dh=mk(hs, 1),
        d2rho=mk(rs, 2), d2h=mk(hs, 2),
    )


def surface_of_revolution(profile: RevolutionProfile, x_span=None, nu=128,
                          nv=128) -> ParamSurface:
    """Revolve a meridian: f(x, y) = (rho(x) cos y, rho(x) sin y, h(x)).

    The profile must be parametrized by hyperbolic arc length (checked at the
    nodes, else NotArcLength); the chart is then conformal with
    e^{2 lambda} = rho^2. Closed profiles (x_period set) produce doubly
    periodic tori.
    """
    periodic_u = profile.x_period is not None and x_span is None
    if periodic_u:
        grid = Grid2D(nu, nv, profile.x_period, 2 * np.pi, True, True)
    else:
        if x_span is None:
            raise ValueError("open profiles need an x_span")
        grid = Grid2D(nu, nv, float(x_span[1] - x_span[0]), 2 * np.pi,
                      False, True, u0=float(x_span[0]))

    x = grid.u_coords()
    rho = np.asarray(profile.rho(x), dtype=float)
    if np.min(rho) <= 1e-6:
        raise AxisContact("profile touches the axis on the requested span")
    hyp = (profile.drho(x) ** 2 + profile.dh(x) ** 2) / rho ** 2
    if np.max(np.abs(hyp - 1.0)) > 1e-7:
        raise NotArcLength("profile is not hyperbolic-arclength parametrized")

    def make(order_x, order_y):
        def cb(U, V):
            r = np.asarray([profile.rho, profile.drho, profile.d2rho][order_x](U))
            hh = np.asarray([profile.h, profile.dh, profile.d2h][order_x](U))
            cy = np.cos(V + order_y * np.pi / 2)
            sy = np.sin(V + order_y * np.pi / 2)
            out = np.empty(np.broadcast_shapes(U.shape, V.shape) + (3,))
            out[..., 0] = r * cy
            out[..., 1] = r * sy
            out[..., 2] = hh if order_y == 0 else 0.0
            return out
        return cb

    cbs = {"f": make(0, 0), "fu": make(1, 0), "fv": make(0, 1),
           "fuu": make(2, 0), "fuv": make(1, 1), "fvv": make(0, 2)}
    U, V = grid.open_mesh()
    pos = cbs["f"](U, V)
    return ParamSurface(R3, grid, pos, cbs, orientation=-1, conformal=True,
                        metadata={"builder": "revolution", "profile": profile.name,
                                  "is_revolution": True})
