"""Constructors for the stock example surfaces.

All builders produce positively oriented charts with analytic derivative
callbacks where closed forms exist, so that conformality holds to machine
precision. Normal-sign conventions are pinned per builder:

* cylinder over a plane curve: outward normal on the unit circle, so the
  Weingarten operator is diag(-kappa, 0) and H = -kappa/2;
* preimage tori/cylinders of the fibration S^3 -> S^2 (chart
  f(x, y) = e^{-i y} lift(x)): A = [[-2 kappa, -1], [-1, 0]], H = -kappa;
* homogeneous torus (r1 e^{i u}, r2 e^{i v}): H = (r2^2 - r1^2)/(2 r1 r2),
  consistent with the fibration chart on latitude circles;
* surfaces of revolution: outward normal (positive enclosed volume for
  closed profiles).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .curves import (PLANE, SPHERE2, CurvatureCurve, _check_frame_drift, _frame_blocks,
                     _half_step_stages, _on_samples, _orthonormal_frames, integrate_curve)
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
            out = np.empty(U.shape + (3,))
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
    U, V = grid.mesh()
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
            out = np.zeros(U.shape + (4,))
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
    U, V = grid.mesh()
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

    def cb_f(U, V):
        out = np.empty(U.shape + (3,))
        out[..., :2] = curve.position_at(U)
        out[..., 2] = V
        return out

    def cb_fu(U, V):
        out = np.zeros(U.shape + (3,))
        out[..., :2] = curve.tangent_at(U)
        return out

    def cb_fv(U, V):
        out = np.zeros(U.shape + (3,))
        out[..., 2] = 1.0
        return out

    def cb_fuu(U, V):
        out = np.zeros(U.shape + (3,))
        out[..., :2] = curve.second_derivative_at(U)
        return out

    zero3 = lambda U, V: np.zeros(U.shape + (3,))
    cbs = {"f": cb_f, "fu": cb_fu, "fv": cb_fv, "fuu": cb_fuu,
           "fuv": zero3, "fvv": zero3}
    U, V = grid.mesh()
    pos = cb_f(U, V)
    return ParamSurface(R3, grid, pos, cbs if analytic else None, orientation=1,
                        conformal=True,
                        metadata={"builder": "cylinder", "curve_length": Lu,
                                  "curve": curve})


# ----------------------------------------------------------------------
# preimage cylinders/tori of the fibration S^3 -> S^2
# ----------------------------------------------------------------------

def _fib_jac(w):
    """Matrices J(w), shape (..., 4, 4), with J(w) q = M(q)^T w for the
    differential M(q) of the fibration map (2 z1 conj(z2), |z1|^2 - |z2|^2),
    q = (Re z1, Im z1, Re z2, Im z2). J(w) is symmetric and linear in w."""
    w0, w1, w2 = 2 * w[..., 0], 2 * w[..., 1], 2 * w[..., 2]
    J = np.zeros(w.shape[:-1] + (4, 4))
    J[..., 0, 0] = J[..., 1, 1] = w2
    J[..., 2, 2] = J[..., 3, 3] = -w2
    J[..., 0, 2] = J[..., 2, 0] = J[..., 1, 3] = J[..., 3, 1] = w0
    J[..., 1, 2] = J[..., 2, 1] = w1
    J[..., 0, 3] = J[..., 3, 0] = -w1
    return J


def _fib_proj(q):
    """The fibration map S^3 -> S^2 on (..., 4) arrays."""
    a1, b1, a2, b2 = q[..., 0], q[..., 1], q[..., 2], q[..., 3]
    return np.stack([2 * (a1 * a2 + b1 * b2), 2 * (b1 * a2 - a1 * b2),
                     a1 * a1 + b1 * b1 - a2 * a2 - b2 * b2], axis=-1)


def _frame_quaternions(F):
    """Unit quaternions (w, x, y, z) of the rotations F (b, 3, 3) by the largest
    pivot (Shepperd): K below is 4 u u^T, so its row with the largest
    diagonal entry, normalized, is u."""
    t = np.trace(F, axis1=1, axis2=2)
    K = np.empty((len(F), 4, 4))
    K[:, 0, 0] = 1 + t
    K[:, 0, 1:] = K[:, 1:, 0] = (F - F.transpose(0, 2, 1))[:, [2, 0, 1], [1, 2, 0]]
    K[:, 1:, 1:] = F + F.transpose(0, 2, 1) + (1 - t)[:, None, None] * np.eye(3)
    u = K[np.arange(len(F)), np.argmax(np.einsum("bii->bi", K), axis=-1)]
    return u / np.linalg.norm(u, axis=-1, keepdims=True)


def _hopf_lift(F0, q0, kfine, nsteps, h, every):
    """Normalized frames (p, t, n) and horizontal lift q at every `every`-th step.

    With U(s) the SU(2) lift of the frame F(s), its sign continuous from
    step to step, U(s) U(0)^{-1} q0 lies over the curve and turns along the
    fiber at rate kappa/2, so q = e^{-i Phi/2} U U(0)^{-1} q0, Phi = int kappa ds
    by the RK4 (Simpson) sum over kfine, kappa at half steps (2 nsteps + 1).
    """
    nodes, sign = [], 1.0
    for i0, frames in _frame_blocks(
            F0, lambda i0, i1: (1.0, _half_step_stages(kfine[2 * i0:2 * i1 + 1])), nsteps, h):
        _check_frame_drift(frames)
        u = _frame_quaternions(frames)
        # u[0] repeats the last quaternion of the previous block
        flips = np.where(np.sum(u[1:] * u[:-1], axis=-1) < 0, -1.0, 1.0)
        signs = sign * np.cumprod(np.concatenate([[1.0], flips]))
        sign = signs[-1]
        nodes.append((_on_samples(frames, i0, every, nsteps),
                      _on_samples(u * signs[:, None], i0, every, nsteps)))
    P, T, N = _orthonormal_frames(np.concatenate([f for f, _ in nodes]))
    w, x, y, z = np.concatenate([g for _, g in nodes]).T
    # SU(2) in the convention of `_fib_proj`: the fibration map of U q is
    # the rotation of u applied to that of q
    U = np.moveaxis(np.array([[w + 1j * z, 1j * x - y], [1j * x + y, w - 1j * z]]), -1, 0)
    phi = np.cumsum(h / 6 * (kfine[:-1:2] + 4 * kfine[1::2] + kfine[2::2]))
    turn = np.exp(-0.5j * np.concatenate([[0.0], phi[every - 1::every]]))
    q = turn[:, None] * (U @ (U[0].conj().T @ (q0[0::2] + 1j * q0[1::2])))
    return P, T, N, np.stack([q.real, q.imag], axis=-1).reshape(-1, 4)


def _imul(q):
    """Multiplication by i on both complex coordinates of R^4 = C^2."""
    out = np.empty_like(q)
    out[..., 0] = -q[..., 1]
    out[..., 1] = q[..., 0]
    out[..., 2] = -q[..., 3]
    out[..., 3] = q[..., 2]
    return out


def _rot_fiber(q, ang):
    """e^{i ang} acting on both complex coordinates; ang broadcasts."""
    c, s = np.cos(ang), np.sin(ang)
    out = np.empty(np.broadcast(q[..., 0], ang).shape + (4,))
    out[..., 0] = c * q[..., 0] - s * q[..., 1]
    out[..., 1] = s * q[..., 0] + c * q[..., 1]
    out[..., 2] = c * q[..., 2] - s * q[..., 3]
    out[..., 3] = s * q[..., 2] + c * q[..., 3]
    return out


def hopf_cylinder(curve: CurvatureCurve, nu=256, nv=64, lift_tol=1e-7) -> ParamSurface:
    """Preimage surface in S^3 of a spherical curve under the fibration.

    Chart f(x, y) = e^{-i y} lift(x) with x the arc length of the horizontal
    lift (x = s/2) and y the fiber arc length; the chart is isometric. For a
    closed curve of length L the surface is a torus represented on the
    rectangular fundamental domain [0, L/2) x [0, 2 pi) with a fiber-shift
    seam in x (see ParamSurface.quotient_seam). The lift is read off the
    frames in closed form; StepTooLarge is raised when they drift as in
    `integrate_curve`, LiftDrift when the projection defect |pi(lift) - p|
    at the nodes, metadata["lift_defect"], exceeds lift_tol.
    """
    if curve.ambient != SPHERE2:
        raise WrongSpaceForm("hopf_cylinder needs a curve on S^2")
    tnorm = np.linalg.norm(curve.tangent, axis=-1)
    if np.max(np.abs(tnorm - 1.0)) > 1e-9:
        raise NotArcLength("curve tangents are not unit vectors")

    L = curve.length if curve.closed else float(curve.s[-1] - curve.s[0])
    s0 = float(curve.s[0])
    # node spacing in s; x = s/2
    ds = L / nu
    m = max(1, int(np.ceil(ds / min(1e-3, L / 1e4))))
    h = ds / m
    nsteps = nu * m
    sfine = s0 + 0.5 * h * np.arange(2 * nsteps + 1)
    kfine = np.asarray(curve.kappa_at(sfine), dtype=float)

    p0 = curve.position_at(s0)
    t0 = curve.tangent_at(s0)
    # initial lift: pick any point in the fiber over p0.
    # fiber over (w1, w2, w3): |z1|^2 = (1+w3)/2; phase choice is free.
    w = p0
    r1 = np.sqrt(max((1.0 + w[2]) / 2.0, 0.0))
    if r1 > 1e-6:
        z1 = complex(r1, 0.0)
        z2 = complex(w[0], -w[1]) / (2 * z1)  # conj(z2) = (w1 + i w2)/(2 z1)
    else:
        z2 = complex(1.0, 0.0)
        z1 = complex(w[0], w[1]) / (2 * np.conj(z2))
    q0 = np.array([z1.real, z1.imag, z2.real, z2.imag])
    q0 /= np.linalg.norm(q0)

    F0 = np.stack([p0, t0, np.cross(p0, t0)], axis=-1)
    # frames that overflow on an unresolved curvature fail the drift check
    with np.errstate(over="ignore", invalid="ignore"):
        P, T, N, Q = _hopf_lift(F0, q0, kfine, nsteps, h, m)
    defect = float(np.max(np.linalg.norm(_fib_proj(Q) - P, axis=-1)))
    if not defect <= lift_tol:
        raise LiftDrift(f"lift projection defect {defect:.2e} exceeds {lift_tol:.0e}")
    kap = np.asarray(curve.kappa_at(s0 + ds * np.arange(nu + 1)), dtype=float)

    # x-derivatives of the lift at the nodes from the governing equations:
    # d lift/ds = J(t) q / 4 and x = s/2
    JT = _fib_jac(T)
    lift_x = 0.5 * np.einsum("nij,nj->ni", JT, Q)
    tprime = -P + kap[:, None] * N
    lift_xx = (0.5 * np.einsum("nij,nj->ni", JT, lift_x)
               + np.einsum("nij,nj->ni", _fib_jac(tprime), Q))

    closed = curve.closed
    if closed:
        # fiber-shift monodromy: lift(L) = e^{i phi} lift(0)
        z1a = Q[0, 0] + 1j * Q[0, 1]
        z1b = Q[nu, 0] + 1j * Q[nu, 1]
        z2a = Q[0, 2] + 1j * Q[0, 3]
        z2b = Q[nu, 2] + 1j * Q[nu, 3]
        phi = np.angle(z1b / z1a) if abs(z1a) > 0.5 else np.angle(z2b / z2a)
        seam_gap = np.linalg.norm(_rot_fiber(Q[0], phi) - Q[nu])
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
        # base: (nu+1, 4) node samples along x; value e^{-i y} base[x],
        # times i^(fiber_i) from y-differentiation of e^{-i y} (each y
        # derivative multiplies by -i).
        def cb(U, V):
            arr = base[node_index(U)]
            for _ in range(fiber_i):
                arr = -_imul(arr)
            return _rot_fiber(arr, -V)
        return cb

    cbs = {
        "f": make_cb(Q, 0),
        "fu": make_cb(lift_x, 0),
        "fv": make_cb(Q, 1),
        "fuu": make_cb(lift_xx, 0),
        "fuv": make_cb(lift_x, 1),
        "fvv": make_cb(Q, 2),
    }
    U, V = grid.mesh()
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


def surface_of_revolution(profile: RevolutionProfile, x_span=None, nu=128, nv=128,
                          mode: str = "conformal-hyperbolic-arclength") -> ParamSurface:
    """Revolve a meridian: f(x, y) = (rho(x) cos y, rho(x) sin y, h(x)).

    In conformal mode the profile must be parametrized by hyperbolic arc
    length (checked); the chart is then conformal with e^{2 lambda} = rho^2.
    Closed profiles (x_period set) produce doubly periodic tori.
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
    conformal = mode.startswith("conformal")
    if conformal:
        hyp = (profile.drho(x) ** 2 + profile.dh(x) ** 2) / rho ** 2
        if np.max(np.abs(hyp - 1.0)) > 1e-7:
            raise NotArcLength("profile is not hyperbolic-arclength parametrized")

    def make(order_x, order_y):
        def cb(U, V):
            r = np.asarray([profile.rho, profile.drho, profile.d2rho][order_x](U))
            hh = np.asarray([profile.h, profile.dh, profile.d2h][order_x](U))
            cy = np.cos(V + order_y * np.pi / 2)
            sy = np.sin(V + order_y * np.pi / 2)
            out = np.empty(U.shape + (3,))
            out[..., 0] = r * cy
            out[..., 1] = r * sy
            out[..., 2] = hh if order_y == 0 else 0.0
            return out
        return cb

    cbs = {"f": make(0, 0), "fu": make(1, 0), "fv": make(0, 1),
           "fuu": make(2, 0), "fuv": make(1, 1), "fvv": make(0, 2)}
    U, V = grid.mesh()
    pos = cbs["f"](U, V)
    return ParamSurface(R3, grid, pos, cbs, orientation=-1, conformal=conformal,
                        metadata={"builder": "revolution", "profile": profile.name,
                                  "is_revolution": True})
