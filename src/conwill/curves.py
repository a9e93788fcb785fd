"""Curvature-prescribed curves in the plane and on S^2, and elastic-curve ODEs.

Curves are recovered from their (geodesic) curvature kappa(s) by fixed-step
classical RK4 integration of the frame equations:

* plane:  theta' = kappa, x' = cos(theta), y' = sin(theta)
* sphere: F' = F K(kappa) for the frame F = (p | t | n), n = p x t, with
  K(kappa) = [[0, -1, 0], [1, 0, -kappa], [0, kappa, 0]]

Both are evaluated without a per-step Python loop. In the plane the theta
stages do not depend on the state, so theta and (x, y) are cumulative sums
of the RK4 stage formula. On the sphere the frame equation is linear, so
one RK4 step is a matrix, F_{i+1} = F_i M_i, built from the four stage
curvatures of the step; `_frame_blocks` builds these step matrices for
FRAME_BLOCK steps at once and multiplies them out by a log-depth prefix
scan, carrying the frame from one block to the next. The same kernel
serves the frame transfer of the shooting method and the Hopf lift in
`builders`, which reads the lift off the frames in closed form. Frames are
not renormalized during the integration; their drift from orthonormality
is the step-size check (`_check_frame_drift`).

The generalized elastic-curve equation 2 k'' + k^3 + a k + b = 0 and its
linearly-forced variant k'' + k^3/2 = (a + b s) k are integrated by one
scalar RK4 stepper for k'' = f(s, k). Closed spherical solutions are found by
shooting on the rotation angle of the frame transfer over one curvature
period, and both come from the first integral E = k'^2 + V(k),
V = k^4/4 + a k^2/2 + b k, without stepping the curvature: between the
turning points lo, hi the substitution k = m + r sin(theta) gives the smooth
2 pi-periodic speed ds/dtheta, so the period is a trapezoid sum in theta and
the transfer is the frame kernel run in theta over one turn (THETA_STEPS
steps). An orbit too close to its separatrix for that fixed theta grid
raises NearSeparatrix.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence, Union

import numpy as np
from scipy.interpolate import CubicSpline

from .errors import BlowUp, NearSeparatrix, NoSolutionInBox, StepTooLarge

PLANE = "Plane"
SPHERE2 = "Sphere2"

MAX_STEP = 1e-3
MIN_STEPS_PER_SPAN = 10_000
BLOWUP_LIMIT = 1e6
FRAME_DRIFT_TOL = 1e-6
FRAME_BLOCK = 1024          # RK4 steps per batched block of step matrices
PERIOD_NODES = 256          # trapezoid nodes in theta for the curvature period
THETA_STEPS = 4096          # RK4 steps in theta for the frame transfer over one period
SEPARATRIX_TOL = 1e-12      # relative change of the period sum on every other node


def _default_step(span: float) -> float:
    return min(MAX_STEP, span / MIN_STEPS_PER_SPAN)


# ----------------------------------------------------------------------
# blocked RK4 step matrices for linear ODEs Y' = Y K(s)
# ----------------------------------------------------------------------

def _rk4_step_matrices(K, h):
    """RK4 step matrices M (b, d, d) of Y' = Y K(s) from the stage generators K (b, 4, d, d).

    The RK4 stages of a linear right-acting system are Y A_j with A_1 = K_1
    and A_j = S_j K_j for S_2 = I + h/2 A_1, S_3 = I + h/2 A_2, S_4 = I + h A_3
    (stage j evaluates K_j at the state Y S_j); one step is Y -> Y M with
    M = I + h/6 (A_1 + 2 A_2 + 2 A_3 + A_4).
    """
    eye = np.eye(K.shape[-1])
    A2 = (eye + 0.5 * h * K[:, 0]) @ K[:, 1]
    A3 = (eye + 0.5 * h * A2) @ K[:, 2]
    A4 = (eye + h * A3) @ K[:, 3]
    return eye + h / 6.0 * (K[:, 0] + 2 * A2 + 2 * A3 + A4)


def _frame_blocks(F0, stages, nsteps, h):
    """RK4 on the sphere frame equation F' = F sigma K(kappa), FRAME_BLOCK steps at a time.

    stages(i0, i1) returns the speeds sigma and the (i1 - i0, 4) stage
    curvatures of steps i0 .. i1 - 1; sigma = ds/dt is 1 in arc length and
    broadcasts against the curvatures. Yields (i0, frames) per block: frames
    (b + 1, 3, 3) are the frames before steps i0 .. i1 (frames[0] is the
    frame carried in from the previous block). Frames are not renormalized.
    """
    F = np.asarray(F0, dtype=float)
    for i0 in range(0, nsteps, FRAME_BLOCK):
        i1 = min(i0 + FRAME_BLOCK, nsteps)
        sigma, kap = stages(i0, i1)
        K = np.zeros(kap.shape + (3, 3))
        K[..., 1, 0] = sigma
        K[..., 0, 1] = -sigma
        K[..., 2, 1] = sigma * kap
        K[..., 1, 2] = -sigma * kap
        # right prefix products M_0, M_0 M_1, ... by a log-depth scan
        P, d = _rk4_step_matrices(K, h), 1
        while d < len(P):
            P[d:] = P[:-d] @ P[d:]
            d *= 2
        frames = np.concatenate([F[None], F @ P])
        F = frames[-1]
        yield i0, frames


def _check_frame_drift(frames):
    """Raise StepTooLarge when frames (b, 3, 3) drift from orthonormality by
    more than FRAME_DRIFT_TOL, or overflowed to an inf or nan drift."""
    pp, tt = frames[:, :, 0], frames[:, :, 1]
    drift = np.max(np.abs([np.sum(pp * pp, axis=-1) - 1.0,
                           np.sum(tt * tt, axis=-1) - 1.0,
                           np.sum(pp * tt, axis=-1)]))
    if not drift <= FRAME_DRIFT_TOL:
        raise StepTooLarge(f"frame drift {drift:.2e} exceeds {FRAME_DRIFT_TOL:.0e}")


def _half_step_stages(kh):
    """RK4 stage values (k(s), k(s + h/2), k(s + h/2), k(s + h)) per step from
    samples kh on the half-step grid (2 b + 1 values for b steps)."""
    mid = kh[1::2]
    return np.stack([kh[:-1:2], mid, mid, kh[2::2]], axis=-1)


def _on_samples(a, i0, every, nsteps, per_step=1):
    """Entries of a block array (per_step per step, the first at step i0) at
    the steps 0, every, 2 every, ...; the last entry of a block opens the
    next block and is kept only at the end of the nsteps steps."""
    stop = None if i0 + FRAME_BLOCK >= nsteps else -1
    return a[per_step * ((-i0) % every):stop:per_step * every]


def _orthonormal_frames(F):
    """(p, t, n) from frames F (..., 3, 3): p and t Gram-Schmidt normalized, n = p x t."""
    p = F[..., 0] / np.linalg.norm(F[..., 0], axis=-1, keepdims=True)
    t = F[..., 1] - np.sum(F[..., 1] * p, axis=-1, keepdims=True) * p
    t = t / np.linalg.norm(t, axis=-1, keepdims=True)
    return p, t, np.cross(p, t)


# ----------------------------------------------------------------------
# scalar curvature stepper
# ----------------------------------------------------------------------

def _rk4_run(f, k0, dk0, h, nsteps, store_every, out):
    """RK4 on k'' = f(s, k) from s = 0; returns 0 on success, 1 on blow-up."""
    k, dk = k0, dk0
    s = 0.0
    out[0, 0] = k
    out[0, 1] = dk
    m = 1
    for i in range(nsteps):
        l1 = f(s, k)
        k2 = dk + 0.5 * h * l1
        l2 = f(s + 0.5 * h, k + 0.5 * h * dk)
        k3 = dk + 0.5 * h * l2
        l3 = f(s + 0.5 * h, k + 0.5 * h * k2)
        k4 = dk + h * l3
        l4 = f(s + h, k + h * k3)
        k += h / 6.0 * (dk + 2 * k2 + 2 * k3 + k4)
        dk += h / 6.0 * (l1 + 2 * l2 + 2 * l3 + l4)
        s += h
        if abs(k) > BLOWUP_LIMIT:
            return 1
        if (i + 1) % store_every == 0:
            out[m, 0] = k
            out[m, 1] = dk
            m += 1
    return 0


# ----------------------------------------------------------------------
# curve container
# ----------------------------------------------------------------------

@dataclass
class CurvatureCurve:
    """A curve recovered from kappa(s), with sampled frame and splines."""

    ambient: str
    s: np.ndarray
    kappa: np.ndarray
    position: np.ndarray
    tangent: np.ndarray
    normal: Optional[np.ndarray] = None
    closed: bool = False
    closure_gap: float = float("nan")
    _splines: dict = field(default_factory=dict, repr=False)

    @property
    def length(self) -> float:
        # for closed curves s runs over [0, L); the stored period is L
        return float(self.s[-1] - self.s[0]) + (self.ds if self.closed else 0.0)

    @property
    def ds(self) -> float:
        return float(self.s[1] - self.s[0])

    def _spline(self, name: str, values: np.ndarray) -> CubicSpline:
        key = name
        if key not in self._splines:
            if self.closed:
                ss = np.append(self.s, self.s[0] + self.length)
                vv = np.concatenate([values, values[:1]], axis=0)
                self._splines[key] = CubicSpline(ss, vv, axis=0, bc_type="periodic")
            else:
                self._splines[key] = CubicSpline(self.s, values, axis=0)
        return self._splines[key]

    def _wrap(self, s):
        if self.closed:
            return self.s[0] + np.mod(np.asarray(s, dtype=float) - self.s[0], self.length)
        return np.asarray(s, dtype=float)

    def kappa_at(self, s):
        return self._spline("kappa", self.kappa)(self._wrap(s))

    def position_at(self, s):
        return self._spline("position", self.position)(self._wrap(s))

    def tangent_at(self, s):
        if self.ambient == PLANE:
            th = self.theta_at(s)
            return np.stack([np.cos(th), np.sin(th)], axis=-1)
        return self._spline("tangent", self.tangent)(self._wrap(s))

    def normal_at(self, s):
        if self.ambient == PLANE:
            th = self.theta_at(s)
            return np.stack([-np.sin(th), np.cos(th)], axis=-1)
        return self._spline("normal", self.normal)(self._wrap(s))

    def theta_at(self, s):
        """Tangent angle for plane curves, continuous in s."""
        if self.ambient != PLANE:
            raise ValueError("theta only defined for plane curves")
        theta = self._splines.get("_theta_data")
        if theta is None:
            raise ValueError("curve lacks tangent-angle data")
        slope, spl = theta
        s = self._wrap(s)
        return slope * (s - self.s[0]) + spl(s)

    def second_derivative_at(self, s):
        """gamma''(s) = kappa(s) n(s) (unit-speed Frenet relation)."""
        k = self.kappa_at(s)
        n = self.normal_at(s)
        if self.ambient == SPHERE2:
            # on the sphere gamma'' = -gamma + kappa n
            return -self.position_at(s) + k[..., None] * n
        return k[..., None] * n


def _finish_plane_curve(s, kappa, theta, xy, closed_tol=1e-7):
    # theta from integration (or unwrap) is continuous in s; over one period
    # of a closed curve it gains 2 pi * winding, so store it as that linear
    # part plus a periodic remainder.
    pos = np.asarray(xy)
    tan = np.stack([np.cos(theta), np.sin(theta)], axis=-1)
    gap = float(np.linalg.norm(pos[-1] - pos[0])
                + np.linalg.norm(np.mod(theta[-1] - theta[0] + np.pi, 2 * np.pi) - np.pi))
    closed = gap < closed_tol
    total_turn = theta[-1] - theta[0]
    if closed:
        s, kappa, theta, pos, tan = s[:-1], kappa[:-1], theta[:-1], pos[:-1], tan[:-1]
    c = CurvatureCurve(PLANE, s, kappa, pos, tan, None, closed, gap)
    if closed:
        L = c.length
        slope = 2 * np.pi * round(total_turn / (2 * np.pi)) / L
        resid = theta - slope * (s - s[0])
        ss = np.append(s, s[0] + L)
        rr = np.append(resid, resid[0])
        spl = CubicSpline(ss, rr, bc_type="periodic")
    else:
        slope = 0.0
        spl = CubicSpline(s, theta)
    c._splines["_theta_data"] = (slope, spl)
    return c


def integrate_curve(
    kappa: Union[Callable[[float], float], np.ndarray],
    ambient: str,
    s_span: tuple[float, float],
    n_samples: int = 4097,
    p0=None,
    t0=None,
    closed_tol: float = 1e-7,
) -> CurvatureCurve:
    """Recover a curve from its curvature function by frame integration.

    kappa may be a callable of arc length or an array of samples uniform
    over s_span. A callable is evaluated on arrays of arc lengths; one that
    returns a scalar is taken as constant. The result stores n_samples frame
    samples on the span; a curve whose endpoint frame returns to the start
    within closed_tol is marked closed (and the duplicate endpoint sample is
    dropped). On S^2, StepTooLarge is raised when the frames drift from
    orthonormality by more than FRAME_DRIFT_TOL.
    """
    s0, s1 = float(s_span[0]), float(s_span[1])
    span = s1 - s0
    if span <= 0:
        raise ValueError("empty arc-length span")
    if ambient not in (PLANE, SPHERE2):
        raise ValueError(f"unknown ambient {ambient!r}")
    if callable(kappa):
        kfun = kappa
    else:
        karr = np.asarray(kappa, dtype=float)
        kgrid = np.linspace(s0, s1, len(karr))
        kfun = CubicSpline(kgrid, karr)

    ds = span / (n_samples - 1)
    m = max(1, int(np.ceil(ds / _default_step(span))))
    h = ds / m
    nsteps = (n_samples - 1) * m
    s = s0 + ds * np.arange(n_samples)

    def kappa_half_steps(i0, i1):
        # kappa at s0 + j h/2 for the steps i0 .. i1 - 1 (2 (i1 - i0) + 1
        # values); a callable that returns a scalar is broadcast
        sh = s0 + 0.5 * h * np.arange(2 * i0, 2 * i1 + 1)
        return np.broadcast_to(np.asarray(kfun(sh), dtype=float), sh.shape)

    if ambient == PLANE:
        # the theta stages do not depend on the state: theta advances by
        # h/6 (k(s) + 4 k(s + h/2) + k(s + h)), and x + i y by the RK4 stage
        # average of e^{i theta} at the stage angles
        kap, theta, xy = [], [], []
        th, z = 0.0, 0.0j
        for i0 in range(0, nsteps, FRAME_BLOCK):
            i1 = min(i0 + FRAME_BLOCK, nsteps)
            kh = kappa_half_steps(i0, i1)
            k1, k2, k4 = kh[:-1:2], kh[1::2], kh[2::2]
            ths = np.cumsum(np.concatenate([[th], h / 6 * (k1 + 4 * k2 + k4)]))
            dz = np.exp(1j * ths[:-1]) * (1 + 2 * np.exp(0.5j * h * k1)
                                          + 2 * np.exp(0.5j * h * k2) + np.exp(1j * h * k2))
            zs = np.cumsum(np.concatenate([[z], h / 6 * dz]))
            th, z = ths[-1], zs[-1]
            kap.append(_on_samples(kh, i0, m, nsteps, 2))
            theta.append(_on_samples(ths, i0, m, nsteps))
            xy.append(_on_samples(zs, i0, m, nsteps))
        xy = np.concatenate(xy)
        return _finish_plane_curve(s, np.concatenate(kap), np.concatenate(theta),
                                   np.stack([xy.real, xy.imag], axis=-1), closed_tol)

    # sphere
    if p0 is None:
        p0 = np.array([0.0, 0.0, 1.0])
    if t0 is None:
        t0 = np.array([1.0, 0.0, 0.0])
    p = np.asarray(p0, dtype=float)
    t = np.asarray(t0, dtype=float)
    p = p / np.linalg.norm(p)
    t = t - (t @ p) * p
    t = t / np.linalg.norm(t)

    kap, kept = [], []

    def stages(i0, i1):
        kh = kappa_half_steps(i0, i1)
        kap.append(_on_samples(kh, i0, m, nsteps, 2))
        return 1.0, _half_step_stages(kh)

    # frames that overflow on an unresolved curvature fail the drift check
    with np.errstate(over="ignore", invalid="ignore"):
        F0 = np.stack([p, t, np.cross(p, t)], axis=-1)
        for i0, frames in _frame_blocks(F0, stages, nsteps, h):
            _check_frame_drift(frames)
            kept.append(_on_samples(frames, i0, m, nsteps))
    pos, tan, nor = _orthonormal_frames(np.concatenate(kept))
    kap = np.concatenate(kap)

    gap = float(np.linalg.norm(pos[-1] - pos[0]) + np.linalg.norm(tan[-1] - tan[0]))
    closed = gap < closed_tol
    if closed:
        s, kap, pos, tan, nor = s[:-1], kap[:-1], pos[:-1], tan[:-1], nor[:-1]
    return CurvatureCurve(SPHERE2, s, kap, pos, tan, nor, closed, gap)


def curve_from_parametric(
    ambient: str,
    gamma: Callable,
    dgamma: Callable,
    ddgamma: Callable,
    t_span: tuple[float, float],
    closed: bool = True,
    n_samples: int = 4097,
    n_dense: int = 20001,
) -> CurvatureCurve:
    """Arc-length resample an explicitly parametrized curve.

    gamma, dgamma, ddgamma are vectorized callables of the parameter t.
    Plane curvature is (x' y'' - y' x'') / |gamma'|^3; spherical geodesic
    curvature is det[gamma, gamma', gamma''] / |gamma'|^3 for |gamma| = 1.
    """
    t0, t1 = map(float, t_span)
    td = np.linspace(t0, t1, n_dense)
    speeds = np.linalg.norm(np.asarray(dgamma(td)), axis=-1)
    # cumulative arc length via Simpson on the dense grid
    from scipy.integrate import cumulative_simpson

    sd = np.asarray(cumulative_simpson(speeds, x=td, initial=0.0))
    L = float(sd[-1])
    t_of_s = CubicSpline(sd, td)
    s = np.linspace(0.0, L, n_samples)
    ts = t_of_s(s)
    ts[0], ts[-1] = t0, t1

    P = np.asarray(gamma(ts), dtype=float)
    D1 = np.asarray(dgamma(ts), dtype=float)
    D2 = np.asarray(ddgamma(ts), dtype=float)
    sp = np.linalg.norm(D1, axis=-1)
    tan = D1 / sp[..., None]

    if ambient == PLANE:
        kap = (D1[:, 0] * D2[:, 1] - D1[:, 1] * D2[:, 0]) / sp ** 3
        theta = np.unwrap(np.arctan2(tan[:, 1], tan[:, 0]))
        return _finish_plane_curve(s, kap, theta, P, closed_tol=1e-7 if closed else 0.0)

    if ambient == SPHERE2:
        P = P / np.linalg.norm(P, axis=-1, keepdims=True)
        kap = np.einsum("ij,ij->i", np.cross(P, D1), D2) / sp ** 3
        tan = tan - np.einsum("ij,ij->i", tan, P)[:, None] * P
        tan /= np.linalg.norm(tan, axis=-1, keepdims=True)
        nor = np.cross(P, tan)
        gap = float(np.linalg.norm(P[-1] - P[0]) + np.linalg.norm(tan[-1] - tan[0]))
        is_closed = closed and gap < 1e-7
        if is_closed:
            s, kap, P, tan, nor = s[:-1], kap[:-1], P[:-1], tan[:-1], nor[:-1]
        return CurvatureCurve(SPHERE2, s, kap, P, tan, nor, is_closed, gap)

    raise ValueError(f"unknown ambient {ambient!r}")


# ----------------------------------------------------------------------
# elastic-curve ODEs
# ----------------------------------------------------------------------

@dataclass
class OdeSolution:
    """Sampled solution of a curvature ODE with conservation diagnostics."""

    a: float
    b: float
    s: np.ndarray
    kappa: np.ndarray
    dkappa: np.ndarray
    energy_drift: float = float("nan")

    def kappa_spline(self) -> CubicSpline:
        return CubicSpline(self.s, self.kappa)

    def as_callable(self):
        spl = self.kappa_spline()
        return lambda s: spl(np.clip(s, self.s[0], self.s[-1]))


def elastica_first_integral(kappa, dkappa, a, b):
    """E = (k')^2 + k^4/4 + a k^2/2 + b k, conserved along solutions."""
    k = np.asarray(kappa)
    return np.asarray(dkappa) ** 2 + 0.25 * k ** 4 + 0.5 * a * k ** 2 + b * k


def _run_ode(f, k0, dk0, s_span, step, max_stored):
    s0, s1 = map(float, s_span)
    span = s1 - s0
    if span <= 0:
        raise ValueError("empty span")
    h = step if step is not None else _default_step(span)
    nsteps = int(np.ceil(span / h))
    h = span / nsteps
    store_every = max(1, int(np.ceil(nsteps / (max_stored - 1))))
    nstored = nsteps // store_every + 1
    out = np.empty((nstored, 2))
    if _rk4_run(f, float(k0), float(dk0), h, nsteps, store_every, out) != 0:
        raise BlowUp(f"|kappa| exceeded {BLOWUP_LIMIT:.0e}")
    s = s0 + h * store_every * np.arange(nstored)
    return s, out[:, 0], out[:, 1]


def elastica_ode(a, b, k0, dk0, s_span, step=None, max_stored=200_001) -> OdeSolution:
    """Integrate 2 k'' + k^3 + a k + b = 0 and monitor its first integral."""
    s, k, dk = _run_ode(lambda s, k: -0.5 * (k * k * k + a * k + b),
                        k0, dk0, s_span, step, max_stored)
    E = elastica_first_integral(k, dk, a, b)
    scale = max(float(np.max(np.abs(E))), 1.0)
    drift = float(np.max(np.abs(E - E[0]))) / scale
    return OdeSolution(a, b, s, k, dk, drift)


def burstall_ode(a, b, k0, dk0, s_span, step=None, max_stored=200_001) -> OdeSolution:
    """Integrate k'' + k^3/2 = (a + b s) k (no conserved quantity)."""
    s, k, dk = _run_ode(lambda s, k: (a + b * s) * k - 0.5 * k ** 3,
                        k0, dk0, s_span, step, max_stored)
    return OdeSolution(a, b, s, k, dk)


# ----------------------------------------------------------------------
# closed solutions by shooting
# ----------------------------------------------------------------------

@dataclass
class ClosedElastica:
    a: float
    b: float
    kappa0: float
    period: float           # total length of the closed curve
    closure_gap: float
    n_lobes: int            # curvature periods until closure (0 for circles)
    winding: int
    curve: CurvatureCurve = field(repr=False, default=None)


def _rotation_angle(R: np.ndarray) -> float:
    return float(np.arccos(np.clip((np.trace(R) - 1.0) / 2.0, -1.0, 1.0)))


def _theta_orbit(a, b, k0):
    """Period and theta-parametrization of the elastica orbit through (k0, 0).

    With E = V(k0), 4 (V(k) - V(k0)) = (k - k0) (k - k1) S(k) for the turning
    point k1, the root of the quotient cubic next to k0 in the direction of
    -V'(k0), and a monic quadratic S that is positive between them. Then
    k'^2 = (hi - k) (k - lo) S(k) / 4, and on k = m + r sin(theta) the speed
    ds/dtheta = 2 / sqrt(S(k)) is smooth and 2 pi-periodic; one turn in theta
    is one curvature period. The period is the trapezoid sum over
    PERIOD_NODES nodes, which converges spectrally. Near a separatrix S has a
    root close to [lo, hi], the speed peaks too sharply for the fixed theta
    grid, and the sum over every other node moves by more than
    SEPARATRIX_TOL: NearSeparatrix is raised. V is coercive, so every other
    orbit is bounded. Returns T and orbit(theta) -> (ds/dtheta, k).
    """
    # quotient cubic c(k) = 4 (V(k) - V(k0)) / (k - k0); c(k0) = 4 V'(k0)
    c2, c1 = k0, k0 * k0 + 2 * a
    roots = np.roots([1.0, c2, c1, k0 ** 3 + 2 * a * k0 + 4 * b])
    real = roots.real[np.abs(roots.imag) <= 1e-9 * (1.0 + np.abs(roots))]
    if k0 ** 3 + a * k0 + b > 0:
        k1 = real[real < k0].max()
    else:
        k1 = real[real > k0].min()
    s1 = c2 + k1
    s0 = c1 + k1 * s1
    m, r = 0.5 * (k0 + k1), 0.5 * abs(k0 - k1)

    def orbit(theta):
        k = m + r * np.sin(theta)
        # a root of S inside [lo, hi] (a misread double root) gives nan
        with np.errstate(invalid="ignore", divide="ignore"):
            return 2.0 / np.sqrt(k * k + s1 * k + s0), k

    sigma = orbit(2 * np.pi / PERIOD_NODES * np.arange(PERIOD_NODES))[0]
    T = 2 * np.pi * float(np.mean(sigma))
    change = abs(T - 2 * np.pi * float(np.mean(sigma[::2])))
    if not change <= SEPARATRIX_TOL * T:
        raise NearSeparatrix(f"elastica orbit (a, b, k0) = ({a}, {b}, {k0}) is too close "
                             f"to its separatrix: period sums differ by {change:.1e}")
    return T, orbit


def _monodromy_angle(a, b, k0):
    """Rotation angle of the frame transfer over one curvature period, and the period.

    The transfer solves F_theta = F sigma(theta) K(k(theta)) over one turn
    in theta by the frame kernel; it starts at k(0) = m and not at k0, which
    conjugates it and leaves its rotation angle unchanged.
    """
    T, orbit = _theta_orbit(a, b, k0)
    H = 2 * np.pi / THETA_STEPS
    sigma, k = map(_half_step_stages, orbit(0.5 * H * np.arange(2 * THETA_STEPS + 1)))
    P = np.eye(3)
    for _, frames in _frame_blocks(P, lambda i0, i1: (sigma[i0:i1], k[i0:i1]),
                                   THETA_STEPS, H):
        P = frames[-1]
    return _rotation_angle(P), T


def shoot_closed_elastica(
    a_range: Sequence[float],
    b_range: Sequence[float],
    targets: Sequence[tuple[int, int]] = ((1, 2), (1, 3), (2, 3), (1, 4), (3, 4)),
    kappa0_bracket: tuple[float, float] = (0.1, 3.0),
    n_scan: int = 25,
    include_circles: bool = True,
    h: float = 2e-4,
    max_results: Optional[int] = None,
) -> list[ClosedElastica]:
    """Find closed spherical solutions of 2 k'' + k^3 + a k + b = 0.

    For each (a, b), equilibria of the cubic give circles (closed for every
    geodesic curvature c, length 2 pi / sqrt(1 + c^2)). Oscillatory closed
    solutions are located by matching the rotation angle of the frame
    transfer over one curvature period to 2 pi m / n for target (m, n); the
    curve then closes after n periods with winding m. Period and angle come
    from the theta quadrature; h is the `elastica_ode` step of the returned
    curves. Scan points and brackets too close to a separatrix are skipped.
    """
    from scipy.optimize import brentq

    results: list[ClosedElastica] = []
    for a in a_range:
        for b in b_range:
            if include_circles:
                roots = np.roots([1.0, 0.0, a, b])
                for r in roots:
                    if abs(r.imag) < 1e-12:
                        c = float(r.real)
                        curve = integrate_curve(
                            lambda s, c=c: c, SPHERE2,
                            (0.0, 2 * np.pi / np.sqrt(1 + c * c)), n_samples=2049)
                        results.append(ClosedElastica(
                            a, b, c, 2 * np.pi / np.sqrt(1 + c * c),
                            curve.closure_gap, 0, 1, curve))

            k_grid = np.linspace(*kappa0_bracket, n_scan)
            angles = np.full(n_scan, np.nan)
            for i, k0 in enumerate(k_grid):
                if abs(k0 ** 3 + a * k0 + b) < 1e-9:
                    continue
                try:
                    angles[i] = _monodromy_angle(a, b, float(k0))[0]
                except NearSeparatrix:
                    continue
            for (mw, nl) in targets:
                target = 2 * np.pi * mw / nl
                if not (0.0 < target < np.pi):
                    continue  # arccos only sees [0, pi]
                gvals = angles - target
                for i in range(n_scan - 1):
                    if np.isnan(gvals[i]) or np.isnan(gvals[i + 1]):
                        continue
                    if gvals[i] * gvals[i + 1] < 0:
                        f = lambda k0: _monodromy_angle(a, b, float(k0))[0] - target
                        try:
                            k0 = brentq(f, k_grid[i], k_grid[i + 1], xtol=1e-12, rtol=8.9e-16)
                        except NearSeparatrix:
                            continue
                        T = _theta_orbit(a, b, k0)[0]
                        sol = elastica_ode(a, b, k0, 0.0, (0.0, nl * T), step=h,
                                           max_stored=8193)
                        curve = integrate_curve(sol.as_callable(), SPHERE2,
                                                (0.0, nl * T), n_samples=4097)
                        if curve.closure_gap < 1e-7:
                            results.append(ClosedElastica(
                                a, b, float(k0), nl * T, curve.closure_gap,
                                nl, mw, curve))
                        if max_results and len(results) >= max_results:
                            return results
    if not results:
        raise NoSolutionInBox("no closed elastic curve found in the search box")
    return results
