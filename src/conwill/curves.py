"""Curvature-prescribed curves in the plane and on S^2, and elastic-curve ODEs.

Curves are recovered from their (geodesic) curvature kappa(s) by fixed-step
classical RK4 integration of the frame equations:

* plane:  theta' = kappa, x' = cos(theta), y' = sin(theta)
* sphere: F' = F K(kappa) for the frame F = (p | t | n), n = p x t, with
  K(kappa) = [[0, -1, 0], [1, 0, -kappa], [0, kappa, 0]]

Both are evaluated without a per-step Python loop, by one march (`_march`)
that goes KAPPA_CHUNK steps at a time: per chunk one evaluation of kappa on
the half-step grid, one cumulative sum of the turning theta = int kappa ds,
and one cumulative sum of positions or one frame product. In the plane the
theta stages do not depend on the state, so theta and (x, y) are cumulative
sums of the RK4 stage formula. On the sphere the frame is the rotation R(u)
of a unit quaternion u, and F' = F K(kappa) lifts to the linear equation
u' = u (kappa i + k) / 2 in SU(2). One RK4 step of it is a quaternion,
u_{i+1} = u_i M_i, written out from the curvatures at the start, middle and
end of the step, the middle one serving as both the second and the third
RK4 stage (`_step_quaternions`); quaternions are stored as the complex
pairs (a, c) of [[a, -conj(c)], [c, conj(a)]]. `_frame_product` multiplies out the b
step quaternions of a chunk by a two-level scan: a sequential prefix
product inside runs of ceil(sqrt(b)) steps, all runs at once, then the
quaternion carried over the run totals in Python complex; so a chunk costs
about 2 sqrt(b) array or scalar products, not one per step. The march
carries theta and u from one chunk to the next.

The same march serves `integrate_curve`, which reads the frames (p, t, n)
off u as the columns of R(u / |u|), and the Hopf lift in `builders`, which
applies u and e^{-i theta/2} to a point of S^3. Quaternions are not
renormalized during the integration; their drift from unit norm is the
step-size check (`_check_frame_drift`).

The generalized elastic-curve equation 2 k'' + k^3 + a k + b = 0 and its
linearly-forced variant k'' + k^3/2 = (a + b s) k are integrated by one
plain-Python scalar RK4 stepper for k'' = (p + q s) k + r k^3 + c, with the
right-hand side written out in the step rather than called. Closed
spherical solutions are found by shooting on the rotation angle of the
frame transfer over one curvature period, and neither the period nor the
transfer steps an ODE. Both rest on
the first integral E = k'^2 + V(k), V = k^4/4 + a k^2/2 + b k: between the
turning points lo, hi the substitution k = m + r sin(theta) gives the smooth
2 pi-periodic speed ds/dtheta, so the period is a trapezoid sum in theta.
The transfer fixes the constant Killing field
J = (2 k + b) p + 2 k' t + (2 - a - k^2) n of the solution, so it is a
rotation about J; its angle is the advance of the curve's azimuth about J,
again a smooth periodic integral on the theta-map (`_azimuth_advance`), with
nodes doubled from PERIOD_NODES up to ANGLE_MAX_NODES. The winding of a
closed solution is read off the same advance. The curvature of a shot curve
is read off the same map: s(theta) is the FFT antiderivative of the speed,
and kappa(s) a periodic spline through (s(theta_j), k(theta_j)). An orbit
too close to its separatrix for the period sum or for the arc-length
antiderivative, or too close to the axis +-J for the azimuth sum, raises
NearSeparatrix.

scipy (CubicSpline, next_fast_len, cumulative_simpson, brentq) is imported
inside the functions that use it, so importing this module, and the package
with it, loads numpy only; the first spline, parametric curve or shooting
run pays the scipy import once.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import isqrt
from typing import TYPE_CHECKING, Callable, Optional, Sequence, Union

import numpy as np

from .errors import BlowUp, NearSeparatrix, NoSolutionInBox, StepTooLarge

if TYPE_CHECKING:
    from scipy.interpolate import CubicSpline

PLANE = "Plane"
SPHERE2 = "Sphere2"

MAX_STEP = 1e-3
MIN_STEPS_PER_SPAN = 10_000
BLOWUP_LIMIT = 1e6
FRAME_DRIFT_TOL = 1e-6
KAPPA_CHUNK = 8192          # RK4 steps per evaluation of kappa, theta and the frame product
PERIOD_NODES = 256          # trapezoid nodes in theta for the curvature period
ANGLE_MAX_NODES = 2 ** 16   # finest theta grid of the azimuth advance before NearSeparatrix
SEPARATRIX_TOL = 1e-12      # relative change of the period sum on every other node
ARC_TOL = 1e-10             # change of the theta-map arc lengths on every other node, per period
DUPLICATE_TOL = 1e-9        # turning points closer than this (relative) belong to one orbit
CLOSED_TOL = 1e-7           # |p(end) - p(start)| + |t(end) - t(start)| below which a curve is closed
N_DENSE = 20001             # parameter samples of the arc-length integral in curve_from_parametric


def _default_step(span: float) -> float:
    return min(MAX_STEP, span / MIN_STEPS_PER_SPAN)


def _check_count(name, value, least):
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or value < least:
        raise ValueError(f"{name} must be an integer of at least {least}, got {value!r}")


# ----------------------------------------------------------------------
# RK4 on the SU(2) lift of the S^2 frame: u' = u (kappa i + k) / 2
# ----------------------------------------------------------------------
# A quaternion w + x i + y j + z k is stored as the complex pair
# (a, c) = (w + i z, y + i x) of the SU(2) matrix [[a, -conj(c)], [c, conj(a)]];
# the frame (p | t | n) is the rotation R(u) of the unit quaternion u.

def _qmul(a1, c1, a2, c2):
    """The product of quaternion pairs (a1, c1) (a2, c2); arrays broadcast."""
    return a1 * a2 - c1.conjugate() * c2, c1 * a2 + a1.conjugate() * c2


def _step_quaternions(kap, h):
    """RK4 step quaternions (a, c), each (b,), of u' = u omega / 2 from the
    stage curvatures kap = (kappa(s), kappa(s + h/2), kappa(s + h)), arrays
    (b,) each; the half-step curvature is both the second and third stage.

    The stage vectors o_j = (kappa_j, 0, 1) act at half rate, so with g = h/2
    one step is u -> u M for M = 1 + g/6 S1 + g^2/6 S2 + g^3/12 S3 +
    g^4/24 S4, S1 = o1 + 2 o2 + 2 o3 + o4, S2 = o1 o2 + o2 o3 + o3 o4,
    S3 = o1 o2 o3 + o2 o3 o4 and S4 = o1 o2 o3 o4 (quaternion products). The
    o_j lie in the x-z plane, so o_i o_j = -d_ij + e_ij j with the dot
    products d_ij = kappa_i kappa_j + 1 and e_ij = kappa_j - kappa_i, and
    j (x, 0, z) = (z, 0, -x): the even terms give the w and y parts of M, the
    odd terms its x and z parts. With o3 = o2, e23 = 0 and its terms drop.
    """
    x1, x2, x4 = kap
    d12, d22, d24 = x1 * x2 + 1.0, x2 * x2 + 1.0, x2 * x4 + 1.0
    e12, e24 = x2 - x1, x4 - x2
    g = 0.5 * h
    c1, c2, c3, c4 = g / 6.0, g * g / 6.0, g ** 3 / 12.0, g ** 4 / 24.0
    a = np.empty(np.shape(x1), dtype=complex)
    c = np.empty_like(a)
    a.real = 1.0 - c2 * (d12 + d22 + d24) + c4 * (d12 * d24 - e12 * e24)
    a.imag = 6.0 * c1 - c3 * (d12 + d22 + e12 * x2)
    c.real = c2 * (e12 + e24) - c4 * (d12 * e24 + d24 * e12)
    c.imag = c1 * (x1 + 4.0 * x2 + x4) - c3 * (d12 * x2 + d22 * x4 - e12)
    return a, c


def _frame_quaternion(F):
    """The unit quaternion pair (a, c) of a frame F (3, 3), by its largest pivot
    (Shepperd): K below is 4 u u^T for u = (w, x, y, z) of the rotation F."""
    t = np.trace(F)
    K = np.empty((4, 4))
    K[0, 0] = 1 + t
    K[0, 1:] = K[1:, 0] = (F - F.T)[[2, 0, 1], [1, 2, 0]]
    K[1:, 1:] = F + F.T + (1 - t) * np.eye(3)
    u = K[np.argmax(np.diag(K))]
    w, x, y, z = u / np.linalg.norm(u)
    return complex(w, z), complex(y, x)


def _norm2(a, c):
    """|u|^2 of quaternions (a, c)."""
    return a.real ** 2 + a.imag ** 2 + c.real ** 2 + c.imag ** 2


def _frame_columns(a, c):
    """The frames (p, t, n), each (b, 3), of the rotations R(u / |u|)."""
    r = np.sqrt(_norm2(a, c))
    w, z, y, x = a.real / r, a.imag / r, c.real / r, c.imag / r
    ww, xx, yy, zz = w * w, x * x, y * y, z * z
    wx, wy, wz, xy, xz, yz = w * x, w * y, w * z, x * y, x * z, y * z
    p = np.stack([ww + xx - yy - zz, 2 * (xy + wz), 2 * (xz - wy)], axis=-1)
    t = np.stack([2 * (xy - wz), ww - xx + yy - zz, 2 * (yz + wx)], axis=-1)
    nn = np.stack([2 * (xz + wy), 2 * (yz - wx), ww - xx - yy + zz], axis=-1)
    return p, t, nn


def _frame_product(u, kap, h):
    """RK4 on the SU(2) lift u' = u (kappa i + k) / 2 of the sphere frame
    equation F' = F K(kappa) from the start quaternion u = (a0, c0) over b
    steps with the stage curvatures kap = (kappa(s), kappa(s + h/2),
    kappa(s + h)) of `_step_quaternions`, arrays (b,) each. Returns the
    quaternions (2, b + 1), the pairs (a, c) before step 0 and after each
    step; they are not renormalized.

    The step quaternions are multiplied out by a two-level scan over runs of
    L = ceil(sqrt(b)) steps: a sequential prefix product inside every run,
    all runs at once (L - 1 products of arrays of b / L quaternions), then
    the quaternion carried over the run totals in Python complex, then one
    product of each run's incoming quaternion with its prefixes.
    """
    b = len(kap[0])
    L = isqrt(b - 1) + 1
    nr = -(-b // L)
    a, c = _step_quaternions(kap, h)
    q = np.empty((2, nr * L + 1), dtype=complex)
    q[:, 0] = u
    q[0, 1:b + 1], q[1, 1:b + 1] = a, c
    q[0, b + 1:], q[1, b + 1:] = 1.0, 0.0  # identity steps fill the last run
    del a, c
    # step j of run r at [r, j]; the runs are scanned in place
    A, C = q[0, 1:].reshape(nr, L), q[1, 1:].reshape(nr, L)
    for j in range(1, L):
        A[:, j], C[:, j] = _qmul(A[:, j - 1], C[:, j - 1], A[:, j], C[:, j])
    ga, gc = complex(u[0]), complex(u[1])
    GA, GC = [ga], [gc]
    for ta, tc in zip(A[:-1, -1].tolist(), C[:-1, -1].tolist()):
        ga, gc = ga * ta - gc.conjugate() * tc, gc * ta + ga.conjugate() * tc
        GA.append(ga)
        GC.append(gc)
    A[...], C[...] = _qmul(np.array(GA)[:, None], np.array(GC)[:, None], A, C)
    return q[:, :b + 1]


def _check_frame_drift(a, c):
    """Raise StepTooLarge when the quaternions (a, c) drift from unit norm by
    more than FRAME_DRIFT_TOL, or overflowed to an inf or nan drift. The
    drift | |u|^4 - 1 | is |p.p - 1| of the unnormalized frame R(u)."""
    n2 = _norm2(a, c)
    drift = np.max(np.abs(n2 * n2 - 1.0))
    if not drift <= FRAME_DRIFT_TOL:
        raise StepTooLarge(f"frame drift {drift:.2e} exceeds {FRAME_DRIFT_TOL:.0e}")


def _march(kfun, s0, span, n_samples, u0=None):
    """RK4 of a curve with curvature kfun(s) over [s0, s0 + span], sampled at
    n_samples uniform arc lengths.

    The step is `_default_step(span)`, shortened so that a whole number m of
    steps lies between samples. Returns, at the samples, kappa, the turning
    theta = int kappa ds (the RK4 sum h/6 (k(s) + 4 k(s + h/2) + k(s + h))
    per step) and
    * in the plane (u0 None) the position x + i y: it advances by the RK4
      stage average of e^{i theta} at the stage angles;
    * on S^2 the quaternions (2, n_samples) of the frame lift from the start
      quaternion u0 = (a0, c0), checked for drift (`_check_frame_drift`).
    The steps go KAPPA_CHUNK at a time: one evaluation of kfun on the chunk's
    half-step arc lengths (a scalar result is broadcast), one cumulative sum
    of theta and one of the positions (in the plane) or one frame product
    (`_frame_product` on S^2), each started from the last entry of the chunk
    before, so memory does not grow with the span and only a chunk's later
    entries are sampled.
    """
    ds = span / (n_samples - 1)
    m = max(1, int(np.ceil(ds / _default_step(span))))
    h = ds / m
    nsteps = (n_samples - 1) * m
    th = 0.0
    z = np.asarray(0j if u0 is None else u0, dtype=complex)
    kap, theta, out = [], [], [z[..., None]]
    for c0 in range(0, nsteps, KAPPA_CHUNK):
        c1 = min(c0 + KAPPA_CHUNK, nsteps)
        sh = s0 + 0.5 * h * np.arange(2 * c0, 2 * c1 + 1)
        kh = np.broadcast_to(np.asarray(kfun(sh), dtype=float), sh.shape)
        k1, k2, k4 = kh[:-1:2], kh[1::2], kh[2::2]
        ths = np.cumsum(np.concatenate([[th], h / 6 * (k1 + 4 * k2 + k4)]))
        if u0 is None:
            dz = np.exp(1j * ths[:-1]) * (1 + 2 * np.exp(0.5j * h * k1)
                                          + 2 * np.exp(0.5j * h * k2) + np.exp(1j * h * k2))
            zs = np.cumsum(np.concatenate([[z], h / 6 * dz]))
        else:
            # quaternions that overflow on an unresolved curvature fail the drift check
            with np.errstate(over="ignore", invalid="ignore"):
                zs = _frame_product(z, (k1, k2, k4), h)
                _check_frame_drift(*zs)
        # copies, so that the chunk's arrays are freed with it
        first = m - c0 % m if c0 else 0
        out.append(zs[..., m - c0 % m::m].copy())
        kap.append(kh[2 * first::2 * m].copy())
        theta.append(ths[first::m].copy())
        th, z = ths[-1], zs[..., -1].copy()
        # freed before the next chunk's arrays are formed
        del sh, kh, k1, k2, k4, ths, zs
    return np.concatenate(kap), np.concatenate(theta), np.concatenate(out, axis=-1)


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
            from scipy.interpolate import CubicSpline

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
            return _plane_tangents(self.theta_at(s))
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


def _finish_curve(ambient, s, kappa, pos, tan, nor=None, theta=None):
    """The CurvatureCurve of samples over a span. Its closure gap is
    |p(end) - p(start)| + |t(end) - t(start)|; below CLOSED_TOL the curve is
    closed and the duplicate endpoint sample is dropped. A plane curve also
    stores its continuous tangent angle theta: over one period of a closed
    curve theta gains 2 pi * winding, so it is kept as that linear part plus
    a periodic spline of the remainder."""
    gap = float(np.linalg.norm(pos[-1] - pos[0]) + np.linalg.norm(tan[-1] - tan[0]))
    closed = gap < CLOSED_TOL
    if closed:
        s, kappa, pos, tan = s[:-1], kappa[:-1], pos[:-1], tan[:-1]
        nor = None if nor is None else nor[:-1]
    c = CurvatureCurve(ambient, s, kappa, pos, tan, nor, closed, gap)
    if ambient == PLANE:
        from scipy.interpolate import CubicSpline

        if closed:
            L = c.length
            slope = 2 * np.pi * round((theta[-1] - theta[0]) / (2 * np.pi)) / L
            resid = theta[:-1] - slope * (s - s[0])
            spl = CubicSpline(np.append(s, s[0] + L), np.append(resid, resid[0]),
                              bc_type="periodic")
        else:
            slope, spl = 0.0, CubicSpline(s, theta)
        c._splines["_theta_data"] = (slope, spl)
    return c


def _plane_tangents(theta):
    """Unit tangents (cos theta, sin theta) of a plane curve."""
    return np.stack([np.cos(theta), np.sin(theta)], axis=-1)


def integrate_curve(
    kappa: Union[Callable[[float], float], np.ndarray],
    ambient: str,
    s_span: tuple[float, float],
    n_samples: int = 4097,
    p0=None,
    t0=None,
) -> CurvatureCurve:
    """Recover a curve from its curvature function by frame integration.

    kappa may be a callable of arc length or an array of samples uniform
    over s_span. A callable is evaluated on arrays of arc lengths; one that
    returns a scalar is taken as constant. The result stores n_samples frame
    samples on the span; a curve whose endpoint position and tangent return
    to the start within CLOSED_TOL is marked closed (and the duplicate
    endpoint sample is dropped). On S^2, StepTooLarge is raised when the
    frames drift from orthonormality by more than FRAME_DRIFT_TOL.
    """
    s0, s1 = float(s_span[0]), float(s_span[1])
    span = s1 - s0
    if not np.isfinite(span):
        raise ValueError(f"arc-length span ({s0}, {s1}) is not finite")
    if span <= 0:
        raise ValueError("empty arc-length span")
    if ambient not in (PLANE, SPHERE2):
        raise ValueError(f"unknown ambient {ambient!r}")
    _check_count("n_samples", n_samples, 2)
    if callable(kappa):
        kfun = kappa
    else:
        from scipy.interpolate import CubicSpline

        karr = np.asarray(kappa, dtype=float)
        kgrid = np.linspace(s0, s1, len(karr))
        kfun = CubicSpline(kgrid, karr)

    s = s0 + span / (n_samples - 1) * np.arange(n_samples)

    if ambient == PLANE:
        kap, theta, xy = _march(kfun, s0, span, n_samples)
        return _finish_curve(PLANE, s, kap, np.stack([xy.real, xy.imag], axis=-1),
                             _plane_tangents(theta), theta=theta)

    # sphere
    if p0 is None:
        p0 = np.array([0.0, 0.0, 1.0])
    if t0 is None:
        t0 = np.array([1.0, 0.0, 0.0])
    p = np.asarray(p0, dtype=float)
    t = np.asarray(t0, dtype=float)
    pn = np.linalg.norm(p)
    if not 0 < pn < np.inf:
        raise ValueError(f"p0 = {p0} has no direction")
    p = p / pn
    tn = np.linalg.norm(t)
    t = t - (t @ p) * p
    if not np.linalg.norm(t) > 1e-12 * tn:
        raise ValueError(f"t0 = {t0} has no direction orthogonal to p0 = {p0}")
    t = t / np.linalg.norm(t)

    u0 = _frame_quaternion(np.stack([p, t, np.cross(p, t)], axis=-1))
    kap, _, (a, c) = _march(kfun, s0, span, n_samples, u0)
    return _finish_curve(SPHERE2, s, kap, *_frame_columns(a, c))


def curve_from_parametric(
    ambient: str,
    gamma: Callable,
    dgamma: Callable,
    ddgamma: Callable,
    t_span: tuple[float, float],
    n_samples: int = 4097,
) -> CurvatureCurve:
    """Arc-length resample an explicitly parametrized curve.

    gamma, dgamma, ddgamma are vectorized callables of the parameter t.
    Plane curvature is (x' y'' - y' x'') / |gamma'|^3; spherical geodesic
    curvature is det[gamma, gamma', gamma''] / |gamma'|^3 for |gamma| = 1.
    The arc length is a Simpson sum over N_DENSE parameter samples; a curve
    whose ends meet within CLOSED_TOL (position plus tangent) is closed.
    """
    t0, t1 = map(float, t_span)
    td = np.linspace(t0, t1, N_DENSE)
    speeds = np.linalg.norm(np.asarray(dgamma(td)), axis=-1)
    # cumulative arc length via Simpson on the dense grid
    from scipy.integrate import cumulative_simpson
    from scipy.interpolate import CubicSpline

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
        return _finish_curve(PLANE, s, kap, P, _plane_tangents(theta), theta=theta)

    if ambient == SPHERE2:
        P = P / np.linalg.norm(P, axis=-1, keepdims=True)
        kap = np.einsum("ij,ij->i", np.cross(P, D1), D2) / sp ** 3
        tan = tan - np.einsum("ij,ij->i", tan, P)[:, None] * P
        tan /= np.linalg.norm(tan, axis=-1, keepdims=True)
        return _finish_curve(SPHERE2, s, kap, P, tan, np.cross(P, tan))

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
        from scipy.interpolate import CubicSpline

        return CubicSpline(self.s, self.kappa)

    def as_callable(self):
        spl = self.kappa_spline()
        return lambda s: spl(np.clip(s, self.s[0], self.s[-1]))


def elastica_first_integral(kappa, dkappa, a, b):
    """E = (k')^2 + k^4/4 + a k^2/2 + b k, conserved along solutions."""
    k = np.asarray(kappa)
    return np.asarray(dkappa) ** 2 + 0.25 * k ** 4 + 0.5 * a * k ** 2 + b * k


def _run_ode(coeffs, k0, dk0, s_span, step, max_stored):
    """RK4 on k'' = (p + q s) k + r k^3 + c, coeffs = (p, q, r, c), from
    (k0, dk0) at s_span[0]; returns the stored s, k and k', or raises BlowUp
    when |k| exceeds BLOWUP_LIMIT or is nan.

    The step count is rounded up to a multiple of the storage stride, so the
    stored samples, at most max_stored, end at s_span[1]."""
    s0, s1 = map(float, s_span)
    span = s1 - s0
    if not np.isfinite(span):
        raise ValueError(f"span ({s0}, {s1}) is not finite")
    if span <= 0:
        raise ValueError("empty span")
    if step is not None and not 0 < step < np.inf:
        raise ValueError(f"step must be positive and finite, got {step}")
    _check_count("max_stored", max_stored, 2)
    h = step if step is not None else _default_step(span)
    nsteps = int(np.ceil(span / h))
    store_every = max(1, int(np.ceil(nsteps / (max_stored - 1))))
    nstored = -(-nsteps // store_every) + 1
    h = span / ((nstored - 1) * store_every)
    p, q, r, c = map(float, coeffs)
    ks, dks = [0.0] * nstored, [0.0] * nstored
    k, dk, s = float(k0), float(dk0), s0
    ks[0], dks[0] = k, dk
    hh, h6, stride = 0.5 * h, h / 6.0, range(store_every)
    for m in range(1, nstored):
        for _ in stride:
            # the stage slopes l_j = k''(s_j, k_j), written out
            w, x = p + q * s, k
            l1 = r * x * x * x + w * x + c
            k2 = dk + hh * l1
            w, x = p + q * (s + hh), k + hh * dk
            l2 = r * x * x * x + w * x + c
            k3 = dk + hh * l2
            x = k + hh * k2
            l3 = r * x * x * x + w * x + c
            k4 = dk + h * l3
            w, x = p + q * (s + h), k + h * k3
            l4 = r * x * x * x + w * x + c
            k += h6 * (dk + 2 * k2 + 2 * k3 + k4)
            dk += h6 * (l1 + 2 * l2 + 2 * l3 + l4)
            s += h
            if not abs(k) <= BLOWUP_LIMIT:
                raise BlowUp(f"|kappa| exceeded {BLOWUP_LIMIT:.0e}")
        ks[m], dks[m] = k, dk
    return np.linspace(s0, s1, nstored), np.array(ks), np.array(dks)


def elastica_ode(a, b, k0, dk0, s_span, step=None, max_stored=200_001) -> OdeSolution:
    """Integrate 2 k'' + k^3 + a k + b = 0 and monitor its first integral."""
    s, k, dk = _run_ode((-0.5 * a, 0.0, -0.5, -0.5 * b), k0, dk0, s_span, step, max_stored)
    E = elastica_first_integral(k, dk, a, b)
    scale = max(float(np.max(np.abs(E))), 1.0)
    drift = float(np.max(np.abs(E - E[0]))) / scale
    return OdeSolution(a, b, s, k, dk, drift)


def burstall_ode(a, b, k0, dk0, s_span, step=None, max_stored=200_001) -> OdeSolution:
    """Integrate k'' + k^3/2 = (a + b s) k (no conserved quantity)."""
    s, k, dk = _run_ode((a, b, -0.5, 0.0), k0, dk0, s_span, step, max_stored)
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
    winding: int            # turns about the Killing axis until closure (1 for circles)
    curve: CurvatureCurve = field(repr=False, default=None)


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


def _arc_lengths(sigma, T):
    """Arc lengths s_j = T j / M + P_j - P_0 on the M uniform theta nodes of
    one turn of the speed sigma (M a multiple of 4): P is the periodic part
    of the integral of sigma, from one real FFT with the mean and the Nyquist
    mode dropped."""
    M = len(sigma)
    F = np.fft.rfft(sigma)
    F[0] = F[-1] = 0.0
    F[1:-1] /= 1j * np.arange(1, len(F) - 1)
    P = np.fft.irfft(F, M)
    return T / M * np.arange(M) + P - P[0]


def _orbit_curvature(a, b, k0, h):
    """Curvature k(s) of the elastica orbit through (k0, 0), read off its
    theta-map without stepping the curvature ODE.

    The samples lie on theta_j = theta0 + 2 pi j / M from the turning point
    theta0 = +-pi/2 where k = k0 (pi/2 when k falls from k0), at the arc
    lengths s_j of `_arc_lengths` with the period T of `_theta_orbit`. M is
    four times a fast FFT length (`next_fast_len`), from PERIOD_NODES up
    until no two samples lie more than h apart in arc length. A speed that
    is not finite, or arc lengths from every other node that differ by more
    than ARC_TOL * T, raise NearSeparatrix. Returns T, the periodic cubic spline of k(s) over one
    period (it repeats past T), and the other turning point k1, the sample
    half a turn on.
    """
    from scipy.fft import next_fast_len
    from scipy.interpolate import CubicSpline

    T, orbit = _theta_orbit(a, b, k0)
    theta0 = 0.5 * np.pi if k0 ** 3 + a * k0 + b > 0 else -0.5 * np.pi
    M = PERIOD_NODES
    while True:
        sigma, k = orbit(theta0 + 2 * np.pi / M * np.arange(M))
        if not np.all(np.isfinite(sigma)):
            raise NearSeparatrix(f"elastica orbit (a, b, k0) = ({a}, {b}, {k0}) has a "
                                 f"speed that is not finite on its theta-map")
        s = _arc_lengths(sigma, T)
        spacing = float(np.max(np.diff(s, append=T)))
        if spacing <= h:
            break
        M = 4 * next_fast_len(int(np.ceil(0.25 * M * spacing / h)))
    change = float(np.max(np.abs(_arc_lengths(sigma[::2], T) - s[::2])))
    if not change <= ARC_TOL * T:
        raise NearSeparatrix(f"elastica orbit (a, b, k0) = ({a}, {b}, {k0}) is too close "
                             f"to its separatrix: theta-map arc lengths differ by {change:.1e}")
    spline = CubicSpline(np.append(s, T), np.append(k, k[0]), bc_type="periodic")
    return T, spline, float(k[M // 2])


def _azimuth_advance(a, b, k0):
    """Advance Phi of the azimuth about the Killing axis J over one period of
    the elastica orbit through (k0, 0), the period T, and whether the vector
    (2 k', 2 - a - k^2) winds about 0 (2 - a - k^2 changes sign between the
    turning points, where k' = 0).

    J = (2 k + b) p + 2 k' t + (2 - a - k^2) n is constant (docs/notes.md),
    and the azimuth advances at phi' = (2 - a - k^2) |J| / (4 k'^2 +
    (2 - a - k^2)^2); with k' = r cos(theta) / sigma on the theta-map, Phi is
    the trapezoid sum of sigma phi' over one turn. From PERIOD_NODES nodes
    the count doubles until the sum over every other node moves by at most
    SEPARATRIX_TOL times the sum of |sigma phi'|. The denominator vanishes
    only on an orbit through the axis: an integrand that is not finite, or
    more than ANGLE_MAX_NODES nodes, raises NearSeparatrix.
    """
    T, orbit = _theta_orbit(a, b, k0)
    hi, lo = orbit(0.5 * np.pi)[1], orbit(-0.5 * np.pi)[1]
    r = 0.5 * (hi - lo)
    J = np.hypot(2 * k0 + b, 2 - a - k0 * k0)
    M = PERIOD_NODES
    while True:
        theta = 2 * np.pi / M * np.arange(M)
        sigma, k = orbit(theta)
        # the t and n components of J; an orbit through the axis divides by 0
        jn = 2 - a - k * k
        with np.errstate(invalid="ignore", divide="ignore"):
            jt = 2 * r * np.cos(theta) / sigma
            f = sigma * jn * J / (jt * jt + jn * jn)
        if not np.all(np.isfinite(f)):
            raise NearSeparatrix(f"elastica orbit (a, b, k0) = ({a}, {b}, {k0}) passes "
                                 f"through its Killing axis")
        phi = 2 * np.pi * float(np.mean(f))
        change = abs(phi - 2 * np.pi * float(np.mean(f[::2])))
        if change <= SEPARATRIX_TOL * 2 * np.pi * float(np.mean(np.abs(f))):
            return phi, T, (2 - a - hi * hi > 0) != (2 - a - lo * lo > 0)
        if 2 * M > ANGLE_MAX_NODES:
            raise NearSeparatrix(
                f"elastica orbit (a, b, k0) = ({a}, {b}, {k0}) is too close to its Killing "
                f"axis: azimuth sums differ by {change:.1e} at {M} theta nodes")
        M *= 2


def _monodromy_angle(a, b, k0):
    """Rotation angle Theta in [0, 2 pi] of the frame transfer over one
    curvature period, and the period. The transfer is the rotation about J
    by Phi (`_azimuth_advance`); its SU(2) lift has real part cos(Phi / 2),
    with the sign flipped when (2 k', 2 - a - k^2) winds about 0."""
    phi, T, winds = _azimuth_advance(a, b, k0)
    c = np.cos(0.5 * phi)
    return 2.0 * float(np.arccos(-c if winds else c)), T


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
    solutions are located by matching the rotation angle Theta in [0, 2 pi]
    of the frame transfer over one curvature period to 2 pi m / n for target
    (m, n) with 0 < m/n < 1 (other targets are skipped); the curve then
    closes after n periods. `winding` is measured: |round(n Phi / 2 pi)| for
    the azimuth advance Phi about the Killing axis per period, the turns
    about whichever of +-J makes it non-negative. Period, angle and Phi come
    from the theta quadrature, and so does the curvature of the returned
    curve: kappa(s) is a periodic spline through samples of the theta-map at
    most h apart in arc length (`_orbit_curvature`), integrated on S^2 by
    `integrate_curve`. Each orbit is returned once: when both of its turning
    points are found, the entry keeps the upper one as kappa0, and
    max_results counts orbits. Scan points, brackets and roots too close to
    a separatrix or to the Killing axis are skipped.
    """
    from scipy.optimize import brentq

    if not 0 < h < np.inf:
        raise ValueError(f"h must be positive and finite, got {h}")
    if not np.all(np.isfinite(np.asarray(kappa0_bracket, dtype=float))):
        raise ValueError(f"kappa0_bracket {kappa0_bracket} is not finite")
    _check_count("n_scan", n_scan, 2)
    for (mw, nl) in targets:
        if not nl >= 1:
            raise ValueError(f"target ({mw}, {nl}) needs n >= 1 curvature periods")
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
                if not 0 < mw / nl < 1:
                    continue
                target = 2 * np.pi * mw / nl
                gvals = angles - target
                for i in range(n_scan - 1):
                    if np.isnan(gvals[i]) or np.isnan(gvals[i + 1]):
                        continue
                    if gvals[i] * gvals[i + 1] < 0:
                        f = lambda k0: _monodromy_angle(a, b, float(k0))[0] - target
                        try:
                            k0 = brentq(f, k_grid[i], k_grid[i + 1], xtol=1e-12, rtol=8.9e-16)
                            T, kfun, k1 = _orbit_curvature(a, b, k0, h)
                            phi = _azimuth_advance(a, b, k0)[0]
                        except NearSeparatrix:
                            continue
                        # the other turning point of an orbit already found
                        twin = next((j for j, e in enumerate(results)
                                     if (e.a, e.b, e.n_lobes) == (a, b, nl)
                                     and abs(e.kappa0 - k1) <= DUPLICATE_TOL * (1 + abs(k1))),
                                    None)
                        if twin is not None and k0 < k1:
                            continue
                        curve = integrate_curve(kfun, SPHERE2, (0.0, nl * T), n_samples=4097)
                        if curve.closed:
                            found = ClosedElastica(a, b, float(k0), nl * T, curve.closure_gap,
                                                   nl, abs(round(nl * phi / (2 * np.pi))), curve)
                            if twin is None:
                                results.append(found)
                            else:
                                results[twin] = found
                        if max_results and len(results) >= max_results:
                            return results
    if not results:
        raise NoSolutionInBox("no closed elastic curve found in the search box")
    return results
