"""Frame integration, elastic-curve ODEs, closed-solution shooting."""

import numpy as np
import pytest

from conwill.builders import hopf_cylinder
from conwill.curves import (
    OdeSolution,
    _monodromy_angle,
    _orbit_curvature,
    _theta_orbit,
    burstall_ode,
    curve_from_parametric,
    elastica_ode,
    integrate_curve,
    shoot_closed_elastica,
)
from conwill.errors import BlowUp, NearSeparatrix, NoSolutionInBox


def test_unit_circle_closure():
    c = integrate_curve(lambda s: 1.0, "Plane", (0.0, 2 * np.pi))
    assert c.closed
    assert c.closure_gap < 1e-8
    # tangent frame is unit by construction
    assert np.max(np.abs(np.linalg.norm(c.tangent, axis=-1) - 1.0)) < 1e-9


def test_great_circle_closure():
    c = integrate_curve(lambda s: 0.0, "Sphere2", (0.0, 2 * np.pi))
    assert c.closed and c.closure_gap < 1e-8
    assert np.max(np.abs(np.linalg.norm(c.position, axis=-1) - 1.0)) < 1e-9


def test_small_circle_length():
    # geodesic curvature 1 on S^2: latitude at colatitude pi/4,
    # closes after length 2 pi sin(pi/4) = pi sqrt(2)
    L = np.pi * np.sqrt(2.0)
    c = integrate_curve(lambda s: 1.0, "Sphere2", (0.0, L))
    assert c.closed and c.closure_gap < 1e-8
    longer = integrate_curve(lambda s: 1.0, "Sphere2", (0.0, 0.9 * L))
    assert not longer.closed


def test_curvature_reproduction():
    # finite-difference curvature of the integrated curve matches the input
    kfun = lambda s: 1.0 + 0.5 * np.sin(s)
    c = integrate_curve(kfun, "Plane", (0.0, 10.0), n_samples=2001)
    xy = c.position
    h = c.ds
    d1 = np.gradient(xy, h, axis=0, edge_order=2)
    d2 = np.gradient(d1, h, axis=0, edge_order=2)
    kfd = (d1[:, 0] * d2[:, 1] - d1[:, 1] * d2[:, 0]) / np.linalg.norm(d1, axis=1) ** 3
    interior = slice(5, -5)
    assert np.max(np.abs(kfd[interior] - c.kappa[interior])) < 1e-5


def test_sphere_frame_orthonormal():
    c = integrate_curve(lambda s: 0.7 * np.cos(s), "Sphere2", (0.0, 12.0))
    dots = np.einsum("ij,ij->i", c.position, c.tangent)
    assert np.max(np.abs(dots)) < 1e-9
    assert np.max(np.abs(np.einsum("ij,ij->i", c.tangent, c.normal))) < 1e-12


def _su2(a, c):
    """The SU(2) matrices [[a, -conj(c)], [c, conj(a)]] of quaternion pairs (a, c)."""
    return np.moveaxis(np.array([[a, -np.conj(c)], [c, np.conj(a)]]), (0, 1), (-2, -1))


def _omega(kap):
    """kappa i + k as 2x2 complex matrices, with i -> [[0, i], [i, 0]] and
    k -> [[i, 0], [0, -i]]."""
    W = np.zeros(np.shape(kap) + (2, 2), dtype=complex)
    W[..., 0, 0], W[..., 1, 1] = 1j, -1j
    W[..., 0, 1] = W[..., 1, 0] = 1j * np.asarray(kap)
    return W


def _stepwise_su2(u0, kap, h):
    """Plain per-step RK4 of the SU(2) frame equation U' = U Omega(k) / 2 in
    2x2 complex matrices from the quaternion u0 over the stage curvatures kap
    (n, 4); returns the first columns (a, c) of U, (n + 1, 2)."""
    U = _su2(*u0)
    out = [U[:, 0]]
    for k1, k2, k3, k4 in kap:
        a = U @ _omega(k1) / 2
        b = (U + h / 2 * a) @ _omega(k2) / 2
        c = (U + h / 2 * b) @ _omega(k3) / 2
        d = (U + h * c) @ _omega(k4) / 2
        U = U + h / 6 * (a + 2 * b + 2 * c + d)
        out.append(U[:, 0])
    return np.array(out)


def test_frame_kernel_matches_stepwise_rk4():
    # the two-level quaternion scan of one march chunk against plain per-step
    # RK4, from a start that is not the identity: one step, a perfect square
    # and its neighbours (runs of ceil(sqrt(b)) steps, the last run full,
    # short by one, or holding two of eight steps), a whole chunk, and more
    from conwill.curves import KAPPA_CHUNK, _frame_product

    rng = np.random.default_rng(3)
    h = 2e-3
    u0 = np.array([0.5 + 0.1j, 0.7 - 0.5j])
    u0 = tuple(u0 / np.linalg.norm(u0))

    for nsteps in (1, 48, 49, 50, KAPPA_CHUNK, KAPPA_CHUNK + 300):
        kap = rng.uniform(-2.0, 2.0, (nsteps, 3))
        q = _frame_product(u0, kap.T, h)
        assert q.shape == (2, nsteps + 1)
        assert np.max(np.abs(q.T - _stepwise_su2(u0, kap[:, [0, 1, 1, 2]], h))) < 1e-12


def test_march_carries_frames_across_blocks():
    # the shared march on S^2 against per-step RK4 on its step grid: 32
    # intervals of 577 steps span more than two chunks, so samples fall
    # inside the three chunks and the quaternion is carried from chunk to chunk
    from conwill.curves import KAPPA_CHUNK, _march

    kfun = lambda s: 0.5 + 0.3 * np.sin(3 * s)
    u0 = np.array([0.5 + 0.1j, 0.7 - 0.5j])
    u0 = tuple(u0 / np.linalg.norm(u0))
    kap, theta, q = _march(kfun, 0.2, 3.0, 33, u0)
    m, h = 577, 3.0 / (32 * 577)
    assert 2 * KAPPA_CHUNK < 32 * m <= 3 * KAPPA_CHUNK
    kh = kfun(0.2 + 0.5 * h * np.arange(64 * m + 1))
    stages = np.stack([kh[:-1:2], kh[1::2], kh[1::2], kh[2::2]], axis=-1)
    assert q.shape == (2, 33)
    assert np.max(np.abs(q.T - _stepwise_su2(u0, stages, h)[::m])) < 1e-12
    s = 0.2 + 3.0 / 32 * np.arange(33)
    assert np.max(np.abs(kap - kfun(s))) < 1e-15
    turn = np.cumsum(np.concatenate([[0.0], h / 6 * (kh[:-1:2] + 4 * kh[1::2] + kh[2::2])]))
    assert np.max(np.abs(theta - turn[::m])) < 1e-13


def test_march_memory_does_not_grow_with_the_span():
    # 1e6 RK4 steps over (0, 1000): kappa, theta and positions are formed one
    # chunk of steps at a time, so the traced peak stays near one chunk's arrays
    import tracemalloc

    kfun = lambda s: 0.3 + 0.2 * np.sin(s)
    tracemalloc.start()
    try:
        c = integrate_curve(kfun, "Plane", (0.0, 1000.0))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2 * 2 ** 20
    assert np.max(np.abs(c.kappa - kfun(c.s))) < 1e-15
    # theta is carried across the 123 chunks: the tangents follow its closed form
    theta = 0.3 * c.s + 0.2 * (1.0 - np.cos(c.s))
    assert np.max(np.abs(c.tangent - np.stack([np.cos(theta), np.sin(theta)], axis=-1))) < 1e-9


def test_sphere_march_memory_does_not_grow_with_the_span():
    # the same 1e6 steps on S^2. While one chunk's step quaternions are
    # formed, the march holds per step its half-step curvatures and their arc
    # lengths (4 floats) and theta (1), and the step-quaternion kernel its
    # five stage products and two complex results (9) with a few temporaries;
    # with the curve's samples, the traced peak stays below 32 floats a step
    import tracemalloc

    from conwill.curves import KAPPA_CHUNK

    kfun = lambda s: 0.3 + 0.2 * np.sin(s)
    tracemalloc.start()
    try:
        c = integrate_curve(kfun, "Sphere2", (0.0, 1000.0))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 32 * 8 * KAPPA_CHUNK
    assert np.max(np.abs(c.kappa - kfun(c.s))) < 1e-15
    assert np.max(np.abs(np.einsum("ij,ij->i", c.position, c.tangent))) < 1e-12


def test_step_matrices_match_stage_product():
    # the closed-form step quaternions against the RK4 stages of
    # U' = U Omega_j / 2 multiplied out as 2x2 complex matrices, with the
    # half-step curvature as both the second and the third stage
    from conwill.curves import _step_quaternions

    rng = np.random.default_rng(5)
    h = 1e-2
    kap = rng.uniform(-3.0, 3.0, (500, 3))
    W = _omega(kap[:, [0, 1, 1, 2]]) / 2
    eye = np.eye(2)
    A1 = W[:, 0]
    A2 = (eye + h / 2 * A1) @ W[:, 1]
    A3 = (eye + h / 2 * A2) @ W[:, 2]
    A4 = (eye + h * A3) @ W[:, 3]
    ref = eye + h / 6 * (A1 + 2 * A2 + 2 * A3 + A4)
    assert np.max(np.abs(_su2(*_step_quaternions(kap.T, h)) - ref)) < 1e-15


def _four_stage_quaternions(kap, h):
    """The step quaternions written out from four independent stage
    curvatures kap = (x1, x2, x3, x4), the form the three-curvature kernel
    specializes to x3 = x2."""
    x1, x2, x3, x4 = kap
    d12, d23, d34 = x1 * x2 + 1.0, x2 * x3 + 1.0, x3 * x4 + 1.0
    e12, e23, e34 = x2 - x1, x3 - x2, x4 - x3
    g = 0.5 * h
    c1, c2, c3, c4 = g / 6.0, g * g / 6.0, g ** 3 / 12.0, g ** 4 / 24.0
    a = np.empty(np.shape(x1), dtype=complex)
    c = np.empty_like(a)
    a.real = 1.0 - c2 * (d12 + d23 + d34) + c4 * (d12 * d34 - e12 * e34)
    a.imag = 6.0 * c1 - c3 * (d12 + d23 + e12 * x3 + e23 * x4)
    c.real = c2 * (e12 + e23 + e34) - c4 * (d12 * e34 + d34 * e12)
    c.imag = c1 * (x1 + 2 * (x2 + x3) + x4) - c3 * (d12 * x3 + d23 * x4 - e12 - e23)
    return a, c


@pytest.mark.parametrize("scale", [1e-3, 1.0, 30.0, 1e4])
def test_step_quaternions_equal_four_stage_form(scale):
    # dropping the terms of e23 = 0 and writing 2 (x2 + x2) as 4 x2 changes
    # no bit of the step quaternions
    from conwill.curves import _step_quaternions

    rng = np.random.default_rng(11)
    for h in (1e-4, 2e-3, 0.1):
        kap = rng.uniform(-scale, scale, (3, 100_000))
        a, c = _step_quaternions(kap, h)
        ra, rc = _four_stage_quaternions(kap[[0, 1, 1, 2]], h)
        assert np.array_equal(a, ra) and np.array_equal(c, rc)


def test_plane_matches_stepwise_rk4():
    # the cumulative-sum plane integration against per-step RK4 on
    # (x, y, theta), with samples that do not align with the blocks
    kfun = lambda s: 1.0 + 0.5 * np.sin(s)
    c = integrate_curve(kfun, "Plane", (0.0, 2.0), n_samples=21)
    ds = 2.0 / 20
    m = int(np.ceil(ds / min(1e-3, 2.0 / 10_000)))
    h = ds / m
    x = y = th = cur = 0.0
    ref = [(x, y, th)]
    for _ in range(20 * m):
        k1, k2, k4 = kfun(cur), kfun(cur + h / 2), kfun(cur + h)
        x += h / 6 * (np.cos(th) + 2 * np.cos(th + h / 2 * k1)
                      + 2 * np.cos(th + h / 2 * k2) + np.cos(th + h * k2))
        y += h / 6 * (np.sin(th) + 2 * np.sin(th + h / 2 * k1)
                      + 2 * np.sin(th + h / 2 * k2) + np.sin(th + h * k2))
        th += h / 6 * (k1 + 4 * k2 + k4)
        cur += h
        ref.append((x, y, th))
    ref = np.array(ref[::m])
    assert np.max(np.abs(c.position - ref[:, :2])) < 1e-12
    assert np.max(np.abs(c.tangent - np.stack([np.cos(ref[:, 2]), np.sin(ref[:, 2])], -1))) < 1e-12
    assert np.max(np.abs(c.kappa - kfun(c.s))) < 1e-15


def test_elastica_constant_root():
    # 1 - 2 + 1 = 0: kappa == 1 solves the cubic for a = -2, b = 1
    sol = elastica_ode(-2.0, 1.0, 1.0, 0.0, (0.0, 10.0))
    assert np.max(np.abs(sol.kappa - 1.0)) < 1e-13
    assert sol.energy_drift < 1e-14


def test_elastica_zero_equilibrium():
    sol = elastica_ode(0.0, 0.0, 0.0, 0.0, (0.0, 5.0))
    assert np.max(np.abs(sol.kappa)) == 0.0


def test_elastica_blowup():
    # bounded first integral rules out true escape; the guard trips when the
    # fixed step cannot resolve an extremely stiff start and overflows
    with pytest.raises(BlowUp):
        elastica_ode(0.0, 0.0, 1e5, 0.0, (0.0, 1.0))


def test_ode_samples_end_at_the_span():
    # 10^4 steps stored every 1667th: the step count is rounded up to 6 * 1667,
    # so the last of the 7 samples lies at s = 1 and is not dropped
    sol = elastica_ode(0.2, 0.4, 1.0, 0.0, (0.0, 1.0), max_stored=7)
    assert len(sol.s) == 7 and sol.s[0] == 0.0 and sol.s[-1] == 1.0
    assert np.max(np.abs(np.diff(sol.s) - 1.0 / 6)) < 1e-15
    full = elastica_ode(0.2, 0.4, 1.0, 0.0, (0.0, 1.0))
    assert len(full.s) == 10_001 and full.s[-1] == 1.0
    assert abs(sol.kappa[-1] - full.kappa[-1]) < 1e-12
    assert abs(sol.dkappa[-1] - full.dkappa[-1]) < 1e-12
    forced = burstall_ode(0.2, 0.02, 1.0, 0.0, (0.0, 10.3), max_stored=1000)
    assert len(forced.s) <= 1000 and forced.s[-1] == 10.3


# the eight ODE catalogue entries (a, b, k0, dk0) of perfbench/workloads.py, span 4.4
ODE_CATALOGUE = [(1.0, 0.5, 1.2, 0.0), (0.8, 0.3, 1.5, 0.1), (1.2, 0.4, 0.9, -0.2),
                 (0.5, 0.5, 1.8, 0.0), (1.0, 0.0, 1.0, 0.3), (1.5, 0.6, 1.3, 0.0),
                 (0.9, 0.2, 2.0, -0.1), (1.1, 0.7, 0.7, 0.2)]


@pytest.mark.parametrize("a, b, k0, dk0", ODE_CATALOGUE)
def test_elastica_ode_matches_callable_rk4_bitwise(a, b, k0, dk0):
    # the stepper with the coefficients written out against RK4 on
    # k'' = f(s, k) with f = -(k^3 + a k + b) / 2 as a callable: the scalings
    # by -1/2 are exact, so kappa and kappa' agree bit for bit
    f = lambda s, k: -0.5 * (k * k * k + a * k + b)
    n = 10_000
    h = 4.4 / n
    k, dk, s = k0, dk0, 0.0
    ks, dks = [k], [dk]
    for _ in range(n):
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
        ks.append(k)
        dks.append(dk)
    sol = elastica_ode(a, b, k0, dk0, (0.0, 4.4))
    assert np.array_equal(sol.kappa, ks) and np.array_equal(sol.dkappa, dks)


def test_burstall_footnote_run():
    sol = burstall_ode(0.2, 0.02, 1.0, 0.0, (0.0, 60.0))
    assert isinstance(sol, OdeSolution)
    assert np.max(np.abs(sol.kappa)) < 1e2  # no blow-up over the span


def test_burstall_zero_equilibrium():
    sol = burstall_ode(0.2, 0.02, 0.0, 0.0, (0.0, 10.0))
    assert np.max(np.abs(sol.kappa)) == 0.0


def test_burstall_reduces_to_elastica():
    # with a = b = 0 both equations read k'' + k^3/2 = 0
    sb = burstall_ode(0.0, 0.0, 1.0, 0.0, (0.0, 20.0))
    se = elastica_ode(0.0, 0.0, 1.0, 0.0, (0.0, 20.0))
    assert np.max(np.abs(sb.kappa - se.kappa)) < 1e-8


def test_burstall_starts_at_its_span():
    # the forcing (a + b s) k is read at the arc lengths of the span: starting
    # at s = 5 is starting at s = 0 with a moved to a + 5 b
    late = burstall_ode(0.2, 0.3, 1.0, 0.0, (5.0, 8.0))
    moved = burstall_ode(0.2 + 0.3 * 5.0, 0.3, 1.0, 0.0, (0.0, 3.0))
    assert late.s[0] == 5.0 and late.s[-1] == pytest.approx(8.0, abs=1e-12)
    assert np.max(np.abs(late.kappa - moved.kappa)) <= 1e-9
    assert np.max(np.abs(late.dkappa - moved.dkappa)) <= 1e-9


def test_shooting_recovers_circles():
    # equilibria of kappa^3 + a kappa + b close for every curvature c with
    # period 2 pi / sqrt(1 + c^2)
    found = shoot_closed_elastica([-2.0], [1.0], targets=(), include_circles=True,
                                  kappa0_bracket=(0.3, 0.9), n_scan=3)
    circles = [f for f in found if f.n_lobes == 0]
    assert circles
    c = [f for f in circles if abs(f.kappa0 - 1.0) < 1e-9][0]
    assert abs(c.period - 2 * np.pi / np.sqrt(2.0)) < 1e-9
    assert c.closure_gap < 1e-7


def test_shooting_great_circle():
    found = shoot_closed_elastica([0.0], [0.0], targets=(), include_circles=True,
                                  kappa0_bracket=(0.2, 0.4), n_scan=3)
    c = [f for f in found if f.n_lobes == 0][0]
    assert abs(c.kappa0) < 1e-12
    assert abs(c.period - 2 * np.pi) < 1e-9


def test_shooting_wavelike(closed_elastica):
    sol = closed_elastica
    assert sol.n_lobes == 4
    assert sol.closure_gap < 1e-7
    assert sol.curve.closed
    # the curvature function is genuinely non-constant
    assert np.max(sol.curve.kappa) - np.min(sol.curve.kappa) > 0.1
    # closure is Richardson-consistent: a finer re-integration agrees
    fine = integrate_curve(lambda s, spl=sol.curve: spl.kappa_at(s), "Sphere2",
                           (0.0, sol.period), n_samples=8193)
    assert fine.closure_gap < 10 * max(sol.closure_gap, 1e-9)


def test_shot_elastica_pinned(shot_elastica_13):
    # kappa0 and period as recorded before the blocked frame kernel
    sol = shot_elastica_13
    assert (sol.n_lobes, sol.winding) == (3, 1)
    assert abs(sol.kappa0 - 1.794035445816395) < 1e-10
    assert sol.period == pytest.approx(13.949104190186734, rel=1e-9, abs=0.0)
    assert sol.closure_gap < 1e-7


# the benchmark's closed (1, 3) elastica: (a, b, kappa0 bracket), and kappa0
# and period as recorded while the returned curve was stepped by elastica_ode
SHOOT_13 = [
    (1.0, 0.5, (1.6, 2.0), 1.7940354458155654, 13.94910419019007),
    (1.0, 0.3, (1.65, 2.05), 1.819529227433879, 14.064833553581582),
    (0.8, 0.5, (1.5, 1.9), 1.6734045717659405, 14.962125214016272),
    (1.2, 0.5, (1.7, 2.1), 1.8779391675261226, 13.232086978824608),
    (0.9, 0.4, (1.55, 1.95), 1.7504441203580539, 14.488242073488804),
    (1.1, 0.6, (1.65, 2.05), 1.828849400744696, 13.505237697507788),
    (0.9, 0.6, (1.55, 1.95), 1.7319555244963696, 14.309114414633086),
    (1.1, 0.4, (1.65, 2.05), 1.8514891621422895, 13.615302444138354),
]


def _shoot_13(a, b, bracket):
    return shoot_closed_elastica([a], [b], targets=[(1, 3)], kappa0_bracket=bracket, n_scan=3,
                                 include_circles=False, h=1e-3, max_results=1)[0]


@pytest.mark.parametrize("a, b, bracket, kappa0, period", SHOOT_13)
def test_shot_curves_close(a, b, bracket, kappa0, period):
    # kappa(s) from the theta-map closes the curve to roundoff; the stepped
    # curvature left gaps up to 1.6e-9
    sol = _shoot_13(a, b, bracket)
    assert (sol.n_lobes, sol.winding) == (3, 1)
    assert abs(sol.kappa0 - kappa0) < 1e-10
    assert sol.period == pytest.approx(period, rel=1e-9, abs=0.0)
    assert sol.curve.closed and sol.closure_gap <= 1e-11


def test_shooting_does_not_step_the_curvature(monkeypatch):
    import conwill.curves as curves

    def refuse(*args, **kwargs):
        raise AssertionError("elastica_ode called on the shooting path")

    monkeypatch.setattr(curves, "elastica_ode", refuse)
    a, b, bracket, kappa0, _ = SHOOT_13[1]
    sol = _shoot_13(a, b, bracket)
    assert abs(sol.kappa0 - kappa0) < 1e-10 and sol.curve.closed


def test_inaccurate_theta_map_root_is_skipped(monkeypatch):
    # arc lengths that the error control refuses raise NearSeparatrix, and
    # the scan drops the root rather than return its curve
    import conwill.curves as curves

    monkeypatch.setattr(curves, "ARC_TOL", 0.0)
    with pytest.raises(NearSeparatrix):
        _orbit_curvature(1.0, 0.5, SHOOT_13[0][3], 1e-3)
    with pytest.raises(NoSolutionInBox):
        _shoot_13(*SHOOT_13[0][:3])


def test_shot_elastica_curvature_matches_elastica_ode(shot_elastica_13):
    # the returned curve's kappa over its first and last period against RK4
    # of 2 k'' + k^3 + a k + b = 0 from (kappa0, 0)
    sol = shot_elastica_13
    T = sol.period / sol.n_lobes
    ode = elastica_ode(sol.a, sol.b, sol.kappa0, 0.0, (0.0, T))
    for lap in (0, sol.n_lobes - 1):
        assert np.max(np.abs(sol.curve.kappa_at(ode.s + lap * T) - ode.kappa)) <= 1e-9


@pytest.mark.parametrize("k0", [0.3996706913246467, -0.3996706913246467])
def test_theta_map_curvature_matches_elastica_ode(k0):
    # both turning points of the (1, 3) orbit at a = b = 0 (T ~ 26.2); the map
    # starts at theta0 = pi/2 from the upper one and at -pi/2 from the lower one
    T, kappa, k1 = _orbit_curvature(0.0, 0.0, k0, 1e-3)
    ode = elastica_ode(0.0, 0.0, k0, 0.0, (0.0, T))
    assert np.max(np.abs(kappa(ode.s) - ode.kappa)) <= 1e-9
    assert np.max(np.abs(kappa(ode.s + T) - ode.kappa)) <= 1e-9
    assert abs(k1 + k0) <= 1e-12


def test_duplicate_orbit_is_returned_once():
    # k0 = -0.3997 and 0.3997 are the two turning points of one orbit (first
    # integral 0.0064, length 78.727); only the upper one is kept, and
    # max_results counts the orbit once
    found = shoot_closed_elastica([0.0], [0.0], targets=[(1, 3)], kappa0_bracket=(-0.45, 0.45),
                                  n_scan=9, include_circles=False, max_results=2)
    assert len(found) == 1
    sol = found[0]
    assert abs(sol.kappa0 - 0.3996706913246467) < 1e-10
    # the measured winding: 3 Phi / 2 pi = 13.0 about the Killing axis
    assert (sol.n_lobes, sol.winding) == (3, 13)
    assert sol.period == pytest.approx(78.72653996023723, rel=1e-9, abs=0.0)
    assert sol.curve.closed


def test_sphere_end_frame_pinned():
    # end frame (p, t) over an elastica curvature, as recorded before the
    # blocked frame kernel
    sol = elastica_ode(1.0, 0.5, 1.2, 0.0, (0.0, 4.4))
    c = integrate_curve(sol.as_callable(), "Sphere2", (0.0, 4.4))
    end = np.concatenate([c.position[-1], c.tangent[-1]])
    ref = [0.9440241680270142, -0.2500755014427621, 0.21512929544591272,
           -0.15166025297453697, 0.25012124875819486, 0.9562627926398375]
    assert np.max(np.abs(end - ref)) < 1e-10
    assert np.max(np.abs(c.normal[-1] - np.cross(c.position[-1], c.tangent[-1]))) < 1e-15


@pytest.mark.parametrize("a, b, k0, period, angle", [
    (1.0, 0.5, 1.8, 4.640291656455351, 2.090086553182765),
    (0.2, 0.4, 1.0, 7.544710295251052, 1.5423754750060605),
])
def test_theta_quadrature_pinned(a, b, k0, period, angle):
    # period and monodromy angle as recorded from step-by-step RK4 at h = 2e-4
    ang, T = _monodromy_angle(a, b, k0)
    assert T == pytest.approx(period, rel=1e-11, abs=0.0)
    assert abs(ang - angle) < 1e-10
    # the quadrature period closes the elastica ODE orbit
    sol = elastica_ode(a, b, k0, 0.0, (0.0, T))
    assert abs(sol.kappa[-1] - k0) < 1e-9 and abs(sol.dkappa[-1]) < 1e-9


def test_half_turn_target_is_found():
    # Theta = pi (target (1, 2)) lies beyond the arccos of a 3x3 rotation
    # trace; the SU(2) transfer reads cos(Theta/2) and brackets it
    found = shoot_closed_elastica([1.0], [0.5], targets=[(1, 2)], kappa0_bracket=(-4.0, 4.0),
                                  n_scan=41, include_circles=False, max_results=1)
    sol = found[0]
    assert (sol.n_lobes, sol.winding) == (2, 1)
    assert sol.closure_gap < 1e-7 and sol.curve.closed
    assert abs(_monodromy_angle(1.0, 0.5, sol.kappa0)[0] - np.pi) < 1e-9


def test_separatrix_raises():
    # (a, b) = (-2, 0): the orbit through k0 = 2 is homoclinic to k = 0
    T = _theta_orbit(-2.0, 0.0, 1.999)[0]
    sol = elastica_ode(-2.0, 0.0, 1.999, 0.0, (0.0, T))
    assert abs(sol.kappa[-1] - 1.999) < 1e-9 and abs(sol.dkappa[-1]) < 1e-9
    with pytest.raises(NearSeparatrix):
        _theta_orbit(-2.0, 0.0, 2.0 - 1e-9)
    with pytest.raises(NearSeparatrix):
        _monodromy_angle(-2.0, 0.0, 2.0 - 1e-9)
    # the angle changes sign against 2 pi/3 across the separatrix; the root
    # search runs into it and the bracket is skipped
    with pytest.raises(NoSolutionInBox):
        shoot_closed_elastica([-2.0], [0.0], targets=[(1, 3)], include_circles=False,
                              kappa0_bracket=(1.98, 2.06), n_scan=2)


# orbits of both parity classes: 2 - a - k^2 keeps its sign at the two
# turning points of the first and third, and changes it on the other two
ORBITS = [(1.0, 0.5, 1.8), (0.2, 0.4, 1.0), (0.0, 0.0, 0.2), (-2.0, 1.0, 0.6)]


@pytest.mark.parametrize("a, b, k0", ORBITS)
def test_theta_grid_error_control(a, b, k0):
    # the quadrature angle against the frame march, the one integrator of the
    # frame ODE, over one period of the orbit's kappa(s) from the identity:
    # its transfer quaternion has real part cos(Theta/2) times its norm. The
    # list holds a long period (T ~ 52) and an orbit next to the unstable
    # equilibrium k = 0.618
    from conwill.curves import _azimuth_advance, _march

    ang, period = _monodromy_angle(a, b, k0)
    T, kappa, _ = _orbit_curvature(a, b, k0, 1e-3)
    assert period == T
    _, _, q = _march(kappa, 0.0, T, 2, (1.0 + 0j, 0j))
    qa, qc = q[:, -1]
    ref = 2.0 * np.arccos(qa.real / np.sqrt(abs(qa) ** 2 + abs(qc) ** 2))
    assert abs(ang - ref) < 1e-12
    assert _azimuth_advance(a, b, k0)[2] == (k0 in (1.0, 0.6))


def test_theta_grid_cap_raises():
    # a turning point at 2 - a - k^2 = -1e-3 puts the curve next to its
    # Killing axis, where the azimuth speed peaks too sharply for 2^16 theta
    # nodes; at -1e-2 the orbit is accepted
    a, b = 1.0, 0.5
    with pytest.raises(NearSeparatrix, match="Killing axis"):
        _monodromy_angle(a, b, np.sqrt(2 - a + 1e-3))
    assert 0.0 <= _monodromy_angle(a, b, np.sqrt(2 - a + 1e-2))[0] <= 2 * np.pi


def test_monodromy_angle_steps_no_ode(monkeypatch):
    # the angle is a quadrature on the theta-map: no RK4 step is made
    import conwill.curves as curves

    def refuse(*args, **kwargs):
        raise AssertionError("RK4 step quaternions formed for the monodromy angle")

    monkeypatch.setattr(curves, "_step_quaternions", refuse)
    ang, T = _monodromy_angle(1.0, 0.5, 1.8)
    assert abs(ang - 2.090086553182765) < 1e-10
    assert T == pytest.approx(4.640291656455351, rel=1e-11, abs=0.0)


@pytest.mark.parametrize("a, b, k0", ORBITS)
def test_killing_field_is_constant(a, b, k0):
    # |J|^2 = (2k + b)^2 + 4 k'^2 + (2 - a - k^2)^2 on the theta-nodes, with
    # k' = r cos(theta) / sigma, equals its value at the turning point k0
    _, orbit = _theta_orbit(a, b, k0)
    r = 0.5 * (orbit(0.5 * np.pi)[1] - orbit(-0.5 * np.pi)[1])
    theta = 2 * np.pi / 256 * np.arange(256)
    sigma, k = orbit(theta)
    J = np.sqrt((2 * k + b) ** 2 + (2 * r * np.cos(theta) / sigma) ** 2 + (2 - a - k * k) ** 2)
    J0 = np.hypot(2 * k0 + b, 2 - a - k0 * k0)
    assert np.max(np.abs(J - J0)) <= 1e-14 * J0


def _shoot_empty_box(h):
    # this box holds no root: an h checked only after the scan would let the
    # call end in NoSolutionInBox
    return shoot_closed_elastica([0.0], [0.0], targets=(), include_circles=False,
                                 kappa0_bracket=(0.5, 0.6), n_scan=2, h=h)


def _great_circle():
    return integrate_curve(lambda s: 0.0, "Sphere2", (0.0, 2 * np.pi), n_samples=65)


@pytest.mark.parametrize("call, error, match", [
    pytest.param(lambda: integrate_curve(lambda s: 1.0, "Plane", (0.0, 1.0), n_samples=1),
                 ValueError, "n_samples", id="one-sample"),
    pytest.param(lambda: integrate_curve(lambda s: 1.0, "Sphere2", (0.0, 1.0), n_samples=0),
                 ValueError, "n_samples", id="no-samples"),
    pytest.param(lambda: integrate_curve(lambda s: 1.0, "Sphere2", (0.0, 1.0), n_samples=100.5),
                 ValueError, "n_samples", id="fractional-samples"),
    pytest.param(lambda: integrate_curve(lambda s: 1.0, "Sphere2", (0.0, np.nan)),
                 ValueError, "not finite", id="nan-span"),
    pytest.param(lambda: integrate_curve(lambda s: 1.0, "Plane", (0.0, np.inf)),
                 ValueError, "not finite", id="inf-span"),
    pytest.param(lambda: integrate_curve(lambda s: 1.0, "Sphere2", (0.0, 1.0),
                                         p0=[0.0, 0.0, 0.0]),
                 ValueError, "p0", id="zero-p0"),
    pytest.param(lambda: integrate_curve(lambda s: 1.0, "Sphere2", (0.0, 1.0),
                                         p0=[0.0, 0.0, 1.0], t0=[0.0, 0.0, -2.0]),
                 ValueError, "t0", id="t0-parallel-p0"),
    pytest.param(lambda: elastica_ode(1.0, 0.5, 1.2, 0.0, (0.0, 1.0), step=0.0),
                 ValueError, "step", id="elastica-zero-step"),
    pytest.param(lambda: elastica_ode(1.0, 0.5, 1.2, 0.0, (0.0, 1.0), step=-1e-3),
                 ValueError, "step", id="elastica-negative-step"),
    pytest.param(lambda: elastica_ode(1.0, 0.5, 1.2, 0.0, (0.0, 1.0), max_stored=1),
                 ValueError, "max_stored", id="elastica-max-stored"),
    pytest.param(lambda: elastica_ode(1.0, 0.5, np.nan, 0.0, (0.0, 1.0)),
                 BlowUp, "kappa", id="elastica-nan-k0"),
    pytest.param(lambda: burstall_ode(0.2, 0.02, 1.0, 0.0, (0.0, 1.0), step=0.0),
                 ValueError, "step", id="burstall-zero-step"),
    pytest.param(lambda: burstall_ode(0.2, 0.02, 1.0, 0.0, (0.0, 1.0), max_stored=1),
                 ValueError, "max_stored", id="burstall-max-stored"),
    pytest.param(lambda: burstall_ode(0.2, 0.02, np.nan, 0.0, (0.0, 1.0)),
                 BlowUp, "kappa", id="burstall-nan-k0"),
    pytest.param(lambda: shoot_closed_elastica([1.0], [0.5], kappa0_bracket=(np.nan, 2.0)),
                 ValueError, "kappa0_bracket", id="shoot-nan-bracket"),
    pytest.param(lambda: shoot_closed_elastica([1.0], [0.5], n_scan=0),
                 ValueError, "n_scan", id="shoot-no-scan"),
    pytest.param(lambda: shoot_closed_elastica([1.0], [0.5], n_scan=1),
                 ValueError, "n_scan", id="shoot-one-scan-point"),
    pytest.param(lambda: shoot_closed_elastica([1.0], [0.5], targets=[(1, 0)]),
                 ValueError, "target", id="shoot-zero-periods"),
    pytest.param(lambda: _shoot_empty_box(h=0.0), ValueError, "h must be", id="shoot-zero-h"),
    pytest.param(lambda: _shoot_empty_box(h=-1e-3), ValueError, "h must be", id="shoot-negative-h"),
    pytest.param(lambda: _shoot_empty_box(h=np.nan), ValueError, "h must be", id="shoot-nan-h"),
    pytest.param(lambda: _shoot_empty_box(h=np.inf), ValueError, "h must be", id="shoot-inf-h"),
    pytest.param(lambda: hopf_cylinder(_great_circle(), nu=0, nv=8),
                 ValueError, "got 0 x 8", id="hopf-nu-0"),
    pytest.param(lambda: hopf_cylinder(_great_circle(), nu=8, nv=4),
                 ValueError, "got 8 x 4", id="hopf-nv-4"),
])
def test_curve_layer_argument_checks(call, error, match):
    with pytest.raises(error, match=match):
        call()


def test_no_solution_in_box():
    with pytest.raises(NoSolutionInBox):
        shoot_closed_elastica([0.0], [0.0], targets=(), include_circles=False,
                              kappa0_bracket=(0.5, 0.6), n_scan=2)


def test_parametric_ellipse_arclength():
    a, b = 2.0, 1.0
    c = curve_from_parametric(
        "Plane",
        lambda t: np.stack([a * np.cos(t), b * np.sin(t)], axis=-1),
        lambda t: np.stack([-a * np.sin(t), b * np.cos(t)], axis=-1),
        lambda t: np.stack([-a * np.cos(t), -b * np.sin(t)], axis=-1),
        (0.0, 2 * np.pi))
    assert c.closed
    # arc-length parametrization: unit tangents, curvature extremes a/b^2, b/a^2
    assert np.max(np.abs(np.linalg.norm(c.tangent, axis=-1) - 1.0)) < 1e-9
    assert abs(np.max(c.kappa) - a / b ** 2) < 1e-6
    assert abs(np.min(c.kappa) - b / a ** 2) < 1e-6
