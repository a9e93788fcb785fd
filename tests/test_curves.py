"""Frame integration, elastic-curve ODEs, closed-solution shooting."""

import numpy as np
import pytest

from conwill.builders import hopf_cylinder
from conwill.curves import (
    OdeSolution,
    _monodromy_angle,
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


def _omega(sigma, kap):
    """sigma (kappa i + k) as 2x2 complex matrices, with i -> [[0, i], [i, 0]]
    and k -> [[i, 0], [0, -i]]."""
    sigma, kap = np.broadcast_arrays(sigma, kap)
    W = np.zeros(kap.shape + (2, 2), dtype=complex)
    W[..., 0, 0], W[..., 1, 1] = 1j * sigma, -1j * sigma
    W[..., 0, 1] = W[..., 1, 0] = 1j * sigma * kap
    return W


def _stepwise_su2(u0, kap, h):
    """Plain per-step RK4 of the SU(2) frame equation U' = U Omega(k) / 2 in
    2x2 complex matrices from the quaternion u0 over the stage curvatures kap
    (n, 4); returns the first columns (a, c) of U, (n + 1, 2)."""
    U = _su2(*u0)
    out = [U[:, 0]]
    for k1, k2, k3, k4 in kap:
        a = U @ _omega(1.0, k1) / 2
        b = (U + h / 2 * a) @ _omega(1.0, k2) / 2
        c = (U + h / 2 * b) @ _omega(1.0, k3) / 2
        d = (U + h * c) @ _omega(1.0, k4) / 2
        U = U + h / 6 * (a + 2 * b + 2 * c + d)
        out.append(U[:, 0])
    return np.array(out)


def test_frame_kernel_matches_stepwise_rk4():
    # the chunked quaternion products of one block against plain per-step
    # RK4, from a start that is not the identity: a partial chunk, one chunk
    # and a bit, one block, and more steps than two blocks
    from conwill.curves import FRAME_BLOCK, _frame_block

    rng = np.random.default_rng(3)
    h = 2e-3
    u0 = np.array([0.5 + 0.1j, 0.7 - 0.5j])
    u0 = tuple(u0 / np.linalg.norm(u0))

    for nsteps in (1, 31, 33, FRAME_BLOCK, 2 * FRAME_BLOCK + 300):
        kap = rng.uniform(-2.0, 2.0, (nsteps, 4))
        q = _frame_block(u0, kap, h)
        assert q.shape == (2, nsteps + 1)
        assert np.max(np.abs(q.T - _stepwise_su2(u0, kap, h))) < 1e-12


def test_march_carries_frames_across_blocks():
    # the shared march on S^2 against per-step RK4 on its step grid: 32
    # intervals of 313 steps, so samples fall inside the 10 blocks and the
    # quaternion is carried from block to block
    from conwill.curves import FRAME_BLOCK, _march

    kfun = lambda s: 0.5 + 0.3 * np.sin(3 * s)
    u0 = np.array([0.5 + 0.1j, 0.7 - 0.5j])
    u0 = tuple(u0 / np.linalg.norm(u0))
    kap, theta, q = _march(kfun, 0.2, 3.0, 33, u0)
    m, h = 313, 3.0 / (32 * 313)
    assert 32 * m > 9 * FRAME_BLOCK
    kh = kfun(0.2 + 0.5 * h * np.arange(64 * m + 1))
    stages = np.stack([kh[:-1:2], kh[1::2], kh[1::2], kh[2::2]], axis=-1)
    assert q.shape == (2, 33)
    assert np.max(np.abs(q.T - _stepwise_su2(u0, stages, h)[::m])) < 1e-12
    s = 0.2 + 3.0 / 32 * np.arange(33)
    assert np.max(np.abs(kap - kfun(s))) < 1e-15
    turn = np.cumsum(np.concatenate([[0.0], h / 6 * (kh[:-1:2] + 4 * kh[1::2] + kh[2::2])]))
    assert np.max(np.abs(theta - turn[::m])) < 1e-13


def test_step_matrices_match_stage_product():
    # the closed-form step quaternions against the RK4 stages of
    # U' = U Omega_j / 2 multiplied out as 2x2 complex matrices, at speeds
    # sigma != 1
    from conwill.curves import _step_quaternions

    rng = np.random.default_rng(5)
    h = 1e-2
    sigma = rng.uniform(0.3, 3.0, (500, 4))
    kap = rng.uniform(-3.0, 3.0, (500, 4))
    W = _omega(sigma, kap) / 2
    eye = np.eye(2)
    A1 = W[:, 0]
    A2 = (eye + h / 2 * A1) @ W[:, 1]
    A3 = (eye + h / 2 * A2) @ W[:, 2]
    A4 = (eye + h * A3) @ W[:, 3]
    ref = eye + h / 6 * (A1 + 2 * A2 + 2 * A3 + A4)
    assert np.max(np.abs(_su2(*_step_quaternions(sigma, kap, h)) - ref)) < 1e-15
    one = _step_quaternions(1.0, kap, h)
    ones = _step_quaternions(np.ones_like(kap), kap, h)
    assert np.array_equal(one[0], ones[0]) and np.array_equal(one[1], ones[1])


def test_total_product_matches_sequential():
    from conwill.curves import _step_quaternions, _total_product

    rng = np.random.default_rng(7)
    for n in (1, 2, 3, 1000, 1025):
        a, c = _step_quaternions(rng.uniform(0.5, 2.0, (n, 4)), rng.uniform(-2.0, 2.0, (n, 4)),
                                 1e-2)
        ref = np.eye(2)
        for M in _su2(a, c):
            ref = ref @ M
        assert np.max(np.abs(_su2(*_total_product(a, c)) - ref)) < 1e-14


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


@pytest.mark.parametrize("a, b, k0", [(0.0, 0.0, 0.2), (-2.0, 1.0, 0.6)])
def test_theta_grid_error_control(a, b, k0):
    # a long period (T ~ 52) and an orbit next to the unstable equilibrium
    # k = 0.618: 4096 theta steps leave the angle 8.7e-10 and 8.2e-10 off
    from conwill.curves import _transfer_angle

    T, orbit = _theta_orbit(a, b, k0)
    n = 131072
    H = 2 * np.pi / n
    ref = _transfer_angle(*orbit(0.5 * H * np.arange(2 * n + 1)), H)
    ang, period = _monodromy_angle(a, b, k0)
    assert period == T
    assert abs(ang - ref) < 1e-10


def test_theta_grid_cap_raises(monkeypatch):
    # (0, 0, 0.2) needs 8192 theta steps (error estimate 5.5e-11; 4096 steps
    # read 8.7e-10 off); below that the orbit is refused
    import conwill.curves as curves

    monkeypatch.setattr(curves, "THETA_MAX_STEPS", 4096)
    with pytest.raises(NearSeparatrix):
        _monodromy_angle(0.0, 0.0, 0.2)


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
