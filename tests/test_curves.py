"""Frame integration, elastic-curve ODEs, closed-solution shooting."""

import numpy as np
import pytest

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


def test_frame_kernel_matches_stepwise_rk4():
    # the blocked step-matrix products against plain per-step RK4 of
    # p' = t, t' = -p + k n, n' = -k t, over more steps than two blocks
    from conwill.curves import FRAME_BLOCK, _frame_blocks

    rng = np.random.default_rng(3)
    nsteps, h = 2 * FRAME_BLOCK + 300, 2e-3
    kap = rng.uniform(-2.0, 2.0, (nsteps, 4))

    def rhs(F, k):
        return F @ np.array([[0.0, -1.0, 0.0], [1.0, 0.0, -k], [0.0, k, 0.0]])

    F = np.eye(3)
    ref = [F]
    for k1, k2, k3, k4 in kap:
        a = rhs(F, k1)
        b = rhs(F + h / 2 * a, k2)
        c = rhs(F + h / 2 * b, k3)
        d = rhs(F + h * c, k4)
        F = F + h / 6 * (a + 2 * b + 2 * c + d)
        ref.append(F)
    blocks = [f for _, f in _frame_blocks(np.eye(3), lambda i0, i1: (1.0, kap[i0:i1]),
                                       nsteps, h)]
    frames = np.concatenate([f[:-1] for f in blocks] + [blocks[-1][-1:]])
    assert np.max(np.abs(frames - np.array(ref))) < 1e-12


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
