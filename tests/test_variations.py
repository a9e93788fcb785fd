"""Variation rates, conformality residuals, finite-difference verification."""

import numpy as np
import pytest

import conwill._stencils as _stencils
from conwill.builders import (
    disc_profile,
    homogeneous_torus,
    plane_patch,
    sphere_profile,
    surface_of_revolution,
    torus_profile,
)
from conwill.cli import _support_window
from conwill.errors import (
    DegenerateDeformation,
    DegenerateImmersion,
    NotClosed,
    NotRotationallySymmetric,
    WrongSpaceForm,
)
from conwill.functionals import AREA, VOLUME, WILLMORE, gradient, value
from conwill.geom_core import (
    DERIVATIVES,
    _halo_rows,
    _position_rows,
    _position_stage,
    anticommutator_defect,
    integrate_2form,
)
from conwill.variations import (
    Variation,
    _deformed_values,
    conformal_completion_revolution,
    conformality_residual,
    deform,
    fd_functional_derivative,
    jdot_fd_check,
    jdot_normal,
    metric_dot,
)


def _bump(x, half_width):
    t = np.clip(x / half_width, -1.0, 1.0)
    inner = np.maximum(1.0 - t * t, 1e-300)
    return np.where(np.abs(t) < 1.0, np.exp(1.0 - 1.0 / inner), 0.0)


# ---------------------------------------------------------------- metric_dot

def test_metric_dot_plane_zero():
    s = plane_patch(1.0, 1.0, 32, 32)
    u = np.random.default_rng(0).normal(size=(32, 32))
    assert np.max(np.abs(metric_dot(s, u))) == 0.0


def test_metric_dot_sphere(sphere_band):
    fd = sphere_band.fundamental_data()
    ones = np.ones(sphere_band.position.shape[:2])
    md = metric_dot(sphere_band, ones)
    # umbilic with H = sign * 1: II = H g, so gdot = -2 H g
    expect = -2.0 * fd.H[..., None, None] * fd.g
    assert np.max(np.abs(md - expect)) < 1e-9


def test_metric_dot_fd_oracle(circle_cylinder):
    U, V = circle_cylinder.grid.mesh()
    u = _bump(V, 1.5) * (1.0 + 0.3 * np.sin(U))
    base = deform(circle_cylinder, u, 0.0)
    g0 = base.fundamental_data().g
    t = 1e-5
    gt = deform(circle_cylinder, u, t).fundamental_data().g
    rate = (gt - g0) / t
    assert np.max(np.abs(rate - metric_dot(circle_cylinder, u))) < 1e-3


# ---------------------------------------------------------------- jdot

def test_jdot_umbilic_zero(sphere_band):
    u = np.random.default_rng(1).normal(size=sphere_band.position.shape[:2])
    assert np.max(np.abs(jdot_normal(sphere_band, u))) < 1e-10


def test_jdot_zero_variation(homog_torus):
    assert np.max(np.abs(jdot_normal(homog_torus, np.zeros(homog_torus.position.shape[:2])))) == 0.0


def test_jdot_anticommutes(homog_torus):
    u = np.random.default_rng(2).normal(size=homog_torus.position.shape[:2])
    assert anticommutator_defect(homog_torus, jdot_normal(homog_torus, u)) < 1e-9


def test_jdot_fd_first_order_decay(homog_torus, circle_cylinder):
    cases = []
    U, V = homog_torus.grid.mesh()
    cases.append((homog_torus,
                  np.sin(U / 0.6) * np.cos(2 * V / 0.8) * 0.7,
                  np.cos(U / 0.6) / 0.6 * np.cos(2 * V / 0.8) * 0.7,
                  -np.sin(U / 0.6) * np.sin(2 * V / 0.8) * (2 / 0.8) * 0.7))
    Uc, Vc = circle_cylinder.grid.mesh()
    b = _bump(Vc, 1.5)
    t = np.clip(Vc / 1.5, -1.0, 1.0)
    db = np.zeros_like(b)
    inside = np.abs(t) < 1.0 - 1e-12
    inner = 1.0 - t[inside] ** 2
    db[inside] = b[inside] * (-2.0 * t[inside] / 1.5) / inner ** 2
    cases.append((circle_cylinder, b * np.sin(Uc), b * np.cos(Uc), db * np.sin(Uc)))
    for s, u, du, dv in cases:
        r = jdot_fd_check(s, u, (1e-3, 1e-4, 1e-5), du, dv)
        e = r["errors"]
        # first-order decay across the step ladder
        assert e[0] / e[1] > 5.0 and e[1] / e[2] > 5.0
        assert r["extrapolated_mismatch"] < 1e-6


# ---------------------------------------------------------------- conformality residual

def test_conformality_holomorphic_field_flat_torus(homog_torus):
    X = np.zeros(homog_torus.position.shape[:2] + (2,))
    X[..., 0], X[..., 1] = 1.2, -0.3
    v = Variation(homog_torus, np.zeros(homog_torus.position.shape[:2]), X)
    assert conformality_residual(homog_torus, v) < 1e-12


def test_conformality_umbilic_any_u(sphere_band):
    U, V = sphere_band.grid.mesh()
    u = _bump(U, 2.0)
    v = Variation(sphere_band, u)
    assert conformality_residual(sphere_band, v) < 1e-9


def test_conformality_cylinder_bump(circle_cylinder):
    U, V = circle_cylinder.grid.mesh()
    u = _bump(V, 1.5)
    v = Variation(circle_cylinder, u)
    res = conformality_residual(circle_cylinder, v)
    fd = circle_cylinder.fundamental_data()
    D = jdot_normal(circle_cylinder, u)
    mag2 = np.einsum("...ij,...ij->...", D, D)
    expect = np.sqrt(integrate_2form(circle_cylinder, mag2 * fd.dsigma))
    assert res > 0.1
    assert abs(res - expect) < 1e-12


# ---------------------------------------------------------------- functional FD

def test_fd_functional_derivative_homog(homog_torus):
    rng = np.random.default_rng(4)
    U, V = homog_torus.grid.mesh()
    g = homog_torus.grid
    for kind in (AREA, WILLMORE):
        c = rng.normal(size=3) * 0.3
        u = c[0] + c[1] * np.cos(2 * np.pi * U / g.Lu) + c[2] * np.sin(2 * np.pi * V / g.Lv)
        res = fd_functional_derivative(homog_torus, kind, Variation(homog_torus, u))
        assert res["rel_err"] < 1e-3


def test_fd_volume_revolution_torus(revolution_torus):
    U, V = revolution_torus.grid.mesh()
    g = revolution_torus.grid
    u = 0.2 + 0.1 * np.cos(2 * np.pi * U / g.Lu) + 0.05 * np.cos(V)
    v = Variation(revolution_torus, u)
    for kind in (VOLUME, AREA):
        res = fd_functional_derivative(revolution_torus, kind, v)
        assert res["rel_err"] < 1e-3
        # analytic side for the volume is exactly int u dsigma
        if kind == VOLUME:
            fd = revolution_torus.fundamental_data()
            assert np.isclose(res["analytic"], integrate_2form(revolution_torus, u * fd.dsigma))


def test_fd_willmore_noncmc(revolution_torus):
    U, V = revolution_torus.grid.mesh()
    g = revolution_torus.grid
    u = 0.1 + 0.2 * np.cos(2 * np.pi * U / g.Lu + V)
    res = fd_functional_derivative(revolution_torus, WILLMORE, Variation(revolution_torus, u))
    assert res["rel_err"] < 1e-3


def test_fd_area_cylinder_bump(circle_cylinder):
    # analytic int kappa u dsigma against central differences of the area;
    # the cos^4 window vanishes identically on the open-chart margin band
    U, V = circle_cylinder.grid.mesh()
    half = 1.8
    u = np.where(np.abs(V) < half, np.cos(np.pi * V / (2 * half)) ** 4, 0.0) \
        * (1.0 + 0.4 * np.sin(U))
    v = Variation(circle_cylinder, u)
    res = fd_functional_derivative(circle_cylinder, AREA, v)
    fd = circle_cylinder.fundamental_data()
    kappa_u = integrate_2form(circle_cylinder, 1.0 * u * fd.dsigma)  # kappa = 1
    assert abs(res["analytic"] - kappa_u) < 1e-10 * abs(kappa_u)
    assert res["rel_err"] < 1e-3


def test_fd_small_step_invariant(homog_torus, revolution_torus):
    # gradient checks also hold at the single small step 1e-5
    U, V = homog_torus.grid.mesh()
    u = 0.3 + 0.2 * np.cos(U / 0.6)
    res = fd_functional_derivative(homog_torus, AREA, Variation(homog_torus, u),
                                   steps=(1e-5,))
    assert res["rel_err"] < 1e-3
    Ut, Vt = revolution_torus.grid.mesh()
    ut = 0.2 + 0.1 * np.cos(Vt)
    res_v = fd_functional_derivative(revolution_torus, VOLUME,
                                     Variation(revolution_torus, ut), steps=(1e-5,))
    assert res_v["rel_err"] < 1e-3


def test_fd_order_slope(homog_torus):
    # raw central differences converge at order >= 1 (in fact 2) in t;
    # steps stay above the spatial-discretization floor
    U, V = homog_torus.grid.mesh()
    u = 0.3 + 0.2 * np.cos(U / 0.6)
    res = fd_functional_derivative(homog_torus, WILLMORE, Variation(homog_torus, u),
                                   steps=(1e-1, 3e-2, 1e-2))
    errs = [abs(f - res["analytic"]) for f in res["fd_by_step"]]
    assert errs[0] / errs[1] > 10.0 / 3.0
    assert errs[1] / errs[2] > 3.0


def test_deform_quotient_seam_blocked(hopf_clifford):
    with pytest.raises(DegenerateDeformation):
        deform(hopf_clifford, np.ones(hopf_clifford.position.shape[:2]), 1e-3)


# ---------------------------------------------------------------- deformed-chart pass

STEPS = (1e-4, -1e-4, 5e-5, -5e-5)


def _torus_u(s):
    U, V = s.grid.mesh()
    g = s.grid
    return 0.2 + 0.1 * np.cos(2 * np.pi * U / g.Lu) + 0.05 * np.sin(2 * np.pi * V / g.Lv)


def _bump_u(s):
    U, V = s.grid.mesh()
    half = 1.8
    return np.where(np.abs(V) < half, np.cos(np.pi * V / (2 * half)) ** 4, 0.0) \
        * (1.0 + 0.4 * np.sin(U))


def _plane_u(s):
    U, V = s.grid.mesh()
    return (0.3 + np.sin(U) * np.cos(2 * V)) * _support_window(s)


@pytest.fixture(scope="module")
def pass_charts(revolution_torus, circle_cylinder, homog_torus):
    """(chart, u, kinds) for every chart layout the deformed-chart pass meets."""
    plane = plane_patch(2.0, 1.5, 96, 80)
    odd = surface_of_revolution(torus_profile(2.0, 0.6), nu=70, nv=40)
    return {
        "revolution torus": (revolution_torus, _torus_u(revolution_torus),
                             (AREA, WILLMORE, VOLUME)),
        "plane, support window": (plane, _plane_u(plane), (AREA, WILLMORE)),
        "cylinder, cos^4 bump": (circle_cylinder, _bump_u(circle_cylinder), (AREA, WILLMORE)),
        "homogeneous torus": (homog_torus, _torus_u(homog_torus), (AREA, WILLMORE)),
        "cylinder, orientation -1": (circle_cylinder.with_orientation(-1),
                                     _bump_u(circle_cylinder), (AREA, WILLMORE)),
        "70 rows": (odd, _torus_u(odd), (AREA, WILLMORE, VOLUME)),
    }


@pytest.mark.parametrize("budget", [None, 640])
@pytest.mark.parametrize("name", ["revolution torus", "plane, support window",
                                  "cylinder, cos^4 bump", "homogeneous torus",
                                  "cylinder, orientation -1", "70 rows"])
def test_deformed_values_match_deformed_charts(pass_charts, monkeypatch, name, budget):
    # budget 640 splits every chart into row blocks (70 rows of 40 nodes:
    # blocks of 14, not a multiple of the 16 block rows)
    if budget is not None:
        monkeypatch.setattr(_stencils, "BLOCK_NODES", budget)
        g = pass_charts[name][0].grid
        assert len(_stencils.row_blocks(g.nu, g.nv)) > 1
    s, u, kinds = pass_charts[name]
    for kind in kinds:
        got = _deformed_values(s, kind, u, STEPS)
        want = [value(deform(s, u, t), kind) for t in STEPS]
        assert np.allclose(got, want, rtol=1e-12, atol=0.0), (kind, got, want)


@pytest.mark.parametrize("name", ["revolution torus", "plane, support window", "70 rows"])
def test_linear_stencils_match_deformed_positions(pass_charts, monkeypatch, name):
    """In R^3 every derivative D f + t D(u xi) equals diff_uniform of the
    deformed positions to 1e-12 relative, above the rounding floor of those
    positions: one ulp of |f| through the stencil weights (sum |c| = 3/2 and
    16/3 on a unit grid)."""
    monkeypatch.setattr(_stencils, "BLOCK_NODES", 640)
    s, u, _ = pass_charts[name]
    g, xi = s.grid, s.fundamental_data().xi
    Df = _position_stage(s)
    ulp = np.finfo(float).eps * np.max(np.abs(s.position))
    floor = {"fu": 1.5 / g.hu, "fv": 1.5 / g.hv, "fuu": 16 / 3 / g.hu ** 2,
             "fuv": 2.25 / (g.hu * g.hv), "fvv": 16 / 3 / g.hv ** 2}
    for t in STEPS:
        explicit = deform(s, u, t)  # positions only, so it differences them
        for r0, r1 in _stencils.row_blocks(g.nu, g.nv):
            rows, lo = _halo_rows(g, r0, r1)
            dU = _position_rows(u[rows][..., None] * xi[rows], g, lo, lo + r1 - r0, DERIVATIVES)
            for k, dk in dU.items():
                want = explicit.derivative(k)
                err = np.max(np.abs(Df[k][r0:r1] + t * dk - want[r0:r1]))
                assert err <= 1e-12 * np.max(np.abs(want)) + ulp * floor[k], (k, t, r0)


def test_position_stage_differences_positions(revolution_torus):
    # the revolution torus has callbacks; its position stage does not read them
    plain = type(revolution_torus)(revolution_torus.space_form, revolution_torus.grid,
                                   revolution_torus.position)
    stage = _position_stage(revolution_torus)
    for k, arr in stage.items():
        assert np.array_equal(arr, plain.derivative(k))


def test_fd_quotient_seam_refused(hopf_clifford):
    v = Variation(hopf_clifford, np.ones(hopf_clifford.position.shape[:2]))
    with pytest.raises(DegenerateDeformation):
        fd_functional_derivative(hopf_clifford, AREA, v)


def test_fd_volume_in_s3_refused(homog_torus):
    with pytest.raises(WrongSpaceForm):
        fd_functional_derivative(homog_torus, VOLUME, Variation(homog_torus, _torus_u(homog_torus)))


def test_fd_volume_of_open_chart_refused():
    s = plane_patch(2.0, 1.5, 48, 40)
    u = _plane_u(s)
    with pytest.raises(NotClosed):
        value(deform(s, u, 1e-4), VOLUME)
    with pytest.raises(NotClosed):
        fd_functional_derivative(s, VOLUME, Variation(s, u))


@pytest.mark.parametrize("budget", [None, 640])
def test_fd_folded_step_refused(monkeypatch, budget):
    # a step this large tilts the graph (x, y, t u) until f_u and f_v are
    # collinear to within the immersion gate
    if budget is not None:
        monkeypatch.setattr(_stencils, "BLOCK_NODES", budget)
    s = plane_patch(2.0, 1.5, 48, 40)
    u = _plane_u(s)
    with pytest.raises(DegenerateImmersion):
        value(deform(s, u, 1e8), AREA)
    with pytest.raises(DegenerateImmersion):
        fd_functional_derivative(s, AREA, Variation(s, u), steps=(1e8,))


def test_immersion_gate_reads_whole_deformed_chart(monkeypatch):
    # graph z = t u(x) over a plane: f_u and f_v stay orthogonal at every node,
    # but a step of 1e7 makes max EG ~ 1e14 on the ramp while W^2 = 1 where
    # the ramp has not started. Only the whole-chart gate sees both: with
    # blocks of 16 rows the flat rows 0:16 and the ramp rows 16: lie in
    # different blocks, and neither block fails on its own.
    monkeypatch.setattr(_stencils, "BLOCK_NODES", 640)
    s = plane_patch(2.0, 1.5, 48, 40)
    assert [r0 for r0, _ in _stencils.row_blocks(s.grid.nu, s.grid.nv)] == [0, 16, 32]
    ramp = np.maximum(np.arange(48) - 17, 0) * s.grid.hu
    u = np.repeat(ramp[:, None], 40, axis=1)
    with pytest.raises(DegenerateImmersion):
        value(deform(s, u, 1e7), AREA)
    with pytest.raises(DegenerateImmersion):
        _deformed_values(s, AREA, u, [1e7])


def test_fd_off_sphere_deformation_refused():
    # a normal field scaled by 2 moves cos(t u) f + sin(t u) xi off S^3
    s = homogeneous_torus(0.6, 0.8, 32, 32)
    u = _torus_u(s)
    s.fundamental_data().xi[...] *= 2.0
    with pytest.raises(ValueError, match=r"\|f\| = 1"):
        deform(s, u, 1e-4)
    with pytest.raises(ValueError, match=r"\|f\| = 1"):
        fd_functional_derivative(s, AREA, Variation(s, u))


def test_variation_support_enforced(circle_cylinder):
    u = np.ones(circle_cylinder.position.shape[:2])
    with pytest.raises(ValueError):
        Variation(circle_cylinder, u)  # no margin decay on the open axis


# ---------------------------------------------------------------- completion

def test_completion_planar_disc():
    s = surface_of_revolution(disc_profile(), x_span=(-2.0, 2.0), nu=128, nv=48)
    U, _ = s.grid.mesh()
    u = _bump(U, 1.2)
    var = conformal_completion_revolution(s, u)
    assert conformality_residual(s, var) < 1e-9
    pairing = integrate_2form(s, gradient(s, AREA) * u)
    assert abs(pairing) < 1e-12  # minimal: H = 0


def test_completion_sphere_band_decreases_area(sphere_band):
    U, _ = sphere_band.grid.mesh()
    fd = sphere_band.fundamental_data()
    u = _bump(U, 1.8) * np.sign(fd.H)
    var = conformal_completion_revolution(sphere_band, u)
    assert conformality_residual(sphere_band, var) < 1e-6
    pairing = integrate_2form(sphere_band, gradient(sphere_band, AREA) * u)
    assert pairing < -1e-3


def test_completion_nontrivial_ode(revolution_torus):
    s = surface_of_revolution(torus_profile(2.0, 0.5), nu=256, nv=48)
    U, _ = s.grid.mesh()
    u = 0.1 * np.sin(2 * np.pi * U / s.grid.Lu) + 0.25 * np.cos(4 * np.pi * U / s.grid.Lu)
    var = conformal_completion_revolution(s, u)
    assert np.max(np.abs(var.X[..., 0])) > 1e-3  # genuinely nonzero X
    assert conformality_residual(s, var) < 1e-6


def test_completion_zero_u(sphere_band):
    u = np.zeros(sphere_band.position.shape[:2])
    var = conformal_completion_revolution(sphere_band, u)
    assert np.max(np.abs(var.X)) == 0.0
    assert conformality_residual(sphere_band, var) == 0.0


def test_completion_rejects_asymmetric(sphere_band):
    U, V = sphere_band.grid.mesh()
    with pytest.raises(NotRotationallySymmetric):
        conformal_completion_revolution(sphere_band, _bump(U, 1.0) * np.sin(V))


def test_completion_rejects_non_revolution(homog_torus):
    with pytest.raises(NotRotationallySymmetric):
        conformal_completion_revolution(homog_torus, np.zeros(homog_torus.position.shape[:2]))
