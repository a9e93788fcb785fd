"""Lagrange-multiplier solves and criticality certificates."""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conwill.builders import cylinder_over_curve, homogeneous_torus, hopf_cylinder
from conwill.conformal_ops import (
    QuadraticDifferential,
    delta_star,
    hopf_differential,
    make_qd_basis,
)
from conwill.curves import burstall_ode, integrate_curve
from conwill.errors import GridMismatch, NonHolomorphicBasis, NotCMC, SingularBasis
from conwill.functionals import AREA, VOLUME, WILLMORE, gradient
from conwill.geom_core import integrate_2form
from conwill.multiplier import (
    GRAM_COND_LIMIT,
    certify_constrained_willmore,
    cmc_multiplier,
    solve_multiplier,
)


def test_cylinder_area_multiplier(ellipse_cylinder):
    cert = solve_multiplier(ellipse_cylinder, AREA, make_qd_basis(ellipse_cylinder))
    assert cert.is_critical
    assert abs(cert.coefficients[0] + 0.25) < 1e-6
    assert abs(cert.coefficients[1]) < 1e-6
    assert cert.residual_l2 < 1e-6
    assert cert.chart == "open"


def test_round_sphere_not_critical(sphere_band):
    cert = solve_multiplier(sphere_band, AREA, [])
    assert cert.verdict == "not-critical"
    fd = sphere_band.fundamental_data()
    expect = np.sqrt(integrate_2form(sphere_band, (2.0 * fd.H) ** 2 * fd.dsigma))
    assert abs(cert.residual_l2 - expect) < 1e-9 * expect
    assert cert.residual_l2 > 1.0


def test_homogeneous_torus_area_volume(homog_torus):
    # lambda_1 = -H / (2 (H^2 - G)) in front of the Hopf differential
    H = 7.0 / 24.0
    h2g = H ** 2 + 1.0
    phi_q = float(hopf_differential(homog_torus).phi[0, 0].real)
    cert_a = solve_multiplier(homog_torus, AREA, make_qd_basis(homog_torus))
    assert cert_a.is_critical and cert_a.chart == "compact"
    lam1 = -H / (2 * h2g)
    assert abs(cert_a.coefficients[0] - lam1 * phi_q) < 1e-10
    cert_v = solve_multiplier(homog_torus, VOLUME, make_qd_basis(homog_torus))
    assert cert_v.is_critical
    lam2 = 1.0 / (4 * h2g)
    assert abs(cert_v.coefficients[0] - lam2 * phi_q) < 1e-10


def test_hopf_cylinders_constrained_minimal_and_volume(hopf_latitude):
    # on a constant-kappa fibration cylinder both basis images are multiples
    # of dsigma, so the multiplier is only determined up to that degeneracy;
    # the recovered density -8 c1 + 8 c2 is what the equation pins:
    # grad(A) = 2 kappa dsigma and grad(V) = dsigma with kappa = 1
    cert_a = solve_multiplier(hopf_latitude, AREA, make_qd_basis(hopf_latitude))
    assert cert_a.is_critical
    c = cert_a.coefficients
    assert abs(-8.0 * c[0] + 8.0 * c[1] - 2.0) < 1e-8
    cert_v = solve_multiplier(hopf_latitude, VOLUME, make_qd_basis(hopf_latitude))
    assert cert_v.is_critical
    c = cert_v.coefficients
    assert abs(-8.0 * c[0] + 8.0 * c[1] - 1.0) < 1e-8


def test_certificate_residual_le_gradient(homog_torus, ellipse_cylinder, sphere_band):
    for s, kind in ((homog_torus, AREA), (ellipse_cylinder, AREA), (sphere_band, AREA)):
        cert = solve_multiplier(s, kind, make_qd_basis(s))
        assert cert.residual_l2 <= cert.gradient_l2 * (1 + 1e-12)


def test_adding_basis_never_increases_residual(burstall_band):
    c0 = solve_multiplier(burstall_band, WILLMORE, make_qd_basis(burstall_band, 0))
    c1 = solve_multiplier(burstall_band, WILLMORE, make_qd_basis(burstall_band, 1))
    assert c1.residual_l2 <= c0.residual_l2 * (1 + 1e-12)
    # the linear-coefficient extension is what certifies this band
    assert c1.residual_l2 < 1e-4 * max(1.0, c1.gradient_l2)
    assert c0.residual_l2 > 1e-2


def test_burstall_willmore_coefficients(burstall_band):
    # grad(W) = -1/2 (a + b u) kappa dsigma is matched by
    # Re(phi) = (a + b u)/8: with the centered basis the linear coefficient
    # is b*scale/8 and the constant one (a + b u0)/8
    from conwill.conformal_ops import chart_z

    a, b = 0.2, 0.02
    basis = make_qd_basis(burstall_band, 1)
    cert = solve_multiplier(burstall_band, WILLMORE, basis, tol=1e-4)
    z = chart_z(burstall_band)
    z0 = complex(np.mean(z))
    scale = float(np.max(np.abs(z - z0)))
    assert abs(cert.coefficients[0] - (a + b * z0.real) / 8.0) < 1e-5
    assert abs(cert.coefficients[2] - b * scale / 8.0) < 1e-5
    assert abs(cert.coefficients[1]) < 1e-5 and abs(cert.coefficients[3]) < 1e-5


def test_certify_constrained_willmore_cmc(homog_torus, clifford):
    cert = certify_constrained_willmore(homog_torus)
    assert cert.is_critical
    q = cmc_multiplier(homog_torus)
    assert abs(cert.coefficients[0] - float(q.phi[0, 0].real)) < 1e-9
    assert cert.extras["pure_willmore_residual"] > 1e-2
    cert_c = certify_constrained_willmore(clifford)
    assert cert_c.is_critical
    assert cert_c.gradient_l2 < 1e-10  # minimal: Willmore with q = 0
    assert np.max(np.abs(cert_c.coefficients)) < 1e-10


def test_cmc_multiplier_values(homog_torus, clifford, circle_cylinder):
    # q = (H/2) Q = (7/48) Q on the (0.6, 0.8) torus
    q = cmc_multiplier(homog_torus)
    phi_q = hopf_differential(homog_torus).phi
    assert np.allclose(q.phi, (7.0 / 48.0) * phi_q, atol=1e-12)
    assert np.max(np.abs(cmc_multiplier(clifford).phi)) < 1e-12
    # circular cylinder: H = -1/2, q = -1/4 Q, and the balance equation holds
    qc = cmc_multiplier(circle_cylinder)
    Qc = hopf_differential(circle_cylinder)
    assert np.allclose(qc.phi, -0.25 * Qc.phi, atol=1e-12)
    gw = gradient(circle_cylinder, WILLMORE)
    resid = gw - delta_star(circle_cylinder, qc)
    fd = circle_cylinder.fundamental_data()
    assert np.sqrt(integrate_2form(circle_cylinder, (resid / fd.dsigma) ** 2 * fd.dsigma)) < 1e-7


def test_cmc_multiplier_rejects_noncmc(revolution_torus):
    with pytest.raises(NotCMC):
        cmc_multiplier(revolution_torus)


def test_nonholomorphic_basis_rejected(homog_torus):
    U, _ = homog_torus.grid.mesh()
    bad = QuadraticDifferential(homog_torus, np.exp(2j * np.pi * U / homog_torus.grid.Lu))
    with pytest.raises(NonHolomorphicBasis):
        solve_multiplier(homog_torus, AREA, [bad])


def test_singular_basis_rejected(homog_torus):
    q = QuadraticDifferential.constant(homog_torus, 1.0)
    q2 = QuadraticDifferential.constant(homog_torus, 1.0 + 1e-15)
    with pytest.raises(SingularBasis):
        solve_multiplier(homog_torus, AREA, [q, q2])


def test_gram_cond_limit_semantics(homog_torus):
    # {dz^2, (1 + i eps) dz^2} has basis Gram condition number ~ 4 / eps^2
    assert 4.0 / 1e-5 ** 2 < GRAM_COND_LIMIT < 4.0 / 1e-6 ** 2
    q = QuadraticDifferential.constant(homog_torus, 1.0)
    ok = QuadraticDifferential.constant(homog_torus, 1.0 + 1e-5j)
    solve_multiplier(homog_torus, AREA, [q, ok])
    near = QuadraticDifferential.constant(homog_torus, 1.0 + 1e-6j)
    with pytest.raises(SingularBasis):
        solve_multiplier(homog_torus, AREA, [q, near])


def test_zero_basis_element_rejected(homog_torus):
    with pytest.raises(SingularBasis):
        solve_multiplier(homog_torus, AREA, [QuadraticDifferential.constant(homog_torus, 0.0)])


@pytest.mark.parametrize("chart", ["homog_torus", "revolution_torus"])
@pytest.mark.parametrize("kind", [AREA, WILLMORE])
def test_multiplier_does_not_depend_on_the_basis_of_its_span(request, chart, kind):
    """Both tori are isothermic: delta_star kills one direction of the span of
    {dz^2, i dz^2}, and the equation fixes q only modulo it. The solve returns
    the q of least L2 norm, the same sum c_i q_i from every basis of the span."""
    s = request.getfixturevalue(chart)
    qs = []
    for a, b in [(1.0, 1j), (1.0, 1.0 + 1j), (3.0, 0.5 - 2j)]:
        basis = [QuadraticDifferential.constant(s, a), QuadraticDifferential.constant(s, b)]
        c = solve_multiplier(s, kind, basis).coefficients
        qs.append(c[0] * basis[0].phi + c[1] * basis[1].phi)
    assert np.max(np.abs(qs[0])) > 0.05
    for q in qs[1:]:
        assert np.max(np.abs(q - qs[0])) < 1e-12


def test_basis_on_other_surface_rejected(homog_torus, clifford):
    with pytest.raises(GridMismatch):
        solve_multiplier(homog_torus, AREA, make_qd_basis(clifford))


def _normal_equations_reference(s, kind, basis):
    """Multiplier by explicit Gram loops and normal equations (the reference solve)."""
    fd = s.fundamental_data()
    wu, wv = s.quadrature()
    wgt = np.outer(wu, wv) * fd.dsigma
    grad = gradient(s, kind) / fd.dsigma
    dens = [delta_star(s, q) / fd.dsigma for q in basis]
    k = len(basis)
    G, b = np.empty((k, k)), np.empty(k)
    for i in range(k):
        b[i] = np.sum(wgt * dens[i] * grad)
        for j in range(i, k):
            G[i, j] = G[j, i] = np.sum(wgt * dens[i] * dens[j])
    coeffs = np.linalg.lstsq(G, b, rcond=None)[0]
    resid = grad - sum(c * d for c, d in zip(coeffs, dens))
    return coeffs, np.sqrt(np.sum(wgt * resid ** 2)), np.sqrt(np.sum(wgt * grad ** 2))


def test_design_matrix_solve_matches_normal_equations(random_hopf_torus):
    s = random_hopf_torus
    basis = make_qd_basis(s)
    for kind in (AREA, VOLUME, WILLMORE):
        cert = solve_multiplier(s, kind, basis)
        coeffs, resid, grad_norm = _normal_equations_reference(s, kind, basis)
        assert np.max(np.abs(cert.coefficients - coeffs)) < 1e-10 * max(1.0, np.max(np.abs(coeffs)))
        assert abs(cert.residual_l2 - resid) < 1e-10 * max(1.0, resid)
        assert abs(cert.gradient_l2 - grad_norm) < 1e-10 * max(1.0, grad_norm)
    # closed forms on this chart: area -1/4 dz^2, volume 1/8 i dz^2
    assert np.allclose(solve_multiplier(s, AREA, basis).coefficients, [-0.25, 0.0], atol=1e-12)
    assert np.allclose(solve_multiplier(s, VOLUME, basis).coefficients, [0.0, 0.125], atol=1e-12)


@settings(max_examples=6, deadline=None, derandomize=True)
@given(r1=st.floats(min_value=0.3, max_value=0.95))
def test_orientation_flip_property(r1):
    # flipping the normal negates delta_star and the area and Willmore
    # gradients but not the volume gradient
    s = homogeneous_torus(r1, np.sqrt(1.0 - r1 * r1), 48, 40)
    f = s.with_orientation(-s.orientation)
    for kind, sign in ((AREA, 1.0), (WILLMORE, 1.0), (VOLUME, -1.0)):
        c = solve_multiplier(s, kind, make_qd_basis(s))
        cf = solve_multiplier(f, kind, make_qd_basis(f))
        assert np.allclose(cf.coefficients, sign * c.coefficients, rtol=1e-9, atol=1e-12)
        assert abs(cf.residual_l2 - c.residual_l2) < 1e-9 * max(1.0, c.gradient_l2)
        assert abs(cf.gradient_l2 - c.gradient_l2) < 1e-12 * max(1.0, c.gradient_l2)
        assert cf.verdict == c.verdict


def test_certificate_json_schema(homog_torus):
    cert = solve_multiplier(homog_torus, AREA, make_qd_basis(homog_torus))
    d = json.loads(cert.to_json())
    assert set(d) == {"functional", "basis", "coeffs", "residual", "grad_norm",
                      "verdict", "tol"}
    assert d["functional"] == "area"
    assert len(d["coeffs"]) == 2


def test_certified_residual_convergence(closed_elastica):
    # the certificate residual on the shot torus is discretization limited
    # and must drop at order >= 2 under grid doubling
    residuals = []
    for nu in (128, 256, 512):
        s = hopf_cylinder(closed_elastica.curve, nu, 16)
        residuals.append(certify_constrained_willmore(s, tol=1e-3).residual_l2)
    assert np.log2(residuals[0] / residuals[1]) > 2.0
    assert np.log2(residuals[1] / residuals[2]) > 2.0


def test_compact_not_critical_is_not_a_grid_effect():
    # on the revolution torus (R, a) = (2, 0.5) the area residual is an
    # obstruction: it stays at 8.08937 under grid doubling, while the
    # Willmore residual is discretization error that falls at order >= 3.5
    from conwill.builders import surface_of_revolution, torus_profile

    area, will = [], []
    for n in (32, 64, 128):
        s = surface_of_revolution(torus_profile(2.0, 0.5), nu=n, nv=n)
        basis = make_qd_basis(s)
        area.append(solve_multiplier(s, AREA, basis))
        will.append(solve_multiplier(s, WILLMORE, basis))
    assert [c.verdict for c in area] == ["not-critical"] * 3
    assert [c.verdict for c in will] == ["critical"] * 3
    res = np.array([c.residual_l2 for c in area])
    assert abs(res[0] - 8.08937) < 1e-5
    assert np.max(np.abs(res - res[0])) <= 1e-6 * res[0]
    res = [c.residual_l2 for c in will]
    assert np.log2(res[0] / res[1]) >= 3.5
    assert np.log2(res[1] / res[2]) >= 3.5


def test_compact_soundness_random_conformal_variations():
    """Certified-critical compact surface: <grad F, u> vanishes for exact
    conformal variations. Built from a potential: X = (chi_x, -chi_y) has
    L_X J off-diagonal (Lap chi), matched by u = Lap(chi) / (2 alpha).
    Analytic derivatives and a fine grid keep the verified conformality
    residual below 1e-8."""
    from conwill.variations import Variation, conformality_residual

    s = homogeneous_torus(0.6, 0.8, 512, 512)
    g = s.grid
    fd = s.fundamental_data()
    alpha = float(fd.A0[0, 0, 0, 0])
    rng = np.random.default_rng(21)
    U, V = g.mesh()
    wx, wy = 2 * np.pi / g.Lu, 2 * np.pi / g.Lv
    cert = solve_multiplier(s, AREA, make_qd_basis(s))
    assert cert.is_critical
    for _ in range(20):
        c = rng.normal(size=3) * 0.15
        p = rng.uniform(0, 2 * np.pi, size=3)
        chi = (c[0] * np.sin(wx * U + p[0]) + c[1] * np.cos(wy * V + p[1])
               + c[2] * np.sin(wx * U + wy * V + p[2]))
        chi_x = c[0] * wx * np.cos(wx * U + p[0]) + c[2] * wx * np.cos(wx * U + wy * V + p[2])
        chi_y = -c[1] * wy * np.sin(wy * V + p[1]) + c[2] * wy * np.cos(wx * U + wy * V + p[2])
        lap = (-c[0] * wx ** 2 * np.sin(wx * U + p[0]) - c[1] * wy ** 2 * np.cos(wy * V + p[1])
               - c[2] * (wx ** 2 + wy ** 2) * np.sin(wx * U + wy * V + p[2]))
        u = lap / (2.0 * alpha)
        X = np.stack([chi_x, -chi_y], axis=-1)
        v = Variation(s, u, X)
        assert conformality_residual(s, v) < 1e-8
        for kind in (AREA, WILLMORE):
            pairing = integrate_2form(s, gradient(s, kind) * u)
            assert abs(pairing) < 10 * cert.tol
