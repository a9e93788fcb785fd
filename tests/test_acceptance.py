"""Acceptance suite: one test per criterion, at the stated tolerances.

Each test prints a one-line PASS record (visible with -v / -s) after its
assertions; tolerances are pinned here and not loosened elsewhere.
"""

import numpy as np
import pytest

from conwill.builders import (
    cylinder_over_curve,
    homogeneous_torus,
    hopf_cylinder,
    sphere_profile,
    surface_of_revolution,
    torus_profile,
)
from conwill.conformal_ops import (
    QuadraticDifferential,
    delta_op,
    delta_star,
    hopf_differential,
    is_strongly_isothermic,
    make_qd_basis,
    pair_form_function,
    pair_qd_endo,
)
from conwill.curves import (
    burstall_ode,
    elastica_first_integral,
    elastica_ode,
    integrate_curve,
)
from conwill.functionals import AREA, VOLUME, WILLMORE, gradient, willmore_energy
from conwill.geom_core import integrate_2form
from conwill.multiplier import certify_constrained_willmore, cmc_multiplier, solve_multiplier
from conwill.variations import (
    Variation,
    conformal_completion_revolution,
    conformality_residual,
    fd_functional_derivative,
    jdot_fd_check,
)


def _report(n, text):
    print(f"ACCEPTANCE {n}: {text} ... PASS")


def _identity_rel_error(s):
    fd = s.fundamental_data()
    lhs = delta_star(s, hopf_differential(s))
    rhs = 4.0 * (fd.H ** 2 - fd.G) * fd.dsigma
    return float(np.max(np.abs(lhs - rhs)) / max(float(np.max(np.abs(rhs))), 1e-30))


def test_criterion_1_hopf_identity(homog_torus, circle_curve, ellipse_curve,
                                   burstall_band):
    worst_analytic = _identity_rel_error(homog_torus)
    cylinders = [
        cylinder_over_curve(circle_curve, (-2.0, 2.0), 192, 32),
        cylinder_over_curve(ellipse_curve, (-2.0, 2.0), 192, 32),
        burstall_band,
    ]
    for s in cylinders:
        worst_analytic = max(worst_analytic, _identity_rel_error(s))
    assert worst_analytic < 1e-7

    worst_fd = 0.0
    for curve in (circle_curve, ellipse_curve):
        s = cylinder_over_curve(curve, (-2.0, 2.0), 256, 48, analytic=False)
        worst_fd = max(worst_fd, _identity_rel_error(s))
    s = homogeneous_torus(0.6, 0.8, 128, 128)
    s_fd = type(s)(s.space_form, s.grid, s.position, None,
                   orientation=s.orientation, conformal=True)
    worst_fd = max(worst_fd, _identity_rel_error(s_fd))
    assert worst_fd < 1e-5
    _report(1, f"delta_star(Q) = 4(H^2-G) dsigma; analytic {worst_analytic:.2e} < 1e-7, "
               f"FD {worst_fd:.2e} < 1e-5")


def test_criterion_2_adjointness(homog_torus, ellipse_cylinder, revolution_torus,
                                 sphere_band):
    rng = np.random.default_rng(101)
    surfaces = [homog_torus, ellipse_cylinder, revolution_torus, sphere_band,
                homogeneous_torus(0.3, np.sqrt(1 - 0.09), 48, 48)]
    worst = 0.0
    for k in range(50):
        s = surfaces[k % len(surfaces)]
        g = s.grid
        U, V = g.mesh()
        c = rng.normal(size=8)
        u = (c[0] + c[1] * np.cos(2 * np.pi * U / g.Lu) + c[2] * np.sin(2 * np.pi * V / g.Lv)
             + c[3] * np.sin(2 * np.pi * (U / g.Lu + 2 * V / g.Lv)))
        phi = (c[4] + c[5] * np.sin(2 * np.pi * U / g.Lu)
               + 1j * (c[6] + c[7] * np.cos(2 * np.pi * V / g.Lv)))
        q = QuadraticDifferential(s, phi)
        lhs = pair_form_function(s, delta_star(s, q), u)
        rhs = pair_qd_endo(s, q, delta_op(s, u))
        worst = max(worst, abs(lhs - rhs) / max(abs(lhs), abs(rhs), 1e-12))
    assert worst < 1e-6
    _report(2, f"adjointness over 50 triples, worst rel err {worst:.2e} < 1e-6")


def test_criterion_3_jdot_decay(homog_torus, circle_cylinder):
    steps = (1e-3, 1e-4, 1e-5)
    worst = 0.0
    U, V = homog_torus.grid.mesh()
    cases = [(homog_torus,
              0.7 * np.sin(U / 0.6) * np.cos(2 * V / 0.8),
              0.7 * np.cos(U / 0.6) / 0.6 * np.cos(2 * V / 0.8),
              -0.7 * np.sin(U / 0.6) * np.sin(2 * V / 0.8) * 2 / 0.8)]
    Uc, Vc = circle_cylinder.grid.mesh()
    w = np.pi / 2.0
    mask = np.abs(Vc) < 2.0
    u = np.where(mask, np.cos(w * Vc / 2.0) ** 4, 0.0) * np.sin(Uc)
    du = np.where(mask, np.cos(w * Vc / 2.0) ** 4, 0.0) * np.cos(Uc)
    dv = np.where(mask, -2.0 * w * np.cos(w * Vc / 2.0) ** 3 * np.sin(w * Vc / 2.0), 0.0) * np.sin(Uc)
    cases.append((circle_cylinder, u, du, dv))
    for s, uu, duu, dvv in cases:
        r = jdot_fd_check(s, uu, steps, duu, dvv)
        e = r["errors"]
        assert e[0] / e[1] > 5.0 and e[1] / e[2] > 5.0  # first-order decay
        worst = max(worst, r["extrapolated_mismatch"])
    assert worst < 1e-6
    _report(3, f"J-rate difference quotients decay first order; extrapolated "
               f"mismatch {worst:.2e} < 1e-6")


def test_criterion_4_first_variations(homog_torus, revolution_torus):
    rng = np.random.default_rng(202)
    worst = 0.0
    g = homog_torus.grid
    U, V = g.mesh()
    for _ in range(10):
        c = rng.normal(size=4) * 0.25
        u = (c[0] + c[1] * np.cos(2 * np.pi * U / g.Lu)
             + c[2] * np.sin(2 * np.pi * V / g.Lv)
             + c[3] * np.cos(2 * np.pi * (U / g.Lu + V / g.Lv)))
        for kind in (WILLMORE, AREA):
            res = fd_functional_derivative(homog_torus, kind, Variation(homog_torus, u))
            worst = max(worst, res["rel_err"])
    gt = revolution_torus.grid
    Ut, Vt = gt.mesh()
    for _ in range(10):
        c = rng.normal(size=3) * 0.15
        u = c[0] + c[1] * np.cos(2 * np.pi * Ut / gt.Lu) + c[2] * np.cos(Vt)
        for kind in (AREA, VOLUME):
            res = fd_functional_derivative(revolution_torus, kind,
                                           Variation(revolution_torus, u))
            worst = max(worst, res["rel_err"])
    assert worst < 1e-3
    _report(4, f"Willmore/Area/Volume first variations vs central differences, "
               f"worst rel err {worst:.2e} < 1e-3")


def test_criterion_5_cylinder_multiplier(circle_cylinder, ellipse_cylinder,
                                         burstall_band):
    worst_coeff, worst_resid = 0.0, 0.0
    for s in (circle_cylinder, ellipse_cylinder, burstall_band):
        cert = solve_multiplier(s, AREA, make_qd_basis(s))
        worst_coeff = max(worst_coeff, abs(cert.coefficients[0] + 0.25),
                          abs(cert.coefficients[1]))
        worst_resid = max(worst_resid, cert.residual_l2)
    assert worst_coeff < 1e-5
    assert worst_resid < 1e-6
    _report(5, f"area multiplier -1/4 dz^2 on three cylinders; coeff err "
               f"{worst_coeff:.2e} < 1e-5, residual {worst_resid:.2e} < 1e-6")


def test_criterion_6_cmc_corollary(homog_torus):
    fd = homog_torus.fundamental_data()
    q = cmc_multiplier(homog_torus)
    gw = gradient(homog_torus, WILLMORE)
    dens = (gw - delta_star(homog_torus, q)) / fd.dsigma
    resid = np.sqrt(integrate_2form(homog_torus, dens ** 2 * fd.dsigma))
    gdens = gw / fd.dsigma
    gnorm = np.sqrt(integrate_2form(homog_torus, gdens ** 2 * fd.dsigma))
    assert resid < 1e-6 * gnorm
    _report(6, f"q = (H/2) Q balances grad(W): {resid / gnorm:.2e} < 1e-6 relative")


def test_criterion_7_energy_identity(hopf_clifford, great_circle_curve,
                                     closed_elastica):
    def line_energy(curve):
        ds = curve.length / len(curve.s)
        return np.pi * float(np.sum(curve.kappa ** 2 + 1.0) * ds)

    w_cliff = willmore_energy(hopf_clifford)
    assert abs(w_cliff - line_energy(great_circle_curve)) < 1e-4 * w_cliff
    assert abs(w_cliff - 2 * np.pi ** 2) < 1e-4

    torus = hopf_cylinder(closed_elastica.curve, 256, 16)
    w_el = willmore_energy(torus)
    rel = abs(w_el - line_energy(closed_elastica.curve)) / w_el
    assert rel < 1e-4
    _report(7, f"W = pi int(kappa^2+1) ds; clifford exact to {abs(w_cliff - 2 * np.pi ** 2):.1e}, "
               f"elastica torus rel {rel:.2e} < 1e-4")


def test_criterion_8_constrained_willmore_hopf(closed_elastica, hopf_clifford):
    torus = hopf_cylinder(closed_elastica.curve, 512, 16)
    cert = certify_constrained_willmore(torus, tol=1e-4)
    assert cert.is_critical
    assert cert.residual_l2 < 1e-4
    # pure-Willmore residual must stay large for the non-circular solution
    assert cert.extras["pure_willmore_residual"] > 1e-2
    # recovered coefficients match the elastic-curve constants
    a, b = closed_elastica.a, closed_elastica.b
    assert abs(cert.coefficients[0] - (1 - a) / 4.0) < 1e-4
    assert abs(cert.coefficients[1] - b / 4.0) < 1e-4
    # kappa == 0: the great-circle torus is Willmore outright (q = 0 works)
    cert0 = certify_constrained_willmore(hopf_clifford, tol=1e-4)
    assert cert0.is_critical and cert0.extras["pure_willmore_residual"] < 1e-2
    _report(8, f"shot elastic curve: certificate residual {cert.residual_l2:.2e} < 1e-4, "
               f"q=0 residual {cert.extras['pure_willmore_residual']:.2e} > 1e-2")


def test_criterion_9_negative_controls(sphere_band):
    cert = solve_multiplier(sphere_band, AREA, [])
    assert cert.verdict == "not-critical"
    fd = sphere_band.fundamental_data()
    expect = np.sqrt(integrate_2form(sphere_band, (2.0 * fd.H) ** 2 * fd.dsigma))
    assert cert.residual_l2 > 0.5 * expect > 0

    band = surface_of_revolution(sphere_profile(1.0), x_span=(-2.5, 2.5), nu=256, nv=48)
    U, _ = band.grid.mesh()
    t = np.clip(U / 1.8, -1.0, 1.0)
    bump = np.where(np.abs(t) < 1.0,
                    np.exp(1.0 - 1.0 / np.maximum(1.0 - t * t, 1e-300)), 0.0)
    u = bump * np.sign(band.fundamental_data().H)
    var = conformal_completion_revolution(band, u)
    assert conformality_residual(band, var) < 1e-6
    pairing = integrate_2form(band, gradient(band, AREA) * u)
    assert pairing < 0.0
    _report(9, f"sphere fails with empty basis (residual {cert.residual_l2:.3f} > 0); "
               f"conformal variation decreases area ({pairing:.3f} < 0)")


def test_criterion_10_strong_isothermicity(ellipse_cylinder, homog_torus,
                                           random_closed_spherical_curve):
    worst = 0.0
    for s in (ellipse_cylinder, homog_torus):
        res = is_strongly_isothermic(s, make_qd_basis(s), tol=1e-6)
        assert res.is_strongly_isothermic
        fd = s.fundamental_data()
        dens = delta_star(s, res.q) / fd.dsigma
        norm = np.sqrt(integrate_2form(s, dens ** 2 * fd.dsigma)) / max(res.q.l2_norm(), 1e-30)
        worst = max(worst, norm)
    assert worst < 1e-6

    perturbed = hopf_cylinder(random_closed_spherical_curve, 192, 16)
    neg = is_strongly_isothermic(perturbed, make_qd_basis(perturbed), tol=1e-6)
    assert neg.verdict == "not-strongly-isothermic"
    assert neg.sigma_min > 1e-4
    _report(10, f"isothermic direction with |delta_star(q)| {worst:.2e} < 1e-6; "
                f"perturbed torus gap {neg.sigma_min:.2e} > 1e-4")


def test_criterion_11_elastica_conservation():
    # ~10^3 oscillations of the (a, b, kappa0) = (0.2, 0.4, 1) orbit
    sol = elastica_ode(0.2, 0.4, 1.0, 0.0, (0.0, 7600.0))
    assert sol.energy_drift < 1e-8
    E = elastica_first_integral(sol.kappa, sol.dkappa, 0.2, 0.4)
    assert np.max(np.abs(E - E[0])) / max(1.0, abs(E[0])) < 1e-8
    burst = burstall_ode(0.2, 0.02, 1.0, 0.0, (0.0, 60.0))
    assert np.all(np.isfinite(burst.kappa))
    assert float(np.max(np.abs(burst.kappa))) < 1e6
    _report(11, f"first integral drift {sol.energy_drift:.2e} < 1e-8 over ~10^3 "
                f"oscillations; forced run completes on [0, 60]")
