"""delta / delta_star / Hopf differential / dbar operators / pairings."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conwill.builders import homogeneous_torus, plane_patch
from conwill.conformal_ops import (
    QuadraticDifferential,
    dbar_residual,
    dbar_vector_field,
    delta_op,
    delta_star,
    hopf_differential,
    is_strongly_isothermic,
    make_qd_basis,
    pair_form_function,
    pair_qd_endo,
)
from conwill.errors import (
    ConfigError,
    EmptyBasis,
    GridMismatch,
    NonHolomorphicBasis,
    NotAnticommuting,
)
from conwill.geom_core import anticommutator_defect, integrate_2form


def _random_field(s, rng, scale=1.0):
    g = s.grid
    U, V = g.mesh()
    c = rng.normal(size=6) * scale
    return (c[0] + c[1] * np.cos(2 * np.pi * U / g.Lu) + c[2] * np.sin(2 * np.pi * V / g.Lv)
            + c[3] * np.sin(2 * np.pi * (2 * U / g.Lu - V / g.Lv))
            + c[4] * np.cos(4 * np.pi * U / g.Lu) + c[5] * np.sin(4 * np.pi * V / g.Lv))


# ---------------------------------------------------------------- delta

def test_delta_zero_on_umbilic(sphere_band):
    u = _random_field(sphere_band, np.random.default_rng(0))
    assert np.max(np.abs(delta_op(sphere_band, u))) < 1e-10


def test_delta_cylinder_unit(circle_cylinder):
    # A0 = diag(-1/2, 1/2) for the unit circle, so delta(1) = 2 A0 J
    D = delta_op(circle_cylinder, np.ones(circle_cylinder.position.shape[:2]))
    expect = 2.0 * np.array([[-0.5, 0.0], [0.0, 0.5]]) @ np.array([[0.0, -1.0], [1.0, 0.0]])
    assert np.max(np.abs(D - expect)) < 1e-10
    assert anticommutator_defect(circle_cylinder, D) < 1e-9


def test_delta_zero_field(homog_torus):
    D = delta_op(homog_torus, np.zeros(homog_torus.position.shape[:2]))
    assert np.max(np.abs(D)) == 0.0


# ---------------------------------------------------------------- delta_star

def test_delta_star_hopf_chart(hopf_latitude):
    fd = hopf_latitude.fundamental_data()
    kappa = 1.0
    q1 = QuadraticDifferential.constant(hopf_latitude, 1.0)
    qi = QuadraticDifferential.constant(hopf_latitude, 1j)
    assert np.max(np.abs(delta_star(hopf_latitude, q1) + 8 * kappa * fd.dsigma)) < 1e-10
    assert np.max(np.abs(delta_star(hopf_latitude, qi) - 8 * fd.dsigma)) < 1e-10


def test_delta_star_closed_form_matches_bilinear(homog_torus, ellipse_cylinder, revolution_torus):
    # reference: the coefficient (M^T B)_{01} - (M^T B)_{10} of Re(q)(M _ ^ _)
    # with the matrix B of Re(q), M = A0 J, as explicit matrix products
    rng = np.random.default_rng(5)
    for s in (homog_torus, ellipse_cylinder, revolution_torus):
        fd = s.fundamental_data()
        q = QuadraticDifferential(s, _random_field(s, rng) + 1j * _random_field(s, rng))
        P = np.einsum("...ki,...kj->...ij", fd.A0 @ fd.J, q.real_bilinear())
        expect = 4.0 * (P[..., 0, 1] - P[..., 1, 0])
        assert np.max(np.abs(delta_star(s, q) - expect)) < 1e-12 * max(1.0, np.max(np.abs(expect)))


def test_delta_star_umbilic_zero(sphere_band):
    q = QuadraticDifferential.constant(sphere_band, 0.3 - 1.7j)
    assert np.max(np.abs(delta_star(sphere_band, q))) < 1e-10


# ---------------------------------------------------------------- Hopf differential

def test_hopf_differential_umbilic(sphere_band):
    Q = hopf_differential(sphere_band)
    assert np.max(np.abs(Q.phi)) < 1e-10


def test_hopf_differential_clifford(clifford):
    fd = clifford.fundamental_data()
    Q = hopf_differential(clifford)
    assert np.max(np.abs(Q.phi.imag)) < 1e-12
    # H = 0, G = -1: delta_star(Q) = 4 dsigma
    assert np.max(np.abs(delta_star(clifford, Q) - 4.0 * fd.dsigma)) < 1e-10


def test_hopf_differential_cylinder(circle_cylinder):
    Q = hopf_differential(circle_cylinder)
    assert np.max(np.abs(Q.phi - (-0.25))) < 1e-10


def test_delta_star_hopf_identity_pointwise(homog_torus, ellipse_cylinder, hopf_latitude):
    for s in (homog_torus, ellipse_cylinder, hopf_latitude):
        fd = s.fundamental_data()
        lhs = delta_star(s, hopf_differential(s))
        rhs = 4.0 * (fd.H ** 2 - fd.G) * fd.dsigma
        scale = float(np.max(np.abs(rhs)))
        assert np.max(np.abs(lhs - rhs)) < 1e-8 * max(scale, 1.0)


# ---------------------------------------------------------------- dbar

def test_dbar_vector_field_holomorphic(homog_torus):
    X = np.zeros(homog_torus.position.shape[:2] + (2,))
    X[..., 0], X[..., 1] = 0.7, -1.1
    assert np.max(np.abs(dbar_vector_field(homog_torus, X))) < 1e-12


def test_dbar_vector_field_hand_formula():
    # X = (x^2, 0) on a flat patch: L_X J = [[0, 2x], [2x, 0]]
    s = plane_patch(1.0, 1.0, 64, 64)
    U, V = s.grid.mesh()
    X = np.stack([U ** 2, np.zeros_like(U)], axis=-1)
    R = dbar_vector_field(s, X)
    expect = np.zeros_like(R)
    expect[..., 0, 1] = 2 * U
    expect[..., 1, 0] = 2 * U
    assert np.max(np.abs(R - expect)) < 1e-9


def test_dbar_anticommutes(homog_torus):
    rng = np.random.default_rng(3)
    X = np.stack([_random_field(homog_torus, rng), _random_field(homog_torus, rng)], axis=-1)
    R = dbar_vector_field(homog_torus, X)
    assert anticommutator_defect(homog_torus, R) < 1e-9


def test_dbar_residual_cases():
    s = plane_patch(1.0, 1.0, 96, 96)
    U, V = s.grid.mesh()
    z = U + 1j * V
    assert dbar_residual(QuadraticDifferential.constant(s, 2.3 - 0.7j)) < 1e-12
    assert dbar_residual(QuadraticDifferential(s, z)) < 1e-8
    resid = dbar_residual(QuadraticDifferential(s, np.conj(z)))
    # d zbar / d zbar = 1: the norm equals sqrt of the (margin-trimmed) area
    from conwill._stencils import quadrature_weights

    w = quadrature_weights(96, 1.0 / 96, False)
    trimmed_area = np.sum(w) ** 2
    assert abs(resid - np.sqrt(trimmed_area)) < 1e-10


def test_flat_torus_holomorphic_iff_constant(homog_torus):
    g = homog_torus.grid
    U, _ = g.mesh()
    const = QuadraticDifferential.constant(homog_torus, 1.0 + 0.5j)
    assert dbar_residual(const) < 1e-12
    wave = QuadraticDifferential(homog_torus, np.exp(2j * np.pi * U / g.Lu))
    assert dbar_residual(wave) > 1e-2


def test_real_bilinear_roundtrip(homog_torus):
    rng = np.random.default_rng(9)
    phi = _random_field(homog_torus, rng) + 1j * _random_field(homog_torus, rng)
    q = QuadraticDifferential(homog_torus, phi)
    B = q.real_bilinear()
    # Re(q) = Re phi (dx^2 - dy^2) - 2 Im phi dx dy, and back
    assert np.allclose(B[..., 0, 0], phi.real)
    assert np.allclose(B[..., 0, 1], -phi.imag)
    assert np.allclose(B[..., 1, 1], -phi.real)
    phi_back = B[..., 0, 0] - 1j * B[..., 0, 1]
    assert np.allclose(phi_back, phi)


# ---------------------------------------------------------------- pairings

def test_pair_form_function_area(homog_torus):
    fd = homog_torus.fundamental_data()
    ones = np.ones_like(fd.dsigma)
    val = pair_form_function(homog_torus, fd.dsigma, ones)
    assert abs(val - 4 * np.pi ** 2 * 0.48) < 1e-10
    assert pair_form_function(homog_torus, fd.dsigma, 0.0 * ones) == 0.0


def test_adjointness_randomized(homog_torus, ellipse_cylinder, revolution_torus):
    rng = np.random.default_rng(11)
    for _ in range(7):
        for s in (homog_torus, ellipse_cylinder, revolution_torus):
            u = _random_field(s, rng)
            phi = _random_field(s, rng) + 1j * _random_field(s, rng)
            q = QuadraticDifferential(s, phi)
            lhs = pair_form_function(s, delta_star(s, q), u)
            rhs = pair_qd_endo(s, q, delta_op(s, u))
            assert abs(lhs - rhs) < 1e-7 * max(1.0, abs(lhs))


@settings(max_examples=8, deadline=None, derandomize=True)
@given(r1=st.floats(min_value=0.3, max_value=0.95),
       c=st.tuples(st.floats(-2.0, 2.0), st.floats(-2.0, 2.0)),
       a=st.lists(st.floats(-1.0, 1.0), min_size=3, max_size=3),
       m=st.integers(1, 3), n=st.integers(1, 3),
       p=st.tuples(st.floats(0.0, 2 * np.pi), st.floats(0.0, 2 * np.pi)))
def test_adjointness_property_homogeneous_tori(r1, c, a, m, n, p):
    # <delta_star(q), u> = <q, delta(u)> for constant phi and a trigonometric u
    s = homogeneous_torus(r1, np.sqrt(1.0 - r1 * r1), 48, 40)
    U, V = s.grid.mesh()
    u = (a[0] + a[1] * np.cos(2 * np.pi * m * U / s.grid.Lu + p[0])
         + a[2] * np.sin(2 * np.pi * n * V / s.grid.Lv + p[1]))
    q = QuadraticDifferential.constant(s, complex(*c))
    lhs = pair_form_function(s, delta_star(s, q), u)
    rhs = pair_qd_endo(s, q, delta_op(s, u))
    assert abs(lhs - rhs) < 1e-12 * max(1.0, abs(lhs))


def test_pair_qd_endo_zero(homog_torus):
    q = QuadraticDifferential.constant(homog_torus, 1.0)
    R = np.zeros(homog_torus.position.shape[:2] + (2, 2))
    assert pair_qd_endo(homog_torus, q, R) == 0.0


def test_pair_qd_endo_rejects_commuting(homog_torus):
    q = QuadraticDifferential.constant(homog_torus, 1.0)
    R = np.zeros(homog_torus.position.shape[:2] + (2, 2))
    R[..., 0, 0] = R[..., 1, 1] = 1.0  # identity commutes with J
    with pytest.raises(NotAnticommuting):
        pair_qd_endo(homog_torus, q, R)


def test_holomorphic_orthogonal_to_dbar_image(homog_torus, clifford):
    rng = np.random.default_rng(13)
    for s in (homog_torus, clifford):
        for _ in range(5):
            X = np.stack([_random_field(s, rng), _random_field(s, rng)], axis=-1)
            R = dbar_vector_field(s, X)
            for c in (1.0, 1j, 0.3 + 2.0j):
                q = QuadraticDifferential.constant(s, c)
                val = pair_qd_endo(s, q, R)
                scale = q.l2_norm() * float(np.max(np.abs(X)))
                assert abs(val) < 1e-7 * max(1.0, scale)


def test_hopf_cylinder_pairing_consistency(hopf_latitude):
    # <q, delta(1)> over the chart equals <delta_star(q), 1> = int -8 kappa dsigma
    fd = hopf_latitude.fundamental_data()
    q = QuadraticDifferential.constant(hopf_latitude, 1.0)
    ones = np.ones_like(fd.H)
    lhs = pair_qd_endo(hopf_latitude, q, delta_op(hopf_latitude, ones))
    rhs = integrate_2form(hopf_latitude, -8.0 * 1.0 * fd.dsigma)
    assert abs(lhs - rhs) < 1e-9 * abs(rhs)


# ---------------------------------------------------------------- strong isothermicity

def test_strongly_isothermic_cylinder(ellipse_cylinder):
    res = is_strongly_isothermic(ellipse_cylinder, make_qd_basis(ellipse_cylinder))
    assert res.is_strongly_isothermic
    # found direction is a real multiple of +- i dz^2
    c = res.coefficients
    assert abs(c[0]) < 1e-8 * max(1.0, abs(c[1]))
    assert np.max(np.abs(delta_star(ellipse_cylinder, res.q))) < 1e-6


def test_strongly_isothermic_cmc_torus(homog_torus):
    res = is_strongly_isothermic(homog_torus, make_qd_basis(homog_torus))
    assert res.is_strongly_isothermic
    # the direction is i Q (phi_Q is real, so pure-imaginary coefficients)
    assert abs(res.coefficients[0]) < 1e-8


def test_not_strongly_isothermic_random_torus(random_hopf_torus):
    s = random_hopf_torus
    res = is_strongly_isothermic(s, make_qd_basis(s), tol=1e-6)
    assert res.verdict == "not-strongly-isothermic"
    assert res.sigma_min > 1e-4


def test_isothermic_zeros_are_umbilic(ellipse_cylinder, homog_torus):
    for s in (ellipse_cylinder, homog_torus):
        res = is_strongly_isothermic(s, make_qd_basis(s))
        fd = s.fundamental_data()
        phi = np.abs(res.q.phi)
        zero_nodes = phi < 1e-8 * max(float(np.max(phi)), 1e-30)
        assert np.all((fd.H ** 2 - fd.G)[zero_nodes] < 1e-8) if zero_nodes.any() else True


def test_empty_basis_raises(homog_torus):
    with pytest.raises(EmptyBasis):
        is_strongly_isothermic(homog_torus, [])


def test_isothermic_nonholomorphic_basis_raises(homog_torus):
    # the same error type as solve_multiplier, inside the ConwillError hierarchy
    U, _ = homog_torus.grid.mesh()
    wave = QuadraticDifferential(homog_torus, np.exp(2j * np.pi * U / homog_torus.grid.Lu))
    with pytest.raises(NonHolomorphicBasis):
        is_strongly_isothermic(homog_torus, [wave])


def test_isothermic_basis_on_other_surface_raises(homog_torus, clifford):
    with pytest.raises(GridMismatch):
        is_strongly_isothermic(homog_torus, make_qd_basis(clifford))


@pytest.mark.parametrize("degree", [-3, 1.5])
def test_basis_degree_must_be_a_non_negative_integer(degree):
    # a negative degree raises instead of giving the degree-0 basis, and a
    # fractional one raises before it reaches range()
    with pytest.raises(ValueError, match="basis degree"):
        make_qd_basis(plane_patch(1.0, 1.0, 16, 16), degree)


def test_constant_basis_is_not_differenced(monkeypatch):
    """dz^2 and i dz^2 are exactly holomorphic: certifying with them does
    not difference phi."""
    import conwill.conformal_ops as conformal_ops
    from conwill.multiplier import certify_constrained_willmore

    s = homogeneous_torus(0.6, 0.8, 48, 48)

    def refuse(*args, **kwargs):
        raise AssertionError("constant phi differenced")

    monkeypatch.setattr(conformal_ops, "diff_uniform", refuse)
    assert certify_constrained_willmore(s, make_qd_basis(s, 0)).is_critical
    assert dbar_residual(QuadraticDifferential.constant(s, 2.3 - 0.7j)) == 0.0


def test_mixed_basis_still_gated(homog_torus):
    # the wave next to dz^2 is differenced and fails
    from conwill.multiplier import solve_multiplier

    U, _ = homog_torus.grid.mesh()
    wave = QuadraticDifferential(homog_torus, np.exp(2j * np.pi * U / homog_torus.grid.Lu), "wave")
    with pytest.raises(NonHolomorphicBasis, match="wave"):
        solve_multiplier(homog_torus, "willmore", [make_qd_basis(homog_torus)[0], wave])


def test_dbar_residual_of_z_keeps_its_value():
    from conwill._stencils import diff_uniform, quadrature_weights

    s = plane_patch(1.0, 1.0, 96, 96)
    U, V = s.grid.mesh()
    h = 1.0 / 96
    # 2 dz / d z-bar = (U_x - V_y) + i (V_x + U_y), differenced
    dens = ((diff_uniform(U, h, 1, False, axis=0) - diff_uniform(V, h, 1, False, axis=1)) ** 2
            + (diff_uniform(V, h, 1, False, axis=0) + diff_uniform(U, h, 1, False, axis=1)) ** 2)
    w = quadrature_weights(96, h, False)
    want = 0.5 * np.sqrt(np.einsum("i,j,ij->", w, w, dens))
    assert dbar_residual(QuadraticDifferential(s, U + 1j * V)) == want


def test_doubly_periodic_chart_refuses_higher_degree(homog_torus):
    with pytest.raises(ConfigError, match="only constant phi are holomorphic"):
        make_qd_basis(homog_torus, 1)
    assert len(make_qd_basis(plane_patch(1.0, 1.0, 16, 16), 1)) == 4


def test_weighted_design_gram_matrix(homog_torus):
    # G is Re Q^H Q of the weighted basis columns sw phi_i / e^{2 lambda}; the
    # gate reads |q_i| off its diagonal, so a scaled wave still fails it
    from conwill.conformal_ops import _weighted_design
    from conwill.multiplier import HOLO_TOL

    s = homog_torus
    basis = make_qd_basis(s)
    fd = s.fundamental_data()
    wu, wv = s.quadrature()
    w = np.sqrt(np.outer(wu, wv) * fd.dsigma) / fd.e2l
    Q = np.stack([(q.phi * w).ravel() for q in basis], axis=1)
    G = _weighted_design(s, basis, HOLO_TOL)[1]
    assert np.max(np.abs(G - (Q.conj().T @ Q).real)) <= 1e-13 * np.max(np.abs(G))
    U, _ = s.grid.mesh()
    for scale in (1.0, 1e12):
        wave = QuadraticDifferential(s, scale * np.exp(2j * np.pi * U / s.grid.Lu), "wave")
        with pytest.raises(NonHolomorphicBasis, match="wave"):
            _weighted_design(s, [wave], HOLO_TOL)
