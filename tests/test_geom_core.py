"""Fundamental data, field operators, quadrature, and grid plumbing."""

import warnings

import numpy as np
import pytest

from conwill.builders import (
    cylinder_over_curve,
    homogeneous_torus,
    plane_patch,
    surface_of_revolution,
    torus_profile,
)
from conwill import _stencils, geom_core
from conwill._stencils import diff_uniform, row_blocks
from conwill.curves import integrate_curve
from conwill.errors import (
    BadRadii,
    DegenerateImmersion,
    GridMismatch,
    NotConformal,
)
from conwill.geom_core import (
    Grid2D,
    ParamSurface,
    R3,
    S3,
    _cross3,
    _conformality_residual,
    _cross4,
    _first_form,
    _mul2,
    _stages,
    anticommutator_defect,
    integrate_2form,
    laplace_beltrami,
)


def test_grid_invariants():
    with pytest.raises(ValueError):
        Grid2D(4, 64, 1.0, 1.0)
    with pytest.raises(ValueError):
        Grid2D(64, 64, -1.0, 1.0)
    g = Grid2D(64, 32, 2.0, 1.0, periodic_u=False)
    assert g.hu == 2.0 / 64 and g.hv == 1.0 / 32


def test_mul2_matches_matmul():
    rng = np.random.default_rng(4)
    a, b = rng.normal(size=(2, 7, 5, 2, 2))
    assert np.max(np.abs(_mul2(a, b) - a @ b)) < 1e-14
    # a constant matrix broadcasts against a field
    assert np.max(np.abs(_mul2(a, b[0, 0]) - a @ b[0, 0])) < 1e-14


def test_cylinder_mean_curvature(circle_cylinder):
    fd = circle_cylinder.fundamental_data()
    # outward convention on the unit circle: A = diag(-kappa, 0), H = -1/2
    assert np.allclose(fd.H, -0.5, atol=1e-12)
    assert np.allclose(fd.A[..., 0, 0], -1.0, atol=1e-10)
    assert np.allclose(fd.A[..., 1, 1], 0.0, atol=1e-10)
    assert np.allclose(fd.G, 0.0, atol=1e-10)


def test_plane_patch_flat():
    fd = plane_patch(1.0, 1.0, 32, 32).fundamental_data()
    assert np.max(np.abs(fd.A)) == 0.0
    assert np.max(np.abs(fd.H)) == 0.0
    assert np.max(np.abs(fd.G)) == 0.0


def test_homogeneous_torus_curvatures(homog_torus):
    fd = homog_torus.fundamental_data()
    assert np.allclose(fd.H, 7.0 / 24.0, atol=1e-12)
    assert np.allclose(fd.G, -1.0, atol=1e-12)
    # flat: intrinsic curvature G + 1 = 0
    assert np.allclose(fd.G + homog_torus.space_form.sectional_curvature, 0.0, atol=1e-12)


def test_fundamental_data_invariants(homog_torus, circle_cylinder, hopf_latitude):
    for s in (homog_torus, circle_cylinder, hopf_latitude):
        fd = s.fundamental_data()
        tr = fd.A0[..., 0, 0] + fd.A0[..., 1, 1]
        assert np.max(np.abs(tr)) < 1e-10
        # A0 = (A + J A J)/2 on conformal charts
        JAJ = np.einsum("...ik,...kl,...lj->...ij", fd.J, fd.A, fd.J)
        assert np.max(np.abs(fd.A0 - 0.5 * (fd.A + JAJ))) < 1e-9
        J2 = np.einsum("...ik,...kj->...ij", fd.J, fd.J)
        assert np.max(np.abs(J2 + np.eye(2))) < 1e-12
        # g(J., J.) = g
        gJ = np.einsum("...ki,...kl,...lj->...ij", fd.J, fd.g, fd.J)
        assert np.max(np.abs(gJ - fd.g)) < 1e-9 * float(np.max(np.abs(fd.g)))
        # detA = G, trA/2 = H by construction
        detA = fd.A[..., 0, 0] * fd.A[..., 1, 1] - fd.A[..., 0, 1] * fd.A[..., 1, 0]
        assert np.max(np.abs(detA - fd.G)) < 1e-12 * max(1.0, float(np.max(np.abs(fd.G))))
        # A0^2 = (H^2 - G) Id
        A0sq = np.einsum("...ik,...kj->...ij", fd.A0, fd.A0)
        target = (fd.H ** 2 - fd.G)[..., None, None] * np.eye(2)
        assert np.max(np.abs(A0sq - target)) < 1e-8
        # trace-free part anticommutes with J
        assert anticommutator_defect(s, fd.A0) < 1e-9


def test_sphere3_positions_on_sphere(homog_torus, hopf_latitude):
    for s in (homog_torus, hopf_latitude):
        r = np.linalg.norm(s.position, axis=-1)
        assert np.max(np.abs(r - 1.0)) < 1e-10


def test_normal_is_unit_and_orthogonal(homog_torus, circle_cylinder):
    for s in (homog_torus, circle_cylinder):
        fd = s.fundamental_data()
        assert np.allclose(np.linalg.norm(fd.xi, axis=-1), 1.0, atol=1e-12)
        fu = s.derivative("fu")
        fv = s.derivative("fv")
        assert np.max(np.abs(np.einsum("ijk,ijk->ij", fd.xi, fu))) < 1e-10
        assert np.max(np.abs(np.einsum("ijk,ijk->ij", fd.xi, fv))) < 1e-10
        if s.space_form.kind == "Sphere3":
            assert np.max(np.abs(np.einsum("ijk,ijk->ij", fd.xi, s.position))) < 1e-10


def test_degenerate_immersion_raises():
    grid = Grid2D(16, 16, 1.0, 1.0, False, False)
    U, V = grid.mesh()
    pos = np.stack([U, U, np.zeros_like(U)], axis=-1)  # fu parallel fv
    with pytest.raises(DegenerateImmersion):
        ParamSurface(R3, grid, pos).fundamental_data()


def test_not_conformal_raises():
    grid = Grid2D(16, 16, 1.0, 2.0, False, False)
    U, V = grid.mesh()
    pos = np.stack([U, 2.0 * V, np.zeros_like(U)], axis=-1)
    s = ParamSurface(R3, grid, pos, conformal=True)
    with pytest.raises(NotConformal):
        s.fundamental_data()


def test_laplace_beltrami_constant(homog_torus):
    phi = np.full((homog_torus.grid.nu, homog_torus.grid.nv), 3.7)
    assert np.max(np.abs(laplace_beltrami(homog_torus, phi))) < 1e-12


def test_laplace_beltrami_flat_sine():
    s = plane_patch(2 * np.pi, 2 * np.pi, 192, 192)
    U, _ = s.grid.mesh()
    lap = laplace_beltrami(s, np.sin(U))
    assert np.max(np.abs(lap + np.sin(U))) < 5e-6


def test_laplace_beltrami_clifford(clifford):
    r = 1.0 / np.sqrt(2.0)
    U, _ = clifford.grid.mesh()
    phi = np.cos(U / r)  # cos of the first circle angle
    lap = laplace_beltrami(clifford, phi)
    assert np.max(np.abs(lap + 2.0 * phi)) < 1e-6


def test_laplace_requires_conformal(circle_cylinder):
    from conwill.variations import deform

    bent = deform(circle_cylinder, np.ones(circle_cylinder.position.shape[:2]), 0.05)
    with pytest.raises(NotConformal):
        laplace_beltrami(bent, bent.fundamental_data().H)


def test_integrate_2form_examples(homog_torus):
    fd = homog_torus.fundamental_data()
    area = integrate_2form(homog_torus, fd.dsigma)
    assert abs(area - 4 * np.pi ** 2 * 0.48) < 1e-10
    assert integrate_2form(homog_torus, np.zeros_like(fd.dsigma)) == 0.0


def test_integrate_trig_exact(homog_torus):
    # spectral accuracy below Nyquist on doubly periodic grids
    g = homog_torus.grid
    U, V = g.mesh()
    omega = 2.0 + np.cos(3 * 2 * np.pi * U / g.Lu) * np.sin(2 * 2 * np.pi * V / g.Lv)
    assert abs(integrate_2form(homog_torus, omega) - 2.0 * g.Lu * g.Lv) < 1e-11


def test_gauss_bonnet_torus(revolution_torus):
    fd = revolution_torus.fundamental_data()
    total = integrate_2form(revolution_torus, fd.G * fd.dsigma)
    area = integrate_2form(revolution_torus, fd.dsigma)
    assert abs(total) < 1e-6 * area


def test_gauss_bonnet_fd_strategy(circle_curve):
    s = cylinder_over_curve(circle_curve, (-1.0, 1.0), 128, 48, analytic=False)
    fd = s.fundamental_data()
    # cylinders are intrinsically flat: G vanishes pointwise
    assert np.max(np.abs(fd.G)) < 1e-6


def test_orientation_flip_flips_normal_data(homog_torus):
    flipped = homog_torus.with_orientation(-homog_torus.orientation)
    fd0 = homog_torus.fundamental_data()
    fd1 = flipped.fundamental_data()
    assert np.allclose(fd1.H, -fd0.H, atol=1e-12)
    assert np.allclose(fd1.xi, -fd0.xi, atol=1e-12)
    assert np.allclose(fd1.G, fd0.G, atol=1e-12)
    assert np.allclose(fd1.dsigma, fd0.dsigma, atol=1e-12)


def test_two_form_orientation_consistency(homog_torus):
    """Transposing the chart reverses orientation: pairings against the
    normal direction negate, while the area stays positive."""
    s = homog_torus
    g = s.grid
    tg = Grid2D(g.nv, g.nu, g.Lv, g.Lu, g.periodic_v, g.periodic_u)
    pos_t = np.swapaxes(s.position, 0, 1)
    st = ParamSurface(S3, tg, pos_t, None, orientation=s.orientation, conformal=True)
    # strip callbacks from the reference too so both sides share the same
    # finite-difference treatment (stencils commute with the transposition)
    sf = ParamSurface(S3, g, s.position, None, orientation=s.orientation, conformal=True)
    fd = sf.fundamental_data()
    fdt = st.fundamental_data()
    U, V = g.mesh()
    u = 0.5 + 0.2 * np.sin(2 * np.pi * U / g.Lu)
    # the normal flips under the chart swap, so <grad(Area), u> negates
    lhs = integrate_2form(sf, -2.0 * fd.H * fd.dsigma * u)
    rhs = integrate_2form(st, -2.0 * fdt.H * fdt.dsigma * u.T)
    assert abs(lhs + rhs) < 1e-9 * max(1.0, abs(lhs))
    assert integrate_2form(st, fdt.dsigma) > 0


def test_grid_mismatch_raises(homog_torus):
    with pytest.raises(GridMismatch):
        integrate_2form(homog_torus, np.zeros((3, 3)))


def test_refinement_convergence_order(circle_curve):
    # FD-strategy cylinders have algebraic error; doubling the grid should
    # shrink the Willmore error at order >= 2 (4th-order stencils)
    from conwill.functionals import willmore_energy

    errs = []
    for nu in (128, 256, 512):
        s = cylinder_over_curve(circle_curve, (-1.0, 1.0), nu, 48, analytic=False)
        sa = cylinder_over_curve(circle_curve, (-1.0, 1.0), nu, 48, analytic=True)
        errs.append(abs(willmore_energy(s) - willmore_energy(sa)))
    order1 = np.log2(errs[0] / errs[1])
    order2 = np.log2(errs[1] / errs[2])
    assert order1 > 2.0 and order2 > 2.0


def test_quotient_seam_requires_callbacks(hopf_clifford):
    assert hopf_clifford.quotient_seam
    with pytest.raises(ValueError):
        # stripping callbacks makes position FD illegal on the seam chart
        ParamSurface(S3, hopf_clifford.grid, hopf_clifford.position, None,
                     conformal=True, quotient_seam=True)


def _roll_diff(v, h, order, axis):
    """Periodic 5-point stencil as a sum of shifted copies of v."""
    cw = ([1.0, -8.0, 0.0, 8.0, -1.0] if order == 1 else [-1.0, 16.0, -30.0, 16.0, -1.0])
    out = sum(c / 12.0 * np.roll(v, -k, axis=axis) for k, c in zip(range(-2, 3), cw))
    return out / h ** order


@pytest.mark.parametrize("shape", [(24, 19), (24, 19, 3)])
@pytest.mark.parametrize("order", [1, 2])
@pytest.mark.parametrize("axis", [0, 1])
def test_periodic_diff_matches_roll_reference(shape, order, axis):
    v = np.random.default_rng(3).normal(size=shape) * 5.0
    h = 0.07
    got = diff_uniform(v, h, order, True, axis=axis)
    assert got.shape == v.shape
    tol = 4 * np.finfo(float).eps * np.max(np.abs(v)) / h ** order
    assert np.max(np.abs(got - _roll_diff(v, h, order, axis))) <= tol


@pytest.mark.parametrize("order, degree", [(1, 4), (2, 5)])
@pytest.mark.parametrize("axis", [0, 1])
def test_open_diff_is_exact_on_polynomials(order, degree, axis):
    """On an open axis every node, the two at each end included, takes a
    stencil exact for polynomials of degree 4 (order 1) or 5 (order 2)."""
    rng = np.random.default_rng(degree + 10 * axis)
    h, x = 0.25, -1.3 + 0.25 * np.arange(12)
    p = np.polynomial.Polynomial(rng.uniform(-1.0, 1.0, degree + 1))
    w = rng.uniform(0.5, 2.0, 9)
    v, want = np.outer(p(x), w), np.outer(p.deriv(order)(x), w)
    if axis:
        v, want = v.T, want.T
    got = diff_uniform(v, h, order, False, axis=axis)
    assert np.max(np.abs(got - want)) <= 1e-10 * np.max(np.abs(want))


@pytest.mark.parametrize("periodic_u, periodic_v", [(True, True), (True, False),
                                                    (False, True), (False, False)])
def test_derivative_is_whole_chart_diff_uniform(periodic_u, periodic_v):
    """Without callbacks, derivative(k) has the bits of diff_uniform over the
    whole chart, f_uv as the v-difference of f_u, on either kind of axis."""
    g = Grid2D(40, 24, 2.0, 1.5, periodic_u, periodic_v)
    U, V = g.mesh()
    s = ParamSurface(R3, g, np.stack([np.cos(U) * (2 + np.sin(V)), np.sin(U) * V,
                                      np.exp(0.3 * U * V)], axis=-1))
    fu = diff_uniform(s.position, g.hu, 1, periodic_u, axis=0)
    want = {"fu": fu, "fv": diff_uniform(s.position, g.hv, 1, periodic_v, axis=1),
            "fuu": diff_uniform(s.position, g.hu, 2, periodic_u, axis=0),
            "fuv": diff_uniform(fu, g.hv, 1, periodic_v, axis=1),
            "fvv": diff_uniform(s.position, g.hv, 2, periodic_v, axis=1)}
    for k, arr in want.items():
        assert np.array_equal(s.derivative(k), arr), k
    with pytest.raises(ValueError):
        s.derivative("fuuu")


def test_cross3_matches_numpy():
    a, b = np.random.default_rng(4).normal(size=(2, 30, 20, 3))
    tol = 4 * np.finfo(float).eps * np.max(np.abs(a)) * np.max(np.abs(b))
    assert np.max(np.abs(_cross3(a, b) - np.cross(a, b))) <= tol


def test_cross4_matches_determinant():
    f, a, b, w = np.random.default_rng(5).normal(size=(4, 200, 4))
    xi = _cross4(f, a, b)
    rows = np.stack([f, a, b], axis=1)
    for i in range(4):
        e = np.zeros((200, 1, 4))
        e[..., i] = 1.0
        det = np.linalg.det(np.concatenate([rows, e], axis=1))
        assert np.max(np.abs(xi[:, i] - det)) < 1e-13 * np.max(np.abs(det))
    det_w = np.linalg.det(np.concatenate([rows, w[:, None, :]], axis=1))
    assert np.max(np.abs(np.einsum("ij,ij->i", xi, w) - det_w)) < 1e-12


def test_require_conformal_reuses_first_form(monkeypatch):
    s = homogeneous_torus(0.6, 0.8, 32, 32)
    want = _conformality_residual(*_first_form(s.derivative("fu"), s.derivative("fv")))
    s.fundamental_data()

    def formed_again(*args):
        raise AssertionError("first form or residual formed again")

    monkeypatch.setattr(geom_core, "_first_form", formed_again)
    monkeypatch.setattr(geom_core, "_conformality_residual", formed_again)
    s.require_conformal()
    assert s.conformality_residual() == want
    with pytest.raises(NotConformal, match="exceeds"):
        s.require_conformal(tol=0.0 if want > 0 else -1.0)


def test_conformality_residual_without_first_stage():
    grid = Grid2D(16, 16, 1.0, 1.0, False, False)
    U, V = grid.mesh()
    # fu parallel fv: the residual is read without the immersion gate
    s = ParamSurface(R3, grid, np.stack([U, U, 0.0 * V], axis=-1), conformal=True)
    want = _conformality_residual(*_first_form(s.derivative("fu"), s.derivative("fv")))
    assert s.conformality_residual() == want == 1.0
    with pytest.raises(NotConformal, match="exceeds"):
        s.require_conformal()
    with pytest.raises(DegenerateImmersion):
        s.fundamental_data()
    # a chart not flagged conformal still reports its residual
    s = ParamSurface(R3, grid, np.stack([U, 2.0 * V, 0.0 * U], axis=-1))
    assert abs(s.conformality_residual() - 0.75) < 1e-12
    with pytest.raises(NotConformal, match="not flagged"):
        s.require_conformal()


@pytest.mark.parametrize("blocks", [1, 4])
def test_conformality_residual_holds_no_field(monkeypatch, blocks):
    # a callback chart: the residual before any stage keeps no stage, and
    # equals the whole-chart value bit for bit
    if blocks > 1:
        monkeypatch.setattr(_stencils, "BLOCK_NODES", 1)
    s = surface_of_revolution(torus_profile(2.0, 0.7), nu=64, nv=48)
    assert {"fu", "fv"} <= set(s.callbacks)
    assert len(row_blocks(64, 48)) == blocks
    res = s.conformality_residual()
    assert not s._stage_cache and s._slab is None
    assert res == _conformality_residual(*_first_form(s.derivative("fu"), s.derivative("fv")))


def _node_major_reference(s):
    """g, II, A, A0, J and A0 J of s, each a C-order (nu, nv, 2, 2) array, from
    the derivatives and the unit normal, assembled node by node."""
    fu, fv, xi = s.derivative("fu"), s.derivative("fv"), s.fundamental_data().xi
    E, F, G = (np.einsum("ijk,ijk->ij", a, b) for a, b in ((fu, fu), (fu, fv), (fv, fv)))
    e, f, g2 = (np.einsum("ijk,ijk->ij", s.derivative(k), xi) for k in ("fuu", "fuv", "fvv"))
    W2 = E * G - F * F
    W = np.sqrt(W2)
    a, b, c = G / W2, F / W2, E / W2
    ref = {k: np.empty(E.shape + (2, 2)) for k in ("g", "II", "A", "J", "A0J")}
    ref["g"][..., 0, 0], ref["g"][..., 0, 1], ref["g"][..., 1, 0], ref["g"][..., 1, 1] = E, F, F, G
    ref["II"][..., 0, 0], ref["II"][..., 0, 1], ref["II"][..., 1, 0], ref["II"][..., 1, 1] = e, f, f, g2
    A = ref["A"]
    A[..., 0, 0], A[..., 0, 1] = a * e - b * f, a * f - b * g2
    A[..., 1, 0], A[..., 1, 1] = c * f - b * e, c * g2 - b * f
    H = 0.5 * (A[..., 0, 0] + A[..., 1, 1])
    A0 = ref["A0"] = A.copy()
    A0[..., 0, 0] -= H
    A0[..., 1, 1] -= H
    J = ref["J"]
    J[..., 0, 0], J[..., 0, 1], J[..., 1, 0], J[..., 1, 1] = -F / W, -G / W, E / W, F / W
    for i in (0, 1):
        for j in (0, 1):
            ref["A0J"][..., i, j] = A0[..., i, 0] * J[..., 0, j] + A0[..., i, 1] * J[..., 1, j]
    return ref


@pytest.mark.parametrize("name", ["revolution_torus", "homog_torus", "sphere_band",
                                  "hopf_latitude", "sheared_torus"])
def test_endo_fields_are_component_major(request, name):
    """Each [..., i, j] slice of the assembled 2x2 fields is C-contiguous and
    carries the bits of a node-major assembly."""
    s = request.getfixturevalue(name)
    fd = s.fundamental_data()
    got = {"g": fd.g, "II": fd.II, "A": fd.A, "A0": fd.A0, "J": fd.J, "A0J": _mul2(fd.A0, fd.J)}
    ref = _node_major_reference(s)
    for key, arr in got.items():
        assert arr.shape == ref[key].shape, key
        for i in (0, 1):
            for j in (0, 1):
                assert arr[..., i, j].flags.c_contiguous, (key, i, j)
        assert np.array_equal(arr, ref[key]), key
    assert np.array_equal(fd.H, 0.5 * (ref["A"][..., 0, 0] + ref["A"][..., 1, 1]))


@pytest.mark.parametrize("name", ["revolution_torus", "sphere_band", "torus96x32"])
def test_conformal_completion_reads_contiguous_a0(request, name):
    """The profile mean of A0_11 over a contiguous row has the bits of the
    mean over the node-major field."""
    from scipy.interpolate import CubicSpline

    from conwill.variations import conformal_completion_revolution

    s = (surface_of_revolution(torus_profile(2.0, 0.5), nu=96, nv=32) if name == "torus96x32"
         else request.getfixturevalue(name))
    x = s.grid.u_coords()
    uprof = np.exp(-4.0 * (x - x.mean()) ** 2)
    X = conformal_completion_revolution(s, np.repeat(uprof[:, None], s.grid.nv, axis=1)).X
    alpha = _node_major_reference(s)["A0"][..., 0, 0].mean(axis=1)
    psi = CubicSpline(x, 2.0 * uprof * alpha).antiderivative()(x)
    assert np.array_equal(X[..., 0], np.repeat(psi[:, None], s.grid.nv, axis=1))
    assert not np.any(X[..., 1])


FD_FIELDS = ("g", "II", "A", "A0", "H", "G", "xi", "dsigma", "J", "e2l")


def _positions_only_chart():
    """A revolution torus from its positions alone: 70 rows, which 16-row
    blocks do not divide."""
    s = surface_of_revolution(torus_profile(2.0, 0.6), nu=70, nv=40)
    return ParamSurface(R3, s.grid, s.position, conformal=True)


def _fresh(request, name):
    """A copy of a fixture chart with empty caches."""
    if name == "positions_only":
        return _positions_only_chart()
    s = request.getfixturevalue(name)
    return s.with_orientation(s.orientation)


def _chart_data(s):
    first, second = [tuple(a.copy() for a in _stages(s, stage)) for stage in ("first", "second")]
    fd = s.fundamental_data()
    return first, second, fd, s.conformality_residual()


@pytest.mark.parametrize("name", ["revolution_torus", "homog_torus", "sphere_band",
                                  "hopf_latitude", "sheared_torus", "positions_only"])
def test_blocked_pass_matches_one_block(request, monkeypatch, name):
    """Row blocks of 16 rows (three or more per chart) give every stage and
    field the bits of a one-block pass and of a node-major assembly."""
    monkeypatch.setattr(_stencils, "BLOCK_NODES", 1 << 30)
    one = _fresh(request, name)
    assert len(row_blocks(one.grid.nu, one.grid.nv)) == 1
    # one block, whole chart: fundamental data before any stage is asked for
    fd1 = one.fundamental_data()
    want = ([a.copy() for a in _stages(one, "first")],
            [a.copy() for a in _stages(one, "second")], fd1, one.conformality_residual())

    monkeypatch.setattr(_stencils, "BLOCK_NODES", 1)
    blocked = _fresh(request, name)
    bounds = row_blocks(blocked.grid.nu, blocked.grid.nv)
    assert len(bounds) >= 3 and bounds[0] == (0, blocked.grid.nu // len(bounds))
    # the stages in the order the functional values read them, then the rest
    got = _chart_data(blocked)
    for a, b in zip(got[0] + got[1], want[0] + want[1]):
        assert np.array_equal(a, b)
    for key in FD_FIELDS:
        assert np.array_equal(getattr(got[2], key), getattr(want[2], key)), key
    assert got[3] == want[3]
    ref = _node_major_reference(blocked)
    for key in ("g", "II", "A", "A0", "J"):
        assert np.array_equal(getattr(got[2], key), ref[key]), key


def test_fundamental_data_is_one_slab(revolution_torus):
    """Every field but xi is a view of one (25, nu, nv) slab, and the stages
    point into it."""
    s = revolution_torus.with_orientation(revolution_torus.orientation)
    fd = s.fundamental_data()
    slab = s._slab
    assert slab.shape == (geom_core.SLAB_ROWS, s.grid.nu, s.grid.nv)
    for key in FD_FIELDS:
        assert np.shares_memory(getattr(fd, key), slab) == (key != "xi"), key
    for arr in _stages(s, "first") + _stages(s, "second"):
        assert np.shares_memory(arr, slab)


def test_stages_fill_only_what_is_asked(revolution_torus):
    s = revolution_torus.with_orientation(revolution_torus.orientation)
    _stages(s, "first")
    assert set(s._stage_cache) == {"first"}
    _stages(s, "normal")
    assert set(s._stage_cache) == {"first", "normal"}
    xi = s._stage_cache["normal"]
    _stages(s, "second")
    assert s._stage_cache["normal"] is xi and s._fund is None
    first = s._stage_cache["first"]
    s.fundamental_data()
    assert s._stage_cache["first"] is first and s._fund.xi is xi


def _several_blocks(monkeypatch, pos_fn, conformal=False):
    """A 48 x 16 open chart in three blocks of 16 rows, from a position map of (U, V)."""
    monkeypatch.setattr(_stencils, "BLOCK_NODES", 1)
    grid = Grid2D(48, 16, 1.0, 1.0, False, False)
    assert len(row_blocks(grid.nu, grid.nv)) == 3
    U, V = grid.mesh()
    return ParamSurface(R3, grid, np.stack(pos_fn(U, V), axis=-1), conformal=conformal)


def test_degenerate_immersion_raises_on_several_blocks(monkeypatch):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        # fu parallel fv in every block, as in test_degenerate_immersion_raises
        s = _several_blocks(monkeypatch, lambda U, V: (U, U, 0.0 * V), conformal=True)
        with pytest.raises(DegenerateImmersion):
            s.fundamental_data()
        # the first block is one point: E = F = G = 0, and the conformality
        # ratio there is 0 / 0
        s = _several_blocks(monkeypatch, lambda U, V: (np.maximum(U - 0.5, 0.0),
                                                       np.maximum(U - 0.5, 0.0) * V, 0.0 * U),
                            conformal=True)
        with pytest.raises(DegenerateImmersion):
            s.fundamental_data()
        assert s._residual is None and not s._stage_cache and s._slab is None
        # only the last block folds
        s = _several_blocks(monkeypatch, lambda U, V: (U, np.where(U > 0.7, 0.0, V), 0.0 * U))
        with pytest.raises(DegenerateImmersion):
            s.fundamental_data()


def test_not_conformal_raises_on_several_blocks(monkeypatch):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        # as in test_not_conformal_raises
        s = _several_blocks(monkeypatch, lambda U, V: (U, 2.0 * V, 0.0 * U), conformal=True)
        with pytest.raises(NotConformal):
            s.fundamental_data()
        # only the last block is stretched
        s = _several_blocks(monkeypatch,
                            lambda U, V: (U, np.where(U > 0.7, 2.0, 1.0) * V, 0.0 * U),
                            conformal=True)
        with pytest.raises(NotConformal):
            s.fundamental_data()
        assert s._residual == _conformality_residual(
            *_first_form(s.derivative("fu"), s.derivative("fv")))
