"""Builder conventions: Weingarten forms, chart lattices, cross-checks."""

import warnings

import numpy as np
import pytest

from conwill.builders import (
    cylinder_over_curve,
    homogeneous_torus,
    hopf_cylinder,
    line_profile,
    numeric_profile,
    plane_patch,
    sphere_profile,
    surface_of_revolution,
    torus_profile,
)
from conwill.curves import CurvatureCurve, integrate_curve
from conwill.errors import (AxisContact, BadRadii, GridMismatch, NotArcLength, StepTooLarge,
                            WrongSpaceForm)
from conwill.functionals import area, willmore_energy
from conwill.geom_core import R3, Grid2D, ParamSurface


def test_cylinder_weingarten(ellipse_cylinder, ellipse_curve):
    fd = ellipse_cylinder.fundamental_data()
    u = ellipse_cylinder.grid.u_coords()
    kappa = ellipse_curve.kappa_at(u)
    assert np.max(np.abs(fd.A[..., 0, 0] + kappa[:, None])) < 1e-6
    assert np.max(np.abs(fd.A[..., 0, 1])) < 1e-6
    assert np.max(np.abs(fd.A[..., 1, 1])) < 1e-6
    assert np.max(np.abs(fd.H + 0.5 * kappa[:, None])) < 1e-6


def test_cylinder_straight_line_is_plane():
    line = integrate_curve(lambda s: 0.0, "Plane", (0.0, 4.0))
    s = cylinder_over_curve(line, (-1.0, 1.0), 64, 32)
    fd = s.fundamental_data()
    assert np.max(np.abs(fd.A)) < 1e-12


def test_cylinder_rejects_sphere_curve(latitude_curve):
    with pytest.raises(WrongSpaceForm):
        cylinder_over_curve(latitude_curve, (-1.0, 1.0))


def test_hopf_weingarten(hopf_latitude):
    fd = hopf_latitude.fundamental_data()
    kappa = 1.0
    expect = np.array([[-2 * kappa, -1.0], [-1.0, 0.0]])
    assert np.max(np.abs(fd.A - expect)) < 1e-5
    assert np.max(np.abs(fd.H + kappa)) < 1e-5


def test_hopf_latitude_matches_homogeneous(hopf_latitude):
    # preimage of the latitude circle is congruent to the product torus with
    # r1^2 = (1 + cos(pi/4))/2
    z0 = np.cos(np.pi / 4)
    r1 = np.sqrt((1 + z0) / 2)
    r2 = np.sqrt((1 - z0) / 2)
    ref = homogeneous_torus(r1, r2, 64, 64)
    fd_h = hopf_latitude.fundamental_data()
    fd_r = ref.fundamental_data()
    # congruent surfaces share the pointwise curvature invariants (the
    # integrated circle sits tilted on S^2, so positions differ by a rotation)
    assert np.max(np.abs(fd_h.H - float(fd_r.H[0, 0]))) < 1e-6
    assert np.max(np.abs(fd_h.G - float(fd_r.G[0, 0]))) < 1e-6


def test_hopf_fibers_are_great_circles(hopf_clifford):
    # v-coordinate curves: |f| = 1 and closure after 2 pi
    pos = hopf_clifford.position
    assert np.max(np.abs(np.linalg.norm(pos, axis=-1) - 1.0)) < 1e-10
    cbs = hopf_clifford.callbacks
    U, V = hopf_clifford.grid.mesh()
    f0 = cbs["f"](U, V)
    f1 = cbs["f"](U, V + 2 * np.pi)
    assert np.max(np.abs(f1 - f0)) < 1e-7


def test_clifford_lattice(hopf_clifford):
    # chart lattice of the great-circle torus: fiber period 2 pi, and one
    # curve period (length L = 2 pi, so x-advance L/2) shifts the fiber by
    # half the enclosed hemisphere area, A/2 = pi
    md = hopf_clifford.metadata
    assert abs(md["curve_length"] - 2 * np.pi) < 1e-9
    shift = abs(md["fiber_shift"]) % (2 * np.pi)
    assert abs(shift - np.pi) < 1e-7
    assert md["seam_gap"] < 1e-9


def test_latitude_lattice_shift_is_half_cap_area(hopf_latitude):
    cap_area = 2 * np.pi * (1 - np.cos(np.pi / 4))
    shift = abs(hopf_latitude.metadata["fiber_shift"]) % (2 * np.pi)
    assert abs(shift - cap_area / 2) < 1e-6


def test_homogeneous_examples():
    cliff = homogeneous_torus(1 / np.sqrt(2), 1 / np.sqrt(2), 64, 64)
    assert np.max(np.abs(cliff.fundamental_data().H)) < 1e-12
    s = homogeneous_torus(0.6, 0.8, 64, 64)
    fd = s.fundamental_data()
    assert np.allclose(fd.H, 7.0 / 24.0, atol=1e-12)
    assert np.allclose(fd.G, -1.0, atol=1e-12)
    with pytest.raises(BadRadii):
        homogeneous_torus(0.6, 0.7)
    with pytest.raises(BadRadii):
        homogeneous_torus(-0.6, 0.8)


def test_builder_conformality_invariant(homog_torus, circle_cylinder, hopf_latitude,
                                        sphere_band, revolution_torus):
    for s in (homog_torus, circle_cylinder, hopf_latitude, sphere_band, revolution_torus):
        assert s.conformality_residual() < 1e-8


def test_revolution_line_is_cylinder():
    s = surface_of_revolution(line_profile(1.0), x_span=(-2.0, 2.0), nu=64, nv=64)
    fd = s.fundamental_data()
    assert s.conformality_residual() < 1e-12
    assert np.max(np.abs(np.abs(fd.H) - 0.5)) < 1e-12


def test_revolution_sphere_band(sphere_band):
    assert sphere_band.conformality_residual() < 1e-7
    fd = sphere_band.fundamental_data()
    assert np.max(np.abs(fd.H ** 2 - fd.G)) < 1e-10  # umbilic
    r = np.linalg.norm(sphere_band.position - np.array([0, 0, 0]), axis=-1)
    assert np.max(np.abs(r - 1.0)) < 1e-12


def test_revolution_torus_closed(revolution_torus):
    g = revolution_torus.grid
    assert g.periodic_u and g.periodic_v
    assert abs(area(revolution_torus) - 4 * np.pi ** 2) < 1e-9


def test_numeric_profile_matches_closed_form():
    # sample the exact torus meridian and rebuild it numerically
    phi = np.linspace(0.0, 2 * np.pi, 4001)
    h_vals = 0.5 * np.sin(phi)
    rho_vals = 2.0 + 0.5 * np.cos(phi)
    prof = numeric_profile(phi, h_vals, rho_vals)
    exact = torus_profile(2.0, 0.5)
    x = np.linspace(0.1, 1.2, 7)
    assert np.max(np.abs(prof.rho(x) - exact.rho(x))) < 1e-8
    assert np.max(np.abs(prof.h(x) - exact.h(x))) < 1e-8


def test_axis_contact_raises():
    with pytest.raises(AxisContact):
        torus_profile(1.0, 1.0)
    phi = np.linspace(0, 2 * np.pi, 101)
    with pytest.raises(AxisContact):
        numeric_profile(phi, np.sin(phi), 1.0 + np.cos(phi))


def test_lift_drift_guard(latitude_curve):
    from conwill.errors import LiftDrift

    with pytest.raises(LiftDrift):
        hopf_cylinder(latitude_curve, 32, 16, lift_tol=1e-30)


def test_lift_drift_flags_curvature_off_its_curve(latitude_curve):
    # kappa samples 1% off the positions: the lift follows kappa and leaves
    # the curve (the seam gap reads 1.1e-2), and the lift defect, measured
    # against curve.position_at, sees it at the default lift_tol
    from dataclasses import replace

    from conwill.errors import LiftDrift

    off = replace(latitude_curve, kappa=1.01 * latitude_curve.kappa, _splines={})
    with pytest.raises(LiftDrift):
        hopf_cylinder(off, 32, 16)


def test_frame_step_too_large():
    from conwill.errors import StepTooLarge

    # curvature far beyond what the mandated fixed step resolves: the step
    # quaternions grow by about 21 per step and overflow, and the
    # overflowing quaternions must not leak floating-point warnings
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(StepTooLarge):
            integrate_curve(lambda s: 1e4, "Sphere2", (0.0, 10.0), n_samples=33)


def test_hopf_lift_pinned(shot_elastica_13):
    # the Hopf torus over a shot 3-lobed elastica; the Willmore energy as
    # recorded before the blocked lift
    s = hopf_cylinder(shot_elastica_13.curve, 256, 32)
    assert s.metadata["seam_gap"] <= 1e-9
    assert s.metadata["lift_defect"] <= 1e-9
    assert willmore_energy(s) == pytest.approx(118.37349831901972, rel=1e-8, abs=0.0)


def _arc(kappa, length, n=65):
    """Arc-length samples of the circle on S^2 with geodesic curvature kappa."""
    r, c = 1 / np.sqrt(1 + kappa * kappa), kappa / np.sqrt(1 + kappa * kappa)
    s = np.linspace(0.0, length, n)
    cs, sn, one = np.cos(s / r), np.sin(s / r), np.ones_like(s)
    pos = np.stack([r * cs, r * sn, c * one], axis=-1)
    tan = np.stack([-sn, cs, np.zeros_like(s)], axis=-1)
    return CurvatureCurve("Sphere2", s, kappa * one, pos, tan, np.cross(pos, tan))


@pytest.mark.parametrize("kappa", [150.0, 1000.0])
def test_hopf_lift_rejects_frame_drift(kappa):
    # the lift's quaternions pass the drift check of integrate_curve: at
    # kappa 150 and 1000 the mandated step leaves | |u|^4 - 1 | at 2.3e-6
    # and 0.18 (|u|^2 - 1 at 1.1e-6 and 0.093), which integrate_curve
    # refuses too; kappa 100 reads 2.0e-7 and passes
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(StepTooLarge):
            integrate_curve(lambda s: kappa, "Sphere2", (0.0, 6.0), n_samples=65)
        with pytest.raises(StepTooLarge):
            hopf_cylinder(_arc(kappa, 6.0), 64, 8)


def _stepwise_lift(curve, nu, q0):
    """Plain per-step RK4 of the frame and its horizontal lift on the step
    grid of hopf_cylinder: F' = F K(kappa) and q' = Dpi(q)^T t / 4 for the
    fibration map pi and the tangent t = F[:, 1]. Returns q and F at the nodes."""
    L = curve.length if curve.closed else float(curve.s[-1] - curve.s[0])
    s0 = float(curve.s[0])
    ds = L / nu
    m = max(1, int(np.ceil(ds / min(1e-3, L / 1e4))))
    h = ds / m
    kh = curve.kappa_at(s0 + 0.5 * h * np.arange(2 * nu * m + 1))
    p0, t0 = curve.position_at(s0), curve.tangent_at(s0)

    def rhs(F, q, k):
        a1, b1, a2, b2 = q
        dpi = 2 * np.array([[a2, b2, a1, b1], [-b2, a2, b1, -a1], [a1, b1, -a2, -b2]])
        K = np.array([[0.0, -1.0, 0.0], [1.0, 0.0, -k], [0.0, k, 0.0]])
        return F @ K, dpi.T @ F[:, 1] / 4

    F, q = np.stack([p0, t0, np.cross(p0, t0)], axis=-1), q0
    out, frames = [q], [F]
    for i in range(nu * m):
        k1, k2, k4 = kh[2 * i:2 * i + 3]
        a = rhs(F, q, k1)
        b = rhs(F + h / 2 * a[0], q + h / 2 * a[1], k2)
        c = rhs(F + h / 2 * b[0], q + h / 2 * b[1], k2)
        d = rhs(F + h * c[0], q + h * c[1], k4)
        F = F + h / 6 * (a[0] + 2 * b[0] + 2 * c[0] + d[0])
        q = q + h / 6 * (a[1] + 2 * b[1] + 2 * c[1] + d[1])
        if (i + 1) % m == 0:
            out.append(q)
            frames.append(F)
    out = np.array(out)
    return out / np.linalg.norm(out, axis=-1, keepdims=True), np.array(frames)


def _fib_jac(w):
    """Matrices J(w), shape (..., 4, 4), with J(w) q = M(q)^T w for the
    differential M(q) of the fibration map (2 z1 conj(z2), |z1|^2 - |z2|^2),
    q = (Re z1, Im z1, Re z2, Im z2). J(w) is symmetric and linear in w."""
    w0, w1, w2 = 2 * w[..., 0], 2 * w[..., 1], 2 * w[..., 2]
    J = np.zeros(w.shape[:-1] + (4, 4))
    J[..., 0, 0] = J[..., 1, 1] = w2
    J[..., 2, 2] = J[..., 3, 3] = -w2
    J[..., 0, 2] = J[..., 2, 0] = J[..., 1, 3] = J[..., 3, 1] = w0
    J[..., 1, 2] = J[..., 2, 1] = w1
    J[..., 0, 3] = J[..., 3, 0] = -w1
    return J


@pytest.mark.parametrize("name", ["shot_elastica_13", "arc"])
def test_hopf_lift_derivatives_match_fibration_jacobian(request, name):
    # the closed-form lift derivatives q_x = e^{-i Phi/2} U (i sigma_z r) and
    # q_xx = -q - 2 i kappa q_x against the horizontal-lift equation
    # q_x = J(t) q / 2 (x = s/2) and its x-derivative
    # q_xx = J(t) q_x / 2 + J(t') q, t' = -p + kappa n, on frames of per-step RK4
    if name == "arc":
        curve = integrate_curve(lambda s: 0.5 + 0.3 * np.sin(s), "Sphere2", (0.0, 3.0))
    else:
        curve = request.getfixturevalue(name).curve
    nu = 8
    s = hopf_cylinder(curve, nu, 8)
    U = s.grid.u0 + s.grid.hu * np.arange(nu + 1)
    q, qx, qxx = (s.callbacks[k](U, np.zeros_like(U)) for k in ("f", "fu", "fuu"))
    F = _stepwise_lift(curve, nu, q[0])[1]
    p = F[..., 0] / np.linalg.norm(F[..., 0], axis=-1, keepdims=True)
    t = F[..., 1] - np.sum(F[..., 1] * p, axis=-1, keepdims=True) * p
    t /= np.linalg.norm(t, axis=-1, keepdims=True)
    kap = curve.kappa_at(2 * U)[:, None]
    ref_x = 0.5 * np.einsum("nij,nj->ni", _fib_jac(t), q)
    ref_xx = (0.5 * np.einsum("nij,nj->ni", _fib_jac(t), ref_x)
              + np.einsum("nij,nj->ni", _fib_jac(-p + kap * np.cross(p, t)), q))
    assert np.max(np.abs(qx - ref_x)) <= 1e-11
    assert np.max(np.abs(qxx - ref_xx)) <= 1e-11


@pytest.mark.parametrize("nu", [8, 256])
@pytest.mark.parametrize("name", ["shot_elastica_13", "random_closed_spherical_curve",
                                  "latitude_curve", "arc"])
def test_hopf_lift_matches_stepwise_rk4(request, name, nu):
    # the closed-form lift against RK4 of the joint (frame, lift) system;
    # at nu = 8 the elastica's nodes are 1.74 apart
    if name == "arc":
        curve = integrate_curve(lambda s: 0.5 + 0.3 * np.sin(s), "Sphere2", (0.0, 3.0))
    else:
        curve = request.getfixturevalue(name)
        if name == "shot_elastica_13":
            curve = curve.curve
    s = hopf_cylinder(curve, nu, 8)
    U = s.grid.u0 + s.grid.hu * np.arange(nu + 1)
    lift = s.callbacks["f"](U, np.zeros_like(U))
    assert np.max(np.abs(lift - _stepwise_lift(curve, nu, lift[0])[0])) <= 1e-11


@pytest.mark.parametrize("name", ["shot_elastica_13", "random_closed_spherical_curve"])
def test_hopf_lattice_shift_is_half_enclosed_area(request, name):
    # Pinkall's lattice: one curve period shifts the fiber by half the
    # enclosed area A, and by Gauss-Bonnet A = 2 pi - int kappa ds
    curve = request.getfixturevalue(name)
    if name == "shot_elastica_13":
        curve = curve.curve
    shift = hopf_cylinder(curve, 128, 8).metadata["fiber_shift"]
    total = float(np.sum(curve.kappa)) * curve.ds
    err = np.mod(shift + np.pi - 0.5 * total, 2 * np.pi)
    assert min(err, 2 * np.pi - err) <= 1e-10


@pytest.mark.parametrize("p0", [(0.0, 0.0, -1.0), (0.0, 1e-7, -1.0)])
def test_hopf_lift_starts_at_the_south_pole(p0):
    # the lift's start does not depend on where the curve starts: a latitude
    # started at or next to the south pole gives the torus of the one
    # started at the north pole
    length = 2 * np.pi / np.sqrt(1.25)
    north = hopf_cylinder(integrate_curve(lambda s: 0.5, "Sphere2", (0.0, length)), 64, 16)
    curve = integrate_curve(lambda s: 0.5, "Sphere2", (0.0, length), p0=p0)
    s = hopf_cylinder(curve, 64, 16)
    assert s.metadata["lift_defect"] <= 1e-12
    assert s.metadata["seam_gap"] <= 1e-12
    w = willmore_energy(north)
    assert willmore_energy(s) == pytest.approx(w, rel=1e-12, abs=0.0)


def test_hopf_lift_of_open_arc_from_the_south_pole():
    curve = integrate_curve(lambda s: 0.5 + 0.3 * np.sin(s), "Sphere2", (0.0, 3.0),
                            p0=(0.0, 0.0, -1.0))
    assert hopf_cylinder(curve, 48, 16).metadata["lift_defect"] <= 1e-12


def test_hopf_callbacks_refuse_off_grid(hopf_latitude):
    # the lift is known at the grid nodes only; other arguments raise
    U, V = hopf_latitude.grid.mesh()
    for name, cb in hopf_latitude.callbacks.items():
        assert cb(U, V).shape == U.shape + (4,)
        with pytest.raises(GridMismatch):
            cb(U + 0.3 * hopf_latitude.grid.hu, V)
    with pytest.raises(GridMismatch):
        hopf_latitude.callbacks["f"](U - hopf_latitude.grid.hu, V)


@pytest.fixture(scope="module")
def hopf_open_arc():
    curve = integrate_curve(lambda s: 0.5 + 0.3 * np.sin(s), "Sphere2", (0.0, 3.0))
    return hopf_cylinder(curve, 48, 16)


@pytest.mark.parametrize("name", ["plane", "homog_torus", "ellipse_cylinder", "revolution_torus",
                                  "sphere_band", "hopf_latitude", "hopf_open_arc"])
def test_callbacks_on_dense_mesh_match_open_mesh(request, name):
    """Derivatives come from callbacks on the open mesh; on the dense mesh the
    same callbacks give the same bits, for the position too."""
    s = plane_patch(2.0, 1.5, 40, 32) if name == "plane" else request.getfixturevalue(name)
    assert s.has_analytic_derivatives
    U, V = s.grid.mesh()
    assert np.array_equal(s.callbacks["f"](U, V), s.position)
    for k in ("fu", "fv", "fuu", "fuv", "fvv"):
        assert np.array_equal(s.callbacks[k](U, V), s.derivative(k)), k


def test_callback_that_does_not_broadcast_raises():
    grid = Grid2D(16, 12, 1.0, 1.0, False, False)
    U, V = grid.mesh()
    pos = np.stack([U, V, 0.0 * U], axis=-1)
    seen = []

    def fu(U, V):
        seen.append((U.shape, V.shape))
        out = np.zeros(U.shape + (3,))  # sized by U alone: (nu, 1, 3)
        out[..., 0] = 1.0
        return out

    s = ParamSurface(R3, grid, pos, {"fu": fu})
    with pytest.raises(GridMismatch):
        s.derivative("fu")
    assert seen == [((16, 1), (1, 12))]
    assert "fu" not in s._deriv_cache


def test_not_arclength_raises(ellipse_curve):
    bad = ellipse_curve
    scaled = type(bad)(bad.ambient, bad.s, bad.kappa, bad.position, 2.0 * bad.tangent,
                       None, bad.closed, bad.closure_gap)
    with pytest.raises(NotArcLength):
        cylinder_over_curve(scaled, (-1.0, 1.0))


def test_burstall_cylinder_downstream(burstall_band):
    # strongly isothermic, and constrained-Willmore certified with the
    # degree-1 polynomial basis (see test_multiplier for the coefficients)
    from conwill.conformal_ops import is_strongly_isothermic, make_qd_basis

    res = is_strongly_isothermic(burstall_band, make_qd_basis(burstall_band))
    assert res.is_strongly_isothermic
    w = willmore_energy(burstall_band)
    assert w > 0.1
