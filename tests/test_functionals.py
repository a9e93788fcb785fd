"""Area, Willmore energy, enclosed volume, gradient 2-forms."""

import numpy as np
import pytest

from conwill.builders import (
    plane_patch,
    sphere_profile,
    surface_of_revolution,
    torus_profile,
)
from conwill.errors import DegenerateImmersion, NotClosed, WrongSpaceForm
from conwill.functionals import (
    AREA,
    VOLUME,
    WILLMORE,
    area,
    enclosed_volume,
    gradient,
    is_closed_surface,
    value,
    willmore_energy,
)
from conwill.geom_core import R3, Grid2D, ParamSurface, integrate_2form
from conwill.variations import deform


def test_area_values(homog_torus, clifford):
    assert abs(area(homog_torus) - 4 * np.pi ** 2 * 0.48) < 1e-10
    assert abs(area(clifford) - 2 * np.pi ** 2) < 1e-10


def test_area_unit_patch():
    s = plane_patch(1.0, 1.0, 256, 256)
    # open-chart quadrature trims the margin band
    trimmed = ((256 - 5) / 256.0) ** 2
    assert abs(area(s) - trimmed) < 1e-12


def test_willmore_values(homog_torus, clifford):
    assert abs(willmore_energy(clifford) - 2 * np.pi ** 2) < 1e-10
    expect = 4 * np.pi ** 2 * 0.48 * (1 + (7.0 / 24.0) ** 2)
    assert abs(willmore_energy(homog_torus) - expect) < 1e-10


def test_willmore_flat_patch_zero():
    assert willmore_energy(plane_patch(1.0, 1.0, 32, 32)) == 0.0


def test_gradient_round_sphere_willmore_zero(sphere_band):
    gw = gradient(sphere_band, WILLMORE)
    fd = sphere_band.fundamental_data()
    assert np.max(np.abs(gw)) < 1e-7 * float(np.max(fd.dsigma))


def test_gradient_cylinder_area(circle_cylinder):
    fd = circle_cylinder.fundamental_data()
    ga = gradient(circle_cylinder, AREA)
    # grad(Area) = -2 H dsigma = kappa dsigma on a cylinder
    assert np.max(np.abs(ga - 1.0 * fd.dsigma)) < 1e-10


def test_gradient_cmc_willmore(homog_torus):
    fd = homog_torus.fundamental_data()
    gw = gradient(homog_torus, WILLMORE)
    expect = 2.0 * fd.H * (fd.H ** 2 - fd.G) * fd.dsigma
    assert np.max(np.abs(gw - expect)) < 1e-9


def test_gradient_volume_form(homog_torus):
    fd = homog_torus.fundamental_data()
    assert np.allclose(gradient(homog_torus, VOLUME), fd.dsigma)


def test_enclosed_volume_sphere():
    s = surface_of_revolution(sphere_profile(1.0), x_span=(-7.0, 7.0), nu=384, nv=64)
    assert is_closed_surface(s)
    assert abs(enclosed_volume(s) - 4 * np.pi / 3) < 1e-4


def test_enclosed_volume_torus(revolution_torus):
    v = enclosed_volume(revolution_torus)
    assert abs(v - 2 * np.pi ** 2 * 2.0 * 0.25) < 1e-4


def test_enclosed_volume_orientation(revolution_torus):
    flipped = revolution_torus.with_orientation(-revolution_torus.orientation)
    assert np.isclose(enclosed_volume(flipped), -enclosed_volume(revolution_torus))


def test_enclosed_volume_errors(homog_torus, sphere_band):
    with pytest.raises(WrongSpaceForm):
        enclosed_volume(homog_torus)
    with pytest.raises(NotClosed):
        enclosed_volume(sphere_band)  # band ends are wide open


def test_willmore_hopf_bound(hopf_clifford, hopf_latitude):
    # Willmore energies of fibration tori are >= 2 pi^2, equality at the
    # great circle
    w_cliff = willmore_energy(hopf_clifford)
    w_lat = willmore_energy(hopf_latitude)
    assert abs(w_cliff - 2 * np.pi ** 2) < 1e-4
    assert w_lat > 2 * np.pi ** 2


def test_line_energy_identity_latitude(hopf_latitude, latitude_curve):
    # W = pi int (kappa^2 + 1) ds for fibration tori
    w = willmore_energy(hopf_latitude)
    ds = latitude_curve.length / len(latitude_curve.s)
    line = np.pi * float(np.sum((latitude_curve.kappa ** 2 + 1.0)) * ds)
    assert abs(w - line) < 1e-5 * w


def _fresh(s):
    """The same chart with empty caches."""
    return s.with_orientation(s.orientation)


def _bump(s):
    U, V = s.grid.mesh()
    return 0.2 * (1.0 + np.cos(2 * np.pi * U / s.grid.Lu) + np.sin(2 * np.pi * V / s.grid.Lv))


def test_values_match_fundamental_data_integrals(revolution_torus, homog_torus, sphere_band,
                                                  hopf_latitude, sheared_torus):
    """The staged value path agrees with integrals of the full per-node fields."""
    charts = [revolution_torus, homog_torus, sphere_band, hopf_latitude, sheared_torus,
              plane_patch(2.0, 1.5, 40, 32),
              deform(revolution_torus, _bump(revolution_torus), 1e-3),
              deform(homog_torus, _bump(homog_torus), 1e-3)]
    volumes = 0
    for s in charts:
        got = {AREA: area(_fresh(s)), WILLMORE: willmore_energy(_fresh(s))}
        fd = s.fundamental_data()
        H = 0.5 * np.trace(fd.A, axis1=-2, axis2=-1)
        kbar = s.space_form.sectional_curvature
        want = {AREA: integrate_2form(s, fd.dsigma),
                WILLMORE: integrate_2form(s, (H ** 2 + kbar) * fd.dsigma)}
        if s.space_form.kind == "Euclidean3" and is_closed_surface(s):
            got[VOLUME] = enclosed_volume(_fresh(s))
            want[VOLUME] = integrate_2form(
                s, np.einsum("ijk,ijk->ij", s.position, fd.xi) * fd.dsigma) / 3.0
            volumes += 1
        for kind, w in want.items():
            assert abs(got[kind] - w) <= 1e-14 * max(abs(w), 1e-300), (s.metadata, kind)
    assert volumes == 3  # the revolution torus, its deformation and the sheared torus


def test_value_reads_only_the_stages_it_needs(revolution_torus):
    d = deform(revolution_torus, _bump(revolution_torus), 1e-3)
    area(d)
    assert set(d._stage_cache) == {"first"}
    enclosed_volume(d)
    assert set(d._stage_cache) == {"first", "normal"}
    for kind in (AREA, VOLUME, WILLMORE):
        value(d, kind)
    assert d._fund is None


def test_value_raises_on_degenerate_chart():
    grid = Grid2D(16, 16, 1.0, 1.0, False, False)
    U, V = grid.mesh()
    s = ParamSurface(R3, grid, np.stack([U, U, V * 0.0], axis=-1))  # fu parallel fv
    for kind in (AREA, WILLMORE):
        with pytest.raises(DegenerateImmersion):
            value(s, kind)
