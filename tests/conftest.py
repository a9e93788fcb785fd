"""Shared fixtures: stock surfaces at test resolutions, built once per session."""

import numpy as np
import pytest

from conwill.builders import (
    clifford_torus,
    cylinder_over_curve,
    homogeneous_torus,
    hopf_cylinder,
    sphere_profile,
    surface_of_revolution,
    torus_profile,
)
from conwill.curves import curve_from_parametric, integrate_curve
from conwill.geom_core import R3, Grid2D, ParamSurface


@pytest.fixture(scope="session")
def homog_torus():
    return homogeneous_torus(0.6, 0.8, 96, 96)


@pytest.fixture(scope="session")
def clifford():
    return clifford_torus(96, 96)


@pytest.fixture(scope="session")
def circle_curve():
    return integrate_curve(lambda s: 1.0, "Plane", (0.0, 2 * np.pi))


@pytest.fixture(scope="session")
def ellipse_curve():
    return curve_from_parametric(
        "Plane",
        lambda t: np.stack([2 * np.cos(t), np.sin(t)], axis=-1),
        lambda t: np.stack([-2 * np.sin(t), np.cos(t)], axis=-1),
        lambda t: np.stack([-2 * np.cos(t), -np.sin(t)], axis=-1),
        (0.0, 2 * np.pi),
    )


@pytest.fixture(scope="session")
def circle_cylinder(circle_curve):
    return cylinder_over_curve(circle_curve, (-2.0, 2.0), 128, 48)


@pytest.fixture(scope="session")
def ellipse_cylinder(ellipse_curve):
    return cylinder_over_curve(ellipse_curve, (-2.0, 2.0), 192, 48)


@pytest.fixture(scope="session")
def sphere_band():
    return surface_of_revolution(sphere_profile(1.0), x_span=(-2.5, 2.5), nu=160, nv=48)


@pytest.fixture(scope="session")
def revolution_torus():
    return surface_of_revolution(torus_profile(2.0, 0.5), nu=128, nv=96)


def sheared_torus_chart(n=64):
    """A torus chart with F != 0 and f != 0, finite-differenced."""
    grid = Grid2D(n, n, 2 * np.pi, 2 * np.pi)
    U, V = grid.mesh()
    th, ph = U + 0.3 * np.sin(V), V + 0.2 * np.cos(U)
    r = 2.0 + 0.5 * np.cos(th)
    return ParamSurface(R3, grid, np.stack([r * np.cos(ph), r * np.sin(ph), 0.5 * np.sin(th)], -1))


@pytest.fixture(scope="session")
def sheared_torus():
    return sheared_torus_chart()


@pytest.fixture(scope="session")
def latitude_curve():
    # geodesic curvature 1 circle on S^2: colatitude pi/4, length 2 pi sin(pi/4)
    return integrate_curve(lambda s: 1.0, "Sphere2", (0.0, np.pi * np.sqrt(2.0)))


@pytest.fixture(scope="session")
def hopf_latitude(latitude_curve):
    return hopf_cylinder(latitude_curve, 128, 16)


@pytest.fixture(scope="session")
def great_circle_curve():
    return integrate_curve(lambda s: 0.0, "Sphere2", (0.0, 2 * np.pi))


@pytest.fixture(scope="session")
def hopf_clifford(great_circle_curve):
    return hopf_cylinder(great_circle_curve, 128, 16)


@pytest.fixture(scope="session")
def random_closed_spherical_curve():
    """Randomized non-symmetric closed curve near the latitude circle."""
    rng = np.random.default_rng(42)
    eps = rng.uniform(0.05, 0.12, 3)
    ph = rng.uniform(0, 2 * np.pi, 3)

    def theta(t):
        return (np.pi / 4 + eps[0] * np.cos(2 * t + ph[0])
                + eps[1] * np.cos(3 * t + ph[1]) + eps[2] * np.sin(5 * t + ph[2]))

    def dtheta(t):
        return (-2 * eps[0] * np.sin(2 * t + ph[0])
                - 3 * eps[1] * np.sin(3 * t + ph[1]) + 5 * eps[2] * np.cos(5 * t + ph[2]))

    def d2theta(t):
        return (-4 * eps[0] * np.cos(2 * t + ph[0])
                - 9 * eps[1] * np.cos(3 * t + ph[1]) - 25 * eps[2] * np.sin(5 * t + ph[2]))

    def gam(t):
        th = theta(t)
        return np.stack([np.sin(th) * np.cos(t), np.sin(th) * np.sin(t), np.cos(th)], axis=-1)

    def dgam(t):
        th, dth = theta(t), dtheta(t)
        return np.stack([
            np.cos(th) * dth * np.cos(t) - np.sin(th) * np.sin(t),
            np.cos(th) * dth * np.sin(t) + np.sin(th) * np.cos(t),
            -np.sin(th) * dth,
        ], axis=-1)

    def d2gam(t):
        th, dth, d2th = theta(t), dtheta(t), d2theta(t)
        radial = -np.sin(th) * dth ** 2 + np.cos(th) * d2th
        return np.stack([
            radial * np.cos(t) - 2 * np.cos(th) * dth * np.sin(t) - np.sin(th) * np.cos(t),
            radial * np.sin(t) + 2 * np.cos(th) * dth * np.cos(t) - np.sin(th) * np.sin(t),
            -np.cos(th) * dth ** 2 - np.sin(th) * d2th,
        ], axis=-1)

    return curve_from_parametric("Sphere2", gam, dgam, d2gam, (0.0, 2 * np.pi))


@pytest.fixture(scope="session")
def random_hopf_torus(random_closed_spherical_curve):
    """Hopf torus over the randomized curve: not strongly isothermic, full-rank delta_star image."""
    return hopf_cylinder(random_closed_spherical_curve, 192, 16)


@pytest.fixture(scope="session")
def burstall_band():
    """Cylinder over a bounded piece of the linearly-forced elastic curve."""
    from conwill.curves import burstall_ode

    sol = burstall_ode(0.2, 0.02, 1.0, 0.0, (0.0, 30.0))
    curve = integrate_curve(sol.as_callable(), "Plane", (0.0, 30.0))
    return cylinder_over_curve(curve, (-2.0, 2.0), 256, 48)


@pytest.fixture(scope="session")
def closed_elastica():
    """One shot non-circular closed elastic curve (4 lobes, a=0.2, b=0.4)."""
    from conwill.curves import shoot_closed_elastica

    found = shoot_closed_elastica([0.2], [0.4], targets=[(1, 4)],
                                  include_circles=False, max_results=1)
    return found[0]


@pytest.fixture(scope="session")
def shot_elastica_13():
    """The closed elastic curve with 3 lobes and winding 1 at a = 1.0, b = 0.5."""
    from conwill.curves import shoot_closed_elastica

    found = shoot_closed_elastica([1.0], [0.5], targets=[(1, 3)], kappa0_bracket=(1.6, 2.0),
                                  n_scan=3, include_circles=False, h=1e-3, max_results=1)
    return found[0]
