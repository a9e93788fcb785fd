"""conwill: conformally constrained variational geometry on structured grids.

Surfaces in R^3 and S^3 with conformal charts, the functionals Area /
enclosed Volume / Willmore with their gradient 2-forms, quadratic
differentials and the conformal-structure operators, and least-squares
certification of constrained criticality via a holomorphic Lagrange
multiplier.
"""

from .errors import ConwillError
from .geom_core import (
    R3,
    S3,
    FundamentalData,
    Grid2D,
    ParamSurface,
    SpaceForm,
    fundamental_data,
    integrate_2form,
    laplace_beltrami,
)
from .conformal_ops import (
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
from .functionals import (
    AREA,
    VOLUME,
    WILLMORE,
    area,
    enclosed_volume,
    gradient,
    willmore_energy,
)
from .multiplier import (
    Certificate,
    certify_constrained_willmore,
    cmc_multiplier,
    solve_multiplier,
)
from .variations import (
    Variation,
    conformal_completion_revolution,
    conformality_residual,
    deform,
    fd_functional_derivative,
    jdot_fd_check,
    jdot_normal,
    metric_dot,
    prepare_deformations,
)
from .curves import (
    CurvatureCurve,
    burstall_ode,
    curve_from_parametric,
    elastica_ode,
    integrate_curve,
    shoot_closed_elastica,
)
from .builders import (
    clifford_torus,
    disc_profile,
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

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
