"""Exception hierarchy for the conwill package."""


class ConwillError(Exception):
    """Base class for all conwill errors."""


class GridMismatch(ConwillError):
    """A field's shape does not match the surface grid."""


class DegenerateImmersion(ConwillError):
    """Coordinate tangent vectors are (nearly) collinear at some node."""


class NotConformal(ConwillError):
    """An operation requiring a conformal chart got a non-conformal one."""


class NotAnticommuting(ConwillError):
    """An endomorphism field expected to anticommute with J does not."""


class EmptyBasis(ConwillError):
    """A nonempty quadratic-differential basis is required."""


class SingularBasis(ConwillError):
    """Quadratic-differential basis is numerically linearly dependent."""


class NonHolomorphicBasis(ConwillError):
    """A basis element fails the holomorphicity residual check."""


class NotCMC(ConwillError):
    """Mean curvature is not constant within tolerance."""


class NotClosed(ConwillError):
    """Operation requires a closed surface."""


class WrongSpaceForm(ConwillError):
    """Operation is only defined for a different ambient space form."""


class NotArcLength(ConwillError):
    """Curve is not parametrized by arc length."""


class LiftDrift(ConwillError):
    """Horizontal lift violated horizontality beyond tolerance."""


class BadRadii(ConwillError):
    """Torus radii do not satisfy r1^2 + r2^2 = 1 with r1, r2 > 0."""


class AxisContact(ConwillError):
    """Profile curve touches the axis of rotation."""


class NotRotationallySymmetric(ConwillError):
    """Field or surface lacks the required rotational symmetry."""


class StepTooLarge(ConwillError):
    """Integrator frame drift exceeded tolerance."""


class BlowUp(ConwillError):
    """ODE solution left the admissible range or became nan."""


class NearSeparatrix(ConwillError):
    """Elastica orbit too close to its separatrix for the theta quadrature: the
    period sum is unresolved, or the transfer angle needs too fine a grid."""


class NoSolutionInBox(ConwillError):
    """Shooting found no closed solution in the search box."""


class DegenerateDeformation(ConwillError):
    """A deformed surface stopped being an immersion, or the chart cannot be deformed."""


class ConfigError(ConwillError):
    """Invalid CLI/job configuration."""
