"""Least-squares Lagrange multiplier solve and criticality certification.

An immersion is certified constrained-critical for a functional F when the
equation  grad(F) = delta_star(q)  has a solution q in the given basis of
holomorphic quadratic differentials, up to the certification tolerance.
Residuals are measured in L2(dsigma) after dividing the 2-forms by dsigma,
so they are parametrization independent. The solve is least squares on the
sqrt(w)-weighted design matrix (w = quadrature weight times dsigma, one
column per basis element), read from the SVD of `_factored_design`. Of the
best fits it takes the q = sum c_i q_i of least L2 norm, so q does not depend
on the basis of a span (on isothermic charts delta_star kills a direction).

On compact charts (doubly periodic grids) the equation characterizes
criticality both ways, so a large residual yields "not-critical". On open
charts it is only sufficient; there the negative verdict is downgraded to
"inconclusive-open-chart", except on totally umbilic charts where all
compactly supported normal variations are conformal and criticality forces
grad(F) itself to vanish.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from .conformal_ops import GRAM_COND_LIMIT, QuadraticDifferential, _factored_design, hopf_differential
from .errors import NotCMC
from .functionals import WILLMORE, _check_kind, gradient
from .geom_core import ParamSurface

DEFAULT_TOL = 1e-5
UMBILIC_TOL = 1e-10
HOLO_TOL = 1e-8             # dbar_residual bound of a basis element, relative to max(1, |q|)
CMC_TOL = 1e-8              # spread of H relative to max(1, |mean H|) of a CMC surface

VERDICT_CRITICAL = "critical"
VERDICT_NOT_CRITICAL = "not-critical"
VERDICT_INCONCLUSIVE = "inconclusive-open-chart"


@dataclass
class Certificate:
    """Outcome of a multiplier solve for one functional on one surface."""

    functional: str
    basis: list[str]
    coefficients: np.ndarray
    residual_l2: float
    gradient_l2: float
    verdict: str
    tol: float
    chart: str = "compact"
    extras: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "functional": self.functional,
            "basis": list(self.basis),
            "coeffs": [float(c) for c in self.coefficients],
            "residual": float(self.residual_l2),
            "grad_norm": float(self.gradient_l2),
            "verdict": self.verdict,
            "tol": float(self.tol),
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2)

    @property
    def is_critical(self) -> bool:
        return self.verdict == VERDICT_CRITICAL


def solve_multiplier(
    s: ParamSurface,
    kind: str,
    basis: Sequence[QuadraticDifferential],
    tol: float = DEFAULT_TOL,
) -> Certificate:
    """Minimize ||grad(kind) - delta_star(sum c_i q_i)||_{L2(dsigma)}.

    The empty basis is allowed (residual equals the gradient norm), which is
    the genus-zero case with no holomorphic quadratic differentials. The
    basis is holomorphic in z = x + i y, so the chart must be conformal
    (NotConformal otherwise).
    """
    _check_kind(kind)
    fd = s.fundamental_data()
    s.require_conformal()  # reads the residual that the first-form stage measured
    U, S, W, sw = _factored_design(s, basis, HOLO_TOL)
    g = (sw * gradient(s, kind) / fd.dsigma).ravel()
    r = int(np.sum(S > np.finfo(float).eps * g.size * S.max(initial=0.0)))  # roundoff rank cutoff
    b = U[:, :r].T @ g
    coeffs = W[:, :r] @ (b / S[:r])
    grad_norm = float(np.linalg.norm(g))
    residual = float(np.linalg.norm(g - U[:, :r] @ b))

    compact = s.grid.periodic_u and s.grid.periodic_v
    threshold = tol * max(1.0, grad_norm)
    if residual <= threshold:
        verdict = VERDICT_CRITICAL
    elif compact:
        verdict = VERDICT_NOT_CRITICAL
    else:
        # totally umbilic open charts: every compactly supported normal
        # variation is conformal, so a nonzero gradient decides criticality
        umbilic = float(np.max(np.abs(fd.H ** 2 - fd.G))) <= max(
            UMBILIC_TOL, 1e-8 * float(np.max(fd.H ** 2)))
        verdict = VERDICT_NOT_CRITICAL if umbilic else VERDICT_INCONCLUSIVE

    return Certificate(
        functional=kind,
        basis=[q.label for q in basis],
        coefficients=np.asarray(coeffs, dtype=float),
        residual_l2=residual,
        gradient_l2=grad_norm,
        verdict=verdict,
        tol=tol,
        chart="compact" if compact else "open",
    )


def certify_constrained_willmore(
    s: ParamSurface,
    basis: Optional[Sequence[QuadraticDifferential]] = None,
    tol: float = DEFAULT_TOL,
) -> Certificate:
    """Willmore-specific certificate.

    gradient_l2 doubles as the q = 0 residual: it vanishes exactly when the
    surface is Willmore without any multiplier.
    """
    from .conformal_ops import make_qd_basis

    if basis is None:
        basis = make_qd_basis(s)
    cert = solve_multiplier(s, WILLMORE, basis, tol=tol)
    cert.extras["pure_willmore_residual"] = cert.gradient_l2
    return cert


def cmc_multiplier(s: ParamSurface) -> QuadraticDifferential:
    """Multiplier q = 1/2 H Q for constant mean curvature surfaces.

    Requires H constant within CMC_TOL (relative), else raises NotCMC; the
    returned q satisfies grad(Willmore) = delta_star(q) on such surfaces.
    """
    fd = s.fundamental_data()
    h_mean = float(np.mean(fd.H))
    spread = float(np.max(fd.H) - np.min(fd.H))
    if spread > CMC_TOL * max(1.0, abs(h_mean)):
        raise NotCMC(f"mean curvature varies by {spread:.2e}")
    q = hopf_differential(s).scaled(0.5 * h_mean)
    q.label = "(H/2)*hopf"
    return q
