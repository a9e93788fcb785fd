"""Operators tied to the conformal structure J.

Conventions (verified against closed forms in the test suite):

* a quadratic differential q = phi dz^2 in the chart coordinate z = x + i y
  has real part  Re(q) = Re(phi)(dx^2 - dy^2) - 2 Im(phi) dx dy, i.e. the
  bilinear matrix  B = [[Re phi, -Im phi], [-Im phi, -Re phi]];
* a bilinear form b turns into the 2-form b(_ ^ _) with coefficient
  b(e1, e2) - b(e2, e1) w.r.t. dx ^ dy;
* delta(u) = 2 u A0 J  (A0 the trace-free Weingarten part);
* delta_star(q) = 4 Re(q)(A0 J _ ^ _), the adjoint of delta under the
  pairings  <omega, u> = int omega u  and  <q, R> = int 2 Re(q)(R _ ^ _).
  It is real-linear in phi; with M = A0 J its coefficient w.r.t. dx ^ dy
  is the closed form
      4 (-Re(phi) (M_01 + M_10) + Im(phi) (M_11 - M_00)).

On flat doubly periodic charts the holomorphic quadratic differentials are
exactly the constant-phi ones, so the default torus basis is {dz^2, i dz^2}.
Open charts optionally extend the basis by centered polynomials z^k dz^2.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from ._stencils import diff_uniform
from .errors import EmptyBasis, GridMismatch, NonHolomorphicBasis, NotAnticommuting
from .geom_core import ParamSurface, _check_field, _mul2, anticommutator_defect, integrate_2form

ANTICOMMUTE_TOL = 1e-9
ISOTHERMIC_HOLO_TOL = 1e-6  # dbar_residual bound of a basis element in the isothermic test


@dataclass
class QuadraticDifferential:
    """q = phi dz^2 in the surface's conformal chart coordinate."""

    surface: ParamSurface
    phi: np.ndarray
    label: str = "qd"

    def __post_init__(self):
        self.phi = _check_field(self.surface.grid, np.asarray(self.phi, dtype=complex))

    @classmethod
    def constant(cls, s: ParamSurface, c: complex, label: Optional[str] = None):
        phi = np.full((s.grid.nu, s.grid.nv), complex(c))
        if label is None:
            label = f"({c})*dz^2"
        return cls(s, phi, label)

    def real_bilinear(self) -> np.ndarray:
        """Matrix field of Re(q) as a symmetric bilinear form."""
        B = np.empty(self.phi.shape + (2, 2))
        B[..., 0, 0] = self.phi.real
        B[..., 1, 1] = -self.phi.real
        B[..., 0, 1] = -self.phi.imag
        B[..., 1, 0] = -self.phi.imag
        return B

    def l2_norm(self) -> float:
        """L2 norm with the metric pointwise norm |q|^2 = |phi|^2 e^{-4 lambda}."""
        fd = self.surface.fundamental_data()
        dens = np.abs(self.phi) ** 2 / fd.e2l ** 2
        return float(np.sqrt(integrate_2form(self.surface, dens * fd.dsigma)))

    def scaled(self, c: float):
        return QuadraticDifferential(self.surface, c * self.phi, f"{c}*{self.label}")


def chart_z(s: ParamSurface) -> np.ndarray:
    U, V = s.grid.mesh()
    return U + 1j * V


def make_qd_basis(s: ParamSurface, degree: int = 0) -> list[QuadraticDifferential]:
    """Real basis {z~^k dz^2, i z~^k dz^2}, k <= degree, z~ centered/scaled.

    degree 0 is the full space of holomorphic quadratic differentials on a
    flat torus chart; higher degrees only make sense on open charts. A degree
    that is not a non-negative integer raises ValueError.
    """
    if isinstance(degree, bool) or not isinstance(degree, (int, np.integer)) or degree < 0:
        raise ValueError(f"basis degree must be a non-negative integer, got {degree!r}")
    basis = [QuadraticDifferential.constant(s, 1.0, "dz^2"),
             QuadraticDifferential.constant(s, 1j, "i*dz^2")]
    if degree > 0:
        z = chart_z(s)
        z0 = complex(np.mean(z))
        scale = max(float(np.max(np.abs(z - z0))), 1e-30)
        zt = (z - z0) / scale
        for k in range(1, degree + 1):
            basis.append(QuadraticDifferential(s, zt ** k, f"((z-z0)/{scale:g})^{k}*dz^2"))
            basis.append(QuadraticDifferential(s, 1j * zt ** k, f"i*((z-z0)/{scale:g})^{k}*dz^2"))
    return basis


def delta_op(s: ParamSurface, u: np.ndarray) -> np.ndarray:
    """Infinitesimal change of J under the normal variation u: 2 u A0 J."""
    u = _check_field(s.grid, u)
    fd = s.fundamental_data()
    return 2.0 * u[..., None, None] * _mul2(fd.A0, fd.J)


def _wedge_coeff(M: np.ndarray, phi: np.ndarray) -> np.ndarray:
    """Coefficient of the 2-form Re(phi dz^2)(M _ ^ _); phi may be a (k, nu, nv) stack."""
    return -phi.real * (M[..., 0, 1] + M[..., 1, 0]) + phi.imag * (M[..., 1, 1] - M[..., 0, 0])


def delta_star(s: ParamSurface, q: QuadraticDifferential) -> np.ndarray:
    """Adjoint of delta on q: the 2-form 4 Re(q)(A0 J _ ^ _)."""
    if q.surface is not s:
        raise GridMismatch("quadratic differential belongs to a different surface")
    fd = s.fundamental_data()
    return 4.0 * _wedge_coeff(_mul2(fd.A0, fd.J), q.phi)


def hopf_differential(s: ParamSurface) -> QuadraticDifferential:
    """The quadratic differential Q with Re(Q) = 1/2 g(A0 _, _).

    Satisfies delta_star(Q) = 4 (H^2 - G) dsigma; holomorphic exactly when
    the mean curvature is constant.
    """
    s.require_conformal()
    fd = s.fundamental_data()
    # matrix of g(A0 _, _) is II - H g (symmetric, g-trace-free)
    C = fd.II - fd.H[..., None, None] * fd.g
    phi = 0.25 * (C[..., 0, 0] - C[..., 1, 1]) - 0.5j * C[..., 0, 1]
    return QuadraticDifferential(s, phi, "hopf")


def dbar_vector_field(s: ParamSurface, X: np.ndarray) -> np.ndarray:
    """L_X J as an endomorphism field, from coordinate derivatives.

    (L_X J)_{kj} = X^l d_l J_{kj} - J_{lj} d_l X^k + J_{kl} d_j X^l.
    The result anticommutes with J.
    """
    X = _check_field(s.grid, X, (2,))
    g = s.grid
    fd = s.fundamental_data()
    J = fd.J
    dX = np.stack([
        diff_uniform(X, g.hu, 1, g.periodic_u, axis=0),
        diff_uniform(X, g.hv, 1, g.periodic_v, axis=1),
    ], axis=-1)  # dX[..., k, l] = d_l X^k
    out = X[..., 0, None, None] * diff_uniform(J, g.hu, 1, g.periodic_u, axis=0)
    out += X[..., 1, None, None] * diff_uniform(J, g.hv, 1, g.periodic_v, axis=1)
    out -= _mul2(dX, J)
    out += _mul2(J, dX)
    return out


def _dbar_norms(s: ParamSurface, phi: np.ndarray) -> np.ndarray:
    """L2 norms over the chart of d phi_i / d z-bar for a (k, nu, nv) stack."""
    g, a, b = s.grid, phi.real, phi.imag
    # 2 d phi / d z-bar = (a_x - b_y) + i (b_x + a_y), squared one part at a time
    dens = (diff_uniform(a, g.hu, 1, g.periodic_u, axis=1)
            - diff_uniform(b, g.hv, 1, g.periodic_v, axis=2)) ** 2
    dens += (diff_uniform(b, g.hu, 1, g.periodic_u, axis=1)
             + diff_uniform(a, g.hv, 1, g.periodic_v, axis=2)) ** 2
    wu, wv = s.quadrature()
    return 0.5 * np.sqrt(np.einsum("i,j,kij->k", wu, wv, dens))


def dbar_residual(q: QuadraticDifferential) -> float:
    """L2 norm over the chart of d phi / d z-bar; ~0 iff q is holomorphic."""
    return float(_dbar_norms(q.surface, q.phi[None])[0])


def pair_form_function(s: ParamSurface, omega: np.ndarray, u: np.ndarray) -> float:
    """<omega, u> = int omega u."""
    omega = _check_field(s.grid, omega)
    u = _check_field(s.grid, u)
    return integrate_2form(s, omega * u)


def pair_qd_endo(s: ParamSurface, q: QuadraticDifferential, R: np.ndarray) -> float:
    """<q, R> = int 2 Re(q)(R _ ^ _) for J-anticommuting R; NotAnticommuting
    is raised for an R that does not anticommute with J."""
    R = _check_field(s.grid, R, (2, 2))
    scale = float(np.max(np.abs(R)))
    defect = anticommutator_defect(s, R) * scale
    # absolute floor keeps roundoff-size fields (e.g. delta(u) on a
    # totally umbilic chart) from tripping the structural gate
    if defect > max(ANTICOMMUTE_TOL * scale, 1e-12):
        raise NotAnticommuting(f"R J + J R defect {defect:.2e}")
    return integrate_2form(s, 2.0 * _wedge_coeff(R, q.phi))


def _weighted_design(s: ParamSurface, basis: Sequence[QuadraticDifferential],
                     holo_tol: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Weighted design matrices (D, Q, sw) of a holomorphic basis on s.

    sw = sqrt(wu wv dsigma), so |sw * density| is the L2(dsigma) norm of a
    density. Column i of D (N x k) is sw delta_star(q_i) / dsigma and of Q
    (N x k, complex) sw phi_i / e^{2 lambda}, so D^T D and Re Q^H Q are the
    Gram matrices of the delta_star image and of the basis. Raises
    GridMismatch or NonHolomorphicBasis (dbar_residual > holo_tol max(1, |q|)).
    """
    if any(q.surface is not s for q in basis):
        raise GridMismatch("basis element belongs to a different surface")
    k = len(basis)
    fd = s.fundamental_data()
    wu, wv = s.quadrature()
    sw = np.sqrt(np.outer(wu, wv) * fd.dsigma)
    phi = np.array([q.phi for q in basis], dtype=complex).reshape((k,) + sw.shape)
    dbar = _dbar_norms(s, phi)
    Q = (phi * (sw / fd.e2l)).reshape(k, sw.size).T
    bad = dbar > holo_tol * np.maximum(1.0, np.linalg.norm(Q, axis=0))
    if np.any(bad):
        raise NonHolomorphicBasis(
            f"basis element {basis[int(np.argmax(bad))].label} fails holomorphicity")
    D = (4.0 * _wedge_coeff(_mul2(fd.A0, fd.J), phi) * (sw / fd.dsigma)).reshape(k, sw.size).T
    return D, Q, sw


@dataclass
class IsothermicResult:
    verdict: str                     # "strongly-isothermic" | "not-strongly-isothermic" | "inconclusive"
    q: Optional[QuadraticDifferential]
    coefficients: Optional[np.ndarray]
    sigma_min: float
    tol: float

    @property
    def is_strongly_isothermic(self) -> bool:
        return self.verdict == "strongly-isothermic"


def is_strongly_isothermic(
    s: ParamSurface,
    basis: Sequence[QuadraticDifferential],
    tol: float = 1e-6,
) -> IsothermicResult:
    """Search the basis span for q != 0 with delta_star(q) = 0.

    Minimizes ||delta_star(q)||_{L2(dsigma)} / ||q|| over the real span; a
    generalized smallest singular value below tol is a positive verdict, a
    value above 10 tol a confident negative, anything between inconclusive.
    """
    from scipy.linalg import eigh

    if len(basis) == 0:
        raise EmptyBasis("strong-isothermicity test needs a basis")
    D, Q, _ = _weighted_design(s, basis, ISOTHERMIC_HOLO_TOL)
    vals, vecs = eigh(D.T @ D, (Q.conj().T @ Q).real)
    lam = max(float(vals[0]), 0.0)
    sigma = float(np.sqrt(lam))
    c = vecs[:, 0]
    if sigma <= tol:
        phi = np.tensordot(c, np.array([q.phi for q in basis]), axes=1)
        qfound = QuadraticDifferential(s, phi, "isothermic-direction")
        return IsothermicResult("strongly-isothermic", qfound, c, sigma, tol)
    if sigma > 10.0 * tol:
        return IsothermicResult("not-strongly-isothermic", None, None, sigma, tol)
    return IsothermicResult("inconclusive", None, None, sigma, tol)
