"""Conformally parametrized surfaces on structured grids in R^3 and S^3.

A surface is a map f(u, v) into the ambient space form sampled on a uniform
(optionally periodic) grid, together with optional analytic derivative
callbacks. Its geometry is computed in stages, each cached on the surface
the first time it is asked for:

* first form  -- E, F, G, W^2 = EG - F^2 and the area element W, from f_u
  and f_v; this stage holds the DegenerateImmersion and NotConformal gates;
* unit normal -- xi, from f_u and f_v (and f in S^3);
* second form -- e, f, g and the mean curvature H, from xi and the second
  derivatives;
* positions   -- the five derivatives differenced from f alone, whatever
  the callbacks; deformed charts in R^3 add their change to these
  (`variations`).

`fundamental_data` assembles the full per-node data (metric, second
fundamental form, Weingarten operator, mean/Gauss curvature, unit normal,
area element, complex structure J) from these stages. Callers that need
less read the stages directly: the functional values in `functionals` never
build the 2x2 fields, and the area never differentiates to second order.
A surface shared between threads must have its stages filled first.

The first three stages come from one pass over row blocks (`_stages`;
`_stencils.row_blocks`, about BLOCK_NODES nodes each), so every temporary is
block-sized and stays in cache. The pass forms every stage still missing up
to the one asked for, and for `fundamental_data` the assembled fields; the
gates read the whole chart and are checked after the last block. A pass
reads the position derivatives one block at a time (`_derivative_blocks`):
a callback is called on the block's rows, and any other derivative is the
block's positions differenced with their halo rows (`_position_rows`, the
only place positions are differenced, which the whole-chart `derivative`,
the position stage and `variations` call too), with the bits of the whole
chart whatever the block shape: each node's stencil reads only its own
nodes (`_stencils._diff_rows`). No chart keeps a derivative field. Every
per-node scalar field a chart keeps is a row of one (25, nu, nv) array,
the chart's slab (`SLAB_ROWS`), allocated by the first stage: its rows are
touched only when a stage writes them, and one large array is not handed
back to the allocator and faulted in again field by field. Only xi has an
array of its own. So a chart holds its positions, its slab and xi, and in
R^3 the position stage once a deformation asks for it.

Field conventions used throughout the package:

* ScalarField  -- array (nu, nv)
* TwoForm      -- array (nu, nv): the coefficient w of  w dx ^ dy
* VectorField  -- array (nu, nv, 2): components w.r.t. (d/dx, d/dy)
* EndoField    -- array (nu, nv, 2, 2); the assembled ones (`fundamental_data`,
  `_mul2`) are stored component-major, so each [..., i, j] slice is
  C-contiguous

Charts are positively oriented by construction; the `orientation` flag of a
surface only flips the unit normal (and with it II, A, H, the trace-free
part and the signed enclosed volume), never the chart orientation or J.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Optional

import numpy as np

from ._stencils import (
    HALO,
    _diff_rows,
    _wrap_pad,
    diff_uniform,
    quadrature_weights,
    row_blocks,
)
from .errors import (
    DegenerateImmersion,
    GridMismatch,
    NotConformal,
)

EUCLIDEAN3 = "Euclidean3"
SPHERE3 = "Sphere3"

# default gate for "is this chart conformal enough to use z = x + iy";
# analytic-callback charts sit at machine precision, finite-difference
# charts carry O(h^4) metric noise and still need to pass
CONFORMAL_GATE = 1e-4

DERIVATIVES = ("fu", "fv", "fuu", "fuv", "fvv")

# |f| = 1 tolerance for S^3 charts
SPHERE_TOL = 1e-10

# minimum sine of the coordinate angle for a valid immersion
IMMERSION_TOL = 1e-6


@dataclass(frozen=True)
class SpaceForm:
    """Ambient space form: Euclidean 3-space or the unit 3-sphere."""

    kind: str

    def __post_init__(self):
        if self.kind not in (EUCLIDEAN3, SPHERE3):
            raise ValueError(f"unknown space form {self.kind!r}")

    @property
    def ambient_dim(self) -> int:
        return 3 if self.kind == EUCLIDEAN3 else 4

    @property
    def sectional_curvature(self) -> float:
        return 0.0 if self.kind == EUCLIDEAN3 else 1.0


R3 = SpaceForm(EUCLIDEAN3)
S3 = SpaceForm(SPHERE3)


@dataclass(frozen=True)
class Grid2D:
    """Uniform chart grid: nu x nv nodes, spacing hu = Lu/nu, hv = Lv/nv.

    Periodic axes sample [offset, offset + L); open axes sample the same
    nodes but nothing wraps, and integrals use an interior margin.
    """

    nu: int
    nv: int
    Lu: float
    Lv: float
    periodic_u: bool = True
    periodic_v: bool = True
    u0: float = 0.0
    v0: float = 0.0

    def __post_init__(self):
        if self.nu < 8 or self.nv < 8:
            raise ValueError("grid needs nu, nv >= 8")
        if self.Lu <= 0 or self.Lv <= 0:
            raise ValueError("grid extents must be positive")

    @property
    def hu(self) -> float:
        return self.Lu / self.nu

    @property
    def hv(self) -> float:
        return self.Lv / self.nv

    def u_coords(self) -> np.ndarray:
        return self.u0 + self.hu * np.arange(self.nu)

    def v_coords(self) -> np.ndarray:
        return self.v0 + self.hv * np.arange(self.nv)

    def mesh(self) -> tuple[np.ndarray, np.ndarray]:
        return np.meshgrid(self.u_coords(), self.v_coords(), indexing="ij")

    def open_mesh(self) -> tuple[np.ndarray, np.ndarray]:
        """Node coordinates as broadcastable (nu, 1) and (1, nv) arrays."""
        return np.ix_(self.u_coords(), self.v_coords())


def _sq_norm(x: np.ndarray) -> np.ndarray:
    """|x|^2 over the last axis, summed in component order: the bits of
    np.linalg.norm squared, without its squared copy of x."""
    r2 = x[..., 0] * x[..., 0]
    for k in range(1, x.shape[-1]):
        r2 += x[..., k] * x[..., k]
    return r2


def _check_on_sphere(position: np.ndarray) -> None:
    if np.max(np.abs(np.sqrt(_sq_norm(position)) - 1.0)) > SPHERE_TOL:
        raise ValueError("Sphere3 positions must satisfy |f| = 1")


def _check_field(grid: Grid2D, arr: np.ndarray, trailing: tuple = ()) -> np.ndarray:
    arr = np.asarray(arr)
    want = (grid.nu, grid.nv) + trailing
    if arr.shape != want:
        raise GridMismatch(f"field shape {arr.shape} != {want}")
    return arr


def _callback_rows(s: "ParamSurface", which: str, U: np.ndarray, V: np.ndarray) -> np.ndarray:
    """The callback `which` of s on rows U (len(U), 1) of the open mesh and
    its columns V (1, nv): a (len(U), nv, dim) field, GridMismatch otherwise."""
    arr = np.asarray(s.callbacks[which](U, V), dtype=float)
    want = (U.shape[0], s.grid.nv, s.space_form.ambient_dim)
    if arr.shape != want:
        raise GridMismatch(f"field shape {arr.shape} != {want}")
    return arr


class ParamSurface:
    """A parametrized surface on a Grid2D with optional analytic derivatives.

    Parameters
    ----------
    space_form : SpaceForm
    grid : Grid2D
    position : (nu, nv, dim) array of ambient points.
    callbacks : optional dict with keys among
        {"f", "fu", "fv", "fuu", "fuv", "fvv"}; each maps node coordinates
        (U, V) to an (len(U), nv, dim) array.  They are called with rows of
        the open mesh `grid.open_mesh()`: the stages call them once per row
        block with U[r0:r1] of shape (r1 - r0, 1) and V of shape (1, nv),
        and `derivative` once with all of U. So a separable chart evaluates
        its factors once per row and once per column. The result must
        broadcast to the full (r1 - r0, nv, dim) (GridMismatch otherwise),
        and the dense `grid.mesh()` works too. When first/second derivative
        callbacks are present they are used instead of finite differences.
    orientation : +1 or -1, the normal-sign convention flag.
    conformal : whether the chart claims |f_u| = |f_v|, <f_u, f_v> = 0.
    quotient_seam : the grid wraps in u for fields and quadrature but the
        position itself is only periodic up to an isometry (used for closed
        preimage tori of the fibration chart). Such charts require full
        derivative callbacks and cannot be position-differentiated or
        deformed node-wise.
    """

    def __init__(
        self,
        space_form: SpaceForm,
        grid: Grid2D,
        position: np.ndarray,
        callbacks: Optional[dict] = None,
        orientation: int = 1,
        conformal: bool = False,
        quotient_seam: bool = False,
        metadata: Optional[dict] = None,
    ):
        self.space_form = space_form
        self.grid = grid
        self.position = _check_field(grid, position, (space_form.ambient_dim,))
        self.callbacks = dict(callbacks or {})
        if orientation not in (1, -1):
            raise ValueError("orientation must be +1 or -1")
        self.orientation = orientation
        self.conformal = conformal
        self.quotient_seam = quotient_seam
        self.metadata = dict(metadata or {})
        self._stage_cache: dict[str, object] = {}
        self._slab: Optional[np.ndarray] = None
        self._fund: Optional[FundamentalData] = None
        self._residual: Optional[float] = None
        if quotient_seam and not self.has_analytic_derivatives:
            raise ValueError("quotient-seam charts require analytic derivative callbacks")
        if space_form.kind == SPHERE3:
            _check_on_sphere(self.position)

    @property
    def has_analytic_derivatives(self) -> bool:
        return all(k in self.callbacks for k in DERIVATIVES)

    def with_orientation(self, orientation: int) -> "ParamSurface":
        """Copy of this surface with the normal-sign convention flipped/set."""
        return ParamSurface(
            self.space_form, self.grid, self.position, self.callbacks,
            orientation=orientation, conformal=self.conformal,
            quotient_seam=self.quotient_seam, metadata=self.metadata,
        )

    @property
    def deriv_strategy(self) -> str:
        return "analytic-callback" if self.has_analytic_derivatives else "fourth-order-central-differences"

    def derivative(self, which: str) -> np.ndarray:
        """Whole-chart position derivative field, formed at each call; which
        in {fu, fv, fuu, fuv, fvv}. Its callback on the open mesh if the chart
        has one, else the positions differenced over all rows (`_position_rows`).
        The stages do not call this (`_derivative_blocks`)."""
        if which not in DERIVATIVES:
            raise ValueError(f"unknown derivative {which!r}")
        g = self.grid
        if which in self.callbacks:
            return _callback_rows(self, which, *g.open_mesh())
        if self.quotient_seam:
            raise GridMismatch("cannot finite-difference positions across a quotient seam")
        rows, lo = _halo_rows(g, 0, g.nu)
        return _position_rows(self.position[rows], g, lo, lo + g.nu, (which,))[which]

    def fundamental_data(self) -> "FundamentalData":
        if self._fund is None:
            self._fund = fundamental_data(self)
        return self._fund

    def conformality_residual(self) -> float:
        """Max relative deviation of the metric from e^{2 lambda} Id, cached.

        Read from the first-form stage when it is cached; otherwise the
        metric is formed here per row block (`_derivative_blocks`), without
        the stage's gates and without caching the stage.
        """
        if self._residual is None:
            first = self._stage_cache.get("first")
            if first is not None:
                self._residual = _conformality_residual(*first[:3])
            else:
                res = 0.0
                for _, d in _derivative_blocks(self, ("fu", "fv")):
                    res = np.maximum(res, _conformality_residual(*_first_form(d["fu"], d["fv"])))
                self._residual = float(res)
        return self._residual

    def require_conformal(self, tol: float = CONFORMAL_GATE) -> None:
        if not self.conformal:
            raise NotConformal("surface chart is not flagged conformal")
        res = self.conformality_residual()
        if res > tol:
            raise NotConformal(f"conformality residual {res:.3e} exceeds {tol:.1e}")

    def quadrature(self) -> tuple[np.ndarray, np.ndarray]:
        g = self.grid
        return (
            quadrature_weights(g.nu, g.hu, g.periodic_u),
            quadrature_weights(g.nv, g.hv, g.periodic_v),
        )


@dataclass
class FundamentalData:
    """Per-node first/second order data of an immersed surface.

    g, II, A, A0 (trace-free part of A) and J are (nu, nv, 2, 2), stored
    component-major (see `_empty2`); H, G,
    dsigma, e2l are (nu, nv); xi is (nu, nv, ambient_dim).  dsigma is the
    coefficient of the area element w.r.t. dx ^ dy and is positive; e2l is
    the conformal factor (E + G)/2, which equals e^{2 lambda} exactly on
    conformal charts. Every field but xi is a view of the chart's slab.
    """

    g: np.ndarray
    II: np.ndarray
    A: np.ndarray
    A0: np.ndarray
    H: np.ndarray
    G: np.ndarray
    xi: np.ndarray
    dsigma: np.ndarray
    J: np.ndarray
    e2l: np.ndarray


# rows of a chart's slab, one (nu, nv) scalar field each: the 2x2 fields take
# four rows (components 00, 01, 10, 11), then H, the Gauss curvature G, W,
# W^2 and e2l
_G2, _II, _A, _A0, _J = 0, 4, 8, 12, 16
_H, _GAUSS, _W, _W2, _E2L = 20, 21, 22, 23, 24
SLAB_ROWS = 25


def _endo(rows: np.ndarray) -> np.ndarray:
    """The (*shape, 2, 2) view of four rows (4, *shape), component-major."""
    return np.moveaxis(rows.reshape((2, 2) + rows.shape[1:]), (0, 1), (-2, -1))


def _empty2(shape: tuple) -> np.ndarray:
    """Uninitialized (*shape, 2, 2) field stored component-major.

    A view of a (2, 2, *shape) array, so each [..., i, j] slice is
    C-contiguous and the per-component reads and writes are not strided.
    """
    return _endo(np.empty((4,) + shape))


def _mul2(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Per-node matrix product a b of two (..., 2, 2) fields, written out by
    component into a component-major field."""
    out = _empty2(np.broadcast_shapes(a.shape, b.shape)[:-2])
    for i in (0, 1):
        for j in (0, 1):
            out[..., i, j] = a[..., i, 0] * b[..., 0, j] + a[..., i, 1] * b[..., 1, j]
    return out


def _first_form(fu: np.ndarray, fv: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Coefficients E, F, G of the induced metric from the coordinate tangents."""
    return (np.einsum("ijk,ijk->ij", fu, fu), np.einsum("ijk,ijk->ij", fu, fv),
            np.einsum("ijk,ijk->ij", fv, fv))


def _conformality_residual(E: np.ndarray, F: np.ndarray, G: np.ndarray) -> float:
    """Max of max(|E - G|, 2|F|) / max(E, G) over the chart."""
    return float(np.max(np.maximum(np.abs(E - G), 2.0 * np.abs(F)) / np.maximum(E, G)))


def _complex_structure(E: np.ndarray, F: np.ndarray, G: np.ndarray, W: np.ndarray,
                       out: Optional[np.ndarray] = None) -> np.ndarray:
    """J, the rotation by +90 degrees in the metric (E, F, G); W = sqrt(EG - F^2)."""
    J = _empty2(E.shape) if out is None else out
    J[..., 0, 0] = -F / W
    J[..., 0, 1] = -G / W
    J[..., 1, 0] = E / W
    J[..., 1, 1] = F / W
    return J


def _cross3(a: np.ndarray, b: np.ndarray, out: Optional[np.ndarray] = None) -> np.ndarray:
    """Per-node cross product of two (..., 3) fields, written out by component."""
    if out is None:
        out = np.empty(np.broadcast_shapes(a.shape, b.shape))
    out[..., 0] = a[..., 1] * b[..., 2] - a[..., 2] * b[..., 1]
    out[..., 1] = a[..., 2] * b[..., 0] - a[..., 0] * b[..., 2]
    out[..., 2] = a[..., 0] * b[..., 1] - a[..., 1] * b[..., 0]
    return out


def _cross4(f: np.ndarray, a: np.ndarray, b: np.ndarray,
            out: Optional[np.ndarray] = None) -> np.ndarray:
    """Vector xi with xi . w = det[f; a; b; w] (rows), per node.

    xi_i is the signed 3x3 minor of [f; a; b] without column i, expanded
    along f over the Plücker coordinates p_kl = a_k b_l - a_l b_k of (a, b),
    each of which is formed once.
    """
    p = {(k, l): a[..., k] * b[..., l] - a[..., l] * b[..., k]
         for k, l in itertools.combinations(range(4), 2)}
    if out is None:
        out = np.empty(np.broadcast_shapes(f.shape, a.shape, b.shape))
    for i, sign in enumerate((-1.0, 1.0, -1.0, 1.0)):
        j0, j1, j2 = (j for j in range(4) if j != i)
        out[..., i] = sign * (f[..., j0] * p[j1, j2] - f[..., j1] * p[j0, j2]
                              + f[..., j2] * p[j0, j1])
    return out


def _check_immersion(w2_min: float, eg_max: float) -> None:
    """The immersion gate on min W^2 and max EG over a whole chart."""
    if w2_min <= (IMMERSION_TOL ** 2) * eg_max:
        raise DegenerateImmersion("coordinate tangents nearly collinear")


def _unit_normal(xi: np.ndarray, orientation: int) -> np.ndarray:
    """Normalize the normal field xi in place, times the orientation flag."""
    xi /= np.sqrt(_sq_norm(xi))[..., None]
    if orientation < 0:
        np.negative(xi, out=xi)
    return xi


def _second_form(E, F, Gm, W2, xi, fuu, fuv, fvv) -> tuple[np.ndarray, ...]:
    """e, f, g = <f_uu, xi>, <f_uv, xi>, <f_vv, xi> and the mean curvature H.

    H = (G e - 2 F f + E g) / (2 W^2), evaluated as half the trace of the
    Weingarten operator A = g^-1 II, term by term as `_assemble` forms A's
    diagonal, so both carry the same bits.
    """
    e = np.einsum("ijk,ijk->ij", fuu, xi)
    f2 = np.einsum("ijk,ijk->ij", fuv, xi)
    g2 = np.einsum("ijk,ijk->ij", fvv, xi)
    bf = (F / W2) * f2
    H = 0.5 * (((Gm / W2) * e - bf) + ((E / W2) * g2 - bf))
    return e, f2, g2, H


def _assemble(blk: np.ndarray) -> None:
    """Fill the assembled rows of a slab block from its first- and
    second-form rows: the copies F and f of g and II, A = g^-1 II, its
    trace-free part A0, det A, J and e2l."""
    E, F, Gm, W2, W = blk[_G2], blk[_G2 + 1], blk[_G2 + 3], blk[_W2], blk[_W]
    e, f2, g2, H = blk[_II], blk[_II + 1], blk[_II + 3], blk[_H]
    blk[_G2 + 2] = F
    blk[_II + 2] = f2
    # A = g^-1 II with g^-1 = [[a, -b], [-b, c]]; rows 00, 01, 10, 11
    a, b, c = Gm / W2, F / W2, E / W2
    A = blk[_A:_A + 4]
    A[0] = a * e - b * f2
    A[1] = a * f2 - b * g2
    A[2] = c * f2 - b * e
    A[3] = c * g2 - b * f2
    blk[_GAUSS] = A[0] * A[3] - A[1] * A[2]
    A0 = blk[_A0:_A0 + 4]
    np.subtract(A[0], H, out=A0[0])
    A0[1:3] = A[1:3]
    np.subtract(A[3], H, out=A0[3])
    _complex_structure(E, F, Gm, W, out=_endo(blk[_J:_J + 4]))
    blk[_E2L] = 0.5 * (E + Gm)


def _halo_rows(g: Grid2D, r0: int, r1: int) -> tuple[np.ndarray, int]:
    """(rows, lo) of the row block r0:r1 of g: rows indexes the block with up
    to HALO rows on each side, wrapped on a periodic u axis and clipped at the
    ends of an open one, so that the block starts at rows[lo]."""
    if g.periodic_u:
        return np.arange(r0 - HALO, r1 + HALO) % g.nu, HALO
    start = max(r0 - HALO, 0)
    return np.arange(start, min(r1 + HALO, g.nu)), r0 - start


def _position_rows(ext: np.ndarray, g: Grid2D, lo: int, hi: int,
                   names: tuple[str, ...]) -> dict[str, np.ndarray]:
    """The position derivatives named in names of the rows ext[lo:hi] of a
    row block with its halo (`_halo_rows`): the one place where positions,
    deformed or not, are differenced, each derivative by one call of
    `_stencils._diff_rows`.

    The rows have the bits diff_uniform gives on the whole chart. On a
    periodic v axis fv and fvv read one wrap-padded copy of the block.
    That copy and the halo rows are dropped before fuv pads fu, so a whole
    chart is held in one padded copy at a time.
    """
    d = {}
    v_names = [k for k in ("fv", "fvv") if k in names]
    if v_names:
        blk, j0 = (_wrap_pad(ext[lo:hi], 1), HALO) if g.periodic_v else (ext[lo:hi], 0)
        for k in v_names:
            d[k] = _diff_rows(blk, g.hv, len(k) - 1, 1, j0, j0 + g.nv)
        del blk
    fu = _diff_rows(ext, g.hu, 1, 0, lo, hi) if "fu" in names or "fuv" in names else None
    if "fuu" in names:
        d["fuu"] = _diff_rows(ext, g.hu, 2, 0, lo, hi)
    del ext
    if "fuv" in names:
        d["fuv"] = diff_uniform(fu, g.hv, 1, g.periodic_v, axis=1)
    if "fu" in names:
        d["fu"] = fu
    return d


def _derivative_blocks(s: ParamSurface, names: tuple[str, ...]):
    """(b, d) per row block b = slice(r0, r1) of s (`row_blocks`), d the rows
    b of each position derivative named in names.

    A derivative that s has a callback for is that callback on the rows b of
    the open mesh; the others are the block's positions differenced with
    their halo (`_position_rows`). No whole-chart derivative field is formed.
    """
    g = s.grid
    U, V = g.open_mesh()
    differenced = tuple(k for k in names if k not in s.callbacks)
    for r0, r1 in row_blocks(g.nu, g.nv):
        b = slice(r0, r1)
        d = {}
        if differenced:
            rows, lo = _halo_rows(g, r0, r1)
            d = _position_rows(s.position[rows], g, lo, lo + r1 - r0, differenced)
        for k in names:
            if k in s.callbacks:
                d[k] = _callback_rows(s, k, U[b], V)
        yield b, d


STAGES = ("first", "normal", "second", "assembled")


def _stages(s: ParamSurface, upto: str):
    """Fill the stages of s up to `upto` (of STAGES) that are not cached, in
    one pass over row blocks (`_derivative_blocks`), and return stage `upto`.

    * first  -- E, F, G, W^2 = EG - F^2 and W, in the slab it allocates;
    * normal -- the unit normal xi, times the orientation flag; in S^3 the
      ambient 4-vector orthogonal to f, f_u and f_v;
    * second -- e, f, g and the mean curvature H (`_second_form`);
    * assembled -- the rest of the slab (`_assemble`), formed at each call
      and not cached (returns None).

    The gates of the first stage (DegenerateImmersion, and NotConformal for a
    chart flagged conformal) read the whole chart, so they are checked after
    the last block and nothing is cached when one fails. Earlier blocks of
    such a chart may divide by zero, so the pass runs under errstate.
    """
    cache = s._stage_cache
    if upto in cache:
        return cache[upto]
    depth = STAGES.index(upto)
    new_first = "first" not in cache
    new_xi = depth >= 1 and "normal" not in cache
    new_second = depth >= 2 and "second" not in cache
    slab = np.empty((SLAB_ROWS, s.grid.nu, s.grid.nv)) if new_first else s._slab
    E, F, Gm, W2, W = slab[_G2], slab[_G2 + 1], slab[_G2 + 3], slab[_W2], slab[_W]
    e, f2, g2, H = slab[_II], slab[_II + 1], slab[_II + 3], slab[_H]
    xi = np.empty(s.position.shape) if new_xi else cache.get("normal")
    names = (("fu", "fv") if new_first or new_xi else ()) + (
        ("fuu", "fuv", "fvv") if new_second else ())
    w2_min, eg_max, res = np.inf, 0.0, 0.0
    with np.errstate(divide="ignore", invalid="ignore"):
        for b, d in _derivative_blocks(s, names):
            if new_first:
                E[b], F[b], Gm[b] = _first_form(d["fu"], d["fv"])
                EG = E[b] * Gm[b]
                np.subtract(EG, F[b] * F[b], out=W2[b])
                np.sqrt(W2[b], out=W[b])
                w2_min = np.minimum(w2_min, np.min(W2[b]))
                eg_max = np.maximum(eg_max, np.max(EG))
                if s.conformal:
                    res = np.maximum(res, _conformality_residual(E[b], F[b], Gm[b]))
            if new_xi:
                if s.space_form.kind == EUCLIDEAN3:
                    _cross3(d["fu"], d["fv"], out=xi[b])
                else:
                    _cross4(s.position[b], d["fu"], d["fv"], out=xi[b])
                _unit_normal(xi[b], s.orientation)
            if new_second:
                e[b], f2[b], g2[b], H[b] = _second_form(E[b], F[b], Gm[b], W2[b], xi[b],
                                                        d["fuu"], d["fuv"], d["fvv"])
            if upto == "assembled":
                _assemble(slab[:, b])
    if new_first:
        _check_immersion(w2_min, eg_max)
        if s.conformal:
            res = s._residual = float(res)
            if res > CONFORMAL_GATE:
                raise NotConformal(f"chart flagged conformal but residual is {res:.3e}")
        s._slab = slab
        cache["first"] = (E, F, Gm, W2, W)
    if new_xi:
        cache["normal"] = xi
    if new_second:
        cache["second"] = (e, f2, g2, H)
    return cache.get(upto)


def _position_stage(s: ParamSurface) -> dict[str, np.ndarray]:
    """The five position derivatives differenced from the positions over all
    rows in one call (`_position_rows`), whatever the callbacks, cached."""
    stage = s._stage_cache.get("positions")
    if stage is None:
        g = s.grid
        rows, lo = _halo_rows(g, 0, g.nu)
        stage = s._stage_cache["positions"] = _position_rows(
            s.position[rows], g, lo, lo + g.nu, DERIVATIVES)
    return stage


def fundamental_data(s: ParamSurface) -> FundamentalData:
    """Assemble metric, shape operator, curvatures, normal, area form, J.

    One pass over row blocks that forms the stages still missing, with the
    gates of the first, and assembles the rest of the slab (`_stages`). For
    Sphere3 charts G is the extrinsic det A; the induced intrinsic curvature
    is G + 1.
    """
    _stages(s, "assembled")
    slab = s._slab
    return FundamentalData(
        g=_endo(slab[_G2:_G2 + 4]), II=_endo(slab[_II:_II + 4]), A=_endo(slab[_A:_A + 4]),
        A0=_endo(slab[_A0:_A0 + 4]), H=slab[_H], G=slab[_GAUSS], xi=s._stage_cache["normal"],
        dsigma=slab[_W], J=_endo(slab[_J:_J + 4]), e2l=slab[_E2L],
    )


def laplace_beltrami(s: ParamSurface, phi: np.ndarray) -> np.ndarray:
    """Laplace-Beltrami of a scalar field on a conformal chart.

    Returns e^{-2 lambda} (phi_xx + phi_yy); negative spectrum, so that
    sin(x) on a flat unit chart maps to -sin(x).
    """
    s.require_conformal()
    phi = _check_field(s.grid, phi)
    g = s.grid
    lap = diff_uniform(phi, g.hu, 2, g.periodic_u, axis=0)
    lap += diff_uniform(phi, g.hv, 2, g.periodic_v, axis=1)
    return lap / s.fundamental_data().e2l


def integrate_2form(s: ParamSurface, omega: np.ndarray) -> float:
    """Integrate the 2-form with coefficient field omega over the chart.

    Trapezoidal in open directions (interior margin), uniform-weight
    (spectrally accurate) in periodic directions.
    """
    omega = _check_field(s.grid, omega)
    wu, wv = s.quadrature()
    return float(np.einsum("i,j,ij->", wu, wv, omega))


def anticommutator_defect(s: ParamSurface, R: np.ndarray) -> float:
    """Sup norm of R J + J R relative to the scale of R."""
    R = _check_field(s.grid, R, (2, 2))
    J = s.fundamental_data().J
    D = _mul2(R, J) + _mul2(J, R)
    scale = max(float(np.max(np.abs(R))), 1e-300)
    return float(np.max(np.abs(D))) / scale
