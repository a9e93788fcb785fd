"""Finite-difference stencils and quadrature weights on uniform 1-D grids.

Fourth-order accuracy throughout: central 5-point stencils in the interior
and on periodic axes, one-sided stencils of matching order at open
boundaries. Every derivative of sampled values is one call of `_diff_rows`,
which sums the taps of each node's stencil elementwise: `diff_uniform` on
a whole axis (wrap-padded when it is periodic) and `geom_core` on the rows
of a row block with its halo, which therefore have the bits of the whole
chart.
"""

from __future__ import annotations

import numpy as np

MARGIN = 2  # nodes at each end of an open axis that integrals and variations leave out
HALO = 2  # half-width of the central stencils: the rows a block reads on each side
BLOCK_NODES = 16384  # chart nodes per row block of the passes over a chart (`row_blocks`)


# central 4th-order stencils on a unit-spacing grid
_C1 = np.array([1.0, -8.0, 0.0, 8.0, -1.0]) / 12.0
_C2 = np.array([-1.0, 16.0, -30.0, 16.0, -1.0]) / 12.0

# one-sided 4th-order stencils of the first two nodes of an open axis (rows
# 0, 1), over its first five (order 1) or six (order 2) nodes: the weights
# of Fornberg's recursion (Math. Comp. 51, 1988) as exact rationals
_B1 = np.array([[-25.0, 48.0, -36.0, 16.0, -3.0], [-3.0, -10.0, 18.0, -6.0, 1.0]]) / 12.0
_B2 = np.array([[45.0, -154.0, 214.0, -156.0, 61.0, -10.0],
                [10.0, -15.0, -4.0, 14.0, -6.0, 1.0]]) / 12.0


def diff_uniform(values: np.ndarray, h: float, order: int, periodic: bool, axis: int = 0) -> np.ndarray:
    """Differentiate sampled values along one axis of a uniform grid.

    order 1 or 2; 4th-order accurate. Periodic axes wrap; open axes use
    one-sided stencils of the same order at the two nodes nearest each end.
    """
    if order not in (1, 2):
        raise ValueError("order must be 1 or 2")
    v = np.asarray(values, dtype=float)
    n = v.shape[axis]
    if n < 8:
        raise ValueError("need at least 8 samples along the differentiated axis")
    axis %= v.ndim
    if periodic:
        return _diff_rows(_wrap_pad(v, axis), h, order, axis, HALO, n + HALO)
    return _diff_rows(v, h, order, axis, 0, n)


def row_blocks(nu: int, nv: int) -> list[tuple[int, int]]:
    """(r0, r1) of the row blocks of an nu x nv chart: at most BLOCK_NODES // nv
    rows each (at least 16), in blocks of nearly equal size."""
    nb = -(-nu // max(16, BLOCK_NODES // nv))
    return [(i * nu // nb, (i + 1) * nu // nb) for i in range(nb)]


def _wrap_pad(v: np.ndarray, axis: int) -> np.ndarray:
    """v wrap-padded by HALO nodes at each end of a periodic axis."""
    n = v.shape[axis]
    pre = (slice(None),) * axis
    return np.concatenate((v[pre + (slice(n - HALO, n),)], v, v[pre + (slice(0, HALO),)]),
                          axis=axis)


def _diff_rows(v: np.ndarray, h: float, order: int, axis: int, lo: int, hi: int) -> np.ndarray:
    """Derivative at the nodes lo:hi of v along axis (>= 0), the two ends of
    v being the ends of an open axis: the one place sampled values are
    differenced.

    A node with HALO nodes on each side takes the central stencil, the sum of
    c_k v[i + k], each tap a slice of v; a node nearer an end takes its
    one-sided stencil, mirrored at the far end (odd orders flip sign), summed
    tap by tap as well. So a node reads only the nodes of its stencil, and
    the rows of a block with its halo (or a wrap-padded periodic axis) have
    the bits of the whole axis.
    """
    n = v.shape[axis]
    pre = (slice(None),) * axis

    def nodes(a, b):
        return v[pre + (slice(a, b),)]

    shape = list(v.shape)
    shape[axis] = hi - lo
    out = np.empty(shape)
    c0, c1 = max(lo, HALO), min(hi, n - HALO)  # the central nodes
    cw = _C1 if order == 1 else _C2
    taps = [(c, nodes(c0 + k, c1 + k)) for k, c in zip(range(-HALO, HALO + 1), cw) if c != 0.0]
    mid = out[pre + (slice(c0 - lo, c1 - lo),)]
    np.multiply(taps[0][0], taps[0][1], out=mid)
    tmp = np.empty_like(mid)
    for c, tap in taps[1:]:
        mid += np.multiply(c, tap, out=tmp)
    bw = _B1 if order == 1 else _B2
    sign = -1.0 if order == 1 else 1.0
    for i in [*range(lo, min(hi, HALO)), *range(max(lo, n - HALO), hi)]:
        if i < HALO:
            w, js = bw[i], range(bw.shape[1])
        else:  # the mirror image of node n - 1 - i
            w, js = sign * bw[n - 1 - i], range(n - 1, n - 1 - bw.shape[1], -1)
        cell = out[pre + (slice(i - lo, i - lo + 1),)]
        np.multiply(w[0], nodes(js[0], js[0] + 1), out=cell)
        for c, j in zip(w[1:], js[1:]):
            cell += c * nodes(j, j + 1)
    out /= h ** order
    return out


def quadrature_weights(n: int, h: float, periodic: bool) -> np.ndarray:
    """Integration weights for one axis.

    Periodic: the trapezoidal rule degenerates to uniform weights (spectral
    accuracy for smooth periodic integrands). Open: trapezoidal over the
    interior band, leaving MARGIN nodes at each end with zero weight to
    keep one-sided-stencil noise out of integrals.
    """
    if periodic:
        return np.full(n, h)
    w = np.zeros(n)
    lo, hi = MARGIN, n - 1 - MARGIN
    if hi - lo < 2:
        raise ValueError("grid too small for open-chart quadrature margin")
    w[lo:hi + 1] = h
    w[lo] = w[hi] = 0.5 * h
    return w
