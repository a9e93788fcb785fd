"""Finite-difference stencils and quadrature weights on uniform 1-D grids.

Fourth-order accuracy throughout: central 5-point stencils in the interior
and on periodic axes, one-sided stencils of matching order at open
boundaries.
"""

from __future__ import annotations

import numpy as np

MARGIN = 2  # nodes at each end of an open axis that integrals and variations leave out


def fornberg_weights(x0: float, xs: np.ndarray, m: int) -> np.ndarray:
    """Weights of the m-th derivative at x0 from samples at nodes xs.

    Standard recursive construction; exact for polynomials up to degree
    len(xs) - 1.
    """
    xs = np.asarray(xs, dtype=float)
    n = len(xs)
    w = np.zeros((m + 1, n))
    w[0, 0] = 1.0
    c1 = 1.0
    c4 = xs[0] - x0
    for i in range(1, n):
        mn = min(i, m)
        c2 = 1.0
        c5 = c4
        c4 = xs[i] - x0
        for j in range(i):
            c3 = xs[i] - xs[j]
            c2 *= c3
            if j == i - 1:
                for k in range(mn, 0, -1):
                    w[k, i] = c1 * (k * w[k - 1, i - 1] - c5 * w[k, i - 1]) / c2
                w[0, i] = -c1 * c5 * w[0, i - 1] / c2
            for k in range(mn, 0, -1):
                w[k, j] = ((xs[i] - x0) * w[k, j] - k * w[k - 1, j]) / c3
            w[0, j] = (xs[i] - x0) * w[0, j] / c3
        c1 = c2
    return w[m]


# central 4th-order stencils on a unit-spacing grid
_C1 = np.array([1.0, -8.0, 0.0, 8.0, -1.0]) / 12.0
_C2 = np.array([-1.0, 16.0, -30.0, 16.0, -1.0]) / 12.0

_NPTS = {1: 5, 2: 6}  # one-sided stencil width for 4th-order accuracy


def _boundary_weights(order: int) -> np.ndarray:
    """One-sided stencil table for the first two nodes (rows 0, 1)."""
    npts = _NPTS[order]
    rows = []
    for i in range(2):
        rows.append(fornberg_weights(float(i), np.arange(npts, dtype=float), order))
    return np.array(rows)


_B1 = _boundary_weights(1)
_B2 = _boundary_weights(2)


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
    cw = _C1 if order == 1 else _C2
    if periodic:
        out = _diff_periodic(v, cw, axis % v.ndim)
        out /= h ** order
        return out
    v = np.moveaxis(v, axis, 0)
    out = np.zeros_like(v)
    for k, c in zip(range(-2, 3), cw):
        if c != 0.0:
            out[2:n - 2] += c * v[2 + k:n - 2 + k]
    bw = _B1 if order == 1 else _B2
    npts = bw.shape[1]
    for i in range(2):
        out[i] = np.tensordot(bw[i], v[:npts], axes=(0, 0))
        # mirrored stencil at the far end; odd orders flip sign
        sign = -1.0 if order == 1 else 1.0
        out[n - 1 - i] = sign * np.tensordot(bw[i], v[n - npts:][::-1], axes=(0, 0))
    out /= h ** order
    return np.moveaxis(out, 0, axis)


def _diff_periodic(v: np.ndarray, cw: np.ndarray, axis: int) -> np.ndarray:
    """Unscaled sum of c_k v[i + k] along a periodic axis.

    The axis is wrap-padded by two nodes at each end once, and each stencil
    tap is a slice of the padded array, so no shifted copy of v is made.
    """
    n = v.shape[axis]
    pre = (slice(None),) * axis
    vp = np.concatenate((v[pre + (slice(n - 2, n),)], v, v[pre + (slice(0, 2),)]), axis=axis)
    taps = [(c, vp[pre + (slice(2 + k, 2 + k + n),)]) for k, c in zip(range(-2, 3), cw) if c != 0.0]
    c, tap = taps[0]
    out = c * tap
    tmp = np.empty_like(out)
    for c, tap in taps[1:]:
        out += np.multiply(c, tap, out=tmp)
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
