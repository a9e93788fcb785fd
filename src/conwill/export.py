"""OBJ / CSV artifact writers.

S^3 surfaces are stereographically projected from the pole (0, 0, 0, 1)
before OBJ export. Every file is one table that `_write_rows` writes a
block of rows at a time: floats as %.17g, index columns as %d
('%d' % 3.0 == '3') and text as %s, byte for byte as Python's `%` writes
them, so identical inputs give byte-identical files.

The numbers are formatted with numpy, without a Python call per value.
A %.17g cell of x = m * 2^e (`np.frexp`, m an integer below 2^53) is the
correctly rounded 17-digit decimal D * 10^(k - 16), D in [10^16, 10^17),
the digits Python's `%` writes:

* k = floor(log10 |x|), moved by one where the floor of the product
  |x| * 10^(16 - k) falls outside [10^16, 10^17);
* the product is m * 2^e times (H + L) * 2^b, a double-double within
  2^-106 of 10^(16 - k) that `fractions.Fraction` gives exactly for each
  exponent the first time a value needs it; m * H is an exact
  two-product, so the fraction of the product is known to within 2^-46;
* D rounds that product to nearest; a carry to 10^17 is 10^16 with k + 1;
* D's digits are laid out as %g lays them out: fixed notation for
  -4 <= k < 17, otherwise d.ddd...e+XX; trailing zeros are dropped, and the
  point when no fraction digit is left; a zero is 0 or -0.

A %d cell is the decimal digits of its integer value. Python's `%` still
writes single cells: inf and nan; a %.17g whose product lies within 2^-20
of a half-integer (an exact tie, which rounds to even, or a near one); a %d
of a value that is not an integer below 10^18 in magnitude, or of any
object column; and every %s cell.

Each distinct value is formatted once. The charts are built from separable
and rotationally symmetric factors, so most columns repeat a few values.
Before its first block, `_write_rows` sorts the float64 bits of each numeric
%.17g column (so 0.0 and -0.0 stay apart). A column whose distinct values
are at most `_GATHER_SHARE` of its rows is formatted for those values
only, and every block gathers its cells with one `np.take`; a column of
mostly distinct values is formatted block by block. The %d columns of a
table share one table, the cells of min..max, when max - min is below the
row count: OBJ faces and the CSV `i,j` columns. Object columns (the
check-gradients table) are formatted block by block.
"""

from __future__ import annotations

import re
from fractions import Fraction

import numpy as np

from .geom_core import SPHERE3, ParamSurface

FLT = "%.17g"
# rows formatted at once: a block's byte matrix, NUL-padded, is about twice
# its text, and the writer holds two copies of it while it compacts them
_BLOCK_ROWS = 8192
POLE_CLIP = 1e-12  # smallest |1 - x4| divided by in the stereographic projection


def stereographic_project(points: np.ndarray) -> np.ndarray:
    """S^3 -> R^3 from the pole (0, 0, 0, 1): (x1, x2, x3)/(1 - x4), with
    |1 - x4| clipped from below at POLE_CLIP."""
    w = 1.0 - points[..., 3]
    w = np.where(np.abs(w) < POLE_CLIP, np.copysign(POLE_CLIP, w), w)
    return points[..., :3] / w[..., None]


_SPEC = re.compile(r"%(\.17g|d|s|%)?")

# The ASCII digits of 0..9999, four to a uint32; the trailing zeros of each
# (4 for 0); and masks keeping the last and the first c bytes of a uint32,
# c = 0..4. Built from bytes, so the words mean the same on either byte order.
_QUAD_BYTES = (np.arange(10000, dtype=np.uint16)[:, None]
               // np.array([1000, 100, 10, 1], dtype=np.uint16) % 10 + ord("0")).astype(np.uint8)
_QUAD = _QUAD_BYTES.view(np.uint32).ravel()
_TRAIL = sum((_QUAD_BYTES[:, t:] == ord("0")).all(axis=1) for t in range(4)).astype(np.intp)
_KEEP_LAST = np.frombuffer(b"".join(b"\0" * (4 - c) + b"\xff" * c for c in range(5)), dtype=np.uint32)
_KEEP_FIRST = np.frombuffer(b"".join(b"\xff" * c + b"\0" * (4 - c) for c in range(5)), dtype=np.uint32)
# row n: the masks of the four words of digits 1..16 when n digits of the 17
# are written
_KEEP_WORDS = _KEEP_FIRST[np.clip(np.arange(18)[:, None] - [1, 5, 9, 13], 0, 4)]

# A %.17g cell is laid out as: the sign; the prefix 0.000 (5 columns, for
# -4 <= k < 0); the 17 digits of D, with a slot for the point after each
# digit that a point follows in some row; the suffix e+ddd (5 columns,
# outside -4 <= k < 17). A matrix has only the columns its rows use, and
# columns a row does not write stay NUL. The prefix, the suffix, the digit
# the point follows (-1: none) and the digits written whatever their value
# (the integer part) depend on k alone.
_K_MIN = -325  # k ranges over [-325, 309] before its last correction


def _k_tables():
    ks = range(_K_MIN, _K_MIN + 640)
    prefix = np.zeros((len(ks), 5), dtype=np.uint8)
    suffix = np.zeros((len(ks), 5), dtype=np.uint8)
    dot = np.full(len(ks), -1, dtype=np.intp)
    whole = np.ones(len(ks), dtype=np.intp)
    for i, k in enumerate(ks):
        if -4 <= k < 0:
            prefix[i, :1 - k] = np.frombuffer(b"0." + b"0" * (-k - 1), dtype=np.uint8)
        elif 0 <= k < 17:
            dot[i], whole[i] = k if k < 16 else -1, k + 1
        else:
            dot[i] = 0
            e = b"e%+03d" % k
            suffix[i, :len(e)] = np.frombuffer(e, dtype=np.uint8)
    return prefix, suffix, dot, whole


_PREFIX, _SUFFIX, _DOT, _WHOLE = _k_tables()

# Powers 10^s, s = 16 - k: rows H, Hh, Hl, L of _P10 and b in _P10_EXP, with
# 10^s = (H + L) * 2^b to within 2^-106 of it, H an integer in [2^52, 2^53]
# and Hh + Hl = H its halves of 26 bits. An entry is filled the first time a
# value needs it; any two fillings of it write the same numbers.
_S_MIN = 16 - (_K_MIN + 639)
_P10 = np.zeros((4, 640))
_P10_EXP = np.zeros(640, dtype=np.int64)
_P10_SEEN = np.zeros(640, dtype=bool)
_TIE_BAND = 2.0 ** -20  # products this close to a half-integer are left to `%`


def _split(a):
    """Veltkamp's split a = hi + lo, each of at most 26 significant bits."""
    c = 134217729.0 * a  # 2^27 + 1
    hi = c - (c - a)
    return hi, a - hi


def _pow10_entry(s: int) -> tuple[list[float], int]:
    x = Fraction(10) ** s
    b = x.numerator.bit_length() - x.denominator.bit_length() - 53
    y = x / Fraction(2) ** b
    while y >= 2 ** 53:
        y, b = y / 2, b + 1
    while y < 2 ** 52:
        y, b = y * 2, b - 1
    h = round(y)
    return [float(h), *_split(float(h)), float(y - h)], b


def _scaled_floor(m: np.ndarray, e: np.ndarray, k: np.ndarray):
    """Floor (int64) and fraction of m * 2^e * 10^(16 - k), the fraction to
    within 2^-46 where the product lies in [10^16, 10^17)."""
    i = 16 - _S_MIN - k
    if not _P10_SEEN[i.min():i.max() + 1].all():
        for j in np.unique(i[~_P10_SEEN[i]]).tolist():
            _P10[:, j], _P10_EXP[j] = _pow10_entry(j + _S_MIN)
            _P10_SEEN[j] = True
    H, hh, hl, lo = (np.take(row, i) for row in _P10)
    p = m * H
    mh, ml = _split(m)
    err = mh * hh  # Dekker: p + err == m * H exactly after four terms
    err -= p
    err += mh * hl
    err += ml * hh
    err += ml * hl
    err += m * lo
    # 2^(e + b) from its exponent bits: m * H is near 10^16.5 * 2^-(e + b)
    # and m, H < 2^53, so e + b is near -51, a normal double
    scale = np.take(_P10_EXP, i)
    scale += e
    scale += 1023
    scale <<= 52
    scale = scale.view(np.float64)
    err *= scale
    whole = np.floor(err)
    p *= scale
    D = p.astype(np.int64)
    D += whole.astype(np.int64)
    err -= whole
    return D, err


def _text_cells(cells: list[str]) -> np.ndarray:
    """The strings `cells` as the rows of a NUL-padded uint8 matrix."""
    arr = np.array([c.encode() for c in cells], dtype=bytes)
    return arr.view(np.uint8).reshape(len(cells), arr.itemsize)


def _divmod(a: np.ndarray, d: int):
    """a // d and a % d of non-negative int64 a: a scalar divisor lets numpy
    divide without a hardware division per value."""
    q = a // d
    return q, a - q * d


def _g17_cells(col: np.ndarray) -> np.ndarray:
    """%.17g of each value of col, as the rows of a NUL-padded uint8 matrix."""
    x = np.asarray(col, dtype=np.float64)
    a = np.abs(x)
    finite = np.isfinite(a)
    zero = a == 0
    a = np.where(finite & ~zero, a, 1.0)
    mant, e = np.frexp(a)
    m, e = mant * 2.0 ** 53, e - 53
    k = np.floor(np.log10(a)).astype(np.intp)
    D, frac = _scaled_floor(m, e, k)
    moved = np.flatnonzero((D < 10 ** 16) | (D >= 10 ** 17))
    if len(moved):
        k[moved] += np.where(D[moved] < 10 ** 16, -1, 1)
        D[moved], frac[moved] = _scaled_floor(m[moved], e[moved], k[moved])
    by_percent = np.flatnonzero(~finite | (np.abs(frac - 0.5) < _TIE_BAND)
                                | (D < 10 ** 16) | (D >= 10 ** 17))
    D += frac > 0.5
    carry = np.flatnonzero(D == 10 ** 17)
    D[carry], k[carry] = 10 ** 16, k[carry] + 1

    lead, rest = _divmod(D, 10 ** 16)
    lead[zero] = 0
    high, low = _divmod(rest, 10 ** 8)
    chunks = np.empty((len(x), 4), dtype=np.int64)  # digits 1-4, 5-8, 9-12, 13-16
    chunks[:, 0], chunks[:, 1] = _divmod(high, 10 ** 4)
    chunks[:, 2], chunks[:, 3] = _divmod(low, 10 ** 4)
    trail = np.take(_TRAIL, chunks[:, 3])  # trailing zeros of D
    short = np.flatnonzero(chunks[:, 3] == 0)
    if len(short):
        t = np.take(_TRAIL, chunks[short, 0])
        for c in range(1, 3):
            t = np.where(chunks[short, c] == 0, t + 4, np.take(_TRAIL, chunks[short, c]))
        trail[short] = t + 4
    ik = k - _K_MIN
    whole = np.take(_WHOLE, ik)
    n = np.maximum(17 - trail, whole)  # digits written
    words = np.take(_QUAD, chunks)
    words &= np.take(_KEEP_WORDS, n, axis=0)
    digits = words.view(np.uint8)  # digits 1..16
    dot = np.take(_DOT, ik)
    pointed = np.flatnonzero((n > whole) & (dot >= 0))
    dot = dot[pointed]
    neg = np.flatnonzero(np.signbit(x))
    prefixed = np.flatnonzero((k >= -4) & (k < 0))
    suffixed = np.flatnonzero((k < -4) | (k >= 17))
    slots = np.flatnonzero(np.bincount(dot, minlength=16))  # digits some point follows
    last = int(n.max())  # digits of the longest cell
    h = (len(neg) > 0) + 5 * (len(prefixed) > 0)
    width = h + last + len(slots) + 5 * (len(suffixed) > 0)
    out = np.zeros((len(x), width), dtype=np.uint8)
    np.put(out, neg * width, ord("-"))
    if len(prefixed):
        out[prefixed, h - 5:h] = np.take(_PREFIX, ik[prefixed], axis=0)
    out[:, h] = lead
    out[:, h] += ord("0")
    # digits d..last - 1 run up to each slot; slot_col[s] is the column of
    # the slot after digit s
    slot_col = np.zeros(16, dtype=np.intp)
    c, d = h + 1, 1
    for s in slots.tolist():
        out[:, c:c + s + 1 - d] = digits[:, d - 1:s]
        c += s + 1 - d
        slot_col[s] = c
        c, d = c + 1, s + 1
    out[:, c:c + last - d] = digits[:, d - 1:last - 1]
    np.put(out, pointed * width + np.take(slot_col, dot), ord("."))
    if len(suffixed):
        out[suffixed, -5:] = np.take(_SUFFIX, ik[suffixed], axis=0)
    return _by_percent(out, by_percent, [FLT % v for v in x[by_percent].tolist()])


def _by_percent(out: np.ndarray, idx: np.ndarray, text: list[str]) -> np.ndarray:
    """out with its rows idx replaced by text, widened to the widest."""
    if len(idx):
        txt = _text_cells(text)
        if txt.shape[1] > out.shape[1]:
            out = np.pad(out, ((0, 0), (0, txt.shape[1] - out.shape[1])))
        out[idx] = 0
        out[idx, :txt.shape[1]] = txt
    return out


def _d_cells(col: np.ndarray) -> np.ndarray:
    """%d of each value of col, as the rows of a NUL-padded uint8 matrix."""
    v = np.asarray(col)
    if v.dtype.kind == "f":
        ok = (np.abs(v) < 1e18) & (v == np.trunc(v))
    elif v.dtype.kind in "iub":
        ok = (v > -10 ** 18) & (v < 10 ** 18)
    else:  # objects: every cell by `%`
        v, ok = np.zeros(len(v)), np.zeros(len(v), dtype=bool)
    u = np.where(ok, np.abs(v), 0).astype(np.int64)
    width = len(str(int(u.max())))
    quads = -(-width // 4)
    n = sum((u >= 10 ** t for t in range(1, width)), np.ones(len(u), np.intp))  # digits
    words = (np.stack([np.take(_QUAD, u // 10 ** (4 * i) % 10 ** 4) for i in range(quads - 1, -1, -1)],
                      axis=1)
             & np.take(_KEEP_LAST, np.clip(n[:, None] - 4 * np.arange(quads - 1, -1, -1), 0, 4)))
    neg = np.flatnonzero(v < 0)
    out = np.zeros((len(u), (len(neg) > 0) + width), dtype=np.uint8)
    out[:, -width:] = words.view(np.uint8)[:, 4 * quads - width:]
    out[neg, 0] = ord("-")
    by_percent = np.flatnonzero(~ok)
    return _by_percent(out, by_percent, ["%d" % val for val in col[by_percent].tolist()])


_CELLS = {".17g": _g17_cells, "d": _d_cells,
          "s": lambda col: _text_cells(["%s" % v for v in col.tolist()])}

# A %.17g column is formatted once per distinct value and gathered when its
# distinct values are at most this share of its rows. Per 65536-row column,
# sort and NUL removal included, formatting block by block took 148 ns a
# row and gathering 68 ns a row plus 128 ns a distinct value: the two cross
# at 0.62-0.64 (docs/notes.md).
_GATHER_SHARE = 0.6


def _formatted(conv: str, values: np.ndarray) -> np.ndarray:
    """The cells of `values`, formatted a block at a time, in one matrix as
    wide as the widest block."""
    parts = [_CELLS[conv](values[i:i + _BLOCK_ROWS]) for i in range(0, len(values), _BLOCK_ROWS)]
    out = np.zeros((len(values), max(p.shape[1] for p in parts)), dtype=np.uint8)
    for i, p in enumerate(parts):
        out[i * _BLOCK_ROWS:i * _BLOCK_ROWS + len(p), :p.shape[1]] = p
    return out


def _value_table(conv: str, cols: np.ndarray):
    """(cells, index): the cells of the values in the numeric columns `cols`
    and the row of each value of cols in them, or None when the columns are
    formatted block by block."""
    if conv == "s" or cols.dtype.kind not in "iuf" or not cols.size:
        return None
    if conv == "d":
        v = np.trunc(cols) if cols.dtype.kind == "f" else cols  # '%d' % x is '%d' % int(x)
        lo, hi = v.min(), v.max()
        if not (np.isfinite(lo) and np.isfinite(hi)):
            return None
        lo, hi = int(lo), int(hi)  # Python ints: hi - lo does not overflow
        if hi - lo >= len(v) or lo < -2 ** 63 or hi >= 2 ** 63:
            return None
        index = v - lo if v.dtype.kind == "f" else v.astype(np.int64) - lo  # exact, below len(v)
        return (_formatted("d", np.arange(hi - lo + 1, dtype=np.int64) + lo),
                index.astype(np.min_scalar_type(hi - lo)))
    bits = np.ascontiguousarray(cols, dtype=np.float64).view(np.uint64).ravel()  # 0.0, -0.0 apart
    order = np.argsort(bits)
    ranked = bits[order]
    first = np.empty(len(ranked), dtype=bool)
    first[0] = True
    np.not_equal(ranked[1:], ranked[:-1], out=first[1:])
    if np.count_nonzero(first) > _GATHER_SHARE * len(ranked):
        return None
    distinct = ranked[first].view(np.float64)
    index = np.empty(len(ranked), dtype=np.min_scalar_type(len(distinct) - 1))
    first[0] = False  # ranked[i] is distinct[cumsum(first)[i]]
    index[order] = np.cumsum(first, dtype=index.dtype)
    return _formatted(".17g", distinct), index.reshape(cols.shape)


def _write_rows(fh, row_fmt: str, table: np.ndarray) -> None:
    """Write each row of the 2-D `table` as `row_fmt`, whose conversions are
    %.17g, %d and %s (and %% for a percent sign), byte for byte as
    `row_fmt % tuple(row)`.

    A numeric %.17g or %d column with few distinct values is formatted once
    per value (`_value_table`), and each block gathers its cells; the other
    columns are formatted block by block. A block of rows becomes one uint8
    matrix with the literal bytes and the NUL-padded cells side by side,
    written without its NULs; text (literals and %s cells) must therefore
    hold no NUL.
    """
    literals, specs, pos = [""], [], 0
    for match in _SPEC.finditer(row_fmt):
        conv = match.group(1)
        if conv is None:
            raise ValueError(f"unsupported conversion at {row_fmt[match.start():]!r}")
        literals[-1] += row_fmt[pos:match.start()] + ("%" if conv == "%" else "")
        if conv != "%":
            specs.append(conv)
            literals.append("")
        pos = match.end()
    literals[-1] += row_fmt[pos:]
    if table.ndim != 2 or table.shape[1] != len(specs):
        raise TypeError(f"{len(specs)} conversions in {row_fmt!r} for a table of shape {table.shape}")
    lits = [np.frombuffer(s.encode(), dtype=np.uint8) for s in literals]
    # all %d columns share one table, each %.17g column has its own
    values = [None] * len(specs)
    ints = [c for c, conv in enumerate(specs) if conv == "d"]
    for cols in [ints] + [[c] for c, conv in enumerate(specs) if conv == ".17g"]:
        found = _value_table(specs[cols[0]], table[:, cols]) if cols else None
        if found is not None:
            for i, c in enumerate(cols):
                values[c] = found[0], found[1][:, i]
    for start in range(0, len(table), _BLOCK_ROWS):
        stop = start + _BLOCK_ROWS
        block = table[start:stop]
        cells = [_CELLS[conv](block[:, c]) if values[c] is None
                 else np.take(values[c][0], values[c][1][start:stop], axis=0)
                 for c, conv in enumerate(specs)]
        rows = np.empty((len(block), sum(map(len, lits)) + sum(cell.shape[1] for cell in cells)),
                        dtype=np.uint8)
        at = 0
        for lit, cell in zip(lits, cells + [None]):
            rows[:, at:at + len(lit)] = lit
            at += len(lit)
            if cell is not None:
                # each row of the cell as one void item: a copy per row, not per byte
                w = cell.shape[1]
                rows[:, at:at + w].view(f"V{w}")[:, 0] = cell.view(f"V{w}")[:, 0]
                at += w
        del cells  # at most two copies of the block's bytes are held at once
        data = rows.tobytes()
        del rows
        fh.write(data.translate(None, b"\0").decode())


def write_obj(path, s: ParamSurface) -> None:
    pts = s.position
    if s.space_form.kind == SPHERE3:
        pts = stereographic_project(pts)
    g = s.grid
    # two triangles (a, b, c), (a, c, d) per quad of nodes a=(i,j), b=(i+1,j),
    # c=(i+1,j+1), d=(i,j+1); a periodic direction closes with wrapped indices
    i, j = np.indices((g.nu if g.periodic_u else g.nu - 1,
                       g.nv if g.periodic_v else g.nv - 1))
    i1, j1 = (i + 1) % g.nu, (j + 1) % g.nv
    a, b, c, d = i * g.nv + j, i1 * g.nv + j, i1 * g.nv + j1, i * g.nv + j1
    faces = np.stack([a, b, c, a, c, d], axis=-1).reshape(-1, 3) + 1
    with open(path, "w") as fh:
        _write_rows(fh, "v %.17g %.17g %.17g\n", pts.reshape(-1, 3))
        _write_rows(fh, "f %d %d %d\n", faces)


def write_surface_csv(path, s: ParamSurface) -> None:
    fd = s.fundamental_data()
    g = s.grid
    dim = s.space_form.ambient_dim
    cols = ["i", "j"] + [f"x{k}" for k in range(dim)] + ["H", "G", "dsigma"]
    table = np.column_stack([*np.indices((g.nu, g.nv)).reshape(2, -1), s.position.reshape(-1, dim),
                             fd.H.ravel(), fd.G.ravel(), fd.dsigma.ravel()])
    with open(path, "w") as fh:
        fh.write(",".join(cols) + "\n")
        _write_rows(fh, "%d,%d," + ",".join([FLT] * (dim + 3)) + "\n", table)


def write_qd_csv(path, qd) -> None:
    g = qd.surface.grid
    table = np.column_stack([*np.indices((g.nu, g.nv)).reshape(2, -1),
                             qd.phi.real.ravel(), qd.phi.imag.ravel()])
    with open(path, "w") as fh:
        fh.write("i,j,re_phi,im_phi\n")
        _write_rows(fh, "%d,%d,%.17g,%.17g\n", table)


def write_curve_csv(path, curve) -> None:
    dim = curve.position.shape[-1]
    cols = ["s", "kappa", "x", "y"] + (["z"] if dim == 3 else [])
    table = np.column_stack([curve.s, curve.kappa, curve.position])
    with open(path, "w") as fh:
        fh.write(",".join(cols) + "\n")
        _write_rows(fh, ",".join([FLT] * (dim + 2)) + "\n", table)
