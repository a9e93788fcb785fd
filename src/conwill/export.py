"""OBJ / CSV artifact writers.

S^3 surfaces are stereographically projected from the pole (0, 0, 0, 1)
before OBJ export. All writers format floats with repr-style %.17g so that
identical inputs give byte-identical files.

Each file is one table that `_write_rows` formats block-wise, one `%` per
block of rows; index columns are `%d` of floats ('%d' % 3.0 == '3').
"""

from __future__ import annotations

import numpy as np

from .geom_core import SPHERE3, ParamSurface

FLT = "%.17g"
_BLOCK_ROWS = 16384  # rows per `%`; bounds the formatted strings held at once


def stereographic_project(points: np.ndarray, clip: float = 1e-12) -> np.ndarray:
    """S^3 -> R^3 from the pole (0, 0, 0, 1): (x1, x2, x3)/(1 - x4)."""
    w = 1.0 - points[..., 3]
    w = np.where(np.abs(w) < clip, np.copysign(clip, w), w)
    return points[..., :3] / w[..., None]


def _write_rows(fh, row_fmt: str, table: np.ndarray) -> None:
    """Write each row of the 2-D `table` as `row_fmt`, one `%` per block of rows."""
    for start in range(0, len(table), _BLOCK_ROWS):
        block = table[start:start + _BLOCK_ROWS]
        fh.write((row_fmt * len(block)) % tuple(block.ravel().tolist()))


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
