"""OBJ / CSV writers and the stereographic projection."""

import io

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conwill.builders import homogeneous_torus, plane_patch
from conwill.conformal_ops import hopf_differential
from conwill.export import (
    _GATHER_SHARE,
    FLT,
    _value_table,
    _write_rows,
    stereographic_project,
    write_curve_csv,
    write_obj,
    write_qd_csv,
    write_surface_csv,
)
from conwill.geom_core import SPHERE3


# Reference writers: one value per `%`, node by node. The package writers
# format whole blocks of rows at once and must reproduce these bytes.

def _ref_triangles(nu, nv, periodic_u, periodic_v):
    iu = nu if periodic_u else nu - 1
    iv = nv if periodic_v else nv - 1
    tris = []
    for i in range(iu):
        i1 = (i + 1) % nu
        for j in range(iv):
            j1 = (j + 1) % nv
            a = i * nv + j
            b = i1 * nv + j
            c = i1 * nv + j1
            d = i * nv + j1
            tris.append((a, b, c))
            tris.append((a, c, d))
    return np.asarray(tris, dtype=int)


def ref_write_obj(path, s):
    pts = s.position
    if s.space_form.kind == SPHERE3:
        pts = stereographic_project(pts)
    g = s.grid
    tris = _ref_triangles(g.nu, g.nv, g.periodic_u, g.periodic_v)
    with open(path, "w") as fh:
        for p in pts.reshape(-1, 3):
            fh.write("v " + " ".join(FLT % c for c in p) + "\n")
        for t in tris:
            fh.write("f %d %d %d\n" % (t[0] + 1, t[1] + 1, t[2] + 1))


def ref_write_surface_csv(path, s):
    fd = s.fundamental_data()
    g = s.grid
    dim = s.space_form.ambient_dim
    cols = ["i", "j"] + [f"x{k}" for k in range(dim)] + ["H", "G", "dsigma"]
    with open(path, "w") as fh:
        fh.write(",".join(cols) + "\n")
        for i in range(g.nu):
            for j in range(g.nv):
                row = [str(i), str(j)]
                row += [FLT % c for c in s.position[i, j]]
                row += [FLT % fd.H[i, j], FLT % fd.G[i, j], FLT % fd.dsigma[i, j]]
                fh.write(",".join(row) + "\n")


def ref_write_qd_csv(path, qd):
    g = qd.surface.grid
    with open(path, "w") as fh:
        fh.write("i,j,re_phi,im_phi\n")
        for i in range(g.nu):
            for j in range(g.nv):
                fh.write("%d,%d,%s,%s\n" % (
                    i, j, FLT % qd.phi[i, j].real, FLT % qd.phi[i, j].imag))


def ref_write_curve_csv(path, curve):
    dim = curve.position.shape[-1]
    cols = ["s", "kappa", "x", "y"] + (["z"] if dim == 3 else [])
    with open(path, "w") as fh:
        fh.write(",".join(cols) + "\n")
        for k in range(len(curve.s)):
            row = [FLT % curve.s[k], FLT % curve.kappa[k]]
            row += [FLT % c for c in curve.position[k]]
            fh.write(",".join(row) + "\n")


def _same_bytes(tmp_path, writer, ref_writer, obj):
    new, ref = tmp_path / "new.out", tmp_path / "ref.out"
    writer(new, obj)
    ref_writer(ref, obj)
    assert new.read_bytes() == ref.read_bytes()


@pytest.fixture(scope="module")
def two_block_torus():
    # 160 x 128 = 20480 vertex rows and 40960 face rows: both cross a block boundary
    return homogeneous_torus(0.6, 0.8, 160, 128)


@pytest.mark.parametrize("name", ["revolution_torus", "homog_torus", "sphere_band",
                                  "plane", "two_block_torus"])
def test_surface_writers_match_reference(tmp_path, request, name):
    s = plane_patch(1.5, 1.0, 40, 28) if name == "plane" else request.getfixturevalue(name)
    _same_bytes(tmp_path, write_obj, ref_write_obj, s)
    _same_bytes(tmp_path, write_surface_csv, ref_write_surface_csv, s)


def test_qd_csv_matches_reference(tmp_path, homog_torus):
    _same_bytes(tmp_path, write_qd_csv, ref_write_qd_csv, hopf_differential(homog_torus))


@pytest.mark.parametrize("name", ["circle_curve", "latitude_curve"])
def test_curve_csv_matches_reference(tmp_path, request, name):
    _same_bytes(tmp_path, write_curve_csv, ref_write_curve_csv, request.getfixturevalue(name))


def test_write_rows_object_table(tmp_path):
    # the check-gradients layout: a %s text column beside %.17g floats
    rows = [("area", 1e-4, np.float64(0.1), -0.0, 3.0e-300),
            ("willmore", 0.0, 2.0 / 3.0, np.float64(np.nan), 1e17)]
    path = tmp_path / "rows.csv"
    with open(path, "w") as fh:
        _write_rows(fh, "%s," + ",".join([FLT] * 4) + "\n", np.array(rows, dtype=object))
    expected = "".join("%s,%s,%s,%s,%s\n" % (r[0], FLT % r[1], FLT % r[2], FLT % r[3],
                                               FLT % r[4]) for r in rows)
    assert path.read_text() == expected


# Exactness of `_write_rows` value by value: each table is compared with one
# `%` per row, the formatting the writer must reproduce byte for byte.

def _written(row_fmt, table):
    buf = io.StringIO()
    _write_rows(buf, row_fmt, table)
    return buf.getvalue()


def _percent(row_fmt, table):
    return "".join(row_fmt % tuple(row) for row in table.tolist())


def _check_exact(row_fmt, table):
    got, want = _written(row_fmt, table), _percent(row_fmt, table)
    if got != want:
        bad = [(g, w) for g, w in zip(got.splitlines(), want.splitlines()) if g != w]
        raise AssertionError(f"{len(bad)} rows differ, first {bad[:3]}")


@settings(max_examples=60, deadline=None, derandomize=True)
@given(floats=st.lists(st.floats(width=64), min_size=1, max_size=40),
       ints=st.lists(st.integers(-2 ** 63, 2 ** 63 - 1), min_size=1, max_size=40))
def test_write_rows_matches_percent_on_drawn_values(floats, ints):
    x = np.array(floats)
    # %d of nan or inf raises in `%` as well; any other double has a %d
    whole = np.where(np.isfinite(x), x, 0.0)
    _check_exact("%.17g,%d %s;%.17g\n", np.column_stack([x, whole, x, -x]))
    i = np.array(ints, dtype=np.int64)
    _check_exact("%d|%.17g|%s%%\n", np.column_stack([i, i, i]))


def test_write_rows_matches_percent_on_random_bits():
    rng = np.random.default_rng(20260419)
    x = rng.integers(0, 2 ** 64, 2 ** 20, dtype=np.uint64).view(np.float64)
    _check_exact("%.17g\n", x[:, None])
    i = rng.integers(-2 ** 63, 2 ** 63 - 1, 2 ** 16)
    _check_exact("%d,%d\n", np.column_stack([i, i >> rng.integers(0, 63, len(i))]))


def test_write_rows_matches_percent_on_edge_values():
    powers = np.array([float(f"1e{k}") for k in range(-323, 309)])
    edges = np.concatenate([
        [0.0, -0.0, np.inf, -np.inf, np.nan, 5e-324, -5e-324,
         np.nextafter(2.2250738585072014e-308, 0.0), 2.2250738585072014e-308,
         1.7976931348623157e308, -1.7976931348623157e308,
         2.0 ** 53 - 1, 2.0 ** 53, 2.0 ** 53 + 2, 1000000000000000.25, 0.5, 0.1, 1e-4,
         9.9999999999999995e-5, 1e16, 1e17, 1e18, 123456789012345678.0, -1e17,
         99999999999999999.0, 0.30000000000000004, 1 / 3, 2 / 3],
        powers, np.nextafter(powers, 0.0), np.nextafter(powers, np.inf),
        # exact ties: 18 significant digits, the last a 5
        np.add.outer(10.0 ** 15 + np.arange(100), [0.25, 0.75]).ravel(),
        np.add.outer(10.0 ** 14 + np.arange(100), [0.125, 0.375, 0.625, 0.875]).ravel(),
    ])
    table = np.column_stack([edges, -edges])
    _check_exact("%.17g %.17g\n", table)
    assert _written("%.17g\n", np.array([[1000000000000000.25]])) == "1000000000000000.2\n"
    assert _written("%.17g\n", np.array([[np.nextafter(1e-304, 0.0)]])) == \
        "9.9999999999999977e-305\n"
    ints = np.array([0, -1, 1, 9, 10, -10, 9999, 10000, -99999999, 10 ** 17, 10 ** 18 - 1,
                     -(10 ** 18 - 1), 10 ** 18, -10 ** 18, 2 ** 63 - 1, -2 ** 63], dtype=np.int64)
    _check_exact("%d;%s\n", np.column_stack([ints, ints]))
    # %d of doubles: integral ones, fractions (truncated) and ones beyond 10^18
    whole = np.array([-0.0, 0.0, 3.0, -3.0, 2.5, -2.5, 1e17, 1e18, -1e18, 1e300, 2.0 ** 60])
    _check_exact("%d\n", whole[:, None])


# Columns with few distinct values are formatted once per value and gathered
# (`_value_table`); these tables repeat values so that they take that path.

def _gathered(conv, cols):
    return _value_table(conv, np.asarray(cols).reshape(len(cols), -1)) is not None


def test_write_rows_gathers_signed_zeros_nans_infs_and_ties():
    nans = np.array([0x7FF8000000000000, 0xFFF8000000000000, 0x7FF8000000000001,
                     0x7FF0000000000001, 0xFFFFFFFFFFFFFFFF], dtype=np.uint64).view(np.float64)
    values = np.concatenate([[0.0, -0.0, np.inf, -np.inf, 5e-324, -5e-324, 1e-5, 1e17, 0.5],
                             nans, 10.0 ** 15 + np.array([0.25, 0.75, 1.25])])  # exact ties
    col = np.tile(values, 1200)  # 20400 rows: three blocks
    rng = np.random.default_rng(7)
    table = np.column_stack([col, rng.permutation(col), -col])
    assert _gathered(".17g", col)
    _check_exact("%.17g,%.17g;%.17g\n", table)
    # the distinct values are keyed on their bits: 0.0 and -0.0 keep their own cells
    assert _written("%.17g %.17g\n", np.array([[0.0, -0.0]] * 4)) == "0 -0\n" * 4


def test_write_rows_gather_rule_edge():
    n = 4000
    rng = np.random.default_rng(11)
    u = int(_GATHER_SHARE * n)
    for count, gathered in [(u, True), (u + 1, False)]:
        values = rng.standard_normal(count) * 10.0 ** rng.integers(-8, 20, count)
        col = rng.permutation(np.resize(values, n))
        assert len(np.unique(col)) == count
        assert _gathered(".17g", col) is gathered
        _check_exact("%.17g|%.17g\n", np.column_stack([col, col[::-1]]))


def test_write_rows_narrow_int_columns_near_int64_limits():
    top = np.int64(2 ** 63 - 1) - np.arange(40, dtype=np.int64)
    bottom = np.int64(-2 ** 63) + np.arange(40, dtype=np.int64)
    mid = np.arange(-20, 20, dtype=np.int64)
    for col in (top, bottom, mid):
        col = np.tile(col, 50)
        assert _gathered("d", col)
        _check_exact("%d;%d\n", np.column_stack([col, col[::-1]]))
    # max - min overflows int64 (it is computed with Python ints): formatted block by block
    wide = np.tile(np.concatenate([top, bottom]), 50)
    assert not _gathered("d", wide)
    _check_exact("%d\n", wide[:, None])
    _check_exact("%d,%d\n", np.column_stack([np.tile(top, 50), np.tile(bottom, 50)]))
    huge = np.tile(np.uint64(2 ** 64 - 1) - np.arange(40, dtype=np.uint64), 50)
    assert not _gathered("d", huge)
    _check_exact("%d\n", huge[:, None])


def test_write_rows_float_int_columns():
    integral = np.tile([-3.0, -0.0, 0.0, 1.0, 2.0, 17.0], 300)
    fractional = np.tile([-2.5, -0.5, 0.5, 2.9999999999999996, -7.75], 300)
    large = np.tile([1e18, 1e18 + 128, 1e18 + 256], 300)  # cells by `%`
    for col in (integral, fractional, large):
        assert _gathered("d", col)
        _check_exact("%d %d\n", np.column_stack([col, -col]))
    i, j = np.indices((96, 90)).reshape(2, -1).astype(float)
    assert _gathered("d", np.column_stack([i, j]))
    _check_exact("%d,%d,%.17g\n", np.column_stack([i, j, np.sin(i) * np.cos(j)]))


def test_write_rows_object_table_keeps_its_path():
    rows = [("area", 1e-4, 0.1, -0.0, 3.0e-300), ("willmore", 0.0, 2.0 / 3.0, np.nan, 1e17)] * 300
    table = np.array(rows, dtype=object)
    assert not _gathered(".17g", table[:, 1])
    _check_exact("%s," + ",".join([FLT] * 4) + "\n", table)


def test_write_rows_rejects_other_formats():
    with pytest.raises(ValueError, match="unsupported"):
        _written("%5d\n", np.zeros((2, 1)))
    with pytest.raises(TypeError):
        _written("%d %d\n", np.zeros((2, 1)))


def test_stereographic_projection_values():
    pts = np.array([
        [1.0, 0.0, 0.0, 0.0],
        [0.0, 0.0, 0.0, -1.0],
    ])
    out = stereographic_project(pts)
    assert np.allclose(out[0], [1.0, 0.0, 0.0])
    assert np.allclose(out[1], [0.0, 0.0, 0.0])
    near_pole = np.array([[0.0, 0.0, 1e-8, 1.0 - 1e-16]])
    assert np.all(np.isfinite(stereographic_project(near_pole)))


def test_obj_face_counts(tmp_path, homog_torus, sphere_band):
    # doubly periodic: 2 * nu * nv triangles; open u-direction loses a row
    path = tmp_path / "t.obj"
    write_obj(path, homog_torus)
    lines = path.read_text().splitlines()
    nu, nv = homog_torus.grid.nu, homog_torus.grid.nv
    assert sum(1 for ln in lines if ln.startswith("v ")) == nu * nv
    assert sum(1 for ln in lines if ln.startswith("f ")) == 2 * nu * nv

    path2 = tmp_path / "band.obj"
    write_obj(path2, sphere_band)
    nu2, nv2 = sphere_band.grid.nu, sphere_band.grid.nv
    faces = sum(1 for ln in path2.read_text().splitlines() if ln.startswith("f "))
    assert faces == 2 * (nu2 - 1) * nv2

    # open in both directions: no wrapped faces
    nu3, nv3 = 20, 13
    path3 = tmp_path / "plane.obj"
    write_obj(path3, plane_patch(1.0, 1.0, nu3, nv3))
    tris = np.array([ln.split()[1:] for ln in path3.read_text().splitlines()
                     if ln.startswith("f ")], dtype=int)
    assert len(tris) == 2 * (nu3 - 1) * (nv3 - 1)
    assert tris.min() == 1 and tris.max() == nu3 * nv3
    assert np.all((tris[:, 0] != tris[:, 1]) & (tris[:, 1] != tris[:, 2])
                  & (tris[:, 0] != tris[:, 2]))


def test_surface_csv_columns(tmp_path, homog_torus):
    path = tmp_path / "s.csv"
    write_surface_csv(path, homog_torus)
    lines = path.read_text().splitlines()
    assert lines[0] == "i,j,x0,x1,x2,x3,H,G,dsigma"
    assert len(lines) == 1 + homog_torus.grid.nu * homog_torus.grid.nv
    row = lines[1].split(",")
    assert abs(float(row[6]) - 7.0 / 24.0) < 1e-12


def test_qd_csv_roundtrip(tmp_path, homog_torus):
    q = hopf_differential(homog_torus)
    path = tmp_path / "q.csv"
    write_qd_csv(path, q)
    lines = path.read_text().splitlines()
    assert lines[0] == "i,j,re_phi,im_phi"
    i, j, re, im = lines[1].split(",")
    assert abs(float(re) - float(q.phi[0, 0].real)) == 0.0
    assert float(im) == 0.0


def test_curve_csv(tmp_path, circle_curve):
    path = tmp_path / "c.csv"
    write_curve_csv(path, circle_curve)
    lines = path.read_text().splitlines()
    assert lines[0] == "s,kappa,x,y"
    assert len(lines) == 1 + len(circle_curve.s)


def test_deterministic_formatting(tmp_path):
    s = plane_patch(1.0, 1.0, 16, 16)
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    write_surface_csv(a, s)
    write_surface_csv(b, s)
    assert a.read_bytes() == b.read_bytes()
