"""Both function representations honour the one interface the library uses.

`sup_quadratic_offset` restricted to the box must give, bit for bit, what
row i of `sup_quadratic_offset_many` gives for the same coefficients, and
`shifted(a)` must subtract a*|x|^2 from the values.  Unrestricted sups
differ by design: exact sups over the whole line for piecewise quadratics,
grid maxima on the box for tables, which are +inf outside their box; the
single sup is the batch row either way, with its attaining point.
"""

import math

import numpy as np
import pytest

from phidual import BoxDomain, PhiClass, ProblemInstance, ProperFunction, TabulatedFunction, pieces
from phidual.duality import _dual_table, dual_value_at
from phidual.functions import CLOSED_FORM, GRID_ORACLE, quadratic_rows
from phidual.serialize import parse_instance

from oracles import box1d

BOX_1D = box1d(-3.0, 3.0, 121)
BOX_2D = BoxDomain((-2.0, -1.0), (1.0, 2.0), (31, 25))


def _cup_1d(p):
    return p[0] * p[0] - 0.5 * p[0] if p[0] >= -2.0 else math.inf


def _bowl_2d(p):
    x, y = p
    return x * x + 0.5 * y * y - x * y + y if x + y <= 2.0 else math.inf


def _file_table_1d() -> ProperFunction:
    values = [_cup_1d(p) for p in BOX_1D.grid()]
    return parse_instance(
        {
            "dimension": 1,
            "f": {"type": "tabulated", "table": {"values": ["+inf" if math.isinf(v) else v for v in values]}},
            "g": {"type": "tabulated", "table": {"values": [0.0] * len(values)}},
            "box": {"lower": list(BOX_1D.lower), "upper": list(BOX_1D.upper), "samples": list(BOX_1D.samples)},
            "phi": {"kind": "affine"},
        }
    ).f


CASES = {
    "piecewise": (
        ProperFunction.from_piecewise(
            pieces((-2.0, 0.5, 1.0, -0.5, 0.0), (0.5, math.inf, -0.25, 1.0, 0.125))
        ),
        BOX_1D,
        CLOSED_FORM,
    ),
    "tabulated-1d": (
        ProperFunction.from_tabulated(TabulatedFunction(BOX_1D, _cup_1d, "t1")),
        BOX_1D,
        GRID_ORACLE,
    ),
    "file-table-1d": (_file_table_1d(), BOX_1D, GRID_ORACLE),
    "tabulated-2d": (
        ProperFunction.from_tabulated(TabulatedFunction(BOX_2D, _bowl_2d, "t2")),
        BOX_2D,
        GRID_ORACLE,
    ),
}


def _rows(dim: int, n: int = 40):
    rng = np.random.default_rng(5)
    qa = rng.choice([-2.0, -0.5, 0.0, 0.25, 1.5], size=n)
    qb = rng.uniform(-4.0, 4.0, size=(n, dim))
    qc = rng.uniform(-1.0, 1.0, size=n)
    qb[0] = 0.0  # a flat row: the sup lands on the minimum of -f
    return qa, qb, qc


@pytest.mark.parametrize("name", sorted(CASES))
def test_restricted_sup_agrees_bitwise_with_its_many_row(name):
    f, box, method = CASES[name]
    assert f.method == method and f.rep.method == method
    qa, qb, qc = _rows(f.dim)
    many = f.sup_quadratic_offset_many(qa, qb, qc, box)
    for i in range(len(qa)):
        v, p = f.sup_quadratic_offset(float(qa[i]), tuple(qb[i]), float(qc[i]), box)
        assert np.float64(v).tobytes() == many[i].tobytes(), (name, i, v, many[i])
        if math.isfinite(v):
            assert box.contains(p)
            q = qa[i] * sum(c * c for c in p) + float(np.dot(qb[i], p)) + qc[i]
            assert abs(q - f(p) - v) <= 1e-9 * (1.0 + abs(v))


@pytest.mark.parametrize("name", sorted(CASES))
def test_shifted_subtracts_the_square(name):
    f, box, _ = CASES[name]
    rng = np.random.default_rng(9)
    pts = np.vstack([box.grid().points, rng.uniform(box.lower, box.upper, (200, f.dim))])
    sq = np.sum(pts * pts, axis=1)
    for a in (0.0, 0.75, 3.0):
        g = f.shifted(a)
        assert g.label == f.label + "~" and g.method == f.method
        np.testing.assert_allclose(g.values(pts), f.values(pts) - a * sq, rtol=1e-12, atol=1e-12)
    with pytest.raises(ValueError):
        f.shifted(-0.5)


def test_unrestricted_sup_is_at_least_the_box_sup():
    for name, (f, box, _) in CASES.items():
        qa, qb, qc = _rows(f.dim, 10)
        for i in range(len(qa)):
            args = (float(qa[i]), tuple(qb[i]), float(qc[i]), box)
            inside, _ = f.sup_quadratic_offset(*args)
            whole, _ = f.sup_quadratic_offset(*args, restrict=False)
            assert whole >= inside, (name, i)


@pytest.mark.parametrize("name", sorted(CASES))
def test_unrestricted_many_rows(name):
    f, box, method = CASES[name]
    qa, qb, qc = _rows(f.dim, 10)
    whole, at = f.sup_quadratic_offset_many(qa, qb, qc, box, restrict=False, points=True)
    if method == GRID_ORACLE:
        # a table is known on its grid only: the box rows, bit for bit
        inside = f.sup_quadratic_offset_many(qa, qb, qc, box)
        assert whole.tobytes() == inside.tobytes()
    for i in range(len(qa)):
        v, p = f.sup_quadratic_offset(float(qa[i]), tuple(qb[i]), float(qc[i]), box, restrict=False)
        assert np.float64(v).tobytes() == whole[i].tobytes(), (name, i, v, whole[i])
        want = np.full(f.dim, np.nan) if p is None else np.array(p)
        assert want.tobytes() == at[i].tobytes(), (name, i, p, at[i])


def _cell(f, qa: float, qb, qc: float, x, box, restrict: bool) -> float:
    """The value `sup_quadratic_offset_many` gives a row at its attaining
    point x: for a table the grid cell qa*|x|^2 + <qb, x> - h(x), plus qc;
    for pieces the greatest candidate at x of a piece holding it (the end
    value (A*x + B)*x + C, the vertex value C - B*B/(4A), C on a flat row)."""
    x = np.asarray(x, dtype=float)
    if f.method == GRID_ORACLE:
        return float(quadratic_rows(np.array([qa]), np.array([qb]), x[None])[0, 0] - f.values(x[None])[0] + qc)
    (x,), (qb,) = x, qb
    blo, bhi = (box.lower[0], box.upper[0]) if restrict else (-math.inf, math.inf)
    cells = []
    for p in f.rep.pieces:
        lo, hi = max(p.lo, blo), min(p.hi, bhi)
        if not lo <= x <= hi:
            continue
        A, B, C = qa - p.a2, qb - p.a1, qc - p.a0
        if x in (lo, hi):
            cells.append((A * x + B) * x + C)
        if A < 0 and x == -B / (2.0 * A):
            cells.append(C - B * B / (4.0 * A))
        if A == 0 and B == 0:
            cells.append(C)
    return max(cells)


@pytest.mark.parametrize("restrict", [True, False])
@pytest.mark.parametrize("name", sorted(CASES))
def test_many_attaining_points_reproduce_their_rows(name, restrict):
    f, box, _ = CASES[name]
    qa, qb, qc = _rows(f.dim)
    values = f.sup_quadratic_offset_many(qa, qb, qc, box, restrict)
    got, points = f.sup_quadratic_offset_many(qa, qb, qc, box, restrict, points=True)
    assert got.tobytes() == values.tobytes() and points.shape == (len(qa), f.dim)
    for i in range(len(qa)):
        if not math.isfinite(values[i]):
            assert np.all(np.isnan(points[i])), (name, i)
            continue
        cell = _cell(f, qa[i], qb[i], qc[i], points[i], box, restrict)
        assert np.float64(cell).tobytes() == values[i].tobytes(), (name, i, cell, values[i])


def test_a_table_never_calls_its_evaluator_outside_the_box():
    def inside_only(p):
        if not BOX_1D.contains(p):
            raise AssertionError(f"called outside the box at {p}")
        return _cup_1d(p)

    tab = TabulatedFunction(BOX_1D, inside_only, "strict")
    ref = CASES["tabulated-1d"][0].rep
    pts = np.array([[-3.5], [-3.0], [0.25], [3.0], [3.0 + 1e-12], [50.0], [np.nan]])
    want = [ref(p) if BOX_1D.contains(tuple(p)) else math.inf for p in pts]
    assert [tab(tuple(p)) for p in pts] == want
    assert tab.values(pts).tolist() == want
    shifted = tab.shifted(0.5)
    assert shifted((4.0,)) == math.inf and shifted.values(pts)[[0, 5]].tolist() == [math.inf] * 2
    assert tab.sup_quadratic_offset(1.0, (2.0,), 0.0, BOX_1D, restrict=False) == ref.sup_quadratic_offset(
        1.0, (2.0,), 0.0, BOX_1D
    )


@pytest.mark.parametrize("kind", ["lsc-quadratic", "affine"])
def test_dual_value_at_reads_the_dual_table(kind):
    # a table built from a callable: the scalar conjugates of `dual_value_at`
    # and the swept `_dual_table` are the same grid maxima
    box = box1d(-1.0, 1.0, 41)
    f = ProperFunction.from_tabulated(TabulatedFunction(box, lambda p: (p[0] - 0.033) ** 2, "f"))
    g = ProperFunction.from_tabulated(TabulatedFunction(box, lambda p: abs(p[0]) - 0.5 * p[0], "g"))
    cls = PhiClass(kind, a_max=2.0, v_max=3.0, grid_sizes=(5, 9) if kind == "lsc-quadratic" else (9,))
    inst = ProblemInstance(f, g, box, cls)
    params, table = _dual_table(inst)
    for row, want in zip(params, table):
        got = dual_value_at(inst, cls.member(tuple(row)))
        assert np.float64(got).tobytes() == want.tobytes(), (row, got, want)
