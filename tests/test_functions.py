import math

import numpy as np
import pytest

from phidual import (
    Elementary,
    INF,
    PhiClass,
    PiecewiseQuadratic,
    QuadraticPiece,
    pieces,
    proper_piecewise,
    support_membership,
)
from phidual.functions import (
    TabulatedFunction,
    quad_inf_on_interval,
    quad_sup_on_interval,
    quad_sup_on_interval_many,
    values_on_grid,
)

from oracles import box1d, dense_sup

F_DOUBLE = proper_piecewise(
    "f", (-INF, 0.0, 2.0, 4.0, 2.0), (0.0, INF, 2.0, -4.0, 2.0)
)


def test_evaluate_simple_quadratic():
    f = proper_piecewise("f", (-INF, INF, 2.0, 0.0, 0.0))
    assert f(1.0) == 2.0


def test_evaluate_double_parabola():
    assert F_DOUBLE(2.0) == 2.0
    assert F_DOUBLE(-2.0) == 2.0
    assert F_DOUBLE(0.0) == 2.0


def test_evaluate_outside_domain_is_infinite():
    f = proper_piecewise("f", (0.0, 1.0, 1.0, 0.0, 0.0))
    assert f(-5.0) == INF


def test_evaluate_dimension_mismatch():
    f = proper_piecewise("f", (-INF, INF, 1.0, 0.0, 0.0))
    with pytest.raises(ValueError):
        f((1.0, 2.0))


def test_shared_endpoint_takes_lower_value():
    f = pieces((0.0, 1.0, 0.0, 1.0, 0.0), (1.0, 2.0, 1.0, 0.0, 5.0))
    assert f(1.0) == 1.0  # min(1, 6)
    vals = f.values(np.array([1.0]))
    assert vals[0] == 1.0


def test_shift_by_quadratic_examples():
    f = pieces((-INF, INF, 2.0, 0.0, 0.0))
    assert f.shifted(1.0)(3.0) == 9.0  # 2x^2 - x^2
    assert f.shifted(0.0)(3.0) == f(3.0)
    half = pieces((0.0, INF, 2.0, -4.0, 2.0))
    shifted = half.shifted(1.0)
    xs = np.linspace(0, 5, 7)
    assert np.allclose(shifted.values(xs), xs * xs - 4 * xs + 2)
    with pytest.raises(ValueError):
        f.shifted(-0.5)


def test_piecewise_takes_plain_and_numpy_coordinates_and_points():
    f = pieces((-1.0, 1.0, 1.0, 0.0, 0.0))
    for x in (0.5, np.float32(0.5), np.float64(0.5), np.array(0.5), (0.5,), np.array([0.5])):
        assert f(x) == 0.25, type(x)
    assert f(np.int64(1)) == 1.0
    assert f(np.int64(2)) == INF


def test_pieces_must_be_sorted_and_disjoint():
    with pytest.raises(ValueError):
        pieces((0.0, 2.0, 1.0, 0.0, 0.0), (1.0, 3.0, 1.0, 0.0, 0.0))
    with pytest.raises(ValueError):
        PiecewiseQuadratic(())


def test_support_membership_examples():
    box = box1d()
    x_sq = proper_piecewise("L", (-INF, INF, 1.0, 0.0, 0.0))
    assert support_membership(Elementary(0.0, (0.0,), 0.0), x_sq, box)
    zero = proper_piecewise("z", (-INF, INF, 0.0, 0.0, 0.0))
    assert not support_membership(Elementary(0.0, (0.0,), 1.0), zero, box)
    neg_sq = proper_piecewise("g", (-INF, INF, -1.0, 0.0, 0.0))
    assert support_membership(Elementary(1.0, (0.0,), 0.0), neg_sq, box)


def test_elementary_rejects_negative_quadratic_coefficient():
    with pytest.raises(ValueError):
        Elementary(-0.5, (0.0,), 0.0)


def test_negation_only_within_affine():
    phi = Elementary(0.0, (2.0,), 1.0)
    neg = phi.negated()
    assert neg(3.0) == -phi(3.0)
    with pytest.raises(ValueError):
        Elementary(1.0, (0.0,), 0.0).negated()


def test_symmetric_class_rejects_quadratic_member():
    aff = PhiClass("affine", dim=1)
    assert aff.symmetric
    with pytest.raises(ValueError):
        aff.require_member(Elementary(0.5, (0.0,), 0.0))


def test_class_flags_by_kind():
    lsc = PhiClass("lsc-quadratic", dim=1)
    aff = PhiClass("affine", dim=1)
    const = PhiClass("constant-only", dim=1)
    for cls in (lsc, aff, const):
        assert cls.contains_zero and cls.additive and cls.convex_set
        assert cls.contains(Elementary(0.0, (0.0,) * cls.dim, 0.0))
    assert not lsc.symmetric
    assert aff.symmetric and const.symmetric


def test_param_grid_shapes_and_clipping():
    lsc = PhiClass("lsc-quadratic", dim=1, a_max=8.0, v_max=32.0, grid_sizes=(5, 9))
    grid = lsc.param_grid()
    assert grid.shape == (45, 2)
    assert grid[0].tolist() == [0.0, -32.0]
    assert lsc.clip_params((-1.0, 50.0)) == (0.0, 32.0)
    assert PhiClass("constant-only", dim=1).param_grid().shape == (1, 0)


def test_piecewise_matches_direct_polynomial_on_random_interior_points():
    rng = np.random.default_rng(7)
    f = pieces((-3.0, 1.0, 2.0, -1.0, 0.5), (1.0, 4.0, -0.5, 2.0, 1.0))
    for p in f.pieces:
        xs = rng.uniform(p.lo + 1e-9, p.hi - 1e-9, size=1000)
        assert np.array_equal(f.values(xs), (p.a2 * xs + p.a1) * xs + p.a0)


def test_shift_is_exact_pointwise_identity():
    rng = np.random.default_rng(11)
    f = pieces((-5.0, 0.0, 1.5, 2.0, -1.0), (0.0, 5.0, 3.0, -2.0, 1.0))
    fs = f.shifted(1.25)
    # coefficient-level identity is exact: only the leading term moves
    for p, q in zip(f.pieces, fs.pieces):
        assert (q.a2, q.a1, q.a0) == (p.a2 - 1.25, p.a1, p.a0)
        assert (q.lo, q.hi) == (p.lo, p.hi)
    xs = rng.uniform(-5, 5, size=500)
    assert np.allclose(fs.values(xs), f.values(xs) - 1.25 * xs * xs, atol=1e-12)


@pytest.mark.parametrize(
    "A,B,C,lo,hi",
    [
        (-2.0, 3.0, 1.0, -4.0, 5.0),
        (1.0, -2.0, 0.0, -1.0, 3.0),
        (0.0, 1.5, -2.0, -3.0, 2.0),
        (0.0, 0.0, 4.0, -1.0, 1.0),
        (-0.5, 0.0, 0.0, 2.0, 9.0),
    ],
)
def test_quad_sup_matches_dense_scan_on_bounded_intervals(A, B, C, lo, hi):
    v, x = quad_sup_on_interval(A, B, C, lo, hi)
    ov, _ = dense_sup(lambda t: (A * t + B) * t + C, lo, hi)
    assert abs(v - ov) < 1e-7
    assert lo <= x <= hi
    assert math.isclose(v, (A * x + B) * x + C, abs_tol=1e-12)


def test_quad_sup_unbounded_classification():
    assert quad_sup_on_interval(1.0, 0.0, 0.0, 0.0, INF)[0] == INF
    assert quad_sup_on_interval(0.0, 1.0, 0.0, 0.0, INF)[0] == INF
    assert quad_sup_on_interval(0.0, 1.0, 0.0, -INF, 0.0) == (0.0, 0.0)
    assert quad_sup_on_interval(-1.0, 4.0, -2.0, -INF, INF) == (2.0, 2.0)
    assert quad_sup_on_interval(0.0, 0.0, 3.0, -INF, INF)[0] == 3.0
    assert quad_inf_on_interval(1.0, 0.0, 0.0, -INF, INF) == (0.0, 0.0)
    assert quad_inf_on_interval(0.0, 1.0, 0.0, -INF, 0.0)[0] == -INF


def test_quad_sup_with_a_subnormal_coefficient(recwarn):
    # -B/(2A) and B*B/(4A) leave float range for A = -1e-310; on the line the
    # sup does too (+inf, no point), on [-1, 1] the vertex is simply outside
    A, B, C = np.array([-1e-310, -1e-310]), np.array([1.0, 0.0]), np.array([0.5, 0.5])
    vals, x = quad_sup_on_interval_many(A, B, C, -1.0, 1.0, points=True)
    assert vals.tolist() == [1.5, 0.5] and x.tolist() == [1.0, -1.0]
    assert quad_sup_on_interval(-1e-310, 1.0, 0.5, -1.0, 1.0) == (1.5, 1.0)
    vals, x = quad_sup_on_interval_many(A, B, C, -INF, INF, points=True)
    assert vals.tolist() == [INF, 0.5] and np.isnan(x[0]) and x[1] == 0.0
    assert quad_sup_on_interval_many(A, B, C, -INF, INF).tolist() == [INF, 0.5]
    assert quad_sup_on_interval(-1e-310, 1.0, 0.5, -INF, INF) == (INF, None)
    assert len(recwarn) == 0, [str(w.message) for w in recwarn]


def test_quad_sup_takes_numpy_scalars_as_floats(recwarn):
    # numpy scalars divide with an overflow warning where Python floats give
    # inf silently; the scalar clamp computes in Python floats either way
    args = (np.float64(-1e-310), np.float64(1.0), np.float64(0.5), -1.0, 1.0)
    got = quad_sup_on_interval(*args)
    assert got == quad_sup_on_interval(*(float(a) for a in args)) == (1.5, 1.0)
    assert all(type(c) is float for c in got)
    assert quad_sup_on_interval(*args[:3], -INF, INF) == (INF, None)
    assert len(recwarn) == 0, [str(w.message) for w in recwarn]


def test_tabulated_rejects_empty_domain():
    from phidual import TabulatedFunction

    with pytest.raises(ValueError):
        TabulatedFunction(box1d(n=11), lambda p: INF)
    tab = TabulatedFunction(box1d(n=11), lambda p: p[0] ** 2, "sq")
    assert tab(2.0) == 4.0


def test_values_on_grid_reads_a_tables_own_grid_values():
    # on its own box a table's grid values are the ones it computed once
    box = box1d(-1.0, 2.0, 31)
    tab = TabulatedFunction(box, lambda p: p[0] * p[0] - p[0], "t")
    assert values_on_grid(tab, box) is tab.grid_values
    other = box1d(-1.0, 2.0, 7)
    want = np.array([p[0] * p[0] - p[0] for p in other.grid()])
    assert values_on_grid(tab, other).tobytes() == want.tobytes()


@pytest.mark.parametrize("doc_name", ["twin-1d", "table-2d"])
def test_document_tables_take_their_grid_values_from_the_table(monkeypatch, doc_name):
    # a table read from a document lists its values at its own grid points,
    # so building it looks nothing up; the values are the lookup's, bit for bit
    from phidual import get_entry
    from phidual.serialize import NearestLookup, parse_instance

    from oracles import table_2d_doc, twin_document

    doc = {"twin-1d": lambda: twin_document(get_entry("example-6.1").build()),
           "table-2d": table_2d_doc}[doc_name]()
    calls = []
    lookup = NearestLookup.values
    monkeypatch.setattr(NearestLookup, "values", lambda self, p: calls.append(p) or lookup(self, p))
    inst = parse_instance(doc)
    assert calls == []
    for fn in (inst.f, inst.g):
        tab = fn.tabulated
        points = tab.box.grid().points
        assert tab.grid_values.tobytes() == tab.values(points).tobytes()
        assert not tab.grid_values.flags.writeable
