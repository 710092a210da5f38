"""The monotone-argmax sweeps against the dense (rows x points) maxima.

In 1D, `conjugate_table` of a table and the lattice part of
`biconjugate_on_grid` evaluate only the cells that `_monotone_row_max`
visits; `tests/oracles.py` keeps the dense maxima they replaced.  Conjugate
tables must agree bit for bit (signed zeros included: the table adds 0.0,
which makes every zero positive).  Biconjugate sweeps must agree in value;
only the sign of a zero may differ, because `np.max` picks between 0.0 and
-0.0 by its reduction order.  The tables below have +inf holes, ties
(constant, linear and integer-valued tables), noise and 2-3 point boxes.
"""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from phidual import BoxDomain, PhiClass, ProperFunction, TabulatedFunction
from phidual.conjugation import biconjugate_on_grid, conjugate_table
from phidual.functions import _monotone_row_max
from phidual.serialize import NearestLookup

from oracles import dense_biconjugate_on_grid, dense_conjugate_table, random_piecewise

INF = np.inf


def _table_values(kind: str, x: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    if kind == "constant":
        return np.full(x.shape, float(rng.integers(-3, 4)))
    if kind == "linear":
        return float(rng.integers(-3, 4)) * x + float(rng.integers(-3, 4))
    if kind == "integer":
        return rng.integers(-3, 4, size=x.shape).astype(float)
    if kind == "concave":
        return -float(rng.uniform(0.1, 3.0)) * x * x + float(rng.uniform(-2.0, 2.0)) * x
    return float(rng.uniform(-1.0, 3.0)) * x * x + rng.normal(scale=2.0, size=x.shape)


@st.composite
def tables(draw):
    """A 1D table on a box of 2 to 120 points, with or without +inf holes."""
    n = draw(st.one_of(st.integers(2, 3), st.integers(4, 120)))
    lo = draw(st.floats(-6.0, 1.0))
    box = BoxDomain((lo,), (lo + draw(st.floats(0.5, 12.0)),), (n,))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from(["constant", "linear", "integer", "concave", "noisy"]))
    values = _table_values(kind, box.grid().points[:, 0], rng)
    if draw(st.booleans()):
        holes = rng.random(n) < draw(st.sampled_from([0.2, 0.6, 0.95]))
        holes[rng.integers(n)] = False
        values = np.where(holes, INF, values)
    table = TabulatedFunction(box, NearestLookup(box, values), kind)
    return ProperFunction.from_tabulated(table), box


@st.composite
def classes(draw):
    """An affine or lsc class in 1D with 2 to 257 points on its v axis."""
    kind = draw(st.sampled_from(["affine", "lsc-quadratic"]))
    n_v = draw(st.one_of(st.integers(2, 3), st.integers(2, 257)))
    sizes = (draw(st.integers(2, 33)), n_v) if kind == "lsc-quadratic" else (n_v,)
    return PhiClass(
        kind,
        dim=1,
        a_max=draw(st.sampled_from([0.5, 2.0, 8.0])),
        v_max=draw(st.sampled_from([0.5, 4.0, 32.0])),
        grid_sizes=sizes,
    )


def _extras(cls: PhiClass, seed: int, k: int):
    rng = np.random.default_rng(seed)
    lower, upper = cls.param_bounds()
    return tuple(cls.member(rng.uniform(lower, upper)) for _ in range(k))


def _bits(x: np.ndarray) -> bytes:
    return np.ascontiguousarray(x, dtype=float).tobytes()


@settings(max_examples=120, deadline=None)
@given(tables(), classes(), st.sampled_from(["right", "left"]))
def test_table_conjugates_equal_dense_bit_for_bit(table, cls, side):
    f, box = table
    got = conjugate_table(f, cls, box, side)
    assert _bits(got) == _bits(dense_conjugate_table(f, cls, box, side))


@settings(max_examples=120, deadline=None)
@given(tables(), classes(), st.integers(0, 2**32 - 1), st.integers(0, 3))
def test_table_biconjugates_equal_dense(table, cls, seed, k):
    f, box = table
    extras = _extras(cls, seed, k)
    got = biconjugate_on_grid(f, cls, box, extras)
    want = dense_biconjugate_on_grid(f, cls, box, extras)
    assert np.array_equal(got, want)  # 0.0 == -0.0: only a zero's sign may differ


@settings(max_examples=80, deadline=None)
@given(
    st.integers(0, 2**32 - 1),
    classes(),
    st.one_of(st.integers(2, 3), st.integers(4, 301)),
    st.integers(0, 3),
)
def test_piecewise_biconjugates_equal_dense(seed, cls, n, k):
    """Exact conjugates have +inf entries (whole -inf columns of the sweep)."""
    f = random_piecewise(np.random.default_rng(seed))
    box = BoxDomain((-1.5,), (2.0,), (n,))
    extras = _extras(cls, seed, k)
    got = biconjugate_on_grid(f, cls, box, extras)
    assert np.array_equal(got, dense_biconjugate_on_grid(f, cls, box, extras))
    for side in ("right", "left"):
        table = conjugate_table(f, cls, box, side)
        assert _bits(table) == _bits(dense_conjugate_table(f, cls, box, side))


def test_two_dim_sweeps_stay_dense():
    box = BoxDomain((-1.0, -2.0), (2.0, 1.0), (9, 7))
    bowl = lambda p: p[0] * p[0] + 0.5 * p[1] * p[1] - p[0] * p[1] if p[0] + p[1] <= 1.0 else INF
    f = ProperFunction.from_tabulated(TabulatedFunction(box, bowl, "bowl"))
    extras_of = lambda cls: (cls.member(np.asarray(cls.param_bounds()[1]) * 0.3),)
    for cls in (
        PhiClass("affine", dim=2, v_max=3.0, grid_sizes=(5, 7)),
        PhiClass("lsc-quadratic", dim=2, a_max=1.0, v_max=3.0, grid_sizes=(3, 5, 5)),
    ):
        for side in ("right", "left"):
            got = conjugate_table(f, cls, box, side)
            assert _bits(got) == _bits(dense_conjugate_table(f, cls, box, side))
        got = biconjugate_on_grid(f, cls, box, extras_of(cls))
        assert _bits(got) == _bits(dense_biconjugate_on_grid(f, cls, box, extras_of(cls)))


def _workload_cells():
    """The cells of a lattice table (65 slices of 65 slopes x 2001 points)
    and of a g** sweep over its values (65 slices of 2001 points x 65 slopes)."""
    x = np.linspace(-10.0, 10.0, 2001)
    h = x * x + np.sin(3.0 * x)
    qa, qb = -np.linspace(0.0, 8.0, 65), np.linspace(-32.0, 32.0, 65)
    table = lambda s, i, j: (qa[s] * (x[j] * x[j]) + qb[i] * x[j]) - h[j]
    fstar = _monotone_row_max(table, len(qa), len(qb), len(x))
    sweep = lambda s, i, j: (qa[s] * (x[i] * x[i]) + qb[j] * x[i]) - fstar[s, j]
    return (table, (65, 65, 2001)), (sweep, (65, 2001, 65))


def test_kernel_evaluates_fewer_cells_than_dense():
    """65 slices of 65 x 2001: O((N + M) log N) cells each, not N*M."""
    (table, shape), _ = _workload_cells()
    seen = [0]

    def cell(s, i, j):
        seen[0] += np.broadcast(s, i, j).size
        return table(s, i, j)

    got = _monotone_row_max(cell, *shape)
    dense = table(*np.ix_(*map(np.arange, shape)))
    assert _bits(got) == _bits(dense.max(axis=2))
    assert seen[0] < dense.size // 4


@pytest.mark.parametrize("which", [0, 1], ids=["table-65x65x2001", "sweep-65x2001x65"])
def test_kernel_working_set(which):
    """One call at each 1D workload shape allocates at most 9.6 MiB at its
    peak, the most the kernel took at these shapes before its end rows
    bracketed the others; it is part of grid-1d's peak RSS."""
    cell, shape = _workload_cells()[which]
    tracemalloc.start()
    try:
        _monotone_row_max(cell, *shape)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 9.6 * 2**20


@st.composite
def monotone_slices(draw):
    """(cell, shape) of 1-3 slices, each with a leftmost row argmax that
    never moves left.

    Either a table (rows ascending slopes, columns ascending points, one
    value per column) or a g** sweep (rows ascending points, columns
    ascending slopes, one value per slice and column), 1-3 to 2001 rows
    against 1-65 columns.  Integer entries tie, +inf values make whole -inf
    columns (or slices), and a +inf row term makes the first or the last row
    -inf.  Cells add 0.0, so no row holds both signs of a zero maximum, of
    which `np.max` picks one by its reduction order.
    """
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n_slices = draw(st.integers(1, 3))
    n_rows = draw(st.one_of(st.integers(1, 3), st.integers(4, 60), st.integers(200, 2001)))
    n_cols = draw(st.one_of(st.integers(1, 3), st.integers(4, 65)))
    integer, holes = draw(st.booleans()), draw(st.sampled_from([0.0, 0.3, 1.0]))

    def values(*shape):
        return rng.integers(-4, 5, shape) * 1.0 if integer else rng.normal(scale=3.0, size=shape)

    qa = values(n_slices)
    r = np.zeros(n_rows)
    r[list(draw(st.sampled_from([(), (0,), (-1,), (0, -1)])))] = INF
    if draw(st.booleans()):
        b, x = np.sort(values(n_rows)), np.sort(values(n_cols))
        h = np.where(rng.random(n_cols) < holes, INF, values(n_cols))
        cell = lambda s, i, j: (((qa[s] * (x[j] * x[j]) + b[i] * x[j]) - h[j]) - r[i]) + 0.0
    else:
        x, v = np.sort(values(n_rows)), np.sort(values(n_cols))
        F = np.where(rng.random((n_slices, n_cols)) < holes, INF, values(n_slices, n_cols))
        cell = lambda s, i, j: (((qa[s] * (x[i] * x[i]) + v[j] * x[i]) - F[s, j]) - r[i]) + 0.0
    return cell, (n_slices, n_rows, n_cols)


@settings(max_examples=200, deadline=None)
@given(monotone_slices())
def test_kernel_equals_dense_row_maxima_bit_for_bit(slices):
    cell, shape = slices
    dense = cell(*np.ix_(*map(np.arange, shape))).max(axis=2)
    assert _bits(_monotone_row_max(cell, *shape)) == _bits(dense)
