"""Local searches evaluate only inside their reach, and a family pruned to
the members that may win there gives the same numbers bit for bit.

Reach: a halving search (`core._halving_search`) from a seed with first
radii r evaluates strictly inside seed +- 2r, clipped to its bounds
(`core.halving_reach`); `conjugation._maximize_concave` from v0 with grid
step s only inside [v0 - s, v0 + s] clipped to its bounds.

Exactness: val(LP)'s refinement runs on `conjugation.family_within` of the
g** family, and the parameter searches on `ConjugateSum.within`.  Each is
compared with the unpruned computation (the pruning patched out): values
and attaining points must be equal bit for bit, signed zeros included,
with ties, members of infinite conjugate, extra members, a primal
minimizer outside the reach and 2D tables among the cases.
"""

import itertools
import math
import struct
from unittest import mock

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from phidual import (
    BoxDomain,
    Elementary,
    PhiClass,
    ProperFunction,
    TabulatedFunction,
    catalog,
    proper_piecewise,
)
from phidual import duality
from phidual.conjugation import (
    ConjugateSum,
    _maximize_concave,
    biconjugate_at_points,
    family_within,
    searched_family,
)
from phidual.core import _halving_search, halving_reach
from phidual.functions import NearestLookup, quadratic_rows
from phidual.duality import ProblemInstance, _dual_program, _lagrangian_primal_search

INF = math.inf
OFFSET_SETS = [(-1.0, -0.5, 0.0, 0.5, 1.0), (-1.0, 0.0, 1.0)]


def _bits(values) -> list[int]:
    return [struct.unpack("<q", struct.pack("<d", float(x)))[0] for x in np.ravel(values)]


def _key(obj):
    """The bits of a number, array or nested tuple of them (None stays None)."""
    if obj is None:
        return None
    if isinstance(obj, (tuple, list)):
        return tuple(_key(x) for x in obj)
    return np.shape(obj), tuple(_bits(obj))


def _same(got, want) -> bool:
    """Equal bit for bit, signed zeros included."""
    return _key(got) == _key(want)


# ---------------------------------------------------------------------------
# reach
# ---------------------------------------------------------------------------


class RecordedObjective:
    """-curvature*|p - centre|^2 + <direction, p>, batched; records every row."""

    def __init__(self, centre, direction, curvature):
        self.centre, self.direction, self.curvature = centre, direction, curvature
        self.rows = []

    def values(self, rows):
        self.rows.append(np.array(rows))
        d = rows - self.centre
        return -self.curvature * np.sum(d * d, axis=1) + rows @ self.direction


@st.composite
def halving_searches(draw):
    k = draw(st.integers(1, 3))
    vec = lambda lo, hi: np.array(draw(st.lists(st.floats(lo, hi), min_size=k, max_size=k)))
    seed, radii = vec(-50.0, 50.0), vec(0.01, 10.0)
    # bounds from tight (clipping binds at once) to far
    lower, upper = seed - vec(0.0, 100.0), seed + vec(0.0, 100.0)
    curvature = draw(st.sampled_from([0.0, 0.01, 1.0]))
    objective = RecordedObjective(vec(-200.0, 200.0), vec(-10.0, 10.0), curvature)
    offsets, rounds = draw(st.sampled_from(OFFSET_SETS)), draw(st.integers(0, 25))
    return objective, seed, radii, offsets, lower, upper, rounds


@settings(max_examples=300, deadline=None)
@given(halving_searches())
def test_halving_search_evaluates_strictly_inside_its_reach(search):
    objective, seed, radii, offsets, lower, upper, rounds = search
    _halving_search(objective, seed, radii, offsets, lower, upper, rounds)
    lo, hi = halving_reach(seed, radii, lower, upper)
    rows = np.vstack(objective.rows)
    assert len(objective.rows) == 1 + rounds
    assert np.all(np.abs(rows - seed) < 2.0 * radii)
    assert np.all((rows >= lo) & (rows <= hi))


@st.composite
def concave_solves(draw):
    """A concave d: the minimum of a few lines less a quadratic, -inf off an
    interval holding v0, with its supergradients; v0 need not be a grid
    maximum (the reach holds regardless)."""
    num = lambda lo, hi: draw(st.floats(lo, hi))
    n = draw(st.integers(1, 4))
    slopes = np.array([num(-5.0, 5.0) for _ in range(n)])
    heights = np.array([num(-5.0, 5.0) for _ in range(n)])
    curvature, centre = draw(st.sampled_from([0.0, 0.5, 3.0])), num(-5.0, 5.0)
    v0, step = num(-5.0, 5.0), num(0.01, 2.0)
    dom = (v0 - num(0.0, 3.0), v0 + num(0.0, 3.0))
    lower, upper = v0 - num(0.0, 3.0), v0 + num(0.0, 3.0)
    seen = []

    def oracle(vs):
        seen.extend(vs.tolist())
        lines = slopes[:, None] * vs + heights[:, None]
        k = np.argmin(lines, axis=0)
        d = lines[k, np.arange(len(vs))] - curvature * (vs - centre) ** 2
        s = slopes[k] - 2.0 * curvature * (vs - centre)
        inside = (vs >= dom[0]) & (vs <= dom[1])
        return np.where(inside, d, -INF), np.where(inside, s, 0.0)

    return oracle, seen, v0, step, lower, upper


@settings(max_examples=300, deadline=None)
@given(concave_solves())
def test_maximize_concave_evaluates_only_inside_its_reach(solve):
    oracle, seen, v0, step, lower, upper = solve
    _maximize_concave(oracle, v0, step, lower, upper)
    assert seen[0] == v0
    assert all(max(v0 - step, lower) <= v <= min(v0 + step, upper) for v in seen)


# ---------------------------------------------------------------------------
# (a) val(LP)'s refinement: the g** family within the reach
# ---------------------------------------------------------------------------

#: a concave member whose computed peak at 0.44044065148836664 is two ulps
#: above its computed bound over the interval (the greater end value plus
#: a*w^2/4, the exact maximum when the vertex is the midpoint), and a
#: constant member between the two: without the rounding allowance the
#: first member is dropped, though it alone attains the maximum there
NEAR_TIE = (
    np.array([5.025569068746253, 0.0]),
    np.array([[4.426929829476768], [0.0]]),
    np.array([1.1300330105304042, 0.15513308143638846]),
    (-0.47768407625462705,),
    (1.3585653792313603,),
    [0.44044065148836664],
)


@st.composite
def families(draw):
    """A 1D or 2D family with repeated members, signed zero slopes and
    conjugates (ties, and zero maxima at 0), members of infinite conjugate,
    and some points of a box: its ends, 0 and points inside."""
    dim = draw(st.sampled_from([1, 1, 2]))
    n = draw(st.integers(1, 40))
    a = np.array(draw(st.lists(st.sampled_from([0.0, 0.5, 1.0, 3.0, 8.0]), min_size=n, max_size=n)))
    coord = st.sampled_from([0.0, -0.0, 1.0, -1.0, 2.5, -4.0, 0.3])
    v = np.array(draw(st.lists(st.lists(coord, min_size=dim, max_size=dim), min_size=n, max_size=n)))
    fstar = np.array(draw(st.lists(
        st.one_of(st.sampled_from([0.0, -0.0, 1.0, -2.0, INF]), st.floats(-10.0, 10.0)),
        min_size=n, max_size=n,
    )))
    lower = tuple(draw(st.floats(-3.0, 1.0)) for _ in range(dim))
    upper = tuple(lo + draw(st.floats(0.0, 3.0)) for lo in lower)
    inner = draw(st.lists(st.tuples(*[st.floats(0.0, 1.0)] * dim), max_size=6))
    points = [list(lower), list(upper), [min(max(0.0, lo), hi) for lo, hi in zip(lower, upper)]]
    points += [[lo + t * (hi - lo) for t, lo, hi in zip(ts, lower, upper)] for ts in inner]
    return a, v, fstar, lower, upper, points


@settings(max_examples=400, deadline=None)
@given(families())
@example(NEAR_TIE)
@example((np.zeros(3), np.zeros((3, 1)), np.full(3, INF), (-1.0,), (1.0,), [[-1.0], [0.0], [1.0]]))
def test_family_within_keeps_every_member_that_can_win(family):
    a, v, fstar, lower, upper, points = family
    points = np.array(points, dtype=float).reshape(-1, v.shape[1])
    kept = family_within((a, v, fstar), lower, upper)
    assert _same(biconjugate_at_points(kept, points), biconjugate_at_points((a, v, fstar), points))
    for x in points:  # one-point batches, as a search's seed, reduce otherwise
        assert _same(biconjugate_at_points(kept, x[None]), biconjugate_at_points((a, v, fstar), x[None]))
    # every member attaining the maximum at a point is kept (so is the first)
    scores = quadratic_rows(-a, v, points) - fstar[:, None]
    rows = {tuple(_bits([ai, *vi, fi])) for ai, vi, fi in zip(*kept)}
    for j in np.flatnonzero(np.any((scores == scores.max(axis=0)) & (scores > -INF), axis=1)):
        assert tuple(_bits([a[j], *v[j], fstar[j]])) in rows
    if np.all(fstar == INF):
        assert len(kept[2]) == len(fstar)


BOX = BoxDomain((-2.0,), (3.0,), (41,))
LSC = PhiClass("lsc-quadratic", a_max=2.0, v_max=4.0, grid_sizes=(5, 9))


@st.composite
def lp_searches(draw):
    """A piecewise f and g (g with an unbounded concave piece, so that the
    members flatter than it have g* = +inf), extra members, and a candidate
    x_p anywhere in the box, mostly outside the refinement's reach."""
    num = lambda lo, hi: draw(st.floats(lo, hi))
    cut = num(-1.5, 2.5)
    f = proper_piecewise("f", (-INF, INF, num(0.0, 2.0), num(-3.0, 3.0), num(-3.0, 3.0)))
    g = proper_piecewise(
        "g",
        (-INF, cut, draw(st.sampled_from([-0.5, 0.0, 1.0])), num(-3.0, 3.0), num(-3.0, 3.0)),
        (cut, INF, num(0.0, 2.0), num(-3.0, 3.0), num(-3.0, 3.0)),
    )
    inst = ProblemInstance(f, g, BOX, LSC)
    extras = tuple(dict.fromkeys(
        Elementary(num(0.0, 2.0), (num(-4.0, 4.0),)) for _ in range(draw(st.integers(0, 2)))
    ))
    x_p = draw(st.one_of(st.none(), st.builds(lambda x: (x,), st.floats(-2.0, 3.0))))
    return inst, extras, x_p


def _unpruned(function, *args):
    """`function(*args)` with every search on the whole family or program."""
    with mock.patch.object(duality, "family_within", lambda family, lower, upper: family), \
            mock.patch.object(ConjugateSum, "within", lambda self, lower, upper: self):
        return function(*args)


@settings(max_examples=60, deadline=None)
@given(lp_searches())
def test_lagrangian_primal_search_equals_the_unpruned_search(search):
    """Every batch the refinement evaluates gives the whole family's g**, and
    the result is the unpruned search's.  Near ties that only the rounding
    allowance keeps (`NEAR_TIE`) take conjugates fitted to the ulp, which no
    instance here is; the allowance is checked by
    `test_family_within_keeps_every_member_that_can_win`."""
    inst, extras, x_p = search
    pruned, evaluated = {}, []

    def recording_within(family, lower, upper):
        kept = family_within(family, lower, upper)
        pruned[id(kept)] = kept, family
        return kept

    def checking_values(family, points):
        got = biconjugate_at_points(family, points)
        if id(family) in pruned:
            evaluated.append(len(points))
            assert _same(got, biconjugate_at_points(pruned[id(family)][1], points))
        return got

    with mock.patch.object(duality, "family_within", recording_within), \
            mock.patch.object(duality, "biconjugate_at_points", checking_values):
        got = _lagrangian_primal_search(inst, extras, x_p)
    assert evaluated
    assert _same(got, _unpruned(_lagrangian_primal_search, inst, extras, x_p))


def test_lagrangian_primal_refinement_keeps_few_members():
    # example-6.1: the lsc class (65 x 65 members plus the dual winners)
    inst = catalog.get_entry("example-6.1").build()
    extras = tuple(dict.fromkeys(p for p in (inst.dual[1], inst.symmetric_dual[1]) if p))
    family = searched_family(inst.g, inst.phi, inst.box, extras)
    x = inst.lagrangian_primal[1]
    box = inst.box
    kept = family_within(family, *halving_reach(x, box.cell_sizes(), box.lower, box.upper))
    assert 0 < len(kept[2]) < len(family[2]) / 10


# ---------------------------------------------------------------------------
# (b) parameter searches over tables: ConjugateSum.within
# ---------------------------------------------------------------------------

TABLE_CASES = {
    1: (BoxDomain((-2.0,), (3.0,), (31,)), [
        PhiClass("affine", v_max=4.0, grid_sizes=(9,)),
        PhiClass("lsc-quadratic", a_max=2.0, v_max=4.0, grid_sizes=(5, 9)),
    ]),
    2: (BoxDomain((-1.0, -2.0), (2.0, 1.0), (7, 9)), [
        PhiClass("affine", dim=2, v_max=3.0, grid_sizes=(5, 7)),
        PhiClass("lsc-quadratic", dim=2, a_max=1.0, v_max=3.0, grid_sizes=(3, 5, 5)),
    ]),
}


@st.composite
def table_programs(draw):
    """A dual program over tables with quantized values (ties), signed
    zeros and +inf entries (in 1D g may be piecewise): val(CD) (f left, g right) or f** at a
    point (f right), on a 1D or 2D box and a one- to three-parameter class,
    with a box of parameters around a grid member and rows in it."""
    dim = draw(st.sampled_from([1, 1, 2]))
    box, classes = TABLE_CASES[dim]
    phi_class = draw(st.sampled_from(classes))
    n = box.grid().size
    values = lambda: np.array(draw(st.lists(
        st.one_of(st.sampled_from([0.0, -0.0, 1.0, 2.5, INF]), st.integers(-8, 8).map(lambda k: k / 4)),
        min_size=n, max_size=n,
    )))
    tables = []
    for label in ("f", "g"):
        vals = values()
        vals[draw(st.integers(0, n - 1))] = 0.0  # some finite value
        table = TabulatedFunction(box, NearestLookup(box, vals), label)
        tables.append(ProperFunction.from_tabulated(table))
    if dim == 1 and draw(st.booleans()):  # a piecewise part stays as it is
        tables[1] = proper_piecewise("g", (-1.0, 2.0, draw(st.sampled_from([-1.0, 0.0, 2.0])), 0.5, 0.0))
    if draw(st.booleans()):
        program = ConjugateSum(phi_class, box, ((tables[0], "left"), (tables[1], "right")))
    else:
        x = box.grid().point(draw(st.integers(0, n - 1)))
        program = ConjugateSum(phi_class, box, ((tables[0], "right"),), x)
    grid = phi_class.param_grid()
    seed = grid[draw(st.integers(0, len(grid) - 1))]
    lower, upper = halving_reach(seed, phi_class.param_steps(), *phi_class.param_bounds())
    corners = np.array(list(itertools.product(*zip(lower, upper))))
    inner = np.array(draw(st.lists(
        st.lists(st.floats(0.0, 1.0), min_size=len(seed), max_size=len(seed)), min_size=1, max_size=8,
    )))
    rows = np.vstack([corners, lower + inner * (upper - lower)])
    return program, lower, upper, rows


@settings(max_examples=150, deadline=None)
@given(table_programs())
def test_conjugate_sum_within_equals_the_whole_program_inside_the_box(case):
    """Without the rounding allowance these would still pass: a table cell
    is computed by sums and products that are each monotone in every
    parameter, so its computed value is at most its greatest computed
    corner value, and the bounds are exact; the allowance is for the
    closed-form bounds of (a)."""
    program, lower, upper, rows = case
    near = program.within(lower, upper)
    assert all(isinstance(f, ProperFunction) for f, _ in near.parts)
    assert _same(near(rows), program(rows))
    if rows.shape[1] == 1:
        assert _same(near.slopes(rows), program.slopes(rows))
    for (f, side), (g, _) in zip(program.parts, near.parts):
        if f.tabulated is None:
            assert g is f
            continue
        a, v = program.phi_class.split_params(rows)
        s = 1.0 if side == "right" else -1.0
        got = g.sup_quadratic_offset_many(-s * a, s * v, 0.0, program.box, points=True)
        want = f.sup_quadratic_offset_many(-s * a, s * v, 0.0, program.box, points=True)
        assert _same(got, want)


class CheckedSum(ConjugateSum):
    """A restricted program that checks each call against the whole one."""

    def __init__(self, near: ConjugateSum, whole: ConjugateSum, calls: list):
        super().__init__(near.phi_class, near.box, near.parts, near.x, near.base)
        self.whole, self.calls = whole, calls

    def __call__(self, rows):
        self.calls.append(len(rows))
        got = super().__call__(rows)
        assert _same(got, self.whole(rows))
        return got

    def slopes(self, rows):
        self.calls.append(len(rows))
        got = super().slopes(rows)
        assert _same(got, self.whole.slopes(rows))
        return got


@settings(max_examples=60, deadline=None)
@given(table_programs())
def test_table_program_solve_equals_the_unpruned_solve(case):
    """Every call the search makes gives the whole program's numbers, and
    the result is the unpruned search's."""
    program, calls = case[0], []
    within = ConjugateSum.within
    checked = lambda self, lower, upper: CheckedSum(within(self, lower, upper), self, calls)
    with mock.patch.object(ConjugateSum, "within", checked):
        got = program.solve()
    assert calls or got[0] == -INF
    assert _same(got, _unpruned(program.solve))


def test_table_search_keeps_few_grid_points():
    # gap-instance's tabulated twin: 2001 grid points per table (a twin
    # whose winner sits where a cell turns from convex to concave in x, as
    # on example-6.1 at a = 1, keeps most of them)
    inst = catalog.get_entry("gap-instance").build()
    box = inst.box
    f, g = (ProperFunction.from_tabulated(TabulatedFunction(box, h.rep, h.label))
            for h in (inst.f, inst.g))
    program = _dual_program(ProblemInstance(f, g, box, inst.phi), inst.phi)
    sweep = program.sweep()
    seed = inst.phi.param_grid()[int(np.argmax(sweep))]
    near = program.within(*halving_reach(seed, inst.phi.param_steps(), *inst.phi.param_bounds()))
    for f, _ in near.parts:
        assert 0 < len(f.rep.points) < box.grid().size / 10
