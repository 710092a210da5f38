"""The batched halving search against the sequential reference searches.

`refine_extremum` and `refine_in_params` evaluate each round's untried
candidates as one batch; `tests/oracles.py` keeps the point-by-point loops
they replaced.  Both must return the same value and point bit for bit
(signed zeros included), and a plain callable must receive exactly the
reference's calls.  The objectives below have ties, -inf plateaus, signed
zero values and optima on the bounds, where the candidates are clipped.
"""

import struct

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from phidual import BoxDomain, PhiClass, refine_extremum
from phidual.conjugation import refine_in_params

from oracles import sequential_refine_extremum, sequential_refine_in_params

NEG_INF = -np.inf

BOXES = {
    1: BoxDomain((-2.0,), (3.0,), (11,)),
    2: BoxDomain((-1.0, -2.0), (2.0, 1.0), (7, 9)),
}

CLASSES = [  # 1, 2, 2 and 3 parameters; small bounds so that clipping binds
    PhiClass("affine", dim=1, v_max=2.0, grid_sizes=(9,)),
    PhiClass("lsc-quadratic", dim=1, a_max=1.0, v_max=2.0, grid_sizes=(5, 9)),
    PhiClass("affine", dim=2, v_max=2.0, grid_sizes=(5, 7)),
    PhiClass("lsc-quadratic", dim=2, a_max=1.0, v_max=2.0, grid_sizes=(3, 5, 5)),
]


class LatticeObjective:
    """A concave quadratic in k coordinates, optionally quantized (ties),
    cut to -inf beyond a threshold (plateaus) and snapped to a signed zero
    near its level zero; per point or batched, with the same arithmetic."""

    def __init__(self, centre, curvature, slope, step, cut, zero_band):
        self.centre, self.curvature, self.slope = centre, curvature, slope
        self.step, self.cut, self.zero_band = step, cut, zero_band

    def values(self, rows: np.ndarray) -> np.ndarray:
        val = 0.0
        for j, (c, s) in enumerate(zip(self.centre, self.slope)):
            d = rows[:, j] - c
            val = val - self.curvature * d * d + s * rows[:, j]
        if self.step:
            val = np.floor(val / self.step) * self.step
        val = np.where(np.abs(val) < self.zero_band, np.copysign(0.0, rows[:, -1]), val)
        return np.where(rows[:, 0] > self.cut, NEG_INF, val)

    def __call__(self, p) -> float:
        return float(self.values(np.asarray([p], dtype=float))[0])


def objectives(k: int):
    coord = st.floats(min_value=-4.0, max_value=4.0, allow_nan=False)
    return st.builds(
        LatticeObjective,
        centre=st.lists(coord, min_size=k, max_size=k),
        curvature=st.sampled_from([0.0, 0.25, 1.0, 3.0]),
        slope=st.lists(st.sampled_from([0.0, -0.0, 1.0, -5.0, 40.0]), min_size=k, max_size=k),
        step=st.sampled_from([0.0, 0.5, 2.0]),
        cut=st.sampled_from([np.inf, 0.5, -0.25]),
        zero_band=st.sampled_from([0.0, 0.75]),
    )


def _bits(x) -> int:
    return struct.unpack("<q", struct.pack("<d", float(x)))[0]


def assert_bitwise_equal(got, want):
    (gv, gp), (wv, wp) = got, want
    assert _bits(gv) == _bits(wv), (gv, wv)
    assert [_bits(c) for c in gp] == [_bits(c) for c in wp], (gp, wp)


class Recorder:
    """A plain callable (no batch method) that records every call."""

    def __init__(self, objective):
        self.objective, self.points, self.calls = objective, [], []

    def __call__(self, p) -> float:
        self.points.append(p)
        self.calls.append(tuple(_bits(c) for c in p))
        return self.objective(p)


@st.composite
def point_searches(draw):
    box = BOXES[draw(st.sampled_from([1, 2]))]
    index = draw(st.integers(min_value=0, max_value=box.grid().size - 1))
    return (
        draw(objectives(box.dim)),
        box,
        box.grid().point(index),
        draw(st.integers(min_value=0, max_value=8)),
        draw(st.sampled_from(["sup", "inf"])),
    )


@st.composite
def param_searches(draw):
    phi_class = draw(st.sampled_from(CLASSES))
    k = phi_class.n_params
    grid = phi_class.param_grid()
    if draw(st.booleans()):
        seed = tuple(grid[draw(st.integers(min_value=0, max_value=len(grid) - 1))])
    else:  # off the grid and possibly outside the box: the seed is clipped
        seed = tuple(draw(st.lists(st.floats(-3.0, 3.0), min_size=k, max_size=k)))
    return draw(objectives(k)), phi_class, seed, draw(st.integers(min_value=0, max_value=8))


@settings(max_examples=300, deadline=None)
@given(search=point_searches())
def test_refine_extremum_batched_equals_sequential(search):
    objective, box, seed, rounds, kind = search
    want = sequential_refine_extremum(objective, box, seed, rounds, kind)
    assert_bitwise_equal(refine_extremum(objective, box, seed, rounds, kind), want)
    plain, reference = Recorder(objective), Recorder(objective)
    got = refine_extremum(plain, box, seed, rounds, kind)
    want = sequential_refine_extremum(reference, box, seed, rounds, kind)
    assert_bitwise_equal(got, want)
    assert plain.calls == reference.calls


@settings(max_examples=300, deadline=None)
@given(search=param_searches())
def test_refine_in_params_batched_equals_sequential(search):
    objective, phi_class, seed, rounds = search
    want = sequential_refine_in_params(objective, phi_class, seed, rounds)
    assert_bitwise_equal(refine_in_params(objective, phi_class, seed, rounds), want)
    plain, reference = Recorder(objective), Recorder(objective)
    got = refine_in_params(plain, phi_class, seed, rounds)
    want = sequential_refine_in_params(reference, phi_class, seed, rounds)
    assert_bitwise_equal(got, want)
    assert plain.calls == reference.calls


def test_batched_search_makes_one_call_per_round_and_improvement():
    """A round is one batch, plus one more for the rest of the lattice
    after each improvement; the seed is a batch of its own."""
    sizes = []

    class Counted(LatticeObjective):
        def values(self, rows):
            sizes.append(len(rows))
            return super().values(rows)

    objective = Counted([0.3, -0.6], 1.0, [0.0, 0.0], 0.0, np.inf, 0.0)
    plain = Recorder(objective)
    rounds = 6
    want = sequential_refine_extremum(plain, BOXES[2], (2.0, 1.0), rounds)
    values = [objective(p) for p in plain.points]
    improvements = sum(v > max(values[:i]) for i, v in enumerate(values) if i)
    assert improvements > 0
    sizes.clear()
    assert_bitwise_equal(refine_extremum(objective, BOXES[2], (2.0, 1.0), rounds), want)
    assert sizes[0] == 1 and sizes[1] == 25
    assert 1 + rounds <= len(sizes) <= 1 + rounds + improvements
