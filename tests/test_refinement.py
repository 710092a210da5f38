"""The batched halving search against its sequential (point-by-point) reference.

`refine_extremum` and `refine_in_params` evaluate the seed as one batch and
each round's whole lattice as one more, then move to the round's best
candidate; `tests/oracles.py` runs the same step one candidate at a time.
Both must return the same value and point bit for bit (signed zeros
included), a plain callable must receive exactly the reference's calls, and
a batch objective exactly 1 + rounds batches.  The objectives below have
ties, -inf plateaus, signed zero values and optima on the bounds, where the
candidates are clipped.
"""

import struct

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from phidual import BoxDomain, PhiClass, refine_extremum
from phidual.conjugation import refine_in_params

from oracles import pointwise_halving_search

NEG_INF = -np.inf
OFFSETS = (-1.0, -0.5, 0.0, 0.5, 1.0)

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
        self.objective, self.calls = objective, []

    def __call__(self, p) -> float:
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


def reference_extremum(h, box, seed, rounds, kind):
    """`pointwise_halving_search` with the arguments `refine_extremum` uses."""
    sign = 1.0 if kind == "sup" else -1.0
    return pointwise_halving_search(
        h, seed, box.cell_sizes(), OFFSETS, box.lower, box.upper, rounds, sign
    )


def reference_in_params(objective, phi_class, seed, rounds):
    """`pointwise_halving_search` with the arguments `refine_in_params` uses."""
    axes = phi_class.param_axes()
    radii = [float(ax[1] - ax[0]) for ax in axes]
    offsets = OFFSETS if len(axes) <= 2 else (-1.0, 0.0, 1.0)
    lower, upper = phi_class.param_bounds()
    seed = phi_class.clip_params(seed)
    return pointwise_halving_search(objective, seed, radii, offsets, lower, upper, rounds)


class BatchCounter:
    """A batch objective that records the size of every batch it gets."""

    def __init__(self, objective):
        self.objective, self.sizes = objective, []

    def values(self, rows):
        self.sizes.append(len(rows))
        return self.objective.values(rows)


@settings(max_examples=300, deadline=None)
@given(search=point_searches())
def test_refine_extremum_batched_equals_sequential(search):
    objective, box, seed, rounds, kind = search
    want = reference_extremum(objective, box, seed, rounds, kind)
    assert_bitwise_equal(refine_extremum(objective, box, seed, rounds, kind), want)
    plain, reference = Recorder(objective), Recorder(objective)
    got = refine_extremum(plain, box, seed, rounds, kind)
    want = reference_extremum(reference, box, seed, rounds, kind)
    assert_bitwise_equal(got, want)
    assert plain.calls == reference.calls


@settings(max_examples=300, deadline=None)
@given(search=param_searches())
def test_refine_in_params_batched_equals_sequential(search):
    objective, phi_class, seed, rounds = search
    want = reference_in_params(objective, phi_class, seed, rounds)
    assert_bitwise_equal(refine_in_params(objective, phi_class, seed, rounds), want)
    plain, reference = Recorder(objective), Recorder(objective)
    got = refine_in_params(plain, phi_class, seed, rounds)
    want = reference_in_params(reference, phi_class, seed, rounds)
    assert_bitwise_equal(got, want)
    assert plain.calls == reference.calls


@settings(max_examples=100, deadline=None)
@given(point=point_searches(), param=param_searches())
def test_batched_search_makes_one_call_per_round(point, param):
    """A 1-row seed batch, then one whole lattice per round."""
    objective, box, seed, rounds, kind = point
    counted = BatchCounter(objective)
    refine_extremum(counted, box, seed, rounds, kind)
    assert counted.sizes == [1] + [len(OFFSETS) ** box.dim] * rounds
    objective, phi_class, seed, rounds = param
    counted = BatchCounter(objective)
    refine_in_params(counted, phi_class, seed, rounds)
    k = phi_class.n_params
    assert counted.sizes == [1] + [(5 if k <= 2 else 3) ** k] * rounds
