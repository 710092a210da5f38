"""The primal side: the piecewise sum f + g and the minima read off it.

On a closed-form instance val(P) is one vertex clamp per piece of f + g,
valued as f(x) + g(x); `tests/oracles.py` keeps the grid search plus
halving refinement it replaced as the reference.  A tabulated member pins
the instance to its grid, where the minima stay grid points.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from phidual import (
    BoxDomain,
    ProblemInstance,
    ProperFunction,
    TabulatedFunction,
    catalog_names,
    get_entry,
    proper_piecewise,
    val_primal,
)
from phidual.duality import _primal_minima
from phidual.functions import PiecewiseQuadratic, QuadraticPiece

from oracles import (
    affine_class,
    box1d,
    grid_refined_primal,
    lsc_class,
    random_bounded_piecewise,
    random_instance,
)

INF = math.inf

CUTS = (-3.0, -2.0, -1.5, -1.0, 0.0, 0.5, 1.0, 2.0, 3.0)
coeff = st.floats(min_value=-4, max_value=4, allow_nan=False)


@st.composite
def piecewise(draw) -> PiecewiseQuadratic:
    """Pieces between consecutive sorted cuts: a repeated cut gives a point
    piece, neighbours share endpoints, dropped pieces leave gaps and the
    ends are finite (a bounded domain) or infinite."""
    cuts = sorted(draw(st.lists(st.sampled_from(CUTS), min_size=1, max_size=5)))
    ends = [-INF] * draw(st.booleans()) + cuts + [INF] * draw(st.booleans())
    spans = list(zip(ends, ends[1:])) or [(cuts[0], cuts[0])]
    keep = draw(st.lists(st.booleans(), min_size=len(spans), max_size=len(spans)))
    if not any(keep):
        keep[draw(st.integers(0, len(spans) - 1))] = True
    return PiecewiseQuadratic(tuple(
        QuadraticPiece(lo, hi, draw(coeff), draw(coeff), draw(coeff))
        for (lo, hi), k in zip(spans, keep) if k
    ))


@settings(max_examples=300, deadline=None)
@given(f=piecewise(), g=piecewise())
def test_sum_of_piecewise_is_the_pointwise_sum(f, g):
    xs = np.concatenate([np.linspace(-5.0, 5.0, 201), CUTS, np.nextafter(CUTS, INF)])
    want = f.values(xs) + g.values(xs)
    if not np.any(np.isfinite(want)):
        with pytest.raises(ValueError):
            f + g
        return
    got = (f + g).values(xs)
    assert np.array_equal(np.isinf(got), np.isinf(want))
    fin = np.isfinite(want)
    np.testing.assert_allclose(got[fin], want[fin], rtol=1e-12, atol=1e-12)


def test_sum_keeps_the_lsc_selection_at_a_shared_endpoint():
    f = PiecewiseQuadratic((QuadraticPiece(-1.0, 0.0, 0.0, 0.0, 1.0),
                            QuadraticPiece(0.0, 1.0, 0.0, 0.0, 3.0)))
    g = PiecewiseQuadratic((QuadraticPiece(0.0, 2.0, 0.0, 0.0, 0.5),))
    s = f + g
    assert [(p.lo, p.hi) for p in s.pieces] == [(0.0, 0.0), (0.0, 1.0)]
    assert s(0.0) == 1.5 and s(0.5) == 3.5 and s(-0.5) == INF


def _closed_form_instances():
    insts = [get_entry(name).build() for name in catalog_names()]
    rng = np.random.default_rng(2024)
    insts += [random_instance(rng) for _ in range(30)]
    while len(insts) < 45:
        f, g = random_bounded_piecewise(rng), random_bounded_piecewise(rng)
        try:
            insts.append(ProblemInstance(f, g, box1d(n=501), affine_class(grid=17)))
        except ValueError:  # the domains do not meet on the grid
            continue
    return insts


@pytest.mark.parametrize("inst", _closed_form_instances())
def test_closed_form_primal_is_exact(inst):
    v, x = inst.primal
    assert v.hex() == (inst.f(x) + inst.g(x)).hex()
    assert not any(c == 0.0 and math.copysign(1.0, c) < 0 for c in x)
    ref_v, _ = grid_refined_primal(inst)
    assert v <= ref_v + 1e-12
    minima = _primal_minima(inst, 6)
    assert minima[0] == (v, x)
    assert [m[0] for m in minima] == sorted(m[0] for m in minima)


def _smooth_table_instance() -> ProblemInstance:
    """(x - 0.123)^2 tabulated with a plain callable on 41 points of [-2, 2],
    plus x^2/2: the minimizer 0.082 lies between grid points."""
    box = BoxDomain((-2.0,), (2.0,), (41,))
    f = ProperFunction(TabulatedFunction(box, lambda p: (p[0] - 0.123) ** 2), "f")
    g = proper_piecewise("g", (-INF, INF, 0.5, 0.0, 0.0))
    return ProblemInstance(f, g, box, affine_class(grid=17, v_max=8.0))


def test_tabulated_minima_stay_on_the_grid():
    inst = _smooth_table_instance()
    grid = set(inst.box.grid())
    xs = [x for _, x in _primal_minima(inst, 6)]
    assert xs and all(x in grid for x in xs)
    assert xs[0] == inst.primal[1] and abs(xs[0][0] - 0.1) < 1e-12


def test_tabulated_primal_matches_the_reference_grid_minimum():
    box = box1d(n=201)
    tab = TabulatedFunction(box, lambda p: abs(p[0] - 1.3) - math.cos(3.0 * p[0]))
    cases = [
        ProblemInstance(ProperFunction(tab, "f"), proper_piecewise("g", (-2.0, 4.0, 0.25, 0.0, 0.0)),
                        box, lsc_class(grid=9)),
        _smooth_table_instance(),
    ]
    for inst in cases:
        v, x = val_primal(inst)
        ref_v, ref_x = grid_refined_primal(inst)
        assert (v.hex(), [c.hex() for c in x]) == (ref_v.hex(), [c.hex() for c in ref_x])
