"""The one-parameter dual programs are solved to the maximum, not to a lattice.

On the affine class in 1D, val(CD), val(CD^sym), f** at a point and the
dual-subgradient test each maximize a concave function of one parameter v.
The grid winner is improved by supergradient cuts and bisection
(`conjugation._maximize_concave`), so a maximum at a kink between the
halving search's lattice points, or at the edge of the dual domain, is
reached up to rounding.  References are analytic, or a ternary search on
the same objective; the halving search of `refine_in_params` from the same
grid winner is the earlier method, which the new values must not fall
below.
"""

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from phidual import (
    BoxDomain,
    Elementary,
    PhiClass,
    ProperFunction,
    TabulatedFunction,
    proper_piecewise,
)
from phidual.conjugation import biconjugate, conjugates_at_params, phi_conjugate, refine_in_params
from phidual.core import BatchObjective
from phidual.duality import ProblemInstance, val_cd_sym, val_lagrangian_dual
from phidual.subdifferential import is_dual_subgradient

INF = math.inf
BOX = BoxDomain((-10.0,), (10.0,), (2001,))
AFFINE = PhiClass("affine", v_max=32.0)


def _close(got: float, want: float) -> bool:
    return abs(got - want) <= 1e-12 * (1.0 + abs(want))


def test_kink_between_lattice_points_is_reached():
    # f = -x^2 + x/3 on [-1, 2], g = x^2: *f(v) = max(v + 4/3, 10/3 - 2v) has
    # its kink at v = 2/3, where -*f turns from slope 2 to -1 and -g*(v) =
    # -v^2/4 has slope -1/3: val(CD) = -2 - 1/9, off every dyadic lattice
    f = proper_piecewise("f", (-1.0, 2.0, -1.0, 1.0 / 3.0, 0.0))
    g = proper_piecewise("g", (-INF, INF, 1.0, 0.0, 0.0))
    inst = ProblemInstance(f, g, BOX, AFFINE)
    val, phi = val_lagrangian_dual(inst)
    assert _close(val, -19.0 / 9.0) and abs(phi.v[0] - 2.0 / 3.0) <= 1e-12
    assert inst.dual == (val, phi) and val_cd_sym(inst) == (val, phi)


def test_maximum_at_the_edge_of_the_dual_domain():
    # g = x/3 on [0, inf) has g*(v) = 0 for v <= 1/3 and +inf beyond, so the
    # rows past 1/3 are -inf; f = (x - 3)^2 gives *f(v) = v^2/4 - 3v, so d
    # rises up to that edge: val(CD) = 1 - 1/36, the grid winner is v = 0
    # and v = 1 is -inf
    f = proper_piecewise("f", (-INF, INF, 1.0, -6.0, 9.0))
    g = proper_piecewise("g", (0.0, INF, 0.0, 1.0 / 3.0, 0.0))
    inst = ProblemInstance(f, g, BOX, AFFINE)
    val, phi = val_lagrangian_dual(inst)
    assert _close(val, 35.0 / 36.0) and 0.0 <= 1.0 / 3.0 - phi.v[0] <= 1e-12


def test_flat_maximum_keeps_its_grid_winner():
    # f = 2|x| and g the indicator of {0}: d = 0 on [-2, 2] and -inf beyond;
    # the first grid maximum, v = -2, stays the winner, for the pieces and
    # for their table on the box
    f = proper_piecewise("f", (-INF, 0.0, 0.0, -2.0, 0.0), (0.0, INF, 0.0, 2.0, 0.0))
    g = proper_piecewise("g", (0.0, 0.0, 0.0, 0.0, 0.0))
    tab = lambda h: ProperFunction.from_tabulated(TabulatedFunction(BOX, h.rep, h.label))
    for inst in (ProblemInstance(f, g, BOX, AFFINE), ProblemInstance(tab(f), tab(g), BOX, AFFINE)):
        val, phi = val_lagrangian_dual(inst)
        assert (val, phi.v) == (0.0, (-2.0,))
        assert val_cd_sym(inst)[1].v == (-2.0,)


def _dual_objective(inst):
    """-*f(v) - g*(v) at parameter rows, -inf where a conjugate is +inf."""

    def d(rows):
        lf = conjugates_at_params(inst.f, inst.phi, inst.box, rows, "left")
        gs = conjugates_at_params(inst.g, inst.phi, inst.box, rows, "right")
        return np.where((lf == INF) | (gs == INF), -INF, -lf - gs)

    return d


def _ternary_max(d, lo: float, hi: float) -> float:
    """max of a finite concave d on [lo, hi] by ternary search."""
    for _ in range(200):
        m1, m2 = lo + (hi - lo) / 3.0, hi - (hi - lo) / 3.0
        d1, d2 = d(np.array([[m1], [m2]]))
        lo, hi = (m1, hi) if d1 < d2 else (lo, m2)
    return float(max(d(np.array([[lo], [hi], [0.5 * (lo + hi)]]))))


def _grid_winner(d, phi_class):
    params = phi_class.param_grid()
    sweep = d(params)
    i = int(np.argmax(sweep))
    step = float(params[1, 0] - params[0, 0])
    lo, hi = max(params[i, 0] - step, -phi_class.v_max), min(params[i, 0] + step, phi_class.v_max)
    return params[i], float(sweep[i]), lo, hi


@st.composite
def _instances(draw):
    """A concave-on-an-interval f and a strongly convex g on the whole
    line, both finite conjugates at every v; as pieces or as tables."""
    coef = lambda lo, hi: draw(st.floats(lo, hi, allow_nan=False, allow_infinity=False))
    lo = -float(draw(st.integers(1, 4)))
    hi = float(draw(st.integers(1, 4)))
    f = proper_piecewise("f", (lo, hi, coef(-2.0, 2.0), coef(-3.0, 3.0), coef(-3.0, 3.0)))
    g = proper_piecewise("g", (-INF, INF, coef(0.25, 2.0), coef(-3.0, 3.0), coef(-3.0, 3.0)))
    box = BoxDomain((-5.0,), (5.0,), (201,))
    if draw(st.booleans()):
        f, g = (ProperFunction.from_tabulated(TabulatedFunction(box, h.rep, h.label)) for h in (f, g))
    phi = PhiClass("affine", v_max=8.0, grid_sizes=(17,))
    return ProblemInstance(f, g, box, phi)


@settings(max_examples=40, deadline=None)
@given(_instances(), st.floats(-4.0, 4.0))
def test_one_parameter_values_reach_the_maximum(inst, x):
    d = _dual_objective(inst)
    seed, grid_value, lo, hi = _grid_winner(d, inst.phi)
    halving = max(grid_value, refine_in_params(BatchObjective(d), inst.phi, tuple(seed))[0])
    ref = _ternary_max(d, lo, hi)
    val, phi = val_lagrangian_dual(inst)
    assert val >= halving - 1e-12 * (1.0 + abs(halving))
    assert val >= ref - 1e-12 * (1.0 + abs(ref))
    assert val == d(np.array([phi.v]))[0]
    assert val_cd_sym(inst)[0] >= ref - 1e-12 * (1.0 + abs(ref))

    # f**(x) = max over v of v*x - f*(v), concave in v as well
    fstar = lambda rows: rows[:, 0] * x - conjugates_at_params(inst.f, inst.phi, inst.box, rows)
    seed, grid_value, lo, hi = _grid_winner(fstar, inst.phi)
    halving = max(grid_value, refine_in_params(BatchObjective(fstar), inst.phi, tuple(seed))[0])
    ref = _ternary_max(fstar, lo, hi)
    bic = biconjugate(inst.f, (x,), inst.phi, inst.box)
    assert bic >= halving - 1e-12 * (1.0 + abs(halving))
    assert bic >= ref - 1e-12 * (1.0 + abs(ref))
    # the dual-subgradient test at phi_bar = 0 searches the same objective
    # less phi_bar(x) - f*(phi_bar)
    base = -phi_conjugate(inst.f, Elementary(0.0, (0.0,)), inst.box).value
    worst = is_dual_subgradient(inst.f, (x,), Elementary(0.0, (0.0,)), inst.phi, inst.box).worst_violation
    assert worst >= (ref - base) - 1e-12 * (1.0 + abs(ref - base))
