"""Conjugates of proper functions with respect to an elementary class.

For phi(x) = -a*||x||^2 + <v, x> + c the two one-sided transforms are

    right:  f*(phi)  = sup_x  phi(x) - f(x)
    left:   *f(phi)  = sup_x -f(x) - phi(x)

Each is one call of the function's `sup_quadratic_offset` with the quadratic
phi (right) or -phi (left): exact for piecewise quadratics, the maximum over
the box's grid for tabulated functions, which are +inf outside their box
(see `functions`).  By default the sup runs over the function's own
conceptual domain; `restrict_to_box=True` limits the quantifier to the
working box, which is what the subgradient-side tests use.

`conjugate_table` and `biconjugate_on_grid` are maxima over the parameter
lattice (a axis x v rows).  In 1D both sweep it with the monotone-argmax
kernel `functions._monotone_row_max` (a table's conjugates through
`sup_quadratic_offset_lattice`; piecewise quadratics keep their exact
clamping): the first and last row of every a take the maximum over all
columns, the rows between are bisected inside the columns those bracket,
and a run of rows left with one column takes it in one call.  Extra family
members, refinement batches, single points and 2D take the dense (rows x
points) maximum.

The dual programs over the class (val(CD), val(CD^sym), f** at a point,
the dual-subgradient test) sweep the parameter grid and improve its winner
(`_sweep_and_refine`).  Each is concave in the parameters (`ConjugateSum`);
with one parameter, the affine class in 1D, it is solved to its maximum by
supergradient cuts and bisection (`_maximize_concave`), the supergradients
coming from the points that attain the conjugates.  With more parameters,
and for the sum condition's search, 20 halving rounds of `refine_in_params`
refine the winner.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Optional

import numpy as np

from .core import (
    INF,
    NEG_INF,
    ROW_CHUNK,
    BatchObjective,
    BoxDomain,
    Point,
    _halving_search,
    as_point,
    ext_add,
    is_finite,
)
from .functions import (
    Elementary,
    PhiClass,
    ProperFunction,
    _monotone_row_max,
    _squares,
    quadratic_rows,
    values_on_grid,
)


@dataclass(frozen=True)
class ConjugateValue:
    """A conjugate evaluation; no attaining point is reported when infinite."""

    value: float
    attaining_point: Optional[Point]
    method: str

    def __float__(self) -> float:
        return self.value


def _sup_offset(
    f: ProperFunction, phi: Elementary, sign: float, box: BoxDomain, restrict: bool
) -> ConjugateValue:
    """sup of sign*phi - f (sign=+1: right conjugate, -1: left)."""
    if phi.dim != f.dim:
        raise ValueError("dimension mismatch between phi and f")
    qb = tuple(sign * vi for vi in phi.v)
    v, p = f.sup_quadratic_offset(-sign * phi.a, qb, sign * phi.c, box, restrict)
    return ConjugateValue(v, p if is_finite(v) else None, f.method)


def phi_conjugate(
    f: ProperFunction,
    phi: Elementary,
    box: BoxDomain,
    restrict_to_box: bool = False,
) -> ConjugateValue:
    """f*(phi) = sup (phi - f)."""
    return _sup_offset(f, phi, +1.0, box, restrict_to_box)


def left_conjugate(
    f: ProperFunction,
    phi: Elementary,
    box: BoxDomain,
    restrict_to_box: bool = False,
) -> ConjugateValue:
    """*f(phi) = sup (-f - phi); equals f*(-phi) whenever -phi stays in the class."""
    return _sup_offset(f, phi, -1.0, box, restrict_to_box)


# ---------------------------------------------------------------------------
# vectorized conjugate tables over the truncated parameter grid
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ConjugateTable:
    """Conjugate values over a parameter matrix (c = 0 canonical form)."""

    params: np.ndarray  # (N, n_params)
    values: np.ndarray  # (N,), +inf allowed
    side: str  # "right" | "left"
    method: str


def conjugates_at_params(
    f: ProperFunction,
    phi_class: PhiClass,
    box: BoxDomain,
    params: np.ndarray,
    side: str = "right",
    points: bool = False,
):
    """Conjugate values of f at every parameter row (c = 0); with `points`,
    (values, attaining points) as `sup_quadratic_offset_many` gives them."""
    a, v = phi_class.split_params(params)
    sign = 1.0 if side == "right" else -1.0
    return f.sup_quadratic_offset_many(-sign * a, sign * v, 0.0, box, restrict=False, points=points)


@lru_cache(maxsize=64)
def conjugate_table(
    f: ProperFunction, phi_class: PhiClass, box: BoxDomain, side: str = "right"
) -> ConjugateTable:
    """`conjugates_at_params` over the whole parameter grid, computed as the
    (a axis x v rows) lattice it is: one monotone-argmax sweep per a for a
    1D table, the same values as the dense rows."""
    a, v = phi_class.lattice()
    sign = 1.0 if side == "right" else -1.0
    values = f.sup_quadratic_offset_lattice(-sign * a, sign * v, 0.0, box, restrict=False)
    values = values.ravel()
    values.setflags(write=False)
    return ConjugateTable(phi_class.param_grid(), values, side, f.method)


def refine_in_params(
    objective,
    phi_class: PhiClass,
    seed_params,
    rounds: int = 20,
) -> tuple[float, tuple[float, ...]]:
    """Local maximization of `objective(params)` around a parameter-grid seed.

    The halving search of `refine_extremum`, but in the truncated parameter
    box of the class (candidates are clipped to it), so refined winners remain
    members of the searched family.  Each round evaluates the offset lattice
    around the incumbent (5 offsets per axis up to 2 parameters, 3 beyond),
    moves to its best candidate if that improves, and halves the radii.  A
    round is one call of `objective.values(rows)` when the objective has that
    batch method (an (N, n_params) array in, N values out, each as
    `objective(row)` would give it; see `core.BatchObjective`); any other
    objective is called candidate by candidate, with the same value and
    parameters as the result.  `_sweep_and_refine` uses it for the programs
    with two or more parameters and for the sum condition's search; the
    one-parameter conjugate programs are solved by `_maximize_concave`.
    """
    axes = phi_class.param_axes()
    if not axes:
        p = ()
        return objective(p), p
    radii = [float(ax[1] - ax[0]) for ax in axes]
    offsets = (-1.0, -0.5, 0.0, 0.5, 1.0) if len(axes) <= 2 else (-1.0, 0.0, 1.0)
    lower, upper = phi_class.param_bounds()
    seed = phi_class.clip_params(seed_params)
    return _halving_search(objective, seed, radii, offsets, lower, upper, rounds)


class ConjugateSum:
    """The dual objective  p -> phi_p(x) - base - sum_k C_k(s_k*p)  over
    parameter rows p, where C_k is the `side_k` conjugate of f_k
    (`conjugates_at_params`) and phi_p the member of the class; -inf
    wherever some C_k is +inf.  Without `x` the sum starts at -C_1.

    Called on an (N, n_params) array it returns the N values.  It is
    concave in p; with one parameter (the affine class in 1D), `slopes(rows)`
    returns the values and a supergradient per row,
    x - sum_k s_k*t_k*y_k, where y_k attains C_k and t_k is +1 for a right
    conjugate and -1 for a left one (Danskin).
    """

    def __init__(self, phi_class: PhiClass, box: BoxDomain, parts, x: Optional[Point] = None,
                 base: float = 0.0):
        self.phi_class, self.box, self.parts, self.x, self.base = phi_class, box, parts, x, base

    def _evaluate(self, rows: np.ndarray, points: bool):
        d, slope, infinite = None, 0.0 if self.x is None else self.x[0], False
        if self.x is not None:
            d = self.phi_class.member_values(rows, self.x) - self.base
        for f, side, s in self.parts:
            c = conjugates_at_params(f, self.phi_class, self.box, s * rows, side, points)
            if points:
                c, y = c
                slope = slope - (s if side == "right" else -s) * y[:, 0]
            infinite = infinite | (c == INF)
            d = -c if d is None else d - c
        d = np.where(infinite, NEG_INF, d)
        return (d, slope) if points else d

    def __call__(self, rows: np.ndarray) -> np.ndarray:
        return self._evaluate(rows, False)

    def slopes(self, rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        return self._evaluate(rows, True)


#: oracle calls of `_maximize_concave` at most; with the midpoint in every
#: call, a bracket of one grid step is a few ulps wide well before this
_MAX_STEPS = 80


def _maximize_concave(oracle, v0: float, step: float, lower: float, upper: float):
    """(value, point) of the maximum of a concave d on [lower, upper], from
    the maximum v0 of d on a grid of spacing `step`.

    `oracle(vs)` returns d and a supergradient at every entry of an array;
    d is -inf off its domain, an interval holding v0.  Since d(v0) is at
    least d at both grid neighbours, concavity puts the maximum in
    [v0 - step, v0 + step]; the first call evaluates v0 and those two ends.
    The evaluated points keep a bracket: the last feasible point with a
    positive supergradient and the next point, which is feasible with a
    negative one or -inf; a point with supergradient 0 is a maximum, and a
    bracket end that is the end of the interval holds the maximum.  Each
    further call evaluates, inside the bracket, its midpoint and, when both
    ends are feasible, the intersection of their cuts d(e) + s_e*(v - e)
    (Kelley's cutting plane, exact at a kink of a piecewise-linear d) and
    the zero of the secant of their supergradients (exact on a quadratic
    piece of d).  The search stops when the cuts' intersection, an upper
    bound of d on the bracket, is within rounding of the best value, when
    the bracket is a few ulps wide, or after `_MAX_STEPS` calls.  Returns
    the first evaluated point of greatest value, v0 first.
    """
    vs = [v0, max(v0 - step, lower), min(v0 + step, upper)]
    best, known = (NEG_INF, v0), []
    for _ in range(_MAX_STEPS):
        d, s = oracle(np.array(vs))
        for v, dv, sv in zip(vs, d.tolist(), s.tolist()):
            if dv > best[0]:
                best = (dv, v)
            if dv > NEG_INF and not sv != 0.0:
                return best
            known.append((v, dv, sv))
        known.sort()
        feasible = [k for k, e in enumerate(known) if e[1] > NEG_INF]
        rising = [k for k in feasible if known[k][2] > 0.0]
        ia = rising[-1] if rising else feasible[0] - 1 if feasible else -1
        if ia < 0 or ia + 1 == len(known):
            return best
        known = known[ia : ia + 2]
        (a, da, sa), (b, db, sb) = known
        if b - a <= 4.0 * np.spacing(max(abs(a), abs(b), 1.0)):
            break
        vs = [0.5 * (a + b)]
        if da > NEG_INF and db > NEG_INF:
            cut = (db - da + sa * a - sb * b) / (sa - sb)
            if da + sa * (cut - a) - best[0] <= 4.0 * np.spacing(max(abs(da), abs(db)) + sa * (b - a)):
                break
            vs = sorted({v for v in (cut, a + sa * (b - a) / (sa - sb), vs[0]) if a < v < b})
    return best


def _sweep_and_refine(
    values, phi_class: PhiClass, params: np.ndarray, sweep: np.ndarray
) -> tuple[float, Optional[tuple[float, ...]]]:
    """(value, parameters) of the best row of `sweep` (values at the rows of
    `params`, the class's parameter grid), improved by a local search on the
    batch objective `values` and replaced only when that finds a strictly
    larger value; (-inf, None) when every row is -inf.

    A `ConjugateSum` with one parameter is maximized exactly by
    `_maximize_concave` from the grid winner, with its supergradients; any
    other objective is refined for 20 rounds by `refine_in_params`.
    """
    i = int(np.argmax(sweep))
    best = float(sweep[i]), tuple(params[i])
    if best[0] == NEG_INF:
        return NEG_INF, None
    if params.shape[1] == 0:
        return best
    if params.shape[1] == 1 and isinstance(values, ConjugateSum):
        (axis,), ((lower,), (upper,)) = phi_class.param_axes(), phi_class.param_bounds()
        oracle = lambda vs: values.slopes(vs[:, None])
        val, v = _maximize_concave(oracle, best[1][0], float(axis[1] - axis[0]), lower, upper)
        p = (v,)
    else:
        val, p = refine_in_params(BatchObjective(values), phi_class, best[1])
    return (val, p) if val > best[0] else best


# ---------------------------------------------------------------------------
# biconjugates
# ---------------------------------------------------------------------------


def _extra_params(phi_class: PhiClass, extra_phis: Iterable[Elementary]) -> np.ndarray:
    """Parameter rows of `extra_phis` (members of the class), shape (k, n_params)."""
    rows = [phi_class.params_of(phi_class.require_member(p)) for p in extra_phis]
    return np.array(rows, dtype=float).reshape(len(rows), phi_class.n_params)


def searched_family(
    f: ProperFunction,
    phi_class: PhiClass,
    box: BoxDomain,
    extra_phis: Iterable[Elementary] = (),
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(a, v, f*) of the searched elementaries: the conjugate table rows
    followed by `extra_phis` (c = 0)."""
    table = conjugate_table(f, phi_class, box, "right")
    params, values = table.params, table.values
    extras = _extra_params(phi_class, extra_phis)
    if len(extras):
        params = np.vstack([params, extras])
        values = np.concatenate([values, conjugates_at_params(f, phi_class, box, extras)])
    a, v = phi_class.split_params(params)
    return a, v, values


def _minorant_scores(family, points: np.ndarray) -> np.ndarray:
    """phi(x) - f*(phi), one row per family member, one column per point."""
    a, v, fstar = family
    return quadratic_rows(-a, v, points) - fstar[:, None]


def biconjugate_at_points(family, points: np.ndarray) -> np.ndarray:
    """f** restricted to a `searched_family`, at every row of an (N, dim) array."""
    out = np.full(points.shape[0], NEG_INF)
    for i in range(0, len(family[2]), ROW_CHUNK):
        rows = tuple(part[i : i + ROW_CHUNK] for part in family)
        out = np.maximum(out, np.max(_minorant_scores(rows, points), axis=0))
    return out


def biconjugate(
    f: ProperFunction,
    x,
    phi_class: PhiClass,
    box: BoxDomain,
) -> float:
    """f**(x) = sup over the truncated class of phi(x) - f*(phi).

    Parameters with infinite conjugate are skipped; the grid winner is
    improved in parameter space (`_sweep_and_refine`): on the affine class
    in 1D the concave program in v is solved to its maximum, on the other
    classes refined by halving.  Returns -inf when no searched parameter has
    a finite conjugate (no elementary minorant found in the truncated
    family).
    """
    x = as_point(x)
    scores = _minorant_scores(searched_family(f, phi_class, box), np.asarray([x]))[:, 0]
    objective = ConjugateSum(phi_class, box, ((f, "right", 1.0),), x)
    params = conjugate_table(f, phi_class, box, "right").params
    return _sweep_and_refine(objective, phi_class, params, scores)[0]


def biconjugate_on_grid(
    f: ProperFunction,
    phi_class: PhiClass,
    box: BoxDomain,
    extra_phis: Iterable[Elementary] = (),
) -> np.ndarray:
    """f** at every grid point (no per-point refinement; see `biconjugate`).

    `extra_phis` join the searched family (used to keep value chains coherent
    when a refined dual winner leaves the coarse parameter grid).

    In 1D the conjugate table's lattice is swept by one `_monotone_row_max`
    call over all a: rows are the ascending grid points, columns the
    ascending v, cells those of `biconjugate_at_points`.  The two end points
    bracket the v of every point between, and most runs of points soon share
    a single v, which serves them all in one call.  The extras, and every 2D
    family, take the dense rows.
    """
    points = box.grid().points
    if phi_class.dim != 1:
        return biconjugate_at_points(searched_family(f, phi_class, box, extra_phis), points)
    a, v = phi_class.lattice()
    fstar = conjugate_table(f, phi_class, box, "right").values.reshape(len(a), len(v))
    qa, vb, x, sq = -a, v[:, 0], points[:, 0], _squares(points)
    out = _monotone_row_max(
        lambda s, i, j: (qa[s] * sq[i] + vb[j] * x[i]) - fstar[s, j], len(a), len(x), len(vb)
    ).max(axis=0)
    extras = _extra_params(phi_class, extra_phis)
    if len(extras):
        family = (*phi_class.split_params(extras), conjugates_at_params(f, phi_class, box, extras))
        out = np.maximum(out, biconjugate_at_points(family, points))
    return out


def fenchel_moreau_check(
    f: ProperFunction, phi: Elementary, x, box: BoxDomain, tol: float = 1e-9
) -> bool:
    """f(x) + f*(phi) >= phi(x) (up to tol); x must lie in dom f."""
    fx = f(x)
    if fx == INF:
        raise ValueError("x must belong to dom f")
    fstar = phi_conjugate(f, phi, box).value
    if fstar == INF:
        return True
    return ext_add(fx, fstar) >= phi(x) - tol


def biconjugate_leq_f(
    f: ProperFunction, phi_class: PhiClass, box: BoxDomain, tol: float = 1e-6
) -> bool:
    """f** <= f at every grid point (up to tol)."""
    bic = biconjugate_on_grid(f, phi_class, box)
    fv = values_on_grid(f.rep, box)
    return bool(np.all(bic <= fv + tol))
