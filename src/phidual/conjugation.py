"""Conjugates of proper functions with respect to an elementary class.

For phi(x) = -a*||x||^2 + <v, x> + c the two one-sided transforms are

    right:  f*(phi)  = sup_x  phi(x) - f(x)
    left:   *f(phi)  = sup_x -f(x) - phi(x)

Each is one call of the function's `sup_quadratic_offset` with the quadratic
phi (right) or -phi (left): exact for piecewise quadratics, a grid oracle
with an expanding-box divergence sentinel for tabulated functions (see
`functions`).  By default the sup runs over the function's own conceptual
domain; `restrict_to_box=True` limits the quantifier to the working box,
which is what the subgradient-side tests use.

`conjugate_table` and `biconjugate_on_grid` are maxima over the parameter
lattice (a axis x v rows).  In 1D both sweep it with the monotone-argmax
kernel `functions._monotone_row_max` (a table's conjugates through
`sup_quadratic_offset_lattice`; piecewise quadratics keep their exact
clamping): the first and last row of every a take the maximum over all
columns, the rows between are bisected inside the columns those bracket,
and a run of rows left with one column takes it in one call.  Extra family
members, refinement batches, single points and 2D take the dense (rows x
points) maximum.
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
) -> np.ndarray:
    """Conjugate values of f at every parameter row (c = 0)."""
    a, v = phi_class.split_params(params)
    sign = 1.0 if side == "right" else -1.0
    return f.sup_quadratic_offset_many(-sign * a, sign * v, 0.0, box, restrict=False)


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
    parameters as the result.
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


def _sweep_and_refine(
    values, phi_class: PhiClass, params: np.ndarray, sweep: np.ndarray
) -> tuple[float, Optional[tuple[float, ...]]]:
    """(value, parameters) of the best row of `sweep` (values at the rows of
    `params`), refined for 20 rounds by `refine_in_params` on the batch
    objective `values` and replaced only when that is strictly larger;
    (-inf, None) when every row is -inf."""
    i = int(np.argmax(sweep))
    best = float(sweep[i]), tuple(params[i])
    if best[0] == NEG_INF:
        return NEG_INF, None
    if params.shape[1] == 0:
        return best
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

    Parameters with infinite conjugate are skipped; the winner is refined in
    parameter space.  Returns -inf when no searched parameter has a finite
    conjugate (no elementary minorant found in the truncated family).
    """
    x = as_point(x)
    scores = _minorant_scores(searched_family(f, phi_class, box), np.asarray([x]))[:, 0]

    def objective(params: np.ndarray) -> np.ndarray:
        fstar = conjugates_at_params(f, phi_class, box, params, "right")
        return phi_class.member_values(params, x) - fstar

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
