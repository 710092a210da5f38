"""Conjugates of proper functions with respect to an elementary class.

For phi(x) = -a*||x||^2 + <v, x> + c the two one-sided transforms are

    right:  f*(phi)  = sup_x  phi(x) - f(x)
    left:   *f(phi)  = sup_x -f(x) - phi(x)

computed exactly for piecewise quadratics (per-piece vertex clamping, with
analytic +inf detection on unbounded pieces) and by grid oracle with an
expanding-box divergence sentinel for tabulated functions.  By default the
sup runs over the function's own conceptual domain; `restrict_to_box=True`
limits the quantifier to the working box, which is what the subgradient-side
tests use.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Optional

import numpy as np

from .core import (
    INF,
    NEG_INF,
    BoxDomain,
    Point,
    as_point,
    diverges_on_expanding_boxes,
    ext_add,
    is_finite,
    refine_extremum,
    sup_on_grid,
)
from .functions import Elementary, PhiClass, ProperFunction, values_on_grid

CLOSED_FORM = "closed-form"
GRID_ORACLE = "grid-oracle"

_PARAM_CHUNK = 512


@dataclass(frozen=True)
class ConjugateValue:
    """A conjugate evaluation; no attaining point is reported when infinite."""

    value: float
    attaining_point: Optional[Point]
    method: str

    def __float__(self) -> float:
        return self.value


class _Offset:
    """x -> sign*phi(x) - f(x), one point at a time or a batch of points."""

    def __init__(self, f: ProperFunction, phi: Elementary, sign: float):
        self.f, self.phi, self.sign = f, phi, sign

    def __call__(self, x) -> float:
        return self.sign * self.phi(x) - self.f(x)

    def values(self, points: np.ndarray) -> np.ndarray:
        return self.sign * self.phi.values(points) - self.f.values(points)


def _oracle_sup(f: ProperFunction, phi: Elementary, box: BoxDomain, sign: float,
                restrict_to_box: bool) -> ConjugateValue:
    """Grid sup of sign*phi - f (sign=+1: right conjugate, -1: left)."""
    grid = box.grid()
    phivals = sign * phi.values(grid.points)
    v, p = sup_on_grid(None, grid, values=phivals - values_on_grid(f, box))
    if restrict_to_box:
        return ConjugateValue(v, p, GRID_ORACLE)
    h = _Offset(f, phi, sign)
    if p is not None and is_finite(v):
        v, p = refine_extremum(h, box, p, rounds=25, kind="sup")
    if diverges_on_expanding_boxes(h, box, kind="sup"):
        return ConjugateValue(INF, None, GRID_ORACLE)
    if v == INF or v == NEG_INF:
        p = None
    return ConjugateValue(v, p, GRID_ORACLE)


def phi_conjugate(
    f: ProperFunction,
    phi: Elementary,
    box: BoxDomain,
    restrict_to_box: bool = False,
) -> ConjugateValue:
    """f*(phi) = sup (phi - f)."""
    if phi.dim != f.dim:
        raise ValueError("dimension mismatch between phi and f")
    if f.piecewise is not None:
        v, p = f.piecewise.sup_quadratic_offset(
            -phi.a, phi.v[0], phi.c, box if restrict_to_box else None
        )
        return ConjugateValue(v, p if is_finite(v) else None, CLOSED_FORM)
    return _oracle_sup(f, phi, box, +1.0, restrict_to_box)


def left_conjugate(
    f: ProperFunction,
    phi: Elementary,
    box: BoxDomain,
    restrict_to_box: bool = False,
) -> ConjugateValue:
    """*f(phi) = sup (-f - phi); equals f*(-phi) whenever -phi stays in the class."""
    if phi.dim != f.dim:
        raise ValueError("dimension mismatch between phi and f")
    if f.piecewise is not None:
        v, p = f.piecewise.sup_quadratic_offset(
            phi.a, -phi.v[0], -phi.c, box if restrict_to_box else None
        )
        return ConjugateValue(v, p if is_finite(v) else None, CLOSED_FORM)
    return _oracle_sup(f, phi, box, -1.0, restrict_to_box)


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

    def finite_mask(self) -> np.ndarray:
        return np.isfinite(self.values)


def _split_params(phi_class: PhiClass, params: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """-> (a, v) arrays with shapes (N,) and (N, dim)."""
    n = params.shape[0]
    if phi_class.kind == "lsc-quadratic":
        return params[:, 0], params[:, 1:]
    if phi_class.kind == "affine":
        return np.zeros(n), params
    return np.zeros(n), np.zeros((n, phi_class.dim))


def conjugates_at_params(
    f: ProperFunction,
    phi_class: PhiClass,
    box: BoxDomain,
    params: np.ndarray,
    side: str = "right",
) -> np.ndarray:
    """Conjugate values of f at every parameter row (c = 0)."""
    a, v = _split_params(phi_class, params)
    if f.piecewise is not None:
        if side == "right":
            return f.piecewise.sup_quadratic_offset_many(-a, v[:, 0], 0.0)
        return f.piecewise.sup_quadratic_offset_many(a, -v[:, 0], 0.0)
    pts = box.grid().points  # (M, dim)
    fvals = values_on_grid(f, box)
    sq = np.sum(pts * pts, axis=1)
    out = np.empty(params.shape[0])
    for i in range(0, params.shape[0], _PARAM_CHUNK):
        sl = slice(i, i + _PARAM_CHUNK)
        phival = -np.outer(a[sl], sq) + v[sl] @ pts.T
        if side == "right":
            out[sl] = np.max(phival - fvals[None, :], axis=1)
        else:
            out[sl] = np.max(-phival - fvals[None, :], axis=1)
    return out


@lru_cache(maxsize=64)
def conjugate_table(
    f: ProperFunction, phi_class: PhiClass, box: BoxDomain, side: str = "right"
) -> ConjugateTable:
    params = phi_class.param_grid()
    values = conjugates_at_params(f, phi_class, box, params, side)
    method = CLOSED_FORM if f.piecewise is not None else GRID_ORACLE
    values.setflags(write=False)
    return ConjugateTable(params, values, side, method)


def conjugate_at(
    f: ProperFunction,
    phi_class: PhiClass,
    box: BoxDomain,
    params,
    side: str = "right",
) -> float:
    """Single conjugate value at a parameter vector (c = 0)."""
    arr = np.asarray([list(params)], dtype=float)
    return float(conjugates_at_params(f, phi_class, box, arr, side)[0])


def refine_in_params(
    objective,
    phi_class: PhiClass,
    seed_params,
    rounds: int = 20,
) -> tuple[float, tuple[float, ...]]:
    """Local maximization of `objective(params)` around a parameter-grid seed.

    Same halving scheme as `refine_extremum`, but in the truncated parameter
    box of the class (candidates are clipped to it), so refined winners remain
    members of the searched family.
    """
    axes = phi_class.param_axes()
    if not axes:
        p = ()
        return objective(p), p
    radii = [float(ax[1] - ax[0]) for ax in axes]
    offsets = (-1.0, -0.5, 0.0, 0.5, 1.0) if len(axes) <= 2 else (-1.0, 0.0, 1.0)
    best_p = phi_class.clip_params(seed_params)
    best_v = objective(best_p)
    for _ in range(rounds):
        for off in np.ndindex(*(len(offsets),) * len(axes)):
            cand = phi_class.clip_params(
                tuple(c + offsets[o] * r for c, o, r in zip(best_p, off, radii))
            )
            val = objective(cand)
            if val > best_v:
                best_v, best_p = val, cand
        radii = [r / 2.0 for r in radii]
    return best_v, best_p


# ---------------------------------------------------------------------------
# biconjugates
# ---------------------------------------------------------------------------


def biconjugate(
    f: ProperFunction,
    x,
    phi_class: PhiClass,
    box: BoxDomain,
    refine: bool = True,
) -> float:
    """f**(x) = sup over the truncated class of phi(x) - f*(phi).

    Parameters with infinite conjugate are skipped; the winner is refined in
    parameter space.  Returns -inf when no searched parameter has a finite
    conjugate (no elementary minorant found in the truncated family).
    """
    x = as_point(x)
    table = conjugate_table(f, phi_class, box, "right")
    a, v = _split_params(phi_class, table.params)
    sq = sum(c * c for c in x)
    scores = -a * sq + v @ np.asarray(x) - table.values
    i = int(np.argmax(scores))
    if scores[i] == NEG_INF:
        return NEG_INF
    if not refine:
        return float(scores[i])

    def objective(params):
        phi = phi_class.member(params)
        return phi(x) - conjugate_at(f, phi_class, box, params, "right")

    val, _ = refine_in_params(objective, phi_class, tuple(table.params[i]))
    return max(float(scores[i]), val)


def biconjugate_on_grid(
    f: ProperFunction,
    phi_class: PhiClass,
    box: BoxDomain,
    extra_phis: Iterable[Elementary] = (),
) -> np.ndarray:
    """f** at every grid point (no per-point refinement; see `biconjugate`).

    `extra_phis` join the searched family (used to keep value chains coherent
    when a refined dual winner leaves the coarse parameter grid).
    """
    table = conjugate_table(f, phi_class, box, "right")
    params = table.params
    values = table.values
    extras = [phi_class.require_member(p) for p in extra_phis]
    if extras:
        eparams = np.array(
            [phi_class.params_of(p) for p in extras], dtype=float
        ).reshape(len(extras), phi_class.n_params)
        evalues = conjugates_at_params(f, phi_class, box, eparams, "right")
        params = np.vstack([params, eparams])
        values = np.concatenate([values, evalues])
    a, v = _split_params(phi_class, params)
    pts = box.grid().points
    sq = np.sum(pts * pts, axis=1)
    out = np.full(pts.shape[0], NEG_INF)
    for i in range(0, params.shape[0], _PARAM_CHUNK):
        sl = slice(i, i + _PARAM_CHUNK)
        scores = -np.outer(a[sl], sq) + v[sl] @ pts.T - values[sl, None]
        out = np.maximum(out, np.max(scores, axis=0))
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
    fv = values_on_grid(f, box)
    return bool(np.all(bic <= fv + tol))
