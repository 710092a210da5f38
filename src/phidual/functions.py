"""Proper objective functions and elementary minorant classes.

A :class:`ProperFunction` forwards every operation to one representation,
and both representations offer the same small interface:

* ``dim`` and ``method`` (``CLOSED_FORM`` or ``GRID_ORACLE``);
* ``values(points)`` on an (N, dim) array;
* ``sup_quadratic_offset(qa, qb, qc, box, restrict)``, the sup of
  ``qa*|x|^2 + <qb, x> + qc - f(x)`` over the box or the whole space,
  ``sup_quadratic_offset_many`` over parameter rows and
  ``sup_quadratic_offset_lattice`` over every pair of a ``qa`` axis and
  ``qb`` rows (a table is +inf outside its box, so each of its sups is the
  maximum over the box's grid, with or without ``restrict``);
* ``shifted(a)``, the function ``f - a*|x|^2``.

Conjugates, subgradient tests and Lagrangian slices are all such sups.
:class:`PiecewiseQuadratic` (1D, finitely many quadratic pieces, +inf
outside their union) computes them exactly by vertex clamping;
:class:`TabulatedFunction` (a black-box evaluator on a box, +inf outside
it) as exact maxima over the box's grid: dense (rows x grid points)
maxima, except for a 1D lattice, which `_monotone_row_max` sweeps in
O((N + M) log N) cells per ``qa`` with the same cells' values: the least
and greatest ``qb`` rows over every grid point, the rows between only over
the points their argmaxima bracket.

Elementary functions are x |-> -a*||x||^2 + <v, x> + c with a >= 0; a = 0
gives the affine class.  :class:`PhiClass` is a truncated, searchable
parameterization of such a class together with its algebraic flags.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Callable, Optional, Sequence, Union

import numpy as np

from .core import (
    INF,
    NEG_INF,
    ROW_CHUNK,
    BoxDomain,
    Point,
    _values_at,
    as_point,
    dot,
    is_finite,
    norm_sq,
)

CLOSED_FORM = "closed-form"
GRID_ORACLE = "grid-oracle"


class UnsupportedClassError(ValueError):
    """The elementary class lacks a flag required by the requested operation."""


# ---------------------------------------------------------------------------
# quadratic extrema on (possibly unbounded) intervals
# ---------------------------------------------------------------------------


def quad_sup_on_interval(
    A: float, B: float, C: float, lo: float, hi: float
) -> tuple[float, Optional[float]]:
    """sup of A*x^2 + B*x + C over [lo, hi]; lo/hi may be infinite.

    Returns (value, attaining x); the attaining point is None when the sup is
    +inf (also when it exceeds float range at a vertex beyond it, for a tiny
    negative A).  Ties resolve to the smaller x.
    """
    if lo > hi:
        raise ValueError("empty interval")
    q = lambda x: (A * x + B) * x + C
    if hi == INF and (A > 0 or (A == 0 and B > 0)):
        return INF, None
    if lo == NEG_INF and (A > 0 or (A == 0 and B < 0)):
        return INF, None
    cands: list[tuple[float, float]] = []
    if is_finite(lo):
        cands.append((q(lo), lo))
    if is_finite(hi):
        cands.append((q(hi), hi))
    if A < 0:
        xv = -B / (2.0 * A)
        if lo <= xv <= hi:
            cands.append((C - B * B / (4.0 * A), xv))
    if A == 0 and B == 0:
        xr = min(max(0.0, lo), hi)
        cands.append((C, xr))
    best_v, best_x = cands[0]
    for v, x in cands[1:]:
        if v > best_v or (v == best_v and x < best_x):
            best_v, best_x = v, x
    return best_v, (None if best_v == INF else best_x)


def quad_inf_on_interval(
    A: float, B: float, C: float, lo: float, hi: float
) -> tuple[float, Optional[float]]:
    """inf of A*x^2 + B*x + C over [lo, hi]; -inf when unbounded below."""
    v, x = quad_sup_on_interval(-A, -B, -C, lo, hi)
    return -v, x


def quad_sup_on_interval_many(
    A: np.ndarray, B: np.ndarray, C: np.ndarray, lo: float, hi: float, points: bool = False
):
    """Vectorized `quad_sup_on_interval` over coefficient arrays.

    Returns the values; with `points`, (values, attaining x): per entry the
    first of the candidates lo, hi, the vertex -B/(2A) and (for A = B = 0)
    0 clamped to [lo, hi] whose candidate value is the entry's value, NaN
    where the sup is +inf.  The candidate values are (A*x + B)*x + C at an
    end, C - B*B/(4A) at the vertex and C on a flat entry; for a tiny
    negative A the vertex and its value may exceed float range, and that
    +inf is the value.
    """
    vals = np.full(np.shape(A), NEG_INF)
    cands = []
    for end in (lo, hi):
        if is_finite(end):
            q = (A * end + B) * end + C
            vals = np.maximum(vals, q)
            cands.append((q, end))
    concave = A < 0
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        xv = np.where(concave, -B / (2.0 * np.where(concave, A, 1.0)), 0.0)
        vtx = C - np.where(concave, B * B / (4.0 * np.where(concave, A, 1.0)), 0.0)
    hit = concave & (xv >= lo) & (xv <= hi)
    vals = np.where(hit, np.maximum(vals, vtx), vals)
    flat = (A == 0) & (B == 0)
    vals = np.where(flat, np.maximum(vals, C), vals)
    unbounded = np.zeros(np.shape(A), dtype=bool)
    if hi == INF:
        unbounded |= (A > 0) | ((A == 0) & (B > 0))
    if lo == NEG_INF:
        unbounded |= (A > 0) | ((A == 0) & (B < 0))
    vals = np.where(unbounded, INF, vals)
    if not points:
        return vals
    cands += [(np.where(hit, vtx, NEG_INF), xv), (np.where(flat, C, NEG_INF), min(max(0.0, lo), hi))]
    x = np.full(np.shape(A), np.nan)
    for q, xq in reversed(cands):
        x = np.where(q == vals, xq, x)
    return vals, np.where(vals == INF, np.nan, x)


def _squares(points: np.ndarray):
    """|x|^2 of every row of an (N, dim) array, summed from 0.0 in coordinate order."""
    sq = 0.0
    for xk in points.T:
        sq = sq + xk * xk
    return sq


def _dots(v, points: np.ndarray):
    """<v, x> of every row of an (N, dim) array, summed from 0.0 in coordinate order."""
    dt = 0.0
    for vk, xk in zip(v, points.T):
        dt = dt + vk * xk
    return dt


def quadratic_rows(qa: np.ndarray, qb: np.ndarray, points: np.ndarray) -> np.ndarray:
    """qa*|x|^2 + <qb, x> with one row per row of (qa (N,), qb (N, dim)) and
    one column per row of the (M, dim) points.

    Products and sums are elementwise in coordinate order, so every entry
    is the same whichever rows or points share the call.
    """
    dt = np.outer(qb[:, 0], points[:, 0])
    for k in range(1, points.shape[1]):
        dt = dt + np.outer(qb[:, k], points[:, k])
    return np.outer(qa, _squares(points)) + dt


def _spans(first: np.ndarray, count: np.ndarray):
    """The runs first[k], ..., first[k] + count[k] - 1, concatenated: each
    entry's run index, the entries, and each run's start."""
    start = np.cumsum(count) - count
    seg = np.repeat(np.arange(len(count)), count)
    return seg, np.arange(len(seg)) + (first - start)[seg], start


def _monotone_row_max(cell, n_slices: int, n_rows: int, n_cols: int) -> np.ndarray:
    """Row maxima of `n_slices` matrices of shape (n_rows, n_cols), each with
    a leftmost row argmax that never moves left as the row index grows.

    `cell(s, i, j)` returns the entries at index arrays that broadcast
    together.  In 1D, M[i, j] = qa*sq + qb_i*x_j - h_j with qb and x
    ascending has this structure: M[i2, j2] - M[i2, j1] - M[i1, j2] +
    M[i1, j1] = (qb_i2 - qb_i1)(x_j2 - x_j1) >= 0 (the total monotonicity
    behind SMAWK and Lucet's linear-time Legendre transform); whole -inf
    columns never win.  The first and last rows of every slice are one
    broadcast block over all columns, and their argmaxima bracket the
    columns of the rows between.  Those are bisected level by level, all
    slices and open row ranges at once: each range evaluates its middle row
    over the columns between its neighbours' argmaxima, and the leftmost
    maximum splits the range; a range whose window is one column takes that
    column's cell in every row.  That is O((n_rows + n_cols) log n_rows)
    cells per slice instead of n_rows*n_cols.  Returns an (n_slices, n_rows)
    array.
    """
    out = np.empty((n_slices, n_rows))
    s, ends = np.arange(n_slices), np.array([0, n_rows - 1])
    vals = cell(s[:, None, None], ends[None, :, None], np.arange(n_cols))
    best = vals.max(axis=2)
    out[:, ends] = best
    if n_rows < 3:
        return out
    # the window of the rows between: from the first cell not below row 0's
    # maximum to the last not below the last row's (a NaN or all -inf end
    # row bounds nothing)
    hits = ~(vals < best[..., None])
    clo = np.argmax(hits[:, 0], axis=1)
    chi = np.maximum(n_cols - 1 - np.argmax(hits[:, 1, ::-1], axis=1), clo)
    lo, hi = np.ones(n_slices, dtype=np.intp), np.full(n_slices, n_rows - 1)
    while True:
        one = clo == chi
        if one.any():
            seg, rows, _ = _spans(lo[one], (hi - lo)[one])
            t = s[one][seg]
            out[t, rows] = cell(t, rows, clo[one][seg])
            s, lo, hi, clo, chi = (a[~one] for a in (s, lo, hi, clo, chi))
        if not s.size:
            return out
        mid = (lo + hi) // 2
        seg, j, start = _spans(clo, chi - clo + 1)
        vals = cell(s[seg], mid[seg], j)
        best = np.maximum.reduceat(vals, start)
        # the first cell not below its range's maximum (the first cell of a NaN range)
        arg = j[np.minimum.reduceat(np.where(vals < best[seg], len(j), np.arange(len(j))), start)]
        out[s, mid] = best
        left, right = mid > lo, mid + 1 < hi
        s = np.concatenate([s[left], s[right]])
        lo, hi = np.concatenate([lo[left], mid[right] + 1]), np.concatenate([mid[left], hi[right]])
        clo, chi = np.concatenate([clo[left], arg[right]]), np.concatenate([arg[left], chi[right]])


def _lattice_by_rows(rep, qa: np.ndarray, qb: np.ndarray, qc, box, restrict) -> np.ndarray:
    """`rep.sup_quadratic_offset_many` at every pair (qa_s, qb_i), qa-major,
    as an (S, R) array."""
    rows = rep.sup_quadratic_offset_many(
        np.repeat(qa, len(qb)), np.tile(qb, (len(qa), 1)), qc, box, restrict
    )
    return rows.reshape(len(qa), len(qb))


# ---------------------------------------------------------------------------
# elementary functions and their classes
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Elementary:
    """phi(x) = -a*||x||^2 + <v, x> + c with a >= 0."""

    a: float
    v: Point
    c: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "a", float(self.a))
        object.__setattr__(self, "v", as_point(self.v))
        object.__setattr__(self, "c", float(self.c))
        if not is_finite(self.a) or self.a < 0:
            raise ValueError("quadratic coefficient a must be finite and >= 0")
        if any(not is_finite(vi) for vi in self.v) or not is_finite(self.c):
            raise ValueError("elementary coefficients must be finite")

    @property
    def dim(self) -> int:
        return len(self.v)

    @property
    def is_affine(self) -> bool:
        return self.a == 0.0

    def __call__(self, x) -> float:
        p = as_point(x)
        if len(p) != len(self.v):
            raise ValueError(f"point dimension {len(p)} != phi dimension {len(self.v)}")
        return -self.a * norm_sq(p) + dot(self.v, p) + self.c

    def values(self, points: np.ndarray) -> np.ndarray:
        """phi at every row of an (N, dim) array, bit for bit as `__call__`.

        The sums keep the scalar order (0 + x0*x0 + x1*x1, 0 + v0*x0 + v1*x1),
        so signed zeros come out as they do point by point.
        """
        pts = np.asarray(points, dtype=float)
        if pts.ndim != 2 or pts.shape[1] != len(self.v):
            raise ValueError(f"points of shape {pts.shape} do not match phi dimension {len(self.v)}")
        return -self.a * _squares(pts) + _dots(self.v, pts) + self.c

    def negated(self) -> "Elementary":
        """-phi; representable only in the affine case (a must stay >= 0)."""
        if self.a != 0.0:
            raise ValueError("negation of a nonzero quadratic term leaves the class")
        return Elementary(0.0, tuple(-vi for vi in self.v), -self.c)

    def with_constant(self, c: float) -> "Elementary":
        return Elementary(self.a, self.v, c)

    def combine(self, other: "Elementary", t: float) -> "Elementary":
        """Convex combination t*self + (1-t)*other (classes here are convex sets)."""
        s = 1.0 - t
        return Elementary(
            t * self.a + s * other.a,
            tuple(t * vi + s * wi for vi, wi in zip(self.v, other.v)),
            t * self.c + s * other.c,
        )


_PHI_KINDS = ("lsc-quadratic", "affine", "constant-only")


@dataclass(frozen=True)
class PhiClass:
    """A searchable, truncated parameterization of an elementary class.

    The class itself is unbounded; `a_max`, `v_max` and `grid_sizes` only
    truncate the parameter search, so every sup over the class computed below
    is a lower bound of the true sup.  Algebraic flags are derived from the
    kind: only the affine and constant-only kinds are symmetric (a >= 0
    forbids negating a nonzero quadratic term), all kinds contain zero, are
    additive and form convex sets.
    """

    kind: str
    dim: int = 1
    a_max: float = 8.0
    v_max: float = 32.0
    grid_sizes: tuple[int, ...] = ()
    contains_zero: bool = field(init=False)
    symmetric: bool = field(init=False)
    additive: bool = field(init=False)
    convex_set: bool = field(init=False)

    def __post_init__(self):
        if self.kind not in _PHI_KINDS:
            raise ValueError(f"unknown elementary class kind: {self.kind!r}")
        if self.dim not in (1, 2):
            raise ValueError("only dimensions 1 and 2 are supported")
        if not (0.0 <= self.a_max < INF and 0.0 < self.v_max < INF):
            raise ValueError("truncation bounds must be finite and positive")
        sizes = tuple(int(n) for n in self.grid_sizes)
        if not sizes:
            per_axis = 65 if self.dim == 1 else 17
            sizes = (per_axis,) * self.n_params
        if len(sizes) != self.n_params:
            raise ValueError(
                f"expected {self.n_params} grid sizes for kind {self.kind!r}"
            )
        if any(n < 2 for n in sizes) and self.n_params:
            raise ValueError("need at least 2 grid points per parameter axis")
        object.__setattr__(self, "grid_sizes", sizes)
        object.__setattr__(self, "contains_zero", True)
        object.__setattr__(self, "symmetric", self.kind != "lsc-quadratic")
        object.__setattr__(self, "additive", True)
        object.__setattr__(self, "convex_set", True)

    @property
    def n_params(self) -> int:
        if self.kind == "lsc-quadratic":
            return 1 + self.dim
        if self.kind == "affine":
            return self.dim
        return 0

    def param_axes(self) -> list[np.ndarray]:
        axes = []
        sizes = iter(self.grid_sizes)
        if self.kind == "lsc-quadratic":
            axes.append(np.linspace(0.0, self.a_max, next(sizes)))
        if self.kind != "constant-only":
            for _ in range(self.dim):
                axes.append(np.linspace(-self.v_max, self.v_max, next(sizes)))
        return axes

    def param_grid(self) -> np.ndarray:
        """All searched parameter vectors, shape (N, n_params), lexicographic."""
        axes = self.param_axes()
        if not axes:
            return np.zeros((1, 0))
        mesh = np.meshgrid(*axes, indexing="ij")
        return np.column_stack([m.ravel() for m in mesh])

    def lattice(self) -> tuple[np.ndarray, np.ndarray]:
        """(a axis, v rows) whose pairs, a-major, are `param_grid()` in order:
        shapes (S,) and (R, dim); an axis-free a is [0.0], an axis-free v
        one zero row, and a 1D v axis ascends."""
        axes = self.param_axes()
        a = axes.pop(0) if self.kind == "lsc-quadratic" else np.zeros(1)
        if not axes:
            return a, np.zeros((1, self.dim))
        mesh = np.meshgrid(*axes, indexing="ij")
        return a, np.column_stack([m.ravel() for m in mesh])

    def split_params(self, params: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Parameter rows -> (a, v) arrays of shapes (N,) and (N, dim)."""
        n = params.shape[0]
        if self.kind == "lsc-quadratic":
            return params[:, 0], params[:, 1:]
        if self.kind == "affine":
            return np.zeros(n), params
        return np.zeros(n), np.zeros((n, self.dim))

    def symmetric_subclass(self) -> "PhiClass":
        """The searched symmetric subclass {phi : -phi in class}: a >= 0 on
        phi and -phi forces a = 0, so the affine kind on the v axes."""
        if self.kind == "constant-only":
            return self
        sizes = self.grid_sizes[1:] if self.kind == "lsc-quadratic" else self.grid_sizes
        return PhiClass("affine", self.dim, self.a_max, self.v_max, sizes)

    def member(self, params: Sequence[float], c: float = 0.0) -> Elementary:
        p = [float(x) for x in params]
        if len(p) != self.n_params:
            raise ValueError("parameter vector length mismatch")
        if self.kind == "lsc-quadratic":
            return Elementary(p[0], tuple(p[1:]), c)
        if self.kind == "affine":
            return Elementary(0.0, tuple(p), c)
        return Elementary(0.0, (0.0,) * self.dim, c)

    def params_of(self, phi: Elementary) -> tuple[float, ...]:
        if self.kind == "lsc-quadratic":
            return (phi.a, *phi.v)
        if self.kind == "affine":
            return phi.v
        return ()

    def contains(self, phi: Elementary) -> bool:
        if phi.dim != self.dim:
            return False
        if self.kind == "affine" and phi.a != 0.0:
            return False
        if self.kind == "constant-only" and (phi.a != 0.0 or any(phi.v)):
            return False
        return True

    def require_member(self, phi: Elementary) -> Elementary:
        if not self.contains(phi):
            raise ValueError(
                f"{phi} is not a member of the {self.kind!r} elementary class"
            )
        return phi

    def param_bounds(self) -> tuple[Point, Point]:
        """(lower, upper) corners of the truncated parameter box."""
        n_v = 0 if self.kind == "constant-only" else self.dim
        lower, upper = (-self.v_max,) * n_v, (self.v_max,) * n_v
        if self.kind == "lsc-quadratic":
            return (0.0, *lower), (self.a_max, *upper)
        return lower, upper

    def clip_params(self, params: Sequence[float]) -> tuple[float, ...]:
        lower, upper = self.param_bounds()
        p = [float(x) for x in params]
        if len(p) != self.n_params:
            raise ValueError("parameter vector length mismatch")
        return tuple(min(max(x, lo), hi) for x, lo, hi in zip(p, lower, upper))

    def member_values(self, params: np.ndarray, x: Point) -> np.ndarray:
        """`member(row)(x)` at every parameter row (c = 0), bit for bit: the
        sums keep the order of `Elementary.__call__`."""
        a, v = self.split_params(params)
        return -a * norm_sq(x) + _dots(x, v) + 0.0

    def truncation_summary(self) -> dict:
        return {
            "kind": self.kind,
            "a_max": self.a_max,
            "v_max": self.v_max,
            "grid_sizes": list(self.grid_sizes),
        }


# ---------------------------------------------------------------------------
# piecewise-quadratic functions
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class QuadraticPiece:
    """a2*x^2 + a1*x + a0 on the interval [lo, hi] (endpoints may be infinite)."""

    lo: float
    hi: float
    a2: float
    a1: float
    a0: float

    def __post_init__(self):
        for name in ("a2", "a1", "a0"):
            if not is_finite(getattr(self, name)):
                raise ValueError("piece coefficients must be finite")
        if math.isnan(self.lo) or math.isnan(self.hi) or self.lo > self.hi:
            raise ValueError("piece interval must satisfy lo <= hi")
        if self.lo == INF or self.hi == NEG_INF:
            raise ValueError("degenerate piece interval")

    def poly(self, x: float) -> float:
        return (self.a2 * x + self.a1) * x + self.a0


@dataclass(frozen=True)
class PiecewiseQuadratic:
    """1D proper function: finitely many quadratic pieces, +inf elsewhere.

    Pieces are sorted and disjoint up to shared endpoints; at a shared
    endpoint the function takes the minimum of the adjacent piece values
    (lower-semicontinuous selection).  Every sup of (quadratic - piece)
    reduces to vertex clamping on an interval, so all results are exact.
    """

    pieces: tuple[QuadraticPiece, ...]

    method = CLOSED_FORM
    dim = 1

    def __post_init__(self):
        ps = tuple(self.pieces)
        if not ps:
            raise ValueError("a proper function needs at least one piece")
        object.__setattr__(self, "pieces", ps)
        for p, q in zip(ps, ps[1:]):
            if p.hi > q.lo:
                raise ValueError("pieces must be sorted and non-overlapping")

    def __call__(self, x) -> float:
        try:  # a one-coordinate point
            (x,) = x
        except TypeError:  # a plain coordinate (Python or numpy scalar)
            pass
        val = INF
        for p in self.pieces:
            if p.lo <= x <= p.hi:
                val = min(val, p.poly(x))
        return val

    def __add__(self, other: "PiecewiseQuadratic") -> "PiecewiseQuadratic":
        """f + g: one piece per overlapping pair of pieces, coefficients added.

        f(x) + g(x) is the minimum over the pairs whose intervals hold x, so
        the lsc selection at shared endpoints carries over; pairs in (f piece,
        g piece) order come out sorted.  Raises when the domains do not meet.
        """
        return PiecewiseQuadratic(tuple(
            QuadraticPiece(max(p.lo, q.lo), min(p.hi, q.hi), p.a2 + q.a2, p.a1 + q.a1, p.a0 + q.a0)
            for p in self.pieces for q in other.pieces if max(p.lo, q.lo) <= min(p.hi, q.hi)
        ))

    def values(self, points: np.ndarray) -> np.ndarray:
        """Values at an (N, 1) array of points (or at N plain coordinates)."""
        xs = np.asarray(points, dtype=float).reshape(-1)
        out = np.full(xs.shape, INF)
        for p in self.pieces:
            m = (xs >= p.lo) & (xs <= p.hi)
            poly = (p.a2 * xs[m] + p.a1) * xs[m] + p.a0
            # min(val, poly) of `__call__`: the earlier piece wins ties, signed zeros too
            out[m] = np.where(poly < out[m], poly, out[m])
        return out

    def _interval(self, box: Optional[BoxDomain], restrict: bool) -> tuple[float, float]:
        if box is None or not restrict:
            return NEG_INF, INF
        return box.lower[0], box.upper[0]

    def sup_quadratic_offset(
        self,
        qa: float,
        qb,
        qc: float,
        box: Optional[BoxDomain] = None,
        restrict: bool = True,
    ) -> tuple[float, Optional[Point]]:
        """sup of (qa*x^2 + qb*x + qc) - f(x) and an attaining point.

        The sup runs over the box when `restrict` (and a box is given), over
        the whole line otherwise.  Exact per piece via vertex clamping; +inf
        is detected analytically on unbounded pieces.  `qb` is a number or a
        one-coordinate point.
        """
        if not np.isscalar(qb):
            (qb,) = qb
        blo, bhi = self._interval(box, restrict)
        best_v, best_x = NEG_INF, None
        for p in self.pieces:
            lo, hi = max(p.lo, blo), min(p.hi, bhi)
            if lo > hi:
                continue
            v, x = quad_sup_on_interval(qa - p.a2, qb - p.a1, qc - p.a0, lo, hi)
            if v > best_v:
                best_v, best_x = v, (None if x is None else (x,))
        return best_v, best_x

    def inf_plus_quadratic(
        self,
        qa: float,
        qb: float,
        qc: float,
        box: Optional[BoxDomain] = None,
    ) -> tuple[float, Optional[Point]]:
        """inf of f(x) + (qa*x^2 + qb*x + qc), optionally restricted to the box."""
        v, x = self.sup_quadratic_offset(-qa, -qb, -qc, box)
        return -v, x

    def sup_quadratic_offset_many(
        self,
        qa: np.ndarray,
        qb: np.ndarray,
        qc,
        box: Optional[BoxDomain] = None,
        restrict: bool = True,
        points: bool = False,
    ):
        """`sup_quadratic_offset` values at every row of (qa, qb, qc).

        `qb` has one entry (or one one-coordinate row) per entry of `qa`;
        `qc` is a number or one entry per row.  With `points`, returns
        (values, attaining points (N, 1)): the point of the first piece
        whose `quad_sup_on_interval_many` value is the row's, NaN where
        the row is infinite.
        """
        qa = np.asarray(qa, dtype=float)
        qb = np.asarray(qb, dtype=float).reshape(qa.shape)
        qc = np.asarray(qc, dtype=float)
        blo, bhi = self._interval(box, restrict)
        out = np.full(qa.shape, NEG_INF)
        x = np.full(qa.shape, np.nan)
        for p in self.pieces:
            lo, hi = max(p.lo, blo), min(p.hi, bhi)
            if lo > hi:
                continue
            r = quad_sup_on_interval_many(qa - p.a2, qb - p.a1, qc - p.a0, lo, hi, points)
            if points:
                r, xr = r
                x = np.where(r > out, xr, x)
            out = np.maximum(out, r)
        return (out, x.reshape(-1, 1)) if points else out

    def sup_quadratic_offset_lattice(
        self,
        qa: np.ndarray,
        qb: np.ndarray,
        qc,
        box: Optional[BoxDomain] = None,
        restrict: bool = True,
    ) -> np.ndarray:
        """`sup_quadratic_offset_many` at every pair (qa_s, qb_i) of a qa axis
        (S,) and qb rows (R, 1): an (S, R) array, row by row as `_many`."""
        qa, qb = np.asarray(qa, dtype=float), np.asarray(qb, dtype=float).reshape(-1, 1)
        return _lattice_by_rows(self, qa, qb, qc, box, restrict)

    def shifted(self, a: float) -> "PiecewiseQuadratic":
        """f(x) - a*x^2, a >= 0, on identical intervals (only a2 moves)."""
        if a < 0:
            raise ValueError("shift coefficient a must be >= 0")
        return PiecewiseQuadratic(
            tuple(
                QuadraticPiece(p.lo, p.hi, p.a2 - a, p.a1, p.a0) for p in self.pieces
            )
        )


def pieces(*specs: tuple) -> PiecewiseQuadratic:
    """Build a PiecewiseQuadratic from (lo, hi, a2, a1, a0) tuples."""
    return PiecewiseQuadratic(tuple(QuadraticPiece(*s) for s in specs))


# ---------------------------------------------------------------------------
# tabulated (black-box) functions and the unified proper-function wrapper
# ---------------------------------------------------------------------------


def _nearest_on_axis(ax: np.ndarray, c: np.ndarray) -> np.ndarray:
    """First index of the minimum of |ax - c_i| for each c_i (ax ascending).

    Along a sorted axis the float distances fall and then rise, so the
    nearest point is one of the two neighbours of c_i's insertion point, the
    lower one on a tie.  Where rounding makes the lower neighbour's distance
    repeat further down the axis (c_i far outside the axis, infinite or NaN),
    the first index with that distance is found by a scan of the axis.
    """
    hi = np.searchsorted(ax, c)  # first index with ax[i] >= c_i
    lo = np.maximum(hi - 1, 0)
    s_lo = ax[lo] - c
    take_lo = (hi > 0) & (np.abs(s_lo) <= np.abs(ax[np.minimum(hi, len(ax) - 1)] - c))
    k = np.where(take_lo, lo, hi)
    rescan = (take_lo & (lo > 0) & (ax[lo - 1] - c == s_lo)) | np.isnan(c)
    for i in np.flatnonzero(rescan):
        k[i] = np.argmin(np.abs(ax - c[i]))
    return k


class NearestLookup:
    """Evaluator of a table given at the grid points of a box.

    A point takes the value of its nearest grid point, axis by axis; a
    coordinate exactly halfway between two axis points takes the lower one,
    and a coordinate outside the box takes the nearest end point, so the
    lookup extends as a constant outside the box (a `TabulatedFunction` on
    the same box is +inf there).  `values(points)` looks up a whole (N, dim)
    array at once.
    """

    def __init__(self, box: BoxDomain, table: np.ndarray):
        self.box = box
        self.axes = box.axes()
        self.shape = tuple(box.samples)
        self.table = table

    def index(self, points: np.ndarray) -> np.ndarray:
        """Flat table index of every row of an (N, dim) array."""
        pts = np.asarray(points, dtype=float)
        idx = tuple(_nearest_on_axis(ax, pts[:, k]) for k, ax in enumerate(self.axes))
        return np.ravel_multi_index(idx, self.shape)

    def values(self, points: np.ndarray) -> np.ndarray:
        return self.table[self.index(points)]

    def __call__(self, p: Point) -> float:
        return float(self.values(np.array([p], dtype=float))[0])


class _Shifted:
    """x -> h(x) - a*|x|^2 for a table h, per point or batched, summed as
    (-a*|x|^2 + 0.0) + h(x)."""

    def __init__(self, tab: "TabulatedFunction", a: float):
        self.tab, self.a = tab, a

    def __call__(self, x) -> float:
        p = as_point(x)
        return -self.a * norm_sq(p) + 0.0 + self.tab(p)

    def values(self, points: np.ndarray) -> np.ndarray:
        pts = np.asarray(points, dtype=float)
        return -self.a * _squares(pts) + 0.0 + self.tab.values(pts)


@dataclass(frozen=True)
class TabulatedFunction:
    """A box plus a deterministic black-box evaluator into (-inf, +inf].

    The function is the evaluator on the box and +inf outside it; the
    evaluator is never called outside the box.  It is called with a point
    tuple, and it may also offer a batch method `values(points)` taking an
    (N, dim) array and returning the N values the per-point calls would
    return; grid sweeps then make one call instead of N.  A `NearestLookup`
    on the same box (a table read from an instance document) gives its grid
    values as its table, with no lookup.

    The function is known only at the box's grid points, so every sup of
    (quadratic - h) is the maximum over that grid, with or without
    `restrict`: the discrete Legendre transform (Lucet, Numer. Algorithms
    16, 1997).  `sup_quadratic_offset` is the one-row
    `sup_quadratic_offset_many`, so both give the same value and point.
    """

    box: BoxDomain
    evaluator: Callable[[Point], float]
    label: str = "h"
    #: values on the box grid (read-only), computed once at construction
    grid_values: np.ndarray = field(init=False, repr=False, compare=False)

    method = GRID_ORACLE

    def __post_init__(self):
        ev = self.evaluator
        if isinstance(ev, NearestLookup) and ev.box == self.box:
            vals = np.array(ev.table, dtype=float)
        else:
            vals = self.values(self.box.grid().points)
        if np.any(np.isnan(vals)):
            raise ValueError("function values must not be NaN")
        if np.any(vals == NEG_INF):
            raise ValueError("function values must stay above -inf")
        if not np.any(np.isfinite(vals)):
            raise ValueError("empty effective domain on the working grid")
        vals.setflags(write=False)
        object.__setattr__(self, "grid_values", vals)

    @property
    def dim(self) -> int:
        return self.box.dim

    def __call__(self, x) -> float:
        p = as_point(x)
        return float(self.evaluator(p)) if self.box.contains(p) else INF

    def values(self, points: np.ndarray) -> np.ndarray:
        """Values at every row of an (N, dim) array (see the class docstring)."""
        pts = np.asarray(points, dtype=float)
        inside = np.all((pts >= self.box.lower) & (pts <= self.box.upper), axis=1)
        out = np.full(len(pts), INF)
        out[inside] = _values_at(self.evaluator, pts[inside])
        return out

    def _values_on(self, box: BoxDomain) -> np.ndarray:
        """h at the grid points of `box` (read-only)."""
        return self.grid_values if box == self.box else values_on_grid(self, box)

    def _offsets_on_grid(self, qa: np.ndarray, qb: np.ndarray, box: BoxDomain) -> np.ndarray:
        """qa*|x|^2 + <qb, x> - h(x), one row per (qa, qb) row, one column per grid point."""
        return quadratic_rows(qa, qb, box.grid().points) - self._values_on(box)

    def sup_quadratic_offset(
        self,
        qa: float,
        qb: Point,
        qc: float,
        box: BoxDomain,
        restrict: bool = True,
    ) -> tuple[float, Optional[Point]]:
        """sup of (qa*|x|^2 + <qb, x> + qc) - h(x) and an attaining point:
        the one-row `sup_quadratic_offset_many` with its point, (-inf, None)
        on a row of -inf."""
        v, p = self.sup_quadratic_offset_many(np.array([qa]), np.array([as_point(qb)]), qc, box, points=True)
        return (NEG_INF, None) if v[0] == NEG_INF else (float(v[0]), tuple(p[0].tolist()))

    def sup_quadratic_offset_many(
        self,
        qa: np.ndarray,
        qb: np.ndarray,
        qc,
        box: BoxDomain,
        restrict: bool = True,
        points: bool = False,
    ):
        """Grid maxima of `sup_quadratic_offset` at every row of (qa, qb, qc).

        Rows are grid maxima on `box` whatever `restrict` says.  `qb` has
        shape (N, dim).  With `points`, returns (values, attaining points
        (N, dim)): each row's first grid point of greatest cell, NaN where
        the row is -inf.
        """
        qa = np.asarray(qa, dtype=float)
        qb = np.asarray(qb, dtype=float).reshape(len(qa), self.dim)
        out = np.empty(len(qa))
        arg = np.empty(len(qa), dtype=np.intp)
        for i in range(0, len(qa), ROW_CHUNK):
            sl = slice(i, i + ROW_CHUNK)
            cells = self._offsets_on_grid(qa[sl], qb[sl], box)
            out[sl] = np.max(cells, axis=1)
            if points:
                arg[sl] = np.argmax(cells, axis=1)
        out = out + qc
        if not points:
            return out
        at = box.grid().points[arg]
        return out, np.where((out > NEG_INF)[:, None], at, np.nan)

    def sup_quadratic_offset_lattice(
        self,
        qa: np.ndarray,
        qb: np.ndarray,
        qc,
        box: BoxDomain,
        restrict: bool = True,
    ) -> np.ndarray:
        """`sup_quadratic_offset_many` at every pair (qa_s, qb_i) of a qa axis
        (S,) and qb rows (R, dim): an (S, R) array.

        In 1D all qa slices are one `_monotone_row_max` call over the qb rows
        in ascending order and the ascending grid points, with the cells of
        `_offsets_on_grid`: the least and the greatest qb take the maximum
        over every grid point, every other row over the points between the
        argmaxima of rows around it, so each value is a maximum over a subset
        of the dense row's cells.  In 2D the rows are the dense ones.
        """
        qa = np.asarray(qa, dtype=float)
        qb = np.asarray(qb, dtype=float).reshape(-1, self.dim)
        if self.dim != 1:
            return _lattice_by_rows(self, qa, qb, qc, box, restrict)
        points, hv = box.grid().points, self._values_on(box)
        x, sq = points[:, 0], _squares(points)
        order = np.argsort(qb[:, 0], kind="stable")
        b = qb[order, 0]
        out = np.empty((len(qa), len(b)))
        out[:, order] = _monotone_row_max(
            lambda s, i, j: (qa[s] * sq[j] + b[i] * x[j]) - hv[j], len(qa), len(b), len(x)
        )
        return out + qc

    def shifted(self, a: float) -> "TabulatedFunction":
        """h(x) - a*|x|^2, a >= 0, on the same box."""
        if a < 0:
            raise ValueError("shift coefficient a must be >= 0")
        return TabulatedFunction(self.box, _Shifted(self, a), f"{self.label}~")


@dataclass(frozen=True)
class ProperFunction:
    """A proper function; every operation forwards to its representation,
    a `PiecewiseQuadratic` (closed forms) or a `TabulatedFunction` (grid
    oracles), which share the interface in the module docstring."""

    rep: Union[PiecewiseQuadratic, TabulatedFunction]
    label: str

    @staticmethod
    def from_piecewise(pw: PiecewiseQuadratic, label: str = "f") -> "ProperFunction":
        return ProperFunction(pw, label)

    @staticmethod
    def from_tabulated(tab: TabulatedFunction) -> "ProperFunction":
        return ProperFunction(tab, tab.label)

    @property
    def piecewise(self) -> Optional[PiecewiseQuadratic]:
        return self.rep if isinstance(self.rep, PiecewiseQuadratic) else None

    @property
    def tabulated(self) -> Optional[TabulatedFunction]:
        return self.rep if isinstance(self.rep, TabulatedFunction) else None

    @property
    def dim(self) -> int:
        return self.rep.dim

    @property
    def method(self) -> str:
        return self.rep.method

    def __call__(self, x) -> float:
        p = as_point(x)
        if len(p) != self.dim:
            raise ValueError(f"point dimension {len(p)} != function dimension {self.dim}")
        return self.rep(p)

    def values(self, points: np.ndarray) -> np.ndarray:
        """Values at every row of an (N, dim) array, as `__call__` per row."""
        pts = np.asarray(points, dtype=float)
        if pts.ndim != 2 or pts.shape[1] != self.dim:
            raise ValueError(f"points of shape {pts.shape} do not match function dimension {self.dim}")
        return self.rep.values(pts)

    def sup_quadratic_offset(self, qa, qb, qc, box: BoxDomain, restrict=True):
        return self.rep.sup_quadratic_offset(qa, qb, qc, box, restrict)

    def sup_quadratic_offset_many(self, qa, qb, qc, box: BoxDomain, restrict=True, points=False):
        return self.rep.sup_quadratic_offset_many(qa, qb, qc, box, restrict, points)

    def sup_quadratic_offset_lattice(self, qa, qb, qc, box: BoxDomain, restrict=True):
        return self.rep.sup_quadratic_offset_lattice(qa, qb, qc, box, restrict)

    def shifted(self, a: float) -> "ProperFunction":
        return ProperFunction(self.rep.shifted(a), f"{self.label}~")


def proper_piecewise(label: str, *specs: tuple) -> ProperFunction:
    return ProperFunction.from_piecewise(pieces(*specs), label)


@lru_cache(maxsize=128)
def values_on_grid(f, box: BoxDomain) -> np.ndarray:
    """Grid values of f (anything with `values(points)`) on the box lattice.

    Cached; the arrays are read-only.  Proper functions are passed as their
    representation (`f.rep`), the key a table also uses for itself, so each
    function is evaluated once per box; on its own box a table's values are
    its `grid_values`.
    """
    if isinstance(f, TabulatedFunction) and box == f.box:
        return f.grid_values
    vals = f.values(box.grid().points)
    vals.setflags(write=False)
    return vals


def support_membership(
    phi: Elementary, f: ProperFunction, box: BoxDomain, tol: float = 1e-9
) -> bool:
    """True iff phi <= f everywhere on the box, i.e. sup over the box of
    phi - f is at most tol (exact for piecewise quadratics, on the grid for
    tables)."""
    if phi.dim != f.dim:
        raise ValueError("dimension mismatch between phi and f")
    return f.sup_quadratic_offset(-phi.a, phi.v, phi.c, box)[0] <= tol
