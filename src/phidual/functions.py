"""Proper objective functions and elementary minorant classes.

Two function representations are supported:

* :class:`PiecewiseQuadratic` -- an exact 1D proper function given by finitely
  many quadratic pieces on intervals (+inf outside their union).  All sups and
  infs of (quadratic - piece) reduce to vertex clamping on intervals, which is
  what makes conjugates and subgradient checks exact on this representation.
* :class:`TabulatedFunction` -- a black-box evaluator over a box, handled by
  grid oracles.

Elementary functions are x |-> -a*||x||^2 + <v, x> + c with a >= 0; a = 0
gives the affine class.  :class:`PhiClass` is a truncated, searchable
parameterization of such a class together with its algebraic flags.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Callable, Optional, Sequence

import numpy as np

from .core import INF, NEG_INF, BoxDomain, Point, as_point, dot, is_finite, norm_sq


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
    +inf.  Ties resolve to the smaller x.
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
    return best_v, best_x


def quad_inf_on_interval(
    A: float, B: float, C: float, lo: float, hi: float
) -> tuple[float, Optional[float]]:
    """inf of A*x^2 + B*x + C over [lo, hi]; -inf when unbounded below."""
    v, x = quad_sup_on_interval(-A, -B, -C, lo, hi)
    return -v, x


def quad_sup_on_interval_many(
    A: np.ndarray, B: np.ndarray, C: np.ndarray, lo: float, hi: float
) -> np.ndarray:
    """Vectorized `quad_sup_on_interval` over coefficient arrays (values only)."""
    vals = np.full(np.shape(A), NEG_INF)
    if is_finite(lo):
        vals = np.maximum(vals, (A * lo + B) * lo + C)
    if is_finite(hi):
        vals = np.maximum(vals, (A * hi + B) * hi + C)
    concave = A < 0
    with np.errstate(divide="ignore", invalid="ignore"):
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
    return np.where(unbounded, INF, vals)


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
        sq = dt = 0.0
        for vk, xk in zip(self.v, pts.T):
            sq = sq + xk * xk
            dt = dt + vk * xk
        return -self.a * sq + dt + self.c

    def values_1d(self, xs: np.ndarray) -> np.ndarray:
        return -self.a * xs * xs + self.v[0] * xs + self.c

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
        if self.a_max < 0 or self.v_max <= 0:
            raise ValueError("truncation bounds must be positive")
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

    def symmetric_param_axes(self) -> list[np.ndarray]:
        """Axes of the symmetric subclass {phi : -phi in class} (forces a = 0)."""
        if self.kind == "constant-only":
            return []
        sizes = self.grid_sizes[1:] if self.kind == "lsc-quadratic" else self.grid_sizes
        return [np.linspace(-self.v_max, self.v_max, n) for n in sizes]

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

    def clip_params(self, params: Sequence[float]) -> tuple[float, ...]:
        p = list(float(x) for x in params)
        if self.kind == "lsc-quadratic":
            p[0] = min(max(p[0], 0.0), self.a_max)
            rest = p[1:]
        else:
            rest = p
        rest = [min(max(x, -self.v_max), self.v_max) for x in rest]
        if self.kind == "lsc-quadratic":
            return (p[0], *rest)
        return tuple(rest)

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
    (lower-semicontinuous selection).
    """

    pieces: tuple[QuadraticPiece, ...]

    def __post_init__(self):
        ps = tuple(self.pieces)
        if not ps:
            raise ValueError("a proper function needs at least one piece")
        object.__setattr__(self, "pieces", ps)
        for p, q in zip(ps, ps[1:]):
            if p.hi > q.lo:
                raise ValueError("pieces must be sorted and non-overlapping")

    def __call__(self, x: float) -> float:
        val = INF
        for p in self.pieces:
            if p.lo <= x <= p.hi:
                val = min(val, p.poly(x))
        return val

    def values(self, xs: np.ndarray) -> np.ndarray:
        out = np.full(xs.shape, INF)
        for p in self.pieces:
            m = (xs >= p.lo) & (xs <= p.hi)
            out[m] = np.minimum(out[m], (p.a2 * xs[m] + p.a1) * xs[m] + p.a0)
        return out

    def sup_quadratic_offset(
        self,
        qa: float,
        qb: float,
        qc: float,
        box: Optional[BoxDomain] = None,
    ) -> tuple[float, Optional[Point]]:
        """sup of (qa*x^2 + qb*x + qc) - f(x), optionally restricted to the box.

        Exact per piece via vertex clamping; +inf is detected analytically on
        unbounded pieces.
        """
        blo, bhi = (box.lower[0], box.upper[0]) if box is not None else (NEG_INF, INF)
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
    ) -> np.ndarray:
        """Vectorized `sup_quadratic_offset` over coefficient arrays."""
        blo, bhi = (box.lower[0], box.upper[0]) if box is not None else (NEG_INF, INF)
        out = np.full(np.shape(qa), NEG_INF)
        qc = np.asarray(qc, dtype=float)
        for p in self.pieces:
            lo, hi = max(p.lo, blo), min(p.hi, bhi)
            if lo > hi:
                continue
            out = np.maximum(
                out,
                quad_sup_on_interval_many(qa - p.a2, qb - p.a1, qc - p.a0, lo, hi),
            )
        return out

    def shifted(self, a: float) -> "PiecewiseQuadratic":
        """f(x) - a*x^2 with identical intervals (see `shift_by_quadratic`)."""
        return PiecewiseQuadratic(
            tuple(
                QuadraticPiece(p.lo, p.hi, p.a2 - a, p.a1, p.a0) for p in self.pieces
            )
        )


def shift_by_quadratic(f: PiecewiseQuadratic, a: float) -> PiecewiseQuadratic:
    """The quadratically shifted function f~(x) = f(x) - a*x^2, a >= 0."""
    if a < 0:
        raise ValueError("shift coefficient a must be >= 0")
    return f.shifted(a)


def pieces(*specs: tuple) -> PiecewiseQuadratic:
    """Build a PiecewiseQuadratic from (lo, hi, a2, a1, a0) tuples."""
    return PiecewiseQuadratic(tuple(QuadraticPiece(*s) for s in specs))


# ---------------------------------------------------------------------------
# tabulated (black-box) functions and the unified proper-function wrapper
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TabulatedFunction:
    """A box plus a deterministic black-box evaluator into (-inf, +inf].

    The evaluator is called with a point tuple.  It may also offer a batch
    method `values(points)` taking an (N, dim) array and returning the N
    values the per-point calls would return; grid sweeps then make one call
    instead of N.
    """

    box: BoxDomain
    evaluator: Callable[[Point], float]
    label: str = "h"

    def __post_init__(self):
        vals = self.values(self.box.grid().points)
        if np.any(np.isnan(vals)):
            raise ValueError("function values must not be NaN")
        if np.any(vals == NEG_INF):
            raise ValueError("function values must stay above -inf")
        if not np.any(np.isfinite(vals)):
            raise ValueError("empty effective domain on the working grid")

    @property
    def dim(self) -> int:
        return self.box.dim

    def __call__(self, x) -> float:
        return float(self.evaluator(as_point(x)))

    def values(self, points: np.ndarray) -> np.ndarray:
        """Values at every row of an (N, dim) array (see the class docstring)."""
        batch = getattr(self.evaluator, "values", None)
        if batch is not None:
            return np.asarray(batch(points), dtype=float)
        return np.array([self(p) for p in points], dtype=float)


@dataclass(frozen=True)
class ProperFunction:
    """A proper function in one of the two supported representations."""

    kind: str  # "piecewise-quadratic" | "tabulated"
    piecewise: Optional[PiecewiseQuadratic]
    tabulated: Optional[TabulatedFunction]
    label: str

    @staticmethod
    def from_piecewise(pw: PiecewiseQuadratic, label: str = "f") -> "ProperFunction":
        return ProperFunction("piecewise-quadratic", pw, None, label)

    @staticmethod
    def from_tabulated(tab: TabulatedFunction) -> "ProperFunction":
        return ProperFunction("tabulated", None, tab, tab.label)

    @property
    def dim(self) -> int:
        return 1 if self.piecewise is not None else self.tabulated.dim

    def __call__(self, x) -> float:
        p = as_point(x)
        if len(p) != self.dim:
            raise ValueError(f"point dimension {len(p)} != function dimension {self.dim}")
        if self.piecewise is not None:
            return self.piecewise(p[0])
        return self.tabulated(p)

    def values(self, points: np.ndarray) -> np.ndarray:
        """Values at every row of an (N, dim) array, as `__call__` per row."""
        pts = np.asarray(points, dtype=float)
        if pts.ndim != 2 or pts.shape[1] != self.dim:
            raise ValueError(f"points of shape {pts.shape} do not match function dimension {self.dim}")
        if self.piecewise is not None:
            return self.piecewise.values(pts[:, 0])
        return self.tabulated.values(pts)


def evaluate(f: ProperFunction, x) -> float:
    """Evaluate a proper function; values lie in (-inf, +inf]."""
    return f(x)


def proper_piecewise(label: str, *specs: tuple) -> ProperFunction:
    return ProperFunction.from_piecewise(pieces(*specs), label)


@lru_cache(maxsize=128)
def values_on_grid(f: ProperFunction, box: BoxDomain) -> np.ndarray:
    """Grid values of f on the box lattice (cached; arrays are read-only)."""
    vals = f.values(box.grid().points)
    vals.setflags(write=False)
    return vals


def support_membership(
    phi: Elementary, f: ProperFunction, box: BoxDomain, tol: float = 1e-9
) -> bool:
    """True iff phi <= f everywhere on the box.

    Exact piece-by-piece check for piecewise-quadratic f; grid check with the
    given tolerance otherwise.
    """
    if phi.dim != f.dim:
        raise ValueError("dimension mismatch between phi and f")
    if f.piecewise is not None:
        # min over box of f - phi  >=  -tol
        v, _ = f.piecewise.inf_plus_quadratic(phi.a, -phi.v[0], -phi.c, box)
        return v >= -tol
    vals = values_on_grid(f, box)
    phi_vals = phi.values(box.grid().points)
    return bool(np.min(vals - phi_vals) >= -tol)
