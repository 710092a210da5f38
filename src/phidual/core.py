"""Extended-real arithmetic, box domains, sampling grids and grid extremum search.

Function values live in (-inf, +inf] (proper functions); optimal values of
sups/infs may additionally be -inf.  Both are represented as plain Python
floats, with ``math.inf`` as the infinity sentinel; the helpers below pin
down the arithmetic and the JSON encoding ("+inf" / "-inf" strings).

Everything here is deterministic: grids enumerate lexicographically and all
ties resolve to the first point in enumeration order.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Iterator, Optional, Sequence

import numpy as np

INF = math.inf
NEG_INF = -math.inf

Point = tuple[float, ...]

#: sup values beyond this magnitude are reported as infinite
UNBOUNDED_CAP = 1e12
#: growth factor between expanding-box sweeps that flags divergence
GROWTH_FACTOR = 10.0
#: box expansion per divergence-scan round (catches linear and faster growth)
EXPANSION = 16.0
#: rows per block when a (parameter rows x grid points) matrix is evaluated
ROW_CHUNK = 512


def is_finite(x: float) -> bool:
    return math.isfinite(x)


def ext_add(a: float, b: float) -> float:
    """Extended-value addition; (+inf) + (-inf) is a contract violation."""
    if math.isinf(a) and math.isinf(b) and (a > 0) != (b > 0):
        raise ValueError("undefined sum (+inf) + (-inf)")
    return a + b


def ext_to_json(x: float) -> object:
    if x == INF:
        return "+inf"
    if x == NEG_INF:
        return "-inf"
    return x


def ext_from_json(v: object) -> float:
    if v == "+inf":
        return INF
    if v == "-inf":
        return NEG_INF
    if isinstance(v, (int, float)):
        try:
            return float(v)
        except OverflowError:
            raise ValueError("integer beyond float range") from None
    raise ValueError(f"not an extended real: {v!r}")


def as_point(x) -> Point:
    """Coerce a scalar or sequence of coordinates to a Point tuple."""
    if isinstance(x, (int, float)):
        return (float(x),)
    return tuple(float(c) for c in x)


def dot(v: Point, x: Point) -> float:
    return sum(vi * xi for vi, xi in zip(v, x))


def norm_sq(x: Point) -> float:
    return sum(xi * xi for xi in x)


@dataclass(frozen=True)
class BoxDomain:
    """Axis-aligned box in R^n (n in {1, 2}) with per-axis sample counts.

    The box is the finite stand-in for the whole space: every "for all x"
    and "sup over x" below is resolved on (refinements of) its grid.
    """

    lower: Point
    upper: Point
    samples: tuple[int, ...]

    def __post_init__(self):
        lo = as_point(self.lower)
        up = as_point(self.upper)
        ns = tuple(int(n) for n in self.samples)
        object.__setattr__(self, "lower", lo)
        object.__setattr__(self, "upper", up)
        object.__setattr__(self, "samples", ns)
        if not (len(lo) == len(up) == len(ns)):
            raise ValueError("lower/upper/samples dimension mismatch")
        if len(lo) not in (1, 2):
            raise ValueError("only dimensions 1 and 2 are supported")
        if any(not is_finite(c) for c in lo + up):
            raise ValueError("box corners must be finite")
        if any(l >= u for l, u in zip(lo, up)):
            raise ValueError("box requires lower < upper componentwise")
        if any(n < 2 for n in ns):
            raise ValueError("need at least 2 samples per axis")

    @property
    def dim(self) -> int:
        return len(self.lower)

    def axes(self) -> list[np.ndarray]:
        return [
            np.linspace(l, u, n)
            for l, u, n in zip(self.lower, self.upper, self.samples)
        ]

    def cell_sizes(self) -> tuple[float, ...]:
        return tuple(
            (u - l) / (n - 1) for l, u, n in zip(self.lower, self.upper, self.samples)
        )

    def contains(self, p: Point) -> bool:
        return all(l <= c <= u for l, c, u in zip(self.lower, p, self.upper))

    def clip(self, p: Point) -> Point:
        return tuple(min(max(c, l), u) for l, c, u in zip(self.lower, p, self.upper))

    def scaled(self, factor: float) -> "BoxDomain":
        """Box with the same center and sample counts, `factor` times wider."""
        center = [(l + u) / 2.0 for l, u in zip(self.lower, self.upper)]
        half = [(u - l) / 2.0 * factor for l, u in zip(self.lower, self.upper)]
        return BoxDomain(
            tuple(c - h for c, h in zip(center, half)),
            tuple(c + h for c, h in zip(center, half)),
            self.samples,
        )

    def grid(self) -> "Grid":
        """The box lattice; one Grid per box, so its points are built once."""
        return self._grid

    @cached_property
    def _grid(self) -> "Grid":
        return Grid(self)


class Grid:
    """The lattice of points induced by a BoxDomain, enumerated lexicographically."""

    def __init__(self, box: BoxDomain):
        self.box = box

    @cached_property
    def axes(self) -> list[np.ndarray]:
        axes = self.box.axes()
        for ax in axes:
            ax.setflags(write=False)  # shared by every caller of box.grid()
        return axes

    @cached_property
    def points(self) -> np.ndarray:
        """All grid points as a read-only (N, dim) array in enumeration order."""
        if self.box.dim == 1:
            return self.axes[0][:, None]
        xs, ys = np.meshgrid(self.axes[0], self.axes[1], indexing="ij")
        pts = np.column_stack([xs.ravel(), ys.ravel()])
        pts.setflags(write=False)
        return pts

    @property
    def size(self) -> int:
        return int(np.prod(self.box.samples))

    def point(self, i: int) -> Point:
        return tuple(float(c) for c in self.points[i])

    def __iter__(self) -> Iterator[Point]:
        for row in self.points:
            yield tuple(float(c) for c in row)


def _values_at(h: Callable[[Point], float], points: np.ndarray) -> np.ndarray:
    """h at every row of an (N, dim) array of points.

    One call of the batch method `h.values(points)` when h has one
    (elementary and proper functions, table lookups, `BatchObjective`),
    which must return what the per-point calls would; any other callable is
    called once per row with a tuple of Python floats.
    """
    batch = getattr(h, "values", None)
    if batch is not None:
        return np.asarray(batch(points), dtype=float)
    rows = np.asarray(points, dtype=float).tolist()
    return np.array([h(tuple(row)) for row in rows], dtype=float)


def sup_on_grid(
    h: Callable[[Point], float], grid: Grid, values: Optional[np.ndarray] = None
) -> tuple[float, Optional[Point]]:
    """Maximum of h over the grid and the first attaining point.

    Returns +inf iff some grid point evaluates to +inf.  -inf values are
    skipped; if every value is -inf the result is (-inf, None).
    """
    vals = _values_at(h, grid.points) if values is None else values
    i = int(np.argmax(vals))
    best = float(vals[i])
    if best == NEG_INF:
        return NEG_INF, None
    return best, grid.point(i)


def inf_on_grid(
    h: Callable[[Point], float], grid: Grid, values: Optional[np.ndarray] = None
) -> tuple[float, Optional[Point]]:
    """Dual of sup_on_grid: +inf values are skipped unless all are +inf."""
    vals = _values_at(h, grid.points) if values is None else values
    i = int(np.argmin(vals))
    best = float(vals[i])
    if best == INF:
        return INF, None
    return best, grid.point(i)


class BatchObjective:
    """A search objective given by its batch form.

    `values(rows)` maps an (N, k) array of candidates to their N values, and
    each row's value must not depend on which rows share the batch; calling
    the objective with one candidate evaluates a one-row batch, so both forms
    give the same value bit for bit.  A halving search makes one `values`
    call per round (see `_halving_search`).
    """

    def __init__(self, values: Callable[[np.ndarray], np.ndarray]):
        self.values = values

    def __call__(self, p) -> float:
        return float(self.values(np.asarray([p], dtype=float))[0])


def _halving_search(
    objective,
    seed: Sequence[float],
    radii: Sequence[float],
    offsets: Sequence[float],
    lower: Sequence[float],
    upper: Sequence[float],
    rounds: int,
    sign: float = 1.0,
) -> tuple[float, Point]:
    """Maximize sign * objective by local lattice search around `seed`.

    The seed is evaluated as a one-row batch.  Each round then evaluates the
    whole offsets^k lattice around the incumbent (lexicographic), scaled by
    `radii` and clipped to [lower, upper], as one batch (see `_values_at`);
    the incumbent moves to the first maximum of the batch when that is a
    strict improvement, and the radii halve.  So a search makes 1 + rounds
    batch calls.  `seed` must lie in the bounds.  Returns (objective value,
    point) of the incumbent.
    """
    lattice = np.array(list(itertools.product(offsets, repeat=len(seed))), dtype=float)
    lower = np.asarray(lower, dtype=float)
    upper = np.asarray(upper, dtype=float)
    steps = np.asarray(radii, dtype=float)
    best_p = np.asarray(seed, dtype=float)
    best_v = sign * _values_at(objective, best_p[None, :])[0]
    for _ in range(rounds):
        cands = best_p + lattice * steps
        # min(max(c, lo), hi) per coordinate, as `BoxDomain.clip`
        cands = np.where(lower > cands, lower, cands)
        cands = np.where(upper < cands, upper, cands)
        vals = sign * _values_at(objective, cands)
        # the first maximum; a NaN value never counts as an improvement
        j = int(np.argmax(np.where(vals > best_v, vals, NEG_INF)))
        if vals[j] > best_v:
            best_v, best_p = vals[j], cands[j]
        steps = steps / 2.0
    return float(sign * best_v), tuple(best_p.tolist())


def refine_extremum(
    h: Callable[[Point], float],
    box: BoxDomain,
    seed: Point,
    rounds: int,
    kind: str = "sup",
) -> tuple[float, Point]:
    """Local grid refinement around `seed`, halving the search cell each round.

    The returned value is >= (for sup; <= for inf) the seed evaluation and is
    monotone in `rounds`.  The search never leaves the box.  Each round
    evaluates the 5^dim lattice of half and whole cell offsets around the
    incumbent, moves to its best point if that improves, and halves the
    cell (`_halving_search`).  A round is one call of `h.values(points)` when
    h has that batch method (an (N, dim) array in, N values out, each as
    `h(point)` would give it); any other h is called point by point, with
    the same value and point as the result.
    """
    if rounds < 0:
        raise ValueError("rounds must be >= 0")
    if kind not in ("sup", "inf"):
        raise ValueError("kind must be 'sup' or 'inf'")
    seed = as_point(seed)
    if not box.contains(seed):
        raise ValueError("seed must lie inside the box")
    sign = 1.0 if kind == "sup" else -1.0
    return _halving_search(
        h, seed, box.cell_sizes(), (-1.0, -0.5, 0.0, 0.5, 1.0),
        box.lower, box.upper, rounds, sign,
    )


def extremum_on_box(
    h: Callable[[Point], float],
    box: BoxDomain,
    kind: str = "sup",
    rounds: int = 25,
    values: Optional[np.ndarray] = None,
) -> tuple[float, Optional[Point]]:
    """Grid extremum followed by local refinement around the best grid point."""
    grid = box.grid()
    if kind == "sup":
        v, p = sup_on_grid(h, grid, values=values)
    else:
        v, p = inf_on_grid(h, grid, values=values)
    if p is None or not is_finite(v):
        return v, p
    return refine_extremum(h, box, p, rounds, kind=kind)


def diverges_on_expanding_boxes(
    h: Callable[[Point], float],
    box: BoxDomain,
    kind: str = "sup",
    rounds: int = 2,
    cap: float = UNBOUNDED_CAP,
) -> bool:
    """Heuristic unboundedness sentinel for sups (infs when kind='inf').

    The extremum is re-evaluated on boxes expanded by EXPANSION per round
    (same sample counts).  Divergence is declared when the magnitude exceeds
    `cap`, when the value grows by more than GROWTH_FACTOR between sweeps, or
    when the sweep-to-sweep increments fail to shrink (log-or-faster growth).
    Behaviour outside the scanned region is, by construction, unverified.
    No library module calls it (every tabulated sup is a grid maximum);
    `perfbench/layertrace.py` still names it.
    """
    sign = 1.0 if kind == "sup" else -1.0
    vals = []
    for k in range(rounds + 1):
        b = box if k == 0 else box.scaled(EXPANSION**k)
        grid = b.grid()
        raw = sign * _values_at(h, grid.points)
        v = float(np.max(raw))
        if v == INF or v > cap:
            return True
        if v == NEG_INF:
            # nothing finite on this sweep; cannot certify growth
            continue
        vals.append(v)
    for u, w in zip(vals, vals[1:]):
        if w > GROWTH_FACTOR * max(abs(u), 1.0) and w > u:
            return True
    if len(vals) >= 3:
        d1 = vals[1] - vals[0]
        d2 = vals[2] - vals[1]
        floor = 1e-6 * max(1.0, abs(vals[0]))
        if d1 > floor and d2 >= 0.9 * d1:
            return True
    return False
