"""Independent oracles and random-instance generators shared by the tests.

The oracles deliberately avoid the library's closed-form paths: dense scans
and literal formula transcriptions only, so the tests check the fast paths
against something that cannot share their bugs.
"""

from __future__ import annotations

import math
from typing import Callable, Iterator, Sequence

import numpy as np

from phidual import (
    BoxDomain,
    Elementary,
    PhiClass,
    ProblemInstance,
    ProperFunction,
    proper_piecewise,
)
from phidual.core import Point, as_point

INF = math.inf


def dense_sup(h, lo, hi, n=200001):
    """Brute-force max of a scalar callable over a dense uniform scan."""
    xs = np.linspace(lo, hi, n)
    vals = np.array([h(x) for x in xs])
    i = int(np.argmax(vals))
    return float(vals[i]), float(xs[i])


def dense_inf(h, lo, hi, n=200001):
    v, x = dense_sup(lambda t: -h(t), lo, hi, n)
    return -v, x


def argmin_lookup_index(box: BoxDomain, p) -> int:
    """Flat table index of the nearest grid point by a full scan of each axis.

    The per-point lookup that tabulated instances used before the batched one:
    np.argmin keeps the first index on ties and the end points outside the box.
    """
    idx = tuple(int(np.argmin(np.abs(ax - c))) for c, ax in zip(p, box.axes()))
    return int(np.ravel_multi_index(idx, tuple(box.samples)))


def box1d(lo=-10.0, hi=10.0, n=2001) -> BoxDomain:
    return BoxDomain((lo,), (hi,), (n,))


def lsc_class(grid=65, a_max=8.0, v_max=32.0) -> PhiClass:
    return PhiClass("lsc-quadratic", dim=1, a_max=a_max, v_max=v_max,
                    grid_sizes=(grid, grid))


def affine_class(grid=65, v_max=32.0) -> PhiClass:
    return PhiClass("affine", dim=1, v_max=v_max, grid_sizes=(grid,))


def _snap(x, step=0.25):
    return round(float(x) / step) * step


def random_piecewise(rng: np.random.Generator) -> ProperFunction:
    """A random proper piecewise quadratic whose domain meets [-1, 1]."""
    style = int(rng.integers(0, 3))
    a2 = float(rng.choice([-1.5, -1.0, -0.5, 0.0, 0.5, 1.0, 2.0, 3.0]))
    a1 = _snap(rng.uniform(-4, 4))
    a0 = _snap(rng.uniform(-5, 5))
    if style == 0:
        return proper_piecewise("f", (-INF, INF, a2, a1, a0))
    if style == 1:
        s = _snap(rng.uniform(-3, 3))
        b2 = float(rng.choice([-1.0, 0.0, 0.5, 1.0, 2.0]))
        b1 = _snap(rng.uniform(-4, 4))
        return proper_piecewise(
            "f", (-INF, s, a2, a1, a0), (s, INF, b2, b1, a0 + (a2 - b2) * s * s + (a1 - b1) * s)
        )
    lo = _snap(rng.uniform(-6, -1), 0.5)
    hi = _snap(rng.uniform(1, 6), 0.5)
    return proper_piecewise("f", (lo, hi, a2, a1, a0))


def random_bounded_piecewise(rng: np.random.Generator) -> ProperFunction:
    """Domain strictly inside [-8, 8], so every conjugate sup is interior."""
    lo = _snap(rng.uniform(-8, -1), 0.5)
    hi = _snap(rng.uniform(1, 8), 0.5)
    mid = _snap(rng.uniform(lo + 0.5, hi - 0.5), 0.5)
    a2 = float(rng.choice([-2.0, -1.0, 0.0, 1.0, 2.0]))
    b2 = float(rng.choice([-1.0, 0.0, 0.5, 3.0]))
    a1, b1 = _snap(rng.uniform(-4, 4)), _snap(rng.uniform(-4, 4))
    a0, b0 = _snap(rng.uniform(-5, 5)), _snap(rng.uniform(-5, 5))
    return proper_piecewise("f", (lo, mid, a2, a1, a0), (mid, hi, b2, b1, b0))


def random_elementary(rng: np.random.Generator, a_max=4.0, v_max=8.0) -> Elementary:
    a = float(rng.choice([0.0, 0.25, 0.5, 1.0, 2.0, a_max / 2]))
    v = _snap(rng.uniform(-v_max, v_max))
    c = _snap(rng.uniform(-5, 5))
    return Elementary(a, (v,), c)


def random_instance(rng: np.random.Generator, samples=501, phi_grid=33) -> ProblemInstance:
    box = box1d(n=samples)
    phi = lsc_class(grid=phi_grid)
    while True:
        f = random_piecewise(rng)
        g = random_piecewise(rng)
        try:
            return ProblemInstance(f, g, box, phi)
        except ValueError:
            continue


# ---------------------------------------------------------------------------
# sequential halving searches
# ---------------------------------------------------------------------------


def sequential_refine_extremum(
    h: Callable[[Point], float],
    box: BoxDomain,
    seed: Point,
    rounds: int,
    kind: str = "sup",
) -> tuple[float, Point]:
    """Local grid refinement around `seed`, halving the search cell each round.

    The point-by-point halving search that `core.refine_extremum` ran before
    its candidates were batched, kept as the reference for the batched one.

    The returned value is >= (for sup; <= for inf) the seed evaluation and is
    monotone in `rounds`.  The search never leaves the box.
    """
    if rounds < 0:
        raise ValueError("rounds must be >= 0")
    if kind not in ("sup", "inf"):
        raise ValueError("kind must be 'sup' or 'inf'")
    seed = as_point(seed)
    if not box.contains(seed):
        raise ValueError("seed must lie inside the box")
    sign = 1.0 if kind == "sup" else -1.0
    best_p = seed
    best_v = sign * h(seed)
    radii = list(box.cell_sizes())
    offsets = (-1.0, -0.5, 0.0, 0.5, 1.0)
    for _ in range(rounds):
        for off in _offset_lattice(len(radii), offsets):
            cand = box.clip(
                tuple(c + o * r for c, o, r in zip(best_p, off, radii))
            )
            v = sign * h(cand)
            if v > best_v:
                best_v, best_p = v, cand
        radii = [r / 2.0 for r in radii]
    return sign * best_v, best_p


def _offset_lattice(dim: int, offsets: Sequence[float]) -> Iterator[tuple[float, ...]]:
    if dim == 1:
        for o in offsets:
            yield (o,)
    else:
        for o1 in offsets:
            for o2 in offsets:
                yield (o1, o2)


def sequential_refine_in_params(
    objective,
    phi_class: PhiClass,
    seed_params,
    rounds: int = 20,
) -> tuple[float, tuple[float, ...]]:
    """Local maximization of `objective(params)` around a parameter-grid seed.

    The candidate-by-candidate search that `conjugation.refine_in_params`
    ran before its candidates were batched, kept as the reference for the
    batched one.

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
