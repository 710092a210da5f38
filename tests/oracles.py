"""Independent oracles and random-instance generators shared by the tests.

The oracles deliberately avoid the library's closed-form paths: dense scans
and literal formula transcriptions only, so the tests check the fast paths
against something that cannot share their bugs.
"""

from __future__ import annotations

import itertools
import math
from typing import Callable, Optional, Sequence

import numpy as np

from phidual import (
    BoxDomain,
    Elementary,
    PhiClass,
    ProblemInstance,
    ProperFunction,
    ext_to_json,
    proper_piecewise,
)
from phidual.conjugation import _sweep_and_refine
from phidual.core import BatchObjective, Point, extremum_on_box
from phidual.duality import objective_values
from phidual.functions import CLOSED_FORM, UnsupportedClassError, values_on_grid
from phidual.gap import BuiConditionResult, EpsWitness
from phidual.subdifferential import is_eps_subgradient

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


def check_intersection_direct(
    phi1: Elementary,
    phi2: Elementary,
    alpha: float,
    box: BoxDomain,
    t_grid_size: int = 1001,
) -> bool:
    """Brute-force oracle for the intersection property at level alpha.

    For every t on a grid of [0, 1], at least one of the two sets
    [t*phi1 + (1-t)*phi2 < alpha] meet [phi_i < alpha] must be empty on the
    box grid.
    """
    pts = box.grid().points
    v1 = phi1.values(pts)
    v2 = phi2.values(pts)
    below1 = v1 < alpha
    below2 = v2 < alpha
    ts = np.linspace(0.0, 1.0, t_grid_size)
    for i in range(0, len(ts), 64):
        block = ts[i : i + 64]
        combo_below = block[:, None] * v1[None, :] + (1.0 - block[:, None]) * v2[None, :] < alpha
        bad1 = np.any(combo_below & below1[None, :], axis=1)
        bad2 = np.any(combo_below & below2[None, :], axis=1)
        if np.any(bad1 & bad2):
            return False
    return True


def perturbation_conjugate_direct(
    inst: ProblemInstance,
    phi: Elementary,
    psi: Elementary,
    x_box: Optional[BoxDomain] = None,
    y_box: Optional[BoxDomain] = None,
) -> float:
    """Direct double-grid sup of c((phi, psi), (x, y)) - p(x, y).

    Brute-force evaluator of the generalized-coupling conjugate; used to
    cross-check the factored form and to exercise couplings with psi != phi.
    """
    x_box = x_box or inst.box
    y_box = y_box or inst.box
    best = -INF
    for x in x_box.grid():
        fx = inst.f(x)
        if fx == INF:
            continue
        base = phi(x) - psi(x) - fx
        for y in y_box.grid():
            z = tuple(a + b for a, b in zip(x, y))
            gz = inst.g(z)
            if gz == INF:
                continue
            val = base + psi(z) - gz
            if val > best:
                best = val
    return best


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


def twin_document(inst: ProblemInstance, samples: int = 401) -> dict:
    """The instance document of a 1D instance's tabulated twin: f and g
    sampled on `samples` points of the instance's box, same class."""
    (lo,), (hi,) = inst.box.lower, inst.box.upper
    box = BoxDomain((lo,), (hi,), (samples,))
    p = inst.phi
    doc = {
        "dimension": 1,
        "box": {"lower": [lo], "upper": [hi], "samples": [samples]},
        "phi": {"kind": p.kind, "a_max": p.a_max, "v_max": p.v_max, "grid": list(p.grid_sizes)},
    }
    for key, fn in (("f", inst.f), ("g", inst.g)):
        values = fn.values(box.grid().points)
        doc[key] = {"type": "tabulated", "table": {"values": [ext_to_json(v) for v in values]}}
    return doc


def table_2d_doc() -> dict:
    """f = (x - 0.5)^2 + 2y^2 and g = (x^2 + y^2)/2 - x on x + y >= -1,
    tabulated on a 41 x 41 grid of [-2, 2]^2, affine class on 9 x 9."""
    ax = np.linspace(-2.0, 2.0, 41)
    x, y = (m.ravel() for m in np.meshgrid(ax, ax, indexing="ij"))
    g = np.where(x + y >= -1.0, (x * x + y * y) / 2.0 - x, INF)
    return {
        "dimension": 2,
        "f": {"type": "tabulated", "table": {"values": ((x - 0.5) ** 2 + 2.0 * y * y).tolist()}},
        "g": {"type": "tabulated", "table": {"values": [ext_to_json(float(v)) for v in g]}},
        "box": {"lower": [-2.0, -2.0], "upper": [2.0, 2.0], "samples": [41, 41]},
        "phi": {"kind": "affine", "a_max": 4.0, "v_max": 8.0, "grid": [9, 9]},
    }


# ---------------------------------------------------------------------------
# reference searches
# ---------------------------------------------------------------------------


def grid_refined_primal(inst: ProblemInstance) -> tuple[float, Optional[Point]]:
    """inf of f + g on the grid, refined around the first minimizer.

    The search `val_primal` ran before it read the minimum off the piecewise
    sum f + g, kept verbatim as the reference: off-grid refinement only
    applies on the closed-form path, so on tables it is the grid minimum.
    """
    vals = objective_values(inst.f, inst.g, inst.box)
    rounds = 25 if inst.method == CLOSED_FORM else 0
    return extremum_on_box(
        _primal_objective(inst), inst.box, kind="inf", values=vals, rounds=rounds
    )


def _primal_objective(inst: ProblemInstance) -> BatchObjective:
    """x -> f(x) + g(x) at every row of an (N, dim) array of points."""
    return BatchObjective(lambda points: inst.f.values(points) + inst.g.values(points))


def pointwise_halving_search(
    objective: Callable[[Point], float],
    seed: Sequence[float],
    radii: Sequence[float],
    offsets: Sequence[float],
    lower: Sequence[float],
    upper: Sequence[float],
    rounds: int,
    sign: float = 1.0,
) -> tuple[float, Point]:
    """The halving search of `core._halving_search`, one candidate at a time.

    Each round visits the offsets^k lattice around the round's incumbent
    (lexicographic), scaled by `radii` and clipped to [lower, upper]; the
    incumbent moves to the first candidate of greatest sign * objective when
    that beats it strictly, and the radii halve.
    """
    best_p = tuple(float(c) for c in seed)
    best_v = sign * objective(best_p)
    for _ in range(rounds):
        round_v, round_p = best_v, best_p
        for off in itertools.product(offsets, repeat=len(best_p)):
            cand = tuple(
                min(max(c + o * r, lo), hi)
                for c, o, r, lo, hi in zip(best_p, off, radii, lower, upper)
            )
            v = sign * objective(cand)
            if v > round_v:
                round_v, round_p = v, cand
        best_v, best_p = round_v, round_p
        radii = [r / 2.0 for r in radii]
    return sign * best_v, best_p


def box_margins(f: ProperFunction, box: BoxDomain, vs: np.ndarray, sign: float):
    """(inf over the box of f(x) - sign*<v, x>, an attaining point) per row
    of vs, from the sups of f restricted to the box."""
    f_box = f.restricted_to(box)
    r, x = f_box.sup_quadratic_offset_many(np.zeros(len(vs)), sign * vs, 0.0, box, points=True)
    return -r, x


def grid_search_bui_condition(
    inst: ProblemInstance,
    eps_list: Sequence[float] = (1.0, 0.1, 0.01, 0.001),
    tol: float = 1e-9,
) -> BuiConditionResult:
    """For each eps, search a point x_bar and a zero-sum pair (phi, -phi) with
    phi an eps-subgradient of g and -phi one of f at x_bar.

    The search `check_bui_condition` ran for every eps before it decided
    most of them from the instance's own values, kept verbatim as the
    reference: x_bar over the box grid, v over the symmetric subclass's
    grid, plus one v refined from the row needing the least eps when some
    eps has no witness on the grid.
    """
    if not (inst.phi.contains_zero and inst.phi.additive):
        raise UnsupportedClassError(
            "the sum condition needs 0 in the class and additivity"
        )
    if any(not eps >= 0 for eps in eps_list):
        raise ValueError("eps values must be >= 0")
    sub, pts = inst.phi.symmetric_subclass(), inst.box.grid().points
    gv = values_on_grid(inst.g.rep, inst.box)
    fv = values_on_grid(inst.f.rep, inst.box)

    def margins(rows: np.ndarray) -> tuple:
        """v, g - <v, x>, inf(g - <v, .>), f + <v, x>, inf(f + <v, .>) per row."""
        vs = sub.split_params(rows)[1]
        vx = vs @ pts.T  # (Nv, M)
        m_g = box_margins(inst.g, inst.box, vs, +1.0)[0][:, None]
        m_f = box_margins(inst.f, inst.box, vs, -1.0)[0][:, None]
        return vs, gv[None, :] - vx, m_g, fv[None, :] + vx, m_f

    def first_hit(m: tuple, eps: float):
        vs, gx, m_g, fx, m_f = m
        hit = np.argwhere((gx <= (m_g + eps + tol)) & (fx <= (m_f + eps + tol)))
        return (vs[hit[0, 0]], pts[hit[0, 1]]) if hit.size else None

    def minus_least_eps(m: tuple) -> np.ndarray:
        return -np.min(np.maximum(m[1] - m[2], m[3] - m[4]), axis=1)

    params = sub.param_grid()
    m, per = margins(params), []
    for eps in eps_list:
        hit = first_hit(m, eps)
        if hit is None and len(m[0]) == len(params):
            # no witness on the v grid: add v refined from the row needing the least eps
            _, p = _sweep_and_refine(lambda r: minus_least_eps(margins(r)), sub, params, minus_least_eps(m))
            m = m if p is None else tuple(map(np.concatenate, zip(m, margins(np.array([p])))))
            hit = first_hit(m, eps)
        if hit:
            phi = Elementary(0.0, tuple(hit[0]), 0.0)
            x_bar = tuple(float(c) for c in hit[1])
            verified = (
                is_eps_subgradient(inst.g, x_bar, phi, eps, inst.box).holds
                and is_eps_subgradient(inst.f, x_bar, phi.negated(), eps, inst.box).holds
            )
            per.append(EpsWitness(eps, True, x_bar, phi, verified))
        else:
            per.append(EpsWitness(eps, False, None, None, False))
    overall = all(w.found and w.verified for w in per)
    return BuiConditionResult(tuple(eps_list), per, overall)


# ---------------------------------------------------------------------------
# dense (rows x points) maxima
# ---------------------------------------------------------------------------


def _squares(points: np.ndarray):
    """|x|^2 of every row of an (N, dim) array, summed from 0.0 in coordinate order."""
    sq = 0.0
    for xk in points.T:
        sq = sq + xk * xk
    return sq


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


ROW_CHUNK = 512


def dense_conjugate_table(f: ProperFunction, phi_class: PhiClass, box: BoxDomain, side: str):
    """Conjugate values of f over `phi_class.param_grid()` (c = 0) as the
    library computed them before its monotone kernel: for a table, every
    (parameter x grid point) cell, `quadratic_rows` minus h, then `np.max`
    per row; a piecewise function keeps its exact `sup_quadratic_offset_many`."""
    a, v = phi_class.split_params(phi_class.param_grid())
    sign = 1.0 if side == "right" else -1.0
    qa, qb = -sign * a, sign * v
    if f.tabulated is None:
        return f.sup_quadratic_offset_many(qa, qb, 0.0, box)
    points = box.grid().points
    hv = f.tabulated.values(points)
    out = np.empty(len(qa))
    for i in range(0, len(qa), ROW_CHUNK):
        sl = slice(i, i + ROW_CHUNK)
        out[sl] = np.max(quadratic_rows(qa[sl], qb[sl], points) - hv, axis=1)
    return out + 0.0


def dense_biconjugate_on_grid(
    f: ProperFunction, phi_class: PhiClass, box: BoxDomain, extra_phis=()
) -> np.ndarray:
    """f** at every grid point over the parameter grid plus `extra_phis`, as
    the library computed it before its monotone kernel: every (member x grid
    point) cell, `quadratic_rows` minus f*, then `np.max` per point."""
    params = phi_class.param_grid()
    fstar = dense_conjugate_table(f, phi_class, box, "right")
    if extra_phis:
        eparams = np.array([phi_class.params_of(p) for p in extra_phis], dtype=float)
        eparams = eparams.reshape(len(extra_phis), phi_class.n_params)
        ea, ev = phi_class.split_params(eparams)
        efstar = f.sup_quadratic_offset_many(-ea, ev, 0.0, box)
        params = np.vstack([params, eparams])
        fstar = np.concatenate([fstar, efstar])
    a, v = phi_class.split_params(params)
    points = box.grid().points
    out = np.full(points.shape[0], -INF)
    for i in range(0, len(fstar), ROW_CHUNK):
        sl = slice(i, i + ROW_CHUNK)
        scores = quadratic_rows(-a[sl], v[sl], points) - fstar[sl][:, None]
        out = np.maximum(out, np.max(scores, axis=0))
    return out
