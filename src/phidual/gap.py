"""Zero-duality-gap analysis.

Two routes to certifying a zero gap are implemented and bridged:

* the intersection property: two support elements of Lagrangian slices have
  the intersection property at level alpha iff some convex combination of
  them dominates alpha everywhere (checked exactly for elementary functions);
* the sum condition: 0 lies in (eps-subdifferential of f + eps-subdifferential
  of g)(X) for every tested eps, over zero-sum pairs in the class.  Each eps
  is decided from the instance's values where the mathematics allows: the
  primal minimizer paired with the maximizer of the box dual d_box is a
  witness for every eps at least its gap, and below half of
  val(P) - sup d_box no pair exists (a proven negative over the box and the
  truncated slopes, in 1D); only the band between runs a grid search.

A failed certificate search is always reported as inconclusive, never as a
disproof -- the searches are truncated; the sum condition's half-gap bound
is the one proven negative, and it names the set it covers.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from functools import cache
from typing import Optional, Sequence

import numpy as np

from .core import INF, NEG_INF, BoxDomain, Point, ext_to_json, is_finite
from .conjugation import _maximize_concave, _sweep_and_refine, phi_conjugate
from .duality import ProblemInstance, _members_by_dual_value
from .functions import (
    CLOSED_FORM,
    Elementary,
    PhiClass,
    ProperFunction,
    UnsupportedClassError,
    quad_inf_on_interval,
    values_on_grid,
)
from .subdifferential import is_eps_subgradient

DEFAULT_EPS_LIST = (1.0, 0.1, 0.01, 0.001)
DEFAULT_ALPHA_OFFSETS = (0.5, 0.1, 0.01)


def elementary_extremum_on_box(
    phi: Elementary, box: BoxDomain, kind: str = "inf"
) -> tuple[float, Point]:
    """Exact extremum of an elementary function over the box (separable per axis)."""
    total = phi.c
    coords = []
    for lo, hi, vi in zip(box.lower, box.upper, phi.v):
        if kind == "inf":
            val, x = quad_inf_on_interval(-phi.a, vi, 0.0, lo, hi)
        else:
            val, x = quad_inf_on_interval(phi.a, -vi, 0.0, lo, hi)
            val = -val
        total += val
        coords.append(x)
    return total, tuple(coords)


@dataclass(frozen=True)
class IntersectionCertificate:
    """Lemma-form certificate: t0*phi1 + (1-t0)*phi2 >= alpha over the box."""

    holds: bool
    t0: Optional[float]
    alpha: float
    phi1: Elementary
    phi2: Elementary
    min_over_x_at_t0: float


def _corner_values(phi: Elementary, box: BoxDomain) -> np.ndarray:
    """phi at the 2^dim corners of the box."""
    corners = np.array(list(itertools.product(*zip(box.lower, box.upper))))
    return phi.values(corners)


def check_intersection_property(
    phi1: Elementary,
    phi2: Elementary,
    alpha: float,
    box: BoxDomain,
    tol: float = 1e-9,
) -> IntersectionCertificate:
    """Check the intersection property at level alpha via its lemma form.

    The property holds iff v(t) = min over the box of t*phi1 + (1-t)*phi2
    reaches alpha for some t in [0, 1].  Every combination is concave in x
    (its quadratic coefficient stays >= 0), so its minimum over the box sits
    at a corner: v is the lower envelope of one line in t per corner, and
    its maximum lies at t = 1, at t = 0 or where two corner lines cross.
    Those candidates are evaluated exactly; ties prefer t = 1, then t = 0.
    """
    u1, u2 = _corner_values(phi1, box), _corner_values(phi2, box)
    slope = u1 - u2  # corner line k: u2[k] + t*slope[k]
    ts = [1.0, 0.0]
    for k, l in itertools.combinations(range(len(slope)), 2):
        if slope[k] != slope[l]:
            t = float((u2[l] - u2[k]) / (slope[k] - slope[l]))
            if 0.0 < t < 1.0:
                ts.append(t)
    best_v, t0 = NEG_INF, None
    for t in ts:
        v = elementary_extremum_on_box(phi1.combine(phi2, t), box, "inf")[0]
        if v > best_v:
            best_v, t0 = v, t
    return IntersectionCertificate(
        holds=best_v >= alpha - tol,
        t0=t0,
        alpha=alpha,
        phi1=phi1,
        phi2=phi2,
        min_over_x_at_t0=best_v,
    )


# ---------------------------------------------------------------------------
# certificate search for levels below the Lagrangian primal value
# ---------------------------------------------------------------------------


@dataclass
class AlphaCertificate:
    """Search outcome at one level alpha; not-found means inconclusive."""

    alpha: float
    found: bool
    certificate: Optional[IntersectionCertificate]
    psi1: Optional[Elementary]
    psi2: Optional[Elementary]
    support1: Optional[Elementary]
    support2: Optional[Elementary]
    checks_used: int

    def as_dict(self) -> dict:
        def elem(e):
            return None if e is None else {"a": e.a, "v": list(e.v), "c": e.c}

        return {
            "alpha": self.alpha,
            "found": self.found,
            "inconclusive": not self.found,
            "t0": None if self.certificate is None else self.certificate.t0,
            "min_at_t0": (
                None
                if self.certificate is None
                else ext_to_json(self.certificate.min_over_x_at_t0)
            ),
            "psi1": elem(self.psi1),
            "psi2": elem(self.psi2),
            "support1": elem(self.support1),
            "support2": elem(self.support2),
            "checks_used": self.checks_used,
        }


def support_candidates(
    inst: ProblemInstance,
    psi: Elementary,
    alpha: float,
    param_points: int = 5,
) -> list[Elementary]:
    """Candidate support elements of L(., psi) = f + psi - g*(psi) on the box.

    (a) the constant alpha when it minorizes L, (b) the constant at inf L,
    (c) elementary minorants with (a, v) on a coarse subgrid (the a axis
    times the product of the v axes) and c pushed up to
    inf(L - (-a|x|^2 + <v, x>)).  All candidates are nudged down by a float
    guard so membership is robust.  No candidate when psi is infeasible.
    """
    gstar = phi_conjugate(inst.g, psi, inst.box).value
    if gstar == INF:
        return []

    def inf_l(a: float, v: tuple) -> float:
        # inf(f + psi - g*(psi) + a|x|^2 - <v, x>) = -sup(q - f), q = -(...)
        qb = tuple(vi - pi for vi, pi in zip(v, psi.v))
        return -inst.f.sup_quadratic_offset(psi.a - a, qb, gstar - psi.c, inst.box)[0]

    zeros = (0.0,) * inst.phi.dim
    inf_0 = inf_l(0.0, zeros)
    if inf_0 == NEG_INF:
        return []
    guard = lambda c: c - 1e-12 * (1.0 + abs(c))
    cands: list[Elementary] = []
    if alpha <= inf_0 + 1e-12:
        cands.append(Elementary(0.0, zeros, alpha))
    if is_finite(inf_0):
        cands.append(Elementary(0.0, zeros, guard(inf_0)))
    a_axis = (
        np.linspace(0.0, inst.phi.a_max, param_points)
        if inst.phi.kind == "lsc-quadratic"
        else np.array([0.0])
    )
    v_axis = (
        np.linspace(-inst.phi.v_max, inst.phi.v_max, param_points)
        if inst.phi.kind != "constant-only"
        else np.array([0.0])
    )
    for a in a_axis:
        for v in itertools.product(v_axis.tolist(), repeat=inst.phi.dim):
            c = inf_l(float(a), v)
            if is_finite(c):
                cands.append(Elementary(a, v, guard(c)))
    return cands


def _support_pairs(inst: ProblemInstance, pairs, alpha: float, support_points: int):
    """(psi1, psi2, s1, s2) for every pair and every two support candidates."""
    for psi1, psi2 in pairs:
        cands1 = support_candidates(inst, psi1, alpha, support_points)
        cands2 = support_candidates(inst, psi2, alpha, support_points)
        for s1, s2 in itertools.product(cands1, cands2):
            yield psi1, psi2, s1, s2


def certify_zero_gap_via_intersection(
    inst: ProblemInstance,
    alphas: Sequence[float],
    pairs: Optional[Sequence[tuple[Elementary, Elementary]]] = None,
    psi_budget: int = 8,
    check_budget: int = 200,
    support_points: int = 5,
) -> list[AlphaCertificate]:
    """Search, per level alpha < val(LP), for a certified intersection pair.

    Candidate slice parameters psi are taken from `pairs` when given (pinned
    searches), otherwise they are the instance's val(CD) winner followed by
    members ranked by dual value (`_members_by_dual_value`), so the pair
    (winner, winner) is tried first; support elements come from
    `support_candidates`.  The first pair passing the lemma-form check wins;
    exhausting the budget yields an inconclusive (never negative) outcome.
    """
    v_lp = inst.lagrangian_primal[0]
    for alpha in alphas:
        if not alpha < v_lp:
            raise ValueError(
                f"alpha={alpha} must be below the Lagrangian primal value {v_lp}"
            )
    if pairs is None:
        psis = _members_by_dual_value(inst, psi_budget)
        pairs = [(p1, p2) for p1 in psis for p2 in psis]
    results = []
    for alpha in alphas:
        found, checks = None, 0
        for psi1, psi2, s1, s2 in itertools.islice(
            _support_pairs(inst, pairs, alpha, support_points), check_budget
        ):
            checks += 1
            cert = check_intersection_property(s1, s2, alpha, inst.box)
            if cert.holds:
                found = (cert, psi1, psi2, s1, s2)
                break
        results.append(AlphaCertificate(alpha, bool(found), *(found or (None,) * 5), checks))
    return results


# ---------------------------------------------------------------------------
# the sum-of-eps-subdifferentials condition
# ---------------------------------------------------------------------------


@dataclass
class EpsWitness:
    """The outcome at one eps and how it was decided: "winner" (the pair of
    the primal minimizer and the box dual's maximizer, verified), "bound"
    (proven none by the half-gap bound; `none_over` names the set it covers)
    or "search" (the grid search of the band between)."""

    eps: float
    found: bool
    x_bar: Optional[Point]
    phi: Optional[Elementary]
    verified: bool
    decided_by: str = "search"
    none_over: Optional[dict] = None

    def as_dict(self) -> dict:
        out = {
            "eps": self.eps,
            "found": self.found,
            "x_bar": list(self.x_bar) if self.x_bar else None,
            "phi": None if self.phi is None else {"a": self.phi.a, "v": list(self.phi.v), "c": self.phi.c},
            "verified": self.verified,
            "decided_by": self.decided_by,
        }
        if self.none_over is not None:
            out["none_over"] = dict(self.none_over)
        return out


@dataclass
class BuiConditionResult:
    """Per-eps witnesses for 0 in (eps-subdiff f + eps-subdiff g)(X)."""

    epsilons: tuple[float, ...]
    per_eps: list[EpsWitness]
    overall: bool

    def as_dict(self) -> dict:
        return {
            "epsilons": list(self.epsilons),
            "per_eps": [w.as_dict() for w in self.per_eps],
            "overall": self.overall,
        }


def _pair_margins(
    f: ProperFunction, box: BoxDomain, vs: np.ndarray, sign: float, points: bool = False
):
    """inf over the box of f(x) - sign*<v, x>, per row of vs; with `points`,
    (values, attaining points)."""
    r = f.sup_quadratic_offset_many(np.zeros(len(vs)), sign * vs, 0.0, box, points=points)
    return (-r[0], r[1]) if points else -r


def _box_dual(inst: ProblemInstance, vs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """d_box(v) = inf_box(f + <v, .>) + inf_box(g - <v, .>) per row of vs,
    and its Danskin supergradient x_f - x_g from the attaining points."""
    m_f, x_f = _pair_margins(inst.f, inst.box, vs, -1.0, points=True)
    m_g, x_g = _pair_margins(inst.g, inst.box, vs, +1.0, points=True)
    return m_f + m_g, x_f - x_g


def _cut_bound(cuts: dict, lower: float, upper: float) -> float:
    """An upper bound of a concave d on [lower, upper] from its evaluated
    cuts {v: (d(v), s(v))}.  Every cut d(v) + s(v)*(u - v) lies above d, so
    the maximum over the interval of the least of two of them bounds d
    (Kelley, J. SIAM 8(4), 1960).  The two taken are the last v with
    s >= 0 and the first with s <= 0, which bracket the maximum; with one
    side missing, the one cut's maximum at an end of the interval."""
    rising = [v for v, (_, s) in cuts.items() if s >= 0.0]
    falling = [v for v, (_, s) in cuts.items() if s <= 0.0]
    ends = ([max(rising)] if rising else []) + ([min(falling)] if falling else [])
    lines = [(cuts[v][0] - cuts[v][1] * v, cuts[v][1]) for v in ends]  # (intercept, slope)
    us = [lower, upper]
    if len(lines) == 2 and lines[0][1] != lines[1][1]:
        u = (lines[1][0] - lines[0][0]) / (lines[0][1] - lines[1][1])
        us += [u] if lower < u < upper else []
    return max(min(c + s * u for c, s in lines) for u in us)


def _box_dual_winner(inst: ProblemInstance, sub: PhiClass) -> tuple[Point, Optional[float]]:
    """(v*, U): the best v found for d_box over the symmetric subclass `sub`
    and, when `sub` has at most one parameter, an upper bound U of d_box
    over |v| <= v_max (None with two parameters).

    With no parameter d_box is its one value.  With one, the grid winner is
    solved to the maximum by `_maximize_concave`, and U is `_cut_bound` of
    the cuts it evaluated, never the best value found.
    """
    params = sub.param_grid()
    vs = sub.split_params(params)[1]
    d = _box_dual(inst, vs)[0]
    i = int(np.argmax(d))
    v_grid = tuple(float(c) for c in vs[i])
    if sub.n_params == 0:
        return v_grid, float(d[i])
    if sub.n_params > 1:
        return v_grid, None
    cuts: dict = {}

    def oracle(v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        dv, sv = _box_dual(inst, v[:, None])
        cuts.update(zip(v.tolist(), zip(dv.tolist(), sv[:, 0].tolist())))
        return dv, sv[:, 0]

    (axis,) = sub.param_axes()
    step, v_max = float(axis[1] - axis[0]), sub.v_max
    v = _maximize_concave(oracle, v_grid[0], step, -v_max, v_max)[1]
    return (float(v),), _cut_bound(cuts, -v_max, v_max)


def _grid_search(inst: ProblemInstance, sub: PhiClass, tol: float):
    """The band's search: eps -> (v, x_bar) or None, over x_bar on the box
    grid and v on the grid of `sub`, plus one v refined from the row needing
    the least eps once some eps has no witness on the grid.  The grid rows
    and the refined row are computed at the first eps that needs them."""
    pts, params = inst.box.grid().points, sub.param_grid()

    def margins(rows: np.ndarray) -> tuple:
        """v, g - <v, x>, inf(g - <v, .>), f + <v, x>, inf(f + <v, .>) per row."""
        vs = sub.split_params(rows)[1]
        vx = vs @ pts.T  # (Nv, M)
        gv = values_on_grid(inst.g.rep, inst.box)
        fv = values_on_grid(inst.f.rep, inst.box)
        m_g = _pair_margins(inst.g, inst.box, vs, +1.0)[:, None]
        m_f = _pair_margins(inst.f, inst.box, vs, -1.0)[:, None]
        return vs, gv[None, :] - vx, m_g, fv[None, :] + vx, m_f

    def minus_least_eps(m: tuple) -> np.ndarray:
        return -np.min(np.maximum(m[1] - m[2], m[3] - m[4]), axis=1)

    @cache
    def grid_rows() -> tuple:
        return margins(params)

    @cache
    def with_refined() -> tuple:
        m = grid_rows()
        _, p = _sweep_and_refine(lambda r: minus_least_eps(margins(r)), sub, params, minus_least_eps(m))
        return m if p is None else tuple(map(np.concatenate, zip(m, margins(np.array([p])))))

    def first_hit(m: tuple, eps: float):
        vs, gx, m_g, fx, m_f = m
        hit = np.argwhere((gx <= (m_g + eps + tol)) & (fx <= (m_f + eps + tol)))
        return (vs[hit[0, 0]], pts[hit[0, 1]]) if hit.size else None

    return lambda eps: first_hit(grid_rows(), eps) or first_hit(with_refined(), eps)


def _is_pair_witness(inst: ProblemInstance, x_bar: Point, phi: Elementary, eps: float, tol: float) -> bool:
    """phi an eps-subgradient of g and -phi one of f at x_bar (`is_eps_subgradient`)."""
    return (
        is_eps_subgradient(inst.g, x_bar, phi, eps, inst.box, tol).holds
        and is_eps_subgradient(inst.f, x_bar, phi.negated(), eps, inst.box, tol).holds
    )


def check_bui_condition(
    inst: ProblemInstance,
    eps_list: Sequence[float] = DEFAULT_EPS_LIST,
    tol: float = 1e-9,
) -> BuiConditionResult:
    """For each eps, a point x_bar and a zero-sum pair (phi, -phi) with phi
    an eps-subgradient of g and -phi one of f at x_bar, or none.

    Zero-sum pairs in these classes are affine (quadratic parts of a pair
    summing to zero must both vanish), so a pair is a slope v; constants
    cancel and stay 0.  The two slacks of (x_bar, v) sum to
    f(x_bar) + g(x_bar) - d_box(v), with d_box(v) = inf_box(f + <v, .>) +
    inf_box(g - <v, .>), so they are at least G = val(P) - sup d_box.  Each
    eps is decided, in this order:

    1. winner: x* = argmin P and phi = (0, v*), v* the best v of d_box
       (`_box_dual_winner`), pass `is_eps_subgradient` on both sides; both
       slacks are at most val(P) - d_box(v*), so every eps at least that
       gap is found here;
    2. bound: with at most one v parameter (every 1D class), no pair in
       the box (its grid for a tabulated member) times |v| <= v_max works
       when 2*(eps + tol) < val(P) - U - margin, U a sound upper bound of
       sup d_box (`_cut_bound`) and margin = 1e-12*(1 + |val(P)| + |U| +
       v_max*max|x|) the allowance for rounding;
    3. search: the eps left, in the band [G/2, gap(v*)) and in 2D, run the
       grid search (`_grid_search`); its witnesses are verified through
       `is_eps_subgradient`, and a miss is inconclusive.
    """
    if not (inst.phi.contains_zero and inst.phi.additive):
        raise UnsupportedClassError(
            "the sum condition needs 0 in the class and additivity"
        )
    if not len(eps_list):
        raise ValueError("the eps list must not be empty")
    if any(not eps >= 0 for eps in eps_list):
        raise ValueError("eps values must be >= 0")
    sub = inst.phi.symmetric_subclass()
    v_star, upper = _box_dual_winner(inst, sub)
    val_p, x_star = inst.primal
    winner = Elementary(0.0, v_star, 0.0)
    half_gap, none_over = NEG_INF, None
    if upper is not None:
        v_max = sub.v_max if sub.n_params else 0.0  # the constant-only v is 0
        reach = max(abs(c) for c in inst.box.lower + inst.box.upper)
        margin = 1e-12 * (1.0 + abs(val_p) + abs(upper) + v_max * reach)
        half_gap = 0.5 * (val_p - upper - margin)
        none_over = {
            "box": {"lower": list(inst.box.lower), "upper": list(inst.box.upper)},
            "x_on_grid": inst.method != CLOSED_FORM,
            "v_max": v_max,
            "half_gap": half_gap,
        }
    search, per = _grid_search(inst, sub, tol), []
    for eps in eps_list:
        if _is_pair_witness(inst, x_star, winner, eps, tol):
            per.append(EpsWitness(eps, True, x_star, winner, True, "winner"))
        elif eps + tol < half_gap:
            per.append(EpsWitness(eps, False, None, None, False, "bound", none_over))
        elif hit := search(eps):
            phi = Elementary(0.0, tuple(float(c) for c in hit[0]), 0.0)
            x_bar = tuple(float(c) for c in hit[1])
            per.append(EpsWitness(eps, True, x_bar, phi, _is_pair_witness(inst, x_bar, phi, eps, tol)))
        else:
            per.append(EpsWitness(eps, False, None, None, False))
    overall = all(w.found and w.verified for w in per)
    return BuiConditionResult(tuple(eps_list), per, overall)


# ---------------------------------------------------------------------------
# bridging the two conditions
# ---------------------------------------------------------------------------


@dataclass
class BridgeReport:
    """Joint evaluation of the sum condition (1) and the intersection
    condition (2), with the hypotheses gating each implication between them.
    """

    sum_condition: BuiConditionResult
    intersection: list[AlphaCertificate]
    val_P: float
    val_LP: float
    primal_biconjugate_equality: bool
    flags: dict
    forward_applicable: bool  # (1) => (2) needs additivity
    backward_applicable: bool  # (2) => (1) needs convexity, symmetry, equality
    missing_hypotheses: list
    contradiction: bool
    notes: list = field(default_factory=list)

    @property
    def condition_sum(self) -> bool:
        return self.sum_condition.overall

    @property
    def condition_intersection(self) -> bool:
        return bool(self.intersection) and all(c.found for c in self.intersection)

    def as_dict(self) -> dict:
        return {
            "sum_condition": self.sum_condition.as_dict(),
            "intersection": [c.as_dict() for c in self.intersection],
            "condition_sum": self.condition_sum,
            "condition_intersection": self.condition_intersection,
            "val_P": ext_to_json(self.val_P),
            "val_LP": ext_to_json(self.val_LP),
            "primal_biconjugate_equality": self.primal_biconjugate_equality,
            "flags": dict(self.flags),
            "forward_applicable": self.forward_applicable,
            "backward_applicable": self.backward_applicable,
            "missing_hypotheses": list(self.missing_hypotheses),
            "contradiction": self.contradiction,
            "notes": list(self.notes),
        }


def theorem_bridge_report(
    inst: ProblemInstance,
    eps_list: Sequence[float] = DEFAULT_EPS_LIST,
    alphas: Optional[Sequence[float]] = None,
    alpha_offsets: Sequence[float] = DEFAULT_ALPHA_OFFSETS,
    pairs: Optional[Sequence[tuple[Elementary, Elementary]]] = None,
    equality_tol: float = 1e-4,
) -> BridgeReport:
    """Evaluate both zero-gap conditions and flag genuine contradictions.

    The implication sum=>intersection needs the class additive; the converse
    needs a convex, symmetric class plus inf(f+g) = inf(f+g**).  An
    intersection search that comes back inconclusive never contradicts
    anything (it is truncated); the only hard contradiction is a certified
    intersection with a failed sum condition while every backward hypothesis
    holds.  val(P) and val(LP) are the instance's shared values, the ones
    `duality_chain_report` reports.  An empty `alphas` or `alpha_offsets`
    raises ValueError: a search over no level decides nothing.
    """
    if (alphas is not None and not len(alphas)) or not len(alpha_offsets):
        raise ValueError("the alpha list must not be empty")
    v_p = inst.primal[0]
    v_lp = inst.lagrangian_primal[0]
    eq = is_finite(v_lp) and is_finite(v_p) and abs(v_p - v_lp) <= equality_tol
    sum_cond = check_bui_condition(inst, eps_list)
    notes = []
    if not is_finite(v_lp):
        # no feasible elementary for g in the truncated class: there are no
        # admissible levels below val(LP), so the intersection condition is
        # vacuous and only the sum condition is reported
        alphas = []
        notes.append(
            "val(LP) is not finite; intersection condition not evaluable"
        )
    elif alphas is None:
        alphas = [v_lp - off for off in alpha_offsets]
    inter = certify_zero_gap_via_intersection(inst, alphas, pairs=pairs)
    cond1 = sum_cond.overall
    cond2 = bool(inter) and all(c.found for c in inter)

    missing = []
    if not inst.phi.convex_set:
        missing.append("convex_set")
    if not inst.phi.symmetric:
        missing.append("symmetric")
    if not eq:
        missing.append("primal_biconjugate_equality")
    backward = not missing
    forward = inst.phi.additive

    contradiction = backward and cond2 and not cond1
    if forward and cond1 and not cond2:
        notes.append(
            "sum condition holds but the intersection search was inconclusive; "
            "the truncated search cannot disprove the implication"
        )
    if not inst.phi.symmetric:
        notes.append("symmetry hypothesis absent: backward implication not applicable")
    return BridgeReport(
        sum_condition=sum_cond,
        intersection=inter,
        val_P=v_p,
        val_LP=v_lp,
        primal_biconjugate_equality=eq,
        flags={
            "contains_zero": inst.phi.contains_zero,
            "symmetric": inst.phi.symmetric,
            "additive": inst.phi.additive,
            "convex_set": inst.phi.convex_set,
        },
        forward_applicable=forward,
        backward_applicable=backward,
        missing_hypotheses=missing,
        contradiction=contradiction,
        notes=notes,
    )
