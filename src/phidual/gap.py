"""Zero-duality-gap analysis.

Two routes to certifying a zero gap are implemented and bridged:

* the intersection property: two support elements of Lagrangian slices have
  the intersection property at level alpha iff some convex combination of
  them dominates alpha everywhere (checked exactly for elementary functions);
* the sum condition: 0 lies in (eps-subdifferential of f + eps-subdifferential
  of g)(X) for every tested eps, searched over zero-sum pairs in the class.

A failed certificate search is always reported as inconclusive, never as a
disproof -- the searches are truncated.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from .core import INF, NEG_INF, BoxDomain, Point, ext_to_json, is_finite
from .conjugation import _sweep_and_refine, phi_conjugate
from .duality import ProblemInstance, _members_by_dual_value
from .functions import (
    Elementary,
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
    eps: float
    found: bool
    x_bar: Optional[Point]
    phi: Optional[Elementary]
    verified: bool

    def as_dict(self) -> dict:
        return {
            "eps": self.eps,
            "found": self.found,
            "x_bar": list(self.x_bar) if self.x_bar else None,
            "phi": None if self.phi is None else {"a": self.phi.a, "v": list(self.phi.v), "c": self.phi.c},
            "verified": self.verified,
        }


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
    f: ProperFunction, box: BoxDomain, vs: np.ndarray, sign: float
) -> np.ndarray:
    """inf over the box of f(x) - sign*<v, x>, per row of vs."""
    return -f.sup_quadratic_offset_many(np.zeros(len(vs)), sign * vs, 0.0, box)


def check_bui_condition(
    inst: ProblemInstance,
    eps_list: Sequence[float] = DEFAULT_EPS_LIST,
    tol: float = 1e-9,
) -> BuiConditionResult:
    """For each eps, search a point x_bar and a zero-sum pair (phi, -phi) with
    phi an eps-subgradient of g and -phi one of f at x_bar.

    Zero-sum pairs in these classes are affine (quadratic parts of a pair
    summing to zero must both vanish), so the search runs over the linear
    coefficient v and the grid of x_bar; constants cancel and stay 0.  When
    some eps has no witness on the v grid, the grid gains one v, refined from
    the row needing the least eps.  Found witnesses are re-verified through
    `is_eps_subgradient`.
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
        m_g = _pair_margins(inst.g, inst.box, vs, +1.0)[:, None]
        m_f = _pair_margins(inst.f, inst.box, vs, -1.0)[:, None]
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
    `duality_chain_report` reports.
    """
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
