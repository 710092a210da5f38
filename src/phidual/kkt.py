"""Primal-dual optimality certification via KKT-type conditions.

For symmetric classes (affine, constant-only) the pair (x*, phi*) is optimal
for the primal and the symmetric conjugate dual iff

    -phi* is a subgradient of f at x*,   x* is a dual subgradient of g* at phi*.

For the lsc-quadratic class, whose members cannot be negated inside the
class, the first condition is reformulated through the quadratically shifted
function f~ = f - a*||.||^2: the affine elementary with slope -w* must be a
subgradient of f~ at x*.  Certificates record both conditions, the primal and
dual values, and empirical class-convexity annotations (the theorems assume
f, g class-convex; the verifier measures it instead of assuming it).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .core import INF, NEG_INF, Point, as_point, ext_to_json, is_finite
from .conjugation import biconjugate, phi_conjugate
from .duality import ProblemInstance, _dual_table, val_primal
from .functions import Elementary, UnsupportedClassError
from .subdifferential import SubgradientCertificate, is_dual_subgradient, is_subgradient

CONVEXITY_CHECK_TOL = 1e-4


@dataclass
class KktCertificate:
    variant: str  # "symmetric" | "lsc"
    x_star: Point
    phi_star: Elementary
    cond1: SubgradientCertificate
    cond2: SubgradientCertificate
    primal_value: float
    dual_value: float
    optimal: bool
    convexity_gap_f: float
    convexity_gap_g: float
    hypothesis_doubtful: bool
    searched: dict

    def as_dict(self) -> dict:
        def cert(c: SubgradientCertificate) -> dict:
            return {
                "holds": c.holds,
                "worst_violation": ext_to_json(c.worst_violation),
                "witness": list(c.witness) if c.witness else None,
                "epsilon": c.epsilon,
            }

        return {
            "variant": self.variant,
            "x_star": list(self.x_star),
            "phi_star": {
                "a": self.phi_star.a,
                "v": list(self.phi_star.v),
                "c": self.phi_star.c,
            },
            "cond1": cert(self.cond1),
            "cond2": cert(self.cond2),
            "primal_value": ext_to_json(self.primal_value),
            "dual_value": ext_to_json(self.dual_value),
            "optimal": self.optimal,
            "convexity_gap_f": ext_to_json(self.convexity_gap_f),
            "convexity_gap_g": ext_to_json(self.convexity_gap_g),
            "hypothesis_doubtful": self.hypothesis_doubtful,
            "searched": dict(self.searched),
        }


def _convexity_gaps(inst: ProblemInstance, x_star: Point) -> tuple[float, float]:
    gf = abs(inst.f(x_star) - biconjugate(inst.f, x_star, inst.phi, inst.box))
    gg = abs(inst.g(x_star) - biconjugate(inst.g, x_star, inst.phi, inst.box))
    return gf, gg


def _finish(
    inst: ProblemInstance,
    variant: str,
    x_star: Point,
    phi_star: Elementary,
    cond1: SubgradientCertificate,
    cond2: SubgradientCertificate,
    primal: float,
    dual: float,
    tol: float,
) -> KktCertificate:
    gf, gg = _convexity_gaps(inst, x_star)
    optimal = (
        cond1.holds
        and cond2.holds
        and is_finite(primal)
        and is_finite(dual)
        and abs(primal - dual) <= tol
    )
    return KktCertificate(
        variant=variant,
        x_star=x_star,
        phi_star=phi_star,
        cond1=cond1,
        cond2=cond2,
        primal_value=primal,
        dual_value=dual,
        optimal=optimal,
        convexity_gap_f=gf,
        convexity_gap_g=gg,
        hypothesis_doubtful=max(gf, gg) > CONVEXITY_CHECK_TOL,
        searched=inst.phi.truncation_summary(),
    )


def verify_kkt_symmetric(
    inst: ProblemInstance, x_star, phi_star: Elementary, tol: float = 1e-6
) -> KktCertificate:
    """KKT verification for a symmetric class (affine or constant-only).

    Dual value: -f*(-phi*) - g*(phi*).
    """
    if not inst.phi.symmetric:
        raise UnsupportedClassError("symmetric-form KKT needs a symmetric class")
    inst.phi.require_member(phi_star)
    x_star = as_point(x_star)
    neg = phi_star.negated()
    cond1 = is_subgradient(inst.f, x_star, neg, inst.box)
    cond2 = is_dual_subgradient(inst.g, x_star, phi_star, inst.phi, inst.box)
    primal = inst.f(x_star) + inst.g(x_star)
    fstar = phi_conjugate(inst.f, neg, inst.box).value
    gstar = phi_conjugate(inst.g, phi_star, inst.box).value
    dual = NEG_INF if (fstar == INF or gstar == INF) else -fstar - gstar
    return _finish(inst, "symmetric", x_star, phi_star, cond1, cond2, primal, dual, tol)


def verify_kkt_lsc(
    inst: ProblemInstance, x_star, phi_star: Elementary, tol: float = 1e-6
) -> KktCertificate:
    """KKT verification for the lsc-quadratic class via the shifted function.

    With phi* = (a*, w*), checks the affine elementary with slope -w* as a
    subgradient of f~ = f - a*||.||^2 at x*, and x* as a dual subgradient of
    g* at phi*.  Dual value: -f~*(0, -w*) - g*(a*, w*).
    """
    if inst.phi.kind != "lsc-quadratic":
        raise UnsupportedClassError("lsc-form KKT needs the lsc-quadratic class")
    inst.phi.require_member(phi_star)
    x_star = as_point(x_star)
    a_star = phi_star.a
    w_star = phi_star.v
    f_shift = inst.f.shifted(a_star)
    neg_w = Elementary(0.0, tuple(-w for w in w_star), 0.0)
    cond1 = is_subgradient(f_shift, x_star, neg_w, inst.box)
    cond2 = is_dual_subgradient(inst.g, x_star, phi_star, inst.phi, inst.box)
    primal = inst.f(x_star) + inst.g(x_star)
    fstar = phi_conjugate(f_shift, neg_w, inst.box).value
    gstar = phi_conjugate(inst.g, phi_star, inst.box).value
    dual = NEG_INF if (fstar == INF or gstar == INF) else -fstar - gstar
    return _finish(inst, "lsc", x_star, phi_star, cond1, cond2, primal, dual, tol)


def verify_kkt(
    inst: ProblemInstance, x_star, phi_star: Elementary, tol: float = 1e-6
) -> KktCertificate:
    """Dispatch to the class-appropriate KKT variant."""
    if inst.phi.kind == "lsc-quadratic":
        return verify_kkt_lsc(inst, x_star, phi_star, tol)
    return verify_kkt_symmetric(inst, x_star, phi_star, tol)


def _minimizer_candidates(inst: ProblemInstance, limit: int = 6) -> list[Point]:
    """Refined local minimizers of f + g on the grid, best first."""
    from .duality import objective_values, _primal_objective
    from .core import refine_extremum

    v, p = val_primal(inst)
    cands: list[tuple[float, Point]] = []
    if p is not None:
        cands.append((v, p))
    if inst.box.dim == 1:
        vals = objective_values(inst.f, inst.g, inst.box)
        grid = inst.box.grid()
        finite = np.isfinite(vals)
        left = np.roll(vals, 1)
        right = np.roll(vals, -1)
        left[0] = INF
        right[-1] = INF
        local = np.flatnonzero(finite & (vals <= left) & (vals <= right))
        order = local[np.argsort(vals[local], kind="stable")]
        h = _primal_objective(inst)
        for i in order[: 2 * limit]:
            lv, lp = refine_extremum(h, inst.box, grid.point(int(i)), 20, "inf")
            if all(abs(lp[0] - c[1][0]) > 1e-6 for c in cands):
                cands.append((lv, lp))
    cands.sort(key=lambda c: (c[0], c[1]))
    return [p for _, p in cands[:limit]]


def search_kkt_pair(
    inst: ProblemInstance, budget: int = 128
) -> Optional[tuple[Point, Elementary, KktCertificate]]:
    """Grid search for a certified optimal pair (x*, phi*).

    Primal candidates are refined local minimizers of f + g; dual candidates
    are class parameters ranked by dual value.  Returns the first pair whose
    certificate is optimal, or None once the budget is exhausted.
    """
    xs = _minimizer_candidates(inst)
    if not xs:
        return None
    params, d = _dual_table(inst)
    order = np.argsort(-d, kind="stable")
    phis = []
    for i in order:
        if d[i] == NEG_INF or len(phis) >= max(1, budget // len(xs)):
            break
        phis.append(inst.phi.member(tuple(params[i])))
    tried = 0
    for x in xs:
        if inst.f(x) + inst.g(x) == INF:
            continue
        for phi in phis:
            if tried >= budget:
                return None
            tried += 1
            cert = verify_kkt(inst, x, phi)
            if cert.optimal:
                return x, phi, cert
    return None
