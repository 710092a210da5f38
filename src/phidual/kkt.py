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

from .core import INF, NEG_INF, Point, as_point, ext_to_json, is_finite
from .conjugation import phi_conjugate
from .duality import ProblemInstance, _members_by_dual_value, _primal_minima
from .functions import Elementary, ProperFunction, UnsupportedClassError
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


def _certify(
    inst: ProblemInstance,
    variant: str,
    x_star: Point,
    phi_star: Elementary,
    f1: ProperFunction,
    neg: Elementary,
    tol: float,
) -> KktCertificate:
    """Condition 1: `neg` is a subgradient of f1 (f, or the shifted f~) at
    x*; condition 2: x* is a dual subgradient of g* at phi*.  Dual value:
    -f1*(neg) - g*(phi*)."""
    cond1 = is_subgradient(f1, x_star, neg, inst.box)
    cond2 = is_dual_subgradient(inst.g, x_star, phi_star, inst.phi, inst.box)
    primal = inst.f(x_star) + inst.g(x_star)
    fstar = phi_conjugate(f1, neg, inst.box).value
    gstar = phi_conjugate(inst.g, phi_star, inst.box).value
    dual = NEG_INF if (fstar == INF or gstar == INF) else -fstar - gstar
    gf, gg = inst.convexity_gaps(x_star)
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
    return _certify(inst, "symmetric", x_star, phi_star, inst.f, phi_star.negated(), tol)


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
    f_shift = inst.f.shifted(phi_star.a)
    neg_w = Elementary(0.0, tuple(-w for w in phi_star.v), 0.0)
    return _certify(inst, "lsc", x_star, phi_star, f_shift, neg_w, tol)


def verify_kkt(
    inst: ProblemInstance, x_star, phi_star: Elementary, tol: float = 1e-6
) -> KktCertificate:
    """Dispatch to the class-appropriate KKT variant."""
    if inst.phi.kind == "lsc-quadratic":
        return verify_kkt_lsc(inst, x_star, phi_star, tol)
    return verify_kkt_symmetric(inst, x_star, phi_star, tol)


def search_kkt_pair(
    inst: ProblemInstance, budget: int = 128
) -> Optional[tuple[Point, Elementary, KktCertificate]]:
    """Search for a certified optimal pair (x*, phi*).

    Primal candidates are the best local minima of f + g
    (`_primal_minima`); dual candidates are the instance's val(CD) winner
    followed by class parameters ranked by dual value
    (`_members_by_dual_value`).  Returns the first pair whose certificate
    is optimal, or None once `budget` pairs have been verified.
    """
    xs = [x for _, x in _primal_minima(inst, 6)]
    n = max(1, budget // len(xs))
    phis = _members_by_dual_value(inst, n)
    tried = 0
    for x in xs:
        for phi in phis:
            if tried >= budget:
                return None
            tried += 1
            cert = verify_kkt(inst, x, phi)
            if cert.optimal:
                return x, phi, cert
    return None
