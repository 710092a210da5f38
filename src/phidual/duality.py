"""Perturbation duality for minimizing f + g over a box stand-in of the space.

The perturbation function p(x, y) = f(x) + g(x+y) together with the coupling
c((phi, psi), (x, y)) = phi(x) + psi(x+y) - psi(x) produces the conjugate dual

    (CD)   max over phi of  -*f(phi) - g*(phi),

equivalently the Lagrangian dual of L(x, phi) = f(x) + phi(x) - g*(phi).  The
symmetric-pair variants (CD^sym, ICD) restrict to phi with -phi in the class,
which for the lsc-quadratic kind forces the affine subfamily.  Every searched
sup over the class is truncated to the class's parameter box, so all reported
dual values are lower bounds of the untruncated sups.

`duality_chain_report` evaluates the whole chain

    val(P) >= val(LP) >= val(LD) = val(CD) >= val(ICD)

sharing refined winners and witness points across the entries, so that a
reported violation reflects an actual defect rather than search asymmetry.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from typing import Optional

import numpy as np

from .core import (
    INF,
    NEG_INF,
    BatchObjective,
    BoxDomain,
    Point,
    as_point,
    ext_to_json,
    halving_reach,
    inf_on_grid,
    is_finite,
    refine_extremum,
)
from .conjugation import (
    ConjugateSum,
    biconjugate,
    biconjugate_at_points,
    biconjugate_on_grid,
    family_within,
    left_conjugate,
    phi_conjugate,
    searched_family,
)
from .functions import (
    CLOSED_FORM,
    GRID_ORACLE,
    Elementary,
    PhiClass,
    ProperFunction,
    UnsupportedClassError,
    quad_inf_on_interval,
    values_on_grid,
)


#: grid points x parameter rows above which an instance is refused before
#: anything is allocated: a dual table evaluates that many cells.  The
#: largest default, the 2D lsc class (17^3 rows) on the CLI's 201 x 201
#: grid, is 1.99e8 cells; the 1D defaults (65 x 65 rows, 2001 points) 8.5e6.
CELL_BUDGET = 2**28


@dataclass(frozen=True)
class ProblemInstance:
    """Minimize f + g over the box with duals searched in the given class.

    The values that several analyses share are properties computed once per
    instance object and kept on it: an equal instance built anew computes
    them again.  An instance whose grid points times parameter rows exceed
    `CELL_BUDGET` raises `ValueError` before its grid is built.
    """

    f: ProperFunction
    g: ProperFunction
    box: BoxDomain
    phi: PhiClass

    def __post_init__(self):
        dims = {self.f.dim, self.g.dim, self.box.dim, self.phi.dim}
        if len(dims) != 1:
            raise ValueError(f"dimension mismatch across instance parts: {dims}")
        points, rows = math.prod(self.box.samples), math.prod(self.phi.grid_sizes)
        if points * rows > CELL_BUDGET:
            raise ValueError(
                f"instance too large: {points} grid points x {rows} parameter rows"
                f" = {points * rows} cells, above the budget of {CELL_BUDGET}"
            )
        if not np.any(np.isfinite(objective_values(self.f, self.g, self.box))):
            raise ValueError("dom(f) and dom(g) do not meet on the working grid")

    @property
    def method(self) -> str:
        """Closed form when f and g both are; a grid oracle otherwise."""
        if self.f.method == self.g.method == CLOSED_FORM:
            return CLOSED_FORM
        return GRID_ORACLE

    @cached_property
    def primal(self) -> tuple[float, Optional[Point]]:
        """`val_primal`: val(P) and its minimizer."""
        return val_primal(self)

    @cached_property
    def symmetric_dual(self) -> tuple[float, Optional[Elementary]]:
        """`val_cd_sym`: val(CD^sym) and its winner.  On a symmetric class
        (affine, constant-only) {phi : -phi in class} is the class itself
        and -f*(-phi) = -*f(phi), so CD^sym is CD: this is `dual`, the one
        sweep of the program."""
        if self.phi.symmetric:
            return self.dual
        return val_cd_sym(self)

    @cached_property
    def dual(self) -> tuple[float, Optional[Elementary]]:
        """val(CD) and its winner: `val_lagrangian_dual`.  On the
        lsc-quadratic class the symmetric winner (CD-feasible) replaces it
        where it scores higher, which guards against refinement asymmetry
        between the two sweeps."""
        v, phi = val_lagrangian_dual(self)
        if self.phi.symmetric:
            return v, phi
        phi_sym = self.symmetric_dual[1]
        v_sym = NEG_INF if phi_sym is None else dual_value_at(self, phi_sym)
        return (v_sym, phi_sym) if v_sym > v else (v, phi)

    def convexity_gaps(self, x: Point) -> tuple[float, float]:
        """(|f(x) - f**(x)|, |g(x) - g**(x)|), each biconjugate one solved
        `ConjugateSum` (`biconjugate`); computed once per point and kept,
        since every pair a KKT check tries at x needs the same two."""
        gaps = self._convexity_gaps
        if x not in gaps:
            gaps[x] = tuple(abs(h(x) - biconjugate(h, x, self.phi, self.box)) for h in (self.f, self.g))
        return gaps[x]

    @cached_property
    def _convexity_gaps(self) -> dict:
        return {}

    @cached_property
    def lagrangian_primal(self) -> tuple[float, Optional[Point]]:
        """val(LP) and its witness: both dual winners join the g** family
        (one copy where they are the same member) and the minimizer of
        f + g is one more candidate point, so val(LP) <= val(P) holds by
        construction."""
        winners = (self.dual[1], self.symmetric_dual[1])
        extras = tuple(dict.fromkeys(p for p in winners if p is not None))
        return _lagrangian_primal_search(self, extras, self.primal[1])


@lru_cache(maxsize=128)
def objective_values(f: ProperFunction, g: ProperFunction, box: BoxDomain) -> np.ndarray:
    vals = values_on_grid(f.rep, box) + values_on_grid(g.rep, box)
    vals.setflags(write=False)
    return vals


# ---------------------------------------------------------------------------
# pointwise objects
# ---------------------------------------------------------------------------


def perturbation(inst: ProblemInstance, x, y) -> float:
    """p(x, y) = f(x) + g(x+y); p(x, 0) is the objective of (P)."""
    x, y = as_point(x), as_point(y)
    return inst.f(x) + inst.g(tuple(a + b for a, b in zip(x, y)))


def coupling(phi: Elementary, psi: Elementary, x, y) -> float:
    """c((phi, psi), (x, y)) = phi(x) + psi(x+y) - psi(x).

    When psi is affine this collapses to phi(x) + <v_psi, y>, the standard
    bilinear pairing.
    """
    x, y = as_point(x), as_point(y)
    z = tuple(a + b for a, b in zip(x, y))
    return phi(x) + psi(z) - psi(x)


def perturbation_conjugate_zero(inst: ProblemInstance, phi: Elementary) -> float:
    """p*(0, phi) = *f(phi) + g*(phi)."""
    return left_conjugate(inst.f, phi, inst.box).value + phi_conjugate(
        inst.g, phi, inst.box
    ).value


def lagrangian(inst: ProblemInstance, x, phi: Elementary) -> float:
    """L(x, phi) = f(x) + phi(x) - g*(phi).

    When g*(phi) = +inf the multiplier phi is infeasible and L(., phi) is
    reported as -inf.
    """
    gstar = phi_conjugate(inst.g, phi, inst.box).value
    if gstar == INF:
        return NEG_INF
    return inst.f(x) + phi(as_point(x)) - gstar


# ---------------------------------------------------------------------------
# optimal values
# ---------------------------------------------------------------------------


def val_primal(inst: ProblemInstance) -> tuple[float, Optional[Point]]:
    """inf of f + g on the box and its first minimizer (`_primal_minima`):
    exact on the closed-form path, the grid minimum when a member is
    tabulated, which pins every quantifier of the instance to the grid.

    Computes afresh on each call; the analyses read the instance's memo
    (`ProblemInstance.primal`).
    """
    return _primal_minima(inst, 1)[0]


def _primal_minima(inst: ProblemInstance, limit: int) -> list[tuple[float, Point]]:
    """Up to `limit` local minima of f + g on the box as (value, point)
    pairs, best first, ties leftmost.

    Closed form: f + g is one piecewise quadratic, and each of its pieces
    gives its minimizer clamped to the box, valued as f(x) + g(x).  Grid
    oracle: the grid's local minima in 1D, the grid argmin in 2D, valued
    from `objective_values`.
    """
    if inst.method == CLOSED_FORM:
        (lo,), (hi,) = inst.box.lower, inst.box.upper
        xs = np.sort([
            quad_inf_on_interval(p.a2, p.a1, p.a0, max(p.lo, lo), min(p.hi, hi))[1] + 0.0
            for p in (inst.f.rep + inst.g.rep).pieces if max(p.lo, lo) <= min(p.hi, hi)
        ])
        # adjacent duplicates dropped, as `np.unique` would (which imports numpy.ma)
        xs = xs[np.concatenate(([True], xs[1:] != xs[:-1]))][:, None]
        vals = inst.f.values(xs) + inst.g.values(xs)
        idx = np.arange(len(xs))
    else:
        xs = inst.box.grid().points
        vals = objective_values(inst.f, inst.g, inst.box)
        if inst.box.dim == 1:
            nbr = np.concatenate(([INF], vals, [INF]))
            idx = np.flatnonzero(np.isfinite(vals) & (vals <= nbr[:-2]) & (vals <= nbr[2:]))
        else:
            idx = np.argmin(vals)[None]
    order = idx[np.argsort(vals[idx], kind="stable")][:limit]
    return [(float(vals[i]), tuple(float(c) for c in xs[i])) for i in order]


def dual_value_at(inst: ProblemInstance, phi: Elementary) -> float:
    """-*f(phi) - g*(phi), the dual objective at one elementary function."""
    lf = left_conjugate(inst.f, phi, inst.box).value
    gs = phi_conjugate(inst.g, phi, inst.box).value
    if lf == INF or gs == INF:
        return NEG_INF
    return -lf - gs


def _dual_program(inst: ProblemInstance, phi_class: PhiClass) -> ConjugateSum:
    """The val(CD) program -*f(phi) - g*(phi) over `phi_class`."""
    return ConjugateSum(phi_class, inst.box, ((inst.f, "left"), (inst.g, "right")))


def val_lagrangian_dual(inst: ProblemInstance) -> tuple[float, Optional[Elementary]]:
    """sup over the truncated class of inf_x L(x, phi) = -*f(phi) - g*(phi).

    Infeasible parameters (infinite conjugates) contribute -inf and are
    thereby skipped; the grid winner of `_dual_program` is improved inside
    the parameter box (`ConjugateSum.solve`): on the affine class in 1D,
    where the program is concave in the one parameter v with supergradient
    x_f - y_g at the points attaining *f and g*, to its maximum; on the
    other classes by 20 halving rounds.  Computes afresh on each call; the
    analyses read the instance's memo (`ProblemInstance.dual`).
    """
    val, p = _dual_program(inst, inst.phi).solve()
    return val, None if p is None else inst.phi.member(p)


def _members_by_dual_value(inst: ProblemInstance, limit: int) -> list[Elementary]:
    """Up to `limit` members: the instance's val(CD) winner, then members of
    the parameter grid by descending dual value (ties in grid order), the
    winner's duplicate skipped, stopping before the first infeasible (-inf)
    one."""
    params, d = inst.phi.param_grid(), _dual_program(inst, inst.phi).sweep()
    winner = inst.dual[1]
    out = [] if winner is None else [winner]
    for i in np.argsort(-d, kind="stable"):
        if len(out) >= limit or d[i] == NEG_INF:
            break
        phi = inst.phi.member(tuple(params[i]))
        if phi != winner:
            out.append(phi)
    return out


def val_cd_sym(inst: ProblemInstance) -> tuple[float, Optional[Elementary]]:
    """The symmetric-form conjugate dual: sup of -f*(-phi) - g*(phi) over
    {phi : -phi in class}.

    For the lsc-quadratic kind the constraint a >= 0 on both phi and -phi
    forces a = 0, so the sweep always runs over the affine subclass, where
    -f*(-phi) = -*f(phi): this is the val(CD) program over that subclass
    (`_dual_program`).  In 1D it has one parameter v, and the grid winner
    is improved to the maximum of the concave program, in 2D by halving.
    On a symmetric class it is `val_lagrangian_dual`'s program, value and
    winner alike.  Computes afresh on each call; the analyses read the
    instance's memo (`ProblemInstance.symmetric_dual`), which on a symmetric
    class is the memo of val(CD).
    """
    sub = inst.phi.symmetric_subclass()
    val, p = _dual_program(inst, sub).solve()
    return val, None if p is None else sub.member(p)


def _icd_applies(phi_class: PhiClass) -> bool:
    """The infimal-convolution dual needs 0 in the class and additivity."""
    return phi_class.contains_zero and phi_class.additive


def val_icd(
    inst: ProblemInstance,
) -> tuple[float, Optional[tuple[Elementary, Elementary]]]:
    """The infimal-convolution dual: max over pairs phi1 + phi2 = 0 of
    -f*(phi2) - g*(phi1).

    Zero-sum pairs force both members affine here (a1 + a2 = 0 with both
    >= 0), so the sweep coincides with the symmetric-form one, and this
    reads the instance's memo of it (`ProblemInstance.symmetric_dual`).
    """
    if not _icd_applies(inst.phi):
        raise UnsupportedClassError(
            "the infimal-convolution dual needs 0 in the class and additivity"
        )
    val, phi1 = inst.symmetric_dual
    if phi1 is None:
        return val, None
    return val, (phi1, phi1.negated())


def _lagrangian_primal_search(
    inst: ProblemInstance,
    extra_phis: tuple[Elementary, ...],
    x_p: Optional[Point],
) -> tuple[float, Optional[Point]]:
    """val(LP) = inf over the box of f + min(g**, g) and its witness, g** the
    maximum over the searched family (the class grid plus `extra_phis`).

    The grid minimizer p is refined by 25 halving rounds on the closed-form
    path.  That search evaluates only inside I = p +- 2h clipped to the box
    (h the cell size, `core.halving_reach`), so it runs on the members that
    may attain g** somewhere in I (`family_within`): the same values, bit
    for bit, from a few of the members.  The exact primal minimizer `x_p`,
    which may lie outside I, is one more candidate, valued over the whole
    family.
    """
    # g** <= g holds pointwise, so clamping by g is sound and keeps grid-sup
    # conjugates of tabulated functions from leaking above g between grid
    # points (where the exact primal minimizer `x_p` may live)
    bic = biconjugate_on_grid(inst.g, inst.phi, inst.box, extra_phis)
    if np.all(bic == NEG_INF):
        return NEG_INF, None
    bic = np.minimum(bic, values_on_grid(inst.g.rep, inst.box))
    fv = values_on_grid(inst.f.rep, inst.box)
    v, p = inf_on_grid(None, inst.box.grid(), values=fv + bic)
    if p is None:
        return v, p
    family = searched_family(inst.g, inst.phi, inst.box, extra_phis)

    def m_over(family) -> BatchObjective:
        def m_values(points: np.ndarray) -> np.ndarray:
            fx = inst.f.values(points)
            b = biconjugate_at_points(family, points)
            gx = inst.g.values(points)
            # min(b, g(x)) keeps b on ties, signed zeros included
            return np.where(fx == INF, INF, fx + np.where(gx < b, gx, b))

        return BatchObjective(m_values)

    if inst.method == CLOSED_FORM:
        reach = halving_reach(p, inst.box.cell_sizes(), inst.box.lower, inst.box.upper)
        v, p = refine_extremum(m_over(family_within(family, *reach)), inst.box, p, 25, kind="inf")
    # x_p may lie outside the refinement's reach: the whole family
    m_p = INF if x_p is None else m_over(family)(x_p)
    return (m_p, x_p) if m_p < v else (v, p)


def val_lagrangian_primal(inst: ProblemInstance) -> float:
    """inf of f + g** over the box, via sup_phi L(x, phi) = f(x) + g**(x).

    Uses the biconjugate identity instead of a nested sup-inf; -inf when the
    truncated class contains no feasible elementary function for g.  The
    searched family is the class grid plus the refined dual winners, and the
    grid minimizer of f + g is a candidate point
    (`ProblemInstance.lagrangian_primal`), so this is the val(LP) that
    `duality_chain_report` and `theorem_bridge_report` report.
    """
    return inst.lagrangian_primal[0]


# ---------------------------------------------------------------------------
# the full chain
# ---------------------------------------------------------------------------

_CHAIN = ("val_P", "val_LP", "val_LD", "val_CD", "val_CD_sym", "val_ICD")


@dataclass
class DualityReport:
    """Evaluated value chain with gaps, methods and truncation provenance."""

    val_P: float
    val_LP: float
    val_LD: float
    val_CD: float
    val_CD_sym: float
    val_ICD: float
    argmin_P: Optional[Point]
    best_dual_elementary: Optional[Elementary]
    gaps: dict
    chain_ok: bool
    violations: list = field(default_factory=list)
    methods: dict = field(default_factory=dict)
    truncation: dict = field(default_factory=dict)
    notes: list = field(default_factory=list)
    gap_analysis: Optional[dict] = None

    def values(self) -> dict:
        return {name: getattr(self, name) for name in _CHAIN}

    def as_dict(self) -> dict:
        best = self.best_dual_elementary
        doc = {
            "values": {k: ext_to_json(v) for k, v in self.values().items()},
            "argmin_P": list(self.argmin_P) if self.argmin_P else None,
            "best_dual_elementary": (
                {"a": best.a, "v": list(best.v), "c": best.c} if best else None
            ),
            "gaps": {k: ext_to_json(v) for k, v in self.gaps.items()},
            "chain_ok": self.chain_ok,
            "violations": list(self.violations),
            "methods": dict(self.methods),
            "truncation": dict(self.truncation),
            "notes": list(self.notes),
        }
        if self.gap_analysis is not None:
            doc["gap_analysis"] = self.gap_analysis
        return doc

    def csv_rows(self) -> list[dict]:
        rows = []
        for name in _CHAIN:
            attain = ""
            if name == "val_P" and self.argmin_P:
                attain = ";".join(f"{c:.12g}" for c in self.argmin_P)
            if name in ("val_LD", "val_CD") and self.best_dual_elementary:
                b = self.best_dual_elementary
                attain = f"a={b.a:.12g};v=" + ",".join(f"{c:.12g}" for c in b.v)
            rows.append(
                {
                    "name": name,
                    "value": ext_to_json(getattr(self, name)),
                    "attainer": attain,
                    "method": self.methods.get(name, ""),
                    "truncation": self.truncation.get("summary", ""),
                }
            )
        return rows


def duality_chain_report(inst: ProblemInstance, tol: float = 1e-6) -> DualityReport:
    """Evaluate val(P), val(LP), val(LD), val(CD), val(CD^sym), val(ICD).

    Refined dual winners are folded into the biconjugate family and the primal
    witness is shared, keeping the computed chain coherent (the values are
    the instance's shared properties); any residual violation beyond `tol` is
    recorded (dual values remain lower bounds under truncation, so
    violations are reported, never silently clipped).
    """
    v_p, x_p = inst.primal
    v_lp = inst.lagrangian_primal[0]
    v_cd, phi_cd = inst.dual
    v_sym = inst.symmetric_dual[0]
    # val_icd is val_cd_sym wherever it applies
    v_icd = v_sym if _icd_applies(inst.phi) else NEG_INF
    v_ld = v_cd

    values = dict(zip(_CHAIN, (v_p, v_lp, v_ld, v_cd, v_sym, v_icd)))
    # a NaN compares false with everything, so it is a violation of its own
    violations = [f"{name} is NaN" for name, v in values.items() if math.isnan(v)]
    for hi, lo in (("val_P", "val_LP"), ("val_LP", "val_LD"), ("val_CD", "val_CD_sym"),
                   ("val_CD", "val_ICD")):
        if values[hi] < values[lo] - tol:
            violations.append(f"{hi} < {lo} by {values[lo] - values[hi]:.3e}")
    if abs(v_ld - v_cd) > tol:
        violations.append("val_LD != val_CD")

    gaps = {
        "cd": v_p - v_cd if is_finite(v_cd) else INF,
        "icd": v_p - v_icd if is_finite(v_icd) else INF,
    }
    truncation = inst.phi.truncation_summary()
    truncation["summary"] = (
        f"kind={inst.phi.kind};a<={inst.phi.a_max};|v|<={inst.phi.v_max};"
        f"grid={'x'.join(str(n) for n in inst.phi.grid_sizes)}"
    )
    return DualityReport(
        **values,
        argmin_P=x_p,
        best_dual_elementary=phi_cd,
        gaps=gaps,
        chain_ok=not violations,
        violations=violations,
        methods={name: inst.method for name in _CHAIN},
        truncation=truncation,
        notes=[
            "dual values are lower bounds of the untruncated sup over the class",
        ],
    )
