"""Membership tests for subgradients of f with respect to an elementary class.

An elementary phi is a subgradient of f at x_bar when

    f(x) - f(x_bar) >= phi(x) - phi(x_bar)    for all x,

with slack eps in the eps-subgradient variant.  The quantifier runs over the
working box: each test is a sup of f restricted to it (`restricted_to`),
exact piece by piece for piecewise quadratics and on the grid for tabulated
functions.  The dual-side membership x_bar in the subdifferential of f* at
phi_bar quantifies over the truncated class instead, so its verdict carries
"no violation found" semantics.

Constants cancel on both sides of every inequality here, which is why all
class sweeps can fix c = 0.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .core import INF, BoxDomain, Point, as_point, is_finite
from .conjugation import ConjugateSum, biconjugate, phi_conjugate
from .functions import Elementary, PhiClass, ProperFunction


@dataclass(frozen=True)
class SubgradientCertificate:
    """Outcome of a subgradient membership test.

    `worst_violation` is the largest amount by which the defining inequality
    fails (negative when it holds with margin); `witness` is a violating point
    when holds is False -- for the dual-side test it is the violating
    parameter vector of the class.
    """

    holds: bool
    worst_violation: float
    witness: Optional[Point]
    epsilon: float = 0.0


def _dom_value(f: ProperFunction, x_bar) -> float:
    fx = f(x_bar)
    if fx == INF:
        raise ValueError("x_bar must belong to dom f")
    return fx


def is_subgradient(
    f: ProperFunction,
    x_bar,
    phi: Elementary,
    box: BoxDomain,
    tol: float = 1e-9,
) -> SubgradientCertificate:
    """phi in the subdifferential of f at x_bar, checked over the box."""
    return is_eps_subgradient(f, x_bar, phi, 0.0, box, tol)


def is_eps_subgradient(
    f: ProperFunction,
    x_bar,
    phi: Elementary,
    eps: float,
    box: BoxDomain,
    tol: float = 1e-9,
) -> SubgradientCertificate:
    """phi in the eps-subdifferential of f at x_bar, checked over the box.

    Folds the constant f(x_bar) - phi(x_bar) - eps into the quadratic, so the
    violation is one sup of (quadratic - f) over the box.
    """
    if eps < 0:
        raise ValueError("eps must be >= 0")
    x_bar = as_point(x_bar)
    fx = _dom_value(f, x_bar)
    shift = fx - phi(x_bar) - eps
    worst, wit = f.restricted_to(box).sup_quadratic_offset(-phi.a, phi.v, phi.c + shift, box)
    holds = worst <= tol
    return SubgradientCertificate(
        holds=holds,
        worst_violation=worst,
        witness=None if holds else wit,
        epsilon=eps,
    )


def eps_subgradient_via_conjugate(
    f: ProperFunction,
    x_bar,
    phi: Elementary,
    eps: float,
    box: BoxDomain,
    tol: float = 1e-9,
) -> bool:
    """The conjugate-side test: f(x_bar) + f*(phi) <= phi(x_bar) + eps.

    The conjugate is that of f restricted to the working box, so that the
    quantifier matches `is_eps_subgradient`; the two routes must agree.
    """
    if eps < 0:
        raise ValueError("eps must be >= 0")
    x_bar = as_point(x_bar)
    fx = _dom_value(f, x_bar)
    fstar = phi_conjugate(f.restricted_to(box), phi, box).value
    if fstar == INF:
        return False
    return fstar + fx - phi(x_bar) - eps <= tol


def is_dual_subgradient(
    f: ProperFunction,
    x_bar,
    phi_bar: Elementary,
    phi_class: PhiClass,
    box: BoxDomain,
    tol: float = 1e-9,
) -> SubgradientCertificate:
    """x_bar in the subdifferential of f* at phi_bar:

        f*(phi) - f*(phi_bar) >= phi(x_bar) - phi_bar(x_bar)  for all phi,

    searched over the truncated class grid, the worst grid violation then
    improved in parameter space (`ConjugateSum.solve`): the violation is
    concave in phi, and on the affine class in 1D it is maximized exactly
    over v, on the other classes refined by halving.  A holding certificate
    means no violation was found in the searched family.
    """
    x_bar = as_point(x_bar)
    fstar_bar = phi_conjugate(f, phi_bar, box).value
    if not is_finite(fstar_bar):
        raise ValueError("f*(phi_bar) must be finite for the dual-side test")
    base = phi_bar(x_bar) - fstar_bar
    worst, worst_p = ConjugateSum(phi_class, box, ((f, "right"),), x_bar, base).solve()
    holds = worst <= tol
    return SubgradientCertificate(
        holds=holds,
        worst_violation=worst,
        witness=None if holds else worst_p,
    )


@dataclass(frozen=True)
class YoungTripleResult:
    """Verdicts of the three equivalent optimality conditions at (x_bar, phi_bar):

    (i) Young equality f(x_bar) + f*(phi_bar) = phi_bar(x_bar),
    (ii) phi_bar is a subgradient of f at x_bar,
    (iii) x_bar is a dual subgradient of f* at phi_bar.

    The equivalence presumes f is class-convex; `biconjugate_gap` records the
    empirical check |f(x_bar) - f**(x_bar)| instead of assuming it.
    """

    young_equality: bool
    primal_subgradient: bool
    dual_subgradient: bool
    agree: bool
    biconjugate_gap: float

    @property
    def verdicts(self) -> tuple[bool, bool, bool]:
        return (self.young_equality, self.primal_subgradient, self.dual_subgradient)


def young_triple(
    f: ProperFunction,
    x_bar,
    phi_bar: Elementary,
    phi_class: PhiClass,
    box: BoxDomain,
    tol: float = 1e-6,
) -> YoungTripleResult:
    x_bar = as_point(x_bar)
    fx = _dom_value(f, x_bar)
    fstar = phi_conjugate(f, phi_bar, box).value
    eq = is_finite(fstar) and abs(fx + fstar - phi_bar(x_bar)) <= tol
    sub = is_subgradient(f, x_bar, phi_bar, box).holds
    if is_finite(fstar):
        dual = is_dual_subgradient(f, x_bar, phi_bar, phi_class, box).holds
    else:
        dual = False
    gap = abs(fx - biconjugate(f, x_bar, phi_class, box))
    return YoungTripleResult(
        young_equality=eq,
        primal_subgradient=sub,
        dual_subgradient=dual,
        agree=(eq == sub == dual),
        biconjugate_gap=gap,
    )
