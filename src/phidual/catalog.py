"""Built-in problem catalog.

Each entry bundles an instance builder with expected results, a tolerance and
a basis label per expectation ("analytic" for direct arithmetic, "derived"
for values computed by an independent oracle such as dense scans or vertex
clamping done by hand, "reference" for values established in the abstract
convexity literature).  The catalog round-trip -- every expectation
reproduced under default configuration -- is the executable acceptance
contract of the package.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable, Optional

from .core import BoxDomain
from .duality import ProblemInstance
from .functions import PhiClass, proper_piecewise

INF = float("inf")

DEFAULT_BOX_1D = BoxDomain((-10.0,), (10.0,), (2001,))


@dataclass(frozen=True)
class CatalogEntry:
    name: str
    description: str
    _builder: Callable[[BoxDomain, PhiClass], ProblemInstance]
    default_phi: PhiClass
    default_box: BoxDomain
    expected: dict

    def build(
        self, box: Optional[BoxDomain] = None, phi: Optional[PhiClass] = None
    ) -> ProblemInstance:
        return self._builder(box or self.default_box, phi or self.default_phi)


def _entry_quadratic_pair() -> CatalogEntry:
    """f = 2x^2, g = -x^2 on the line, lsc-quadratic class.

    The primal infimum is 0.  The conjugate dual also reaches 0 (at the
    elementary with a = 1, v = 0) while the zero-sum-pair dual is -inf: every
    affine conjugate of g is infinite.  The sum condition therefore fails at
    every eps, yet intersection certificates exist at every negative level --
    the classic witness that the two zero-gap routes differ for a
    non-symmetric class.
    """
    f = proper_piecewise("f", (-INF, INF, 2.0, 0.0, 0.0))
    g = proper_piecewise("g", (-INF, INF, -1.0, 0.0, 0.0))
    phi = PhiClass("lsc-quadratic", dim=1, a_max=8.0, v_max=32.0, grid_sizes=(65, 65))
    expected = {
        "values": {
            "val_P": {"value": 0.0, "tol": 1e-6, "basis": "reference"},
            "val_LP": {"value": 0.0, "tol": 1e-4, "basis": "derived"},
            "val_CD": {"value": 0.0, "tol": 1e-3, "basis": "reference"},
            "val_ICD": {"value": -INF, "tol": None, "basis": "reference"},
            "val_CD_sym": {"value": -INF, "tol": None, "basis": "derived"},
        },
        "bui_overall": {"value": False, "basis": "reference"},
        "intersection": {
            "alphas": [-0.5, -0.1, -0.01],
            "found": True,
            "pair": ((1.0, 0.0), (3.0, 0.0)),
            "basis": "reference",
        },
        "kkt": [
            {
                "x": 0.0,
                "a": 1.0,
                "w": 0.0,
                "optimal": True,
                "primal": 0.0,
                "dual": 0.0,
                "tol": 1e-6,
                "basis": "derived",
            }
        ],
        "conjugate_spots": [
            # g-side values of the conjugate at (a, b)
            {"which": "g", "a": 2.0, "b": 1.0, "value": 0.25, "tol": 1e-9,
             "basis": "reference"},
            {"which": "g", "a": 1.0, "b": 0.0, "value": 0.0, "tol": 1e-12,
             "basis": "reference"},
            {"which": "g", "a": 0.5, "b": 0.0, "value": INF, "tol": None,
             "basis": "reference"},
        ],
    }
    return CatalogEntry(
        "example-6.1",
        "nonconvex pair 2x^2 and -x^2: zero conjugate-dual gap, infinite "
        "zero-sum-pair dual",
        lambda box, p: ProblemInstance(f, g, box, p),
        phi,
        DEFAULT_BOX_1D,
        expected,
    )


def _entry_kkt_example() -> CatalogEntry:
    """Shifted double parabola against -x^2, lsc-quadratic class.

    f(x) = 2(x-1)^2 for x >= 0 and 2(x+1)^2 for x < 0; g(x) = -x^2.  Both are
    nonconvex but lsc with quadratic minorants.  The primal optimum -2 is
    attained at x = +-2 and certified by the pair (x* = 2, phi* = (1, 0)):
    the shifted f~ = f - x^2 has the zero slope as a subgradient at 2, and
    the dual value -f~*(0,0) - g*(1,0) = -2 - 0 matches.
    """
    f = proper_piecewise(
        "f", (-INF, 0.0, 2.0, 4.0, 2.0), (0.0, INF, 2.0, -4.0, 2.0)
    )
    g = proper_piecewise("g", (-INF, INF, -1.0, 0.0, 0.0))
    phi = PhiClass("lsc-quadratic", dim=1, a_max=8.0, v_max=32.0, grid_sizes=(65, 65))
    expected = {
        "values": {
            "val_P": {"value": -2.0, "tol": 1e-6, "basis": "derived"},
            "val_CD": {"value": -2.0, "tol": 1e-3, "basis": "derived"},
        },
        "kkt": [
            {
                "x": 2.0,
                "a": 1.0,
                "w": 0.0,
                "optimal": True,
                "primal": -2.0,
                "dual": -2.0,
                "tol": 1e-6,
                "basis": "derived",
            },
            {
                "x": 0.0,
                "a": 1.0,
                "w": 0.0,
                "optimal": False,
                "basis": "derived",
            },
        ],
    }
    return CatalogEntry(
        "kkt-example",
        "nonconvex double parabola plus -x^2: optimal pair (2, (1, 0)) with "
        "primal = dual = -2",
        lambda box, p: ProblemInstance(f, g, box, p),
        phi,
        DEFAULT_BOX_1D,
        expected,
    )


def _entry_fenchel_quadratic() -> CatalogEntry:
    """f = g = x^2 with the affine class: the classical Fenchel setting.

    Every dual in the family collapses to the Fenchel dual, all six chain
    values equal 0, and the optimal pair is (0, the zero functional).
    """
    f = proper_piecewise("f", (-INF, INF, 1.0, 0.0, 0.0))
    g = proper_piecewise("g", (-INF, INF, 1.0, 0.0, 0.0))
    phi = PhiClass("affine", dim=1, v_max=32.0, grid_sizes=(65,))
    expected = {
        "values": {
            name: {"value": 0.0, "tol": 1e-3, "basis": "derived"}
            for name in ("val_P", "val_LP", "val_LD", "val_CD", "val_CD_sym", "val_ICD")
        },
        "collapse_tol": 1e-6,
        "bui_overall": {"value": True, "basis": "derived"},
        "intersection": {
            "alphas": [-0.1],
            "found": True,
            "pair": None,
            "basis": "derived",
        },
        "kkt": [
            {
                "x": 0.0,
                "a": 0.0,
                "w": 0.0,
                "optimal": True,
                "primal": 0.0,
                "dual": 0.0,
                "tol": 1e-6,
                "basis": "analytic",
            }
        ],
    }
    return CatalogEntry(
        "fenchel-quadratic",
        "convex pair x^2 + x^2 with affine elementaries: all duals collapse "
        "to 0",
        lambda box, p: ProblemInstance(f, g, box, p),
        phi,
        DEFAULT_BOX_1D,
        expected,
    )


def _entry_cone_indicator() -> CatalogEntry:
    """Minimize (x-1)^2 over the half-line cone via its indicator.

    g is the indicator of K = [0, inf); with affine elementaries the
    Lagrangian collapses to f(x) + v*x for v in the polar cone (-inf, 0]
    (conjugates of the indicator are +inf off the polar).  Primal and dual
    meet at 0 with x* = 1, v* = 0.
    """
    f = proper_piecewise("f", (-INF, INF, 1.0, -2.0, 1.0))
    g = proper_piecewise("g", (0.0, INF, 0.0, 0.0, 0.0))
    phi = PhiClass("affine", dim=1, v_max=32.0, grid_sizes=(65,))
    expected = {
        "values": {
            "val_P": {"value": 0.0, "tol": 1e-6, "basis": "analytic"},
            "val_CD": {"value": 0.0, "tol": 1e-3, "basis": "derived"},
        },
        "kkt": [
            {
                "x": 1.0,
                "a": 0.0,
                "w": 0.0,
                "optimal": True,
                "primal": 0.0,
                "dual": 0.0,
                "tol": 1e-6,
                "basis": "derived",
            }
        ],
    }
    return CatalogEntry(
        "cone-indicator-1d",
        "(x-1)^2 plus the indicator of [0, inf): cone-constrained problem "
        "with zero gap at v* = 0",
        lambda box, p: ProblemInstance(f, g, box, p),
        phi,
        DEFAULT_BOX_1D,
        expected,
    )


def _entry_gap_instance() -> CatalogEntry:
    """An engineered positive duality gap: f = -x^2 and g = x^2 on [-1, 1].

    With affine elementaries, *f(v) = 1 + |v| and g*(v) = v^2/4 on the
    relevant range, so the dual tops out at -1 while the primal is 0: gap
    exactly 1.  The sum condition fails and no intersection certificate
    exists at levels above -1, so the default searches come back negative
    and inconclusive respectively.
    """
    f = proper_piecewise("f", (-1.0, 1.0, -1.0, 0.0, 0.0))
    g = proper_piecewise("g", (-1.0, 1.0, 1.0, 0.0, 0.0))
    phi = PhiClass("affine", dim=1, v_max=4.0, grid_sizes=(65,))
    expected = {
        "values": {
            "val_P": {"value": 0.0, "tol": 1e-6, "basis": "analytic"},
            "val_LP": {"value": 0.0, "tol": 2e-3, "basis": "derived"},
            "val_CD": {"value": -1.0, "tol": 1e-3, "basis": "derived"},
        },
        "gaps": {"cd": {"value": 1.0, "tol": 2e-3, "basis": "derived"}},
        "bui_overall": {"value": False, "basis": "derived"},
        "intersection": {
            "alphas": None,  # default offsets below val(LP)
            "found": False,
            "pair": None,
            "basis": "derived",
        },
    }
    return CatalogEntry(
        "gap-instance",
        "concave -x^2 plus convex x^2 on [-1, 1]: duality gap exactly 1",
        lambda box, p: ProblemInstance(f, g, box, p),
        phi,
        DEFAULT_BOX_1D,
        expected,
    )


_ENTRIES = {
    e.name: e
    for e in (
        _entry_quadratic_pair(),
        _entry_kkt_example(),
        _entry_fenchel_quadratic(),
        _entry_cone_indicator(),
        _entry_gap_instance(),
    )
}


def catalog_names() -> list[str]:
    return sorted(_ENTRIES)


def get_entry(name: str) -> CatalogEntry:
    try:
        return _ENTRIES[name]
    except KeyError:
        raise KeyError(
            f"unknown catalog entry {name!r}; available: {', '.join(catalog_names())}"
        ) from None


def with_overrides(
    entry: CatalogEntry,
    box: Optional[BoxDomain] = None,
    a_max: Optional[float] = None,
    v_max: Optional[float] = None,
) -> ProblemInstance:
    return entry.build(box=box, phi=with_bounds(entry.default_phi, a_max, v_max))


def with_bounds(
    phi: PhiClass, a_max: Optional[float] = None, v_max: Optional[float] = None
) -> PhiClass:
    """`phi` with its truncation bounds replaced where given."""
    if a_max is None and v_max is None:
        return phi
    return replace(
        phi,
        a_max=a_max if a_max is not None else phi.a_max,
        v_max=v_max if v_max is not None else phi.v_max,
    )
