"""Abstract-convexity duality toolkit.

Conjugates, subgradient certificates, the perturbation-based conjugate and
Lagrangian duals, zero-duality-gap analysis and KKT-type verification for
minimizing f + g over low-dimensional boxes, with exact closed forms on
piecewise-quadratic instances and grid oracles everywhere else.
"""

from .core import (
    INF,
    NEG_INF,
    BoxDomain,
    Grid,
    Point,
    ext_add,
    ext_from_json,
    ext_to_json,
    inf_on_grid,
    refine_extremum,
    sup_on_grid,
)
from .functions import (
    Elementary,
    PhiClass,
    PiecewiseQuadratic,
    ProperFunction,
    QuadraticPiece,
    TabulatedFunction,
    UnsupportedClassError,
    pieces,
    proper_piecewise,
    support_membership,
)
from .conjugation import (
    ConjugateValue,
    biconjugate,
    biconjugate_leq_f,
    fenchel_moreau_check,
    left_conjugate,
    phi_conjugate,
)
from .subdifferential import (
    SubgradientCertificate,
    YoungTripleResult,
    eps_subgradient_via_conjugate,
    is_dual_subgradient,
    is_eps_subgradient,
    is_subgradient,
    young_triple,
)
from .duality import (
    DualityReport,
    ProblemInstance,
    coupling,
    duality_chain_report,
    lagrangian,
    perturbation,
    perturbation_conjugate_zero,
    val_cd_sym,
    val_icd,
    val_lagrangian_dual,
    val_lagrangian_primal,
    val_primal,
)
from .gap import (
    AlphaCertificate,
    BridgeReport,
    BuiConditionResult,
    IntersectionCertificate,
    certify_zero_gap_via_intersection,
    check_bui_condition,
    check_intersection_property,
    theorem_bridge_report,
)
from .kkt import (
    KktCertificate,
    search_kkt_pair,
    verify_kkt,
    verify_kkt_lsc,
    verify_kkt_symmetric,
)
from .catalog import CatalogEntry, catalog_names, get_entry

__version__ = "0.1.0"
