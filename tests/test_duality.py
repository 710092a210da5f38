import json
import math

import numpy as np
import pytest

from phidual import (
    BoxDomain,
    Elementary,
    INF,
    NEG_INF,
    PhiClass,
    ProblemInstance,
    ProperFunction,
    TabulatedFunction,
    UnsupportedClassError,
    catalog_names,
    coupling,
    duality_chain_report,
    get_entry,
    lagrangian,
    perturbation,
    perturbation_conjugate_zero,
    proper_piecewise,
    val_cd_sym,
    val_icd,
    val_lagrangian_dual,
    val_lagrangian_primal,
    val_primal,
)

from oracles import affine_class, box1d, lsc_class, perturbation_conjugate_direct

PAIR = get_entry("example-6.1").build()
KKT = get_entry("kkt-example").build()
FEN = get_entry("fenchel-quadratic").build()


def test_perturbation_values():
    assert perturbation(PAIR, 1.0, 0.0) == 1.0  # 2 - 1
    assert perturbation(PAIR, 0.7, 0.0) == PAIR.f(0.7) + PAIR.g(0.7)
    assert perturbation(PAIR, 1.0, 1.0) == -2.0  # 2 + (-4)


def test_coupling_affine_reduction():
    phi = Elementary(0.0, (0.0,), 0.0)
    psi = Elementary(0.0, (3.0,), 7.0)  # affine: coupling = phi(x) + 3*y
    assert coupling(phi, psi, 5.0, 2.0) == 6.0
    rng = np.random.default_rng(2)
    for _ in range(50):
        w, d = rng.uniform(-4, 4, size=2)
        x, y = rng.uniform(-5, 5, size=2)
        psi = Elementary(0.0, (w,), d)
        phi = Elementary(1.0, (rng.uniform(-2, 2),), rng.uniform(-1, 1))
        assert math.isclose(coupling(phi, psi, x, y), phi(x) + w * y, abs_tol=1e-9)


def test_coupling_zero_displacement():
    phi = Elementary(2.0, (1.0,), -0.5)
    psi = Elementary(1.0, (0.0,), 0.0)
    assert coupling(phi, psi, 1.3, 0.0) == phi(1.3)


def test_coupling_quadratic_direct_arithmetic():
    phi = Elementary(0.0, (0.0,), 0.0)
    psi = Elementary(1.0, (0.0,), 0.0)
    # 0 + psi(2) - psi(1) = -4 - (-1) = -3
    assert coupling(phi, psi, 1.0, 1.0) == -3.0


def test_perturbation_conjugate_zero_values():
    assert perturbation_conjugate_zero(PAIR, Elementary(1.0, (0.0,), 0.0)) == 0.0
    assert perturbation_conjugate_zero(PAIR, Elementary(1.5, (0.0,), 0.0)) == 0.0
    assert perturbation_conjugate_zero(PAIR, Elementary(0.5, (0.0,), 0.0)) == INF


def test_perturbation_conjugate_matches_direct_double_sup():
    box = box1d(-4, 4, 81)
    inst = ProblemInstance(PAIR.f, PAIR.g, box, PAIR.phi)
    for phi in (Elementary(1.0, (0.0,), 0.0), Elementary(1.5, (0.0,), 0.0)):
        direct = perturbation_conjugate_direct(
            inst, Elementary(0.0, (0.0,), 0.0), phi, box, box
        )
        factored = perturbation_conjugate_zero(inst, phi)
        assert abs(direct - factored) < 1e-9


def test_lagrangian_slices():
    assert lagrangian(PAIR, 2.0, Elementary(1.0, (0.0,), 0.0)) == 4.0  # x^2 at 2
    assert lagrangian(PAIR, 1.0, Elementary(3.0, (0.0,), 0.0)) == -1.0  # -x^2 at 1
    assert lagrangian(PAIR, 1.0, Elementary(0.5, (0.0,), 0.0)) == NEG_INF  # infeasible


def test_val_primal_examples():
    assert val_primal(PAIR) == (0.0, (0.0,))
    v, p = val_primal(KKT)
    assert v == -2.0 and abs(p[0]) == 2.0
    conv = ProblemInstance(FEN.f, FEN.g, FEN.box, FEN.phi)
    assert val_primal(conv) == (0.0, (0.0,))


def test_val_lagrangian_primal_cases():
    assert abs(val_lagrangian_primal(PAIR)) < 1e-9  # g is class-convex here
    assert abs(val_lagrangian_primal(FEN)) < 1e-9
    neg_affine = ProblemInstance(PAIR.f, PAIR.g, PAIR.box, affine_class())
    assert val_lagrangian_primal(neg_affine) == NEG_INF  # -x^2 has no affine minorant


def test_val_lagrangian_dual_examples():
    v, phi = val_lagrangian_dual(PAIR)
    assert abs(v) < 1e-9
    assert 1.0 <= phi.a <= 2.0 and phi.v == (0.0,)
    v, phi = val_lagrangian_dual(FEN)
    assert abs(v) < 1e-9 and phi.v == (0.0,)
    neg_affine = ProblemInstance(PAIR.f, PAIR.g, PAIR.box, affine_class())
    assert val_lagrangian_dual(neg_affine) == (NEG_INF, None)


def test_val_cd_sym_examples():
    v, _ = val_cd_sym(PAIR)
    assert v == NEG_INF
    v, phi = val_cd_sym(FEN)
    assert abs(v) < 1e-9 and phi.v == (0.0,)
    zeros = ProblemInstance(
        proper_piecewise("f", (-INF, INF, 0.0, 0.0, 0.0)),
        proper_piecewise("g", (-INF, INF, 0.0, 0.0, 0.0)),
        box1d(),
        affine_class(),
    )
    v, phi = val_cd_sym(zeros)
    assert v == 0.0 and phi.v == (0.0,)


def test_val_icd_examples():
    v, pair = val_icd(PAIR)
    assert v == NEG_INF and pair is None
    v, pair = val_icd(FEN)
    assert abs(v) < 1e-9
    phi1, phi2 = pair
    assert all(a + b == 0 for a, b in zip(phi1.v, phi2.v)) and phi1.a == phi2.a == 0.0


def test_chain_report_quadratic_pair():
    r = duality_chain_report(PAIR)
    assert abs(r.val_P) < 1e-9 and abs(r.val_CD) < 1e-9 and abs(r.val_LP) < 1e-9
    assert r.val_ICD == NEG_INF and r.val_CD_sym == NEG_INF
    assert r.gaps["cd"] < 1e-6 and r.gaps["icd"] == INF
    assert r.chain_ok and not r.violations
    assert r.val_LD == r.val_CD


def test_chain_report_fenchel_all_zero():
    r = duality_chain_report(FEN)
    for name, v in r.values().items():
        assert abs(v) < 1e-3, name
    assert abs(r.val_CD - r.val_CD_sym) < 1e-6
    assert abs(r.val_CD - r.val_ICD) < 1e-6


def test_chain_report_kkt_instance():
    r = duality_chain_report(KKT)
    assert abs(r.val_P + 2.0) < 1e-9
    assert abs(r.val_CD + 2.0) < 1e-9
    assert r.chain_ok


def test_gap_instance_chain():
    r = duality_chain_report(get_entry("gap-instance").build())
    assert abs(r.val_P) < 1e-9
    assert abs(r.val_CD + 1.0) < 1e-3
    assert abs(r.gaps["cd"] - 1.0) < 2e-3
    assert r.chain_ok


def test_lagrangian_primal_matches_primal_when_g_class_convex():
    # biconjugate equality holds for these, so val(LP) ~ val(P)
    for inst in (PAIR, FEN, KKT):
        assert abs(val_lagrangian_primal(inst) - val_primal(inst)[0]) <= 1e-4


def test_report_serializes_to_json():
    r = duality_chain_report(PAIR)
    doc = r.as_dict()
    text = json.dumps(doc, sort_keys=True)
    assert '"val_ICD": "-inf"' in text
    rows = r.csv_rows()
    assert len(rows) == 6 and rows[0]["name"] == "val_P"


def test_instance_requires_overlapping_domains():
    with pytest.raises(ValueError):
        ProblemInstance(
            proper_piecewise("f", (-5.0, -1.0, 0.0, 0.0, 0.0)),
            proper_piecewise("g", (1.0, 5.0, 0.0, 0.0, 0.0)),
            box1d(),
            lsc_class(),
        )


def test_icd_requires_additive_class_with_zero():
    # every built-in kind qualifies, so exercise the guard with a minimal stub
    import types

    bad_phi = types.SimpleNamespace(contains_zero=True, additive=False, dim=1)
    bad = types.SimpleNamespace(f=PAIR.f, g=PAIR.g, box=PAIR.box, phi=bad_phi)
    with pytest.raises(UnsupportedClassError):
        val_icd(bad)


def test_weak_duality_sweep():
    # p(x, 0) >= -p*(0, phi) for every grid point and every searched phi
    from phidual.duality import _dual_program, objective_values

    for inst in (PAIR, KKT, get_entry("gap-instance").build()):
        primal_vals = objective_values(inst.f, inst.g, inst.box)
        duals = _dual_program(inst, inst.phi).sweep()
        assert float(np.min(primal_vals)) >= float(np.max(duals)) - 1e-9


def test_dual_objective_ignores_constant_of_phi():
    # constants cancel in -*f(phi) - g*(phi), which is why dual searches fix c = 0
    from phidual.duality import dual_value_at

    for c in (-7.0, 0.0, 2.5):
        phi = Elementary(1.5, (2.0,), c)
        base = dual_value_at(PAIR, Elementary(1.5, (2.0,), 0.0))
        got = dual_value_at(PAIR, phi)
        assert math.isclose(got, base, rel_tol=1e-12, abs_tol=1e-12)


def _constant_only_instance():
    from phidual import BoxDomain, PhiClass

    return ProblemInstance(
        proper_piecewise("f", (-5.0, 5.0, 1.0, 0.0, 0.0)),
        proper_piecewise("g", (-5.0, 5.0, 0.0, 0.0, 1.0)),
        BoxDomain((-5.0,), (5.0,), (501,)),
        PhiClass("constant-only", dim=1),
    )


def test_constant_only_class_end_to_end():
    # regression: the zero-parameter class exercises every empty-matrix path
    from phidual import check_bui_condition, search_kkt_pair

    inst = _constant_only_instance()
    r = duality_chain_report(inst)
    assert r.chain_ok
    assert all(abs(v - 1.0) < 1e-9 for v in r.values().values())
    found = search_kkt_pair(inst)
    assert found is not None and found[2].optimal
    assert check_bui_condition(inst).overall


def test_general_coupling_conjugate_with_distinct_pair():
    # psi != phi: the double-grid evaluator must match the factored form
    #   sup_x [phi(x) - psi(x) - f(x)] + g*(psi)
    # with every extremum landing on grid points of the reduced box
    from phidual import BoxDomain, phi_conjugate

    box = BoxDomain((-4.0,), (4.0,), (161,))
    inst = ProblemInstance(PAIR.f, PAIR.g, box, PAIR.phi)
    phi = Elementary(1.0, (1.0,), 0.0)
    psi = Elementary(2.0, (0.0,), 0.0)
    direct = perturbation_conjugate_direct(inst, phi, psi, box, box)
    # phi - psi = x^2 + x, so sup(phi - psi - f) = sup(-x^2 + x) = 1/4
    head, _ = inst.f.piecewise.sup_quadratic_offset(
        -(phi.a - psi.a), phi.v[0] - psi.v[0], phi.c - psi.c
    )
    factored = head + phi_conjugate(inst.g.restricted_to(box), psi, box).value
    assert abs(head - 0.25) < 1e-12
    assert abs(direct - factored) < 1e-9


def test_nan_value_breaks_the_chain(monkeypatch):
    """A NaN compares false with everything; it must still fail the chain."""
    import phidual.duality as duality
    from phidual import catalog_names

    inst = get_entry(catalog_names()[0]).build()
    monkeypatch.setattr(duality, "val_primal", lambda inst: (math.nan, None))
    report = duality_chain_report(inst)
    assert not report.chain_ok
    assert "val_P is NaN" in report.violations


def test_analyses_of_one_instance_share_its_values(monkeypatch):
    import phidual.duality as duality
    from phidual import theorem_bridge_report

    calls = {"val_primal": 0, "_lagrangian_primal_search": 0}
    for name in calls:
        original = getattr(duality, name)

        def counted(*args, name=name, original=original, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(duality, name, counted)
    inst = get_entry("gap-instance").build()
    bridge = theorem_bridge_report(inst)
    chain = duality_chain_report(inst)
    assert calls == {"val_primal": 1, "_lagrangian_primal_search": 1}
    assert (bridge.val_P, bridge.val_LP) == (chain.val_P, chain.val_LP)
    assert val_lagrangian_primal(inst) == chain.val_LP
    # the values live on the instance object: an equal one computes them anew
    again = ProblemInstance(inst.f, inst.g, inst.box, inst.phi)
    assert again == inst
    assert duality_chain_report(again).values() == chain.values()
    assert calls == {"val_primal": 2, "_lagrangian_primal_search": 2}


def _symmetric_class_instances():
    """The affine catalog entries, their tabulated twins, the 2D table
    instance and a constant-only instance."""
    from phidual import catalog_names
    from phidual.serialize import parse_instance

    from oracles import table_2d_doc, twin_document

    entries = [get_entry(n).build() for n in catalog_names()]
    affine = [inst for inst in entries if inst.phi.kind == "affine"]
    twins = [parse_instance(twin_document(inst)) for inst in affine]
    return [*affine, *twins, parse_instance(table_2d_doc()), _constant_only_instance()]


def _bits(result) -> bytes:
    """A dual result's value and winner parameters, as bytes."""
    v, phi = result
    return np.array([v] if phi is None else [v, phi.a, *phi.v, phi.c]).tobytes()


@pytest.mark.parametrize("inst", _symmetric_class_instances())
def test_symmetric_class_duals_are_one_program(inst):
    # on a symmetric class CD^sym is CD: the shared memo is each public
    # function's own result, value and winner, bit for bit
    assert inst.phi.symmetric
    assert _bits(inst.dual) == _bits(val_lagrangian_dual(inst))
    assert _bits(inst.symmetric_dual) == _bits(val_cd_sym(inst))


@pytest.mark.parametrize("name, sweeps", [("gap-instance", 1), ("example-6.1", 2)])
def test_chain_report_sweeps_each_dual_program_once(monkeypatch, name, sweeps):
    # a symmetric class solves one dual program for val(CD) and val(CD^sym);
    # the lsc-quadratic class solves it over the class and its affine subclass
    from phidual.conjugation import ConjugateSum

    calls = []
    original = ConjugateSum.solve

    def counted(self):
        calls.append(self)
        return original(self)

    monkeypatch.setattr(ConjugateSum, "solve", counted)
    inst = get_entry(name).build()
    report = duality_chain_report(inst)
    assert len(calls) == sweeps
    assert report.val_CD_sym == val_cd_sym(inst)[0]


class _Bowl:
    """|x|^2 on any box, per point or batched."""

    def __call__(self, p):
        return sum(c * c for c in p)

    def values(self, points):
        return np.sum(points * points, axis=1)


def _bowl(box: BoxDomain) -> ProperFunction:
    return ProperFunction.from_tabulated(TabulatedFunction(box, _Bowl()))


def test_oversized_instance_is_refused_before_its_grid_is_built(monkeypatch):
    bowl2 = _bowl(BoxDomain((-1.0, -1.0), (1.0, 1.0), (3, 3)))

    def refuse(self):
        raise AssertionError("a grid was built")

    monkeypatch.setattr(BoxDomain, "axes", refuse)
    sizes = [
        (PAIR.f, box1d(n=10**6), lsc_class()),  # 1e6 points x 4225 rows
        (PAIR.f, box1d(n=10**9), PhiClass("constant-only")),  # 1e9 points x 1 row
        (bowl2, BoxDomain((-1.0, -1.0), (1.0, 1.0), (4001, 4001)), PhiClass("affine", dim=2)),
    ]
    for f, box, phi in sizes:
        with pytest.raises(ValueError, match="budget"):
            ProblemInstance(f, f, box, phi)


def test_resource_budget_admits_the_shipped_sizes():
    # the catalog, exact-1d and grid-1d (2001 points, 65 x 65 rows), the
    # 41 x 41 2D test tables and the CLI's 2D default (201 x 201, 17^3 rows)
    for name in catalog_names():
        get_entry(name).build()
    ProblemInstance(PAIR.f, PAIR.g, box1d(), lsc_class())
    box41 = BoxDomain((-2.0, -2.0), (2.0, 2.0), (41, 41))
    box201 = BoxDomain((-1.0, -1.0), (1.0, 1.0), (201, 201))
    for box, phi in [
        (box41, PhiClass("affine", dim=2, grid_sizes=(9, 9))),
        (box41, PhiClass("lsc-quadratic", dim=2, grid_sizes=(5, 9, 9))),
        (box201, PhiClass("lsc-quadratic", dim=2)),
    ]:
        ProblemInstance(_bowl(box), _bowl(box), box, phi)
