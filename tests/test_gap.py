import numpy as np
import pytest

from phidual import (
    BoxDomain,
    Elementary,
    INF,
    NEG_INF,
    ProblemInstance,
    UnsupportedClassError,
    certify_zero_gap_via_intersection,
    check_bui_condition,
    check_intersection_property,
    get_entry,
    proper_piecewise,
    theorem_bridge_report,
    val_lagrangian_dual,
    val_lagrangian_primal,
)
from phidual.gap import elementary_extremum_on_box, support_candidates
from phidual.serialize import parse_instance

from oracles import affine_class, box1d, check_intersection_direct, table_2d_doc

PAIR = get_entry("example-6.1").build()
FEN = get_entry("fenchel-quadratic").build()
GAP = get_entry("gap-instance").build()
PIN = [(Elementary(1.0, (0.0,), 0.0), Elementary(3.0, (0.0,), 0.0))]

BOX2 = box1d(-2.0, 2.0, 401)


def test_constant_slice_dominates_its_own_level():
    phi1 = Elementary(0.0, (0.0,), -0.5)  # constant -0.5
    phi2 = Elementary(2.0, (1.0,), 0.0)
    cert = check_intersection_property(phi1, phi2, -0.5, BOX2)
    assert cert.holds and cert.t0 == 1.0
    assert cert.min_over_x_at_t0 >= -0.5 - 1e-9


def test_opposed_slopes_balance_at_interior_t():
    # v(t) = min (2t-1) x on [-2, 2] = -2|2t-1| peaks at an interior t0 = 1/2
    phi1 = Elementary(0.0, (1.0,), 0.0)
    phi2 = Elementary(0.0, (-1.0,), 0.0)
    cert = check_intersection_property(phi1, phi2, -1.0, BOX2)
    assert cert.holds
    assert abs(cert.t0 - 0.5) < 1e-6
    assert abs(cert.min_over_x_at_t0) < 1e-9


def test_flat_against_concave_square():
    # the zero function against -x^2: only t = 1 dominates level -1
    cert = check_intersection_property(
        Elementary(0.0, (0.0,), 0.0), Elementary(1.0, (0.0,), 0.0), -1.0, BOX2
    )
    assert cert.holds and cert.t0 == 1.0


def test_identical_negative_squares_fail():
    phi = Elementary(1.0, (0.0,), 0.0)  # -x^2
    cert = check_intersection_property(phi, phi, 0.0, BOX2)
    assert not cert.holds
    assert cert.min_over_x_at_t0 == -4.0


def test_direct_oracle_on_support_pair():
    # the zero constant supports the first Lagrangian slice; any minorant of
    # -x^2 supports the second; the pair certifies every negative level
    phi1 = Elementary(0.0, (0.0,), 0.0)
    phi2 = Elementary(1.0, (0.0,), 0.0)
    assert check_intersection_direct(phi1, phi2, -0.5, box1d(n=501))
    assert not check_intersection_direct(phi2, phi2, 0.0, BOX2, t_grid_size=101)


def test_lemma_and_direct_agree_on_random_pairs():
    # 1D, and 2D where the envelope has 4 corner lines and 6 crossings
    for box in (box1d(n=501), BoxDomain((-2.0, -1.0), (1.0, 3.0), (41, 41))):
        rng = np.random.default_rng(17)
        agree = 0
        for _ in range(80):
            phi1, phi2 = (
                Elementary(rng.choice([0.0, 0.5, 1.0]), tuple(rng.uniform(-3, 3, box.dim)),
                           rng.uniform(-4, 4))
                for _ in range(2)
            )
            alpha = float(rng.uniform(-6, 2))
            cert = check_intersection_property(phi1, phi2, alpha, box)
            if abs(cert.min_over_x_at_t0 - alpha) < 5e-3:
                continue  # skip near-ties where grid and exact checks can differ
            assert cert.holds == check_intersection_direct(phi1, phi2, alpha, box, 501)
            agree += 1
        assert agree > 40, box


def test_sampled_concavity_of_the_combination_minimum():
    rng = np.random.default_rng(23)
    box = box1d(n=101)
    for _ in range(20):
        phi1 = Elementary(rng.choice([0.0, 1.0, 2.0]), (rng.uniform(-3, 3),), rng.uniform(-2, 2))
        phi2 = Elementary(rng.choice([0.0, 0.5]), (rng.uniform(-3, 3),), rng.uniform(-2, 2))
        v = lambda t: elementary_extremum_on_box(phi1.combine(phi2, t), box, "inf")[0]
        ts = np.linspace(0, 1, 21)
        for a, b in zip(ts, ts[2:]):
            assert v((a + b) / 2) >= 0.5 * (v(a) + v(b)) - 1e-9


def test_certify_with_pinned_pair_uses_constant_alpha_support():
    certs = certify_zero_gap_via_intersection(PAIR, [-0.5, -0.1, -0.01], pairs=PIN)
    for cert in certs:
        assert cert.found
        assert cert.support1.a == 0.0 and cert.support1.v == (0.0,)
        assert cert.support1.c == cert.alpha
        assert cert.psi2.a == 3.0


def test_certify_default_search_on_convex_instance():
    certs = certify_zero_gap_via_intersection(FEN, [-0.1])
    assert certs[0].found


def _piecewise_instance(f, g):
    f, g = proper_piecewise("f", f), proper_piecewise("g", g)
    return ProblemInstance(f, g, box1d(), affine_class())


WINNER_FIRST = {
    # seed-1000 random-5 of the benchmark stream: no duality gap
    "random-5": lambda: _piecewise_instance(
        (-3.0, 4.0, 1.0, -2.6885814037332865, -1.8643265293810511),
        (-INF, INF, 0.5, 1.3458964361719534, -0.6993143485200788),
    ),
    # seed-1000 random-7: val(LP) - val(CD) = 0.234
    "random-7": lambda: _piecewise_instance(
        (-1.0, 1.0, -0.5, 2.570289517870222, 0.71870963739604),
        (-INF, INF, 0.5, -2.329320350576739, -1.0680763984859571),
    ),
    "table-2d": lambda: parse_instance(table_2d_doc()),
    "table-2d-lsc": lambda: parse_instance(
        dict(
            table_2d_doc(),
            phi={"kind": "lsc-quadratic", "a_max": 4.0, "v_max": 8.0, "grid": [5, 9, 9]},
        )
    ),
}


@pytest.mark.parametrize("name", WINNER_FIRST)
def test_certify_tries_the_dual_winner_first(name):
    # by the zero-gap theorem psi1 = psi2 = the val(CD) winner, with the
    # constant alpha as support, certifies every level below val(CD); the
    # winner lies off the parameter grid, so no grid pair does it in budget
    inst = WINNER_FIRST[name]()
    v_cd = inst.dual[0]
    alphas = [v_cd - d for d in (1e-3, 0.01, 0.1, 0.5, 2.0)]
    for cert in certify_zero_gap_via_intersection(inst, alphas):
        assert cert.found and cert.checks_used == 1, cert.alpha
        assert cert.psi1 == cert.psi2 == inst.dual[1]


def test_certify_zero_budget_is_inconclusive():
    certs = certify_zero_gap_via_intersection(PAIR, [-0.5], pairs=PIN, check_budget=0)
    assert not certs[0].found and certs[0].checks_used == 0


def test_certify_rejects_alpha_at_or_above_primal_level():
    with pytest.raises(ValueError):
        certify_zero_gap_via_intersection(PAIR, [0.5], pairs=PIN)


def test_certificate_reusable_at_lower_levels():
    cert = certify_zero_gap_via_intersection(PAIR, [-0.01], pairs=PIN)[0]
    for lower in (-0.1, -1.0, -7.5):
        again = check_intersection_property(
            cert.support1, cert.support2, lower, PAIR.box
        )
        assert again.holds


def test_certified_levels_stay_below_dual_value():
    alphas = [-0.5, -0.1, -0.01]
    certs = certify_zero_gap_via_intersection(PAIR, alphas, pairs=PIN)
    assert all(c.found for c in certs)
    v_ld, _ = val_lagrangian_dual(PAIR)
    assert v_ld >= max(alphas) - 1e-9


def test_support_candidates_of_lagrangian_slices():
    cands = support_candidates(PAIR, Elementary(1.0, (0.0,), 0.0), -0.5)
    assert any(c.a == 0.0 and c.v == (0.0,) and c.c == -0.5 for c in cands)
    cands3 = support_candidates(PAIR, Elementary(3.0, (0.0,), 0.0), -0.5)
    assert cands3  # the slice -x^2 has a nonempty support


def test_bui_condition_fails_for_quadratic_pair():
    res = check_bui_condition(PAIR)
    assert not res.overall
    assert all(not w.found for w in res.per_eps)


def test_bui_condition_holds_for_convex_pair():
    res = check_bui_condition(FEN)
    assert res.overall
    assert all(w.found and w.verified for w in res.per_eps)
    # the canonical witness (x_bar = 0, phi = 0) verifies at every eps
    from phidual import is_eps_subgradient

    zero = Elementary(0.0, (0.0,), 0.0)
    for eps in res.epsilons:
        assert is_eps_subgradient(FEN.g, 0.0, zero, eps, FEN.box).holds
        assert is_eps_subgradient(FEN.f, 0.0, zero, eps, FEN.box).holds


def test_bui_condition_ignores_constant_offsets():
    inst = ProblemInstance(
        proper_piecewise("f", (-INF, INF, 1.0, 0.0, 0.0)),
        proper_piecewise("g", (-INF, INF, 1.0, 0.0, -1.0)),
        box1d(),
        affine_class(),
    )
    res = check_bui_condition(inst)
    assert res.overall and res.per_eps[0].x_bar == (0.0,)


def test_bui_guard_on_unsupported_class():
    import types

    bad_phi = types.SimpleNamespace(contains_zero=True, additive=False, dim=1)
    bad = types.SimpleNamespace(f=PAIR.f, g=PAIR.g, box=PAIR.box, phi=bad_phi)
    with pytest.raises(UnsupportedClassError):
        check_bui_condition(bad)


def test_bridge_on_quadratic_pair():
    br = theorem_bridge_report(PAIR, pairs=PIN)
    assert not br.condition_sum
    assert br.condition_intersection
    assert not br.contradiction
    assert br.missing_hypotheses == ["symmetric"]
    assert br.primal_biconjugate_equality


def test_bridge_on_convex_instance():
    br = theorem_bridge_report(FEN)
    assert br.condition_sum and br.condition_intersection
    assert br.backward_applicable and br.forward_applicable
    assert not br.contradiction


def test_bridge_on_gap_instance():
    br = theorem_bridge_report(GAP)
    assert not br.condition_sum
    assert not br.condition_intersection  # inconclusive at levels above the gap
    assert not br.contradiction
    v_ld, _ = val_lagrangian_dual(GAP)
    assert br.val_P > v_ld + 0.5  # the positive gap is visible


@pytest.mark.parametrize("kwargs", [{"alphas": []}, {"alphas": ()}, {"alpha_offsets": []}])
def test_bridge_refuses_an_empty_alpha_list(kwargs):
    # no level to search decides nothing, so it is no inconclusive search
    with pytest.raises(ValueError, match="alpha list must not be empty"):
        theorem_bridge_report(FEN, **kwargs)


def test_bridge_handles_infeasible_dual_class():
    # -x^2 has no affine minorant: val(LP) = -inf, so no level is admissible
    # and the intersection condition is reported as not evaluable
    inst = ProblemInstance(
        PAIR.f, PAIR.g, PAIR.box, affine_class()
    )
    br = theorem_bridge_report(inst)
    assert not br.condition_sum
    assert not br.condition_intersection
    assert br.intersection == []
    assert any("not evaluable" in n for n in br.notes)
