import math

import numpy as np
import pytest

from phidual import (
    Elementary,
    INF,
    eps_subgradient_via_conjugate,
    is_dual_subgradient,
    is_eps_subgradient,
    is_subgradient,
    phi_conjugate,
    proper_piecewise,
    young_triple,
)

from oracles import box1d, dense_sup, lsc_class

BOX = box1d()
X_SQ = proper_piecewise("f", (-INF, INF, 1.0, 0.0, 0.0))
G_NEG_SQ = proper_piecewise("g", (-INF, INF, -1.0, 0.0, 0.0))
F_DOUBLE = proper_piecewise(
    "f", (-INF, 0.0, 2.0, 4.0, 2.0), (0.0, INF, 2.0, -4.0, 2.0)
)


def test_subgradient_of_shifted_double_parabola():
    # f(x) - f(2) >= x^2 - 4 for all x, expressed through f~ = f - x^2
    f_shift = F_DOUBLE.shifted(1.0)
    cert = is_subgradient(f_shift, 2.0, Elementary(0.0, (0.0,), 0.0), BOX)
    assert cert.holds and cert.worst_violation <= 1e-9


def test_zero_elementary_at_global_minimizer():
    assert is_subgradient(X_SQ, 0.0, Elementary(0.0, (0.0,), 0.0), BOX).holds


def test_non_minimizer_with_zero_elementary_fails_with_witness():
    cert = is_subgradient(X_SQ, 1.0, Elementary(0.0, (0.0,), 0.0), BOX)
    assert not cert.holds
    assert cert.witness == (0.0,)
    assert math.isclose(cert.worst_violation, 1.0, rel_tol=1e-12)


def test_point_outside_domain_rejected():
    f = proper_piecewise("f", (0.0, 1.0, 0.0, 0.0, 0.0))
    with pytest.raises(ValueError):
        is_subgradient(f, 5.0, Elementary(0.0, (0.0,), 0.0), BOX)


def test_eps_slack_boundary():
    # oracle: worst violation of f(x) >= f(1) with phi = 0 is 1 - x^2 at x = 0
    ov, ox = dense_sup(lambda t: 1.0 - t * t, -10, 10)
    assert abs(ov - 1.0) < 1e-9 and abs(ox) < 1e-4
    phi = Elementary(0.0, (0.0,), 0.0)
    assert is_eps_subgradient(X_SQ, 1.0, phi, 1.0, BOX).holds
    assert not is_eps_subgradient(X_SQ, 1.0, phi, 0.5, BOX).holds
    with pytest.raises(ValueError):
        is_eps_subgradient(X_SQ, 1.0, phi, -0.1, BOX)


def test_true_subgradient_stays_true_at_zero_eps():
    phi = Elementary(0.0, (2.0,), 0.0)  # tangent slope of x^2 at 1
    assert is_subgradient(X_SQ, 1.0, phi, BOX).holds
    assert is_eps_subgradient(X_SQ, 1.0, phi, 0.0, BOX).holds


def test_conjugate_route_on_matched_constant():
    # g(x) = -x^2 with phi = (1, 0, c) matching phi(x_bar) = g(x_bar):
    # g*(1,0) = 0 and the conjugate-side inequality is tight at eps = 0
    x_bar = 2.0
    phi = Elementary(1.0, (0.0,), 0.0)
    assert phi_conjugate(G_NEG_SQ, phi, BOX).value == 0.0
    assert eps_subgradient_via_conjugate(G_NEG_SQ, x_bar, phi, 0.0, BOX)


def test_conjugate_route_zero_at_origin():
    phi = Elementary(0.0, (0.0,), 0.0)
    # f(0) + f*(0) = 0 + 0 <= 0
    assert eps_subgradient_via_conjugate(
        proper_piecewise("f", (-INF, INF, 2.0, 0.0, 0.0)), 0.0, phi, 0.0, BOX
    )


def test_two_eps_routes_agree_on_random_queries():
    rng = np.random.default_rng(3)
    from oracles import random_piecewise

    box = box1d(n=501)
    for _ in range(100):
        f = random_piecewise(rng)
        phi = Elementary(
            float(rng.choice([0.0, 0.5, 1.0, 2.0])),
            (float(rng.uniform(-4, 4)),),
            float(rng.uniform(-2, 2)),
        )
        xs = [p for p in (-2.0, -0.5, 0.0, 1.0, 2.5) if f(p) < INF]
        if not xs:
            continue
        x_bar = xs[int(rng.integers(0, len(xs)))]
        eps = float(rng.choice([0.0, 0.01, 0.1, 1.0]))
        direct = is_eps_subgradient(f, x_bar, phi, eps, box).holds
        via = eps_subgradient_via_conjugate(f, x_bar, phi, eps, box)
        assert direct == via


def test_dual_subgradient_at_certified_pair():
    # x_bar = 2 supports the conjugate of -x^2 at (1, 0): the inequality
    # g*(a, b) >= -4a + 2b + 4 is tight along b = 4(a - 1)
    cert = is_dual_subgradient(G_NEG_SQ, 2.0, Elementary(1.0, (0.0,), 0.0), lsc_class(), BOX)
    assert cert.holds
    assert cert.worst_violation <= 1e-9


def test_dual_subgradient_at_minimizer_of_convex_square():
    cert = is_dual_subgradient(X_SQ, 0.0, Elementary(0.0, (0.0,), 0.0), lsc_class(), BOX)
    assert cert.holds


def test_dual_subgradient_origin_of_concave_square():
    cert = is_dual_subgradient(G_NEG_SQ, 0.0, Elementary(1.0, (0.0,), 0.0), lsc_class(), BOX)
    assert cert.holds


def test_dual_subgradient_requires_finite_conjugate():
    with pytest.raises(ValueError):
        is_dual_subgradient(G_NEG_SQ, 0.0, Elementary(0.5, (0.0,), 0.0), lsc_class(), BOX)


def test_dual_subgradient_violation_found():
    cert = is_dual_subgradient(X_SQ, 1.0, Elementary(0.0, (0.0,), 0.0), lsc_class(), BOX)
    assert not cert.holds and cert.witness is not None


def test_young_triple_all_hold_for_concave_square():
    res = young_triple(G_NEG_SQ, 0.0, Elementary(1.0, (0.0,), 0.0), lsc_class(), BOX)
    assert res.verdicts == (True, True, True) and res.agree
    assert res.biconjugate_gap < 1e-3


def test_young_triple_tangent_of_convex_square():
    res = young_triple(
        X_SQ, 1.0, Elementary(0.0, (2.0,), -1.0), lsc_class(), BOX
    )
    assert res.verdicts == (True, True, True) and res.agree


def test_young_triple_all_fail_for_flat_candidate():
    res = young_triple(X_SQ, 1.0, Elementary(0.0, (0.0,), 0.0), lsc_class(), BOX)
    assert res.verdicts == (False, False, False) and res.agree


def test_eps_monotonicity():
    rng = np.random.default_rng(5)
    from oracles import random_piecewise

    box = box1d(n=501)
    for _ in range(50):
        f = random_piecewise(rng)
        if f(0.5) == INF:
            continue
        phi = Elementary(0.0, (float(rng.uniform(-3, 3)),), 0.0)
        eps_grid = [0.0, 0.01, 0.1, 0.5, 1.0, 2.0]
        holds = [is_eps_subgradient(f, 0.5, phi, e, box).holds for e in eps_grid]
        # once true, larger slacks stay true
        assert all(b or not a for a, b in zip(holds, holds[1:]))


def test_constants_cancel_in_subgradient_verdicts():
    phi = Elementary(1.0, (2.0,), 0.0)
    for c in (-10.0, 0.0, 3.5):
        cert = is_subgradient(F_DOUBLE, 2.0, phi.with_constant(c), BOX)
        base = is_subgradient(F_DOUBLE, 2.0, phi, BOX)
        assert cert.holds == base.holds
        assert cert.worst_violation == base.worst_violation


def test_young_triples_cohere_on_convex_family():
    # random convex coercive parabolas are class-convex in every kind here;
    # tangents must give (True, True, True) and detuned slopes all-False
    rng = np.random.default_rng(29)
    box = box1d()
    cls = lsc_class()
    for _ in range(25):
        alpha = float(rng.choice([0.5, 1.0, 2.0]))
        s = float(rng.uniform(-3, 3))
        t = float(rng.uniform(-2, 2))
        f = proper_piecewise(
            "f", (-INF, INF, alpha, -2 * alpha * s, alpha * s * s + t)
        )
        x_bar = float(rng.uniform(-4, 4))
        slope = 2 * alpha * (x_bar - s)
        tangent = Elementary(0.0, (slope,), 0.0)
        res = young_triple(f, x_bar, tangent, cls, box)
        assert res.agree and res.verdicts[0] == res.verdicts[1] == True
        assert res.biconjugate_gap <= 1e-6
        detuned = Elementary(0.0, (slope + 1.0,), 0.0)
        res2 = young_triple(f, x_bar, detuned, cls, box)
        assert res2.agree and res2.verdicts == (False, False, False)


def test_eps_subdifferential_nonempty_on_domain_of_class_convex_f():
    # for class-convex f the eps-subdifferential is nonempty at every domain
    # point; probed on the finite eps grid via the biconjugate maximizer
    from phidual.conjugation import conjugate_table

    box = box1d()
    cls = lsc_class()
    f = F_DOUBLE  # lsc with quadratic minorants, hence class-convex

    def best_minorant(x_bar):
        table = conjugate_table(f, cls, box, "right")
        a, v = cls.param_grid()[:, 0], cls.param_grid()[:, 1]
        scores = -a * x_bar * x_bar + v * x_bar - table
        best = int(np.argmax(scores))
        return Elementary(a[best], (v[best],), 0.0), f(x_bar) - float(scores[best])

    # away from the kink, touching minorants exist inside the truncation
    for x_bar in (-3.0, -2.0, -0.5, 1.0, 2.5):
        phi, gap = best_minorant(x_bar)
        assert gap <= 1e-6, (x_bar, gap)
        for eps in (1.0, 0.1, 0.01, 0.001):
            assert is_eps_subgradient(f, x_bar, phi, eps, box).holds


def test_truncation_gap_at_concave_kink():
    # at the kink of the double parabola the touching minorant needs
    # unbounded curvature; with a <= a_max the best shortfall is exactly
    # 4 / (a_max + 2), a documented truncation artifact
    from phidual.conjugation import conjugate_table

    box = box1d()
    cls = lsc_class()
    table = conjugate_table(F_DOUBLE, cls, box, "right")
    v = cls.param_grid()[:, 1]
    scores = v * 0.0 - table  # evaluated at x_bar = 0
    gap = F_DOUBLE(0.0) - float(np.max(scores))
    assert abs(gap - 4.0 / (cls.a_max + 2.0)) <= 1e-9
    # the eps-subdifferential within the truncated family is nonempty only
    # once eps exceeds that shortfall
    phi8 = Elementary(cls.a_max, (0.0,), 0.0)
    assert is_eps_subgradient(F_DOUBLE, 0.0, phi8, 1.0, box).holds
    assert not is_eps_subgradient(F_DOUBLE, 0.0, phi8, 0.1, box).holds
