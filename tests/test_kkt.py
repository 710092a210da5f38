import math

import pytest

from phidual import (
    Elementary,
    INF,
    ProblemInstance,
    UnsupportedClassError,
    get_entry,
    proper_piecewise,
    search_kkt_pair,
    val_primal,
    verify_kkt,
    verify_kkt_lsc,
    verify_kkt_symmetric,
)
from phidual.functions import PiecewiseQuadratic, QuadraticPiece

from oracles import affine_class, box1d, dense_inf, lsc_class

KKT = get_entry("kkt-example").build()
PAIR = get_entry("example-6.1").build()
FEN = get_entry("fenchel-quadratic").build()
PHI_STAR = Elementary(1.0, (0.0,), 0.0)


def test_symmetric_pair_at_fenchel_optimum():
    cert = verify_kkt_symmetric(FEN, 0.0, Elementary(0.0, (0.0,), 0.0))
    assert cert.optimal
    assert cert.primal_value == 0.0 and abs(cert.dual_value) < 1e-9


def test_symmetric_pair_off_optimum_fails_first_condition():
    cert = verify_kkt_symmetric(FEN, 1.0, Elementary(0.0, (0.0,), 0.0))
    assert not cert.optimal and not cert.cond1.holds


def test_symmetric_pair_with_affine_g():
    # f = x^2, g = -2x + 1: the slope -2 functional certifies x* = 1
    inst = ProblemInstance(
        proper_piecewise("f", (-INF, INF, 1.0, 0.0, 0.0)),
        proper_piecewise("g", (-INF, INF, 0.0, -2.0, 1.0)),
        box1d(),
        affine_class(),
    )
    cert = verify_kkt_symmetric(inst, 1.0, Elementary(0.0, (-2.0,), 0.0))
    assert cert.optimal
    assert abs(cert.primal_value) < 1e-12 and abs(cert.dual_value) < 1e-12


def test_symmetric_requires_symmetric_class():
    with pytest.raises(UnsupportedClassError):
        verify_kkt_symmetric(KKT, 2.0, PHI_STAR)


def test_lsc_certificate_at_optimal_pair():
    # independent oracle for the dual value: -sup(x^2 - f(x)) - g*(1, 0)
    fsh = lambda t: KKT.f(t) - t * t
    ov, _ = dense_inf(fsh, -10, 10)
    assert abs(ov + 2.0) < 1e-8  # sup(x^2 - f) = 2, so dual = -2 - 0
    cert = verify_kkt_lsc(KKT, 2.0, PHI_STAR)
    assert cert.optimal
    assert cert.cond1.holds and cert.cond2.holds
    assert abs(cert.primal_value + 2.0) < 1e-12
    assert abs(cert.dual_value + 2.0) < 1e-12
    assert not cert.hypothesis_doubtful


def test_lsc_certificate_rejects_non_minimizer():
    cert = verify_kkt_lsc(KKT, 0.0, PHI_STAR)
    assert not cert.optimal
    assert not cert.cond1.holds
    assert cert.cond1.witness is not None
    assert cert.primal_value == 2.0


def test_lsc_certificate_on_quadratic_pair_origin():
    cert = verify_kkt_lsc(PAIR, 0.0, PHI_STAR)
    assert cert.optimal
    assert cert.primal_value == 0.0 and abs(cert.dual_value) < 1e-12


def test_lsc_requires_lsc_class():
    with pytest.raises(UnsupportedClassError):
        verify_kkt_lsc(FEN, 0.0, Elementary(0.0, (0.0,), 0.0))


def test_dispatch_picks_variant_by_class():
    assert verify_kkt(KKT, 2.0, PHI_STAR).variant == "lsc"
    assert verify_kkt(FEN, 0.0, Elementary(0.0, (0.0,), 0.0)).variant == "symmetric"


def test_search_finds_certified_pair_on_double_parabola():
    found = search_kkt_pair(KKT)
    assert found is not None
    x, phi, cert = found
    assert abs(abs(x[0]) - 2.0) < 1e-9
    assert phi.a == 1.0 and phi.v == (0.0,)
    assert cert.optimal


def test_search_finds_pair_on_quadratic_pair():
    found = search_kkt_pair(PAIR)
    assert found is not None
    x, phi, cert = found
    assert abs(x[0]) < 1e-9
    assert 1.0 <= phi.a <= 2.0 and phi.v == (0.0,)


def test_search_returns_none_on_positive_gap():
    assert search_kkt_pair(get_entry("gap-instance").build(), budget=60) is None


def test_search_tries_the_dual_winner_first():
    # a kinked convex f plus a concave g; the exact minimizer -0.8459 and the
    # refined val(CD) winner (a ~ 1.34, w = 0) lie off the searched grids, so
    # no pair of grid members certifies within a budget of 8
    f = proper_piecewise(
        "f",
        (-5.0, 1.0, 2.0, 1.1123217025728396, 1.5548352936566259),
        (1.0, 4.0, 2.5, 1.1123217025728396, 1.0548352936566259),
    )
    g = proper_piecewise("g", (-INF, INF, -1.0, 0.579482778553428, -1.1479318164852486))
    inst = ProblemInstance(f, g, box1d(), lsc_class())
    found = search_kkt_pair(inst, budget=8)
    assert found is not None
    x, phi, cert = found
    assert cert.optimal and (x, phi) == (inst.primal[1], inst.dual[1])
    assert abs(cert.primal_value - dense_inf(lambda t: f(t) + g(t), -5.0, 4.0)[0]) <= 1e-6


def test_conditions_imply_value_equality():
    # the substantive direction of the equivalence: wherever both conditions
    # hold, primal and dual values must match
    probes = [
        (KKT, 2.0, Elementary(1.0, (0.0,), 0.0)),
        (KKT, -2.0, Elementary(1.0, (0.0,), 0.0)),
        (PAIR, 0.0, Elementary(1.0, (0.0,), 0.0)),
        (PAIR, 0.0, Elementary(1.5, (0.0,), 0.0)),
        (FEN, 0.0, Elementary(0.0, (0.0,), 0.0)),
    ]
    for inst, x, phi in probes:
        cert = verify_kkt(inst, x, phi)
        if cert.cond1.holds and cert.cond2.holds:
            assert abs(cert.primal_value - cert.dual_value) <= 1e-6
            assert cert.optimal


def test_optimal_certificate_is_tight_against_primal():
    cert = verify_kkt_lsc(KKT, 2.0, PHI_STAR)
    v_p, _ = val_primal(KKT)
    assert abs(v_p - cert.dual_value) <= 1e-6
    assert abs(v_p - cert.primal_value) <= 1e-6


def test_scale_coherence():
    lam = 2.5
    scale = lambda pw: PiecewiseQuadratic(
        tuple(
            QuadraticPiece(p.lo, p.hi, lam * p.a2, lam * p.a1, lam * p.a0)
            for p in pw.pieces
        )
    )
    from phidual.functions import ProperFunction

    inst = ProblemInstance(
        ProperFunction.from_piecewise(scale(KKT.f.piecewise), "f"),
        ProperFunction.from_piecewise(scale(KKT.g.piecewise), "g"),
        KKT.box,
        KKT.phi,
    )
    cert = verify_kkt_lsc(inst, 2.0, Elementary(lam * 1.0, (0.0,), 0.0))
    base = verify_kkt_lsc(KKT, 2.0, PHI_STAR)
    assert cert.optimal == base.optimal
    assert cert.cond1.holds == base.cond1.holds
    assert cert.cond2.holds == base.cond2.holds
    assert math.isclose(cert.primal_value, lam * base.primal_value, rel_tol=1e-12)
    assert math.isclose(cert.dual_value, lam * base.dual_value, rel_tol=1e-9)


def test_certificate_serializes():
    doc = verify_kkt_lsc(KKT, 2.0, PHI_STAR).as_dict()
    assert doc["optimal"] is True
    assert doc["variant"] == "lsc"
    assert doc["cond1"]["holds"] and doc["cond2"]["holds"]
