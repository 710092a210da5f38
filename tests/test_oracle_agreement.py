"""Closed form against grid oracle: the two conjugate routes must agree.

The oracle route treats the same piecewise quadratic as a black box, so this
is the strongest end-to-end check of the vertex-clamping algebra.  Finite
values must match to 1e-4; infinite verdicts must match exactly (the oracle
detects divergence on expanding boxes).  A table read from an instance
document is the function on its box only, so its chain is compared with the
closed form of the function clipped to that box.
"""

import math

import numpy as np
import pytest

from phidual import (
    BoxDomain,
    Elementary,
    INF,
    ProblemInstance,
    ProperFunction,
    TabulatedFunction,
    catalog_names,
    duality_chain_report,
    get_entry,
    phi_conjugate,
    pieces,
    proper_piecewise,
    verify_kkt,
)
from phidual.serialize import parse_instance

from oracles import box1d, random_bounded_piecewise, twin_document

BOX = box1d()


def _as_tabulated(f: ProperFunction) -> ProperFunction:
    pw = f.piecewise
    return ProperFunction.from_tabulated(
        TabulatedFunction(BOX, lambda p: pw(p[0]), f.label + "#tab")
    )


def test_agreement_on_bounded_domains():
    # domains inside [-8, 8]: every sup is interior, both routes finite
    rng = np.random.default_rng(41)
    for k in range(120):
        f = random_bounded_piecewise(rng)
        tab = _as_tabulated(f)
        phi = Elementary(
            float(rng.choice([0.0, 0.5, 1.0, 2.0, 4.0])),
            (float(rng.uniform(-8, 8)),),
            float(rng.uniform(-3, 3)),
        )
        exact = phi_conjugate(f, phi, BOX).value
        oracle = phi_conjugate(tab, phi, BOX).value
        assert exact != INF and oracle != INF
        assert abs(exact - oracle) <= 1e-4, (k, phi, exact, oracle)


def test_agreement_on_full_line_instances():
    # engineered so the leading coefficient of phi - f stays away from zero:
    # either both routes diverge or both find an interior vertex
    rng = np.random.default_rng(43)
    n_inf = n_fin = 0
    for k in range(80):
        alpha = float(rng.uniform(-2.0, -0.3))  # concave f = alpha x^2 + ...
        beta = float(rng.uniform(-2, 2))
        gamma = float(rng.uniform(-3, 3))
        f = ProperFunction.from_piecewise(
            pieces((-INF, INF, alpha, beta, gamma)), "f"
        )
        tab = _as_tabulated(f)
        if rng.uniform() < 0.5:
            # a + alpha <= -0.2: phi - f grows quadratically, sup infinite
            a = float(rng.uniform(0.0, -alpha - 0.2))
            v = float(rng.uniform(-4, 4))
        else:
            # a + alpha >= 0.2: concave difference with vertex inside the box
            a = float(rng.uniform(-alpha + 0.2, -alpha + 3.0))
            v = beta + 2.0 * (a + alpha) * float(rng.uniform(-8, 8))
        phi = Elementary(a, (v,), 0.0)
        exact = phi_conjugate(f, phi, BOX).value
        oracle = phi_conjugate(tab, phi, BOX).value
        if exact == INF:
            n_inf += 1
            assert oracle == INF, (k, phi, alpha, oracle)
        else:
            n_fin += 1
            assert oracle != INF, (k, phi, alpha, exact)
            assert abs(exact - oracle) <= 1e-4, (k, phi, exact, oracle)
    assert n_inf > 10 and n_fin > 10  # both branches exercised


def test_infinite_conjugates_carry_no_attaining_point():
    g = ProperFunction.from_piecewise(pieces((-INF, INF, -1.0, 0.0, 0.0)), "g")
    cv = phi_conjugate(g, Elementary(0.0, (1.0,), 0.0), BOX)
    assert cv.value == INF and cv.attaining_point is None


def _twin_and_clipped(entry, samples=401):
    """An entry's tabulated twin, read as an instance document (f and g
    sampled on the box grid), and its piecewise instance clipped to the box."""
    inst = entry.build()
    (lo,), (hi,) = inst.box.lower, inst.box.upper
    box = BoxDomain((lo,), (hi,), (samples,))

    def clipped(fn):
        kept = [(max(q.lo, lo), min(q.hi, hi), q.a2, q.a1, q.a0) for q in fn.piecewise.pieces]
        return proper_piecewise(fn.label, *[q for q in kept if q[0] <= q[1]])

    return parse_instance(twin_document(inst, samples)), ProblemInstance(
        clipped(inst.f), clipped(inst.g), box, inst.phi
    )


def _lipschitz_on_box(fn: ProperFunction, box: BoxDomain) -> float:
    (lo,), (hi,) = box.lower, box.upper
    ends = [(max(q.lo, lo), min(q.hi, hi), q) for q in fn.piecewise.pieces]
    return max(abs(2 * q.a2 * x + q.a1) for l, h, q in ends if l <= h for x in (l, h))


@pytest.mark.parametrize("name", catalog_names())
def test_tabulated_twin_reproduces_the_clipped_chain(name):
    # on the box the twin is the clipped function sampled on the grid, so
    # each value may move by one cell times a Lipschitz bound of what it
    # compares: f + g for val_P, and f, g and the class members for the duals
    entry = get_entry(name)
    twin, clipped = _twin_and_clipped(entry)
    box, p = clipped.box, clipped.phi
    cell = box.cell_sizes()[0]
    lip = _lipschitz_on_box(clipped.f, box) + _lipschitz_on_box(clipped.g, box)
    a_max = p.a_max if p.kind == "lsc-quadratic" else 0.0
    lip_phi = 2 * a_max * max(abs(box.lower[0]), abs(box.upper[0])) + p.v_max
    got, want = duality_chain_report(twin), duality_chain_report(clipped)
    assert got.chain_ok, got.violations
    for key, ref in want.values().items():
        tol = (lip if key == "val_P" else 2 * lip_phi + lip) * cell + 1e-9
        value = getattr(got, key)
        if math.isinf(ref):
            assert value == ref, (key, value, ref)
        else:
            assert abs(value - ref) <= tol, (key, value, ref, tol)
    for pin in entry.expected.get("kkt", []):
        cert = verify_kkt(twin, pin["x"], Elementary(pin["a"], (pin["w"],), 0.0))
        assert cert.optimal == pin["optimal"], (pin, cert.cond1, cert.cond2, cert.dual_value)
