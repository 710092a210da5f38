"""The sum condition decided from the instance's own values.

`check_bui_condition` decides each eps by the winner pair (the primal
minimizer with the maximizer of the box dual d_box), by the half-gap bound
2*(eps + tol) < val(P) - sup d_box (one v parameter), or by the grid search
in the band between.  The reference is the search it ran for every eps
before, kept verbatim as `oracles.grid_search_bui_condition`: the flags
must agree with it, and no eps the bound decides may have a witness on its
grid, nor on a grid of v four times finer.
"""

import dataclasses
import functools
import importlib.util
import math
import pathlib

import numpy as np
import pytest

from phidual import (
    Elementary,
    PhiClass,
    ProblemInstance,
    check_bui_condition,
    get_entry,
    is_eps_subgradient,
    proper_piecewise,
    catalog_names,
    theorem_bridge_report,
)
from phidual.gap import _box_dual
from phidual.serialize import parse_instance

from oracles import box1d, box_margins, grid_search_bui_condition, table_2d_doc

INF = math.inf
GEN = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "gen.py"


def _gen():
    spec = importlib.util.spec_from_file_location("gen", GEN)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@functools.cache
def _seeded() -> list:
    """(name, instance, decided, reference) for the 8 random instances of
    the exact-1d stream at seeds 1-10 and their 2001-point tabulated twins."""
    gen, out = _gen(), []
    for seed in range(1, 11):
        for spec in gen.instances_1d(seed, 8):
            docs = {
                "": gen.instance_doc_1d(spec["f"], spec["g"], spec["kind"]),
                "#twin": gen.twin_doc_1d(spec["f"], spec["g"], gen.PHI_1D[spec["kind"]]),
            }
            for suffix, doc in docs.items():
                inst = parse_instance(doc)
                name = f"seed {seed} {spec['name']}{suffix}"
                out.append((name, inst, check_bui_condition(inst), grid_search_bui_condition(inst)))
    return out


def _flags(res) -> list:
    return [(w.eps, w.found, w.verified) for w in res.per_eps] + [res.overall]


def _v_four_times_finer(inst: ProblemInstance) -> ProblemInstance:
    sizes = list(inst.phi.grid_sizes)
    sizes[-1] = 4 * (sizes[-1] - 1) + 1  # the v axis of the symmetric subclass
    phi = dataclasses.replace(inst.phi, grid_sizes=tuple(sizes))
    return ProblemInstance(inst.f, inst.g, inst.box, phi)


def test_flags_agree_with_the_grid_search_on_seeded_instances():
    decided = set()
    for name, _, res, ref in _seeded():
        assert _flags(res) == _flags(ref), name
        decided.update(w.decided_by for w in res.per_eps)
    assert decided == {"winner", "bound", "search"}


def test_box_dual_program_is_the_sum_of_the_box_margins():
    # d_box and its supergradient at the subclass's grid rows, from the
    # program's cached tables and from its batch slopes, against the two
    # margins of f and g restricted to the box, bit for bit
    gen, insts = _gen(), [(name, get_entry(name).build()) for name in catalog_names()]
    for seed in range(1, 4):
        for spec in gen.instances_1d(seed, 8):
            for suffix, doc in (
                ("", gen.instance_doc_1d(spec["f"], spec["g"], spec["kind"])),
                ("#twin", gen.twin_doc_1d(spec["f"], spec["g"], gen.PHI_1D[spec["kind"]])),
            ):
                insts.append((f"seed {seed} {spec['name']}{suffix}", parse_instance(doc)))
    for name, inst in insts:
        sub = inst.phi.symmetric_subclass()
        params = sub.param_grid()
        vs = sub.split_params(params)[1]
        m_f, x_f = box_margins(inst.f, inst.box, vs, -1.0)
        m_g, x_g = box_margins(inst.g, inst.box, vs, +1.0)
        program = _box_dual(inst)
        assert program.sweep().tobytes() == (m_f + m_g).tobytes(), name
        if inst.phi.dim == 1:
            d, slope = program.slopes(params)
            assert d.tobytes() == (m_f + m_g).tobytes(), name
            assert slope.tobytes() == (x_f - x_g)[:, 0].tobytes(), name


def test_bound_negatives_have_no_witness_on_a_finer_grid():
    checked = 0
    for name, inst, res, ref in _seeded():
        eps = [w.eps for w in res.per_eps if w.decided_by == "bound"]
        if not eps:
            continue
        assert all(not w.found for w in res.per_eps if w.decided_by == "bound"), name
        finer = grid_search_bui_condition(_v_four_times_finer(inst), eps)
        assert not any(w.found for w in finer.per_eps), name
        checked += len(eps)
    assert checked > 100


def test_winner_witnesses_are_eps_subgradient_pairs():
    for name, inst, res, _ in _seeded():
        for w in res.per_eps:
            if w.decided_by != "winner":
                continue
            assert w.found and w.verified and w.x_bar == inst.primal[1], name
            assert is_eps_subgradient(inst.g, w.x_bar, w.phi, w.eps, inst.box).holds, name
            assert is_eps_subgradient(inst.f, w.x_bar, w.phi.negated(), w.eps, inst.box).holds, name


def test_bound_states_its_set_and_is_a_true_half_gap():
    # f = 2x^2, g = -x^2 on [-10, 10]: d_box(v) = -v^2/8 - 100 - 10|v| peaks
    # at -100, and val(P) = 0, so the half gap is exactly 50
    pair = get_entry("example-6.1").build()
    res = check_bui_condition(pair)
    assert [w.decided_by for w in res.per_eps] == ["bound"] * 4
    over = res.per_eps[0].none_over
    assert over["box"] == {"lower": [-10.0], "upper": [10.0]}
    assert over["v_max"] == 32.0 and over["x_on_grid"] is False
    assert 50.0 - 1e-6 <= over["half_gap"] <= 50.0
    doc = res.as_dict()["per_eps"][0]
    assert doc["decided_by"] == "bound" and doc["none_over"] == over


def test_band_eps_runs_the_grid_search():
    # seed-2 and seed-6 random-7 of the exact-1d stream: f + g is affine on
    # [lo, hi], so there is a gap, and eps = 1 lies in [G/2, gap(v*)): the
    # search finds a witness on the first and none on the second
    cases = [
        ((-2.0, 1.0, -1.0, -0.12061035346791282, -2.238194507244299),
         (-INF, INF, 1.0, 0.6262098291300913, 0.06001711393214482), True),
        ((-1.0, 2.0, -1.0, -1.3998820284270286, 0.7324429566232746),
         (-INF, INF, 1.0, 1.2191472639362702, -2.218513291133201), False),
    ]
    gen = _gen()
    for f, g, found in cases:
        inst = parse_instance(gen.instance_doc_1d([f], [g], "affine"))
        res, ref = check_bui_condition(inst), grid_search_bui_condition(inst)
        band, want = res.per_eps[0], ref.per_eps[0]
        assert band.decided_by == "search" and band.found is found
        assert (band.found, band.verified, band.x_bar) == (want.found, want.verified, want.x_bar)
        assert band.phi == want.phi
        assert [w.decided_by for w in res.per_eps[1:]] == ["bound"] * 3


def test_two_dim_uses_the_winner_and_the_search():
    inst = parse_instance(table_2d_doc())
    res, ref = check_bui_condition(inst), grid_search_bui_condition(inst)
    assert _flags(res) == _flags(ref) and res.overall
    assert [w.decided_by for w in res.per_eps] == ["winner", "winner", "search", "search"]
    assert res.per_eps[0].x_bar == inst.primal[1]


def test_catalog_pins_hold():
    for name in ("example-6.1", "fenchel-quadratic", "gap-instance"):
        entry = get_entry(name)
        res = check_bui_condition(entry.build())
        assert res.overall == entry.expected["bui_overall"]["value"], name


def test_empty_eps_list_is_rejected():
    # no eps tested is no evidence: example-6.1's pin is False, and an empty
    # list once read overall = True and condition_sum = true
    pair = get_entry("example-6.1").build()
    with pytest.raises(ValueError, match="empty"):
        check_bui_condition(pair, ())
    with pytest.raises(ValueError, match="empty"):
        theorem_bridge_report(pair, eps_list=())


def test_constant_only_class_decides_with_its_one_member():
    # f = x^2, g = x on [-1, 1]: val(P) = -1/4 at x = -1/2, and the one
    # member v = 0 gives d_box = 0 - 1, so the half gap is 3/8; at x* the
    # slacks are 1/4 and 1/2
    f = proper_piecewise("f", (-INF, INF, 1.0, 0.0, 0.0))
    g = proper_piecewise("g", (-1.0, 1.0, 0.0, 1.0, 0.0))
    inst = ProblemInstance(f, g, box1d(), PhiClass("constant-only"))
    res, ref = check_bui_condition(inst), grid_search_bui_condition(inst)
    assert _flags(res) == _flags(ref)
    assert [w.decided_by for w in res.per_eps] == ["winner", "bound", "bound", "bound"]
    assert res.per_eps[0].phi == Elementary(0.0, (0.0,), 0.0)
    over = res.per_eps[1].none_over
    assert over["v_max"] == 0.0 and 0.375 - 1e-9 <= over["half_gap"] <= 0.375
