"""Batched grid evaluation reproduces the per-point evaluators bit for bit."""

import numpy as np
import pytest

from phidual import (
    BoxDomain,
    Elementary,
    PhiClass,
    ProperFunction,
    TabulatedFunction,
    phi_conjugate,
    proper_piecewise,
)
from phidual.serialize import NearestLookup, parse_instance

from oracles import argmin_lookup_index, box1d

BOXES = [
    box1d(),
    BoxDomain((0.0,), (4.0,), (5,)),
    BoxDomain((-1.0, -2.0), (1.0, 3.0), (21, 31)),
    BoxDomain((0.0, 0.0), (4.0, 2.0), (5, 3)),
]


def _probe_points(box: BoxDomain, rng: np.random.Generator) -> np.ndarray:
    """The grids of the box and of its 16x and 256x expansions, random points
    reaching past the widest one, and every combination of grid points and
    cell midpoints along the axes."""
    pts = [box.scaled(k).grid().points for k in (1.0, 16.0, 256.0)]
    wide = box.scaled(300.0)
    pts.append(rng.uniform(wide.lower, wide.upper, size=(2000, box.dim)))
    axes = [np.concatenate([ax, (ax[:-1] + ax[1:]) / 2]) for ax in box.axes()]
    mesh = np.meshgrid(*axes, indexing="ij")
    pts.append(np.column_stack([m.ravel() for m in mesh]))
    return np.vstack(pts)


@pytest.mark.parametrize("box", BOXES, ids=lambda b: "x".join(map(str, b.samples)))
def test_nearest_lookup_matches_argmin_scan(box):
    rng = np.random.default_rng(7)
    table = rng.standard_normal(int(np.prod(box.samples)))
    lookup = NearestLookup(box, table)
    pts = _probe_points(box, rng)
    want = np.array([argmin_lookup_index(box, tuple(p)) for p in pts])
    assert np.array_equal(lookup.index(pts), want)
    assert np.array_equal(lookup.values(pts), table[want])
    assert all(lookup(tuple(p)) == table[i] for p, i in zip(pts[::37], want[::37]))


def test_nearest_lookup_ties_go_low_and_outside_is_constant():
    lookup = NearestLookup(BoxDomain((0.0,), (4.0,), (5,)), np.arange(5.0))
    xs = np.array([[0.5], [1.5], [3.5], [3.51], [-100.0], [1e6]])
    assert lookup.values(xs).tolist() == [0.0, 1.0, 3.0, 4.0, 0.0, 4.0]


def _signed_zero_points(dim: int, rng: np.random.Generator) -> np.ndarray:
    corners = np.array(np.meshgrid(*[[0.0, -0.0, 1.0, -1.5]] * dim, indexing="ij"))
    return np.vstack([corners.reshape(dim, -1).T, rng.uniform(-5.0, 5.0, size=(300, dim))])


ELEMENTARIES = [
    Elementary(0.5, (1.25,), -0.0),
    Elementary(0.0, (-2.0,), 0.0).negated(),
    Elementary(0.0, (0.0,), 0.0).negated(),
    Elementary(1.0, (0.5, -3.0), 2.0),
    Elementary(0.0, (1.0, 0.0), 0.0).negated(),
    Elementary(3.0, (0.0, 0.0)),
]


@pytest.mark.parametrize("phi", ELEMENTARIES, ids=repr)
def test_elementary_values_bitwise_equal_to_calls(phi):
    pts = _signed_zero_points(phi.dim, np.random.default_rng(3))
    got = phi.values(pts)
    want = np.array([phi(tuple(p)) for p in pts])
    assert np.array_equal(got, want)
    assert np.array_equal(np.signbit(got), np.signbit(want))


@pytest.mark.parametrize(
    "phi_class",
    [
        PhiClass("affine", dim=1, v_max=2.0, grid_sizes=(5,)),
        PhiClass("lsc-quadratic", dim=1, a_max=1.0, v_max=2.0, grid_sizes=(3, 5)),
        PhiClass("affine", dim=2, v_max=2.0, grid_sizes=(5, 3)),
        PhiClass("lsc-quadratic", dim=2, a_max=1.0, v_max=2.0, grid_sizes=(3, 5, 3)),
    ],
    ids=lambda c: f"{c.kind}-{c.dim}d",
)
def test_member_values_bitwise_equal_to_member_calls(phi_class):
    rng = np.random.default_rng(5)
    params = np.vstack([phi_class.param_grid(), -0.0 * phi_class.param_grid()])
    for x in _signed_zero_points(phi_class.dim, rng)[::7]:
        x = tuple(x.tolist())
        got = phi_class.member_values(params, x)
        want = np.array([phi_class.member(row)(x) for row in params])
        assert np.array_equal(got, want) and np.array_equal(np.signbit(got), np.signbit(want))


def test_elementary_values_rejects_dimension_mismatch():
    with pytest.raises(ValueError):
        Elementary(0.0, (1.0,)).values(np.zeros((3, 2)))


def _tabulated(box: BoxDomain, evaluator) -> ProperFunction:
    return ProperFunction.from_tabulated(TabulatedFunction(box, evaluator))


def test_proper_function_values_match_calls():
    box = BoxDomain((-3.0,), (4.0,), (71,))
    box2 = BoxDomain((-1.0, 0.0), (1.0, 2.0), (11, 9))
    xs = box.scaled(4.0).grid().points
    table = np.cos(box.grid().points[:, 0])
    table[5] = np.inf
    cases = [
        (proper_piecewise("f", (-2.0, 0.0, 1.0, 0.5, -1.0), (0.0, 3.0, -0.5, 2.0, -1.0)), xs),
        # -0.0 and 0.0 meet at the shared endpoint 0
        (
            proper_piecewise("z", (-1.0, 0.0, 0.0, -1.0, -0.0), (0.0, 1.0, 0.0, 1.0, 0.0)),
            np.array([[-0.5], [-0.0], [0.0], [0.5]]),
        ),
        (_tabulated(box, NearestLookup(box, table)), xs),
        (_tabulated(box, lambda p: p[0] ** 2), xs),
        (_tabulated(box2, NearestLookup(box2, np.arange(99.0))), box2.scaled(3.0).grid().points),
    ]
    for f, pts in cases:
        got = f.values(pts)
        want = np.array([f(tuple(p)) for p in pts])
        assert np.array_equal(got, want) and np.array_equal(np.signbit(got), np.signbit(want))
    assert np.isinf(cases[0][0].values(xs)).any()  # +inf outside the pieces


def test_unrestricted_conjugate_makes_few_scalar_lookups(monkeypatch):
    n = 2001
    xs = np.linspace(-10.0, 10.0, n)
    inst = parse_instance(
        {
            "dimension": 1,
            "f": {"type": "tabulated", "table": {"values": (xs * xs).tolist()}},
            "g": {
                "type": "piecewise-quadratic",
                "pieces": [{"interval": ["-inf", "+inf"], "coeffs": [0.0, 0.0, 0.0]}],
            },
            "box": {"lower": [-10.0], "upper": [10.0], "samples": [n]},
            "phi": {"kind": "lsc-quadratic", "grid": [65, 65]},
        }
    )
    calls = []
    scalar = NearestLookup.__call__
    monkeypatch.setattr(
        NearestLookup, "__call__", lambda self, p: calls.append(p) or scalar(self, p)
    )
    value = phi_conjugate(inst.f, Elementary(0.5, (1.0,)), inst.box)
    assert value.value == pytest.approx(1.0 / 6.0, abs=0.01)  # sup of -1.5x^2 + x
    # the unrestricted sup is the maximum over the grid values: no per-point lookup
    assert calls == []
