"""2D path: boxes, tabulated functions, conjugates and a small dual chain."""

import pytest

from phidual import (
    BoxDomain,
    Elementary,
    PhiClass,
    ProblemInstance,
    ProperFunction,
    TabulatedFunction,
    biconjugate,
    duality_chain_report,
    phi_conjugate,
    sup_on_grid,
    val_primal,
)

BOX2 = BoxDomain((-3.0, -3.0), (3.0, 3.0), (61, 61))


def _tab(ev, label):
    return ProperFunction.from_tabulated(TabulatedFunction(BOX2, ev, label))


F2 = _tab(lambda p: (p[0] - 1.0) ** 2 + p[1] ** 2, "f2")
G2 = _tab(lambda p: p[0] ** 2 + (p[1] + 1.0) ** 2, "g2")


def test_sup_on_2d_grid():
    v, p = sup_on_grid(lambda q: -(q[0] ** 2) - q[1] ** 2, BOX2.grid())
    assert v == 0.0 and p == (0.0, 0.0)


def test_2d_conjugate_of_paraboloid():
    # sup of <v, x> - ||x - e1||^2 = v1 + ||v||^2 / 4 at x = e1 + v/2
    phi = Elementary(0.0, (1.0, -2.0), 0.0)
    cv = phi_conjugate(F2, phi, BOX2)
    assert cv.method == "grid-oracle"
    assert abs(cv.value - (1.0 + 5.0 / 4.0)) < 1e-6
    assert abs(cv.attaining_point[0] - 1.5) < 1e-6
    assert abs(cv.attaining_point[1] + 1.0) < 1e-6


def test_2d_conjugate_of_concave_function_is_its_grid_max():
    # 0.5*|x|^2 is unbounded on the plane, but the table is known on BOX2's
    # grid only: the sup is 0.5*(3^2 + 3^2) at the first corner
    conc = _tab(lambda p: -(p[0] ** 2) - p[1] ** 2, "conc")
    cv = phi_conjugate(conc, Elementary(0.5, (0.0, 0.0), 0.0), BOX2)
    assert cv.value == 9.0 and cv.attaining_point == (-3.0, -3.0)


def test_2d_biconjugate_of_convex_function():
    cls = PhiClass("affine", dim=2, v_max=8.0, grid_sizes=(17, 17))
    assert abs(biconjugate(F2, (1.0, 0.0), cls, BOX2) - 0.0) < 1e-2


def test_2d_chain_report():
    cls = PhiClass("affine", dim=2, v_max=8.0, grid_sizes=(17, 17))
    inst = ProblemInstance(F2, G2, BOX2, cls)
    v, p = val_primal(inst)
    # min of (x-1)^2 + y^2 + x^2 + (y+1)^2 at (1/2, -1/2) equals 1
    assert abs(v - 1.0) < 1e-6
    assert abs(p[0] - 0.5) < 1e-4 and abs(p[1] + 0.5) < 1e-4
    r = duality_chain_report(inst, tol=1e-4)
    assert r.chain_ok
    assert abs(r.val_CD - 1.0) < 5e-2  # coarse 2D truncation


def test_2d_dimension_validation():
    with pytest.raises(ValueError):
        Elementary(0.0, (1.0,), 0.0)(BOX2.grid().point(0))
    with pytest.raises(ValueError):
        F2((1.0,))


def test_2d_support_candidates_minorize_the_lagrangian_slice():
    """The minorant subgrid runs over the a axis times the product of the v
    axes; every candidate stays below L(., psi) = f + psi - g*(psi)."""
    import numpy as np

    from phidual.gap import support_candidates

    for cls in (
        PhiClass("affine", dim=2, v_max=4.0, grid_sizes=(9, 9)),
        PhiClass("lsc-quadratic", dim=2, a_max=2.0, v_max=4.0, grid_sizes=(5, 9, 9)),
    ):
        inst = ProblemInstance(F2, G2, BOX2, cls)
        psi = cls.member((0.0,) * cls.n_params)
        cands = support_candidates(inst, psi, alpha=-1.0)
        moving = [c for c in cands if c.a or any(c.v)]
        assert len(moving) >= 5 ** cls.dim - 1
        pts = BOX2.grid().points
        slice_vals = F2.values(pts) + psi.values(pts) - phi_conjugate(G2, psi, BOX2).value
        for c in cands:
            assert np.all(c.values(pts) <= slice_vals)
