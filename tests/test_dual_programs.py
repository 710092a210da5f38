"""Each dual program over a class is one `ConjugateSum`.

val(CD), val(CD^sym), f** at a point and the dual-subgradient test each
build one object: its `sweep()` reads the cached conjugate tables at the
class's parameter grid, and its `solve()` improves the sweep's winner.  The
sweep must be the object's own values at `param_grid()`, bit for bit (signs
of zeros included), so the grid winner and its refinement score one
program.
"""

import math

import numpy as np
import pytest

from phidual import (
    BoxDomain,
    PhiClass,
    ProblemInstance,
    ProperFunction,
    TabulatedFunction,
    proper_piecewise,
)
from phidual.conjugation import ConjugateSum, biconjugate, phi_conjugate
from phidual.duality import _dual_program, val_cd_sym, val_lagrangian_dual
from phidual.subdifferential import is_dual_subgradient

BOX = BoxDomain((-2.0,), (2.0,), (81,))
CLASSES = {
    "lsc-quadratic": PhiClass("lsc-quadratic", a_max=2.0, v_max=3.0, grid_sizes=(5, 9)),
    "affine": PhiClass("affine", v_max=3.0, grid_sizes=(9,)),
}


def _piecewise() -> tuple[ProperFunction, ProperFunction]:
    f = proper_piecewise("f", (-1.0, 0.0, 0.0, 0.0, 0.0), (0.0, 1.5, 1.0, -0.5, 0.0))
    g = proper_piecewise("g", (-math.inf, 0.0, 0.0, -1.0, 0.0), (0.0, math.inf, 0.5, 1.0, 0.0))
    return f, g


def _tables() -> tuple[ProperFunction, ProperFunction]:
    # zero on part of the box, so conjugates and scores meet zeros of both signs
    f = TabulatedFunction(BOX, lambda p: max(p[0] - 0.5, 0.0) ** 2, "f")
    g = TabulatedFunction(BOX, lambda p: abs(p[0]) - 0.25 * p[0], "g")
    return ProperFunction.from_tabulated(f), ProperFunction.from_tabulated(g)


def _bits(a) -> bytes:
    return np.asarray(a, dtype=float).tobytes()


def _programs(f, g, cls):
    inst = ProblemInstance(f, g, BOX, cls)
    x = (0.35,)
    return {
        "val(CD)": _dual_program(inst, cls),
        "val(CD^sym)": _dual_program(inst, cls.symmetric_subclass()),
        "f**": ConjugateSum(cls, BOX, ((f, "right"),), x),
        "dual subgradient": ConjugateSum(cls, BOX, ((g, "right"),), x, 0.125),
    }


@pytest.mark.parametrize("kind", sorted(CLASSES))
@pytest.mark.parametrize("build", [_piecewise, _tables], ids=["piecewise", "table"])
def test_sweep_is_the_objective_at_the_parameter_grid(build, kind):
    f, g = build()
    for name, program in _programs(f, g, CLASSES[kind]).items():
        params = program.phi_class.param_grid()
        assert _bits(program.sweep()) == _bits(program(params)), name


@pytest.mark.parametrize("kind", sorted(CLASSES))
@pytest.mark.parametrize("build", [_piecewise, _tables], ids=["piecewise", "table"])
def test_public_duals_are_the_solved_programs(build, kind):
    f, g = build()
    cls = CLASSES[kind]
    inst = ProblemInstance(f, g, BOX, cls)
    programs = _programs(f, g, cls)
    v_cd, phi_cd = val_lagrangian_dual(inst)
    assert (v_cd, cls.params_of(phi_cd)) == programs["val(CD)"].solve()
    sub = cls.symmetric_subclass()
    v_sym, phi_sym = val_cd_sym(inst)
    assert (v_sym, sub.params_of(phi_sym)) == programs["val(CD^sym)"].solve()
    assert biconjugate(f, (0.35,), cls, BOX) == programs["f**"].solve()[0]
    phi_bar = cls.member(cls.param_grid()[-1])
    cert = is_dual_subgradient(g, (0.35,), phi_bar, cls, BOX)
    base = phi_bar((0.35,)) - phi_conjugate(g, phi_bar, BOX).value
    worst = ConjugateSum(cls, BOX, ((g, "right"),), (0.35,), base).solve()[0]
    assert _bits([cert.worst_violation]) == _bits([worst])


@pytest.mark.parametrize("kind", [*sorted(CLASSES), "constant-only"])
def test_param_grid_is_built_once_and_read_only(kind):
    cls = CLASSES.get(kind) or PhiClass(kind)
    grid = cls.param_grid()
    assert cls.param_grid() is grid
    assert not grid.flags.writeable
    with pytest.raises(ValueError):
        grid[...] = 0.0
