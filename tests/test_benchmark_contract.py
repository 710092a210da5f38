"""The names the benchmark's layer trace rebinds still exist in the library.

`perfbench/layertrace.py` wraps every function listed in its `LAYERS` and
reads the lru caches listed in `CACHES`; a rename in the library would only
show up as a crash of traced benchmark runs.  This test resolves each name
the way the tracer does.
"""

import importlib
import importlib.util
import pathlib

import pytest

LAYERTRACE = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "layertrace.py"


def _layertrace():
    spec = importlib.util.spec_from_file_location("layertrace", LAYERTRACE)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


LT = _layertrace()
TARGETS = sorted({t for targets in LT.LAYERS.values() for t in targets})


@pytest.mark.parametrize("module,path", TARGETS, ids=lambda x: str(x))
def test_traced_name_resolves(module, path):
    importlib.import_module(module)
    _, _, original = LT.resolve(module, path)
    assert callable(original)


@pytest.mark.parametrize("key", sorted(LT.CACHES))
def test_traced_cache_is_an_lru_cache(key):
    module, path = LT.CACHES[key]
    importlib.import_module(module)
    _, _, cache = LT.resolve(module, path)
    assert hasattr(cache, "cache_clear") and hasattr(cache, "cache_info")


def test_worker_reads_the_piecewise_representation():
    from phidual import BoxDomain, ProperFunction, TabulatedFunction, proper_piecewise

    f = proper_piecewise("f", (0.0, 1.0, 1.0, 0.0, 0.0))
    assert f.piecewise.pieces[0].a2 == 1.0 and f.tabulated is None
    tab = TabulatedFunction(BoxDomain((0.0,), (1.0,), (3,)), lambda p: 0.0)
    h = ProperFunction.from_tabulated(tab)
    assert h.tabulated is tab and h.piecewise is None
