"""The names the benchmark's layer trace rebinds still exist in the library.

`perfbench/layertrace.py` wraps every function listed in its `LAYERS` and
reads the lru caches listed in `CACHES`; a rename in the library would only
show up as a crash of traced benchmark runs.  This test resolves each name
the way the tracer does.
"""

import dataclasses
import importlib
import importlib.util
import pathlib
import struct

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


def _exact(obj):
    """Outputs with every float as its bit pattern (signed zeros differ)."""
    if isinstance(obj, float):
        return struct.pack("<d", obj).hex()
    if dataclasses.is_dataclass(obj):
        return _exact(dataclasses.asdict(obj))
    if isinstance(obj, dict):
        return {k: _exact(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_exact(v) for v in obj]
    return obj


def _analyses(pd, entry, inst) -> dict:
    """The analyses whose searches the tracer wraps, on one instance."""
    pin = entry.expected["kkt"][0]
    phi = pd.Elementary(pin["a"], (pin["w"],), 0.0)
    out = {"chain": pd.duality_chain_report(inst), "kkt": pd.verify_kkt(inst, pin["x"], phi)}
    for x in (pin["x"], 0.55, -3.3):
        out[f"biconjugate {x}"] = pd.biconjugate(inst.g, x, inst.phi, inst.box)
        out[f"dual subgradient {x}"] = pd.is_dual_subgradient(
            inst.g, x, pd.Elementary(2.0, (0.5,), 0.0), inst.phi, inst.box
        )
    out["conjugate"] = pd.phi_conjugate(inst.f, pd.Elementary(0.5, (1.0,)), inst.box)
    return out


def test_traced_analyses_equal_untraced_bit_for_bit():
    """The tracer hands every search a plain counting callable in place of
    the batched objective, so the traced run takes the per-candidate path;
    both paths must give the same outputs, on a catalog entry and on its
    401-point tabulated twin (where `phi_conjugate` is unrestricted and, as
    every table sup, a grid maximum).  Each run gets instances of its own: an
    instance keeps the values its analyses share, and the traced run must
    compute them itself."""
    import phidual as pd
    from phidual.serialize import NearestLookup

    entry = pd.get_entry("example-6.1")
    box = pd.BoxDomain(entry.default_box.lower, entry.default_box.upper, (401,))

    def twin(f):
        table = NearestLookup(box, f.values(box.grid().points))
        return pd.ProperFunction.from_tabulated(pd.TabulatedFunction(box, table, f.label))

    def instances():
        inst = entry.build()
        return [inst, pd.ProblemInstance(twin(inst.f), twin(inst.g), box, inst.phi)]

    untraced = [_exact(_analyses(pd, entry, i)) for i in instances()]
    tracer = LT.Tracer(LT.CacheStats())
    tracer.install()
    try:
        traced = [_exact(_analyses(pd, entry, i)) for i in instances()]
    finally:
        tracer.restore()
    assert traced == untraced
    assert tracer.metrics()["L3.objective_evals"][0] > 0
