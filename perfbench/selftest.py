"""The benchmark's own tests.  Run from the checkout root:

    python3 perfbench/selftest.py

* the generator gives identical inputs for a seed and different ones for
  another seed;
* a corrupted analysis output is counted as a failed operation, is not
  mistaken for a known defect, and makes the run incorrect;
* a known ROADMAP item 2 defect is counted as failed and labelled known;
* the tracer rebinds the traced functions and restores every original;
* a traced operation starts from empty lru caches, and the trace's hit
  ratios equal those of the same operation run cold without the tracer.
"""

from __future__ import annotations

import dataclasses
import json
import os
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)

import gen  # noqa: E402
import run as bench  # noqa: E402
import worker  # noqa: E402
from layertrace import CACHES, LAYERS, CacheStats, Tracer, phidual_modules, resolve  # noqa: E402

pd = worker.pd


def test_generator_determinism():
    assert gen.digest(gen.instances_1d(5, 16)) == gen.digest(gen.instances_1d(5, 16))
    assert gen.digest(gen.instances_1d(5, 8)) != gen.digest(gen.instances_1d(6, 8))
    # exact-1d's instances are the start of grid-1d's stream
    assert gen.digest(gen.instances_1d(5, 8)) == gen.digest(gen.instances_1d(5, 16)[:8])
    spec = gen.instances_1d(5, 1)[0]
    doc = gen.twin_doc_1d(spec["f"], spec["g"], gen.PHI_1D[spec["kind"]])
    assert gen.digest(doc) == gen.digest(gen.twin_doc_1d(spec["f"], spec["g"], gen.PHI_1D[spec["kind"]]))


def _one_random_session(caches):
    wl = worker.ExactOneD(3, "")
    spec = next(s for s in wl.specs if s.get("entry") is None)
    spec.update(worker.dense_ref(spec))
    run = worker.Runner(caches)
    worker.exact_session(run, spec)
    return run


def test_corrupted_output_is_a_failure():
    caches = CacheStats()
    original = pd.duality_chain_report

    def corrupted(inst, *args, **kwargs):
        rep = original(inst, *args, **kwargs)
        return dataclasses.replace(rep, val_P=rep.val_P + 1.0)

    pd.duality_chain_report = corrupted
    try:
        run = _one_random_session(caches)
    finally:
        pd.duality_chain_report = original
    chain = [r for r in run.records if r["label"].endswith(":chain")]
    assert chain and not chain[0]["ok"] and chain[0]["known"] is None, chain
    res = {"passes": [run.records], "deterministic": True, "peak_rss_mb": 1.0, "import_s": 0.1}
    out = bench.summarize("exact-1d", res, [0.2], trace=False)
    assert out["failed"] >= 1 and out["correct"] is False


def test_known_defect_is_counted_and_labelled():
    # tabulated x^2 on [-10, 10]: g*(v = 1) is 1/4, the out-of-box
    # extension makes the sentinel report +inf (ROADMAP item 2)
    spec = {"name": "x2", "index": 0, "kind": "affine", "kkt": None, "f": [(-gen.INF, gen.INF, 1.0, 0.0, 0.0)],
            "g": [(-gen.INF, gen.INF, 1.0, 0.0, 0.0)],
            "spots": [{"which": "g", "side": "right", "a": 0.0, "v": 1.0}]}
    with tempfile.TemporaryDirectory() as tmp:
        wl = worker.GridOneD.__new__(worker.GridOneD)
        wl.specs, wl.paths = [spec], [os.path.join(tmp, "x2.json")]
        spec["phi"] = gen.PHI_1D["affine"]
        spec["ref_chain"], spec["ref_pairs"] = {}, []
        with open(wl.paths[0], "w", encoding="utf-8") as fh:
            json.dump(gen.twin_doc_1d(spec["f"], spec["g"], spec["phi"]), fh)
        run = worker.Runner(CacheStats())
        wl.twin_ops(run, 0)
    spot = [r for r in run.records if ":twin-spot" in r["label"]][0]
    assert not spot["ok"] and spot["known"] == worker.KNOWN_TAB_CONJ_INF, spot


def _bindings():
    out = {}
    for mod in phidual_modules():
        for name, value in vars(mod).items():
            out[(mod.__name__, name)] = value
    for targets in LAYERS.values():
        for module, path in targets:
            owner, attr, original = resolve(module, path)
            if isinstance(owner, type):
                out[(owner.__qualname__, attr)] = original
    return out


def test_tracer_restores_originals():
    before = _bindings()
    tracer = Tracer(CacheStats())
    tracer.install()
    try:
        assert pd.duality_chain_report is not before[("phidual", "duality_chain_report")]
        assert pd.Elementary.__call__ is not before[("Elementary", "__call__")]
        pd.duality_chain_report(pd.get_entry("fenchel-quadratic").build())
        assert tracer.metrics()["L4.chain_s"][0] > 0
    finally:
        tracer.restore()
    after = _bindings()
    changed = [k for k in before if after.get(k) is not before[k]]
    assert not changed, changed


def test_traced_caches_start_cold():
    spec = gen.instances_1d(5, 2)[1]  # an affine-class instance: a short chain
    doc = gen.twin_doc_1d(spec["f"], spec["g"], gen.PHI_1D[spec["kind"]])
    caches = CacheStats()
    originals = {key: resolve(*target)[2] for key, target in CACHES.items()}

    def chain():
        pd.duality_chain_report(worker.ser.parse_instance(doc))

    caches.clear_all()
    chain()
    want = {}
    for key, cache in originals.items():
        info = cache.cache_info()
        want[key] = info.hits / (info.hits + info.misses)
    chain()  # leaves the caches warm
    assert all(c.cache_info().currsize > 0 for c in originals.values())
    tracer = Tracer(caches)
    tracer.install()
    try:
        assert all(c.cache_info().currsize == 0 for c in originals.values())
        chain()
        got = tracer.metrics()
    finally:
        tracer.restore()
    for key in CACHES:
        assert got[f"{key}.hit_ratio"][0] == want[key], (key, got[f"{key}.hit_ratio"], want[key])


def main() -> int:
    tests = [v for k, v in sorted(globals().items()) if k.startswith("test_")]
    failed = 0
    for test in tests:
        try:
            test()
            print(f"PASS {test.__name__}")
        except AssertionError as exc:
            failed += 1
            print(f"FAIL {test.__name__}: {exc}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
