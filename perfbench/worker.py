"""One workload in one process: generate inputs, run the operation list, check.

Started by run.py as `python3 perfbench/worker.py --workload W --seed N
--seconds S --trace 0|1 --workdir DIR` with `src` on PYTHONPATH.  It prints
`IMPORTED` as soon as `import phidual` returns (run.py times set-up up to
that line) and, at the end, one JSON line with the raw per-operation
results, which run.py turns into metrics.

Before it, run.py starts the same script with `--prepare`: that process
writes the workload's input files and its references (dense scans,
closed-form chains) into DIR and exits, so the measuring process's peak
memory covers only import, parsing and the operations and their checks.

An operation is one public analysis call, timed with tracing off.  Its
output is checked against a reference after the clock stops; a raise or a
mismatch counts as a failed operation and never aborts the run.  A failure
whose signature is one of the ROADMAP item 2 defects (a tabulated function
extended as a constant outside its box, which makes the divergence sentinel
report +inf) is "known"; any other failure makes the run incorrect.
"""

from __future__ import annotations

import time

_t0 = time.perf_counter()
import phidual as pd  # noqa: E402
import phidual.serialize as ser  # noqa: E402

IMPORT_S = time.perf_counter() - _t0
print("IMPORTED", flush=True)

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402

import numpy as np  # noqa: E402

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import gen  # noqa: E402
from layertrace import CacheStats, Tracer  # noqa: E402

INF = math.inf
H_1D = (gen.BOX_1D[1] - gen.BOX_1D[0]) / (gen.BOX_1D[2] - 1)
DENSE_SAMPLES = 200001

# failure signatures of the ROADMAP item 2 out-of-box defect
KNOWN_TAB_CONJ_INF = "tabulated conjugate +inf where the box closed form is finite"
KNOWN_TAB_KKT = "tabulated verify_kkt loses a certified pair (dual -inf or f* infinite)"


def _close(got: float, want: float, tol: float) -> bool:
    if math.isinf(want) or math.isinf(got) or math.isnan(got):
        return got == want
    return abs(got - want) <= tol


def _jsonable(obj):
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if hasattr(obj, "as_dict"):
        return _jsonable(obj.as_dict())
    if isinstance(obj, pd.Elementary):
        return ["phi", obj.a, list(obj.v), obj.c]
    if isinstance(obj, (float, np.floating)):
        return repr(float(obj))
    if isinstance(obj, (bool, np.bool_)):
        return bool(obj)
    if isinstance(obj, (int, np.integer)):
        return int(obj)
    return obj if obj is None or isinstance(obj, str) else repr(obj)


class Runner:
    """Times operations one at a time and records their checked outcome."""

    def __init__(self, caches: CacheStats):
        self.caches = caches
        self.records: list[dict] = []

    def op(self, label: str, call, check):
        """Run `call()`, then `check(output, error)` -> (ok, known, detail)."""
        gc.collect()  # no operation pays for the garbage of the one before
        start = time.perf_counter()
        try:
            out, err = call(), None
        except Exception as exc:  # a raise is a failed operation, not a crash
            out, err = None, exc
        elapsed = time.perf_counter() - start
        try:
            ok, known, detail = check(out, err)
        except Exception as exc:  # a check that cannot read the output fails it
            ok, known, detail = False, None, f"check raised {exc!r}"
        self.records.append(
            {
                "label": label,
                "seconds": elapsed,
                "completed": err is None,
                "ok": bool(ok),
                "known": known if not ok else None,
                "detail": None if ok else detail,
                "digest": gen.digest(
                    ["raise", type(err).__name__, str(err)] if err else _jsonable(out)
                ),
            }
        )
        return out


def _no_raise(check):
    """Adapt check(out) -> (ok, detail) to the runner's check(out, err)."""

    def wrapped(out, err):
        if err is not None:
            return False, None, f"raised {err!r}"
        ok, detail = check(out)
        return ok, None, detail

    return wrapped


# ---------------------------------------------------------------------------
# exact-1d: library sessions on piecewise-quadratic instances
# ---------------------------------------------------------------------------


def _pieces_of(fn) -> list[tuple]:
    return [(p.lo, p.hi, p.a2, p.a1, p.a0) for p in fn.piecewise.pieces]


def _catalog_specs() -> list[dict]:
    """Catalog entries with their pinned spot conjugates (example-6.1 has 3)."""
    specs = []
    for name in pd.catalog_names():
        entry = pd.get_entry(name)
        inst = entry.build()
        pinned = [
            {"which": s["which"], "side": "right", "a": s["a"], "v": s["b"],
             "want": s["value"], "tol": s["tol"]}
            for s in entry.expected.get("conjugate_spots", [])
        ]
        specs.append(
            {
                "name": name,
                "kind": entry.default_phi.kind,
                "f": _pieces_of(inst.f),
                "g": _pieces_of(inst.g),
                "spots": pinned,
                "entry": entry,
            }
        )
    return specs


def exact_specs(seed: int, n: int) -> list[dict]:
    return _catalog_specs() + gen.instances_1d(seed, n)


def dense_ref(spec: dict) -> dict:
    """Independent dense scan of f + g over the 1D box: its minimum and the
    scan's error bound."""
    lo, hi, _ = gen.BOX_1D
    xs = np.linspace(lo, hi, DENSE_SAMPLES)
    vals = gen.piece_values(spec["f"], xs) + gen.piece_values(spec["g"], xs)
    lip = gen.lipschitz_on_box(spec["f"], lo, hi) + gen.lipschitz_on_box(spec["g"], lo, hi)
    return {"val_p": float(np.min(vals)), "tol": lip * (hi - lo) / (DENSE_SAMPLES - 1) + 1e-7}


def objective(spec: dict, x: float) -> float:
    """f + g at x, from the spec's pieces."""
    xs = np.array([x])
    return float(gen.piece_values(spec["f"], xs)[0] + gen.piece_values(spec["g"], xs)[0])


def _check_catalog_chain(entry):
    def check(rep):
        bad = []
        for vname, exp in entry.expected.get("values", {}).items():
            if not _close(getattr(rep, vname), exp["value"], exp["tol"] or 0.0):
                bad.append(vname)
        for gname, exp in entry.expected.get("gaps", {}).items():
            if not _close(rep.gaps[gname], exp["value"], exp["tol"]):
                bad.append(f"gap {gname}")
        collapse = entry.expected.get("collapse_tol")
        if collapse is not None and not (
            abs(rep.val_CD - rep.val_CD_sym) <= collapse and abs(rep.val_CD - rep.val_ICD) <= collapse
        ):
            bad.append("collapse")
        if not rep.chain_ok:
            bad.append("chain_ok")
        return not bad, f"pins missed: {bad}"

    return check


def _catalog_bridge_args(entry):
    pin = entry.expected.get("intersection")
    if pin is None:
        return {}
    args = {}
    if pin["alphas"] is not None:
        args["alphas"] = pin["alphas"]
    if pin["pair"] is not None:
        (a1, v1), (a2, v2) = pin["pair"]
        args["pairs"] = [(pd.Elementary(a1, (v1,), 0.0), pd.Elementary(a2, (v2,), 0.0))]
    return args


def _check_catalog_bridge(entry):
    def check(br):
        bad = []
        bui = entry.expected.get("bui_overall")
        if bui is not None and br.condition_sum != bui["value"]:
            bad.append("bui_overall")
        pin = entry.expected.get("intersection")
        if pin is not None and not (
            br.intersection and all(c.found == pin["found"] for c in br.intersection)
        ):
            bad.append("intersection")
        return not bad, f"pins missed: {bad}"

    return check


def _check_kkt_pin(pin):
    def check(cert):
        if cert.optimal != pin["optimal"]:
            return False, f"optimal={cert.optimal}, pinned {pin['optimal']}"
        if pin["optimal"] and not (
            abs(cert.primal_value - pin["primal"]) <= pin["tol"]
            and abs(cert.dual_value - pin["dual"]) <= pin["tol"]
        ):
            return False, "primal/dual off their pins"
        return True, ""

    return check


def _spot_call(fn, box, spot):
    phi = pd.Elementary(spot["a"], (spot["v"],), 0.0)
    conj = pd.phi_conjugate if spot["side"] == "right" else pd.left_conjugate
    return lambda: conj(fn, phi, box).value


def exact_session(run: Runner, spec: dict):
    """One library session: the gap-analyze sequence, KKT, search, spots."""
    run.caches.clear_all()
    entry = spec.get("entry")
    if entry is not None:
        inst = entry.build()
    else:
        inst = ser.parse_instance(gen.instance_doc_1d(spec["f"], spec["g"], spec["kind"]))
        val_p, tol_p = spec["val_p"], spec["tol"]

        def val_p_ok(v):
            return abs(v - val_p) <= tol_p, f"val_P {v!r} vs dense {val_p!r}"

    name = spec["name"]
    if entry is not None:
        args = _catalog_bridge_args(entry)
        run.op(f"{name}:bridge", lambda: pd.theorem_bridge_report(inst, **args),
               _no_raise(_check_catalog_bridge(entry)))
        chain = run.op(f"{name}:chain", lambda: pd.duality_chain_report(inst),
                       _no_raise(_check_catalog_chain(entry)))
        for i, pin in enumerate(entry.expected.get("kkt", [])):
            phi = pd.Elementary(pin["a"], (pin["w"],), 0.0)
            run.op(f"{name}:kkt{i}", lambda: pd.verify_kkt(inst, pin["x"], phi),
                   _no_raise(_check_kkt_pin(pin)))
        pinned_p = entry.expected.get("values", {}).get("val_P")

        def search_ok(res):
            if res is None:
                return True, ""
            cert = res[2]
            if not cert.optimal:
                return False, "search returned a non-optimal certificate"
            if pinned_p is not None and abs(cert.primal_value - pinned_p["value"]) > 1e-6:
                return False, f"search primal {cert.primal_value!r} off val_P pin"
            return True, ""
    else:
        run.op(f"{name}:bridge", lambda: pd.theorem_bridge_report(inst),
               _no_raise(lambda br: val_p_ok(br.val_P)))

        def chain_ok(rep):
            ok, detail = val_p_ok(rep.val_P)
            return ok and rep.chain_ok, f"{detail}; chain_ok={rep.chain_ok} {rep.violations}"

        chain = run.op(f"{name}:chain", lambda: pd.duality_chain_report(inst), _no_raise(chain_ok))
        if chain is not None and chain.argmin_P is not None and chain.best_dual_elementary is not None:
            x, phi = chain.argmin_P, chain.best_dual_elementary

            def kkt_ok(cert):
                fx = objective(spec, x[0])
                if abs(cert.primal_value - fx) > 1e-9 * (1 + abs(fx)):
                    return False, f"primal {cert.primal_value!r} != f+g {fx!r}"
                if cert.dual_value > val_p + tol_p + 1e-6:
                    return False, f"dual {cert.dual_value!r} above val_P {val_p!r}"
                if cert.optimal and abs(cert.primal_value - val_p) > tol_p + 1e-6:
                    return False, "certified optimal away from the minimum"
                return True, ""

            run.op(f"{name}:kkt", lambda: pd.verify_kkt(inst, x, phi), _no_raise(kkt_ok))

        def search_ok(res):
            if res is None:
                return True, ""
            cert = res[2]
            ok = cert.optimal and abs(cert.primal_value - val_p) <= tol_p + 1e-6
            return ok, f"search pair primal {cert.primal_value!r} vs dense {val_p!r}"

    run.op(f"{name}:search", lambda: pd.search_kkt_pair(inst, budget=gen.SEARCH_BUDGET),
           _no_raise(search_ok))
    for i, spot in enumerate(spec["spots"]):
        fn = inst.f if spot["which"] == "f" else inst.g
        pieces = spec[spot["which"]]
        want = spot.get("want", gen.conjugate_ref(pieces, spot["side"], spot["a"], spot["v"]))
        tol = spot.get("tol") or 1e-9 * (1 + (abs(want) if math.isfinite(want) else 0))

        def spot_ok(v, want=want, tol=tol):
            return _close(v, want, tol), f"spot {v!r} vs closed form {want!r}"

        run.op(f"{name}:spot{i}", _spot_call(fn, inst.box, spot), _no_raise(spot_ok))


# ---------------------------------------------------------------------------
# grid-1d: tabulated twins, one cold load per operation
# ---------------------------------------------------------------------------


def _chain_tol_1d(spec, kind: str) -> tuple[float, float]:
    """(val_P tolerance, dual-value tolerance) of a twin against the clipped
    closed form: one cell times a Lipschitz bound of the functions compared."""
    lo, hi, _ = gen.BOX_1D
    lf = gen.lipschitz_on_box(spec["f"], lo, hi)
    lg = gen.lipschitz_on_box(spec["g"], lo, hi)
    a_max = gen.A_MAX if kind == "lsc-quadratic" else 0.0
    lphi = 2 * a_max * max(abs(lo), abs(hi)) + gen.V_MAX
    return (lf + lg) * H_1D + 1e-9, (2 * lphi + lf + lg) * H_1D + 1e-9


def _or_none(call):
    try:
        return call()
    except Exception:  # no reference: the operations checked against it fail
        return None


class GridOneD:
    def __init__(self, seed: int, workdir: str):
        self.specs = exact_specs(seed, gen.N_GRID_1D)
        self.paths = []
        for i, spec in enumerate(self.specs):
            phi = gen.PHI_1D[spec["kind"]]
            if spec.get("entry") is not None:
                p = spec["entry"].default_phi
                phi = {"kind": p.kind, "a_max": p.a_max, "v_max": p.v_max, "grid": list(p.grid_sizes)}
            spec["phi"] = phi
            self.paths.append(os.path.join(workdir, f"twin-{i:02d}-{spec['name']}.json"))

    def references(self) -> list[dict]:
        """Write the twin files; closed-form references on the box-clipped
        instances.  A reference call that raises leaves None, and the twin
        operations checked against it then fail."""
        lo, hi, _ = gen.BOX_1D
        refs = []
        for spec, path in zip(self.specs, self.paths):
            with open(path, "w", encoding="utf-8") as fh:
                json.dump(gen.twin_doc_1d(spec["f"], spec["g"], spec["phi"]), fh)
            fc, gc = gen.clip_pieces(spec["f"], lo, hi), gen.clip_pieces(spec["g"], lo, hi)
            doc = gen.instance_doc_1d(fc, gc, spec["kind"])
            doc["phi"] = spec["phi"]
            inst = ser.parse_instance(doc)
            ref = {"ref_chain": _or_none(lambda: pd.duality_chain_report(inst).values())}
            entry = spec.get("entry")
            if entry is not None:
                ref["ref_pairs"] = [(pin["x"], pin["a"], pin["w"], pin["optimal"])
                                    for pin in entry.expected.get("kkt", [])]
            elif spec["kkt"] is not None:
                x, a, w = spec["kkt"]["x"], spec["kkt"]["a"], spec["kkt"]["w"]
                phi = pd.Elementary(a, (w,), 0.0)
                ref["ref_pairs"] = [(x, a, w, _or_none(lambda: pd.verify_kkt(inst, x, phi).optimal))]
            else:
                ref["ref_pairs"] = []
            refs.append(ref)
        return refs

    def groups(self):
        return [lambda run, i=i: self.twin_ops(run, i) for i in range(len(self.specs))]

    def twin_ops(self, run: Runner, i: int):
        spec, path = self.specs[i], self.paths[i]
        name = spec["name"]
        tol_p, tol_d = _chain_tol_1d(spec, spec["phi"]["kind"])

        def cold(call):
            def op():
                inst = ser.load_instance(path)
                return call(inst)

            run.caches.clear_all()
            return op

        def chain_ok(rep):
            if spec["ref_chain"] is None:
                return False, "the clipped closed-form chain raised: no reference"
            bad = [k for k, want in spec["ref_chain"].items()
                   if not _close(getattr(rep, k), want, tol_p if k == "val_P" else tol_d)]
            if not rep.chain_ok:
                bad.append("chain_ok")
            return not bad, f"twin chain off the clipped closed form: {bad}"

        run.op(f"{name}:twin-chain", cold(pd.duality_chain_report), _no_raise(chain_ok))
        for k, (x, a, w, expect) in enumerate(spec["ref_pairs"]):
            phi = pd.Elementary(a, (w,), 0.0)

            def kkt_check(cert, err, expect=expect):
                if expect is None:
                    return False, None, "the clipped closed-form verify_kkt raised: no reference"
                if err is not None:
                    known = KNOWN_TAB_KKT if "must be finite" in str(err) else None
                    return False, known, f"raised {err!r}"
                if cert.optimal == expect:
                    return True, None, ""
                known = KNOWN_TAB_KKT if expect and cert.dual_value == -INF else None
                return False, known, f"optimal={cert.optimal} (dual {cert.dual_value!r}), expected {expect}"

            run.op(f"{name}:twin-kkt{k}", cold(lambda inst, x=x, phi=phi: pd.verify_kkt(inst, x, phi)),
                   kkt_check)
        lo, hi, _ = gen.BOX_1D
        # the pinned spots of a catalog entry and the first seeded spot of each
        # of exact-1d's instances: with these the median falls inside the group
        # of affine-class chains and KKT checks, not on its edge
        if "entry" in spec:
            spots = spec["spots"]
        elif spec["index"] < gen.N_EXACT_1D:
            spots = spec["spots"][:1]
        else:
            spots = []
        for k, spot in enumerate(spots):
            pieces = spec[spot["which"]]
            want = gen.conjugate_ref(pieces, spot["side"], spot["a"], spot["v"], box=(lo, hi))
            lphi = 2 * spot["a"] * max(abs(lo), abs(hi)) + abs(spot["v"])
            tol = (lphi + gen.lipschitz_on_box(pieces, lo, hi)) * H_1D + 1e-9 * (1 + abs(want))

            def spot_check(v, err, want=want, tol=tol):
                if err is not None:
                    return False, None, f"raised {err!r}"
                if _close(v, want, tol):
                    return True, None, ""
                known = KNOWN_TAB_CONJ_INF if v == INF and math.isfinite(want) else None
                return False, known, f"twin {v!r} vs box closed form {want!r} (tol {tol:.3g})"

            def spot_op(inst, spot=spot):
                fn = inst.f if spot["which"] == "f" else inst.g
                return _spot_call(fn, inst.box, spot)()

            run.op(f"{name}:twin-spot{k}", cold(spot_op), spot_check)


class ExactOneD:
    def __init__(self, seed: int, workdir: str):
        self.specs = exact_specs(seed, gen.N_EXACT_1D)

    def references(self) -> list[dict]:
        return [{} if spec.get("entry") is not None else dense_ref(spec) for spec in self.specs]

    def groups(self):
        return [lambda run, s=s: exact_session(run, s) for s in self.specs]


WORKLOADS = {"exact-1d": ExactOneD, "grid-1d": GridOneD}


def pass_seconds(run: Runner) -> float:
    return sum(r["seconds"] for r in run.records)


def run_pass(workload, caches: CacheStats) -> Runner:
    run = Runner(caches)
    for group in workload.groups():
        group(run)
    return run


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--workdir", required=True)
    ap.add_argument("--prepare", action="store_true",
                    help="write the inputs and references into --workdir and exit")
    args = ap.parse_args(argv)

    workload = WORKLOADS[args.workload](args.seed, args.workdir)
    refs_path = os.path.join(args.workdir, "references.json")
    if args.prepare:
        os.makedirs(args.workdir, exist_ok=True)
        refs = workload.references()
        with open(refs_path, "w", encoding="utf-8") as fh:
            json.dump(refs, fh)
        return 0
    with open(refs_path, encoding="utf-8") as fh:
        for spec, ref in zip(workload.specs, json.load(fh), strict=True):
            spec.update(ref)
    caches = CacheStats()
    passes = [run_pass(workload, caches)]
    result = {"import_s": IMPORT_S}
    if args.trace:
        tracer = Tracer(caches)
        tracer.install()
        try:
            passes.append(run_pass(workload, caches))
        finally:
            tracer.restore()
        result["trace"] = tracer.metrics()
        result["trace_overhead"] = pass_seconds(passes[1]) / pass_seconds(passes[0])
    else:
        # repeat whole passes (same operations, same mix) to fill the run
        while sum(map(pass_seconds, passes)) + pass_seconds(passes[0]) / 2 < args.seconds:
            passes.append(run_pass(workload, caches))
    first = [r["digest"] for r in passes[0].records]
    result["deterministic"] = all([r["digest"] for r in p.records] == first for p in passes[1:])
    # a traced pass reports counts, not times: keep only the untraced one
    result["passes"] = [p.records for p in passes[:1 if args.trace else None]]
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
