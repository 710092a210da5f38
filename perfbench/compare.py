"""Compare two checkouts (parent and change) with the benchmark.

    python3 perfbench/compare.py --parent ../parent --change . \\
        --claim exact-1d:op_p50_s --out BENCH_compare.json

Each side runs from its own checkout (its `perfbench/run.py` and `src/`);
the benchmark files of the two checkouts must be identical.  Every workload
of BENCHMARK.json runs 10 pairs; pair i runs seed 1000 + i on both sides,
alternating which side goes first, one run at a time.  For every workload
and end-to-end metric it reports each side's median and quartiles, then a
verdict:

* a claimed metric is a gain only if the change wins at least 9 of 10 pairs
  (ties count for neither) and the medians differ by more than the parent's
  interquartile distance;
* any other metric regresses when the change's median is worse than the
  parent's by more than the metric's bound in BENCHMARK.json, and is
  unresolved when the parent's own spread (IQR / median) exceeds the bound,
  unless every change run beats every parent run.

A workload on which the change fails a larger share of its operations
(`failed / attempted`) than the parent is a regression, and no gain is
claimed on it.  Runs whose outputs were incorrect are listed.  An incorrect
run or any regression makes the exit code 1.
"""

from __future__ import annotations

import argparse
import filecmp
import json
import os
import statistics
import subprocess
import sys

PAIRS = 10
FIRST_SEED = 1000


def load_spec(root: str) -> dict:
    with open(os.path.join(root, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def benchmark_files(root: str, spec: dict) -> set[str]:
    files = {"BENCHMARK.json"}
    for path in spec["paths"]:
        for dirpath, _, names in os.walk(os.path.join(root, path)):
            if "__pycache__" in dirpath:
                continue
            files |= {os.path.relpath(os.path.join(dirpath, n), root) for n in names}
    return files


def same_benchmark(a: str, b: str) -> bool:
    """Both checkouts carry the same benchmark files, byte for byte."""
    if not all(os.path.isfile(os.path.join(root, "BENCHMARK.json")) for root in (a, b)):
        return False
    spec_a, spec_b = load_spec(a), load_spec(b)
    if spec_a != spec_b:
        return False
    files = sorted(benchmark_files(a, spec_a) | benchmark_files(b, spec_b))
    _, mismatch, errors = filecmp.cmpfiles(a, b, files, shallow=False)
    return not mismatch and not errors


def run_once(root: str, spec: dict, workload: str, seed: int, seconds: int) -> dict:
    cmd = spec["command"] + ["--workload", workload, "--seed", str(seed),
                             "--seconds", str(seconds), "--trace", "0"]
    out = subprocess.run(cmd, cwd=root, capture_output=True, text=True, timeout=300)
    if out.returncode != 0:
        raise RuntimeError(f"{root}: {' '.join(cmd)} exited {out.returncode}: {out.stderr[-500:]}")
    return json.loads(out.stdout.strip().splitlines()[-1])


def quartiles(values: list[float]) -> tuple[float, float, float]:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def verdict(metric: dict, parent: list[float], change: list[float], claimed: bool) -> str:
    lower = metric["better"] == "lower"
    better = (lambda c, p: c < p) if lower else (lambda c, p: c > p)
    pq1, pmed, pq3 = quartiles(parent)
    _, cmed, _ = quartiles(change)
    if claimed:
        wins = sum(better(c, p) for c, p in zip(change, parent))
        gain = wins >= 0.9 * len(parent) and abs(cmed - pmed) > (pq3 - pq1)
        return f"{'gain' if gain else 'not shown'} ({wins}/{len(parent)} wins)"
    bound = metric["bound"]
    worse = (cmed - pmed) / pmed if lower else (pmed - cmed) / pmed
    if (pq3 - pq1) / pmed > bound and not all(better(c, p) for c in change for p in parent):
        return f"unresolved (parent spread {(pq3 - pq1) / pmed:.3f} > bound {bound})"
    if worse > bound:
        return f"REGRESSION ({worse:+.3f} > bound {bound})"
    return f"ok ({worse:+.3f} worse, bound {bound})"


def fail_ratio(runs: list[dict]) -> float:
    return sum(r["failed"] for r in runs) / sum(r["attempted"] for r in runs)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--parent", required=True, help="checkout of the parent commit")
    ap.add_argument("--change", required=True, help="checkout of the change")
    ap.add_argument("--claim", action="append", default=[],
                    help="workload:metric the change claims to improve (repeatable)")
    ap.add_argument("--out", help="write the raw runs and verdicts as JSON here")
    args = ap.parse_args(argv)

    if not same_benchmark(args.parent, args.change):
        print("error: the two checkouts carry different benchmark files", file=sys.stderr)
        return 2
    spec = load_spec(args.parent)
    workloads = [w["name"] for w in spec["workloads"]]
    claims = {tuple(c.split(":", 1)) for c in args.claim}
    sides = {"parent": args.parent, "change": args.change}
    runs = {w: {s: [] for s in sides} for w in workloads}
    incorrect = []
    for i in range(PAIRS):
        order = ["parent", "change"] if i % 2 == 0 else ["change", "parent"]
        for w in workloads:
            for side in order:
                res = run_once(sides[side], spec, w, FIRST_SEED + i, spec["run_seconds"])
                runs[w][side].append(res)
                if not res["correct"]:
                    incorrect.append((side, w, FIRST_SEED + i))
                print(f"pair {i} {w} {side}: failed {res['failed']}/{res['attempted']}",
                      file=sys.stderr)

    report = {"pairs": PAIRS, "incorrect_runs": incorrect, "workloads": {}}
    regressions = []
    for w in workloads:
        fails = {side: fail_ratio(runs[w][side]) for side in sides}
        more_failures = fails["change"] > fails["parent"]
        rows = {"fail_ratio": dict(fails, verdict="REGRESSION" if more_failures else "ok")}
        if more_failures:
            regressions.append((w, "fail_ratio"))
        print(f"{w:9s} fail_ratio parent {fails['parent']:.4g} change {fails['change']:.4g} "
              f"{rows['fail_ratio']['verdict']}")
        for metric in spec["end_to_end"]:
            name = metric["name"]
            pv = [r["metrics"][name]["value"] for r in runs[w]["parent"]]
            cv = [r["metrics"][name]["value"] for r in runs[w]["change"]]
            v = verdict(metric, pv, cv, (w, name) in claims)
            if more_failures and v.startswith("gain"):
                v = "void: more operations fail" + v[len("gain"):]
            if v.startswith("REGRESSION"):
                regressions.append((w, name))
            rows[name] = {
                "unit": metric["unit"],
                "parent": dict(zip(("q1", "median", "q3"), quartiles(pv))),
                "change": dict(zip(("q1", "median", "q3"), quartiles(cv))),
                "verdict": v,
                "parent_runs": pv,
                "change_runs": cv,
            }
            p, c = rows[name]["parent"], rows[name]["change"]
            print(f"{w:9s} {name:17s} parent {p['median']:.5g} [{p['q1']:.5g}, {p['q3']:.5g}]  "
                  f"change {c['median']:.5g} [{c['q1']:.5g}, {c['q3']:.5g}] {metric['unit']:6s} {v}")
        report["workloads"][w] = rows
    for side, w, seed in incorrect:
        print(f"INCORRECT: {side} {w} seed {seed}")
    for w, name in regressions:
        print(f"REGRESSION: {w} {name}")
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(report, fh, indent=2)
    return 1 if incorrect or regressions else 0


if __name__ == "__main__":
    sys.exit(main())
