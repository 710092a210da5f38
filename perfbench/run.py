"""phidual benchmark: one seeded workload per invocation.

    python3 perfbench/run.py --workload exact-1d --seed 1 --seconds 45 --trace 0

Runs from the root of a source checkout (it imports `phidual` from `src/`).
The workload's inputs and references are written by one process (worker.py
--prepare), then the workload runs in its own worker process (worker.py);
this script times process set-up, turns the worker's per-operation records
into metrics and prints them, one per line, then the result as one JSON
object on the last line of standard output.  With `--trace 1` the same operation list runs once
untraced and once traced, and the per-layer metrics are printed instead.

It exits non-zero, without a result, when the checkout has no `src/phidual`
or the worker fails.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("exact-1d", "grid-1d")
# op_tail_s: the highest percentile with at least ten operations beyond it
# at the operation count of one run (see README.md)
TAIL_PERCENTILE = {"exact-1d": 85, "grid-1d": 76}
# set-up samples: 5 spawns before the worker, the worker, 4 spawns after it
SETUP_PROBES = 10
BLAS_THREADS = 1
PREPARE_TIMEOUT_S = 50.0
WORKER_TIMEOUT_S = 110.0


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(ROOT, "src")
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    return env


def spawn_until_imported(cmd: list[str], env: dict) -> tuple[subprocess.Popen, float]:
    """Start `cmd` and return it with the seconds until it printed IMPORTED."""
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, env=env, cwd=ROOT)
    line = proc.stdout.readline()
    elapsed = time.perf_counter() - start
    if line.strip() != "IMPORTED":
        proc.kill()
        proc.communicate()
        raise RuntimeError(f"{cmd[1]} did not import phidual (exit {proc.returncode})")
    return proc, elapsed


def measure_setup(env: dict, n: int, warm_up: bool) -> list[float]:
    """Spawn-to-`import phidual` times of `n` fresh interpreters (after one
    uncounted spawn when `warm_up`, so that compiled bytecode exists as it
    does for a user)."""
    probe = [sys.executable, "-c", "import phidual; print('IMPORTED', flush=True)"]
    samples = []
    for _ in range(n + warm_up):
        proc, elapsed = spawn_until_imported(probe, env)
        proc.communicate()
        samples.append(elapsed)
    return samples[warm_up:]


def percentile(values: list[float], p: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[p - 1]


def summarize(workload: str, res: dict, setup: list[float], trace: bool) -> dict:
    passes = res["passes"]
    records = [r for p in passes for r in p]
    # one time per operation of the list: its median over the passes
    times = [statistics.median(p[i]["seconds"] for p in passes) for i in range(len(passes[0]))]
    failed = [r for r in records if not r["ok"]]
    unexpected = [r for r in failed if not r["known"]]
    for r in passes[0]:
        if not r["ok"]:
            tag = "known defect" if r["known"] else "UNEXPECTED"
            print(f"failed op {r['label']} [{tag}]: {r['detail']}")
    known = {}
    for r in failed:
        if r["known"]:
            known[r["known"]] = known.get(r["known"], 0) + 1
    for sig, n in sorted(known.items()):
        print(f"known-defect failures: {n} x {sig}")
    print(f"fail_ratio: {len(failed) / len(records):.6g} 1 ({len(failed)} of {len(records)} operations)")
    print(f"passes: {len(passes)}; deterministic outputs: {res['deterministic']}; "
          f"BLAS threads: {BLAS_THREADS}")
    if trace:
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in res["trace"].items()}
        metrics["L5.import_s"] = {"value": res["import_s"], "unit": "s"}
        metrics["trace.overhead_ratio"] = {"value": res["trace_overhead"], "unit": "1"}
    else:
        completed = sum(1 for r in passes[0] if r["completed"])
        p = TAIL_PERCENTILE[workload]
        metrics = {
            "throughput_ops_s": {"value": completed / sum(times), "unit": "ops/s"},
            "op_p50_s": {"value": statistics.median(times), "unit": "s"},
            "op_tail_s": {"value": percentile(times, p), "unit": "s"},
            "setup_s": {"value": statistics.median(setup), "unit": "s"},
            "peak_rss_mb": {"value": res["peak_rss_mb"], "unit": "MB"},
        }
        print(f"op_tail_s is p{p} of {len(times)} operation times")
    for name, m in metrics.items():
        print(f"{workload} {name}: {m['value']!r} {m['unit']}")
    return {
        "correct": not unexpected and res["deterministic"],
        "attempted": len(records),
        "failed": len(failed),
        "metrics": metrics,
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "phidual", "__init__.py")):
        print(f"error: no src/phidual under {ROOT}; run from a phidual checkout",
              file=sys.stderr)
        return 2
    env = child_env()
    workdir = os.path.join(ROOT, ".perfbench-work", f"{args.workload}-{args.seed}-{os.getpid()}")
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--workdir", workdir]
    try:
        try:
            prep = subprocess.run(cmd + ["--prepare"], env=env, cwd=ROOT, capture_output=True,
                                  timeout=PREPARE_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            raise RuntimeError("preparing the inputs exceeded its time limit")
        if prep.returncode != 0:
            raise RuntimeError(f"preparing the inputs failed (exit {prep.returncode})")
        setup = [] if args.trace else measure_setup(env, SETUP_PROBES // 2, warm_up=True)
        proc, elapsed = spawn_until_imported(cmd, env)
        setup.append(elapsed)
        try:
            out, _ = proc.communicate(timeout=WORKER_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.communicate()
            raise RuntimeError("worker exceeded its time limit")
        if proc.returncode != 0:
            raise RuntimeError(f"worker exited with {proc.returncode}")
        res = json.loads(out.strip().splitlines()[-1])
        if not args.trace:
            setup += measure_setup(env, SETUP_PROBES - len(setup), warm_up=False)
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        parent = os.path.dirname(workdir)
        if os.path.isdir(parent) and not os.listdir(parent):
            os.rmdir(parent)
    result = summarize(args.workload, res, setup, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
