"""degenlab benchmark: run one workload for a fixed time and print its metrics.

    python3 bench/run.py --workload observe --seed 1 --seconds 20 --trace 0

Run from the root of a checkout. Each timed call runs in a fresh worker
process (bench/worker.py), one at a time, with one BLAS/OpenMP thread, until
``--seconds`` have passed and at least three calls are done. The last line of
standard output is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With ``--trace 0`` the metrics are the medians over the calls of wall_s,
setup_s and peak_rss_mb. With ``--trace 1`` untraced and traced calls
alternate; the metrics are the medians of the per-layer metrics over the
traced calls, and trace.overhead_s is the median traced wall_s minus the
median untraced wall_s. Checks run on the first call of a run and on every
traced call; the cheap report checks and the failure count run on every call.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))

WORKLOADS = ("observe", "carleman", "converge", "inequalities")
MIN_CALLS = 3           # untraced calls per run, whatever --seconds says
MIN_TRACED_PAIRS = 1
CALL_TIMEOUT_S = 150
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS")


def worker_env(root: str) -> dict:
    env = dict(os.environ)
    src = os.path.join(root, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    for var in THREAD_VARS:
        env[var] = "1"
    # fixed hashing, and no bytecode cache that would make later runs of a
    # checkout import faster than its first
    env["PYTHONHASHSEED"] = "0"
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    return env


def remove_if_empty(path: str):
    try:
        os.rmdir(path)
    except OSError:
        pass


def run_worker(workload, seed, out, trace, check, tiny, env) -> dict:
    spawned = time.monotonic()
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "worker.py"),
         "--workload", workload, "--seed", str(seed),
         "--spawned", repr(spawned), "--out", out, "--trace", str(int(trace)),
         "--check", str(int(check)), "--tiny", str(int(tiny))],
        env=env, capture_output=True, text=True, timeout=CALL_TIMEOUT_S)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise RuntimeError(f"worker for {workload} exited {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def run(workload: str, seed: int, seconds: float, trace: bool,
        tiny: bool = False) -> dict:
    root = os.getcwd()
    env = worker_env(root)
    scratch = os.path.join(root, ".bench_tmp")
    os.makedirs(scratch, exist_ok=True)
    tmp = tempfile.mkdtemp(prefix="run-", dir=scratch)
    plain, traced = [], []
    t_start = time.monotonic()
    try:
        while True:
            is_traced = trace and len(plain) > len(traced)
            out = os.path.join(tmp, f"call{len(plain) + len(traced)}")
            rec = run_worker(workload, seed, out, is_traced,
                             check=is_traced or not plain, tiny=tiny, env=env)
            (traced if is_traced else plain).append(rec)
            done = (len(traced) >= MIN_TRACED_PAIRS if trace
                    else len(plain) >= MIN_CALLS)
            if (done and time.monotonic() - t_start >= seconds
                    and len(traced) == (len(plain) if trace else 0)):
                break
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        remove_if_empty(scratch)
    calls = plain + traced
    for rec in calls:
        for msg in rec["problems"]:
            print(f"check failed: {msg}", file=sys.stderr)
    result = {
        "correct": all(not rec["problems"] for rec in calls),
        "attempted": sum(rec["attempted"] for rec in calls),
        "failed": sum(rec["failed"] for rec in calls),
    }
    if trace:
        metrics = {
            name: {"value": statistics.median(r["layers"][name]["value"]
                                              for r in traced),
                   "unit": layer["unit"]}
            for name, layer in traced[0]["layers"].items()}
        metrics["trace.overhead_s"] = {
            "value": (statistics.median(r["wall_s"] for r in traced)
                      - statistics.median(r["wall_s"] for r in plain)),
            "unit": "s"}
    else:
        metrics = {name: {"value": statistics.median(r[name] for r in plain),
                          "unit": unit}
                   for name, unit in (("wall_s", "s"), ("setup_s", "s"),
                                      ("peak_rss_mb", "MB"))}
    result["metrics"] = metrics
    print(f"{len(calls)} calls; wall_s " + " ".join(
        f"{r['wall_s']:.3f}" for r in calls) + "; setup_s " + " ".join(
        f"{r['setup_s']:.3f}" for r in calls), file=sys.stderr)
    return result


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description="degenlab benchmark")
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not os.path.isfile(os.path.join("src", "degenlab", "__init__.py")):
        print("bench: run from the root of a degenlab checkout "
              "(src/degenlab not found)", file=sys.stderr)
        return 2
    result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
