"""Run the benchmark over a set of seeds and print each end-to-end metric's
median, quartiles and spread, the figures BENCHMARK.json's bounds are set by.

    python3 bench/steadiness.py --seeds 1-10 [--workloads observe,carleman]

Run from the root of a checkout. Spread is (q3 - q1) / median, with the
quartiles of ``statistics.quantiles(values, n=4)``. Every run's result line
is echoed to standard output, prefixed with its workload and seed.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def seed_range(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main(argv=None) -> int:
    with open(os.path.join(HERE, os.pardir, "BENCHMARK.json")) as f:
        spec = json.load(f)
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--seeds", type=seed_range, default=seed_range("1-10"))
    p.add_argument("--workloads",
                   default=",".join(w["name"] for w in spec["workloads"]))
    p.add_argument("--seconds", type=int, default=spec["run_seconds"])
    args = p.parse_args(argv)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    ok = True
    for workload in args.workloads.split(","):
        values: dict[str, list[float]] = {}
        shares = set()
        for seed in args.seeds:
            proc = subprocess.run(
                [sys.executable, os.path.join(HERE, "run.py"),
                 "--workload", workload, "--seed", str(seed),
                 "--seconds", str(args.seconds), "--trace", "0"],
                capture_output=True, text=True, timeout=180)
            line = proc.stdout.strip().splitlines()[-1]
            print(f"{workload} {seed} {line}", flush=True)
            res = json.loads(line)
            ok = ok and res["correct"]
            shares.add(res["failed"] / res["attempted"])
            for name, m in res["metrics"].items():
                values.setdefault(name, []).append(m["value"])
        for name, vals in values.items():
            q1, med, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med
            print(f"# {workload:12s} {name:12s} median {med:10.4f} "
                  f"q1 {q1:10.4f} q3 {q3:10.4f} spread {spread:.4f} "
                  f"(bound {bounds[name]})", flush=True)
        print(f"# {workload:12s} failed share {sorted(shares)}", flush=True)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
