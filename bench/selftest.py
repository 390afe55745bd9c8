"""Quick self-test of the benchmark at tiny sizes (about a minute).

    python3 bench/selftest.py

Run from the root of a checkout. It exercises the tracer's self-time
arithmetic, every workload's checks (including that they reject doctored
reports), the failure count, the traced run's metric names against
BENCHMARK.json, and the refusal to run outside a checkout. Exits 1 on the
first failed assertion.
"""

from __future__ import annotations

import copy
import json
import os
import shutil
import subprocess
import sys
import tempfile
import time
import types

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.getcwd()
sys.path.insert(0, os.path.join(ROOT, "src"))

import run  # noqa: E402
import tracer  # noqa: E402
import worker  # noqa: E402


def test_tracer_self_time():
    def outer():
        time.sleep(0.02)
        owner.inner()
        owner.inner()

    def inner():
        time.sleep(0.01)

    owner = types.SimpleNamespace(outer=outer, inner=inner)
    saved = tracer.TARGETS
    tracer.TARGETS = ((owner, "outer", "a.outer", None),
                      (owner, "inner", "b.inner", None))
    try:
        with tracer.Tracer() as t:
            owner.outer()
    finally:
        tracer.TARGETS = saved
    assert owner.inner is inner and owner.outer is outer, "wrapper left"
    agg = tracer.aggregate(t.spans)
    assert agg["b.inner"]["calls"] == 2
    assert [s[3] for s in t.spans] == [-1, 0, 0], "parents"
    a = agg["a.outer"]
    assert abs(a["self"] - (a["incl"] - agg["b.inner"]["incl"])) < 1e-12
    assert 0.015 < a["self"] < 0.2


def test_checks_reject_doctored_reports():
    out = os.path.join(ROOT, ".bench_tmp", "selftest-checks")
    try:
        for workload, doctor in (
                ("converge", lambda r: r["tables"]["convergence"].reverse()),
                ("carleman", lambda r: r["tables"]["theta_checks"][0]
                 .update(c1=12.0 * r["tables"]["theta_checks"][0]["T"])),
                ("observe", lambda r: r["tables"]["samples"][0]
                 .update(chain_slack=-1.0))):
            size = worker.SIZES[workload][1]
            cfg = worker._config(size, 5, out)
            # converge may exit 1 on its flux gate; worker.check_converge
            # says why the benchmark does not require it
            worker.cli.main(worker._cli_argv(workload, size, 5, out))
            with open(os.path.join(out, worker.REPORT_FILE[workload])) as f:
                report = json.load(f)
            check = worker.CLI_CHECKS[workload]
            assert not check(cfg, report, True)[2], f"{workload}: clean report"
            bad = copy.deepcopy(report)
            doctor(bad)
            assert check(cfg, bad, False)[2], f"{workload}: doctored report"
    finally:
        shutil.rmtree(out, ignore_errors=True)
        run.remove_if_empty(os.path.dirname(out))


def test_workloads():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    names = [w["name"] for w in spec["workloads"]]
    assert sorted(names) == sorted(run.WORKLOADS)
    end_to_end = {m["name"] for m in spec["end_to_end"]}
    per_layer = {m["name"] for m in spec["per_layer"]}
    shares = {}
    for workload in names:
        for seed in (3, 4):
            res = run.run(workload, seed, 0.0, trace=False, tiny=True)
            assert res["correct"], f"{workload} seed {seed}: checks failed"
            assert set(res["metrics"]) == end_to_end, workload
            assert all(m["value"] > 0 for m in res["metrics"].values())
            shares.setdefault(workload, set()).add(
                res["failed"] / res["attempted"])
        res = run.run(workload, 3, 0.0, trace=True, tiny=True)
        assert res["correct"], f"{workload} traced: checks failed"
        assert set(res["metrics"]) == per_layer, workload
        if workload == "carleman":
            calls = res["attempted"] // worker._sweep_rows_expected(
                worker._config(worker.SIZES["carleman"][1], 3, "."))
            underflowed = res["metrics"]["carleman.underflowed"]["value"]
            assert underflowed * calls == res["failed"], \
                "the traced underflow count is not the failed-row count"
    assert shares.pop("carleman") != {0.0}, "carleman underflow not counted"
    assert all(s == {0.0} for s in shares.values()), shares
    assert all(len(s) == 1 for s in shares.values())


def test_refuses_outside_checkout():
    scratch = os.path.join(ROOT, ".bench_tmp")
    os.makedirs(scratch, exist_ok=True)
    bare = tempfile.mkdtemp(prefix="bare-", dir=scratch)
    try:
        shutil.copytree(HERE, os.path.join(bare, "bench"))
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        proc = subprocess.run(
            [sys.executable, "bench/run.py", "--workload", "observe",
             "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=60)
        assert proc.returncode != 0 and not proc.stdout.strip()
    finally:
        shutil.rmtree(bare, ignore_errors=True)
        run.remove_if_empty(scratch)


def main() -> int:
    for test in (test_tracer_self_time, test_checks_reject_doctored_reports,
                 test_workloads, test_refuses_outside_checkout):
        t0 = time.perf_counter()
        test()
        print(f"ok {test.__name__} ({time.perf_counter() - t0:.1f} s)",
              flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
