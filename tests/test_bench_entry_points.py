"""The benchmark's entry points run against the package at their tiny sizes.

``bench/worker.py`` and ``bench/reference.py`` read package names and
attributes (config keys, solution fields, report keys) that
``test_bench_names.py`` cannot see by parsing; running them here finds a
rename or a broken check before the benchmark does.
"""

import importlib
import json
import pathlib

import pytest

BENCH = pathlib.Path(__file__).resolve().parents[1] / "bench"
WORKLOADS = ("observe", "carleman", "converge", "inequalities")


@pytest.fixture
def bench(monkeypatch):
    """``import name`` from bench/, with sys.path restored afterwards."""
    monkeypatch.syspath_prepend(str(BENCH))
    return importlib.import_module


@pytest.mark.parametrize("workload", WORKLOADS)
def test_worker_call_is_clean(workload, bench, tmp_path):
    worker = bench("worker")
    trace = workload == "observe"
    record, _ = worker.run_call(workload, 1, str(tmp_path), trace, check=True,
                                tiny=True)
    assert record["problems"] == []
    assert record["attempted"] > 0
    assert ("layers" in record) == trace
    if trace:
        assert record["layers"]["solver.time_steps"]["value"] > 0


def test_worker_prints_its_record_last(bench, tmp_path, capsys):
    # the record is the last stdout line: nothing else writes to stdout
    worker = bench("worker")
    assert worker.main(["--workload", "observe", "--seed", "1", "--spawned",
                        "0", "--out", str(tmp_path), "--tiny", "1"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 1
    assert json.loads(lines[-1])["problems"] == []


def test_reference_figures_run(bench, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    reference = bench("reference")
    monkeypatch.setattr(reference, "REPS", 1)
    reference.mesh_figures()
    reference.balance_figures()
    reference.profile_figures("observe")
    out = capsys.readouterr().out
    assert out.count("assembly_ms=") == 3
    for variant in reference.carleman.VARIANTS:
        assert f"{variant} " in out
    assert "observe: " in out and "under cProfile" in out
