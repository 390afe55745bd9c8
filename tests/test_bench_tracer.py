"""The benchmark tracer wraps package attributes by name; each must exist."""

import importlib
import pathlib

BENCH = pathlib.Path(__file__).resolve().parents[1] / "bench"


def test_tracer_targets_exist(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    tracer = importlib.import_module("tracer")
    assert tracer.TARGETS
    for owner, attr, name, _ in tracer.TARGETS:
        assert callable(getattr(owner, attr, None)), (owner.__name__, attr, name)
