"""The benchmark tracer wraps package attributes by name; each must exist."""

import importlib
import inspect
import pathlib

BENCH = pathlib.Path(__file__).resolve().parents[1] / "bench"


def test_tracer_targets_exist(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    tracer = importlib.import_module("tracer")
    assert tracer.TARGETS
    for owner, attr, name, _ in tracer.TARGETS:
        assert callable(getattr(owner, attr, None)), (owner.__name__, attr, name)


def test_solve_takes_steps_third():
    # the tracer's solver.time_steps reads M as solve's third positional
    # argument (or its M keyword)
    from degenlab import experiments, solver

    params = list(inspect.signature(solver.solve).parameters.values())
    assert [p.name for p in params[:3]] == ["problem", "mesh", "M"]
    assert all(p.kind is inspect.Parameter.POSITIONAL_OR_KEYWORD
               for p in params[:3])
    assert experiments.solve is solver.solve
