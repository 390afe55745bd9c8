"""In-memory spans around degenlab's public functions, and the per-layer
metrics derived from them.

The tracer patches the module attributes that callers look up (for example
``degenlab.experiments.solve``), so nothing inside ``src/`` changes. A span
records name, start, end, parent index and one optional number taken from
the call (vertices built, time steps, bytes written, ...). Spans stay in a
list until the traced call ends; self time is a span's duration minus the
durations of its direct children (calls are single-threaded, so children
never overlap).
"""

from __future__ import annotations

import functools
import os
import statistics
import time

from degenlab import carleman, cli, domain, experiments, solver, spaces


def _vertices(args, kwargs, out):
    return out.num_vertices


def _steps(args, kwargs, out):
    return kwargs["M"] if "M" in kwargs else args[2]


def _underflowed(args, kwargs, out):
    return int(out["lhs"] == 0.0 or out["rhs"] == 0.0)


def _fields(args, kwargs, out):
    return len(args[1] if len(args) > 1 else kwargs["fields"])


def _bytes(args, kwargs, out):
    return sum(os.path.getsize(p) for p in out)


# (owner, attribute, span name, info) for every wrapped call site. Each
# function is wrapped where its callers look it up, so one call passes
# through exactly one wrapper.
TARGETS = (
    (cli, "main", "cli.main", None),
    (cli, "run_observability_study", "experiments.study", None),
    (cli, "run_carleman_sweep", "experiments.study", None),
    (cli, "run_approximation_study", "experiments.study", None),
    (cli, "persist_report", "experiments.persist", _bytes),
    (experiments, "build_disk_mesh", "domain.mesh_build", _vertices),
    (domain, "build_disk_mesh", "domain.mesh_build", _vertices),
    (experiments, "integrate_spacetime", "domain.spacetime", None),
    (experiments, "integrate_space", "domain.space", None),
    (domain, "integrate_space", "domain.space", None),
    (experiments, "solve", "solver.solve", _steps),
    (solver, "assemble_mass", "solver.assemble", None),
    (solver, "assemble_stiffness", "solver.assemble", None),
    (experiments, "boundary_flux", "solver.flux", None),
    (carleman, "boundary_flux", "solver.flux", None),
    (carleman.BalanceContext, "__init__", "carleman.context", None),
    (carleman, "carleman_balance", "carleman.balance", _underflowed),
    (spaces, "inequality_ratio_table", "spaces.table", _fields),
)


class Tracer:
    """Context manager that installs the wrappers and collects spans."""

    def __init__(self):
        self.spans: list[list] = []     # [name, start, end, parent, info]
        self._stack: list[int] = []
        self._saved: list[tuple] = []

    def _wrap(self, name, fn, info):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = [name, time.perf_counter(), 0.0,
                    self._stack[-1] if self._stack else -1, 0]
            self._stack.append(len(self.spans))
            self.spans.append(span)
            try:
                out = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                self._stack.pop()
            if info is not None:
                span[4] = info(args, kwargs, out)
            return out
        return wrapper

    def __enter__(self):
        for owner, attr, name, info in TARGETS:
            fn = getattr(owner, attr)
            self._saved.append((owner, attr, fn))
            setattr(owner, attr, self._wrap(name, fn, info))
        return self

    def __exit__(self, *exc):
        for owner, attr, fn in reversed(self._saved):
            setattr(owner, attr, fn)
        self._saved.clear()
        return False


def aggregate(spans):
    """Per span name: inclusive seconds, self seconds, calls, info sum and
    the list of per-call self times."""
    child = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child[parent] += end - start
    out: dict[str, dict] = {}
    for i, (name, start, end, _, info) in enumerate(spans):
        a = out.setdefault(name, {"incl": 0.0, "self": 0.0, "calls": 0,
                                  "info": 0, "selfs": []})
        a["incl"] += end - start
        a["self"] += end - start - child[i]
        a["calls"] += 1
        a["info"] += info
        a["selfs"].append(end - start - child[i])
    return out


# name -> unit of every metric layer_metrics returns
LAYER_UNITS = {
    "domain.mesh_build_s": "s",
    "domain.mesh_vertices": "count",
    "domain.spacetime_s": "s",
    "domain.space_slices": "count",
    "solver.solve_s": "s",
    "solver.time_steps": "count",
    "solver.step_ms": "ms",
    "solver.assemble_s": "s",
    "solver.flux_s": "s",
    "solver.flux_calls": "count",
    "solver.identity_defect": "ratio",
    "carleman.context_s": "s",
    "carleman.contexts": "count",
    "carleman.balance_s": "s",
    "carleman.balances": "count",
    "carleman.balance_ms_p50": "ms",
    "carleman.underflowed": "count",
    "spaces.table_s": "s",
    "spaces.fields_per_s": "1/s",
    "experiments.self_s": "s",
    "experiments.persist_s": "s",
    "experiments.bytes_written": "bytes",
    "cli.self_s": "s",
}


def layer_metrics(spans, identity_defect: float) -> dict:
    """Every per-layer metric of one traced call, as {name: {value, unit}},
    except the tracing overhead, which needs an untraced call to compare
    with. A layer the workload never enters reads 0."""
    agg = aggregate(spans)
    empty = {"incl": 0.0, "self": 0.0, "calls": 0, "info": 0, "selfs": []}

    def g(name):
        return agg.get(name, empty)

    steps = g("solver.solve")["info"]
    table = g("spaces.table")
    balance = g("carleman.balance")
    values = {
        "domain.mesh_build_s": g("domain.mesh_build")["incl"],
        "domain.mesh_vertices": g("domain.mesh_build")["info"],
        "domain.spacetime_s": (g("domain.spacetime")["self"]
                               + g("domain.space")["self"]),
        "domain.space_slices": g("domain.space")["calls"],
        "solver.solve_s": g("solver.solve")["incl"],
        "solver.time_steps": steps,
        "solver.step_ms": (1000.0 * g("solver.solve")["self"] / steps
                           if steps else 0.0),
        "solver.assemble_s": g("solver.assemble")["incl"],
        "solver.flux_s": g("solver.flux")["incl"],
        "solver.flux_calls": g("solver.flux")["calls"],
        "solver.identity_defect": identity_defect,
        "carleman.context_s": g("carleman.context")["incl"],
        "carleman.contexts": g("carleman.context")["calls"],
        "carleman.balance_s": balance["self"],
        "carleman.balances": balance["calls"],
        "carleman.balance_ms_p50": (1000.0 * statistics.median(balance["selfs"])
                                    if balance["calls"] else 0.0),
        "carleman.underflowed": balance["info"],
        "spaces.table_s": table["incl"],
        "spaces.fields_per_s": (table["info"] / table["incl"]
                                if table["calls"] else 0.0),
        "experiments.self_s": (g("experiments.study")["self"]
                               + g("experiments.persist")["self"]),
        "experiments.persist_s": g("experiments.persist")["incl"],
        "experiments.bytes_written": g("experiments.persist")["info"],
        "cli.self_s": g("cli.main")["self"],
    }
    return {name: {"value": values[name], "unit": unit}
            for name, unit in LAYER_UNITS.items()}
