"""One timed call of one benchmark workload, in a fresh process.

run.py starts this file once per timed call, with PYTHONPATH pointing at the
checkout's ``src`` and the BLAS/OpenMP thread counts fixed, so every call
pays imports, set-up and any factorization or cache fill, as a ``degenlab``
user does on every run. The call is timed with no wrapper installed unless
``--trace 1``. After the timed call the worker checks the program's outputs
against properties of the method and against computations of its own, and
prints one JSON line:

    wall_s, setup_s, peak_rss_mb, attempted, failed, problems[, layers]

Usage: python3 bench/worker.py --workload NAME --seed N --spawned T0
       --out DIR [--trace 0|1] [--check 0|1] [--tiny 0|1]
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import json
import math
import os
import resource
import sys
import time

import numpy as np

from degenlab import carleman, cli, domain, experiments, solver, spaces
from degenlab.weights import RegularizedWeight

from tracer import Tracer, layer_metrics

# Per workload (full size, tiny size for selftest.py): config overrides for
# the CLI workloads, mesh size and field count for inequalities. The full
# sizes keep one timed call between 2 and 6 s on a 2-core box, so a 25 s run
# holds several calls to take the median of.
SIZES = {
    "observe": ({"sample_count": 2},
                {"sample_count": 1, "mesh_levels": [0.36, 0.3]}),
    "carleman": ({"mesh_levels": [0.24], "carleman_family_count": 2,
                  "carleman_sweep_samples": 1, "carleman_s": [1.0, 4.0, 16.0]},
                 {"mesh_levels": [0.6], "carleman_family_count": 2,
                  "carleman_sweep_samples": 1, "carleman_s": [1.0, 4.0]}),
    "converge": ({"k_levels": [8, 16, 32, 64, 128]},
                 {"mesh_levels": [0.5], "k_levels": [8, 16, 32]}),
    "inequalities": ({"h": 1.0 / 16.0, "fields": 60},
                     {"h": 0.3, "fields": 6}),
}

RATIO_LIMIT = 1.02          # functional-inequality budget (criterion 3)
IDENTITY_TOL = 1e-8         # discrete energy identity, theta = 1, f = 0
SCALE_TOL = 1e-10           # implied_C under u -> 10 u
TABLE_TOL = 1e-12           # batched vs single-field inequality ratios


def _config(overrides: dict, seed: int, out: str):
    return experiments.ExperimentConfig.from_dict(
        {}, {**overrides, "seed": seed, "out_dir": out})


def _cli_argv(command: str, overrides: dict, seed: int, out: str) -> list:
    argv = [command, "--seed", str(seed), "--out", out]
    for key, val in overrides.items():
        argv += ["--set", f"{key}={json.dumps(val)}"]
    return argv


def _nodal(mesh, fn):
    u = np.asarray(fn(mesh.vertices), dtype=float)
    u[mesh.boundary_mask] = 0.0
    return u


def _rel(a, b):
    if a == b:
        return 0.0
    return abs(a - b) / max(abs(a), abs(b))


def _sq_norms(mat, rows):
    return np.einsum("nv,nv->n", rows, (mat @ rows.T).T)


def identity_defect(sol) -> float:
    """|C - 1| for the theta = 1, source-free energy identity
    (1/2)|u_M|^2 + sum dt a(u_n+1, u_n+1) + (1/2) sum |u_n+1 - u_n|^2
    = (1/2)|u_0|^2, in forward time, from the solve's own matrices."""
    u = sol.fields[::-1] if sol.problem.direction == "backward" else sol.fields
    l2 = _sq_norms(sol.mass, u)
    lhs = (0.5 * l2[-1] + sol.dt * float(np.sum(_sq_norms(sol.stiffness, u)[1:]))
           + 0.5 * float(np.sum(_sq_norms(sol.mass, np.diff(u, axis=0)))))
    return abs(lhs / (0.5 * l2[0]) - 1.0)


def _backward(cfg, mesh, data, weight):
    h = cfg.mesh_levels[0]
    return solver.solve(
        solver.ParabolicProblem(weight=weight, T=cfg.T, data=data,
                                direction="backward"),
        mesh, cfg.steps_for(h), theta=1.0)


# ---------------------------------------------------------------------------
# observe: a sample per operation
# ---------------------------------------------------------------------------

def check_observe(cfg, report, full):
    problems = []
    rows = report["tables"]["samples"]
    expected = (len(cfg.mesh_levels) * len(cfg.sampler_families)
                * cfg.sample_count)
    good = [r for r in rows
            if math.isfinite(r["ratio"]) and not r["ucp_violation"]]
    if len(rows) != expected:
        problems.append(f"{len(rows)} samples reported, {expected} expected")
    if not report["passed"]:
        problems.append("observability study did not pass its gates")
    if min(r["chain_slack"] for r in rows) < -1e-8:
        problems.append("(5.2) chain violated")
    a, b = len(cfg.mesh_levels) - 2, len(cfg.mesh_levels) - 1
    for fam in cfg.sampler_families:
        va = max(r["ratio"] for r in rows if r["level"] == a and r["family"] == fam)
        vb = max(r["ratio"] for r in rows if r["level"] == b and r["family"] == fam)
        if not abs(vb - va) < 0.5 * va:
            problems.append(f"{fam}: max ratio drifts {va} -> {vb}")
    defect = 0.0
    if full:
        # the study's first sample, solved again and checked by hand
        mesh = domain.build_disk_mesh(cfg.geometry, cfg.mesh_levels[0])
        rng = np.random.default_rng(cfg.seed + 2)
        fn, _ = experiments.sample_field(cfg.sampler_families[0], rng, cfg)
        sol = _backward(cfg, mesh, _nodal(mesh, fn), cfg.alpha)
        defect = identity_defect(sol)
        if not defect <= IDENTITY_TOL:
            problems.append(f"energy identity off by {defect:.3e}")
        norms = np.sqrt(_sq_norms(sol.mass, sol.fields))
        if np.any(np.diff(norms) < -1e-12 * norms.max()):
            problems.append("|phi(t)| decreases in physical time")
        first = next(r for r in rows if r["level"] == 0 and r["sample"] == 0
                     and r["family"] == cfg.sampler_families[0])
        if _rel(first["chain_lhs"], norms[0] ** 2) > 1e-10:
            problems.append("reported |phi(0)|^2 disagrees with the re-solve")
    return len(good), expected, problems, defect


# ---------------------------------------------------------------------------
# carleman: a sweep row per operation
# ---------------------------------------------------------------------------

def _sweep_rows_expected(cfg) -> int:
    points = {(s, g, cfg.lambda_default) for s in cfg.carleman_s
              for g in cfg.carleman_gamma}
    points |= {(s, cfg.gamma_default, lam) for s in cfg.carleman_s
               for lam in cfg.carleman_lambda}
    swept = min(cfg.carleman_sweep_samples, cfg.carleman_family_count)
    per_level = (swept * len(points) + cfg.carleman_family_count - swept)
    return len(cfg.mesh_levels) * per_level * len(carleman.VARIANTS)


def _scaled_balances(cfg, sol0, solr, scale):
    """implied_C of every variant at the default point for one trajectory."""
    eps = cfg.carleman_epsilon
    reg = RegularizedWeight(epsilon=eps, alpha=cfg.alpha)
    if scale != 1.0:
        sol0 = dataclasses.replace(sol0, fields=scale * sol0.fields)
        solr = dataclasses.replace(solr, fields=scale * solr.fields)
    flux0, fluxr = solver.boundary_flux(sol0), solver.boundary_flux(solr)
    params = carleman.CarlemanParams(
        s=cfg.s_default, gamma=cfg.gamma_default, lam=cfg.lambda_default,
        T=cfg.T, m=cfg.m, alpha=cfg.alpha, R=cfg.R)
    ctx0 = carleman.BalanceContext(sol0, params)
    ctxr = carleman.BalanceContext(solr, params)
    eta_bar = carleman.fursikov_eta_bar(cfg.R, cfg.L)
    out = {}
    for v in carleman.VARIANTS:
        if v == "thm41":
            res = carleman.carleman_balance(solr, params, v, weight=reg,
                                            flux=fluxr, context=ctxr)
        elif v == "thm42":
            res = carleman.carleman_balance(sol0, params, v, flux=flux0,
                                            context=ctx0)
        elif v == "thm61":
            res = carleman.carleman_balance(sol0, params, v, eta_bar=eta_bar,
                                            context=ctx0)
        else:
            res = carleman.carleman_balance(sol0, params, v, context=ctx0)
        out[v] = res["implied_C"]
    return out


def check_carleman(cfg, report, full):
    problems = []
    rows = report["tables"]["sweep"]
    expected = _sweep_rows_expected(cfg)
    # both sides integrate positive weights against a nonzero solution, so
    # an exact 0.0 on either side is an underflow, not a value
    good = [r for r in rows if r["lhs"] != 0.0 and r["rhs"] != 0.0
            and math.isfinite(r["implied_C"])]
    if len(rows) != expected:
        problems.append(f"{len(rows)} sweep rows reported, {expected} expected")
    if not report["passed"]:
        problems.append("carleman sweep did not pass its gates")
    for chk in report["tables"]["theta_checks"]:
        T = chk["T"]
        # sup |Theta' Theta| / Theta^(9/4) = sup 4|2t - T| = 4T, approached
        # from below on the sampled grid
        if not 4.0 * T * (1.0 - 1e-3) <= chk["c1"] <= 4.0 * T * (1.0 + 1e-12):
            problems.append(f"theta c1 = {chk['c1']} is not 4T at T = {T}")
    defect = 0.0
    if full:
        h = cfg.mesh_levels[0]
        mesh = domain.build_disk_mesh(
            cfg.geometry, h, local_h=min(h / 2.0, cfg.carleman_epsilon / 4.0))
        rng = np.random.default_rng(cfg.seed + 3)
        data = _nodal(mesh, experiments.sample_field("interior", rng, cfg)[0])
        reg = RegularizedWeight(epsilon=cfg.carleman_epsilon, alpha=cfg.alpha)
        sol0 = _backward(cfg, mesh, data, cfg.alpha)
        solr = _backward(cfg, mesh, data, reg)
        defect = max(identity_defect(sol0), identity_defect(solr))
        if not defect <= IDENTITY_TOL:
            problems.append(f"energy identity off by {defect:.3e}")
        base = _scaled_balances(cfg, sol0, solr, 1.0)
        scaled = _scaled_balances(cfg, sol0, solr, 10.0)
        for v in carleman.VARIANTS:
            if not _rel(base[v], scaled[v]) <= SCALE_TOL:
                problems.append(f"{v}: implied_C moves under scaling "
                                f"{base[v]} -> {scaled[v]}")
            reported = next(
                r["implied_C"] for r in rows
                if r["level"] == 0 and r["sample"] == 0 and r["variant"] == v
                and r["s"] == cfg.s_default and r["gamma"] == cfg.gamma_default
                and r["lambda"] == cfg.lambda_default)
            if _rel(reported, base[v]) > 1e-12:
                problems.append(f"{v}: reported implied_C {reported} is not "
                                f"the re-evaluated {base[v]}")
    return len(good), expected, problems, defect


# ---------------------------------------------------------------------------
# converge: a k level per operation
# ---------------------------------------------------------------------------

def check_converge(cfg, report, full):
    # report["passed"] is not required: its 10% monotonicity gate on the
    # boundary-flux gap compares values at the round-off floor (~1e-14) from
    # k = 32 on, so it fails on some seeds and not others
    problems = []
    rows = report["tables"]["convergence"]
    expected = len(cfg.k_levels)
    good = [r for r in rows
            if math.isfinite(r["l2_Q"]) and math.isfinite(r["l2_Q_relative"])]
    if [r["k"] for r in rows] != list(cfg.k_levels):
        problems.append("convergence table does not list every k level")
    gaps = [r["l2_Q"] for r in rows]
    if not gaps[0] >= 2.0 * gaps[-1]:
        problems.append(f"gap ratio {gaps[0] / gaps[-1]} below 2")
    if not rows[-1]["l2_Q_relative"] <= 1e-3:
        problems.append(f"final relative gap {rows[-1]['l2_Q_relative']}")
    if any(b >= a for a, b in zip(gaps, gaps[1:])):
        problems.append(f"gap not monotone in k: {gaps}")
    defect = 0.0
    if full:
        # first level again: the study integrates the nodal square diff**2
        # interpolated in P1, whose integral is exactly its dot product with
        # the row sums of the consistent mass matrix
        k = cfg.k_levels[0]
        h = cfg.mesh_levels[-1]
        mesh = domain.build_disk_mesh(cfg.geometry, h,
                                      local_h=min(h / 2.0, 1.0 / (4.0 * k)))
        fn, _ = experiments.data_bump_a2r7r(np.random.default_rng(cfg.seed + 1),
                                            cfg)
        data = _nodal(mesh, fn)
        M = cfg.steps_for(h)
        reg = RegularizedWeight(epsilon=1.0 / k, alpha=cfg.alpha)
        sols = [solver.solve(solver.ParabolicProblem(weight=w, T=cfg.T,
                                                     data=data),
                             mesh, M, theta=1.0) for w in (reg, cfg.alpha)]
        defect = max(identity_defect(s) for s in sols)
        if not defect <= IDENTITY_TOL:
            problems.append(f"energy identity off by {defect:.3e}")
        diff = sols[0].fields - sols[1].fields
        lumped = np.asarray(sols[0].mass.sum(axis=1)).ravel()
        l2q = math.sqrt(np.trapezoid(diff ** 2 @ lumped, sols[0].times))
        if _rel(l2q, rows[0]["l2_Q"]) > 1e-8:
            problems.append(f"k={k}: reported gap {rows[0]['l2_Q']} is not "
                            f"the recomputed {l2q}")
    return len(good), expected, problems, defect


# ---------------------------------------------------------------------------
# inequalities: a field per operation
# ---------------------------------------------------------------------------

RATIO_KEYS = ("hardy", "r_22", "r_23", "r_36", "r_37")


def check_inequalities(cfg, mesh, fields, table, full):
    problems = []
    ratios = np.array([table[k] for k in RATIO_KEYS])       # (5, n_fields)
    good = int(np.sum(np.all(np.isfinite(ratios) & (ratios <= RATIO_LIMIT),
                             axis=0)))
    if full:
        for i in range(min(3, len(fields))):
            single = {"hardy": spaces.hardy_ratio(mesh, fields[i], cfg.alpha),
                      **spaces.poincare_ratios(mesh, fields[i], cfg.alpha,
                                               cfg.carleman_epsilon)}
            for k in RATIO_KEYS:
                if _rel(float(table[k][i]), float(single[k])) > TABLE_TOL:
                    problems.append(f"field {i} {k}: table {table[k][i]} vs "
                                    f"single-field {single[k]}")
    return good, len(fields), problems, 0.0


# ---------------------------------------------------------------------------
# one call
# ---------------------------------------------------------------------------

CLI_CHECKS = {"observe": check_observe, "carleman": check_carleman,
              "converge": check_converge}
REPORT_FILE = {"observe": "observability.json", "carleman": "carleman.json",
               "converge": "approximation.json"}


def run_call(workload: str, seed: int, out: str, trace: bool, check: bool,
             tiny: bool) -> tuple[dict, float]:
    """Set up, time one call, check it; returns (record, start of the call
    on the monotonic clock)."""
    size = SIZES[workload][1 if tiny else 0]
    tracer = Tracer() if trace else contextlib.nullcontext()
    with tracer:
        if workload == "inequalities":
            cfg = experiments.ExperimentConfig(seed=seed)
            mesh = domain.build_disk_mesh(cfg.geometry, size["h"])
            rng = np.random.default_rng(seed)
            fields = np.array([
                _nodal(mesh, experiments.sample_field(
                    cfg.sampler_families[i % 3], rng, cfg)[0])
                for i in range(size["fields"])])
            started = time.monotonic()
            t0 = time.perf_counter()
            table = spaces.inequality_ratio_table(mesh, fields, cfg.alpha,
                                                  cfg.carleman_epsilon)
            wall = time.perf_counter() - t0
        else:
            argv = _cli_argv(workload, size, seed, out)
            started = time.monotonic()
            t0 = time.perf_counter()
            cli.main(argv)
            wall = time.perf_counter() - t0
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if workload == "inequalities":
        good, attempted, problems, defect = check_inequalities(
            cfg, mesh, fields, table, check)
    else:
        cfg = _config(size, seed, out)
        with open(os.path.join(out, REPORT_FILE[workload])) as f:
            report = json.load(f)
        good, attempted, problems, defect = CLI_CHECKS[workload](
            cfg, report, check)
    record = {"wall_s": wall, "peak_rss_mb": peak_mb, "attempted": attempted,
              "failed": attempted - good, "problems": problems}
    if trace:
        record["layers"] = layer_metrics(tracer.spans, defect)
    return record, started


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(SIZES))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--spawned", type=float, required=True,
                   help="monotonic clock reading just before this process "
                        "was started")
    p.add_argument("--out", required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--check", type=int, choices=(0, 1), default=1)
    p.add_argument("--tiny", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    record, started = run_call(args.workload, args.seed, args.out,
                               bool(args.trace), bool(args.check),
                               bool(args.tiny))
    record["setup_s"] = started - args.spawned
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
