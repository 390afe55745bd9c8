"""Command-line entry point: config ingestion, study dispatch, plot data.

Exit codes: 0 success, 1 failed invariant/record or solver error (one line
on stderr), 2 configuration error.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import json
import logging
import os
import sys
import time

import numpy as np

from . import carleman as cl
from .domain import build_disk_mesh
from .experiments import (ExperimentConfig, StudyReport, persist_report,
                          run_approximation_study, run_carleman_sweep,
                          run_observability_study, sample_field, _nodal)
from .solver import ParabolicProblem, SolverError, energy_report, solve
from .weights import (RegularizedWeight, cutoff_kappa, cutoff_rho, cutoff_zeta,
                      identity_residuals)

log = logging.getLogger(__name__)


def parse_config(path: str | None, overrides: dict,
                 seed: int | None = None, out: str | None = None) -> ExperimentConfig:
    values = {}
    if path is not None:
        with open(path) as f:
            values = json.load(f)
        if not isinstance(values, dict):
            raise ValueError("config file must contain a single JSON object")
    if seed is not None:
        overrides = {**overrides, "seed": seed}
    if out is not None:
        overrides = {**overrides, "out_dir": out}
    return ExperimentConfig.from_dict(values, overrides)


def _parse_overrides(pairs) -> dict:
    out = {}
    for pair in pairs or ():
        if "=" not in pair:
            raise ValueError(f"override {pair!r} is not of the form key=value")
        key, val = pair.split("=", 1)
        try:
            out[key] = json.loads(val)
        except json.JSONDecodeError:
            out[key] = val
    return out


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_verify_weights(cfg: ExperimentConfig) -> int:
    rng = np.random.default_rng(cfg.seed)
    rows = []
    ok = True
    # the second identity's sides grow like eps^-2, so the machine-zero gate
    # is taken relative to each identity's magnitude scale
    for eps in (0.25, 0.1, 1.0 / 64.0):
        w = RegularizedWeight(epsilon=eps, alpha=cfg.alpha)
        scales = {"r1": 1.0, "r2": 15.0 / (8.0 * eps * eps), "r3": 1.0}
        worst = {"r1": 0.0, "r2": 0.0, "r3": 0.0}
        for _ in range(1000):
            ang = rng.uniform(0.0, 2.0 * np.pi)
            rad = eps * np.sqrt(rng.uniform())
            res = identity_residuals(w, (rad * np.cos(ang), rad * np.sin(ang)))
            for key in worst:
                worst[key] = max(worst[key], abs(res[key]))
        jump = max(abs(w.psi(eps) - eps), abs(w.psi_prime(eps) - 1.0),
                   abs(w.psi_second(eps)))
        rel = {k: worst[k] / max(1.0, scales[k]) for k in worst}
        ok = ok and jump < 1e-12 and max(rel.values()) < 1e-12
        rows.append({"epsilon": eps, "matching_jump": float(jump), **worst,
                     **{f"{k}_relative": v for k, v in rel.items()}})
    for name, cut in (("zeta", cutoff_zeta(cfg.R)), ("kappa", cutoff_kappa(cfg.R)),
                      ("rho", cutoff_rho(cfg.R))):
        consts = cut.measured_constants()
        rows.append({"epsilon": name, "matching_jump": 0.0, **consts})
    report = StudyReport(name="verify_weights", config=cfg, passed=ok)
    report.tables["residuals"] = rows
    report.summary = {"all_below_1e-12": ok}
    persist_report(report, cfg.out_dir)
    return 0 if ok else 1


def cmd_solve(cfg: ExperimentConfig) -> int:
    h = cfg.mesh_levels[-1]
    mesh = build_disk_mesh(cfg.geometry, h)
    rng = np.random.default_rng(cfg.seed)
    fn, desc = sample_field("interior", rng, cfg)
    data = _nodal(mesh, fn)
    sol = solve(ParabolicProblem(weight=cfg.alpha, T=cfg.T, data=data,
                                 direction="backward"),
                mesh, cfg.steps_for(h), theta=cfg.theta)
    os.makedirs(cfg.out_dir, exist_ok=True)
    mesh_path = os.path.join(cfg.out_dir, "solve_mesh.txt")
    mesh.save(mesh_path)
    sol_path = os.path.join(cfg.out_dir, "solve_trajectory.txt")
    with open(sol_path, "w") as f:
        for row in sol.fields:
            f.write(" ".join(repr(float(v)) for v in row) + "\n")
    rep = energy_report(sol)
    sidecar = {"mesh_file": os.path.basename(mesh_path), "T": cfg.T,
               "steps": len(sol.times) - 1, "alpha": cfg.alpha,
               "datum": desc, "energy": rep,
               "config_hash": cfg.config_hash()}
    with open(os.path.join(cfg.out_dir, "solve_trajectory.json"), "w") as f:
        json.dump(sidecar, f, sort_keys=True, indent=1)
        f.write("\n")
    log.info("energy identity constant %.2e", rep["identity_constant"])
    # the identity holds both ways; a zero datum has no constant (0.0)
    ok = (rep["data_sq"] == 0.0
          or abs(rep["identity_constant"] - 1.0) <= 1e-8)
    return 0 if ok else 1


def _write_plot(path, header, rows):
    with open(path, "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(header)
        w.writerows(rows)


def cmd_converge(cfg: ExperimentConfig) -> int:
    report = run_approximation_study(cfg)
    persist_report(report, cfg.out_dir)
    _write_plot(os.path.join(cfg.out_dir, "plot_k_vs_l2Q.csv"),
                ["k", "l2_Q"],
                [(r["k"], r["l2_Q"]) for r in report.tables["convergence"]])
    return 0 if report.passed else 1


def cmd_observe(cfg: ExperimentConfig) -> int:
    report = run_observability_study(cfg)
    persist_report(report, cfg.out_dir)
    fam = report.summary["family_max_ratios"]
    _write_plot(os.path.join(cfg.out_dir, "plot_family_max.csv"),
                ["key", "max_ratio"], sorted(fam.items()))
    return 0 if report.passed else 1


def cmd_carleman(cfg: ExperimentConfig) -> int:
    report = run_carleman_sweep(cfg)
    persist_report(report, cfg.out_dir)
    finest = len(cfg.mesh_levels) - 1
    for variant in cl.VARIANTS:
        rows = sorted(
            (r["s"], r["implied_C"]) for r in report.tables["sweep"]
            if r["variant"] == variant and r["level"] == finest
            and r["sample"] == 0 and r["gamma"] == cfg.gamma_default
            and r["lambda"] == cfg.lambda_default)
        _write_plot(os.path.join(cfg.out_dir, f"plot_s_vs_impliedC_{variant}.csv"),
                    ["s", "implied_C"], rows)
    return 0 if report.passed else 1


def cmd_all(cfg: ExperimentConfig) -> int:
    """Every other command, in table order; the largest exit code."""
    rc = 0
    for name, (fn, _) in _COMMANDS.items():
        if name != "all":
            t0 = time.time()
            step = fn(cfg)
            log.info("%s: exit %d in %.1fs", name, step, time.time() - t0)
            rc = max(rc, step)
    return rc


# name -> (command, help), in the order ``all`` runs them
_COMMANDS = {
    "verify-weights": (cmd_verify_weights,
                       "closed-form weight and cutoff residual tables"),
    "solve": (cmd_solve,
              "one backward solve with energy diagnostics and export"),
    "converge": (cmd_converge, "regularization-level approximation study"),
    "observe": (cmd_observe, "observability ratios and the (5.2) chain over "
                             "sampler families"),
    "carleman": (cmd_carleman,
                 "implied-constant sweeps for the weighted estimates"),
    "all": (cmd_all, "run every study into one output tree"),
}


def _config_keys_help() -> str:
    lines = ["config keys and defaults:"]
    defaults = ExperimentConfig()
    for f in dataclasses.fields(ExperimentConfig):
        lines.append(f"  {f.name} = {getattr(defaults, f.name)}")
    return "\n".join(lines)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="degenlab",
        description="Numerical laboratory for a heat equation with interior "
                    "degeneracy |x|^alpha: weight calculus, weighted "
                    "inequalities, approximation and observability studies.",
        epilog=_config_keys_help(),
        formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, help_text) in _COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", default=None,
                       help="JSON config file (single object; defaults fill "
                            "missing keys)")
        p.add_argument("--set", action="append", metavar="KEY=VALUE",
                       dest="overrides",
                       help="override one config key (repeatable)")
        p.add_argument("--seed", type=int, default=None,
                       help="random seed (default 0)")
        p.add_argument("--out", default=None, help="output directory")
        p.add_argument("--verbose", action="store_true",
                       help="progress logging to stdout")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        overrides = _parse_overrides(args.overrides)
        cfg = parse_config(args.config, overrides, seed=args.seed, out=args.out)
    except (ValueError, TypeError, OSError, json.JSONDecodeError) as exc:
        print(f"degenlab: config error: {exc}", file=sys.stderr)
        return 2
    package = logging.getLogger("degenlab")
    handler, level = logging.StreamHandler(sys.stdout), package.level
    handler.setFormatter(logging.Formatter("[degenlab] %(message)s"))
    if args.verbose:
        package.addHandler(handler)
        package.setLevel(logging.INFO)
    try:
        return _COMMANDS[args.command][0](cfg)
    except SolverError as exc:
        print(f"degenlab: {args.command}: solver error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"degenlab: {args.command}: cannot write report: {exc}",
              file=sys.stderr)
        return 1
    finally:
        package.removeHandler(handler)
        package.setLevel(level)


if __name__ == "__main__":
    sys.exit(main())
