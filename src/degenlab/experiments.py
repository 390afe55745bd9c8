"""Study drivers: approximation convergence, observability ratios with the
(5.2) chain, and Carleman constant sweeps, with deterministic reports.

Every study consumes an ExperimentConfig, draws its random data from a seeded
generator, and emits a StudyReport whose JSON/CSV serialization is
byte-identical for a fixed (config, seed).
"""

from __future__ import annotations

import csv
import dataclasses
import hashlib
import json
import logging
import os
from dataclasses import dataclass, field

import numpy as np

from . import carleman as cl
from .domain import (MAX_VERTICES, GeometrySpec, Mesh, Region,
                     build_disk_mesh, disk_vertex_bound, integrate_space,
                     integrate_spacetime, time_weights)
from .solver import (DiscreteSolution, ParabolicProblem, SolverError,
                     boundary_flux, solve, step_operator)
from .weights import AbsPowerWeight, RegularizedWeight, check_epsilon

log = logging.getLogger(__name__)


# ---------------------------------------------------------------------------
# configuration
# ---------------------------------------------------------------------------

# A solve holds (M + 1) x vertices floats of trajectory per datum; the
# observability study solves blocks of k data, k (M + 1) x vertices floats
# within this cap. Peak memory grows by about 11 B per such float in its full
# blocks of 8, 24 B one datum at a time, and 108 B in the approximation study
# (measured at h = 0.24 and 0.12, M = 44 to 168), so at the cap the latter
# needs about 1.7 GB, near the vertex cap's budget. It admits every mesh the
# vertex cap admits at dt_factor = 1 (h = 1/36: 37 x 388,666). The Carleman
# sweep's contexts take about 300 B per float (h = 0.24, where most
# quadrature points underflow and are never built), so that study passes this
# budget from about 6 M floats on.
MAX_TRAJECTORY_FLOATS = 16_000_000

# Data per block solve in the observability study. A block solve's time per
# datum and step fell from k = 1 to 8 and was flat at 16: 0.44, 0.30, 0.27,
# 0.25 ms at k = 1, 4, 8, 16 on h = 0.24 and 0.85, 0.65, 0.54, 0.57 ms on
# h = 0.18 (one thread, M = 12).
OBSERVABILITY_BLOCK = 8

# Families per block solve in the Carleman sweep. A block's trajectories all
# live through its balances, and the level's step factors through every
# block but the last, so the cap trades solve time for memory. c8
# (``run_carleman_sweep(ExperimentConfig(seed=7))``, 10 families, fresh
# process, 5 rounds; the first row keeps both factors to the level's end)
# read ru_maxrss / wall:
#
#   families per block          ru_maxrss (MB)   wall (s)
#   1, factors to level's end    103.7-104.7      1.27
#   1                             98.6-99.0       1.21
#   2                            100.4-100.5      1.16
#   3                            102.3-102.7      1.17
#   all 10                       107.9-108.3      1.04
#
# Blocks of 1 are leanest at c8, but with two families (the benchmark's
# sweep) they keep both factors through the first family's balances: 83.6 MB
# peak against 78.6 MB in one block of 2.
CARLEMAN_BLOCK = 2


@dataclass
class ExperimentConfig:
    """All knobs for the study drivers (flat keys, overridable from the CLI)."""

    R: float = 1.0
    L: float = 9.0
    alpha: float = 1.0
    T: float = 1.0
    mesh_levels: tuple = (0.24, 0.18)             # decreasing h for solves
    dt_factor: float = 1.0                         # dt ~ dt_factor * h
    theta: float = 1.0
    k_levels: tuple = (8, 16, 32, 64)
    sample_count: int = 50
    sampler_families: tuple = ("interior", "adversarial", "noise")
    carleman_s: tuple = (1.0, 2.0, 4.0, 8.0, 16.0, 20.0)
    carleman_gamma: tuple = (1.0, 4.0, 8.0)
    carleman_lambda: tuple = (1.0, 4.0, 8.0)
    s_default: float = 4.0
    gamma_default: float = 4.0
    lambda_default: float = 4.0
    carleman_family_count: int = 10
    carleman_sweep_samples: int = 2
    carleman_epsilon: float = 0.125
    seed: int = 0
    out_dir: str = "results"

    def __post_init__(self):
        for f in dataclasses.fields(self):
            val = getattr(self, f.name)
            listed = isinstance(f.default, tuple)
            if listed:
                if not isinstance(val, (tuple, list)):
                    raise ValueError(f"{f.name} must be a list, got {val!r}")
                val = tuple(val)
                setattr(self, f.name, val)
            # a float key (or float list) takes ints and floats, never bools
            numeric = isinstance(f.default[0] if listed else f.default, float)
            for v in val if listed else (val,):
                if numeric and (isinstance(v, bool) or not isinstance(
                        v, (int, float, np.integer, np.floating))):
                    what = "a list of numbers" if listed else "a number"
                    shown = list(val) if listed else val
                    raise ValueError(f"{f.name} must be {what}, got {shown!r}")
                if isinstance(v, (float, np.floating)) and not np.isfinite(v):
                    raise ValueError(f"{f.name} must be finite, got {val!r}")
        if not 0.0 < self.alpha < 2.0:
            raise ValueError(f"alpha must lie in (0, 2), got {self.alpha}")
        for key in ("R", "dt_factor"):
            if not getattr(self, key) > 0.0:
                raise ValueError(f"{key} must be positive, got {getattr(self, key)!r}")
        for key in ("carleman_s", "carleman_gamma", "carleman_lambda"):
            values = getattr(self, key)
            if not values or any(not v >= 1.0 for v in values):
                raise ValueError(f"{key} must be a non-empty list of values >= 1")
        for key in ("s_default", "gamma_default", "lambda_default"):
            if not getattr(self, key) >= 1.0:
                raise ValueError(f"{key} must be >= 1, got {getattr(self, key)!r}")
        if self.L <= 8.0 * self.R:
            raise ValueError("need L > 8R")
        if not self.T >= (256.0 / cl.THETA_CAP) ** 0.125:
            raise ValueError(f"T must be at least (256/THETA_CAP)^(1/8) = 0.02"
                             f" so that Theta(T/2) <= THETA_CAP, got {self.T!r}")
        if not 0.5 <= self.theta <= 1.0:
            raise ValueError(f"theta must lie in [1/2, 1], got {self.theta}")
        if not self.k_levels:
            raise ValueError("k_levels must not be empty")
        if list(self.k_levels) != sorted(set(self.k_levels)):
            raise ValueError("k_levels must be strictly increasing")
        if any(not isinstance(k, (int, np.integer)) or isinstance(k, bool)
               or k < 1 for k in self.k_levels):
            raise ValueError(f"k_levels must be integers >= 1 (eps = 1/k), "
                             f"got {list(self.k_levels)}")
        check_epsilon(self.carleman_epsilon, "carleman_epsilon")
        # int / int: a k past float range gives 0.0, not OverflowError
        check_epsilon(1 / self.k_levels[-1], "k_levels: eps = 1/k")
        hs = list(self.mesh_levels)
        if not hs:
            raise ValueError("mesh_levels must not be empty")
        if hs != sorted(set(hs), reverse=True):
            raise ValueError("mesh_levels must be strictly decreasing in h")
        if any(not 0.0 < h < self.R for h in hs):
            raise ValueError(f"mesh_levels must lie in (0, R) = (0, {self.R}), "
                             f"got {hs}")
        # the finest mesh any study builds, with the finest graded core
        local_h = min(hs[-1] / 2.0, 0.25 / self.k_levels[-1],
                      self.carleman_epsilon / 4.0)
        bound = disk_vertex_bound(self.geometry, hs[-1], local_h)
        if not bound <= MAX_VERTICES:
            raise ValueError(f"mesh_levels: h={hs[-1]} builds up to "
                             f"{bound:.0f} vertices, above the cap of "
                             f"{MAX_VERTICES}")
        # the finest level has the most steps M and the most vertices; the
        # unrounded count is checked first, where int(M) could overflow
        steps = self.T / self.dt_factor / hs[-1]
        if (steps > MAX_TRAJECTORY_FLOATS
                or (self.steps_for(hs[-1]) + 1) * bound > MAX_TRAJECTORY_FLOATS):
            raise ValueError(f"dt_factor: {steps:.3g} time steps at h={hs[-1]} "
                             f"on up to {bound} vertices hold more than "
                             f"{MAX_TRAJECTORY_FLOATS} trajectory values")
        if not self.sampler_families:
            raise ValueError("sampler_families must not be empty")
        for fam in self.sampler_families:
            if fam not in ("interior", "adversarial", "noise"):
                raise ValueError(f"sampler_families: unknown family {fam!r}")
        if len(set(self.sampler_families)) < len(self.sampler_families):
            raise ValueError(f"sampler_families must not repeat a family, "
                             f"got {list(self.sampler_families)}")
        for key, least in (("sample_count", 1), ("carleman_family_count", 1),
                           ("carleman_sweep_samples", 0), ("seed", 0)):
            val = getattr(self, key)
            if (not isinstance(val, (int, np.integer)) or isinstance(val, bool)
                    or val < least):
                raise ValueError(f"{key} must be an integer >= {least}, "
                                 f"got {val!r}")
        if not isinstance(self.out_dir, str) or not self.out_dir:
            raise ValueError(f"out_dir must be a non-empty string, "
                             f"got {self.out_dir!r}")

    # -- dict round trip ----------------------------------------------------

    def to_dict(self) -> dict:
        d = dataclasses.asdict(self)
        for k, v in d.items():
            if isinstance(v, tuple):
                d[k] = list(v)
        return d

    @staticmethod
    def from_dict(values: dict, overrides: dict | None = None) -> "ExperimentConfig":
        known = {f.name for f in dataclasses.fields(ExperimentConfig)}
        merged = {**values, **(overrides or {})}
        for key in merged:
            if key not in known:
                raise ValueError(f"unknown config key {key!r}; known keys: "
                                 f"{sorted(known)}")
        return ExperimentConfig(**merged)

    @property
    def geometry(self) -> GeometrySpec:
        return GeometrySpec(R=self.R, L=self.L)

    @property
    def m(self) -> float:
        return self.L + 1.0

    def steps_for(self, h: float) -> int:
        raw = self.T / (self.dt_factor * h)
        return max(12, 4 * int(np.ceil(raw / 4.0)))

    def config_hash(self) -> str:
        blob = json.dumps(self.to_dict(), sort_keys=True).encode()
        return hashlib.sha256(blob).hexdigest()


@dataclass
class StudyReport:
    """Tables of per-case rows plus summary statistics, tagged with the
    config hash."""

    name: str
    config: ExperimentConfig
    tables: dict = field(default_factory=dict)
    summary: dict = field(default_factory=dict)
    passed: bool = True

    def to_dict(self) -> dict:
        return _canon({
            "name": self.name,
            "config": self.config.to_dict(),
            "config_hash": self.config.config_hash(),
            "passed": self.passed,
            "summary": self.summary,
            "tables": self.tables,
        })


def _canon(obj):
    """Convert numpy scalars/arrays so JSON output is plain and deterministic."""
    if isinstance(obj, dict):
        return {str(k): _canon(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_canon(v) for v in obj]
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    if isinstance(obj, np.ndarray):
        return [_canon(v) for v in obj.tolist()]
    if isinstance(obj, np.bool_):
        return bool(obj)
    return obj


def persist_report(report: StudyReport, out_dir: str) -> list:
    """Write <name>.json plus one CSV per table; returns the file paths."""
    try:
        os.makedirs(out_dir, exist_ok=True)
        paths = []
        jpath = os.path.join(out_dir, f"{report.name}.json")
        with open(jpath, "w") as f:
            json.dump(report.to_dict(), f, sort_keys=True, indent=1)
            f.write("\n")
        paths.append(jpath)
        for tname, rows in report.tables.items():
            cpath = os.path.join(out_dir, f"{report.name}_{tname}.csv")
            with open(cpath, "w", newline="") as f:
                if rows:
                    # union of keys, in first-appearance order, so tables with
                    # heterogeneous rows stay loadable
                    names = list(dict.fromkeys(k for row in rows for k in row))
                    writer = csv.DictWriter(f, fieldnames=names, restval="")
                    writer.writeheader()
                    for row in rows:
                        writer.writerow(_canon(row))
            paths.append(cpath)
        return paths
    except OSError as exc:
        raise OSError(f"failed to persist report under {out_dir!r}: {exc}") from exc


# ---------------------------------------------------------------------------
# terminal-data samplers (mesh-independent closed forms)
# ---------------------------------------------------------------------------

def bump(points, center, rho):
    """C^1 polynomial bump ((rho^2 - |x-c|^2)_+)^2 / rho^4."""
    d = np.asarray(points, dtype=float) - np.asarray(center, dtype=float)
    d2 = np.einsum("...d,...d->...", d, d)
    return np.maximum(0.0, rho * rho - d2) ** 2 / rho ** 4


def _bump_at(rad, rng: np.random.Generator, rho: float):
    """The bump of radius rho centred at radius ``rad``, at an angle drawn
    from ``rng``; returns (callable on points, descriptor)."""
    ang = rng.uniform(0.0, 2.0 * np.pi)
    c = (rad * np.cos(ang), rad * np.sin(ang))
    return (lambda x: bump(x, c, rho)), {"center_radius": float(rad)}


def sample_field(family: str, rng: np.random.Generator,
                 cfg: ExperimentConfig):
    """Draw one closed-form datum; returns (callable on points, descriptor)."""
    R, L = cfg.R, cfg.L
    rho = R / 2.0
    if family in ("interior", "adversarial"):
        top = L - 2.0 * rho if family == "interior" else 2.0 * R - rho
        fn, desc = _bump_at(top * np.sqrt(rng.uniform()), rng, rho)
        return fn, {"family": family, **desc}
    if family == "noise":
        J = 6
        freqs = rng.uniform(0.1, 0.6, size=(J, 2))
        phases = rng.uniform(0.0, 2.0 * np.pi, size=J)
        amps = rng.standard_normal(J) / J

        def fn(x):
            x = np.asarray(x, dtype=float)
            r2 = np.einsum("...d,...d->...", x, x)
            envelope = np.maximum(0.0, 1.0 - r2 / (L * L)) ** 2
            waves = sum(a * np.cos(x[..., 0] * f[0] + x[..., 1] * f[1] + p)
                        for a, f, p in zip(amps, freqs, phases))
            return envelope * waves

        return fn, {"family": family}
    raise ValueError(f"unknown family {family!r}")


def _nodal(mesh: Mesh, fn) -> np.ndarray:
    u = np.asarray(fn(mesh.vertices), dtype=float)
    u[mesh.boundary_mask] = 0.0
    return u


def data_bump_a2r7r(rng: np.random.Generator, cfg: ExperimentConfig):
    """Bump supported in the annulus A_{2R,7R}: away from origin and boundary."""
    rho = cfg.R / 2.0
    return _bump_at(rng.uniform(2.0 * cfg.R + rho, 7.0 * cfg.R - rho), rng, rho)


def _solve_named(problem: ParabolicProblem, mesh: Mesh, M: int, theta: float,
                 where: str, names: list, operator=None):
    """``solve`` (with the caller's step ``operator``, if any), with a
    SolverError that names the study's ``where``, the data that went
    non-finite (``names`` holds one name per datum) and the weight."""
    try:
        return solve(problem, mesh, M, theta=theta, operator=operator)
    except SolverError as exc:
        bad = ", ".join(names[j] for j in exc.columns)
        raise SolverError(f"{where}: non-finite values in {bad} at time step "
                          f"{exc.step} of {M} under weight {problem.weight!r}",
                          step=exc.step) from exc


def _finest_drift(config: ExperimentConfig, rows: list, key: str,
                  value: str, groups) -> dict:
    """{g: |v_b - v_a| / v_a} per group g, with v_a and v_b the largest
    ``value`` of the rows whose ``key`` is g on the two finest mesh levels
    (0 where there is none); empty with one level."""
    n = len(config.mesh_levels)
    if n < 2:
        return {}
    drift = {}
    for g in groups:
        va, vb = (max((r[value] for r in rows
                       if r["level"] == li and r[key] == g), default=0.0)
                  for li in (n - 2, n - 1))
        drift[g] = abs(vb - va) / max(va, 1e-300)
    return drift


# ---------------------------------------------------------------------------
# approximation study
# ---------------------------------------------------------------------------

def _approximation_row(config: ExperimentConfig, k: int, fn) -> dict:
    """Gaps between the eps = 1/k regularized solve and the limit solve.

    Each solve factors its own step and frees it on return, so the eps
    factor is gone before the limit factor is built.  The level's mesh and
    trajectories are freed when this returns, before the next level is
    built.
    """
    h = config.mesh_levels[-1]
    M = config.steps_for(h)
    eps = 1.0 / k
    local_h = min(h / 2.0, 1.0 / (4.0 * k))
    mesh = build_disk_mesh(config.geometry, h, local_h=local_h)
    data = _nodal(mesh, fn)
    sol_k, sol_0 = (_solve_named(
        ParabolicProblem(weight=w, T=config.T, data=data), mesh, M,
        config.theta, f"approximation k={k} (h={h})", ["the A(2R,7R) bump"])
        for w in (RegularizedWeight(epsilon=eps, alpha=config.alpha),
                  config.alpha))
    diff = sol_k.fields - sol_0.fields
    ref = np.sqrt(integrate_spacetime(
        mesh, sol_k.times, fields=sol_0.fields ** 2))
    l2q = np.sqrt(integrate_spacetime(mesh, sol_k.times, fields=diff ** 2))
    terminal = np.sqrt(integrate_space(mesh, diff[-1] ** 2))
    # |grad diff|^2 on the cells outside B_2R: the quadratic form of the
    # stiffness of unit weight masked to those cells, per time node
    stiff_k = np.zeros((1, mesh.num_pairs))
    mesh.add_stiffness(stiff_k, (mesh.areas * mesh.cell_mask(
        Region.complement(2.0 * config.R)))[None])
    tau = time_weights(sol_k.times)
    grad_k = np.sqrt(tau @ mesh.quadratic_forms(stiff_k, diff)[0])
    fdiff = boundary_flux(sol_k) - boundary_flux(sol_0)
    E, lengths = mesh.boundary_edge_average()
    fe = (E @ fdiff.T).T                               # flux gap on the edges
    flux_l2 = np.sqrt(tau @ ((fe * fe) @ lengths))
    return {
        "k": int(k), "h_local": float(local_h),
        "vertices": mesh.num_vertices,
        "l2_Q": float(l2q), "l2_Q_relative": float(l2q / ref),
        "terminal": float(terminal), "gradient_K": float(grad_k),
        "flux": float(flux_l2),
    }


def run_approximation_study(config: ExperimentConfig) -> StudyReport:
    """Solve the regularized and limit problems per k and record the gaps."""
    rng = np.random.default_rng(config.seed + 1)
    fn, desc = data_bump_a2r7r(rng, config)
    report = StudyReport(name="approximation", config=config)
    rows = [_approximation_row(config, k, fn) for k in config.k_levels]
    report.tables["convergence"] = rows
    norms = ["l2_Q", "terminal", "gradient_K", "flux"]
    monotone = {
        n: all(rows[i + 1][n] <= 1.10 * rows[i][n]
               for i in range(len(rows) - 1))
        for n in norms}
    report.summary = {
        "datum": desc,
        "first_over_last_l2Q": (rows[0]["l2_Q"] / rows[-1]["l2_Q"]
                                if rows[-1]["l2_Q"] > 0 else float("inf")),
        "final_l2Q_relative": rows[-1]["l2_Q_relative"],
        "monotone_within_10pct": monotone,
    }
    report.passed = (report.summary["first_over_last_l2Q"] >= 2.0
                     and report.summary["final_l2Q_relative"] <= 1e-3
                     and all(monotone.values()))
    return report


# ---------------------------------------------------------------------------
# observability study
# ---------------------------------------------------------------------------

def _observability_record(sol: DiscreteSolution, cfg: ExperimentConfig) -> dict:
    """One sample's row.  ``lhs``, ``rhs`` and the ratios are lumped: nodal
    u^2 against the weights of :meth:`Mesh.quadrature_weights`; the (5.2)
    ``chain_*`` values use the consistent mass, where the chain is exact.
    The two rules differ at O(h^2)."""
    mesh, times = sol.mesh, sol.times
    T, al, R = cfg.T, cfg.alpha, cfg.R
    window = (T / 4.0, 3.0 * T / 4.0)
    # read before u2 exists: the norms' two trajectory-sized temporaries
    # then never coexist with it
    l2sq = sol.l2_norms ** 2
    u2 = sol.fields ** 2
    weight = AbsPowerWeight(2.0 - al)
    lhs = integrate_spacetime(mesh, times, fields=u2, weight=weight,
                              window=window)
    rhs = integrate_spacetime(mesh, times, fields=u2,
                              region=Region.annulus(3.0 * R, 6.0 * R))
    lhs_b4r = integrate_spacetime(mesh, times, fields=u2,
                                  region=Region.ball(4.0 * R),
                                  weight=weight, window=window)
    lhs_out5r = integrate_spacetime(mesh, times, fields=u2,
                                    region=Region.complement(5.0 * R),
                                    weight=weight, window=window)

    # (5.2) chain in the discrete mass-matrix norms where it holds exactly
    window_mass = float(time_weights(times, window) @ l2sq)
    chain_lhs = float(l2sq[0])
    chain_rhs = 2.0 / T * window_mass
    chain_slack = ((chain_rhs - chain_lhs)
                   / max(chain_rhs, chain_lhs, 1e-300))
    violation = bool(rhs < 1e-30 and lhs > 1e-10)
    return {
        "lhs": float(lhs), "rhs": float(rhs),
        "ratio": cl._ratio(lhs, rhs),
        "ratio_b4r": cl._ratio(lhs_b4r, rhs),
        "ratio_outer5r": cl._ratio(lhs_out5r, rhs),
        "chain_lhs": chain_lhs, "chain_rhs": chain_rhs,
        "chain_slack": float(chain_slack),
        "ucp_violation": violation,
    }


def _block_size(M: int, n_vertices: int) -> int:
    """Data per observability solve: at most ``OBSERVABILITY_BLOCK``, and few
    enough that the block's k (M + 1) n_vertices trajectory values stay
    within ``MAX_TRAJECTORY_FLOATS`` (k = 1 near the cap)."""
    fit = MAX_TRAJECTORY_FLOATS // ((M + 1) * n_vertices)
    return max(1, min(OBSERVABILITY_BLOCK, fit))


def _observability_level(config: ExperimentConfig, li: int, h: float) -> list:
    """Records of every sample on mesh level ``li``.

    Every datum is drawn first, in report order; the data are then solved
    in blocks of ``_block_size`` columns with one step operator, factored
    once and dropped once the last block is solved, before that block's
    records.  Each block's trajectories are freed before the next block is
    solved, and the level's mesh when this returns, before the next level
    is built.
    """
    mesh = build_disk_mesh(config.geometry, h)
    M = config.steps_for(h)
    rng = np.random.default_rng(config.seed + 2)
    samples = [(family, si, *sample_field(family, rng, config))
               for family in config.sampler_families
               for si in range(config.sample_count)]
    k = _block_size(M, mesh.num_vertices)
    op = step_operator(mesh, config.alpha, config.T / M, config.theta)
    rows = []
    for start in range(0, len(samples), k):
        block = samples[start:start + k]
        sols = _solve_named(
            ParabolicProblem(weight=config.alpha, T=config.T,
                             data=np.array([_nodal(mesh, fn)
                                            for _, _, fn, _ in block]),
                             direction="backward"), mesh, M, config.theta,
            f"observability level {li} (h={mesh.h})",
            [f"{family} sample {si}" for family, si, _, _ in block], op)
        if start + k >= len(samples):
            # no later block reads the factor
            del op
        rows += _observability_records(config, li, block, sols)
        del sols
    return rows


def _observability_records(config: ExperimentConfig, li: int, block: list,
                           sols: list) -> list:
    """Records of the (family, sample, datum, descriptor) ``block`` from its
    solutions ``sols``, which are scaled in place."""
    rows = []
    for (family, si, _, desc), sol in zip(block, sols):
        rec = _observability_record(sol, config)
        # quadratic homogeneity: the ratio must be scale invariant; the
        # trajectory is not read again, so it is scaled in place
        sol.fields *= 3.0
        scaled = dataclasses.replace(sol)
        rec_s = _observability_record(scaled, config)
        scale_dev = (abs(rec_s["ratio"] - rec["ratio"])
                     / max(rec["ratio"], 1e-300))
        rec.update({"level": li, "h": float(sol.mesh.h), "family": family,
                    "sample": si, "scale_invariance_dev": float(scale_dev)})
        rec.update(desc)
        rows.append(rec)
        log.info("observe level=%d %s sample=%d", li, family, si)
    return rows


def run_observability_study(config: ExperimentConfig) -> StudyReport:
    """Backward solves over the sampler families; ratio LHS/RHS per sample."""
    report = StudyReport(name="observability", config=config)
    rows = []
    for li, h in enumerate(config.mesh_levels):
        rows += _observability_level(config, li, h)
    report.tables["samples"] = rows
    fam_max = {f"max_ratio_L{li}_{family}": max(
        r["ratio"] for r in rows if r["level"] == li and r["family"] == family)
        for li in range(len(config.mesh_levels))
        for family in config.sampler_families}
    drift = _finest_drift(config, rows, "family", "ratio",
                          config.sampler_families)
    violations = [r for r in rows if r["ucp_violation"]]
    worst_chain = min(r["chain_slack"] for r in rows)
    report.summary = {
        "family_max_ratios": fam_max,
        "max_drift": drift,
        "ucp_violations": len(violations),
        "worst_chain_slack": float(worst_chain),
        "all_finite": bool(all(np.isfinite(r["ratio"]) for r in rows)),
        "max_scale_invariance_dev": float(
            max(r["scale_invariance_dev"] for r in rows)),
    }
    report.passed = (len(violations) == 0
                     and report.summary["all_finite"]
                     and worst_chain >= -1e-8
                     and all(v < 0.5 for v in drift.values()))
    return report


# ---------------------------------------------------------------------------
# carleman sweep
# ---------------------------------------------------------------------------

def run_carleman_sweep(config: ExperimentConfig) -> StudyReport:
    """Tabulate implied constants over the s/gamma/lambda grids per mesh level.

    Per level, the two step operators (alpha and regularized) are factored
    once; the families are then solved in blocks of at most
    ``CARLEMAN_BLOCK``, one block solve per weight.  Both factors are
    dropped once the level's last block is solved, before that block's
    balances, and each family's trajectories, fluxes and contexts are freed
    once its rows are written, so one block's trajectories are alive at a
    time.
    """
    report = StudyReport(name="carleman", config=config)
    eps = config.carleman_epsilon
    reg = RegularizedWeight(epsilon=eps, alpha=config.alpha)
    eta_bar = cl.fursikov_eta_bar(config.R, config.L)
    rng_data = np.random.default_rng(config.seed + 3)
    data_fns = [sample_field("interior", rng_data, config)[0]
                for _ in range(config.carleman_family_count)]
    rows, theta_rows = [], []
    for T in (0.5, 1.0, 2.0):
        chk = cl.theta_bound_check(T)
        chk["T"] = T
        theta_rows.append(chk)
    base_params = cl.CarlemanParams(
        s=config.s_default, gamma=config.gamma_default, lam=config.lambda_default,
        T=config.T, m=config.m, alpha=config.alpha, R=config.R)
    scale_devs = []
    for li, h in enumerate(config.mesh_levels):
        mesh = build_disk_mesh(config.geometry, h,
                               local_h=min(h / 2.0, eps / 4.0))
        M = config.steps_for(h)
        # the level's two steps, each factored once for every block
        ops = [step_operator(mesh, w, config.T / M, config.theta)
               for w in (config.alpha, reg)]
        for start in range(0, len(data_fns), CARLEMAN_BLOCK):
            block = range(start, min(start + CARLEMAN_BLOCK, len(data_fns)))
            data = np.array([_nodal(mesh, data_fns[di]) for di in block])
            families = list(zip(block, *(_solve_named(
                ParabolicProblem(weight=op.weight, T=config.T, data=data,
                                 direction="backward"), mesh, M, config.theta,
                f"carleman level {li} (h={mesh.h})",
                [f"interior sample {di}" for di in block], op)
                for op in ops)))
            if block.stop == len(data_fns):
                # no later block reads the factors: none is alive through
                # this block's balances, nor when the next level factors
                del ops
            # popped, so a family's solutions go once its rows are written
            # (the block's trajectory array with the last of them)
            while families:
                family_rows, dev = _carleman_family(
                    config, li, h, *families.pop(0), base_params, reg,
                    eta_bar)
                rows += family_rows
                scale_devs.append(dev)
    report.tables["sweep"] = rows
    report.tables["theta_checks"] = theta_rows
    default_rows = [r for r in rows
                    if r["s"] == config.s_default
                    and r["gamma"] == config.gamma_default
                    and r["lambda"] == config.lambda_default]
    drift = _finest_drift(config, default_rows, "variant", "implied_C",
                          cl.VARIANTS)
    all_finite = bool(all(np.isfinite(r["implied_C"]) for r in rows))
    report.summary = {
        "all_finite": all_finite,
        "drift": drift,
        "max_scale_invariance_dev": float(max(scale_devs)),
        "theta_checks_ok": bool(all(t["c1_ok"] for t in theta_rows)),
    }
    report.passed = (all_finite
                     and report.summary["theta_checks_ok"]
                     and report.summary["max_scale_invariance_dev"] <= 1e-10
                     and all(v < 0.5 for v in drift.values()))
    return report


def _carleman_family(config: ExperimentConfig, li: int, h: float, di: int,
                     sol0: DiscreteSolution, solr: DiscreteSolution,
                     base_params, reg, eta_bar) -> tuple:
    """Sweep rows of family ``di`` from its exact (``sol0``) and regularized
    (``solr``) trajectories, and its scale-invariance deviation; its
    fluxes, contexts and scaled copy are freed when this returns."""
    flux0 = boundary_flux(sol0)
    fluxr = boundary_flux(solr)
    param_points = [(config.s_default, config.gamma_default,
                     config.lambda_default)]
    if di < config.carleman_sweep_samples:
        param_points = [(s, g, config.lambda_default)
                        for s in config.carleman_s
                        for g in config.carleman_gamma]
        param_points += [(s, config.gamma_default, lam)
                         for s in config.carleman_s
                         for lam in config.carleman_lambda]
    ctx0 = cl.BalanceContext(sol0, base_params)
    ctxr = cl.BalanceContext(solr, base_params)
    rows = []
    for s, g, lam in dict.fromkeys(param_points):
        params = dataclasses.replace(base_params, s=s, gamma=g, lam=lam)
        for variant in cl.VARIANTS:
            # thm41 reads the regularized trajectory, the rest u_0
            sol, flux, ctx = ((solr, fluxr, ctxr) if variant == "thm41"
                              else (sol0, flux0, ctx0))
            res = cl.carleman_balance(sol, params, variant, weight=reg,
                                      flux=flux, eta_bar=eta_bar,
                                      context=ctx)
            rows.append({
                "level": li, "h": float(h), "sample": di,
                "variant": variant, "s": s, "gamma": g, "lambda": lam,
                "implied_C": res["implied_C"],
                "lhs": res["lhs"], "rhs": res["rhs"],
                "exponent_shift": res["exponent_shift"],
            })
    # scale invariance at the default point
    base = cl.carleman_balance(sol0, base_params, "thm43", context=ctx0)
    scaled_sol = dataclasses.replace(sol0, fields=10.0 * sol0.fields)
    scaled = cl.carleman_balance(scaled_sol, base_params, "thm43")
    log.info("carleman level=%d sample=%d", li, di)
    return rows, (abs(scaled["implied_C"] - base["implied_C"])
                  / max(base["implied_C"], 1e-300))
