"""End-to-end acceptance gate.

Each test covers one headline capability at its stated tolerance and time
budget and prints a single [PASS]/[FAIL] line.  Tolerances here are the
contract; the per-module tests probe the same code in finer detail.
"""

import hashlib
import os
import subprocess
import sys
import time

import numpy as np

import degenlab
from degenlab.domain import GeometrySpec, build_disk_mesh
from degenlab.experiments import (ExperimentConfig, bump,
                                  run_approximation_study,
                                  run_carleman_sweep,
                                  run_observability_study, sample_field,
                                  _nodal)
from degenlab.solver import (ManufacturedField, ParabolicProblem,
                             energy_report, manufactured_source, solve,
                             step_operator)
from degenlab.spaces import inequality_ratio_table
from degenlab.weights import (AbsPowerWeight, CubeFamily, RegularizedWeight,
                              ap_constant_estimate, identity_residuals)


def _verdict(capsys, ok: bool, num: int, detail: str, elapsed: float,
             budget: float):
    with capsys.disabled():
        tag = "PASS" if ok and elapsed < budget else "FAIL"
        print(f"[{tag}] criterion {num}: {detail} ({elapsed:.1f}s / "
              f"budget {budget:.0f}s)")
    assert ok, detail
    assert elapsed < budget, f"criterion {num} exceeded {budget:.0f}s budget"


def test_criterion_1_weight_calculus(capsys):
    t0 = time.perf_counter()
    eps = 0.25
    w = RegularizedWeight(epsilon=eps, alpha=1.0)
    jump = max(abs(w.psi(eps) - eps), abs(w.psi_prime(eps) - 1.0),
               abs(w.psi_second(eps)))
    rng = np.random.default_rng(7)
    worst = 0.0
    for _ in range(1000):
        ang = rng.uniform(0.0, 2.0 * np.pi)
        rad = eps * np.sqrt(rng.uniform())
        res = identity_residuals(w, (rad * np.cos(ang), rad * np.sin(ang)))
        worst = max(worst, max(abs(v) for v in res.values()))
    # gradient evaluator vs central finite differences: observed order
    pts = np.array([[0.08, 0.03], [0.15, -0.1], [0.4, 0.5], [-0.7, 0.2]])
    hs = (1e-3, 5e-4, 2.5e-4)
    errs = []
    for h in hs:
        e = 0.0
        for p in pts:
            fd = np.array([
                (w(p + [h, 0.0]) - w(p - [h, 0.0])) / (2 * h),
                (w(p + [0.0, h]) - w(p - [0.0, h])) / (2 * h)])
            e = max(e, float(np.max(np.abs(fd - w.gradient(p[None])[0]))))
        errs.append(e)
    orders = [np.log2(errs[i] / errs[i + 1]) for i in range(len(hs) - 1)]
    order = min(orders)
    ok = jump < 1e-12 and worst < 1e-12 and order >= 1.9
    _verdict(capsys, ok, 1,
             f"matching jump {jump:.1e}, worst identity residual "
             f"{worst:.1e}, FD order {order:.2f}", time.perf_counter() - t0,
             1.0)


def test_criterion_2_ap_uniformity(capsys):
    t0 = time.perf_counter()
    cubes = CubeFamily(half=2.0, levels=3, random_per_level=64, seed=11)
    exact = ap_constant_estimate(AbsPowerWeight(1.0), 2.0, cubes,
                                 singular_radius=1e-3)
    vals = {}
    for eps in (0.25, 0.125, 1.0 / 16.0, 1.0 / 32.0, 1.0 / 64.0):
        w = RegularizedWeight(epsilon=eps, alpha=1.0)
        vals[eps] = ap_constant_estimate(w, 2.0, cubes,
                                         singular_radius=eps)
    const = ap_constant_estimate(
        lambda x: np.ones(len(np.atleast_2d(x))), 2.0, cubes)
    ok = (all(v >= 1.0 for v in vals.values())
          and all(exact / 2.0 <= v <= 2.0 * exact for v in vals.values())
          and abs(const - 1.0) <= 1e-6)
    _verdict(capsys, ok, 2,
             f"A_2 estimates in [{min(vals.values()):.3f}, "
             f"{max(vals.values()):.3f}], exact {exact:.3f}, "
             f"constant-weight {const:.8f}", time.perf_counter() - t0, 10.0)


def test_criterion_3_functional_inequalities(capsys):
    t0 = time.perf_counter()
    cfg = ExperimentConfig()
    mesh = build_disk_mesh(cfg.geometry, 1.0 / 16.0)
    rng = np.random.default_rng(7)
    fns = [sample_field(cfg.sampler_families[i % 3], rng, cfg)[0]
           for i in range(100)]
    fields = np.array([_nodal(mesh, fn) for fn in fns])
    tab = inequality_ratio_table(mesh, fields, cfg.alpha,
                                 cfg.carleman_epsilon)
    worst = max(float(np.max(v)) for v in tab.values())
    # the argmax field per inequality, re-evaluated on one refinement; the
    # quadrature approaches the singular integrals from below, so "does not
    # increase" carries a one-ulp-scale tolerance on the 2% budget
    fine = build_disk_mesh(cfg.geometry, 1.0 / 32.0)
    idx = {k: int(np.argmax(v)) for k, v in tab.items()}
    wanted = sorted(set(idx.values()))
    ffields = np.array([_nodal(fine, fns[i]) for i in wanted])
    ftab = inequality_ratio_table(fine, ffields, cfg.alpha,
                                  cfg.carleman_epsilon)
    pos = {i: j for j, i in enumerate(wanted)}
    no_increase = all(
        float(ftab[k][pos[idx[k]]]) <= float(tab[k][idx[k]]) + 1e-3
        for k in tab)
    ok = worst <= 1.02 and no_increase
    _verdict(capsys, ok, 3,
             f"worst of 5 ratios over 100 fields {worst:.4f} <= 1.02, "
             f"stable under refinement: {no_increase}",
             time.perf_counter() - t0, 30.0)


def test_criterion_4_solver_correctness(capsys):
    t0 = time.perf_counter()
    target = ManufacturedField(
        value=lambda x, t: np.exp(-t) * (1.0 - np.einsum("nd,nd->n", x, x)),
        dt=lambda x, t: -np.exp(-t) * (1.0 - np.einsum("nd,nd->n", x, x)),
        grad=lambda x, t: -2.0 * np.exp(-t) * x,
        lap=lambda x, t: np.full(len(x), -4.0 * np.exp(-t)))
    weight = RegularizedWeight(epsilon=0.05, alpha=1.0)
    src = manufactured_source(target, weight)
    spec = GeometrySpec(R=0.12, L=1.0)

    def l2q_error(h, M, theta):
        mesh = build_disk_mesh(spec, h, local_h=min(h / 2.0, 0.0125))
        data = target.value(mesh.vertices, 0.0)
        sol = solve(ParabolicProblem(weight=weight, T=0.5, data=data,
                                     source=src), mesh, M, theta=theta)
        err2 = np.empty(len(sol.times))
        for n, t in enumerate(sol.times):
            d = sol.fields[n] - target.value(mesh.vertices, t)
            err2[n] = d @ (sol.mass @ d)
        return float(np.sqrt(np.trapezoid(err2, sol.times)))

    e_cn = [l2q_error(h, M, 0.5) for h, M in ((0.1, 10), (0.05, 20),
                                              (0.025, 40))]
    order_cn = min(np.log2(e_cn[i] / e_cn[i + 1]) for i in range(2))
    e_ie = [l2q_error(h, M, 1.0) for h, M in ((0.1, 10), (0.05, 20))]
    order_ie = float(np.log2(e_ie[0] / e_ie[1]))

    mesh = build_disk_mesh(spec, 0.1)
    zero = solve(ParabolicProblem(weight=weight, T=0.5,
                                  data=np.zeros(mesh.num_vertices)), mesh, 8)
    exact_zero = bool(np.all(zero.fields == 0.0))
    rng = np.random.default_rng(0)
    data = rng.normal(size=mesh.num_vertices)
    data[mesh.boundary_mask] = 0.0
    decay = solve(ParabolicProblem(weight=weight, T=0.5, data=data),
                  mesh, 16, theta=1.0)
    slack = float(np.min(-np.diff(decay.l2_norms)))

    ok = (order_cn >= 1.8 and order_ie >= 0.9 and exact_zero
          and slack >= -1e-12)
    _verdict(capsys, ok, 4,
             f"manufactured orders {order_cn:.2f} (midpoint) / "
             f"{order_ie:.2f} (implicit), zero data exact: {exact_zero}, "
             f"decay slack {slack:.1e}", time.perf_counter() - t0, 120.0)


def test_criterion_5_energy_estimates(capsys):
    t0 = time.perf_counter()
    cfg = ExperimentConfig()
    w = RegularizedWeight(epsilon=0.125, alpha=1.0)
    rng = np.random.default_rng(11)
    meshes = [build_disk_mesh(cfg.geometry, h) for h in (0.3, 0.24)]
    # one step operator per mesh, factored once for its 20 sourced solves
    ops = [step_operator(mesh, w, 1.0 / cfg.steps_for(mesh.h), 1.0)
           for mesh in meshes]
    consts = []
    for i in range(20):
        fn, _ = sample_field(cfg.sampler_families[i % 3], rng, cfg)
        rad = rng.uniform(2.0, 7.0)
        ang = rng.uniform(0.0, 2.0 * np.pi)
        rho = rng.uniform(0.8, 1.6)
        ctr = np.array([rad * np.cos(ang), rad * np.sin(ang)])
        om = rng.uniform(0.5, 3.0)
        src = (lambda x, t, ctr=ctr, rho=rho, om=om:
               np.cos(om * t) * bump(x, ctr, rho))
        pair = []
        for mesh, op in zip(meshes, ops):
            sol = solve(ParabolicProblem(weight=w, T=1.0,
                                         data=_nodal(mesh, fn), source=src),
                        mesh, cfg.steps_for(mesh.h), operator=op)
            pair.append(energy_report(sol)["empirical_constant"])
        consts.append(pair)
    consts = np.array(consts)
    variation = float(np.max(np.maximum(consts[:, 1] / consts[:, 0],
                                        consts[:, 0] / consts[:, 1])))
    finite = bool(np.all(np.isfinite(consts)))
    data = _nodal(meshes[1], sample_field("interior",
                                          np.random.default_rng(1), cfg)[0])
    unforced = solve(ParabolicProblem(weight=w, T=1.0, data=data),
                     meshes[1], 16, theta=1.0)
    ident = energy_report(unforced)["identity_constant"]
    ok = finite and variation < 2.0 and abs(ident - 1.0) <= 1e-8
    _verdict(capsys, ok, 5,
             f"20 sourced constants finite: {finite}, refinement variation "
             f"{variation:.3f} < 2, unforced identity {ident:.10f}",
             time.perf_counter() - t0, 60.0)


def test_criterion_6_approximation_convergence(capsys):
    t0 = time.perf_counter()
    report = run_approximation_study(ExperimentConfig(seed=7))
    s = report.summary
    ok = (report.passed
          and s["first_over_last_l2Q"] >= 2.0
          and s["final_l2Q_relative"] <= 1e-3
          and all(s["monotone_within_10pct"].values()))
    _verdict(capsys, ok, 6,
             f"regularization gap shrinks {s['first_over_last_l2Q']:.1f}x, "
             f"final relative {s['final_l2Q_relative']:.1e}, all four "
             f"difference norms monotone", time.perf_counter() - t0, 180.0)


def test_criterion_7_observability_ucp(capsys):
    t0 = time.perf_counter()
    report = run_observability_study(ExperimentConfig(seed=7))
    s = report.summary
    ok = (report.passed and s["all_finite"] and s["ucp_violations"] == 0
          and all(v < 0.5 for v in s["max_drift"].values())
          and s["worst_chain_slack"] >= -1e-8)
    _verdict(capsys, ok, 7,
             f"150 samples/level finite, 0 UCP violations, max family drift "
             f"{max(s['max_drift'].values()):.3f}, worst window-chain slack "
             f"{s['worst_chain_slack']:.2e}", time.perf_counter() - t0, 180.0)


def test_criterion_8_carleman_balances(capsys):
    t0 = time.perf_counter()
    report = run_carleman_sweep(ExperimentConfig(seed=7))
    s = report.summary
    ok = (report.passed and s["all_finite"]
          and s["max_scale_invariance_dev"] <= 1e-10
          and all(v < 0.5 for v in s["drift"].values())
          and s["theta_checks_ok"])
    _verdict(capsys, ok, 8,
             f"implied constants finite over sweep, scale dev "
             f"{s['max_scale_invariance_dev']:.1e}, max drift "
             f"{max(s['drift'].values()):.3f}, time-weight bound certified",
             time.perf_counter() - t0, 120.0)


def _tree_digest(root):
    digest = {}
    for dirpath, _, files in os.walk(root):
        for name in sorted(files):
            path = os.path.join(dirpath, name)
            rel = os.path.relpath(path, root)
            digest[rel] = hashlib.sha256(open(path, "rb").read()).hexdigest()
    return digest


# the full pipeline with sample counts shrunk so the double run stays well
# inside the suite budget; the code path per artifact is identical
C9_CMD = [sys.executable, "-m", "degenlab.cli", "all", "--seed", "7",
          "--set", "sample_count=4", "--set", "carleman_family_count=2",
          "--set", "carleman_sweep_samples=1", "--set", "k_levels=[8,16]"]


def _package_env():
    """The environment with the import root of the package under test first
    on PYTHONPATH: the children run in temporary directories, where a
    relative PYTHONPATH no longer resolves."""
    root = os.path.dirname(os.path.dirname(os.path.abspath(degenlab.__file__)))
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (root, os.environ.get("PYTHONPATH")) if p))


def test_criterion_9_determinism(capsys, tmp_path):
    t0 = time.perf_counter()
    cmd, env = C9_CMD, _package_env()
    probe = subprocess.run(
        [sys.executable, "-c", "import degenlab; print(degenlab.__file__)"],
        cwd=tmp_path, env=env, capture_output=True, text=True)
    assert probe.returncode == 0, probe.stderr
    assert (os.path.realpath(probe.stdout.strip())
            == os.path.realpath(degenlab.__file__)), probe.stdout
    digests = []
    for name in ("run1", "run2"):
        cwd = tmp_path / name
        cwd.mkdir()
        proc = subprocess.run(cmd, cwd=cwd, env=env, capture_output=True,
                              text=True)
        assert proc.returncode == 0, proc.stderr
        digests.append(_tree_digest(cwd / "results"))
    identical = digests[0] == digests[1]
    ok = identical and len(digests[0]) > 0
    _verdict(capsys, ok, 9,
             f"two seeded runs produced {len(digests[0])} files, "
             f"byte-identical: {identical}", time.perf_counter() - t0, 600.0)


def test_criterion_9_blas_thread_count(tmp_path):
    # beside criterion 9, never instead of it: every reduction that feeds a
    # report runs in an order the code fixes (numpy's own reductions, not a
    # BLAS dot that splits a long sum across threads), so the criterion-9
    # run gives one result tree at one and at two BLAS threads
    digests = []
    for threads in ("1", "2"):
        cwd = tmp_path / threads
        cwd.mkdir()
        proc = subprocess.run(
            C9_CMD, cwd=cwd, capture_output=True, text=True,
            env=dict(_package_env(), OPENBLAS_NUM_THREADS=threads))
        assert proc.returncode == 0, proc.stderr
        digests.append(_tree_digest(cwd / "results"))
    assert len(digests[0]) > 0
    differ = sorted(name for name in digests[0].keys() | digests[1].keys()
                    if digests[0].get(name) != digests[1].get(name))
    assert not differ, differ
