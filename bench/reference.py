"""Regenerate the reference figures quoted in bench/README.md.

    python3 bench/reference.py mesh                # build + assembly per h
    python3 bench/reference.py balance             # cost per Carleman variant
    python3 bench/reference.py profile observe     # cProfile shares

Run from the root of a checkout with one BLAS thread, as the benchmark does:

    OPENBLAS_NUM_THREADS=1 OMP_NUM_THREADS=1 python3 bench/reference.py mesh

Times are medians of five repetitions in one process. ``profile`` runs one
full-size call of a workload under cProfile, which inflates Python-level
calls against native code, so its shares locate time and do not measure it.
"""

from __future__ import annotations

import cProfile
import os
import pstats
import statistics
import sys
import tempfile
import time

import numpy as np

sys.path.insert(0, os.path.join(os.getcwd(), "src"))

from degenlab import carleman, domain, experiments, solver  # noqa: E402
from degenlab.weights import RegularizedWeight  # noqa: E402

import worker  # noqa: E402

REPS = 5


def median_ms(fn) -> float:
    times = []
    for _ in range(REPS):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return 1000.0 * statistics.median(times)


def mesh_figures():
    cfg = experiments.ExperimentConfig()
    for h in (0.24, 0.18, 1.0 / 16.0):
        build = median_ms(lambda: domain.build_disk_mesh(cfg.geometry, h))
        mesh = domain.build_disk_mesh(cfg.geometry, h)
        assemble = median_ms(lambda: (solver.assemble_mass(mesh),
                                      solver.assemble_stiffness(mesh, cfg.alpha)))
        print(f"h={h:.4f} vertices={mesh.num_vertices} "
              f"mesh_build_ms={build:.1f} assembly_ms={assemble:.1f}")


def balance_figures():
    cfg = experiments.ExperimentConfig()
    h, eps = 0.18, cfg.carleman_epsilon
    mesh = domain.build_disk_mesh(cfg.geometry, h,
                                  local_h=min(h / 2.0, eps / 4.0))
    rng = np.random.default_rng(cfg.seed + 3)
    data = worker._nodal(mesh, experiments.sample_field("interior", rng, cfg)[0])
    reg = RegularizedWeight(epsilon=eps, alpha=cfg.alpha)
    sols = {w: solver.solve(solver.ParabolicProblem(
        weight=w, T=cfg.T, data=data, direction="backward"),
        mesh, cfg.steps_for(h)) for w in (cfg.alpha, reg)}
    params = carleman.CarlemanParams(T=cfg.T, m=cfg.m, alpha=cfg.alpha, R=cfg.R)
    ctx = {w: carleman.BalanceContext(s, params) for w, s in sols.items()}
    flux = {w: solver.boundary_flux(s) for w, s in sols.items()}
    print(f"h={h} vertices={mesh.num_vertices} context_ms="
          f"{median_ms(lambda: carleman.BalanceContext(sols[cfg.alpha], params)):.1f}")
    for v in carleman.VARIANTS:
        w = reg if v == "thm41" else cfg.alpha
        kw = {"context": ctx[w]}
        if v in ("thm41", "thm42"):
            kw["flux"] = flux[w]
        if v == "thm41":
            kw["weight"] = reg
        ms = median_ms(lambda: carleman.carleman_balance(sols[w], params, v, **kw))
        print(f"{v:12s} balance_ms={ms:.1f}")


def profile_figures(workload: str):
    with tempfile.TemporaryDirectory(dir=os.getcwd()) as out:
        prof = cProfile.Profile()
        prof.runcall(worker.run_call, workload, 1, out, False, False, False)
    stats = pstats.Stats(prof)
    total = max(v[3] for v in stats.stats.values())     # outermost cumtime
    rows = sorted(((v[3], f"{os.path.basename(k[0])}:{k[2]}")
                   for k, v in stats.stats.items()
                   if "degenlab" in k[0] or k[2] in ("cg", "spsolve")),
                  reverse=True)
    print(f"{workload}: {total:.2f} s under cProfile; cumulative shares")
    for cum, name in rows[:15]:
        print(f"  {100.0 * cum / total:5.1f}%  {name}")


if __name__ == "__main__":
    what = sys.argv[1] if len(sys.argv) > 1 else ""
    if what == "mesh":
        mesh_figures()
    elif what == "balance":
        balance_figures()
    elif what == "profile" and len(sys.argv) > 2:
        profile_figures(sys.argv[2])
    else:
        sys.exit(__doc__)
