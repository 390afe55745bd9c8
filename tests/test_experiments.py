"""Config round-trips, samplers, report persistence and study rows."""

import json
import weakref

import numpy as np
import pytest

from degenlab.domain import GeometrySpec, Region, build_disk_mesh
from degenlab import experiments, solver
from degenlab.experiments import (CARLEMAN_BLOCK, MAX_TRAJECTORY_FLOATS,
                                  OBSERVABILITY_BLOCK, ExperimentConfig,
                                  StudyReport, _approximation_row,
                                  _block_size, _nodal, _observability_level,
                                  bump, data_bump_a2r7r, persist_report,
                                  sample_field)
from degenlab.solver import (ParabolicProblem, SolverError, boundary_flux,
                             solve)
from degenlab.weights import RegularizedWeight

from conftest import p1_cell_gradient, traced_peak


class TestConfig:
    def test_defaults_valid(self):
        cfg = ExperimentConfig()
        assert cfg.geometry == GeometrySpec(R=1.0, L=9.0)
        assert cfg.m == 10.0

    def test_unknown_key_rejected(self):
        with pytest.raises(ValueError, match="unknown config key"):
            ExperimentConfig.from_dict({"not_a_knob": 1})

    def test_override_wins(self):
        cfg = ExperimentConfig.from_dict({"seed": 3}, {"seed": 9})
        assert cfg.seed == 9

    def test_dict_round_trip(self):
        cfg = ExperimentConfig(seed=5, k_levels=(4, 8), mesh_levels=(0.5, 0.4))
        again = ExperimentConfig.from_dict(cfg.to_dict())
        assert again == cfg

    def test_validation(self):
        with pytest.raises(ValueError):
            ExperimentConfig(alpha=2.5)
        with pytest.raises(ValueError):
            ExperimentConfig(L=7.0)
        with pytest.raises(ValueError):
            ExperimentConfig(k_levels=(8, 8))
        with pytest.raises(ValueError):
            ExperimentConfig(mesh_levels=(0.18, 0.24))
        with pytest.raises(ValueError):
            ExperimentConfig(sampler_families=("interior", "bogus"))

    @pytest.mark.parametrize("values", [
        {"mesh_levels": (1.5,)}, {"mesh_levels": (-0.2,)},
        {"mesh_levels": (1.0,)}, {"mesh_levels": (0.5, 0.0)},
        {"k_levels": (0, 8)}, {"k_levels": (-4, 8)}, {"k_levels": (0.5, 8)},
        {"L": float("inf")}, {"T": float("nan")}, {"dt_factor": float("inf")},
        {"k_levels": (8, float("inf"))}, {"carleman_s": (4.0, float("inf"))},
        {"k_levels": (8.5, 16)}, {"k_levels": (8.0, 16)}, {"k_levels": (True, 16)},
        {"mesh_levels": (1e-4,)}, {"mesh_levels": (0.24, 1.0 / 40.0)},
        {"dt_factor": 1e-9}, {"dt_factor": 1e-300},
        {"dt_factor": 0.5, "mesh_levels": (0.24, 1.0 / 32.0)}])
    def test_degenerate_values_rejected(self, values):
        # each of these would otherwise fail inside a study: a traceback from
        # the mesh builder, a division by zero, a ring loop that never ends,
        # a row reporting int(k) for a fractional k, or a mesh too large for
        # memory (judged from a closed-form vertex bound and the step count,
        # nothing is built or solved: 64 steps on h = 1/32 is 20 M values)
        key = next(iter(values))
        with pytest.raises(ValueError, match=key):
            ExperimentConfig(**values)

    def test_vertex_cap_admits_h_1_32(self):
        cfg = ExperimentConfig(mesh_levels=(0.24, 1.0 / 32.0),
                               k_levels=(8, 16, 32, 64, 128))
        assert cfg.mesh_levels[-1] == 1.0 / 32.0

    def test_step_cap_admits_vertex_capped_meshes(self):
        # at dt_factor = 1 the vertex cap binds first: h = 1/36, the finest
        # mesh it admits, takes 36 steps; 48 steps there exceed the step cap
        cfg = ExperimentConfig(mesh_levels=(0.24, 1.0 / 36.0))
        assert cfg.steps_for(1.0 / 36.0) == 36
        with pytest.raises(ValueError, match="dt_factor"):
            ExperimentConfig(mesh_levels=(0.24, 1.0 / 36.0), dt_factor=0.8)

    def test_steps_floor_and_granularity(self):
        cfg = ExperimentConfig()
        for h in (0.5, 0.24, 0.18, 0.05):
            M = cfg.steps_for(h)
            assert M >= 12 and M % 4 == 0
            assert M >= cfg.T / h

    def test_hash_stable_and_sensitive(self):
        a = ExperimentConfig(seed=1)
        assert a.config_hash() == ExperimentConfig(seed=1).config_hash()
        assert a.config_hash() != ExperimentConfig(seed=2).config_hash()


class TestSamplers:
    def test_bump_support_and_peak(self):
        pts = np.array([[0.0, 0.0], [0.5, 0.0], [0.51, 0.0], [2.0, 2.0]])
        v = bump(pts, (0.0, 0.0), 0.5)
        assert v[0] == 1.0
        assert v[1] == 0.0 and v[2] == 0.0 and v[3] == 0.0
        assert np.all(v >= 0.0)

    def test_families_deterministic(self):
        cfg = ExperimentConfig()
        pts = np.random.default_rng(1).uniform(-9, 9, size=(40, 2))
        for fam in cfg.sampler_families:
            f1, d1 = sample_field(fam, np.random.default_rng(7), cfg)
            f2, d2 = sample_field(fam, np.random.default_rng(7), cfg)
            assert d1 == d2
            assert np.array_equal(f1(pts), f2(pts))

    def test_unknown_family(self):
        with pytest.raises(ValueError):
            sample_field("plaid", np.random.default_rng(0), ExperimentConfig())

    def test_nodal_zero_boundary(self):
        mesh = build_disk_mesh(GeometrySpec(R=1.0, L=9.0), 0.5)
        cfg = ExperimentConfig()
        fn, _ = sample_field("noise", np.random.default_rng(3), cfg)
        u = _nodal(mesh, fn)
        assert np.all(u[mesh.boundary_mask] == 0.0)
        assert np.any(u != 0.0)


class TestReports:
    def test_persist_and_load_round_trip(self, tmp_path):
        cfg = ExperimentConfig(seed=4)
        rep = StudyReport(name="demo", config=cfg, passed=True)
        rep.summary = {"score": np.float64(1.5), "flag": np.bool_(True)}
        rep.tables["t"] = [{"a": 1, "b": np.float64(2.0)}]
        paths = persist_report(rep, str(tmp_path))
        assert sorted(p.split("/")[-1] for p in paths) == ["demo.json",
                                                           "demo_t.csv"]
        with open(paths[0]) as f:
            loaded = json.load(f)
        assert loaded["config_hash"] == cfg.config_hash()
        assert loaded["summary"] == {"score": 1.5, "flag": True}
        assert loaded["tables"]["t"] == [{"a": 1, "b": 2.0}]

    def test_heterogeneous_rows_csv(self, tmp_path):
        rep = StudyReport(name="mixed", config=ExperimentConfig())
        rep.tables["rows"] = [{"x": 1.0}, {"x": 2.0, "y": 3.0}, {"y": 4.0}]
        paths = persist_report(rep, str(tmp_path))
        csv_path = [p for p in paths if p.endswith(".csv")][0]
        lines = open(csv_path).read().strip().splitlines()
        assert lines[0] == "x,y"
        assert lines[1:] == ["1.0,", "2.0,3.0", ",4.0"]

    def test_persist_twice_identical(self, tmp_path):
        cfg = ExperimentConfig(seed=6)
        rep = StudyReport(name="same", config=cfg,
                          summary={"v": 1.0 / 3.0},
                          tables={"t": [{"a": 0.1, "b": 0.2}]})
        p1 = persist_report(rep, str(tmp_path / "one"))
        p2 = persist_report(rep, str(tmp_path / "two"))
        for a, b in zip(p1, p2):
            assert open(a, "rb").read() == open(b, "rb").read()

    def test_bad_directory_raises(self):
        rep = StudyReport(name="x", config=ExperimentConfig())
        with pytest.raises(OSError):
            persist_report(rep, "/proc/no-such-dir/out")


class TestApproximationRow:
    def test_gradient_and_flux_gaps_match_loops(self):
        # the mesh operators against per-slice cell gradients and a per-edge
        # flux average written out by hand, on the row's own trajectories
        cfg = ExperimentConfig(mesh_levels=(0.5,), k_levels=(8,))
        fn, _ = data_bump_a2r7r(np.random.default_rng(1), cfg)
        row = _approximation_row(cfg, 8, fn)
        mesh = build_disk_mesh(cfg.geometry, 0.5, local_h=1.0 / 32.0)
        data = _nodal(mesh, fn)
        sols = [solve(ParabolicProblem(weight=w, T=cfg.T, data=data), mesh,
                      cfg.steps_for(0.5))
                for w in (RegularizedWeight(epsilon=1.0 / 8.0, alpha=cfg.alpha),
                          cfg.alpha)]
        times = sols[0].times
        outer = mesh.cell_mask(Region.complement(2.0 * cfg.R))
        g2 = [np.sum(p1_cell_gradient(mesh, d) ** 2, axis=1)[outer]
              @ mesh.areas[outer]
              for d in sols[0].fields - sols[1].fields]
        assert np.isclose(row["gradient_K"], np.sqrt(np.trapezoid(g2, times)),
                          rtol=1e-12, atol=0.0)
        fdiff = boundary_flux(sols[0]) - boundary_flux(sols[1])
        col = {v: i for i, v in enumerate(np.flatnonzero(mesh.boundary_mask))}
        f2 = [sum((0.5 * (f[col[a]] + f[col[b]])) ** 2
                  * np.linalg.norm(mesh.vertices[b] - mesh.vertices[a])
                  for a, b in mesh.boundary_edges) for f in fdiff]
        assert row["flux"] > 0.0
        assert np.isclose(row["flux"], np.sqrt(np.trapezoid(f2, times)),
                          rtol=1e-12, atol=0.0)

    def test_row_traced_peak(self):
        # tracemalloc peak of one row at h = 0.18, k = 8 (default config,
        # 9,274 vertices), mesh build included: 12.69 MB, 12.73 MB as the
        # first row of a process; the bound is 12.8 MB.  With a quadrature
        # for the unweighted nodal weights, the gradient operator for
        # gradient_K and sliced step matrices it peaked at 23.0 MB.
        cfg = ExperimentConfig(k_levels=(8,))
        fn, _ = data_bump_a2r7r(np.random.default_rng(cfg.seed + 1), cfg)
        assert traced_peak(lambda: _approximation_row(cfg, 8, fn)) <= (
            12.8 * 2**20)


class TestObservabilityBlocks:
    CFG = ExperimentConfig(mesh_levels=(0.5,), sample_count=3, seed=4)

    def test_block_size_rule(self):
        # k (M + 1) n_vertices stays within the trajectory cap; one datum at
        # a time near the cap, never none
        assert _block_size(12, 9_000) == OBSERVABILITY_BLOCK
        for k in (1, 3, 7):
            nv = MAX_TRAJECTORY_FLOATS // (13 * k)
            assert _block_size(12, nv) == k
            assert k * 13 * nv <= MAX_TRAJECTORY_FLOATS
            assert _block_size(12, nv + 1) == max(k - 1, 1)
        assert _block_size(12, MAX_TRAJECTORY_FLOATS) == 1

    def test_partial_last_block_rows_unchanged(self, monkeypatch):
        # nine data in blocks of 8 (one full, one partial) give the rows of
        # nine one-column solves
        blocked = _observability_level(self.CFG, 0, 0.5)
        monkeypatch.setattr(experiments, "OBSERVABILITY_BLOCK", 1)
        single = _observability_level(self.CFG, 0, 0.5)
        assert len(blocked) == len(single) == 9
        assert [(r["family"], r["sample"]) for r in blocked] == [
            (f, s) for f in self.CFG.sampler_families for s in range(3)]
        for a, b in zip(blocked, single):
            assert a.keys() == b.keys()
            for key, va in a.items():
                if isinstance(va, float) and va != b[key]:
                    assert abs(va - b[key]) <= 1e-12 * abs(b[key]), key
                else:
                    assert va == b[key], key

    def test_nan_datum_named(self, monkeypatch):
        # one NaN datum in a block of three names its level, family and sample
        draw = experiments.sample_field

        def poisoned(family, rng, cfg):
            fn, desc = draw(family, rng, cfg)
            if family == "adversarial":
                return (lambda x: np.full(len(x), np.nan)), desc
            return fn, desc

        monkeypatch.setattr(experiments, "sample_field", poisoned)
        cfg = ExperimentConfig(mesh_levels=(0.5,), sample_count=1)
        with pytest.raises(SolverError, match=r"level 0 \(h=0.5\): non-finite "
                                              r"values in adversarial sample 0 "
                                              r"at time step 1 of 12"):
            _observability_level(cfg, 0, 0.5)


class TestNamedSolverErrors:
    def test_nan_datum_named_in_carleman_sweep(self, monkeypatch):
        # the second interior datum is NaN: the sweep names its level, the
        # datum and the weight of the first solve that reads it
        draw = experiments.sample_field
        drawn = []

        def poisoned(family, rng, cfg):
            fn, desc = draw(family, rng, cfg)
            drawn.append(family)
            if len(drawn) == 2:
                return (lambda x: np.full(len(x), np.nan)), desc
            return fn, desc

        monkeypatch.setattr(experiments, "sample_field", poisoned)
        cfg = ExperimentConfig(mesh_levels=(0.5,), carleman_family_count=2,
                               carleman_sweep_samples=0)
        with pytest.raises(SolverError, match=(
                r"^carleman level 0 \(h=0.5\): non-finite values in interior "
                r"sample 1 at time step 1 of 12 under weight "
                r"AbsPowerWeight\(p=1.0\)$")):
            experiments.run_carleman_sweep(cfg)

    def test_nan_datum_named_in_approximation_study(self, monkeypatch):
        def poisoned(rng, cfg):
            return (lambda x: np.full(len(x), np.nan)), {}

        monkeypatch.setattr(experiments, "data_bump_a2r7r", poisoned)
        cfg = ExperimentConfig(mesh_levels=(0.5,), k_levels=(8,))
        with pytest.raises(SolverError, match=(
                r"^approximation k=8 \(h=0.5\): non-finite values in the "
                r"A\(2R,7R\) bump at time step 1 of 12 under weight "
                r"RegularizedWeight\(epsilon=0.125, alpha=1.0\)$")):
            experiments.run_approximation_study(cfg)


class TestFactorLifetimes:
    """Every factor of a study, in order, as (what it factors, the step
    operators alive when it is made): a study holds a step's factor as long
    as one of its solves reads it, and no longer."""

    @staticmethod
    def _factors(monkeypatch):
        log, ops = [], []
        factor, build = solver._factor_spd, solver.step_operator

        def counted(mat):
            # the boundary mass is the only factored matrix with at most
            # three entries per row
            kind = "boundary" if mat.nnz <= 3 * mat.shape[0] else "step"
            log.append((kind, sum(ref() is not None for ref in ops)))
            return factor(mat)

        def recorded(*args):
            op = build(*args)
            ops.append(weakref.ref(op))
            return op

        monkeypatch.setattr(solver, "_factor_spd", counted)
        for module in (solver, experiments):
            monkeypatch.setattr(module, "step_operator", recorded)
        return log

    def test_converge_frees_each_factor_after_its_solve(self, monkeypatch):
        # per k: the eps step, the limit step once the eps factor is gone,
        # and the boundary mass of the flux
        log = self._factors(monkeypatch)
        experiments.run_approximation_study(
            ExperimentConfig(mesh_levels=(0.5,), k_levels=(8, 16)))
        assert log == [("step", 0), ("step", 0), ("boundary", 0)] * 2

    def test_observe_factors_once_per_level(self, monkeypatch):
        # nine data in blocks of two: five solves per level, one factor
        monkeypatch.setattr(experiments, "OBSERVABILITY_BLOCK", 2)
        log = self._factors(monkeypatch)
        experiments.run_observability_study(
            ExperimentConfig(mesh_levels=(0.5, 0.4), sample_count=3))
        assert log == [("step", 0)] * 2

    @pytest.mark.parametrize("families", [1, 3])
    def test_carleman_factors_twice_per_level(self, monkeypatch, families):
        # both steps of a level are built before its first block and dropped
        # once its last block is solved: one family is one block, whose flux
        # factors the boundary mass with no step alive; of three families
        # the first block of two makes its fluxes with both steps alive
        log = self._factors(monkeypatch)
        experiments.run_carleman_sweep(ExperimentConfig(
            mesh_levels=(0.5, 0.4), carleman_family_count=families,
            carleman_sweep_samples=0))
        boundary = {1: 0, 3: 2}[families]
        assert log == [("step", 0), ("step", 1), ("boundary", boundary)] * 2

    @staticmethod
    def _carleman_events(monkeypatch, cfg):
        # the sweep's solves (the names of their data) and its balances
        # (the live step operators and blocks of trajectories at each)
        events, ops, blocks = [], [], []
        build = experiments.step_operator
        solve_named = experiments._solve_named
        balance = experiments.cl.carleman_balance

        def recorded(*args):
            op = build(*args)
            ops.append(weakref.ref(op))
            return op

        def live_blocks():
            return {names for names, ref in blocks if ref() is not None}

        def solved(problem, mesh, M, theta, where, names, operator=None):
            events.append(("solve", tuple(names), live_blocks()))
            sols = solve_named(problem, mesh, M, theta, where, names, operator)
            # a block's fields are views of one trajectory array
            blocks.append((tuple(names), weakref.ref(sols[0].fields.base)))
            return sols

        def balanced(*args, **kwargs):
            events.append(("balance", sum(ref() is not None for ref in ops),
                           len(live_blocks())))
            return balance(*args, **kwargs)

        monkeypatch.setattr(experiments, "step_operator", recorded)
        monkeypatch.setattr(experiments, "_solve_named", solved)
        monkeypatch.setattr(experiments.cl, "carleman_balance", balanced)
        experiments.run_carleman_sweep(cfg)
        return events

    @pytest.mark.parametrize("families", [2, 3, 5])
    def test_no_step_factor_alive_in_last_block_balances(self, monkeypatch,
                                                         families):
        # every balance after a level's last block solve runs with no step
        # operator alive; earlier blocks' balances see both
        events = self._carleman_events(monkeypatch, ExperimentConfig(
            mesh_levels=(0.5, 0.4), carleman_family_count=families,
            carleman_sweep_samples=0))
        last = f"interior sample {families - 1}"
        blocks = -(-families // CARLEMAN_BLOCK)
        assert sum(e[0] == "solve" for e in events) == 2 * 2 * blocks
        live = {True: set(), False: set()}
        for event in events:
            if event[0] == "solve":
                in_last_block = event[1][-1] == last
            else:
                live[in_last_block].add(event[1])
        assert live == {True: {0}, False: {2} if blocks > 1 else set()}

    def test_one_block_of_trajectories_at_a_balance(self, monkeypatch):
        # five families in blocks of at most two: a block's trajectories
        # are freed before the next block is solved, so no balance sees a
        # second block's arrays and no solve an earlier block's
        events = self._carleman_events(monkeypatch, ExperimentConfig(
            mesh_levels=(0.5,), carleman_family_count=5,
            carleman_sweep_samples=1))
        solves = [e[1:] for e in events if e[0] == "solve"]
        assert [names for names, _ in solves] == [
            names for names in (("interior sample 0", "interior sample 1"),
                                ("interior sample 2", "interior sample 3"),
                                ("interior sample 4",))
            for _ in range(2)]
        assert all(alive <= {names} for names, alive in solves)
        assert {e[2] for e in events if e[0] == "balance"} == {1}

    def test_observe_frees_factor_before_last_records(self, monkeypatch):
        # nine data in blocks of two: the first four blocks' records see
        # the level's step operator, the last block's see none, and no
        # block is solved while an earlier block's trajectories are alive
        monkeypatch.setattr(experiments, "OBSERVABILITY_BLOCK", 2)
        live, ops, blocks, earlier = [], [], [], []
        build, record = (experiments.step_operator,
                         experiments._observability_record)
        solve_named = experiments._solve_named

        def recorded(*args):
            op = build(*args)
            ops.append(weakref.ref(op))
            return op

        def solved(*args):
            earlier.append(sum(ref() is not None for ref in blocks))
            sols = solve_named(*args)
            blocks.append(weakref.ref(sols[0].fields.base))
            return sols

        def counted(sol, cfg):
            live.append(sum(ref() is not None for ref in ops))
            return record(sol, cfg)

        monkeypatch.setattr(experiments, "step_operator", recorded)
        monkeypatch.setattr(experiments, "_solve_named", solved)
        monkeypatch.setattr(experiments, "_observability_record", counted)
        experiments.run_observability_study(
            ExperimentConfig(mesh_levels=(0.5, 0.4), sample_count=3))
        # two records (the datum and its scaled copy) per sample
        assert live == ([1] * 16 + [0] * 2) * 2
        assert earlier == [0] * 10


class TestCarlemanBlocks:
    CFG = ExperimentConfig(mesh_levels=(0.5,), carleman_family_count=3,
                           carleman_sweep_samples=1, carleman_s=(1.0, 4.0),
                           seed=5)

    def test_rows_equal_one_family_at_a_time(self, monkeypatch):
        # three families in a block of two and a block of one give the rows
        # and summary of three one-family solves, bitwise
        blocked = experiments.run_carleman_sweep(self.CFG)
        monkeypatch.setattr(experiments, "CARLEMAN_BLOCK", 1)
        single = experiments.run_carleman_sweep(self.CFG)
        assert CARLEMAN_BLOCK == 2
        assert len(blocked.tables["sweep"]) > 3 * 7
        assert blocked.tables["sweep"] == single.tables["sweep"]
        assert blocked.summary == single.summary

    def test_nan_in_second_family_of_a_block_named(self, monkeypatch):
        # three families: the second datum of the first block (of two) is
        # NaN; that block's solve names it alone, and the level
        draw = experiments.sample_field
        drawn = []

        def poisoned(family, rng, cfg):
            fn, desc = draw(family, rng, cfg)
            drawn.append(family)
            if len(drawn) == 2:
                return (lambda x: np.full(len(x), np.nan)), desc
            return fn, desc

        monkeypatch.setattr(experiments, "sample_field", poisoned)
        cfg = ExperimentConfig(mesh_levels=(0.5,), carleman_family_count=3,
                               carleman_sweep_samples=0)
        with pytest.raises(SolverError, match=(
                r"^carleman level 0 \(h=0.5\): non-finite values in interior "
                r"sample 1 at time step 1 of 12 under weight")):
            experiments.run_carleman_sweep(cfg)
