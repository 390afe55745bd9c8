"""Finite element assembly oracles and time-stepping properties."""

import dataclasses
import pathlib
import re
import weakref

import numpy as np
import pytest
import scipy.sparse.linalg as spla

from degenlab import solver
from degenlab.domain import GeometrySpec, build_disk_mesh
from degenlab.experiments import ExperimentConfig
from degenlab.solver import (ManufacturedField, ParabolicProblem, SolverError,
                             _factor_spd, assemble_mass, assemble_stiffness,
                             boundary_flux, boundary_mass_matrix,
                             cell_weight_integrals, energy_report,
                             load_vectors, manufactured_source, solve,
                             step_operator)
from degenlab.weights import AbsPowerWeight, RegularizedWeight, as_weight

from conftest import p1_shape_values, quadrature


@pytest.fixture(scope="module")
def small_mesh():
    return build_disk_mesh(GeometrySpec(R=0.12, L=1.0), 0.1)


class TestAssembly:
    def test_mass_matrix_two_triangles(self, unit_square_mesh):
        # consistent P1 mass of one triangle: (area/12) [[2,1,1],[1,2,1],[1,1,2]]
        M = assemble_mass(unit_square_mesh).toarray()
        sixth = 1.0 / 12.0
        expected = np.zeros((4, 4))
        for tri in ((0, 1, 2), (0, 2, 3)):
            for a in tri:
                for b in tri:
                    expected[a, b] += 0.5 * sixth * (2.0 if a == b else 1.0)
        assert np.allclose(M, expected)

    def test_mass_total_is_area(self, small_mesh):
        M = assemble_mass(small_mesh)
        ones = np.ones(small_mesh.num_vertices)
        assert np.isclose(ones @ (M @ ones), float(np.sum(small_mesh.areas)))

    def test_stiffness_unit_square_laplacian(self, unit_square_mesh):
        # classical 5-point pattern on the 2-triangle square: diagonal 1 at
        # off-diagonal corners, 2 on the shared diagonal, -1/2 side couplings
        A = assemble_stiffness(unit_square_mesh, None).toarray()
        expected = np.array([[1.0, -0.5, 0.0, -0.5],
                             [-0.5, 1.0, -0.5, 0.0],
                             [0.0, -0.5, 1.0, -0.5],
                             [-0.5, 0.0, -0.5, 1.0]])
        assert np.allclose(A, expected)

    def test_stiffness_annihilates_constants(self, small_mesh):
        A = assemble_stiffness(small_mesh, 1.0)
        ones = np.ones(small_mesh.num_vertices)
        assert np.max(np.abs(A @ ones)) < 1e-12

    def test_stiffness_positive_semidefinite(self, unit_square_mesh):
        A = assemble_stiffness(
            unit_square_mesh,
            RegularizedWeight(epsilon=0.5, alpha=1.0)).toarray()
        vals = np.linalg.eigvalsh(A)
        assert np.min(vals) > -1e-12

    def test_cell_weight_integrals_total(self, small_mesh):
        # unweighted integrals recover the cell areas; weighted ones the
        # weighted area
        unw = cell_weight_integrals(small_mesh, None)
        assert np.allclose(unw, small_mesh.areas)
        w = cell_weight_integrals(small_mesh, 1.0)
        assert abs(float(np.sum(w)) - 2.0 * np.pi / 3.0) < 1e-2

    def test_cell_weight_integrals_match_scatter(self):
        # each cell's points summed in order: bitwise np.add.at over the
        # quadrature, on a graded mesh with a refined block
        mesh = build_disk_mesh(GeometrySpec(R=0.12, L=1.0), 0.1,
                               local_h=1.0 / 64.0)
        for weight in (1.0, RegularizedWeight(epsilon=0.05, alpha=1.3), None):
            w = as_weight(weight)
            qp = quadrature(mesh, 0.0 if w is None else w.quadrature_radius)
            if isinstance(weight, RegularizedWeight):    # refined cells
                assert len(qp.weights) > 3 * mesh.num_cells
            ref = np.zeros(mesh.num_cells)
            np.add.at(ref, qp.cell, qp.weights * (1.0 if w is None
                                                  else w(qp.points)))
            assert np.array_equal(cell_weight_integrals(mesh, weight), ref)

    def test_cell_weight_integrals_reject_overflow(self):
        # |x|^1000 overflows beyond |x| = 1.995 on the default disk (L = 9)
        mesh = build_disk_mesh(GeometrySpec(), 0.6)
        with np.errstate(over="ignore"):
            with pytest.raises(ValueError, match="nonnegative and finite"):
                cell_weight_integrals(mesh, AbsPowerWeight(1000.0))

    def test_boundary_mass_total_is_perimeter(self, small_mesh):
        B = boundary_mass_matrix(small_mesh)
        ones = np.ones(small_mesh.num_vertices)
        perimeter = float(ones @ (B @ ones))
        e = small_mesh.boundary_edges
        exact = float(np.sum(np.linalg.norm(
            small_mesh.vertices[e[:, 1]] - small_mesh.vertices[e[:, 0]], axis=1)))
        # 1^T B 1 sums the edge lengths in another order: equal to round-off
        assert abs(perimeter - exact) <= 1e-14 * exact

    def test_cell_weight_integrals_cached_per_spec(self, monkeypatch):
        mesh = build_disk_mesh(GeometrySpec(R=0.12, L=1.0), 0.1)
        calls = []
        for cls in (AbsPowerWeight, RegularizedWeight):
            monkeypatch.setattr(cls, "__call__",
                                lambda self, x, f=cls.__call__:
                                calls.append(self) or f(self, x))
        reg = RegularizedWeight(epsilon=0.05, alpha=1.0)
        first = cell_weight_integrals(mesh, reg)
        assert not first.flags.writeable
        n_reg = len(calls)      # one call per chunk of cells
        assert n_reg >= 1
        # an equal weight and both steps' stiffness read the one computation
        assert cell_weight_integrals(
            mesh, RegularizedWeight(epsilon=0.05, alpha=1.0)) is first
        step_operator(mesh, reg, 0.1, 1.0)
        step_operator(mesh, reg, 0.05, 1.0)
        assert len(calls) == n_reg
        assert cell_weight_integrals(mesh, 1.0) is not first
        n_all = len(calls)
        assert n_all > n_reg
        # the float alpha and its weight object share one entry; a step
        # operator is built anew for either, records the same weight and
        # reads that entry
        assert cell_weight_integrals(mesh, AbsPowerWeight(1.0)) is (
            cell_weight_integrals(mesh, 1))
        ops = [step_operator(mesh, w, 0.1, 1.0)
               for w in (1, AbsPowerWeight(1.0))]
        assert ops[0] is not ops[1]
        assert ops[0].weight == ops[1].weight == AbsPowerWeight(1.0)
        assert calls == [reg] * n_reg + [AbsPowerWeight(1.0)] * (n_all - n_reg)

    def test_mass_assembled_once_per_mesh(self, monkeypatch):
        mesh = build_disk_mesh(GeometrySpec(R=0.12, L=1.0), 0.1)
        calls = []
        monkeypatch.setattr(solver, "assemble_mass",
                            lambda m: calls.append(m) or assemble_mass(m))
        ops = [step_operator(mesh, w, 0.1, 1.0)
               for w in (1.0, RegularizedWeight(epsilon=0.05, alpha=1.0))]
        assert len(calls) == 1 and ops[0].mass is ops[1].mass
        assert not ops[0].mass.data.flags.writeable


class TestTimeStepping:
    def test_zero_data_zero_solution(self, small_mesh):
        data = np.zeros(small_mesh.num_vertices)
        sol = solve(ParabolicProblem(weight=1.0, T=1.0, data=data), small_mesh, 8)
        assert np.all(sol.fields == 0.0)

    def test_l2_monotone_decay_implicit(self, small_mesh):
        rng = np.random.default_rng(0)
        data = rng.normal(size=small_mesh.num_vertices)
        data[small_mesh.boundary_mask] = 0.0
        sol = solve(ParabolicProblem(weight=1.0, T=0.5, data=data),
                    small_mesh, 16, theta=1.0)
        slack = np.min(-np.diff(sol.l2_norms))
        assert slack >= -1e-12

    def test_energy_identity_implicit(self, small_mesh):
        # (1/2)|u_M|^2 + dt sum a(u_theta, u_theta)
        # + (theta - 1/2) sum |u_{n+1} - u_n|^2 = (1/2)|u_0|^2 at every theta
        rng = np.random.default_rng(1)
        data = rng.normal(size=small_mesh.num_vertices)
        data[small_mesh.boundary_mask] = 0.0
        for theta in (0.5, 0.75, 1.0):
            sol = solve(ParabolicProblem(weight=1.0, T=0.5, data=data),
                        small_mesh, 12, theta=theta)
            rep = energy_report(sol)
            assert abs(rep["identity_constant"] - 1.0) <= 1e-8, theta

    def test_backward_is_time_reversed_forward(self, small_mesh):
        rng = np.random.default_rng(2)
        data = rng.normal(size=small_mesh.num_vertices)
        data[small_mesh.boundary_mask] = 0.0
        fwd = solve(ParabolicProblem(weight=1.0, T=0.5, data=data), small_mesh, 8)
        bwd = solve(ParabolicProblem(weight=1.0, T=0.5, data=data,
                                     direction="backward"), small_mesh, 8)
        assert np.allclose(bwd.fields, fwd.fields[::-1])
        assert np.allclose(bwd.fields[-1][~small_mesh.boundary_mask],
                           data[~small_mesh.boundary_mask])
        assert np.allclose(bwd.forward_fields(), fwd.fields)

    def test_invalid_theta_and_steps(self, small_mesh):
        data = np.zeros(small_mesh.num_vertices)
        prob = ParabolicProblem(weight=1.0, T=1.0, data=data)
        with pytest.raises(ValueError):
            solve(prob, small_mesh, 8, theta=0.3)
        with pytest.raises(ValueError):
            solve(prob, small_mesh, 1)

    def test_problem_validation(self):
        with pytest.raises(ValueError):
            ParabolicProblem(weight=1.0, T=1.0, data=np.zeros(3),
                             direction="sideways")
        with pytest.raises(ValueError):
            ParabolicProblem(weight=1.0, T=-1.0, data=np.zeros(3))

    @pytest.mark.parametrize("weight, error", [
        (2.5, ValueError), (-1.0, ValueError), (0.0, ValueError),
        ("1.0", TypeError)])
    def test_weight_validated(self, weight, error):
        with pytest.raises(error):
            ParabolicProblem(weight=weight, T=1.0, data=np.zeros(3))

    @pytest.mark.parametrize("p", [-1.0, 0.0, 3.0])
    def test_exact_weight_power_validated(self, p):
        with pytest.raises(ValueError, match="p in"):
            ParabolicProblem(weight=AbsPowerWeight(p), T=1.0, data=np.zeros(3))

    def test_exact_weight_power_in_range_solves(self, small_mesh):
        data = np.zeros(small_mesh.num_vertices)
        data[small_mesh.interior] = 1.0
        sol = solve(ParabolicProblem(weight=AbsPowerWeight(1.0), T=0.5,
                                     data=data), small_mesh, 4)
        assert np.all(np.isfinite(sol.fields))
        assert sol.l2_norms[-1] < sol.l2_norms[0]

    def test_weight_stored_as_weight(self):
        prob = ParabolicProblem(weight=1, T=1.0, data=np.zeros(3))
        assert prob.weight == AbsPowerWeight(1.0)

    def test_l2_norms_computed_on_first_read(self, small_mesh):
        rng = np.random.default_rng(4)
        data = rng.normal(size=small_mesh.num_vertices)
        data[small_mesh.boundary_mask] = 0.0
        sol = solve(ParabolicProblem(weight=1.0, T=0.5, data=data),
                    small_mesh, 4)
        assert "l2_norms" not in vars(sol)
        norms = sol.l2_norms
        assert np.array_equal(norms, np.sqrt(np.einsum(
            "nv,nv->n", sol.fields, (sol.mass @ sol.fields.T).T)))
        assert sol.l2_norms is norms
        # a replaced trajectory reads its own fields, not the cached norms
        scaled = dataclasses.replace(sol, fields=3.0 * sol.fields)
        assert np.allclose(scaled.l2_norms, 3.0 * norms, rtol=1e-14, atol=0.0)


class TestStepOperator:
    @staticmethod
    def _data(mesh, seed):
        data = np.random.default_rng(seed).normal(size=mesh.num_vertices)
        data[mesh.boundary_mask] = 0.0
        return data

    @pytest.mark.parametrize("theta", [0.5, 1.0])
    def test_matches_spsolve_per_step(self, small_mesh, theta):
        weight = RegularizedWeight(epsilon=0.05, alpha=1.0)
        data = self._data(small_mesh, 4)
        T, M = 0.5, 10
        sol = solve(ParabolicProblem(weight=weight, T=T, data=data,
                                     direction="backward"),
                    small_mesh, M, theta=theta)
        # reference: a fresh direct solve of the assembled system every step
        inter = small_mesh.interior
        Mi = assemble_mass(small_mesh)[inter][:, inter]
        Ai = assemble_stiffness(small_mesh, weight)[inter][:, inter]
        dt = T / M
        lhs = (Mi + theta * dt * Ai).tocsc()
        rhs = Mi - (1.0 - theta) * dt * Ai
        ref = np.zeros((M + 1, small_mesh.num_vertices))
        ref[0] = data
        for n in range(M):
            ref[n + 1, inter] = spla.spsolve(lhs, rhs @ ref[n, inter])
        ref = ref[::-1]
        assert np.max(np.abs(sol.fields - ref)) <= 1e-10 * np.max(np.abs(ref))

    def test_same_key_reuses_one_operator(self, monkeypatch):
        # an operator passed for the same (weight, dt, theta) serves every
        # solve with no new factor, bitwise a solve that builds its own
        mesh = build_disk_mesh(GeometrySpec(R=0.12, L=1.0), 0.1)
        prob = ParabolicProblem(weight=1.0, T=0.5, data=self._data(mesh, 5),
                                direction="backward")
        own = solve(prob, mesh, 8)
        op = step_operator(mesh, 1.0, 0.5 / 8, 1.0)
        factored = []
        monkeypatch.setattr(solver, "_factor_spd", lambda mat: (
            factored.append(mat) or _factor_spd(mat)))
        first = solve(prob, mesh, 8, operator=op)
        second = solve(prob, mesh, 8, operator=op)
        assert factored == []
        assert np.array_equal(first.fields, own.fields)
        assert np.array_equal(second.fields, own.fields)
        assert first.mass is second.mass is own.mass is op.mass
        assert first.stiffness is second.stiffness is op.stiffness
        assert not [key for key in mesh._cache
                    if isinstance(key, tuple) and key[0] == "step"]

    def test_new_weight_dt_or_theta_gets_new_operator(self, small_mesh):
        # every build is a new operator (nothing is cached) that records
        # the values it was built for
        reg = RegularizedWeight(epsilon=0.05, alpha=1.0)
        keys = [(1.0, 0.1, 1.0), (0.5, 0.1, 1.0), (reg, 0.1, 1.0),
                (1.0, 0.05, 1.0), (1.0, 0.1, 0.5), (reg, 0.1, 1.0)]
        ops = [step_operator(small_mesh, *key) for key in keys]
        assert len({id(op) for op in ops}) == len(keys)
        assert len({id(op.lu) for op in ops}) == len(keys)
        for op, (w, dt, theta) in zip(ops, keys):
            assert op.mesh is small_mesh and op.weight == as_weight(w)
            assert (op.dt, op.theta) == (dt, theta)

    def test_solve_frees_its_operator(self, monkeypatch):
        # a solve with no operator drops the one it built on return, with
        # no reference cycle, and leaves no step on the mesh
        mesh = build_disk_mesh(GeometrySpec(R=0.12, L=1.0), 0.1)
        built = []
        monkeypatch.setattr(solver, "step_operator", lambda *args: (
            built.append(step_operator(*args)) or built[-1]))
        for direction in ("forward", "backward"):
            sol = solve(ParabolicProblem(weight=1.0, T=0.5,
                                         data=self._data(mesh, 8),
                                         direction=direction), mesh, 8)
            ref = weakref.ref(built.pop())
            assert ref() is None
            assert sol.mass is mesh._cache["mass"]
        assert not [key for key in mesh._cache
                    if isinstance(key, tuple) and key[0] == "step"]

    @pytest.mark.parametrize("other", ["mesh", "weight", "dt", "theta"])
    def test_operator_for_another_step_rejected(self, small_mesh, other):
        reg = RegularizedWeight(epsilon=0.05, alpha=1.0)
        T, M = 0.5, 10
        key = {"mesh": small_mesh, "weight": reg, "dt": T / M, "theta": 1.0}
        key[other] = (build_disk_mesh(GeometrySpec(R=0.12, L=1.0), 0.1)
                      if other == "mesh" else
                      {"weight": 1.0, "dt": T / (M + 1), "theta": 0.5}[other])
        op = step_operator(**key)
        prob = ParabolicProblem(weight=reg, T=T, data=self._data(small_mesh, 9))
        with pytest.raises(ValueError, match=f"another {other} than"):
            solve(prob, small_mesh, M, theta=1.0, operator=op)
        # the operator built for the solve's own values is accepted
        right = step_operator(small_mesh, reg, T / M, 1.0)
        assert np.array_equal(solve(prob, small_mesh, M, operator=right).fields,
                              solve(prob, small_mesh, M).fields)

    def test_nan_data_raises(self, small_mesh):
        data = self._data(small_mesh, 6)
        data[small_mesh.interior[0]] = np.nan
        with pytest.raises(SolverError, match="non-finite"):
            solve(ParabolicProblem(weight=1.0, T=0.5, data=data,
                                   direction="backward"), small_mesh, 8)


class TestFactor:
    @staticmethod
    def _step_matrix(level):
        """The implicit step matrix M + theta dt A on the interior, at the
        default config's h = 0.24 level (exact weight) or its approximation
        study's k = 8 level (graded mesh, regularized weight)."""
        cfg = ExperimentConfig()
        if level == "h=0.24":
            h, local_h, weight = 0.24, None, cfg.alpha
        else:
            h, k = cfg.mesh_levels[-1], 8
            local_h = min(h / 2.0, 1.0 / (4.0 * k))
            weight = RegularizedWeight(epsilon=1.0 / k, alpha=cfg.alpha)
        mesh = build_disk_mesh(cfg.geometry, h, local_h=local_h)
        inter = mesh.interior
        Mi = assemble_mass(mesh)[inter][:, inter]
        Ai = assemble_stiffness(mesh, weight)[inter][:, inter]
        dt = cfg.T / cfg.steps_for(h)
        return (Mi + cfg.theta * dt * Ai).tocsc()

    @pytest.mark.parametrize("level", ["h=0.24", "converge k=8"])
    def test_unrelaxed_supernodes_keep_fill(self, level):
        # relax=1, panel_size=1 change only the supernode blocking: the
        # minimum-degree ordering and its fill are those of the default
        # blocking, and the solve is exact to round-off
        A = self._step_matrix(level)
        lu = _factor_spd(A)
        ref = spla.splu(A, permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0.0,
                        options={"SymmetricMode": True})
        assert lu.L.nnz + lu.U.nnz == ref.L.nnz + ref.U.nnz
        assert np.array_equal(lu.perm_c, ref.perm_c)
        b = np.random.default_rng(7).normal(size=A.shape[0])
        x = lu.solve(b)
        assert np.linalg.norm(A @ x - b) <= 1e-12 * np.linalg.norm(b)

    @pytest.mark.parametrize("theta", [0.5, 1.0])
    @pytest.mark.parametrize("weight", ["regularized", "exact"])
    def test_step_matrices_equal_sliced_sums(self, monkeypatch, theta,
                                             weight):
        # the gathered interior matrices are the bits of the sliced matrices'
        # sparse sums: M[I][:, I] + theta dt A[I][:, I] as the CSC the factor
        # reads, and M[I][:, I] - (1 - theta) dt A[I][:, I] as CSR
        mesh = build_disk_mesh(GeometrySpec(R=0.12, L=1.0), 0.1,
                               local_h=0.005)
        w = (RegularizedWeight(epsilon=0.05, alpha=1.0)
             if weight == "regularized" else 1.0)
        dt = 0.037
        factored = []
        monkeypatch.setattr(solver, "_factor_spd", lambda mat: (
            factored.append(mat) or _factor_spd(mat)))
        op = step_operator(mesh, w, dt, theta)
        inter = mesh.interior
        Mi = assemble_mass(mesh)[inter][:, inter]
        Ai = assemble_stiffness(mesh, w)[inter][:, inter]
        pairs = [(factored[0], (Mi + theta * dt * Ai).tocsc()),
                 (op.explicit, (Mi - (1.0 - theta) * dt * Ai).tocsr())]
        for got, ref in pairs:
            assert got.format == ref.format and got.shape == ref.shape
            for name in ("indptr", "indices", "data"):
                assert np.array_equal(getattr(got, name), getattr(ref, name))
        # the factor reads the matrix without a CSC copy
        assert factored[0].tocsc() is factored[0]

    def test_one_factor_path_in_src(self):
        # every sparse LU of the package is _factor_spd's: one splu call
        hits = [f"{path.name}:{i}"
                for path in sorted(pathlib.Path(solver.__file__).parent
                                   .glob("*.py"))
                for i, line in enumerate(path.read_text().splitlines(), 1)
                if re.search(r"\bsplu\(", line)]
        assert len(hits) == 1 and hits[0].startswith("solver.py:"), hits


def _source(x, t):
    return np.cos(3.0 * t) * np.exp(-np.einsum("nd,nd->n", x, x) / 8.0)


class TestBlockSolve:
    @staticmethod
    def _block(mesh, k, seed):
        data = np.random.default_rng(seed).normal(size=(k, mesh.num_vertices))
        data[:, mesh.boundary_mask] = 0.0
        return data

    @pytest.mark.parametrize("direction", ["forward", "backward"])
    @pytest.mark.parametrize("theta", [0.5, 1.0])
    @pytest.mark.parametrize("sourced", [False, True])
    def test_columns_match_single_solves(self, small_mesh, direction, theta,
                                         sourced):
        data = self._block(small_mesh, 3, 7)
        prob = ParabolicProblem(weight=1.0, T=0.5, data=data,
                                direction=direction,
                                source=_source if sourced else None)
        sols = solve(prob, small_mesh, 8, theta=theta)
        assert len(sols) == 3
        for j, sol in enumerate(sols):
            one = solve(ParabolicProblem(weight=1.0, T=0.5, data=data[j],
                                         direction=direction,
                                         source=prob.source),
                        small_mesh, 8, theta=theta)
            assert sol.fields.shape == one.fields.shape
            assert sol.fields.flags.c_contiguous
            assert np.max(np.abs(sol.fields - one.fields)) <= (
                1e-12 * np.max(np.abs(one.fields)))
            assert np.array_equal(sol.problem.data, data[j])

    def test_backward_rows_equal_reversed_forward(self, small_mesh):
        # with no source the backward block integrates what the forward block
        # does; writing step n into row M - n is the old reversed copy
        data = self._block(small_mesh, 2, 8)
        fwd = solve(ParabolicProblem(weight=1.0, T=0.5, data=data),
                    small_mesh, 8)
        bwd = solve(ParabolicProblem(weight=1.0, T=0.5, data=data,
                                     direction="backward"), small_mesh, 8)
        for f, b in zip(fwd, bwd):
            assert np.array_equal(b.fields, f.fields[::-1].copy())
            assert np.array_equal(b.forward_fields(), f.fields)
        assert bwd[0].fields.base is bwd[1].fields.base

    @pytest.mark.parametrize("extra", [-1, 1, None])
    def test_wrong_shape_raises(self, small_mesh, extra):
        nv = small_mesh.num_vertices
        shape = (1, 2, nv) if extra is None else (2, nv + extra)
        with pytest.raises(ValueError, match="nodal field"):
            solve(ParabolicProblem(weight=1.0, T=0.5, data=np.zeros(shape)),
                  small_mesh, 8)

    def test_nan_column_named(self, small_mesh):
        data = self._block(small_mesh, 3, 9)
        data[1, small_mesh.interior[0]] = np.nan
        with pytest.raises(SolverError, match=r"column\(s\) \[1\] at time "
                                              r"step 1 of 8") as err:
            solve(ParabolicProblem(weight=1.0, T=0.5, data=data,
                                   direction="backward"), small_mesh, 8)
        assert err.value.columns == [1] and err.value.step == 1


class TestLoads:
    def test_load_matches_scatter(self, small_mesh):
        # P^T (w f) against the per-point scatter over the cell's vertices
        qp = quadrature(small_mesh)
        wf = qp.weights * _source(qp.points, 0.3)
        nodes, shape = p1_shape_values(small_mesh, qp)
        ref = np.zeros(small_mesh.num_vertices)
        np.add.at(ref, nodes, wf[:, None] * shape)
        got = load_vectors(small_mesh, _source, [0.3])[:, 0]
        assert np.max(np.abs(got - ref)) <= 1e-15 * np.max(np.abs(ref))

    def test_columns_are_single_time_loads(self, small_mesh):
        times = np.linspace(0.0, 0.5, 5)
        loads = load_vectors(small_mesh, _source, times)
        assert loads.shape == (small_mesh.num_vertices, len(times))
        for n, t in enumerate(times):
            assert np.array_equal(loads[:, n],
                                  load_vectors(small_mesh, _source, [t])[:, 0])


class TestManufactured:
    @staticmethod
    def _target():
        return ManufacturedField(
            value=lambda x, t: np.exp(-t) * (1.0 - np.einsum("nd,nd->n", x, x)),
            dt=lambda x, t: -np.exp(-t) * (1.0 - np.einsum("nd,nd->n", x, x)),
            grad=lambda x, t: -2.0 * np.exp(-t) * x,
            lap=lambda x, t: np.full(len(x), -4.0 * np.exp(-t)))

    def test_implicit_first_order(self):
        target = self._target()
        weight = RegularizedWeight(epsilon=0.05, alpha=1.0)
        src = manufactured_source(target, weight)
        spec = GeometrySpec(R=0.12, L=1.0)
        errs = []
        for h, M in ((0.1, 10), (0.05, 20)):
            mesh = build_disk_mesh(spec, h, local_h=min(h / 2.0, 0.0125))
            # boundary values of the target are 0 on |x| = 1 exactly
            data = target.value(mesh.vertices, 0.0)
            sol = solve(ParabolicProblem(weight=weight, T=0.5, data=data,
                                         source=src), mesh, M, theta=1.0)
            times = sol.times
            M_mat = sol.mass
            err2 = np.zeros(len(times))
            for n, t in enumerate(times):
                d = sol.fields[n] - target.value(mesh.vertices, t)
                err2[n] = d @ (M_mat @ d)
            errs.append(np.sqrt(np.trapezoid(err2, times)))
        order = np.log2(errs[0] / errs[1])
        assert order >= 0.9

    def test_exact_weight_needs_origin_flag(self):
        target = self._target()   # does not vanish at the origin
        with pytest.raises(ValueError):
            manufactured_source(target, 0.5)
        # alpha >= 1 and regularized weights are fine
        manufactured_source(target, 1.0)
        manufactured_source(target, RegularizedWeight(epsilon=0.1, alpha=0.5))


class TestBoundaryFlux:
    def test_steady_radial_flux(self, geometry):
        # steady u = L^(2-a) - |x|^(2-a) of -div(|x|^a grad u) = 2(2 - a) on
        # the disk B_L; its normal derivative on r = L is -(2 - a) L^(1-a)
        mesh = build_disk_mesh(geometry, 0.22)
        L, r = geometry.L, np.linalg.norm(mesh.vertices, axis=1)
        for alpha in (0.5, 1.0):
            def source(x, t):
                return np.full(len(x), 2.0 * (2.0 - alpha))

            data = L ** (2.0 - alpha) - r ** (2.0 - alpha)
            data[mesh.boundary_mask] = 0.0
            sol = solve(ParabolicProblem(weight=alpha, T=0.2, data=data,
                                         source=source), mesh, 10, theta=1.0)
            # the initial datum is already the steady state
            drift = np.max(np.abs(sol.fields[-1] - sol.fields[0]))
            assert drift < 5e-3 * np.max(np.abs(data)), alpha
            exact = -(2.0 - alpha) * L ** (1.0 - alpha)
            flux = boundary_flux(sol)
            assert np.max(np.abs(flux[-1] - exact)) < 0.03 * abs(exact), alpha

    def test_flux_shape(self, small_mesh):
        rng = np.random.default_rng(3)
        data = rng.normal(size=small_mesh.num_vertices)
        data[small_mesh.boundary_mask] = 0.0
        sol = solve(ParabolicProblem(weight=1.0, T=0.5, data=data), small_mesh, 6)
        flux = boundary_flux(sol)
        assert flux.shape == (7, int(np.sum(small_mesh.boundary_mask)))
        assert np.all(np.isfinite(flux))

    @pytest.mark.parametrize("weight, direction, theta, sourced", [
        (w, d, th, src)
        for w in (1.0, RegularizedWeight(epsilon=0.125, alpha=1.0))
        for d in ("forward", "backward") for th in (1.0, 0.5)
        for src in (False, True)])
    def test_matches_per_step_loop(self, coarse_mesh, weight, direction, theta,
                                   sourced):
        # the residual of all steps in one block, on the boundary rows only,
        # and one multi-column solve give bitwise the flux of one residual
        # on every vertex and one solve per step (each CSR row sums alone)
        rng = np.random.default_rng(5)
        data = rng.normal(size=coarse_mesh.num_vertices)
        data[coarse_mesh.boundary_mask] = 0.0
        sol = solve(ParabolicProblem(weight=weight, T=0.5, data=data,
                                     direction=direction,
                                     source=_source if sourced else None),
                    coarse_mesh, 8, theta=theta)
        assert np.array_equal(boundary_flux(sol), _flux_step_loop(sol))


def _flux_step_loop(sol):
    """Flux recovery with one residual on every vertex and one boundary
    solve per step."""
    mesh, prob, dt, th = sol.mesh, sol.problem, sol.dt, sol.theta
    u = sol.forward_fields()
    bidx = np.flatnonzero(mesh.boundary_mask)
    B_lu = _factor_spd(boundary_mass_matrix(mesh)[bidx][:, bidx])
    wb = (np.ones(len(bidx)) if prob.weight is None
          else prob.weight(mesh.vertices[bidx]))
    backward = prob.direction == "backward"

    def load(n):
        phys_t = prob.T - sol.times[n] if backward else sol.times[n]
        return load_vectors(mesh, prob.source, [phys_t])[:, 0]

    flux = np.zeros((len(sol.times), len(bidx)))
    f_prev = load(0) if prob.source is not None else None
    for n in range(1, len(sol.times)):
        du = (u[n] - u[n - 1]) / dt
        uth = th * u[n] + (1.0 - th) * u[n - 1]
        r = sol.mass @ du + sol.stiffness @ uth
        if f_prev is not None:
            f_next = load(n)
            r = r - (th * f_next + (1.0 - th) * f_prev)
            f_prev = f_next
        flux[n] = B_lu.solve(r[bidx]) / wb
    flux[0] = flux[1]
    return flux[::-1].copy() if backward else flux
