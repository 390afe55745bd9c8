"""Closed-form oracles for the Carleman weight family and balance evaluators."""

import dataclasses
import itertools
import pathlib
import re

import numpy as np
import pytest

from degenlab import carleman as carleman_module, experiments
from degenlab.carleman import (EXP_FLOOR, THETA_CAP, BalanceContext,
                               CarlemanParams, VARIANTS, _block_field,
                               carleman_balance, fursikov_eta_bar, theta,
                               theta_bound_check)
from degenlab.domain import (GeometrySpec, Region, _cell_gradient, _radii,
                             build_disk_mesh)
from degenlab.experiments import ExperimentConfig, run_carleman_sweep
from degenlab.solver import ParabolicProblem, boundary_flux, solve
from degenlab.weights import (AbsPowerWeight, RegularizedWeight, cutoff_kappa,
                              cutoff_zeta)

from conftest import (gradient_operator, p1_shape_values, point_field,
                      quadrature, traced_peak)


@pytest.fixture(scope="module")
def study_mesh():
    return build_disk_mesh(GeometrySpec(R=1.0, L=9.0), 0.3)


@pytest.fixture(scope="module")
def sample_solution(study_mesh):
    rng = np.random.default_rng(0)
    r = np.linalg.norm(study_mesh.vertices, axis=1)
    data = np.maximum(0.0, 1.0 - (r - 4.0) ** 2) ** 2
    data[study_mesh.boundary_mask] = 0.0
    return solve(ParabolicProblem(weight=1.0, T=1.0, data=data,
                                  direction="backward"), study_mesh, 12)


class TestTheta:
    def test_midpoint_value(self):
        # [t(T-t)]^-4 at T/2 with T = 1 is (1/4)^-4 = 256
        assert np.isclose(theta(0.5, 1.0), 256.0)

    def test_symmetry(self):
        t = np.linspace(0.1, 0.9, 17)
        assert np.allclose(theta(t, 1.0), theta(1.0 - t, 1.0))

    def test_poles_rejected(self):
        with pytest.raises(ValueError):
            theta(0.0, 1.0)
        with pytest.raises(ValueError):
            theta(1.0, 1.0)

    def test_bound_check_closed_forms(self):
        for T in (0.5, 1.0, 2.0):
            chk = theta_bound_check(T)
            assert chk["c1_ok"]
            assert chk["c1_closed_form"] == 4.0 * T
            assert chk["c1_budget"] == 12.0 * T
            assert chk["c1"] <= 4.0 * T + 1e-10
            assert chk["c2"] <= 20.0 * T * T + 1e-10


class TestSpatialProfiles:
    @pytest.mark.parametrize("variant", VARIANTS)
    def test_weighted_profiles_negative(self, sample_solution, variant):
        # eta_0 < 0 on the disk (|x|^(2-alpha) and psi^(2-alpha) stay below
        # 2 m^(2-alpha)) and sigma_bar > 0 (eta_bar <= 1), so every weighted
        # variant's exponent shift, Theta e at the largest e, is negative;
        # the unweighted ones take none
        reg = RegularizedWeight(epsilon=0.25, alpha=1.0)
        eb = fursikov_eta_bar(1.0, 9.0)
        for s, g, lam, al in ((1.0, 1.0, 1.0, 1.9), (4.0, 4.0, 4.0, 1.0)):
            params = CarlemanParams(s=s, gamma=g, lam=lam, alpha=al)
            shift = carleman_balance(sample_solution, params, variant,
                                     weight=reg, eta_bar=eb)["exponent_shift"]
            if variant in ("thm43", "thm51"):
                assert shift == 0.0
            else:
                assert shift < 0.0, (variant, params)

    def test_regularized_profile_dominates(self):
        # psi_eps >= |x| makes the regularized eta the larger (less negative)
        params = CarlemanParams()
        w = RegularizedWeight(epsilon=0.25, alpha=1.0)
        r = np.linspace(0.0, 1.0, 50)
        p = 2.0 - params.alpha
        e0 = carleman_module._eta0(params, r ** p)
        er = carleman_module._eta0(params, w.psi(r) ** p)
        assert np.all(er >= e0 - 1e-14)

    def test_params_validation(self):
        with pytest.raises(ValueError):
            CarlemanParams(s=0.5)
        with pytest.raises(ValueError):
            CarlemanParams(alpha=2.0)
        with pytest.raises(ValueError):
            CarlemanParams(T=-1.0)


class TestEtaBar:
    def test_boundary_zeros_and_positivity(self):
        eb = fursikov_eta_bar(1.0, 9.0)
        assert np.isclose(eb.value_radial(4.0), 0.0)
        assert np.isclose(eb.value_radial(9.0), 0.0)
        r = np.linspace(4.01, 8.99, 500)
        v = eb.value_radial(r)
        assert np.all(v > 0.0) and np.max(v) <= 1.0 + 1e-12
        # normalized to 1 at its maximum, so xi_bar peaks at Theta e^(9 lambda)
        assert np.isclose(eb.value_radial(eb.critical_radius), 1.0, rtol=1e-14)

    def test_critical_radius_inside_b5(self):
        eb = fursikov_eta_bar(1.0, 9.0)
        assert np.isclose(eb.critical_radius, 41.0 / 9.0)
        assert eb.critical_radius < 5.0
        # gradient never vanishes on [5R, L)
        r = np.linspace(5.0, 8.999, 500)
        assert np.all(np.abs(eb.d1_radial(r)) > 0.0)

    def test_shallow_exponent_rejected(self):
        with pytest.raises(ValueError):
            fursikov_eta_bar(1.0, 9.0, exponent=1)

    @pytest.mark.parametrize("L", [4.0, 3.0])
    def test_outer_radius_beyond_4R(self, L):
        with pytest.raises(ValueError, match="4R < L"):
            fursikov_eta_bar(1.0, L)

    def test_gradient_direction(self):
        # decreasing past the critical radius: the gradient d1 x/|x| points
        # inward there, outward inside it
        eb = fursikov_eta_bar(1.0, 9.0)
        assert eb.d1_radial(6.0) < 0.0 < eb.d1_radial(4.2)
        assert abs(eb.d1_radial(eb.critical_radius)) < 1e-12


class TestBalances:
    def test_zero_solution_all_zero(self, study_mesh):
        data = np.zeros(study_mesh.num_vertices)
        sol = solve(ParabolicProblem(weight=1.0, T=1.0, data=data,
                                     direction="backward"), study_mesh, 8)
        params = CarlemanParams()
        reg = RegularizedWeight(epsilon=0.25, alpha=1.0)
        for variant in VARIANTS:
            out = carleman_balance(sol, params, variant, weight=reg,
                                   eta_bar=fursikov_eta_bar(1.0, 9.0))
            assert out["lhs"] == 0.0 and out["rhs"] == 0.0
            assert out["implied_C"] == 0.0

    def test_unknown_variant(self, sample_solution):
        with pytest.raises(ValueError):
            carleman_balance(sample_solution, CarlemanParams(), "thm99")

    def test_missing_input_rejected(self, sample_solution):
        # thm41 reads the regularized weight; it is not guessed
        with pytest.raises(ValueError, match="weight"):
            carleman_balance(sample_solution, CarlemanParams(), "thm41")

    def test_ratio_of_zero_sides(self):
        assert carleman_module._ratio(0.0, 0.0) == 0.0
        assert carleman_module._ratio(2.0, 0.0) == np.inf
        assert carleman_module._ratio(3.0, 2.0) == 1.5

    def test_scale_invariance(self, sample_solution):
        params = CarlemanParams()
        base = carleman_balance(sample_solution, params, "thm43")
        scaled_sol = dataclasses.replace(sample_solution,
                                         fields=7.0 * sample_solution.fields)
        scaled = carleman_balance(scaled_sol, params, "thm43")
        assert np.isclose(scaled["implied_C"], base["implied_C"],
                          rtol=1e-12, atol=0.0)

    def test_all_variants_finite(self, sample_solution):
        params = CarlemanParams()
        reg = RegularizedWeight(epsilon=0.25, alpha=1.0)
        for variant in VARIANTS:
            out = carleman_balance(sample_solution, params, variant,
                                   weight=reg,
                                   eta_bar=fursikov_eta_bar(1.0, 9.0))
            assert np.isfinite(out["implied_C"])
            assert out["lhs"] >= 0.0 and out["rhs"] >= 0.0

    def test_context_reuse_matches(self, sample_solution):
        params = CarlemanParams()
        ctx = BalanceContext(sample_solution, params)
        for variant in ("thm43", "thm51", "prop1"):
            direct = carleman_balance(sample_solution, params, variant)
            cached = carleman_balance(sample_solution, params, variant,
                                      context=ctx)
            assert direct["lhs"] == cached["lhs"]
            assert direct["rhs"] == cached["rhs"]

    def test_context_samples_match_einsum(self, sample_solution):
        # the block fields (region columns, active rows, quadrature weights
        # folded in) against the per-point shape sum and the per-cell
        # gradient einsum; a block on part of the columns and rows is
        # bitwise that part of the whole block
        ctx = BalanceContext(sample_solution, CarlemanParams())
        rows = np.arange(len(ctx.rows))
        mesh = sample_solution.mesh
        qp = quadrature(mesh)
        zeta = cutoff_zeta(1.0)
        f = sample_solution.fields
        fz = f * zeta.value(mesh.vertices)[None, :]
        band = Region.annulus(3.0, 6.0)
        cols = ctx.columns(band)
        assert len(cols) < len(qp.weights)
        nodes, shape = p1_shape_values(mesh, qp)
        for cutoff, nodal in ((None, f), (zeta, fz)):
            u = np.einsum("qi,nqi->nq", shape, nodal[:, nodes])
            g = np.einsum("nci,cid->ncd", nodal[:, mesh.cells], mesh.grads)
            g2 = np.einsum("ncd,ncd->nc", g, g)[:, qp.cell]
            for kind, ref in (("u2", u * u), ("grad2", g2)):
                ref = (ref[ctx.rows][:, cols] * qp.weights[cols]).T
                part = _block_field(ctx, kind, cols[::3], rows[1::2], cutoff)
                got = _block_field(ctx, kind, cols, rows, cutoff)
                assert got.flags.c_contiguous and got.shape == ref.shape
                assert np.max(np.abs(got - ref)) <= 1e-14 * np.max(np.abs(ref))
                assert np.array_equal(got[::3, 1::2], part)

    @pytest.mark.parametrize("kind, cutoff", [
        ("u2", None), ("u2", cutoff_zeta(1.0)), ("grad2", None),
        ("grad2", cutoff_zeta(1.0)), ("gsrc2", cutoff_kappa(1.0))])
    def test_context_fields_bitwise_oracle_rows(self, sample_solution, kind,
                                                cutoff):
        # the block fields on the implicit midpoint points (q = 3c + k)
        # against rows of the oracle rule's P and of the sparse gradient G,
        # the commutator source on the oracle's points: bitwise, on every
        # column of a region and on a scattered subset, and the same bits
        # as the point store's arithmetic
        ctx = BalanceContext(sample_solution, CarlemanParams())
        rows = np.arange(len(ctx.rows))
        mesh = sample_solution.mesh
        qp, G, nc = quadrature(mesh), gradient_operator(mesh), mesh.num_cells
        assert len(qp.weights) == 3 * nc
        f = np.ascontiguousarray(sample_solution.fields[ctx.rows].T)
        if cutoff is not None and kind != "gsrc2":
            f = cutoff.value(mesh.vertices)[:, None] * f
        for q in (ctx.columns(Region.complement(1.0)),
                  np.random.default_rng(5).permutation(3 * nc)[:500]):
            u = qp.interpolation[q] @ f
            cells = qp.cell[q]
            gx, gy = G[cells] @ f, G[cells + nc] @ f
            if kind == "u2":
                ref = u * u
            elif kind == "grad2":
                ref = gx * gx + gy * gy
            else:
                x = qp.points[q]
                weight = AbsPowerWeight(1.0)
                r = np.linalg.norm(x, axis=1)
                kg = cutoff.gradient(x)
                lap = (cutoff.d2_radial(r)
                       + cutoff.d1_radial(r) / np.maximum(r, 1e-300))
                div_wk = (np.einsum("qd,qd->q", weight.gradient(x), kg)
                          + weight(x) * lap)
                ref = ((2.0 * weight(x))[:, None]
                       * (kg[:, :1] * gx + kg[:, 1:] * gy)
                       + u * div_wk[:, None]) ** 2
            ref *= qp.weights[q][:, None]
            got = _block_field(ctx, kind, q, rows, cutoff)
            assert np.array_equal(got, ref)
            assert np.array_equal(point_field(ctx, kind, q, cutoff), ref)

    def test_radius_bitwise_per_region(self, sample_solution):
        # each region's |x| is taken on its own midpoints, 0.5 v_i + 0.5 v_j,
        # by sqrt(einsum): bitwise the norm of the rule's points raised to p
        ctx = BalanceContext(sample_solution, CarlemanParams())
        qp = quadrature(sample_solution.mesh)
        for region in (Region.whole(), Region.ball(4.0),
                       Region.annulus(3.0, 6.0), Region.complement(5.0)):
            for power in (1.0, 0.5, 1.5):
                ref = np.linalg.norm(qp.points[ctx.columns(region)],
                                     axis=1) ** power
                assert np.array_equal(ctx.radius(region, power), ref)

    def test_contexts_share_mesh_geometry(self, sample_solution):
        # |x_q|, each region's columns and radius powers, the psi_eps and
        # eta_bar factors and the boundary radii are taken once per mesh and
        # read, read-only, by every context of it, as are the unweighted
        # terms' pair and per-cell sums; a context caches only its balances
        first = BalanceContext(sample_solution, CarlemanParams())
        second = BalanceContext(sample_solution, CarlemanParams(s=8.0))
        band = Region.annulus(3.0, 6.0)
        assert second.columns(band) is first.columns(band)
        r = first.radius(band)
        assert second.radius(band) is r
        cache = sample_solution.mesh._cache
        for arr in (r, first.columns(band), cache["centroid_radii"]):
            assert not arr.flags.writeable
        reg = RegularizedWeight(epsilon=0.25, alpha=1.0)
        eb = fursikov_eta_bar(1.0, 9.0)
        flux = boundary_flux(sample_solution)

        def all_variants(ctx):
            for variant in VARIANTS:
                carleman_balance(sample_solution, ctx.params, variant,
                                 weight=reg, flux=flux, eta_bar=eb, context=ctx)

        all_variants(first)
        geometry = dict(cache)
        all_variants(second)
        assert set(cache) == set(geometry)
        assert all(cache[key] is value for key, value in geometry.items())
        whole, outer = Region.whole(), Region.complement(1.0)
        shared = [geometry[("quadrature_radius", band, 1.0)],
                  geometry[("quadrature_radius", outer, 1.0)],
                  *geometry[("psi", reg, 1.0)],
                  geometry[("psi_radial", reg, 1.0, whole)],
                  geometry[("psi_radial", reg, 1.0, Region.ball(0.25))],
                  geometry[("eta_bar", eb, outer)], geometry[("eta_bar", eb, band)],
                  *geometry[("boundary_radii", 1.0)]]
        for arr in shared:
            assert isinstance(arr, np.ndarray) and not arr.flags.writeable
        sums = [a for k, v in geometry.items() if k[0] == "term_sums"
                for a in v]
        assert sums and not any(a.flags.writeable for a in sums)
        for ctx in (first, second):
            assert {key[0] for key in ctx._cache} == {"balance"}

    @pytest.mark.parametrize("variant", ["thm41", "thm42"])
    def test_growth_per_region_matches_whole_disk_remap(self, sample_solution,
                                                        variant):
        # each support region's own growth against one growth on the whole
        # disk remapped onto the other support: the same shift, and every
        # term bitwise equal; alpha near 2 keeps part of B_eps and of the
        # outer region above the floor
        reg = RegularizedWeight(epsilon=0.25, alpha=1.0)
        flux = boundary_flux(sample_solution)
        other = 0
        for s, g, al in itertools.product((1.0, 4.0, 16.0), (1.0, 8.0),
                                          (1.0, 1.9)):
            params = CarlemanParams(s=s, gamma=g, alpha=al)
            got = carleman_balance(sample_solution, params, variant,
                                   weight=reg, flux=flux)
            sides, shift = _whole_disk_growth_evaluate(
                BalanceContext(sample_solution, params), params, variant, reg,
                flux)
            assert got["exponent_shift"] == shift
            assert got["lhs_terms"] == sides["lhs"], (s, g, al)
            assert got["rhs_terms"] == sides["rhs"], (s, g, al)
            other += sum(value != 0.0 for name, value in
                         {**sides["lhs"], **sides["rhs"]}.items()
                         if name in ("grad_outer", "remainder_theta3",
                                     "remainder_eps"))
        assert other > 0

    def test_no_active_row_names_T_and_cap(self, study_mesh):
        # T/2 is a time node whose Theta, 256/T^8, is the least: below
        # T = 0.02 it lies above THETA_CAP, and no row is active
        data = np.zeros(study_mesh.num_vertices)
        data[study_mesh.interior] = 1.0

        def context(T):
            sol = solve(ParabolicProblem(weight=1.0, T=T, data=data,
                                         direction="backward"), study_mesh, 12)
            return BalanceContext(sol, CarlemanParams(T=T))

        with pytest.raises(ValueError, match="T=0.018.*THETA_CAP"):
            context(0.018)
        assert 6 in context(0.021).rows

    def test_balances_leave_context_params(self, sample_solution):
        params = CarlemanParams()
        ctx = BalanceContext(sample_solution, params)
        other = dataclasses.replace(params, s=8.0)
        reg = RegularizedWeight(epsilon=0.25, alpha=1.0)
        flux = boundary_flux(sample_solution)
        eb = fursikov_eta_bar(1.0, 9.0)
        for variant in VARIANTS:
            shared = carleman_balance(sample_solution, other, variant,
                                      weight=reg, flux=flux, eta_bar=eb,
                                      context=ctx)
            assert ctx.params is params and ctx.params.s == 4.0
            direct = carleman_balance(sample_solution, other, variant,
                                      weight=reg, flux=flux, eta_bar=eb)
            assert shared["lhs"] == direct["lhs"]
            assert shared["rhs"] == direct["rhs"]

    def test_context_horizon_mismatch_rejected(self, sample_solution):
        # the cached factors read T, alpha, R and m, so each must match
        params = CarlemanParams()
        ctx = BalanceContext(sample_solution, params)
        for change in ({"T": 2.0}, {"alpha": 0.5}, {"R": 0.5}, {"m": 12.0}):
            with pytest.raises(ValueError, match="different trajectory"):
                carleman_balance(sample_solution,
                                 dataclasses.replace(params, **change),
                                 "thm43", context=ctx)

    def test_context_keys_cover_weight_and_eta_bar(self, sample_solution):
        # one context serves balances with different regularized weights and
        # annular weights, each term equal to a balance on a fresh context;
        # alpha near 2 keeps the remainder terms on B_eps from underflowing
        params = CarlemanParams(s=1.0, gamma=1.0, lam=1.0, alpha=1.9)
        ctx = BalanceContext(sample_solution, params)
        flux = boundary_flux(sample_solution)
        for eps in (0.25, 0.5):
            reg = RegularizedWeight(epsilon=eps, alpha=1.0)
            shared = carleman_balance(sample_solution, params, "thm41",
                                      weight=reg, flux=flux, context=ctx)
            fresh = carleman_balance(sample_solution, params, "thm41",
                                     weight=reg, flux=flux)
            for side in ("lhs_terms", "rhs_terms"):
                assert shared[side] == fresh[side]
        for exponent in (8, 12):
            eb = fursikov_eta_bar(1.0, 9.0, exponent=exponent)
            shared = carleman_balance(sample_solution, params, "thm61",
                                      eta_bar=eb, context=ctx)
            fresh = carleman_balance(sample_solution, params, "thm61", eta_bar=eb)
            for side in ("lhs_terms", "rhs_terms"):
                assert shared[side] == fresh[side]

    def test_repeated_balance_is_one_evaluation(self, sample_solution,
                                                monkeypatch):
        params = CarlemanParams(s=1.0, gamma=1.0, lam=1.0, alpha=1.9)
        ctx = BalanceContext(sample_solution, params)
        flux = boundary_flux(sample_solution)
        evaluations = []
        evaluate = carleman_module._evaluate

        def counting_evaluate(*args):
            evaluations.append(args[2])
            return evaluate(*args)

        monkeypatch.setattr(carleman_module, "_evaluate", counting_evaluate)
        first = carleman_balance(sample_solution, params, "thm42", flux=flux,
                                 context=ctx)
        expected = first["lhs_terms"]["func"]
        first["lhs_terms"]["func"] = -1.0   # the caller's copy, not the cache's
        # thm42 does not read lambda
        again = carleman_balance(sample_solution,
                                 dataclasses.replace(params, lam=8.0), "thm42",
                                 flux=flux, context=ctx)
        assert evaluations == ["thm42"]
        assert again["lhs_terms"]["func"] == expected
        # another flux array is another evaluation; the boundary term is
        # quadratic in the flux, and doubling is exact in floating point
        doubled = carleman_balance(sample_solution, params, "thm42",
                                   flux=2.0 * flux, context=ctx)
        assert evaluations == ["thm42", "thm42"]
        assert again["rhs_terms"]["boundary"] > 0.0
        assert doubled["rhs_terms"]["boundary"] == 4.0 * again["rhs_terms"]["boundary"]

    @pytest.mark.parametrize("variant", VARIANTS)
    def test_balance_reads_only_its_list(self, sample_solution, variant,
                                         monkeypatch):
        # a fresh balance changes with each parameter or input its variant
        # reads and is bitwise unchanged by any other; on one context, a call
        # that changes only what the variant does not read is no evaluation
        reads = {"thm41": {"s", "gamma", "weight", "flux"},
                 "thm42": {"s", "gamma", "flux"}, "thm43": set(),
                 "prop1": {"s", "gamma"}, "thm51": set(),
                 "thm61": {"s", "lam", "eta_bar"},
                 "caccioppoli": {"s", "gamma"}}[variant]
        params = CarlemanParams(s=1.0, gamma=1.0, lam=1.0, alpha=1.9)
        flux = boundary_flux(sample_solution)
        base = {"weight": RegularizedWeight(epsilon=0.25, alpha=1.0),
                "flux": flux, "eta_bar": fursikov_eta_bar(1.0, 9.0)}
        changes = {
            "s": {"params": dataclasses.replace(params, s=2.0)},
            "gamma": {"params": dataclasses.replace(params, gamma=2.0)},
            "lam": {"params": dataclasses.replace(params, lam=2.0)},
            "weight": {"weight": RegularizedWeight(epsilon=0.5, alpha=1.0)},
            "flux": {"flux": 2.0 * flux},
            "eta_bar": {"eta_bar": fursikov_eta_bar(1.0, 9.0, exponent=12)}}
        evaluations = []
        evaluate = carleman_module._evaluate

        def counting_evaluate(*args):
            evaluations.append(args[2])
            return evaluate(*args)

        monkeypatch.setattr(carleman_module, "_evaluate", counting_evaluate)

        def balance(context=None, **change):
            given = {"params": params, **base, **change}
            return carleman_balance(sample_solution, given.pop("params"),
                                    variant, context=context, **given)

        ctx = BalanceContext(sample_solution, params)
        ref = balance(ctx)
        for name, change in changes.items():
            fresh = balance(**change)
            unchanged = all(fresh[side] == ref[side]
                            for side in ("lhs_terms", "rhs_terms"))
            assert unchanged == (name not in reads), (variant, name)
            count = len(evaluations)
            shared = balance(ctx, **change)
            assert (len(evaluations) > count) == (name in reads), (variant, name)
            for side in ("lhs_terms", "rhs_terms"):
                assert shared[side] == fresh[side], (variant, name)

    @pytest.mark.parametrize("variant", VARIANTS)
    def test_matches_dense_reference(self, sample_solution, variant):
        reg = RegularizedWeight(epsilon=0.25, alpha=1.0)
        eb = fursikov_eta_bar(1.0, 9.0)
        flux = boundary_flux(sample_solution)
        # alpha near 2 flattens |x|^(2-alpha), so prop1 does not underflow
        for s, g, lam, al in ((1.0, 1.0, 1.0, 1.9), (2.0, 1.0, 4.0, 1.5)):
            params = CarlemanParams(s=s, gamma=g, lam=lam, alpha=al)
            got = carleman_balance(sample_solution, params, variant, weight=reg,
                                   flux=flux, eta_bar=eb)
            lhs, rhs, shift = _dense_reference(sample_solution, params, variant,
                                               reg, flux, eb)
            assert got["exponent_shift"] == shift
            compared = 0
            for side, ref in (("lhs_terms", lhs), ("rhs_terms", rhs)):
                assert list(got[side]) == list(ref)
                for name, want in ref.items():
                    value = got[side][name]
                    if want == 0.0 or not np.isfinite(want):
                        assert value == want, (variant, name)
                    else:
                        assert abs(value - want) <= 1e-13 * abs(want), (variant, name)
                        compared += 1
            # every term of caccioppoli (two) and thm61 (four); at least three
            # elsewhere, where the B_eps remainders of thm41 may underflow
            assert compared >= {"caccioppoli": 2, "thm61": 4}.get(variant, 3)

    def test_sweep_rows_match_fresh_balances(self, monkeypatch):
        # sweep rows that share evaluations against one balance per row on a
        # new context
        cfg = ExperimentConfig(mesh_levels=(0.6,), carleman_family_count=2,
                               carleman_sweep_samples=1,
                               carleman_s=(1.0, 4.0), carleman_gamma=(1.0, 4.0),
                               carleman_lambda=(1.0, 8.0), seed=3)
        solutions, balances, evaluations = [], [], []

        def recording_solve(*args, **kwargs):
            # a block solve: one solution per family, in sample order
            solutions.append(solve(*args, **kwargs))
            return solutions[-1]

        def counting_balance(*args, **kwargs):
            balances.append(args[2])
            return carleman_balance(*args, **kwargs)

        def counting_evaluate(ctx, params, variant, *args):
            evaluations.append(variant)
            return evaluate(ctx, params, variant, *args)

        evaluate = carleman_module._evaluate
        monkeypatch.setattr(experiments, "solve", recording_solve)
        monkeypatch.setattr(experiments.cl, "carleman_balance", counting_balance)
        monkeypatch.setattr(carleman_module, "_evaluate", counting_evaluate)
        rows = run_carleman_sweep(cfg).tables["sweep"]
        assert len(rows) == (8 + 1) * len(VARIANTS)
        # one call per row and two scale-check calls per sample
        assert len(balances) == len(rows) + 2 * 2
        # swept sample: thm43 and thm51 once, four (s, gamma) pairs for the
        # ball-side variants, six (s, lambda) pairs for thm61; the other
        # sample once per variant; the scaled trajectory once per sample
        assert len(evaluations) == 2 + 4 * 4 + 6 + len(VARIANTS) + 2
        reg = RegularizedWeight(epsilon=cfg.carleman_epsilon, alpha=cfg.alpha)
        eb = fursikov_eta_bar(cfg.R, cfg.L)
        by_weight = {}
        for sols in solutions:
            regularized = isinstance(sols[0].problem.weight, RegularizedWeight)
            by_weight.setdefault(regularized, []).extend(sols)
        assert [len(sols) for sols in by_weight.values()] == [2, 2]
        for row in rows:
            sol0, solr = (by_weight[r][row["sample"]] for r in (False, True))
            params = CarlemanParams(s=row["s"], gamma=row["gamma"],
                                    lam=row["lambda"], T=cfg.T, m=cfg.m,
                                    alpha=cfg.alpha, R=cfg.R)
            fresh = carleman_balance(solr if row["variant"] == "thm41" else sol0,
                                     params, row["variant"], weight=reg,
                                     eta_bar=eb)
            for key in ("implied_C", "lhs", "rhs", "exponent_shift"):
                assert row[key] == fresh[key], (row, key)

    def test_window_localization(self, sample_solution):
        # the unweighted variants integrate their LHS over (T/4, 3T/4) only;
        # a trajectory cannot produce a larger LHS there than over all of Q
        params = CarlemanParams()
        out = carleman_balance(sample_solution, params, "thm51")
        full_energy = np.max(sample_solution.l2_norms) ** 2
        assert out["rhs"] <= full_energy * 1.001 * len(sample_solution.times)


class TestLiveColumns:
    def test_growth_is_exp_on_live_columns(self, sample_solution):
        # the live block carries exp(Theta_t e_q - shift) bitwise; outside
        # it that full expression is exactly 0.0 on all active rows.
        # Crafted columns put the largest exponent just above and just below
        # the floor, at the smallest Theta (e < 0) and at the largest (e > 0)
        params = CarlemanParams()
        ctx = BalanceContext(sample_solution, params)
        th = ctx.theta_t
        lo, hi = th.min(), th.max()
        assert lo < hi
        e0 = 2.0 * params.s * carleman_module._eta0(
            params, ctx.radius(Region.whole(), 2.0 - params.alpha))
        shift0 = carleman_module._shift(th, e0)
        tops = np.array([-745.9, -746.1, -700.0, -800.0])
        n = len(e0)
        for e, shift in ((np.concatenate([e0, (tops + shift0) / lo]), shift0),
                         (np.concatenate([e0, (tops + 1000.0) / hi]), 1000.0)):
            full = np.exp(np.multiply.outer(th, e) - shift)
            live, rows, values = ctx.growth(e, shift)
            assert np.array_equal(values, full[np.ix_(rows, live)].T)
            full[np.ix_(rows, live)] = 0.0
            assert np.all(full == 0.0)
            assert list(live[live >= n] - n) == [0, 2]
        live = ctx.growth(e0, shift0)[0]
        assert 0 < len(live) < n

    def test_all_dead_balance_is_exact_zero(self, sample_solution):
        # prop1's left-hand regions lie more than 746 below its shift at the
        # default parameters: no live column, and a left side of exactly 0.0
        params = CarlemanParams()
        ctx = BalanceContext(sample_solution, params)
        out = carleman_balance(sample_solution, params, "prop1", context=ctx)
        assert out["lhs"] == 0.0 and out["exponent_shift"] < 0.0
        assert set(out["lhs_terms"].values()) == {0.0}
        for reg in (Region.annulus(1.0, 4.0), Region.ball(4.0)):
            e = 2.0 * params.s * carleman_module._eta0(
                params, ctx.radius(reg, 2.0 - params.alpha))
            assert len(ctx.growth(e, out["exponent_shift"])[0]) == 0

    def test_sweep_matches_full_array_evaluation(self, monkeypatch):
        # every sweep row against an evaluation that exponentiates and
        # reduces every column of every support
        cfg = ExperimentConfig(mesh_levels=(0.6,), carleman_family_count=2,
                               carleman_sweep_samples=1,
                               carleman_s=(1.0, 4.0, 16.0), seed=5)
        monkeypatch.setattr(carleman_module, "_evaluate", _full_array_evaluate)
        ref = run_carleman_sweep(cfg).tables["sweep"]
        monkeypatch.undo()
        rows = run_carleman_sweep(cfg).tables["sweep"]
        assert len(rows) == len(ref)
        zeros = 0
        for row, want in zip(rows, ref):
            assert row["exponent_shift"] == want["exponent_shift"], row
            for key in ("lhs", "rhs"):
                if want[key] == 0.0:
                    assert row[key] == 0.0, (row, key)
                    zeros += 1
                else:
                    assert abs(row[key] - want[key]) <= 1e-14 * abs(want[key]), (row, key)
        assert 0 < zeros < len(rows)


class TestLiveBlock:
    WEIGHTED = [v for v in VARIANTS if v not in ("thm43", "thm51")]

    def test_weighted_bitwise_point_store(self, sample_solution, monkeypatch):
        # every weighted variant on its live (row, column) block against the
        # point store's evaluation on every active row: each term, the
        # shift and the implied constant bitwise; alpha near 2 keeps more
        # than one row live
        reg = RegularizedWeight(epsilon=0.25, alpha=1.0)
        eb = fursikov_eta_bar(1.0, 9.0)
        flux = boundary_flux(sample_solution)
        live_rows = []
        growth = BalanceContext.growth

        def counting_growth(ctx, e, shift):
            out = growth(ctx, e, shift)
            live_rows.append(len(out[1]))
            return out

        monkeypatch.setattr(BalanceContext, "growth", counting_growth)
        for s, al in ((1.0, 1.0), (4.0, 1.0), (1.0, 1.9)):
            params = CarlemanParams(s=s, gamma=s, lam=s, alpha=al)
            live_rows.clear()
            for variant in self.WEIGHTED:
                ctx = BalanceContext(sample_solution, params)
                got = carleman_balance(sample_solution, params, variant,
                                       weight=reg, flux=flux, eta_bar=eb,
                                       context=ctx)
                want = _point_store_evaluate(ctx, params, variant, reg, flux,
                                             eb)
                for key in ("lhs_terms", "rhs_terms", "lhs", "rhs",
                            "implied_C", "exponent_shift"):
                    assert got[key] == want[key], (variant, s, al, key)
        assert max(live_rows) > 1

    def test_unweighted_forms_match_point_rule(self, sample_solution):
        # thm43 and thm51 as quadratic forms of the nodal rows against the
        # point store's sums over the midpoints of their regions
        for al in (1.0, 1.5, 1.9):
            params = CarlemanParams(alpha=al)
            for variant in ("thm43", "thm51"):
                ctx = BalanceContext(sample_solution, params)
                got = carleman_balance(sample_solution, params, variant,
                                       context=ctx)
                want = _point_store_evaluate(ctx, params, variant, None, None,
                                             None)
                for side in ("lhs_terms", "rhs_terms"):
                    assert list(got[side]) == list(want[side])
                    for name, value in want[side].items():
                        assert value > 0.0
                        assert abs(got[side][name] - value) <= 1e-14 * value, (
                            variant, al, name)

    @pytest.mark.parametrize("chunk", ["default", "few cells"])
    def test_unweighted_forms_bitwise_row_by_row(self, monkeypatch,
                                                 sample_solution, chunk):
        # thm43 and thm51 bitwise the pass that gave every rule a mass row
        # and took the |grad v|^2 sums one time row at a time; with chunks
        # of a few cells the gradient sums keep their bits
        if chunk == "few cells":
            monkeypatch.setattr(carleman_module, "_CHUNK_POINTS", 50)
        mesh = sample_solution.mesh
        for al in (1.0, 1.9):
            params = CarlemanParams(alpha=al)
            for variant in ("thm43", "thm51"):
                ctx = BalanceContext(sample_solution, params)
                got = carleman_balance(sample_solution, params, variant,
                                       context=ctx)
                terms = carleman_module._TABLE[variant][1](ctx, params, None,
                                                           None)[1]
                A = np.zeros((len(terms), mesh.num_pairs))
                sums = mesh.pair_forms([(t.col, 0) for t in terms], 0.0, A,
                                       [t.region for t in terms])
                V = ctx.sol.fields[ctx.rows]
                if terms[0].cutoff is not None:
                    V = V * terms[0].cutoff.value(mesh.vertices)
                mass = [t.kind == "u2" for t in terms]
                forms = iter(mesh.quadratic_forms(A[mass], V))
                for t, s in zip(terms, sums):
                    form = next(forms) if t.kind == "u2" else np.empty(len(V))
                    if t.kind == "grad2":
                        cells = mesh.cell_mask(t.region)
                        for row, v in enumerate(V):
                            gx, gy = _cell_gradient(mesh, v[:, None], cells)
                            form[row] = s[cells] @ (gx * gx + gy * gy)[:, 0]
                    value = t.coef * ctx.integral(form, slice(None), None,
                                                  t.time, t.window)
                    side = got[f"{t.side}_terms"]
                    assert side[t.name] == value, (variant, al, t.name)

    def test_growth_drops_only_zero_rows(self, sample_solution):
        # a row is dropped only when exp(Theta_t e_q - shift) is exactly 0.0
        # on every column of it; profiles whose rows straddle the floor at
        # the small (e < 0) and the large (e > 0) Theta end
        ctx = BalanceContext(sample_solution, CarlemanParams())
        th = ctx.theta_t
        lo, mid, hi = np.quantile(th, [0.0, 0.5, 1.0])
        e = np.linspace(0.5, 1.0, 50)
        rise = 746.0 / (hi - mid) * e
        for e, shift in ((-746.0 / mid * e, -746.0 * lo / mid),
                         (rise, hi * rise.max())):
            live, rows, values = ctx.growth(e, shift)
            assert 0 < len(rows) < len(th)
            full = np.exp(np.multiply.outer(th, e) - shift)
            assert np.all(np.delete(full, rows, axis=0) == 0.0)
            assert np.all(full[rows].max(axis=1) > 0.0)
            assert np.array_equal(values, full[np.ix_(rows, live)].T)
        # crafted: one row's largest exponent sits at -745.1, where exp is
        # still the smallest subnormal; a row floor above it drops the row
        for e, row in ((1000.0 / hi * e, np.argmax(th)),
                       (-1000.0 / lo * e, np.argmin(th))):
            shift = float(np.max(th[row] * e)) + 745.1
            rows = ctx.growth(e, shift)[1]
            assert row in rows and np.max(np.exp(th[row] * e - shift)) > 0.0

    def test_no_point_store_in_src(self, sample_solution):
        # a balance builds fields only on its live block, and caches none:
        # no source file defines a context field store or caches a "field"
        hits = [f"{path.name}:{i}"
                for path in sorted(pathlib.Path(
                    carleman_module.__file__).parent.glob("*.py"))
                for i, line in enumerate(path.read_text().splitlines(), 1)
                if re.search(r"def (field|_build)\(|[\"']field[\"']", line)]
        assert not hits, hits
        assert not hasattr(BalanceContext, "field")
        assert not hasattr(BalanceContext, "_build")
        ctx = BalanceContext(sample_solution, CarlemanParams())
        for variant in VARIANTS:
            carleman_balance(sample_solution, ctx.params, variant,
                             weight=RegularizedWeight(epsilon=0.25, alpha=1.0),
                             context=ctx)
        assert {key[0] for key in ctx._cache} == {"balance"}

    def test_sweep_traced_peak(self):
        # tracemalloc peak of the sweep at the bench carleman size (h = 0.24,
        # two families, one swept), mesh build and solves included: 11.4 to
        # 11.5 MB over three calls; with a point store per (kind, cutoff) of
        # every context it peaked at 40.9 MB
        cfg = ExperimentConfig(mesh_levels=(0.24,), carleman_family_count=2,
                               carleman_sweep_samples=1,
                               carleman_s=(1.0, 4.0, 16.0))
        assert traced_peak(lambda: run_carleman_sweep(cfg)) <= 13.0 * 2**20


def _whole_disk_growth_evaluate(ctx, p, variant, weight, flux):
    """thm41 or thm42 with one growth on the whole disk, remapped by
    np.intersect1d onto the live columns of every other support, the fields
    from the point-store oracle; returns (sides, shift)."""
    profile, terms = carleman_module._TABLE[variant][1](ctx, p, weight, None)
    whole = Region.whole()
    e = profile(whole)
    shift = carleman_module._shift(ctx.theta_t, e)
    live, rows, values = ctx.growth(e, shift)
    on_disk = ctx.columns(whole)[live]
    sides = {"lhs": {}, "rhs": {}}
    for t in terms:
        if t.kind == "boundary":
            value = carleman_module._boundary_term(ctx, p, flux, shift)
        else:
            _, pos, sel = np.intersect1d(ctx.columns(t.region), on_disk,
                                         assume_unique=True,
                                         return_indices=True)
            col = None if t.col is None else t.col[pos]
            field = point_field(ctx, t.kind, ctx.columns(t.region)[pos],
                                t.cutoff)[:, rows]
            value = ctx.integral(field * values[sel], rows, col, t.time,
                                 t.window)
        sides[t.side][t.name] = t.coef * value
    return sides, shift


def _point_col(ctx, t):
    """A term's column factor on its region's columns; an unweighted
    variant's |x|^p weight as the point store took it."""
    if isinstance(t.col, AbsPowerWeight):
        return ctx.radius(t.region, t.col.p)
    return t.col


def _result(ctx, variant, sides, shift):
    lhs, rhs = (float(sum(sides[side].values())) for side in ("lhs", "rhs"))
    return {"variant": variant, "lhs_terms": sides["lhs"],
            "rhs_terms": sides["rhs"], "lhs": lhs, "rhs": rhs,
            "implied_C": carleman_module._ratio(lhs, rhs),
            "exponent_shift": shift, "excluded_time_nodes": ctx.excluded}


def _point_store_evaluate(ctx, p, variant, weight, flux, eta_bar):
    """A balance as the point store evaluated it: each support's growth on
    every active row of the columns live on any of them, the oracle's fields
    on (live columns, active rows), and the boundary flux on every active
    row; unweighted variants as point sums over their whole regions."""
    profile, terms = carleman_module._TABLE[variant][1](ctx, p, weight, eta_bar)
    th = ctx.theta_t

    def growth(e, shift):
        top = np.maximum(th.min() * e, th.max() * e) - shift
        live = np.flatnonzero(top > EXP_FLOOR)
        return live, np.exp(np.multiply.outer(e[live], th) - shift)

    def integral(field, col, time, window=False):
        tau = ctx.tau_window if window else ctx.tau
        y = field @ (tau if time is None else tau * time)
        return float(y.sum() if col is None else col @ y)

    shift, growths = 0.0, {}
    if profile is not None:
        e = {reg: profile(reg) for reg in dict.fromkeys(
            t.region for t in terms if t.kind != "boundary")}
        shift = carleman_module._shift(th, *e.values())
        growths = {reg: growth(x, shift) for reg, x in e.items()}
    sides = {"lhs": {}, "rhs": {}}
    for t in terms:
        if t.kind == "boundary":
            E, lengths = ctx.mesh.boundary_edge_average()
            rb = _radii(ctx.mesh.vertices[ctx.mesh.boundary_edges].mean(axis=1))
            col = rb ** p.alpha * rb * lengths
            live, values = growth(
                2.0 * p.s * carleman_module._eta0(p, rb ** (2.0 - p.alpha)),
                shift)
            fl = E[live] @ (boundary_flux(ctx.sol) if flux is None
                            else flux)[ctx.rows].T
            value = integral(fl * fl * values, col[live], th)
        else:
            q, col = ctx.columns(t.region), _point_col(ctx, t)
            field = None
            if t.region in growths:
                live, field = growths[t.region]
                q, col = q[live], None if col is None else col[live]
            field = (point_field(ctx, t.kind, q, t.cutoff) if field is None
                     else point_field(ctx, t.kind, q, t.cutoff) * field)
            value = integral(field, col, t.time, t.window)
        sides[t.side][t.name] = t.coef * value
    return _result(ctx, variant, sides, shift)


def _full_array_evaluate(ctx, p, variant, weight, flux, eta_bar):
    """A balance with exp over every (active row, support column) and the
    products and reductions on the full arrays; sub-regions of the whole disk
    are column slices of its growth, and the shift is the max of the
    exponent array itself."""
    profile, terms = carleman_module._TABLE[variant][1](ctx, p, weight, eta_bar)
    supports = dict.fromkeys(t.region for t in terms if t.kind != "boundary")
    th = ctx.theta_t
    shift, growth = 0.0, dict.fromkeys(supports)
    if profile is not None:
        whole = Region.whole()
        regions = [whole] if whole in supports else list(supports)
        X = {reg: np.multiply.outer(th, profile(reg)) for reg in regions}
        shift = max(float(np.max(x)) for x in X.values())
        X = {reg: np.exp(x - shift) for reg, x in X.items()}
        growth = {reg: X[reg] if reg in X else X[whole][:, ctx.columns(reg)]
                  for reg in supports}
    sides = {"lhs": {}, "rhs": {}}
    for t in terms:
        if t.kind == "boundary":
            mesh = ctx.mesh
            E, lengths = mesh.boundary_edge_average()
            e = mesh.boundary_edges
            mids = 0.5 * (mesh.vertices[e[:, 0]] + mesh.vertices[e[:, 1]])
            rb = np.linalg.norm(mids, axis=1)
            # x . nu with the outward normal mid / |mid| of a circle edge
            xnu = np.sum(mids * mids / rb[:, None], axis=1)
            fl = (E @ (boundary_flux(ctx.sol) if flux is None else flux)[ctx.rows].T).T
            ex = 2.0 * p.s * carleman_module._eta0(p, rb ** (2.0 - p.alpha))
            y = fl * fl * np.exp(np.multiply.outer(th, ex) - shift)
            y = y @ (rb ** p.alpha * xnu * lengths)
            value = float((ctx.tau * th) @ y)
        else:
            y = point_field(ctx, t.kind, ctx.columns(t.region), t.cutoff).T
            if growth[t.region] is not None:
                y = y * growth[t.region]
            col = _point_col(ctx, t)
            y = y.sum(axis=1) if col is None else y @ col
            tau = ctx.tau_window if t.window else ctx.tau
            value = float((tau if t.time is None else tau * t.time) @ y)
        sides[t.side][t.name] = t.coef * value
    return _result(ctx, variant, sides, shift)


def _dense_reference(sol, p, variant, weight, flux, eta_bar):
    """Every variant by the dense formula: (nt, nq) arrays over all time
    levels, regions as 0/1 factors, one exponent shift, and a trapezoid of
    per-slice quadrature sums.  Returns (lhs_terms, rhs_terms, shift)."""
    mesh = sol.mesh
    qp = quadrature(mesh)
    r = np.linalg.norm(qp.points, axis=1)
    t = sol.times
    th = np.zeros(len(t))
    th[1:-1] = theta(t[1:-1], p.T)
    active = (th > 0.0) & (th <= THETA_CAP)
    th = np.where(active, th, 0.0)[:, None]
    s, al, R = p.s, p.alpha, p.R
    window = (t >= p.T / 4.0 - 1e-12) & (t <= 3.0 * p.T / 4.0 + 1e-12)

    nodes, shape = p1_shape_values(mesh, qp)

    def mask(region):
        return mesh.cell_mask(region)[qp.cell].astype(float)

    def sample(nodal):
        u = np.einsum("qi,nqi->nq", shape, nodal[:, nodes])
        g = np.einsum("nci,cid->ncd", nodal[:, mesh.cells], mesh.grads)
        return u, g[:, qp.cell]

    def spacetime(density):
        return float(np.trapezoid(np.where(active, density @ qp.weights, 0.0), t))

    def windowed(density):
        slices = np.where(active, density @ qp.weights, 0.0)
        return float(np.trapezoid(slices[window], t[window]))

    def exp_shifted(E, support):
        shift = float(np.max(E[np.ix_(active, support)]))
        keep = active[:, None] & support[None, :]
        return np.exp(np.where(keep, E - shift, -np.inf)), shift

    def eta0(radial):
        return p.gamma * (-2.0 * p.m ** (2.0 - al) + radial)

    def boundary(shift):
        # s int Theta |x|^alpha (d_nu u)^2 (x . nu) e^(2 s xi_0 - shift) on
        # the outer circle, edge by edge
        e = mesh.boundary_edges
        a, b = mesh.vertices[e[:, 0]], mesh.vertices[e[:, 1]]
        mids = 0.5 * (a + b)
        rb = np.linalg.norm(mids, axis=1)
        xnu = np.sum(mids * mids / rb[:, None], axis=1)   # nu = mid / |mid|
        pos = {v: i for i, v in enumerate(np.flatnonzero(mesh.boundary_mask))}
        fl = 0.5 * (flux[:, [pos[v] for v in e[:, 0]]]
                    + flux[:, [pos[v] for v in e[:, 1]]])
        Eb = np.exp(np.where(active[:, None], 2.0 * s * eta0(rb ** (2.0 - al)) * th
                             - shift, -np.inf))
        bnd = (th * rb ** al * fl * fl * xnu * Eb) @ np.linalg.norm(b - a, axis=1)
        return s * float(np.trapezoid(np.where(active, bnd, 0.0), t))

    band = mask(Region.annulus(3.0 * R, 6.0 * R))
    in4, ring = mask(Region.ball(4.0 * R)), mask(Region.annulus(R, 4.0 * R))
    E0 = 2.0 * s * eta0(r ** (2.0 - al)) * th     # 2 s xi_0
    if variant in ("prop1", "thm43"):
        u, g = sample(sol.fields * cutoff_zeta(R).value(mesh.vertices))
        g2 = np.sum(g * g, axis=2)
        if variant == "thm43":
            lhs = {"grad_B4R_band": windowed(r ** al * g2 * ring),
                   "func_B4R": windowed(r ** (2.0 - al) * u * u * in4)}
            return lhs, {"band_mass": spacetime(u * u * band)}, 0.0
        Ew, shift = exp_shifted(E0, (in4 + band) > 0.0)
        lhs = {"grad_B4R_band": spacetime(th * r ** al * g2 * Ew * ring),
               "func_B4R": spacetime(th ** 3 * r ** (2.0 - al) * u * u * Ew * in4)}
        rhs = {"band_mass": spacetime((1.0 + th ** 1.25) * u * u * Ew * band)}
    elif variant == "caccioppoli":
        u, g = sample(sol.fields)
        ring45 = mask(Region.annulus(4.0 * R, 5.0 * R))
        Ew, shift = exp_shifted(E0, (ring45 + band) > 0.0)
        lhs = {"grad_band45": spacetime(np.sum(g * g, axis=2) * Ew * ring45)}
        rhs = {"band_mass": spacetime((1.0 + th ** 1.25) * u * u * Ew * band)}
    elif variant == "thm61":
        kappa = cutoff_kappa(R)
        uk, gk = sample(sol.fields * kappa.value(mesh.vertices))
        u, g = sample(sol.fields)
        xi = np.exp(p.lam * (8.0 + eta_bar.value_radial(r)))
        outer = mask(Region.complement(R))
        # shift over the outer region, exponentials on every column
        E = -2.0 * s * (np.exp(10.0 * p.lam) - xi) * th
        shift = float(np.max(E[np.ix_(active, outer > 0.0)]))
        Ew = np.exp(np.where(active[:, None], E - shift, -np.inf))
        xib = xi * th
        kg = kappa.gradient(qp.points)
        lap = kappa.d2_radial(r) + kappa.d1_radial(r) / r
        div_wk = al * r ** (al - 2.0) * np.sum(qp.points * kg, axis=1) + r ** al * lap
        gsrc = 2.0 * r ** al * np.einsum("qd,nqd->nq", kg, g) + u * div_wk
        lhs = {"grad": s * p.lam ** 2 * spacetime(xib * np.sum(gk * gk, axis=2)
                                                  * Ew * outer),
               "func": s ** 3 * p.lam ** 4 * spacetime(xib ** 3 * uk * uk * Ew * outer)}
        rhs = {"g_band": spacetime(gsrc * gsrc * Ew * outer),
               "band_mass": s ** 3 * p.lam ** 4 * spacetime(xib ** 3 * u * u * Ew * band)}
    elif variant == "thm51":
        u, g = sample(sol.fields)
        outer = mask(Region.complement(5.0 * R))
        lhs = {"grad_outer": windowed(r ** al * np.sum(g * g, axis=2) * outer),
               "func_outer": windowed(r ** (2.0 - al) * u * u * outer)}
        rhs, shift = {"band_mass": spacetime(u * u * band)}, 0.0
    elif variant == "thm42":
        u, g = sample(sol.fields)
        Ew, shift = exp_shifted(E0, np.ones(len(r), dtype=bool))
        outer = mask(Region.complement(R))
        lhs = {"grad_outer": s * spacetime(th * r ** al * np.sum(g * g, axis=2)
                                           * Ew * outer),
               "func": s ** 3 * spacetime(th ** 3 * r ** (2.0 - al) * u * u * Ew)}
        rhs = {"boundary": boundary(shift)}
    else:
        u, g = sample(sol.fields)
        psi, dpsi = weight.psi(r), np.abs(weight.psi_prime(r))
        Ew, shift = exp_shifted(2.0 * s * eta0(psi ** (2.0 - al)) * th,
                                np.ones(len(r), dtype=bool))
        lhs = {"grad": s * spacetime(th * psi ** al * np.sum(g * g, axis=2)
                                     * dpsi ** 2 * Ew),
               "func": s ** 3 * spacetime(th ** 3 * psi ** (2.0 - al) * u * u
                                          * dpsi ** 4 * Ew)}
        in_eps = mask(Region.ball(weight.epsilon))
        pre = s ** 2
        rhs = {"boundary": boundary(shift),
               "remainder_theta3": pre * spacetime(th ** 3 * u * u * Ew * in_eps),
               "remainder_eps": weight.epsilon ** (al - 2.0) * pre * spacetime(
                   th * u * u * Ew * in_eps)}
    return lhs, rhs, shift
