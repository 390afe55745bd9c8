"""Closed-form oracles for the Carleman weight family and balance evaluators."""

import dataclasses

import numpy as np
import pytest

from degenlab.carleman import (BalanceContext, CarlemanParams,
                               CarlemanWeightSet, EtaBar, VARIANTS,
                               carleman_balance, eta_xi, fursikov_eta_bar,
                               theta, theta_bound_check, weight_window_bounds,
                               xi_sigma_bar)
from degenlab.domain import GeometrySpec, build_disk_mesh
from degenlab.solver import ParabolicProblem, boundary_flux, solve
from degenlab.weights import RegularizedWeight, cutoff_zeta


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
    def test_eta_range_and_sign(self):
        params = CarlemanParams(gamma=4.0, m=10.0, alpha=1.0)
        x = np.column_stack([np.linspace(0.0, 9.0, 200), np.zeros(200)])
        eta = eta_xi(x, 0.5, params)["eta"]
        assert np.all(eta < 0.0)
        assert np.isclose(eta[0], 4.0 * (-20.0))
        assert np.isclose(eta[-1], 4.0 * (-20.0 + 9.0))

    def test_regularized_profile_dominates(self):
        # psi_eps >= |x| makes the regularized eta the larger (less negative)
        params = CarlemanParams()
        w = RegularizedWeight(epsilon=0.25, alpha=1.0)
        x = np.column_stack([np.linspace(0.0, 1.0, 50), np.zeros(50)])
        e0 = eta_xi(x, 0.5, params)["eta"]
        er = eta_xi(x, 0.5, params, weight=w)["eta"]
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

    def test_gradient_direction(self):
        eb = fursikov_eta_bar(1.0, 9.0)
        g = eb.gradient(np.array([[6.0, 0.0]]))
        # decreasing past the critical radius: gradient points inward
        assert g[0, 0] < 0.0 and abs(g[0, 1]) < 1e-15


class TestBarWeights:
    def test_sigma_positive_and_xi_plugin(self):
        params = CarlemanParams(lam=2.0)
        eb = fursikov_eta_bar(1.0, 9.0)
        x = np.column_stack([np.linspace(4.1, 8.9, 100), np.zeros(100)])
        out = xi_sigma_bar(x, 0.5, params, eb)
        assert np.all(out["sigma_bar"] > 0.0)
        th = theta(0.5, 1.0)
        at_max = xi_sigma_bar(np.array([[eb.critical_radius, 0.0]]), 0.5,
                              params, eb)
        assert np.isclose(at_max["xi_bar"][0], th * np.exp(9.0 * 2.0))

    def test_weight_set_bundle(self):
        params = CarlemanParams()
        ws = CarlemanWeightSet(params=params,
                               eta_bar=fursikov_eta_bar(1.0, 9.0))
        assert np.isclose(ws.theta(0.5), 256.0)
        x = np.array([[5.0, 0.0]])
        assert ws.sigma_bar(x, 0.5)[0] > 0.0

    def test_window_bounds_are_finite_logs(self):
        out = weight_window_bounds(CarlemanParams(), L=9.0)
        assert out["sup_Q_finite"]
        assert out["inf_window_positive"]
        assert out["log_sup_Q"] >= out["log_inf_window"]


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
        # the sparse interpolation operator against the per-point shape sum
        ctx = BalanceContext(sample_solution, CarlemanParams())
        qp, mesh = ctx.qp, sample_solution.mesh
        zeta = cutoff_zeta(1.0)
        f = sample_solution.fields
        fz = f * zeta.value(mesh.vertices)[None, :]
        for got, nodal in ((ctx.u, f), (ctx.cutoff_fields(zeta)[0], fz)):
            ref = np.einsum("qi,nqi->nq", qp.shape, nodal[:, qp.nodes])
            assert got.flags.c_contiguous
            assert np.max(np.abs(got - ref)) <= 1e-14 * np.max(np.abs(ref))

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
        ctx = BalanceContext(sample_solution, CarlemanParams())
        with pytest.raises(ValueError):
            carleman_balance(sample_solution, CarlemanParams(T=2.0), "thm43",
                             context=ctx)

    def test_window_localization(self, sample_solution):
        # the unweighted variants integrate their LHS over (T/4, 3T/4) only;
        # a trajectory cannot produce a larger LHS there than over all of Q
        params = CarlemanParams()
        out = carleman_balance(sample_solution, params, "thm51")
        full_energy = np.max(sample_solution.l2_norms) ** 2
        assert out["rhs"] <= full_energy * 1.001 * len(sample_solution.times)
