"""Closed-form oracles for the regularized weight, A_p estimator and cutoffs."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from degenlab.domain import GeometrySpec, build_disk_mesh
from degenlab.weights import (AbsPowerWeight, CubeFamily, CutoffFunction,
                              QuadratureError, RegularizedWeight,
                              ap_constant_estimate,
                              as_weight, cutoff_kappa, cutoff_rho,
                              cutoff_zeta, identity_residuals)

from conftest import quadrature


# ---------------------------------------------------------------------------
# radial profile
# ---------------------------------------------------------------------------

class TestProfile:
    def test_matching_at_epsilon(self):
        # value, first and second derivative all continuous at r = eps
        for eps in (0.25, 0.1, 1.0 / 64.0):
            w = RegularizedWeight(epsilon=eps, alpha=1.0)
            assert abs(w.psi(eps) - eps) < 1e-12
            assert abs(w.psi_prime(eps) - 1.0) < 1e-12
            assert abs(w.psi_second(eps)) < 1e-12

    def test_minimum_value(self):
        w = RegularizedWeight(epsilon=0.2, alpha=1.0)
        r = np.linspace(0.0, 1.0, 5001)
        psi = w.psi(r)
        assert np.isclose(psi[0], 3.0 * 0.2 / 8.0)
        assert np.min(psi) >= 3.0 * 0.2 / 8.0 - 1e-15

    def test_derivative_bounds(self):
        # sup|psi'| = 1, sup|psi''| = 3/(2 eps), sup|psi'''| = 3/eps^2
        eps = 0.3
        w = RegularizedWeight(epsilon=eps, alpha=1.0)
        r = np.linspace(0.0, 2.0, 20001)
        assert np.max(np.abs(w.psi_prime(r))) <= 1.0 + 1e-12
        assert np.isclose(np.max(np.abs(w.psi_second(r))), 3.0 / (2.0 * eps))
        # the third derivative -3r/eps^3 on [0, eps] as the slope of psi''
        # between grid points, (3/(2 eps^3)) (r_k + r_k+1), short by dr/eps
        slope = np.diff(w.psi_second(r)) / np.diff(r)
        assert np.isclose(np.max(np.abs(slope)), 3.0 / eps**2, rtol=5e-4)

    def test_profile_dominates_radius(self):
        w = RegularizedWeight(epsilon=0.25, alpha=1.0)
        r = np.linspace(0.0, 1.0, 2001)
        assert np.all(w.psi(r) >= np.maximum(r, 3.0 * 0.25 / 8.0) - 1e-15)

    @given(st.floats(min_value=1e-3, max_value=1.0),
           st.floats(min_value=0.0, max_value=1.0))
    @settings(max_examples=60, deadline=None)
    def test_monotone_increasing(self, eps, frac):
        w = RegularizedWeight(epsilon=eps, alpha=1.0)
        r = frac * 2.0 * eps
        dr = 1e-4 * eps
        assert w.psi(r + dr) >= w.psi(r) - 1e-15

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            RegularizedWeight(epsilon=-1.0, alpha=1.0)
        # psi_eps divides by eps^3, a normal float from eps = tiny^(1/3) on
        for eps in (1e-120, 1e-300, 2.81e-103, float("nan")):
            with pytest.raises(ValueError, match="epsilon must be at least"):
                RegularizedWeight(epsilon=eps, alpha=1.0)
        assert RegularizedWeight(epsilon=2.82e-103, alpha=1.0).psi(0.0) > 0.0
        with pytest.raises(ValueError, match="radius must be nonnegative"):
            RegularizedWeight(epsilon=0.1, alpha=1.0).psi(np.array([0.5, -0.1]))
        with pytest.raises(ValueError):
            RegularizedWeight(epsilon=0.1, alpha=2.0)
        with pytest.raises(ValueError):
            RegularizedWeight(epsilon=0.1, alpha=0.0)

    def test_quartic_only_inside_keeps_where_values(self):
        # psi, psi' and psi'' evaluate the quartic only where r <= eps; the
        # values, shapes and types are those of np.where on both branches
        e = 0.1
        w = RegularizedWeight(epsilon=e, alpha=1.3)
        r = np.random.default_rng(0).uniform(0.0, 3.0 * e, 1000)
        for radii in (r, r.reshape(40, 25), np.array([0.0, e, 0.0]),
                      np.array(0.0), np.array(e), np.array(0.25), 0.0, e,
                      0.25):
            q = np.asarray(radii, dtype=float)
            inside = q <= e
            want = (np.where(inside, 3.0 * e / 8.0 + 3.0 * q**2 / (4.0 * e)
                             - q**4 / (8.0 * e**3), q),
                    np.where(inside, 3.0 * q / (2.0 * e)
                             - q**3 / (2.0 * e**3), 1.0),
                    np.where(inside, 3.0 / (2.0 * e)
                             - 3.0 * q**2 / (2.0 * e**3), 0.0))
            got = (w.psi(radii), w.psi_prime(radii), w.psi_second(radii))
            for g, x in zip(got, want):
                assert type(g) is type(x) and g.shape == q.shape
                assert np.array_equal(g, x)
        for radius in (-0.1, np.array(-1e-300), np.array([[0.5, -0.2]])):
            with pytest.raises(ValueError, match="radius must be nonnegative"):
                w.psi(radius)


class TestDerivatives:
    # at alpha = 1, RegularizedWeight.gradient is grad psi_eps(|x|)

    def test_gradient_zero_at_origin(self):
        w = RegularizedWeight(epsilon=0.25, alpha=1.0)
        assert np.allclose(w.gradient(np.zeros(2)), 0.0)

    def test_finite_difference_convergence(self):
        # central differences on psi(|x|): observed order >= 1.9
        w = RegularizedWeight(epsilon=0.25, alpha=1.0)
        rng = np.random.default_rng(3)
        pts = []
        for _ in range(15):
            ang = rng.uniform(0.0, 2.0 * np.pi)
            rad = rng.uniform(0.05, 0.2)      # inside, away from the kink
            pts.append(np.array([rad * np.cos(ang), rad * np.sin(ang)]))
        for _ in range(5):
            ang = rng.uniform(0.0, 2.0 * np.pi)
            rad = rng.uniform(0.35, 1.0)      # outside the kink
            pts.append(np.array([rad * np.cos(ang), rad * np.sin(ang)]))

        def f(x):
            return float(w.psi(np.linalg.norm(x)))

        errs = []
        for h in (1e-3, 5e-4, 2.5e-4):
            worst = 0.0
            for x in pts:
                grad = w.gradient(x)[0]
                for k in range(2):
                    e = np.zeros(2)
                    e[k] = h
                    fd = (f(x + e) - f(x - e)) / (2.0 * h)
                    worst = max(worst, abs(fd - grad[k]))
            errs.append(worst)
        orders = [np.log2(errs[i] / errs[i + 1]) for i in range(2)]
        assert min(orders) >= 1.9

    def test_hessian_trace_is_laplacian(self):
        # trace of the difference Hessian of psi(|x|) (central differences
        # of its gradient) against the radial Laplacian psi'' + psi'/r in 2D
        w = RegularizedWeight(epsilon=0.25, alpha=1.0)
        rng = np.random.default_rng(5)
        h = 1e-5
        for _ in range(20):
            x = rng.uniform(-0.5, 0.5, size=2)
            trace = sum((w.gradient(x + h * e)[0, k]
                         - w.gradient(x - h * e)[0, k]) / (2.0 * h)
                        for k, e in enumerate(np.eye(2)))
            r = np.linalg.norm(x)
            lap = w.psi_second(r) + w.psi_prime(r) / r
            assert np.isclose(trace, lap, rtol=1e-6)

    def test_weight_gradient_matches_chain_rule(self):
        w = RegularizedWeight(epsilon=0.25, alpha=1.3)
        rng = np.random.default_rng(9)
        x = rng.uniform(-0.4, 0.4, size=(50, 2))
        g = w.gradient(x)
        h = 1e-6
        for k in range(2):
            e = np.zeros(2)
            e[k] = h
            fd = (w(x + e) - w(x - e)) / (2.0 * h)
            assert np.allclose(g[:, k], fd, atol=1e-7)


class TestIdentities:
    def test_residuals_at_origin(self):
        w = RegularizedWeight(epsilon=0.25, alpha=1.0)
        res = identity_residuals(w, np.zeros(2))
        assert max(abs(v) for v in res.values()) < 1e-14

    def test_residuals_random_points(self):
        rng = np.random.default_rng(0)
        eps = 0.25
        w = RegularizedWeight(epsilon=eps, alpha=1.0)
        for _ in range(1000):
            ang = rng.uniform(0.0, 2.0 * np.pi)
            rad = eps * np.sqrt(rng.uniform())
            res = identity_residuals(
                w, (rad * np.cos(ang), rad * np.sin(ang)))
            assert max(abs(v) for v in res.values()) < 1e-12

    def test_outside_ball_rejected(self):
        w = RegularizedWeight(epsilon=0.25, alpha=1.0)
        with pytest.raises(ValueError):
            identity_residuals(w, (0.3, 0.0))


class TestExactWeight:
    def test_values(self):
        x = np.array([[3.0, 4.0], [1.0, 0.0]])
        assert np.allclose(AbsPowerWeight(1.0)(x), [5.0, 1.0])
        assert np.allclose(AbsPowerWeight(0.5)(x), [np.sqrt(5.0), 1.0])

    @pytest.mark.parametrize("levels", [2, 3])
    def test_alpha_one_is_the_norm_bitwise(self, levels):
        # (x.x)^(1/2) rounds like the Euclidean norm, so every alpha = 1
        # quantity matches the norm-based formula bit for bit
        mesh = build_disk_mesh(GeometrySpec(R=0.12, L=1.0), 0.1,
                               local_h=1.0 / 64.0)
        x = quadrature(mesh, 0.25, levels=levels).points
        assert np.array_equal(AbsPowerWeight(1.0)(x),
                              np.linalg.norm(x, axis=-1))

    @pytest.mark.parametrize("p", [0.5, 1.0, 1.5])
    def test_gradient(self, p):
        w = AbsPowerWeight(p)
        x = np.random.default_rng(8).uniform(-1.0, 1.0, size=(50, 2))
        g = w.gradient(x)
        h = 1e-6
        for k, e in enumerate(h * np.eye(2)):
            fd = (w(x + e) - w(x - e)) / (2.0 * h)
            assert np.allclose(g[:, k], fd, rtol=1e-6, atol=1e-8)
        # the inline formula of the Carleman commutator source, bitwise
        r_safe = np.maximum(np.linalg.norm(x, axis=1), 1e-300)
        assert np.array_equal(g, (p * r_safe ** (p - 2.0))[:, None] * x)

    def test_quadrature_radius(self):
        assert AbsPowerWeight(1.0).quadrature_radius == 0.0
        reg = RegularizedWeight(epsilon=0.1, alpha=1.0)
        assert reg.quadrature_radius == 0.2


class TestAsWeight:
    def test_spellings(self):
        assert as_weight(None) is None
        assert as_weight(1) == AbsPowerWeight(1.0)
        assert isinstance(as_weight(1).p, float)
        assert as_weight(np.float64(0.5)) == AbsPowerWeight(0.5)
        for w in (AbsPowerWeight(-1.0), RegularizedWeight(0.1, 1.0)):
            assert as_weight(w) is w

    @pytest.mark.parametrize("alpha", [2.5, -1.0, 0.0, 2.0, float("nan")])
    def test_alpha_outside_range(self, alpha):
        with pytest.raises(ValueError, match=r"alpha must lie in \(0, 2\)"):
            as_weight(alpha)

    @pytest.mark.parametrize("weight", ["1.0", True, [1.0],
                                        lambda x: np.ones(len(x))])
    def test_not_a_weight(self, weight):
        with pytest.raises(TypeError):
            as_weight(weight)


# ---------------------------------------------------------------------------
# Muckenhoupt estimator
# ---------------------------------------------------------------------------

class TestMuckenhoupt:
    def test_constant_weight_gives_one(self):
        cubes = CubeFamily(half=2.0, levels=2, random_per_level=16, seed=0)
        val = ap_constant_estimate(
            lambda x: np.full(len(np.atleast_2d(x)), 3.7), 2.0, cubes)
        assert abs(val - 1.0) < 1e-6

    def test_at_least_one_and_scaling_invariant(self):
        cubes = CubeFamily(half=2.0, levels=2, random_per_level=16, seed=1)
        w = RegularizedWeight(epsilon=0.25, alpha=1.0)
        base = ap_constant_estimate(w, 2.0, cubes, singular_radius=0.25)
        scaled = ap_constant_estimate(lambda x: 5.0 * w(x), 2.0, cubes,
                                      singular_radius=0.25)
        assert base >= 1.0
        assert abs(scaled - base) < 1e-10 * base

    def test_regularized_below_exact(self):
        # smoothing can only lower the oscillation probe
        cubes = CubeFamily(half=2.0, levels=3, random_per_level=32, seed=2)
        w = RegularizedWeight(epsilon=0.25, alpha=1.0)
        reg = ap_constant_estimate(w, 2.0, cubes, singular_radius=0.25)
        ex = ap_constant_estimate(AbsPowerWeight(1.0), 2.0, cubes,
                                  singular_radius=1e-3)
        assert reg <= ex * (1.0 + 1e-12)
        assert ex <= 2.0 * reg

    def test_invalid_p(self):
        cubes = CubeFamily(half=1.0, levels=1, random_per_level=4, seed=0)
        with pytest.raises(ValueError):
            ap_constant_estimate(lambda x: np.ones(len(x)), 1.0, cubes)

    def test_zero_weight_is_quadrature_error(self):
        # the w^(-1/(p-1)) average of a zero weight is infinite
        cubes = CubeFamily(half=1.0, levels=1, random_per_level=4, seed=0)
        with np.errstate(divide="ignore", invalid="ignore"):
            with pytest.raises(QuadratureError, match="non-finite cube average"):
                ap_constant_estimate(lambda x: np.zeros(len(x)), 2.0, cubes)


# ---------------------------------------------------------------------------
# cutoffs
# ---------------------------------------------------------------------------

class TestCutoffs:
    def test_zeta_plateaus(self):
        z = cutoff_zeta(1.0)
        assert z.value_radial(0.0) == 1.0
        assert z.value_radial(4.0) == 1.0
        assert z.value_radial(5.0) == 0.0
        assert z.value_radial(7.0) == 0.0

    def test_kappa_complementary_with_flat_start(self):
        k = cutoff_kappa(1.0)
        z = cutoff_zeta(1.0)
        r = np.linspace(0.0, 9.0, 1001)
        assert np.allclose(k.value_radial(r) + z.value_radial(r), 1.0)
        # value and first derivative vanish where the ramp begins
        assert k.value_radial(4.0) == 0.0
        assert k.d1_radial(4.0) == 0.0

    def test_rho_covers_transition_band(self):
        rho = cutoff_rho(1.0)
        assert rho.value_radial(4.5) == 1.0
        assert rho.value_radial(5.0) == 1.0
        assert rho.value_radial(6.0) == 0.0

    def test_c2_continuity(self):
        c = CutoffFunction(4.0, 5.0)
        for r0 in (4.0, 5.0):
            h = 1e-7
            assert abs(c.value_radial(r0 - h) - c.value_radial(r0 + h)) < 1e-6
            assert abs(c.d1_radial(r0 - h) - c.d1_radial(r0 + h)) < 1e-5
            assert abs(c.d2_radial(r0 - h) - c.d2_radial(r0 + h)) < 1e-4

    def test_gradient_matches_radial_derivative(self):
        c = CutoffFunction(4.0, 5.0)
        x = np.array([[4.5, 0.0], [0.0, 4.2], [3.0, 3.0]])
        g = c.gradient(x)
        r = np.linalg.norm(x, axis=1)
        expected = c.d1_radial(r)[:, None] * x / r[:, None]
        assert np.allclose(g, expected)

    def test_measured_constants(self):
        # quintic smoothstep: sup|S'| = 15/8 exactly on the unit band
        c = CutoffFunction(4.0, 5.0)
        consts = c.measured_constants()
        assert np.isclose(consts["grad_constant"], 15.0 / 8.0, rtol=1e-5)
        assert consts["hess_constant"] > 0.0

    def test_invalid_radii(self):
        with pytest.raises(ValueError):
            CutoffFunction(5.0, 4.0)
        with pytest.raises(ValueError):
            CutoffFunction(1.0, 2.0, "sideways")
