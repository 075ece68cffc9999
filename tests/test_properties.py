"""Randomized invariant checks over many generated instances.

Each test draws seeded random positive definite covariance matrices and
expected-return vectors and asserts algebraic identities that must hold
for every instance, independent of the published case study.
"""

import numpy as np
import pytest

from frontera.frontier import frontier_constants, frontier_risk, gmv_portfolio, tangency
from frontera.stats import invert_matrix

from conftest import random_expected_returns, random_pd_matrix
from oracle import GridSpec, fd_tangency_check, grid_min_variance, weights_for_target


def random_model(rng, n):
    """A random covariance matrix and its inverse."""
    cov = random_pd_matrix(rng, n)
    return cov, invert_matrix(cov)


CASES = [(seed, n) for seed in range(40) for n in (2, 3, 4)]


class TestFrontierIdentities:
    @pytest.mark.parametrize("seed,n", CASES)
    def test_weights_sum_to_one(self, seed, n):
        rng = np.random.default_rng(seed)
        _, inverse = random_model(rng, n)
        fc = frontier_constants(inverse, random_expected_returns(rng, n))
        for target in (-0.05, 0.0, 0.04, 0.25):
            sol = weights_for_target(fc, target)
            assert sol.weights.sum() == pytest.approx(1.0, abs=1e-9)

    @pytest.mark.parametrize("seed,n", CASES)
    def test_target_binding(self, seed, n):
        rng = np.random.default_rng(seed + 1000)
        _, inverse = random_model(rng, n)
        er = random_expected_returns(rng, n)
        fc = frontier_constants(inverse, er)
        for target in (0.01, 0.07, 0.2):
            sol = weights_for_target(fc, target)
            assert sol.weights @ er == pytest.approx(target, abs=1e-9)

    @pytest.mark.parametrize("seed,n", CASES)
    def test_gmv_is_frontier_vertex(self, seed, n):
        rng = np.random.default_rng(seed + 2000)
        cov, inverse = random_model(rng, n)
        er = random_expected_returns(rng, n)
        fc = frontier_constants(inverse, er)
        gmv = gmv_portfolio(fc, 0.02)
        # quadratic-form variance agrees with 1/alpha
        w = gmv.weights
        assert w @ cov @ w == pytest.approx(1.0 / fc.alpha, rel=1e-10)
        # any other frontier portfolio is riskier
        for target in (gmv.port_return - 0.03, gmv.port_return + 0.03):
            assert frontier_risk(fc, target) > gmv.risk

    @pytest.mark.parametrize("seed,n", CASES)
    def test_closed_form_matches_quadratic_form(self, seed, n):
        rng = np.random.default_rng(seed + 3000)
        cov, inverse = random_model(rng, n)
        fc = frontier_constants(inverse, random_expected_returns(rng, n))
        for target in (0.0, 0.05, 0.15):
            sol = weights_for_target(fc, target)
            w = sol.weights
            assert w @ cov @ w == pytest.approx(sol.variance, rel=1e-9)
            assert frontier_risk(fc, target) == pytest.approx(sol.risk, rel=1e-9)

    @pytest.mark.parametrize("seed,n", CASES)
    def test_delta_positive(self, seed, n):
        rng = np.random.default_rng(seed + 4000)
        _, inverse = random_model(rng, n)
        fc = frontier_constants(inverse, random_expected_returns(rng, n))
        assert fc.alpha > 0 and fc.gamma > 0 and fc.delta > 0


class TestTangencyProperties:
    @pytest.mark.parametrize("seed,n", CASES)
    def test_tangency_on_frontier_and_cml(self, seed, n):
        rng = np.random.default_rng(seed + 5000)
        _, inverse = random_model(rng, n)
        fc = frontier_constants(inverse, random_expected_returns(rng, n))
        rf = 0.005
        if abs(fc.b - fc.alpha * rf) < 1e-6:
            pytest.skip("tangency at infinity for this draw")
        tang = tangency(fc, rf)
        assert tang.sigma_rt == pytest.approx(frontier_risk(fc, tang.r_t), rel=1e-12)
        assert rf + tang.sigma_rt * tang.slope == pytest.approx(tang.r_t, rel=1e-10)

    @pytest.mark.parametrize("seed,n", CASES)
    def test_cml_dominates_frontier(self, seed, n):
        # the CML lies on or above the efficient frontier everywhere
        rng = np.random.default_rng(seed + 6000)
        _, inverse = random_model(rng, n)
        fc = frontier_constants(inverse, random_expected_returns(rng, n))
        rf = 0.005
        if fc.b - fc.alpha * rf < 1e-6:
            pytest.skip("rf above the GMV return for this draw")
        tang = tangency(fc, rf)
        mu = fc.b / fc.alpha
        for target in np.linspace(mu, mu + 0.2, 15):
            risk = frontier_risk(fc, target)
            assert rf + risk * tang.slope >= target - 1e-9

    @pytest.mark.parametrize("seed,n", CASES)
    def test_fd_residual(self, seed, n):
        rng = np.random.default_rng(seed + 7000)
        _, inverse = random_model(rng, n)
        fc = frontier_constants(inverse, random_expected_returns(rng, n))
        rf = 0.005
        if abs(fc.b - fc.alpha * rf) < 1e-6:
            pytest.skip("tangency at infinity for this draw")
        residual = fd_tangency_check(fc, rf)
        assert abs(residual) < 1e-4


class TestGridOracle:
    @pytest.mark.parametrize("seed,n", [(s, n) for s in range(15) for n in (2, 3, 4)])
    def test_long_only_never_beats_gmv(self, seed, n):
        rng = np.random.default_rng(seed + 8000)
        cov, inverse = random_model(rng, n)
        fc = frontier_constants(inverse, random_expected_returns(rng, n))
        _, grid_var = grid_min_variance(cov, GridSpec(step=0.05))
        assert grid_var >= 1.0 / fc.alpha - 1e-3


class TestInversionProperties:
    @pytest.mark.parametrize("seed,n", [(s, n) for s in range(25) for n in (2, 3, 4, 5)])
    def test_inverse_identity_and_symmetry(self, seed, n):
        rng = np.random.default_rng(seed + 9000)
        a = random_pd_matrix(rng, n)
        inv = invert_matrix(a)
        assert np.max(np.abs(a @ inv - np.eye(n))) < 1e-9
        assert np.array_equal(inv, inv.T)

    @pytest.mark.parametrize("seed", range(20))
    def test_matches_numpy(self, seed):
        rng = np.random.default_rng(seed + 10000)
        a = random_pd_matrix(rng, 4)
        assert np.allclose(invert_matrix(a), np.linalg.inv(a), rtol=1e-8, atol=1e-10)
