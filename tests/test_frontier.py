import re

import numpy as np
import pytest

from frontera.frontier import (
    DegenerateFrontierError,
    FrontierError,
    TangencyUndefinedError,
    frontier_constants,
    frontier_risk,
    gmv_portfolio,
    tangency,
    viability_check,
)
from frontera.report import emit_frontier_curve, replay_paper
from frontera.stats import invert_matrix

from conftest import load_fixture, random_expected_returns, random_pd_matrix
from oracle import weights_for_target


def fixture_constants(name):
    replay = load_fixture(name)
    fc = frontier_constants(invert_matrix(replay.cov_matrix), replay.expected_returns)
    return fc, replay.cov_matrix, replay.window.rf_annual


class TestFrontierConstants:
    def test_identical_assets(self):
        sigma2, e = 0.04, 0.06
        inverse = invert_matrix(sigma2 * np.eye(2))
        fc = frontier_constants(inverse, np.array([e, e]))
        assert np.allclose(fc.h, [1 / sigma2, 1 / sigma2])
        assert fc.alpha == pytest.approx(2 / sigma2)
        assert fc.b == pytest.approx(2 * e / sigma2)
        assert fc.gamma == pytest.approx(2 * e * e / sigma2)
        assert fc.delta == pytest.approx(0.0, abs=1e-12)

    def test_2015_2023_block(self):
        fc, _, _ = fixture_constants("2015_2023")
        assert fc.alpha == pytest.approx(15.62, abs=0.05)
        assert fc.b == pytest.approx(0.6003, abs=0.01)
        assert fc.gamma == pytest.approx(0.0265, abs=0.001)
        assert fc.delta == pytest.approx(0.0543, abs=0.003)
        assert np.allclose(fc.h, [7.24, 2.79, 5.07, 0.52], atol=0.1)

    def test_2015_2019_block(self):
        fc, _, _ = fixture_constants("2015_2019")
        assert fc.alpha == pytest.approx(29.59, abs=0.05)
        assert fc.b == pytest.approx(1.68, abs=0.02)
        assert fc.gamma == pytest.approx(0.096, abs=0.002)
        assert fc.delta == pytest.approx(0.0088, abs=0.0005)

    def test_alpha_b_are_sums(self):
        fc, _, _ = fixture_constants("2023")
        assert fc.alpha == float(fc.h.sum())
        assert fc.b == float(fc.g.sum())

    def test_dimension_mismatch(self):
        inverse = invert_matrix(np.eye(3))
        for er in ([0.01, 0.02], [0.01] * 4, [[0.01], [0.02], [0.03]]):
            message = f"expected-returns length {np.shape(er)} does not match 3 assets"
            with pytest.raises(FrontierError, match=f"^{re.escape(message)}$"):
                frontier_constants(inverse, er)


class TestGmvPortfolio:
    def test_symmetric_two_assets(self):
        sigma2 = 0.09
        inverse = invert_matrix(sigma2 * np.eye(2))
        fc = frontier_constants(inverse, np.array([0.05, 0.05]))
        sol = gmv_portfolio(fc, 0.02)
        assert np.allclose(sol.weights, [0.5, 0.5])
        assert sol.variance == pytest.approx(sigma2 / 2)

    def test_weights_sum_to_one(self):
        fc, _, rf = fixture_constants("2015_2023")
        sol = gmv_portfolio(fc, rf)
        assert abs(sol.weights.sum() - 1.0) < 1e-9

    def test_matches_quadratic_form(self):
        fc, matrix, rf = fixture_constants("2016_2020")
        sol = gmv_portfolio(fc, rf)
        variance = sol.weights @ matrix @ sol.weights
        assert variance == pytest.approx(sol.variance, rel=1e-9)
        assert np.sqrt(variance) == pytest.approx(sol.risk, rel=1e-9)


class TestWeightsForTarget:
    def test_gmv_consistency(self):
        fc, _, rf = fixture_constants("2015_2023")
        target = fc.b / fc.alpha
        sol = weights_for_target(fc, target)
        assert abs((fc.alpha * target - fc.b) / fc.delta) < 1e-9  # theta
        assert np.allclose(sol.weights, fc.h / fc.alpha, atol=1e-9)

    def test_paper_lambda_theta(self):
        fc, _, _ = fixture_constants("2015_2023")
        target = 0.038
        lam = (fc.gamma - fc.b * target) / fc.delta
        theta = (fc.alpha * target - fc.b) / fc.delta
        # published values chain rounded inputs: 6.9% and -12.3%
        assert lam == pytest.approx(0.069, abs=0.002)
        assert theta == pytest.approx(-0.123, abs=0.005)
        # the weights are lambda * h + theta * g
        sol = weights_for_target(fc, target)
        assert np.allclose(sol.weights, lam * fc.h + theta * fc.g, rtol=0, atol=1e-12)

    def test_paper_weights_2015_2019(self):
        fc, _, _ = fixture_constants("2015_2019")
        sol = weights_for_target(fc, 0.057)
        assert np.allclose(sol.weights, [0.308, 0.154, 0.433, 0.102], atol=0.04)

    def test_binding_and_normalized(self):
        replay = load_fixture("2020_2023")
        inverse = invert_matrix(replay.cov_matrix)
        er = np.asarray(replay.expected_returns)
        fc = frontier_constants(inverse, er)
        for target in (0.01, 0.03, 0.08):
            sol = weights_for_target(fc, target)
            assert abs(sol.weights.sum() - 1.0) < 1e-9
            assert abs(float(sol.weights @ er) - target) < 1e-9

    def test_degenerate_frontier(self):
        inverse = invert_matrix(0.04 * np.eye(3))
        fc = frontier_constants(inverse, np.full(3, 0.05))
        assert abs(fc.delta) < 1e-12
        with pytest.raises(DegenerateFrontierError):
            weights_for_target(fc, 0.06)


class TestPortfolioMetrics:
    """Portfolio return, variance and Sharpe ratio computed inline as w @ er,
    w @ A @ w and (return - rf) / risk, against the paper's 2015-2023 figures."""

    def test_paper_return(self):
        w = np.array([0.498, 0.171, 0.313, 0.018])
        er = np.array([0.0303, 0.0432, 0.0473, 0.0392])
        assert w @ er == pytest.approx(0.038, abs=1e-3)

    def test_one_hot_return(self):
        er = np.array([0.01, 0.07, 0.03])
        assert np.array([0.0, 1.0, 0.0]) @ er == 0.07

    def test_equal_weights_constant_returns(self):
        assert np.full(4, 0.25) @ np.full(4, 0.06) == pytest.approx(0.06)

    def test_paper_variance(self):
        a = load_fixture("2015_2023").cov_matrix
        w = np.array([0.498, 0.171, 0.313, 0.018])
        assert w @ a @ w == pytest.approx(0.0640, abs=1e-3)
        assert np.sqrt(w @ a @ w) == pytest.approx(0.253, abs=2e-3)

    def test_one_hot_variance(self):
        a = load_fixture("2015_2023").cov_matrix
        w = np.array([0.0, 1.0, 0.0, 0.0])
        assert w @ a @ w == pytest.approx(a[1, 1])

    def test_sharpe(self):
        assert (0.038 - 0.0687) / 0.253 == pytest.approx(-0.121, abs=1e-3)
        assert (0.019 - 0.0726) / 0.3131 == pytest.approx(-0.1712, abs=1e-3)
        fc, _, rf = fixture_constants("2015_2023")
        sol = gmv_portfolio(fc, rf)
        assert sol.sharpe == (sol.port_return - 0.0687) / sol.risk


class TestTangency:
    @pytest.mark.parametrize(
        "name,rt,srt,slope,tol_rt",
        [
            ("2015_2023", 0.0311, 0.282, -0.133, 0.001),
            ("2016_2020", 0.0531, 0.253, -0.025, 0.0015),
            ("2023", 0.049, 0.267, -0.188, 0.002),
        ],
    )
    def test_paper_blocks(self, name, rt, srt, slope, tol_rt):
        fc, _, rf = fixture_constants(name)
        t = tangency(fc, rf)
        assert t.r_t == pytest.approx(rt, abs=tol_rt)
        assert t.sigma_rt == pytest.approx(srt, abs=0.005)
        assert t.slope == pytest.approx(slope, abs=0.005)

    def test_tangency_on_frontier(self):
        fc, _, rf = fixture_constants("2015_2023")
        t = tangency(fc, rf)
        assert frontier_risk(fc, t.r_t) == pytest.approx(t.sigma_rt, rel=1e-9)
        assert t.slope == (t.r_t - rf) / t.sigma_rt

    def test_undefined_at_gmv_rate(self):
        fc, _, _ = fixture_constants("2015_2023")
        with pytest.raises(TangencyUndefinedError):
            tangency(fc, fc.b / fc.alpha)

    def test_shift_property(self):
        replay = load_fixture("2015_2023")
        inverse = invert_matrix(replay.cov_matrix)
        er = np.asarray(replay.expected_returns)
        c = 0.0123
        fc0 = frontier_constants(inverse, er)
        fc1 = frontier_constants(inverse, er + c)
        g0 = gmv_portfolio(fc0, replay.window.rf_annual)
        g1 = gmv_portfolio(fc1, replay.window.rf_annual + c)
        assert np.array_equal(g0.weights, g1.weights)
        t0 = tangency(fc0, replay.window.rf_annual)
        t1 = tangency(fc1, replay.window.rf_annual + c)
        assert t1.r_t == pytest.approx(t0.r_t + c, abs=1e-9)


class TestFrontierRiskAndCml:
    def test_paper_values(self):
        fc, _, _ = fixture_constants("2015_2023")
        assert frontier_risk(fc, 0.038) == pytest.approx(0.253, abs=0.003)
        fc19, _, _ = fixture_constants("2015_2019")
        assert frontier_risk(fc19, 0.057) == pytest.approx(0.1845, abs=0.005)

    def test_vertex_identity(self):
        for name in ("2015_2023", "2016_2020", "2023"):
            fc, _, _ = fixture_constants(name)
            assert frontier_risk(fc, fc.b / fc.alpha) == pytest.approx(
                np.sqrt(1 / fc.alpha), rel=1e-12
            )

    def test_array_targets_equal_scalar_calls(self):
        for name in ("2015_2023", "2016_2020", "2023"):
            fc, _, _ = fixture_constants(name)
            targets = np.linspace(-0.05, 0.2, 200)
            risks = frontier_risk(fc, targets)
            assert risks.tolist() == [frontier_risk(fc, t) for t in targets.tolist()]
            assert isinstance(frontier_risk(fc, 0.05), float)

    def test_degenerate(self):
        inverse = invert_matrix(0.04 * np.eye(2))
        fc = frontier_constants(inverse, np.full(2, 0.05))
        with pytest.raises(DegenerateFrontierError):
            frontier_risk(fc, 0.06)

    def test_curve_cml_intercept_and_line(self):
        # the curve's CML starts at (0, rf) and is rf + risk * slope at every sample
        report = replay_paper(load_fixture("2015_2023"))
        t, rf = report.tangency, report.window.rf_annual
        curve = emit_frontier_curve(report)
        cml = curve.cml_points
        assert cml.shape == (200, 2)
        assert cml[0].tolist() == [0.0, rf]
        assert cml[:, 1].tolist() == [rf + v * t.slope for v in cml[:, 0].tolist()]
        assert cml[-1, 0] == curve.points[:, 1].max()
        assert np.all(np.diff(cml[:, 1]) < 0)  # the 2015-2023 slope is negative

    def test_cml_recovers_tangency(self):
        fc, _, rf = fixture_constants("2015_2023")
        t = tangency(fc, rf)
        assert rf + t.sigma_rt * t.slope == pytest.approx(t.r_t, rel=1e-12)


class TestViability:
    def test_2020_vector(self):
        v = viability_check(np.array([-0.0577, -0.0375, -0.0520, -0.0443]))
        assert not v.viable
        assert "negative" in v.reason

    def test_2015_2023_vector(self):
        assert viability_check(np.array([0.0303, 0.0432, 0.0473, 0.0392])).viable

    def test_mixed_signs(self):
        assert viability_check(np.array([-0.01, 0.02])).viable

    def test_empty(self):
        with pytest.raises(FrontierError):
            viability_check(np.array([]))


class TestGmvOptimalityRandom:
    def test_never_beats_grid(self):
        from oracle import GridSpec, grid_min_variance

        rng = np.random.default_rng(42)
        for _ in range(20):
            n = int(rng.integers(2, 5))
            a = random_pd_matrix(rng, n)
            inverse = invert_matrix(a)
            fc = frontier_constants(inverse, random_expected_returns(rng, n))
            _, grid_var = grid_min_variance(a, GridSpec(step=0.05))
            assert grid_var >= 1.0 / fc.alpha - 1e-3
