import numpy as np
import pytest

from frontera.frontier import frontier_constants, frontier_risk
from frontera.stats import invert_matrix

from conftest import load_fixture
from oracle import (
    GridSpec,
    OracleError,
    fd_tangency_check,
    grid_min_variance,
    grid_min_variance_at_return,
)


def fixture_fc(name):
    replay = load_fixture(name)
    matrix = np.asarray(replay.cov_matrix)
    fc = frontier_constants(invert_matrix(matrix), np.asarray(replay.expected_returns))
    return fc, matrix, replay


class TestGridSpec:
    def test_step_bounds(self):
        with pytest.raises(OracleError):
            GridSpec(step=0.0)
        with pytest.raises(OracleError):
            GridSpec(step=0.2)


class TestGridMinVariance:
    def test_diag_1_4(self):
        w, v = grid_min_variance(np.diag([1.0, 4.0]))
        # exact GMV of diag(1, 4) is (0.8, 0.2) with variance 0.8, on-grid
        assert w.tolist() == [0.8, 0.2]
        assert v == pytest.approx(0.8, rel=1e-12)

    def test_symmetric(self):
        w, v = grid_min_variance(0.04 * np.eye(2))
        assert w.tolist() == [0.5, 0.5]
        assert v == pytest.approx(0.02, rel=1e-12)

    def test_paper_matrix_bounded_by_closed_form(self):
        fc, matrix, _ = fixture_fc("2015_2023")
        _, v = grid_min_variance(matrix, GridSpec(step=0.01))
        assert v >= 1.0 / fc.alpha - 1e-3

    def test_too_many_assets(self):
        with pytest.raises(OracleError, match="too large"):
            grid_min_variance(np.eye(6))

    def test_deterministic(self):
        rng = np.random.default_rng(0)
        m = rng.normal(size=(3, 3)) * 0.1
        a = m @ m.T + 0.05 * np.eye(3)
        w1, v1 = grid_min_variance(a, GridSpec(step=0.02))
        w2, v2 = grid_min_variance(a, GridSpec(step=0.02))
        assert np.array_equal(w1, w2) and v1 == v2


class TestGridMinVarianceAtReturn:
    def test_band_contains_gmv(self):
        fc, matrix, replay = fixture_fc("2015_2023")
        er = np.asarray(replay.expected_returns)
        grid = GridSpec(step=0.01)
        _, v_free = grid_min_variance(matrix, grid)
        _, v_at = grid_min_variance_at_return(matrix, er, fc.b / fc.alpha, grid)
        assert v_at == pytest.approx(v_free, abs=1e-3)

    def test_unreachable_target(self):
        fc, matrix, replay = fixture_fc("2015_2023")
        er = np.asarray(replay.expected_returns)
        with pytest.raises(OracleError, match="no grid portfolio"):
            grid_min_variance_at_return(matrix, er, 0.5, GridSpec(step=0.02))

    def test_random_instance_vs_closed_form(self):
        rng = np.random.default_rng(13)
        m = rng.normal(size=(3, 3)) * 0.1
        a = m @ m.T + 0.05 * np.eye(3)
        er = np.array([0.02, 0.05, 0.08])
        fc = frontier_constants(invert_matrix(a), er)
        target = fc.b / fc.alpha + 0.01
        grid = GridSpec(step=0.01)
        _, v = grid_min_variance_at_return(a, er, target, grid)
        # the band admits returns nearer the vertex; bound by the band edge
        edge = target - grid.return_band
        assert v >= frontier_risk(fc, edge) ** 2 - 1e-3


class TestFdTangencyCheck:
    def test_2015_2023(self):
        fc, _, replay = fixture_fc("2015_2023")
        assert fd_tangency_check(fc, replay.window.rf_annual) < 1e-4

    def test_2023(self):
        fc, _, replay = fixture_fc("2023")
        assert fd_tangency_check(fc, replay.window.rf_annual) < 1e-4

    def test_eps_convergence(self):
        fc, _, replay = fixture_fc("2015_2023")
        coarse = fd_tangency_check(fc, replay.window.rf_annual, eps=1e-4)
        fine = fd_tangency_check(fc, replay.window.rf_annual, eps=1e-6)
        assert fine <= coarse + 1e-8

    def test_eps_bounds(self):
        fc, _, replay = fixture_fc("2015_2023")
        with pytest.raises(OracleError):
            fd_tangency_check(fc, replay.window.rf_annual, eps=1e-3)
