"""Acceptance suite: one test per criterion, each printing a PASS line.

Criteria 1-7 replay the published covariance/CAPM fixtures (raw price data
is not redistributable); tolerances reflect the 2-decimal rounding of the
published inputs. Criteria 8-9 are property-based and cover the raw-data
stage; criterion 10 checks CLI output determinism.
"""

import time
from datetime import date

import numpy as np
import pytest

from frontera.cli import main
from frontera.frontier import TangencyUndefinedError, frontier_constants, frontier_risk
from frontera.market_data import WindowSpec
from frontera.report import ReplayInput, analyze_window, replay_paper
from frontera.stats import asset_sharpe, asset_treynor, capm_expected_return, invert_matrix

from conftest import (
    FIXTURES,
    assert_reports_identical,
    load_fixture,
    panel_from_returns,
    random_expected_returns,
    random_pd_matrix,
)
from oracle import GridSpec, fd_tangency_check, grid_min_variance, weights_for_target


def ok(n, text):
    print(f"[PASS] criterion {n}: {text}")


def check_gmv(report, ret, ret_tol, risk, risk_tol, sharpe, sharpe_tol):
    sol = report.solution
    assert sol.port_return == pytest.approx(ret, abs=ret_tol)
    assert sol.risk == pytest.approx(risk, abs=risk_tol)
    assert sol.sharpe == pytest.approx(sharpe, abs=sharpe_tol)


def check_weights(report, target, expected):
    sol = weights_for_target(report.constants, target)
    assert np.allclose(sol.weights, expected, atol=0.04)


def test_criterion_1_replay_2015_2023():
    t0 = time.monotonic()
    report = replay_paper(load_fixture("2015_2023"))
    fc = report.constants
    assert fc.alpha == pytest.approx(15.62, abs=0.05)
    assert fc.b == pytest.approx(0.6003, abs=0.01)
    assert fc.gamma == pytest.approx(0.0265, abs=0.001)
    assert fc.delta == pytest.approx(0.0543, abs=0.003)
    tang = report.tangency
    assert tang.r_t == pytest.approx(0.0311, abs=0.0010)
    assert tang.sigma_rt == pytest.approx(0.282, abs=0.005)
    assert tang.slope == pytest.approx(-0.133, abs=0.005)
    check_gmv(report, 0.038, 0.001, 0.253, 0.003, -0.1213, 0.005)
    assert report.solution.variance == pytest.approx(0.0640, abs=0.0010)
    elapsed = time.monotonic() - t0
    assert elapsed < 1.0
    ok(1, f"2015-2023 constants, tangency, CML and GMV reproduced ({elapsed:.3f}s)")


def test_criterion_2_replay_2015_2019():
    report = replay_paper(load_fixture("2015_2019"))
    check_gmv(report, 0.057, 0.002, 0.1845, 0.005, -0.0460, 0.007)
    check_weights(report, 0.057, [0.308, 0.154, 0.433, 0.102])
    ok(2, "2015-2019 GMV point and published weights reproduced")


def test_criterion_3_replay_2016_2020():
    report = replay_paper(load_fixture("2016_2020"))
    assert report.tangency.r_t == pytest.approx(0.0531, abs=0.0015)
    check_gmv(report, 0.054, 0.002, 0.2464, 0.005, -0.0219, 0.005)
    check_weights(report, 0.054, [0.16, 0.25, 0.53, 0.06])
    ok(3, "2016-2020 tangency return, GMV point and published weights reproduced")


def test_criterion_4_replay_2020_2023():
    report = replay_paper(load_fixture("2020_2023"))
    check_gmv(report, 0.019, 0.002, 0.3131, 0.005, -0.1713, 0.007)
    check_weights(report, 0.019, [0.48, 0.21, 0.28, 0.03])
    ok(4, "2020-2023 GMV point and published weights reproduced")


def test_criterion_5_replay_2023():
    report = replay_paper(load_fixture("2023"))
    assert report.tangency.r_t == pytest.approx(0.049, abs=0.002)
    assert report.tangency.slope == pytest.approx(-0.188, abs=0.010)
    check_gmv(report, 0.060, 0.002, 0.2367, 0.005, -0.1668, 0.007)
    check_weights(report, 0.060, [0.43, 0.27, 0.17, 0.13])
    ok(5, "2023 tangency, CML slope, GMV point and published weights reproduced")


def test_criterion_6_2020_non_viable():
    report = replay_paper(load_fixture("2020"))
    assert not report.viability.viable
    assert np.all(report.expected_returns < 0)
    assert report.solution is None
    assert report.tangency is None
    assert report.curve is None
    ok(6, "2020 window flagged non-viable, no weights emitted")


def test_criterion_7_indicator_fixtures():
    assert capm_expected_return(0.4385, 0.0687, -0.0188) == pytest.approx(0.0303, abs=0.0001)
    assert asset_treynor(-0.0188, 0.0687, 1.0) == pytest.approx(-0.0875, abs=0.0001)
    assert asset_sharpe(0.0081, 0.0687, 0.2956) == pytest.approx(-0.2050, abs=0.0005)
    ok(7, "per-asset CAPM, Treynor and Sharpe indicators reproduced")


def test_criterion_8_property_suite():
    t0 = time.monotonic()
    rng = np.random.default_rng(2024)
    rf = 0.01
    fd_checked = 0
    for i in range(500):
        n = 2 + i % 3
        matrix = random_pd_matrix(rng, n)
        inverse = invert_matrix(matrix)
        assert np.max(np.abs(matrix @ inverse - np.eye(n))) <= 1e-9
        er = random_expected_returns(rng, n)
        fc = frontier_constants(inverse, er)
        target = float(rng.uniform(-0.02, 0.15))
        sol = weights_for_target(fc, target)
        assert sol.weights.sum() == pytest.approx(1.0, abs=1e-9)
        assert sol.weights @ er == pytest.approx(target, abs=1e-9)
        assert frontier_risk(fc, fc.b / fc.alpha) == pytest.approx(
            np.sqrt(1.0 / fc.alpha), rel=1e-12
        )
        # coarse grid: the long-only >= unconstrained inequality holds for any step
        _, grid_var = grid_min_variance(matrix, GridSpec(step=0.05))
        assert grid_var >= 1.0 / fc.alpha - 1e-3
        try:
            residual = fd_tangency_check(fc, rf)
        except TangencyUndefinedError:
            continue
        assert abs(residual) < 1e-4
        fd_checked += 1
    elapsed = time.monotonic() - t0
    assert elapsed < 60.0
    assert fd_checked > 400
    ok(8, f"500 random instances: all invariants hold ({elapsed:.1f}s, {fd_checked} tangencies)")


def test_criterion_9_pipeline_equivalence():
    rng = np.random.default_rng(99)
    n, obs = 4, 600
    chol = np.linalg.cholesky(random_pd_matrix(rng, n) / 252)
    rets = rng.normal(0, 1, (obs, n)) @ chol.T + 0.0006
    market = rets.mean(axis=1) + rng.normal(0, 0.002, obs)
    panel = panel_from_returns({f"A{i}": rets[:, i] for i in range(n)}, market)
    window = WindowSpec("equiv", date(2020, 1, 1), date(2022, 12, 31), 0.03)
    first = analyze_window(panel, window)
    replay = ReplayInput(
        labels=first.labels,
        cov_matrix=first.cov,
        expected_returns=first.expected_returns,
        window=window,
        aux=first.indicators[:3, :-1].T,
        market_aux=(first.market_id, *first.indicators[:2, -1].tolist()),
    )
    second = replay_paper(replay)
    assert_reports_identical(first, second)
    ok(9, "replay on analyze_window's own intermediates reproduces the report bit-for-bit")


def test_criterion_10_determinism(tmp_path):
    src = str(FIXTURES / "replay_2015_2023.json")
    d1, d2 = tmp_path / "run1", tmp_path / "run2"
    assert main(["replay", "--input", src, "--output-dir", str(d1)]) == 0
    assert main(["replay", "--input", src, "--output-dir", str(d2)]) == 0
    rel1 = sorted(p.relative_to(d1) for p in d1.rglob("*") if p.is_file())
    rel2 = sorted(p.relative_to(d2) for p in d2.rglob("*") if p.is_file())
    assert rel1 == rel2
    names = {p.name for p in rel1}
    assert {"tables.csv", "frontier_curve.csv", "cml_curve.csv", "frontier.svg"} <= names
    for rel in rel1:
        assert (d1 / rel).read_bytes() == (d2 / rel).read_bytes()
    ok(10, "two replay runs produce byte-identical tables, curves and SVG")
