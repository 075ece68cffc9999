from datetime import date
from pathlib import Path

import numpy as np
import pytest

from frontera.frontier import DegenerateFrontierError
from frontera.market_data import PriceSeries, align_panel
from frontera.cli import load_replay_input
from frontera.report import emit_frontier_curve

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


@pytest.fixture(scope="session")
def fixtures_dir() -> Path:
    return FIXTURES


def load_fixture(name: str):
    return load_replay_input(FIXTURES / f"replay_{name}.json")


def series_from_prices(asset_id: str, prices, start=date(2020, 1, 1)):
    closes = np.asarray(prices, dtype=float)
    dates = np.datetime64(start, "D") + np.arange(len(closes))
    return PriceSeries(asset_id, dates, closes)


def series_from_returns(asset_id: str, returns, start=date(2020, 1, 1), p0=100.0):
    prices = p0 * np.cumprod(np.concatenate([[1.0], 1.0 + np.asarray(returns)]))
    return series_from_prices(asset_id, prices, start)


def panel_from_returns(asset_returns: dict, market_returns, start=date(2020, 1, 1)):
    assets = [series_from_returns(k, v, start) for k, v in asset_returns.items()]
    market = series_from_returns("MKT", market_returns, start)
    return align_panel(assets, market)


def random_pd_matrix(rng: np.random.Generator, n: int) -> np.ndarray:
    m = rng.normal(size=(n, n)) * 0.1
    return m @ m.T + 0.05 * np.eye(n)


def random_expected_returns(rng: np.random.Generator, n: int) -> np.ndarray:
    while True:
        er = rng.uniform(0.01, 0.09, size=n)
        if np.ptp(er) > 0.005:
            return er


def assert_fields_equal(a, b):
    """Field-by-field equality of two records; array fields bit for bit."""
    assert type(a) is type(b)
    for name, x, y in zip(a._fields, a, b):
        if isinstance(x, np.ndarray):
            assert x.dtype == y.dtype and np.array_equal(x, y), name
        else:
            assert x == y, name


def drawn_curve(report):
    """The report's default curve, or None for a window whose files have none."""
    if report.solution is None:
        return None
    try:
        return emit_frontier_curve(report)
    except DegenerateFrontierError:
        return None


def assert_reports_identical(a, b):
    """Bit-level equality of two WindowReport values, field by field."""
    assert a.window == b.window
    assert a.labels == b.labels
    assert np.array_equal(a.expected_returns, b.expected_returns)
    assert (a.indicators is None) == (b.indicators is None)
    if a.indicators is not None:
        assert a.indicators.dtype == b.indicators.dtype
        assert np.array_equal(a.indicators, b.indicators)
    assert a.market_id == b.market_id
    for x, y in [(a.cov, b.cov), (a.inverse, b.inverse)]:
        assert x.dtype == y.dtype and np.array_equal(x, y)
    assert_fields_equal(a.constants, b.constants)
    assert a.viability == b.viability
    assert a.tangency == b.tangency
    assert (a.solution is None) == (b.solution is None)
    if a.solution is not None:
        assert_fields_equal(a.solution, b.solution)
    curve_a, curve_b = drawn_curve(a), drawn_curve(b)
    assert (curve_a is None) == (curve_b is None)
    if curve_a is not None:
        assert_fields_equal(curve_a, curve_b)
