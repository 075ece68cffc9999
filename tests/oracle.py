"""Brute-force verification used by the test suite.

Enumerates long-only weight vectors on a simplex grid to bound the
minimum portfolio variance from above, and checks the tangency point with
finite differences. Deliberately shares no computation with the
closed-form frontier code: the risk formula here is re-derived inline
from the scalar constants. ``weights_for_target`` builds the frontier
portfolio at a target return from those constants in the same way.

``reference_parse_price_csv`` is the ``csv``-module row loop that once read
price files, kept as the reference for the bytes parser.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass
from datetime import date as Date
from typing import Iterator

import numpy as np

from frontera.frontier import DegenerateFrontierError, PortfolioSolution
from frontera.market_data import MarketDataError, PriceSeries

_EPOCH_ORDINAL = Date(1970, 1, 1).toordinal()  # day 0 of datetime64[D]


class OracleError(ValueError):
    pass


@dataclass(frozen=True)
class GridSpec:
    step: float = 0.005
    return_band: float = 0.0025

    def __post_init__(self):
        if not 0 < self.step <= 0.1:
            raise OracleError(f"grid step {self.step} outside (0, 0.1]")


def _grid_weights(n: int, step: float) -> Iterator[np.ndarray]:
    """Lexicographic enumeration of nonnegative grid weights summing to 1."""
    m = round(1.0 / step)

    def rec(prefix: list[int], remaining: int, slots: int):
        if slots == 1:
            yield prefix + [remaining]
            return
        for k in range(remaining + 1):
            yield from rec(prefix + [k], remaining - k, slots - 1)

    for combo in rec([], m, n):
        yield np.array(combo, dtype=float) / m


def grid_min_variance(
    cov_matrix: np.ndarray, grid: GridSpec = GridSpec()
) -> tuple[np.ndarray, float]:
    """Exhaustive minimum of w'Aw over the long-only simplex grid."""
    a = np.asarray(cov_matrix, dtype=float)
    n = a.shape[0]
    if n > 5:
        raise OracleError(f"N = {n} too large for exhaustive enumeration (max 5)")
    best_w, best_v = None, np.inf
    for w in _grid_weights(n, grid.step):
        v = float(w @ a @ w)
        if v < best_v:
            best_w, best_v = w, v
    return best_w, best_v


def grid_min_variance_at_return(
    cov_matrix: np.ndarray,
    expected_returns: np.ndarray,
    target: float,
    grid: GridSpec = GridSpec(),
) -> tuple[np.ndarray, float]:
    """Minimum grid variance among portfolios with expected return near target."""
    a = np.asarray(cov_matrix, dtype=float)
    er = np.asarray(expected_returns, dtype=float)
    n = a.shape[0]
    if n > 5:
        raise OracleError(f"N = {n} too large for exhaustive enumeration (max 5)")
    best_w, best_v = None, np.inf
    for w in _grid_weights(n, grid.step):
        if abs(float(w @ er) - target) > grid.return_band:
            continue
        v = float(w @ a @ w)
        if v < best_v:
            best_w, best_v = w, v
    if best_w is None:
        raise OracleError(f"no grid portfolio reaches return {target} within the band")
    return best_w, best_v


def fd_tangency_check(fc, rf: float, eps: float = 1e-6) -> float:
    """Relative residual between the finite-difference frontier slope at the
    tangency return and the reciprocal of the CML slope.

    ``fc`` only needs alpha/b/gamma/delta attributes; the frontier risk is
    recomputed here from the quadratic, independent of the frontier module.
    """
    if not 1e-8 <= eps <= 1e-4:
        raise OracleError(f"eps {eps} outside [1e-8, 1e-4]")
    a, b, gam, d = fc.alpha, fc.b, fc.gamma, fc.delta

    def risk(t: float) -> float:
        return float(np.sqrt((a * t * t - 2.0 * b * t + gam) / d))

    r_t = (gam - b * rf) / (b - a * rf)
    d_risk = (risk(r_t + eps) - risk(r_t - eps)) / (2.0 * eps)
    slope = (r_t - rf) / risk(r_t)
    inv_slope = 1.0 / slope
    return abs(d_risk - inv_slope) / abs(inv_slope)


def weights_for_target(fc, target: float) -> PortfolioSolution:
    """Frontier portfolio with expected return pinned to ``target``.

    lambda = (gamma - b*target)/delta, theta = (alpha*target - b)/delta,
    omega = lambda*h + theta*g. The weights sum to one by the identity
    lambda*alpha + theta*b = 1. A delta the frontier module calls
    degenerate raises DegenerateFrontierError here too.
    """
    a, b, gam, d = fc.alpha, fc.b, fc.gamma, fc.delta
    if d <= 1e-12 * max(1.0, a * abs(gam)):
        raise DegenerateFrontierError(f"delta = {d:.3e}: the frontier is degenerate")
    lam = (gam - b * target) / d
    theta = (a * target - b) / d
    variance = (a * target * target - 2.0 * b * target + gam) / d
    return PortfolioSolution(
        weights=lam * fc.h + theta * fc.g,
        port_return=target,
        variance=variance,
        risk=float(np.sqrt(variance)),
        sharpe=None,
    )


def reference_parse_price_csv(text: str | bytes, asset_id: str) -> PriceSeries:
    """A ``date,close`` CSV read row by row with the ``csv`` module.

    Accepts more than ``parse_price_csv``: any date ``date.fromisoformat``
    takes (which depends on the Python version), quoted fields and any
    whitespace around fields. Where both accept a file they give the same
    arrays; where both refuse one they name the same line.
    """
    if isinstance(text, bytes):
        try:
            text = text.decode("utf-8")
        except UnicodeDecodeError as exc:
            line = text.count(b"\n", 0, exc.start) + 1
            raise MarketDataError(
                f"{asset_id}: not UTF-8 text at line {line}: {exc.reason}"
            ) from None
    text = text.lstrip("\ufeff")
    reader = csv.reader(io.StringIO(text))
    try:
        rows = [(i + 1, row) for i, row in enumerate(reader) if row]
    except csv.Error as exc:  # e.g. a CR inside a row
        raise MarketDataError(
            f"{asset_id}: malformed row at line {reader.line_num}: {exc}"
        ) from None
    if not rows:
        raise MarketDataError(f"{asset_id}: empty file")
    header_line, header = rows[0]
    if [c.strip().lower() for c in header] != ["date", "close"]:
        raise MarketDataError(f"{asset_id}: expected header 'date,close' at line {header_line}")
    days: list[int] = []  # proleptic Gregorian ordinals
    closes: list[float] = []
    seen: set[Date] = set()
    for line_no, row in rows[1:]:
        if len(row) != 2:
            raise MarketDataError(f"{asset_id}: malformed row at line {line_no}")
        try:
            d = Date.fromisoformat(row[0].strip())
            close = float(row[1])
        except ValueError as exc:
            raise MarketDataError(f"{asset_id}: malformed row at line {line_no}: {exc}") from None
        if not math.isfinite(close):
            raise MarketDataError(f"{asset_id}: non-finite price at line {line_no}")
        if not close > 0:
            raise MarketDataError(f"{asset_id}: non-positive price at line {line_no}")
        if d in seen:
            raise MarketDataError(f"{asset_id}: duplicate date {d} at line {line_no}")
        seen.add(d)
        days.append(d.toordinal())
        closes.append(close)
    if not days:
        raise MarketDataError(f"{asset_id}: no data rows")
    # from ordinals: numpy converts a list of date objects one at a time, ~25x slower
    dates = (np.array(days) - _EPOCH_ORDINAL).astype("datetime64[D]")
    order = np.argsort(dates)
    return PriceSeries(asset_id, dates[order], np.array(closes)[order])
