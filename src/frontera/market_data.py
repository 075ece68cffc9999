"""Price CSV parsing, panel alignment, window slicing and daily returns.

Input files are one CSV per series with header ``date,close``, ISO-8601
dates and finite, strictly positive decimal prices. Multiple series are
combined by inner join on dates: betas and covariances need synchronized
observations, so any date missing from one series is dropped from all.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass
from datetime import date as Date
from functools import reduce

import numpy as np

_EPOCH_ORDINAL = Date(1970, 1, 1).toordinal()  # day 0 of datetime64[D]


class MarketDataError(ValueError):
    """Malformed price input or an alignment/slicing that leaves too little data."""


@dataclass(frozen=True)
class PriceSeries:
    """One series' closes on strictly increasing ``datetime64[D]`` dates."""

    asset_id: str
    dates: np.ndarray
    closes: np.ndarray


@dataclass(frozen=True)
class PricePanel:
    """Date-aligned daily closes: one row per asset, the market index last.

    ``closes`` has shape ``(len(labels) + 1, len(common_dates))``.
    """

    labels: tuple[str, ...]
    market_id: str
    common_dates: np.ndarray
    closes: np.ndarray


@dataclass(frozen=True)
class WindowSpec:
    """A named closed date interval with its annual risk-free rate.

    The name becomes an output directory, so it must be a plain name.
    """

    name: str
    start: Date
    end: Date
    rf_annual: float

    def __post_init__(self):
        if (
            not isinstance(self.name, str)
            or self.name in ("", ".", "..")
            or any(c in self.name for c in "/\\\0")
        ):
            raise MarketDataError(f"window name {self.name!r} is not a plain directory name")
        if self.start > self.end:
            raise MarketDataError(f"window {self.name}: start {self.start} after end {self.end}")
        if not np.isfinite(self.rf_annual):
            raise MarketDataError(f"window {self.name}: rf_annual not finite")


def parse_price_csv(text: str | bytes, asset_id: str) -> PriceSeries:
    """Parse a ``date,close`` CSV into a date-ascending PriceSeries.

    Rejects malformed rows (with their line number), non-finite and
    non-positive prices, duplicate dates and empty files. LF and CRLF are
    both accepted.
    """
    if isinstance(text, bytes):
        text = text.decode("utf-8")
    reader = csv.reader(io.StringIO(text.lstrip("﻿")))
    rows = [(i + 1, row) for i, row in enumerate(reader) if row]
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


def align_panel(assets: list[PriceSeries], market: PriceSeries) -> PricePanel:
    """Inner-join all series on dates; every retained date appears in every series."""
    if not assets:
        raise MarketDataError("at least one asset series is required")
    series = [*assets, market]
    common = reduce(
        lambda a, b: np.intersect1d(a, b, assume_unique=True), (s.dates for s in series)
    )
    if len(common) == 0:
        raise MarketDataError("empty intersection of trading dates")
    if len(common) < 2:
        raise MarketDataError(f"only {len(common)} common trading date(s); need at least 2")
    closes = np.stack([s.closes[np.searchsorted(s.dates, common)] for s in series])
    return PricePanel(tuple(s.asset_id for s in assets), market.asset_id, common, closes)


def slice_window(panel: PricePanel, window: WindowSpec) -> PricePanel:
    """Restrict a panel to the closed date interval [start, end] (a view, not a copy)."""
    dates = panel.common_dates
    lo = np.searchsorted(dates, np.datetime64(window.start, "D"), side="left")
    hi = np.searchsorted(dates, np.datetime64(window.end, "D"), side="right")
    if hi - lo < 2:
        raise MarketDataError(
            f"window {window.name}: {hi - lo} trading date(s) in range; need at least 2"
        )
    return PricePanel(panel.labels, panel.market_id, dates[lo:hi], panel.closes[:, lo:hi])


def simple_returns(panel: PricePanel) -> np.ndarray:
    """Daily simple returns P_t / P_{t-1} - 1 of every row.

    Column t is dated ``common_dates[t + 1]``, the later day of its pair.
    """
    c = panel.closes
    if c.shape[1] < 2:
        raise MarketDataError("need at least 2 prices for returns")
    return c[:, 1:] / c[:, :-1] - 1.0
