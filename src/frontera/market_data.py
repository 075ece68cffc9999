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
_LF, _COMMA, _DASH, _ZERO = b"\n,-0"
_DATE_DIGITS = [0, 1, 2, 3, 5, 6, 8, 9]  # positions in YYYY-MM-DD
_DATE_DASHES = [4, 7]


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

    Rejects text that is not UTF-8, malformed rows (with their line
    number), non-finite and non-positive prices, duplicate dates and empty
    files. LF and CRLF are both accepted. A file in the canonical shape
    (see ``_parse_canonical``) is parsed in bulk; any other file, valid or
    not, goes through the row loop, which also finds the first bad line.
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
    canonical = _parse_canonical(text)
    if canonical is not None:
        return PriceSeries(asset_id, *canonical)
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


def _parse_canonical(text: str) -> tuple[np.ndarray, np.ndarray] | None:
    """Sorted dates and closes of a canonical file, or None for any other shape.

    Canonical: the header line ``date,close``, then ASCII rows
    ``YYYY-MM-DD,<close>`` each ending in LF, with no CR, quote, space,
    tab or blank line; every date valid and not in year 0, every close
    finite and positive, no date twice. These are exactly the files the
    row loop accepts with this shape, and the result equals the loop's:
    numpy parses a ``YYYY-MM-DD`` date like ``date.fromisoformat`` from
    year 1 on, and a close string like ``float``.
    """
    header, _, body = text.partition("\n")
    if (
        header != "date,close"
        or not body.endswith("\n")
        or not body.isascii()
        or any(c in body for c in '\r" \t')
    ):
        return None
    b = np.frombuffer(body.encode("ascii"), np.uint8)
    starts = np.concatenate(([0], np.flatnonzero(b == _LF)[:-1] + 1))
    # one comma per row, 10 characters in; the date check below keeps a row's
    # LF out of those 10 characters, so each row is exactly a date and a close
    if not np.array_equal(np.flatnonzero(b == _COMMA), starts + 10):
        return None
    chars = b[starts[:, None] + np.arange(10)]  # (rows, 10) date characters
    digits = chars[:, _DATE_DIGITS] - _ZERO  # uint8: a non-digit wraps to >= 10
    if not (
        (chars[:, _DATE_DASHES] == _DASH).all()
        and (digits < 10).all()
        and digits[:, :4].any(axis=1).all()  # year 0000 is not a date
    ):
        return None
    try:
        dates = chars.view("S10").ravel().astype("datetime64[D]")
        closes = np.array(body.replace("\n", ",").split(",")[1::2], dtype=float)
    except ValueError:
        return None
    if not (np.isfinite(closes).all() and (closes > 0).all()):
        return None
    order = np.argsort(dates)
    dates = dates[order]
    if (dates[1:] == dates[:-1]).any():
        return None
    return dates, closes[order]


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
