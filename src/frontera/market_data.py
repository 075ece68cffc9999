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

import numpy as np

_EPOCH_ORDINAL = Date(1970, 1, 1).toordinal()  # day 0 of datetime64[D]
_BOM = "\ufeff".encode()
_LF, _COMMA, _DASH, _DOT, _ZERO = b"\n,-.0"
_MAX_DIGITS = 15  # every integer below 10**15 < 2**53 is exact as a float
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
    (see ``_parse_canonical``) is parsed in bulk from its bytes; any other
    file, valid or not, is decoded and goes through the row loop, which
    also finds the first bad line.
    """
    data = text.encode("utf-8", "surrogatepass") if isinstance(text, str) else text
    while data.startswith(_BOM):
        data = data[len(_BOM) :]
    canonical = _parse_canonical(data)
    if canonical is not None:
        return PriceSeries(asset_id, *canonical)
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


def _parse_canonical(data: bytes) -> tuple[np.ndarray, np.ndarray] | None:
    """Sorted dates and closes of a canonical file, or None for any other shape.

    ``data`` is the file's bytes after any UTF-8 byte-order mark. Canonical:
    the header line ``date,close``, then ASCII rows ``YYYY-MM-DD,<close>``
    each ending in LF, with no CR, quote, space, tab or blank line; every
    date valid and not in year 0, every close finite and positive, no date
    twice. These are exactly the files the row loop accepts with this
    shape, and the result equals the loop's: numpy parses a ``YYYY-MM-DD``
    date like ``date.fromisoformat`` from year 1 on, and a close comes out
    as the double ``float`` gives (see ``_fixed_point_closes``).
    """
    header, _, body = data.partition(b"\n")
    if (
        header != b"date,close"
        or not body.endswith(b"\n")
        or not body.isascii()
        or any(c in body for c in (b"\r", b'"', b" ", b"\t"))
    ):
        return None
    b = np.frombuffer(body, np.uint8)
    ends = np.flatnonzero(b == _LF)
    starts = np.concatenate(([0], ends[:-1] + 1))
    # one comma per row, 10 characters in; the date check below keeps a row's
    # LF out of those 10 characters, so each row is exactly a date and a close
    if not np.array_equal(np.flatnonzero(b == _COMMA), starts + 10):
        return None
    chars = np.take(b, starts[:, None] + np.arange(10))  # (rows, 10) date characters
    digits = chars[:, _DATE_DIGITS] - _ZERO  # uint8: a non-digit wraps to >= 10
    if not (
        (chars[:, _DATE_DASHES] == _DASH).all()
        and (digits < 10).all()
        and digits[:, :4].any(axis=1).all()  # year 0000 is not a date
    ):
        return None
    closes = _fixed_point_closes(b, ends, ends - starts - 11)
    try:
        dates = chars.view("S10").ravel().astype("datetime64[D]")
        if closes is None:
            text = body.decode("ascii")
            closes = np.array(text.replace("\n", ",").split(",")[1::2], dtype=float)
    except ValueError:
        return None
    if not (np.isfinite(closes).all() and (closes > 0).all()):
        return None
    if not (dates[1:] > dates[:-1]).all():  # sort only files out of date order
        order = np.argsort(dates)
        dates, closes = dates[order], closes[order]
        if (dates[1:] == dates[:-1]).any():
            return None
    return dates, closes


def _fixed_point_closes(b: np.ndarray, ends: np.ndarray, lengths: np.ndarray) -> np.ndarray | None:
    """Each row's close ``b[end - length : end]`` as a float, or None.

    Applies when every close reads ``digits[.digits]`` with the k decimals
    of the first close and at most 15 digits; otherwise None. The digits
    form an integer m < 10**15 < 2**53, exact as a float, and m / 10**k is
    then correctly rounded (Clinger, PLDI 1990): bit for bit the double
    ``float`` parses.
    """
    first = b[ends[0] - lengths[0] : ends[0]].tobytes()
    point = first.find(b".")
    has_point = point >= 0
    k = len(first) - 1 - point if has_point else 0
    w = int(lengths.max())
    if w - has_point > _MAX_DIGITS or lengths.min() < k + 1 + has_point:
        return None
    # (w, rows): byte j of each close, right-aligned at its LF; a short first
    # close reaches before the body, so the index is clipped (masked below)
    block = np.take(b, np.arange(-w, 0)[:, None] + ends, mode="clip")
    if has_point:
        if not (block[w - k - 1] == _DOT).all():
            return None
        block = np.delete(block, w - k - 1, axis=0)
    block -= _ZERO  # a non-digit wraps to >= 10
    width = len(block)
    block[np.arange(width, 0, -1)[:, None] > lengths - has_point] = 0  # bytes before each close
    if not (block < 10).all():
        return None
    return (10.0 ** np.arange(width - 1, -1, -1) @ block) / 10.0**k


def align_panel(assets: list[PriceSeries], market: PriceSeries) -> PricePanel:
    """Inner-join all series on dates; every retained date appears in every series.

    Sorts the dates of all series together: a date in every series then
    appears once per series in a row. Memory grows with the number of
    rows, not with the span of their dates. The day numbers of years 1 to
    9999 fit int32, which halves the sort.
    """
    if not assets:
        raise MarketDataError("at least one asset series is required")
    series = [*assets, market]
    days = np.concatenate(
        [s.dates.view(np.int64) for s in series], dtype=np.int32, casting="unsafe"
    )
    days.sort()
    n = len(series) - 1
    common = days[n:][days[n:] == days[: len(days) - n]].astype("datetime64[D]")
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
