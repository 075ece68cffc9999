"""Price CSV parsing, panel alignment, window slicing and daily returns.

Input files are one CSV per series with header ``date,close``, ISO-8601
dates and finite, strictly positive decimal prices. Multiple series are
combined by inner join on dates: betas and covariances need synchronized
observations, so any date missing from one series is dropped from all.
"""

from datetime import date as Date
from typing import NamedTuple

import numpy as np

_BOM = "\ufeff".encode()
_LF, _COMMA, _DASH, _DOT, _ZERO, _SPACE, _TAB = b"\n,-.0 \t"
_MAX_DIGITS = 15  # every integer below 10**15 < 2**53 is exact as a float
_DATE_DIGITS = [0, 1, 2, 3, 5, 6, 8, 9]  # positions in YYYY-MM-DD
_MONTH_DAYS = np.array([0, 31, 28, 31, 30, 31, 30, 31, 31, 30, 31, 30, 31, 0])  # by month 0-13
_MARCH_DAYS = (153 * ((np.arange(14) + 9) % 12) + 2) // 5  # days from March 1 to month 1-12


class MarketDataError(ValueError):
    """Malformed price input or an alignment/slicing that leaves too little data."""


class PriceSeries(NamedTuple):
    """One series' closes on strictly increasing ``datetime64[D]`` dates."""

    asset_id: str
    dates: np.ndarray
    closes: np.ndarray


class PricePanel(NamedTuple):
    """Date-aligned daily closes: one row per asset, the market index last.

    ``closes`` has shape ``(len(labels) + 1, len(common_dates))``.
    """

    labels: tuple[str, ...]
    market_id: str
    common_dates: np.ndarray
    closes: np.ndarray


class _Window(NamedTuple):
    name: str
    start: Date
    end: Date
    rf_annual: float


class WindowSpec(_Window):
    """A named closed date interval with its annual risk-free rate.

    The name becomes an output directory, so it must be a plain name that
    UTF-8 can encode. Every way of building one checks its fields: the
    constructor, ``_make`` and ``_replace``, which calls ``_make``.
    """

    __slots__ = ()

    def __new__(cls, name: str, start: Date, end: Date, rf_annual: float):
        if (
            not isinstance(name, str)
            or name in ("", ".", "..")
            # separators, NUL and lone surrogates, which UTF-8 cannot encode
            or any(c in "/\\\0" or "\ud800" <= c <= "\udfff" for c in name)
        ):
            raise MarketDataError(f"window name {name!r} is not a plain directory name")
        if start > end:
            raise MarketDataError(f"window {name}: start {start} after end {end}")
        if not np.isfinite(rf_annual):
            raise MarketDataError(f"window {name}: rf_annual not finite")
        return super().__new__(cls, name, start, end, rf_annual)

    @classmethod
    def _make(cls, iterable) -> "WindowSpec":
        return cls(*iterable)


def parse_price_csv(text: str | bytes, asset_id: str) -> PriceSeries:
    """Parse a ``date,close`` CSV into a date-ascending PriceSeries.

    ``_normalize`` rewrites the bytes only where the file holds what it
    removes. Rejects text that is not UTF-8, empty files and, by its line,
    the first bad row: malformed, priced non-finite or non-positive, or
    dated twice.
    """
    data = text.encode("utf-8", "surrogatepass") if isinstance(text, str) else text
    while data.startswith(_BOM):
        data = data[len(_BOM) :]
    try:
        return PriceSeries(asset_id, *_parse_rows(*_normalize(data)))
    except MarketDataError as exc:
        raise MarketDataError(f"{asset_id}: {exc}") from None


def _normalize(data: bytes) -> tuple[np.ndarray, np.ndarray, np.ndarray | None]:
    """``_parse_rows``'s input from a UTF-8 file with a ``date,close`` header in
    any case: LF ends, no blank lines (a line of spaces is not blank) and no
    spaces or tabs around a field. Each step runs only on a file that holds
    what it removes; ``lines`` numbers the rows left, or is None when the
    blank-line and pad pass did not run and row i is on line i + 2."""
    if not data.isascii():
        try:
            data.decode("utf-8")
        except UnicodeDecodeError as exc:
            line = data.count(b"\n", 0, exc.start) + 1
            raise MarketDataError(f"not UTF-8 text at line {line}: {exc.reason}") from None
    if not data.endswith(b"\n"):  # before the CRLF replace, so that a final lone CR goes
        data += b"\n"
    if b"\r" in data:
        data = data.replace(b"\r\n", b"\n")
    b = np.frombuffer(data, np.uint8)
    ends = np.flatnonzero(b == _LF)
    blank = np.diff(ends, prepend=-1) == 1
    lines = None
    if b" " in data or b"\t" in data or blank.any():
        pad = (b == _SPACE) | (b == _TAB)
        edge = (b == _LF) | (b == _COMMA)
        # runs of pad bytes [start, stop), the final LF closing the last; one goes when
        # a comma or a line's start or end touches it; index -1 reads the final LF
        start, stop = np.flatnonzero(np.diff(pad, prepend=False)).reshape(-1, 2).T
        keep = edge[start - 1] | edge[stop]
        marks = np.zeros(len(b), np.int8)
        marks[start[keep]], marks[stop[keep]] = 1, -1
        drop = np.cumsum(marks, dtype=np.int8).view(bool)
        drop[ends[blank]] = True
        b, lines = b[~drop], np.flatnonzero(~blank) + 1
        ends = np.flatnonzero(b == _LF)
        if not len(lines):
            raise MarketDataError("empty file")
    if b[: ends[0]].tobytes().lower() != b"date,close":
        line = 1 if lines is None else lines[0]
        raise MarketDataError(f"expected header 'date,close' at line {line}")
    if len(ends) == 1:
        raise MarketDataError("no data rows")
    return b[ends[0] + 1 :], ends[1:] - ends[0] - 1, None if lines is None else lines[1:]


def _parse_rows(b: np.ndarray, ends: np.ndarray, lines: np.ndarray | None = None):
    """Sorted dates and closes of rows ``YYYY-MM-DD,<close>``, LF at ``ends``.

    A date must exist, from year 1 on; a close must be visible ASCII that
    ``float`` reads as finite and positive; no date may repeat. The first row
    to break a rule is named by its line (``lines``, else 2 + its index).
    """
    starts = np.concatenate(([0], ends[:-1] + 1))
    # (11, rows): each row's date and comma; a row shorter than that has its LF in them
    chars = np.take(b, np.arange(11)[:, None] + starts, mode="clip")
    d = (chars[_DATE_DIGITS] - _ZERO).astype(np.int32)  # a non-digit wraps to >= 10
    century, yy = d[0] * 10 + d[1], d[2] * 10 + d[3]
    year, month, day = century * 100 + yy, d[4] * 10 + d[5], d[6] * 10 + d[7]
    leap = (np.where(yy > 0, yy, century) & 3) == 0
    ok = (
        (chars[4] == _DASH) & (chars[7] == _DASH) & (chars[10] == _COMMA)
        & (d < 10).all(axis=0) & (year > 0) & (day > 0)
        & (day <= np.take(_MONTH_DAYS, month, mode="clip") + ((month == 2) & leap))
    )
    # days from 1970-01-01, with years counted from March so that a leap day
    # ends one (Hinnant, "chrono-Compatible Low-Level Date Algorithms")
    y = year - (month < 3)
    days = 365 * y + (y >> 2) - y // 100 + y // 400 + np.take(_MARCH_DAYS, month, mode="clip")
    dates = (days + day - 719469).astype("datetime64[D]")
    del chars, d, century, yy, year, month, day, leap, y, days  # before the closes' block
    closes = _fixed_point_closes(b, ends, ends - starts - 11) if ok.all() else None
    if closes is None:  # float() reads the closes, in rows with one comma
        commas = np.flatnonzero(b == _COMMA)
        if not np.array_equal(commas, starts + 10):  # a row without exactly one comma
            ok &= np.bincount(np.searchsorted(ends, commas), minlength=len(ok)) == 1
        # float() strips whitespace, so a close must start and end in visible ASCII
        edges = np.take(b, np.concatenate([starts + 11, ends - 1]), mode="clip").reshape(2, -1)
        ok &= (edges > 32).all(axis=0) & (edges < 127).all(axis=0)
        first_bad = np.append(ok, False).argmin()
        fields = str(b, "latin-1").replace("\n", ",").split(",")[1 : 2 * first_bad : 2]
        rest = iter(fields)
        try:
            closes = np.fromiter(map(float, rest), float, len(fields))
        except ValueError:  # the rows end before the close float() refused, the last taken
            closes = np.array(fields[: len(fields) - len(list(rest)) - 1], dtype=float)
    dates = dates[: len(closes)]  # the rows read: the first malformed row ends them
    bad = ~((closes > 0) & (closes < np.inf))  # non-finite or non-positive
    order = None
    if not (dates[1:] > dates[:-1]).all():  # sort only files out of date order
        order = np.argsort(dates, kind="stable")
        bad[order[1:]] |= dates[order[1:]] == dates[order[:-1]]  # the later of equal dates
    if bad.any():
        row = int(bad.argmax())
        check = [not np.isfinite(closes[row]), not closes[row] > 0, True].index(True)
        why = ("non-finite price", "non-positive price", f"duplicate date {dates[row]}")[check]
    elif len(closes) < len(ok):
        row, why = len(closes), "malformed row"
    else:
        return (dates, closes) if order is None else (dates[order], closes[order])
    raise MarketDataError(f"{why} at line {row + 2 if lines is None else lines[row]}")


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
    block *= np.arange(width, 0, -1)[:, None] <= lengths - has_point  # zero bytes before each close
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
    A return that overflows or rounds to -100% (one close tiny against its
    neighbour) raises MarketDataError naming the series and that date.
    """
    c = panel.closes
    if c.shape[1] < 2:
        raise MarketDataError("need at least 2 prices for returns")
    with np.errstate(over="ignore"):  # closes are positive: only overflow, refused below
        r = c[:, 1:] / c[:, :-1] - 1.0
    if not np.isfinite(r).all():
        bad, why = ~np.isfinite(r), "overflows the floating-point range (previous close too small)"
    elif not r.min() > -1.0:  # a ratio below eps/2 rounds r to -1 exactly
        bad, why = r <= -1.0, "rounds to -100% (close too small)"
    else:
        return r
    t, row = np.argwhere(bad.T)[0]  # the earliest date first
    raise MarketDataError(
        f"{(*panel.labels, panel.market_id)[row]}: return on {panel.common_dates[t + 1]} {why}"
    )
