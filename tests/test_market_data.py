import tracemalloc
from datetime import date
from functools import reduce

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from frontera import market_data
from frontera.market_data import (
    MarketDataError,
    PricePanel,
    PriceSeries,
    WindowSpec,
    _normalize,
    align_panel,
    parse_price_csv,
    simple_returns,
    slice_window,
)

from conftest import assert_fields_equal, series_from_prices


def returns_of(prices):
    """Daily returns of one price list, taken through a panel with itself as market."""
    panel = align_panel([series_from_prices("A", prices)], series_from_prices("M", prices))
    return simple_returns(panel)[0]


class TestParsePriceCsv:
    def test_minimal_file(self):
        s = parse_price_csv("date,close\n2015-01-02,100.0\n2015-01-05,110.0", "A")
        assert s.dates.dtype == np.dtype("datetime64[D]")
        assert s.dates.tolist() == [date(2015, 1, 2), date(2015, 1, 5)]
        assert s.closes.tolist() == [100.0, 110.0]

    def test_crlf_accepted(self):
        s = parse_price_csv("date,close\r\n2015-01-02,100.0\r\n2015-01-05,110.0\r\n", "A")
        assert len(s.dates) == len(s.closes) == 2

    def test_unsorted_rows_are_sorted(self):
        s = parse_price_csv("date,close\n2015-01-05,110\n2015-01-02,100", "A")
        assert s.dates.tolist() == [date(2015, 1, 2), date(2015, 1, 5)]
        assert s.closes.tolist() == [100.0, 110.0]

    def test_non_positive_price(self):
        with pytest.raises(MarketDataError, match="non-positive price at line 2"):
            parse_price_csv("date,close\n2015-01-02,-5", "A")

    @pytest.mark.parametrize("close", ["inf", "1e400", "-inf", "nan"])
    def test_non_finite_price(self, close):
        with pytest.raises(MarketDataError, match="non-finite price at line 3"):
            parse_price_csv(f"date,close\n2015-01-02,100\n2015-01-05,{close}\n", "A")

    def test_duplicate_date(self):
        with pytest.raises(MarketDataError, match="duplicate date"):
            parse_price_csv("date,close\n2015-01-02,100\n2015-01-02,101", "A")

    def test_empty_file(self):
        with pytest.raises(MarketDataError, match="empty file"):
            parse_price_csv("", "A")

    def test_malformed_row_reports_line(self):
        with pytest.raises(MarketDataError, match="line 3"):
            parse_price_csv("date,close\n2015-01-02,100\nnot-a-date,xyz", "A")

    def test_cr_inside_row_reports_line(self):
        with pytest.raises(MarketDataError, match="malformed row at line 3"):
            parse_price_csv("date,close\n2015-01-02,100\n2015-01-05,\r101\n", "A")

    def test_bad_header(self):
        with pytest.raises(MarketDataError, match="header"):
            parse_price_csv("fecha,cierre\n2015-01-02,100", "A")

    @pytest.mark.parametrize("layout", ["LF", "CRLF", "padded"])
    def test_memory_proportional_to_file(self, layout):
        # k = 12: these 2.0-2.1 MiB files peaked at 10.1x (LF), 33.8x (CRLF) and
        # 35.4x (", " separators) of their size when every file but a canonical
        # one took three int64 positions per byte, and at 9.1x, 9.6x and 10.0x
        # with each normalization step run only on a file that needs it
        n = 100_000
        days = (np.datetime64("1970-01-01") + np.arange(n)).astype(str)
        closes = (np.arange(n) % 9000 + 1000) / 100
        lf = "date,close\n" + "".join(f"{d},{c:.6f}\n" for d, c in zip(days, closes.tolist()))
        text = {"LF": lf, "CRLF": lf.replace("\n", "\r\n"), "padded": lf.replace(",", ", ")}[layout]
        data = text.encode()
        tracemalloc.start()
        try:
            s = parse_price_csv(data, "A")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(s.closes) == n
        assert peak <= 12 * len(data)

    @pytest.mark.parametrize("line_end", ["\n", "\r\n"], ids=["LF", "CRLF"])
    def test_date_arithmetic_freed_before_closes(self, line_end):
        # the date digits and day arithmetic are freed before the closes are gathered:
        # these 2.1-2.2 MiB files then peak at 5.5x (LF) and 6.2x (CRLF) of their size,
        # against 9.1x and 9.6x while those temporaries stayed alive
        n = 100_000
        days = (np.datetime64("1970-01-01") + np.arange(n)).astype(str)
        closes = (np.arange(n) % 9000 + 1000) / 100
        rows = [f"{d},{c:.6f}" for d, c in zip(days, closes.tolist())]
        data = line_end.join(["date,close", *rows, ""]).encode()
        tracemalloc.start()
        try:
            s = parse_price_csv(data, "A")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(s.closes) == n
        assert peak <= 7 * len(data)


def outcome(text):
    """What parse_price_csv makes of text: the exact arrays, or the error message."""
    try:
        s = parse_price_csv(text, "A")
    except MarketDataError as exc:
        return str(exc)
    return s.dates.dtype, s.dates.tobytes(), s.closes.tobytes()


def assert_line_ends_agree(text):
    """The LF text, its CRLF copy and its bytes give the same arrays or message."""
    assert outcome(text) == outcome(text.replace("\n", "\r\n")) == outcome(text.encode())


ROWS = "2015-01-02,100\n2015-01-05,101.5\n"


class TestBulkPathMatchesRowLoop:
    """Odd and bad files read the same with LF and CRLF ends; a canonical file
    is read as it is, with no normalization step."""

    @pytest.mark.parametrize(
        "text",
        [
            "date,close\n2015-01-0,100\n22015-01-02,101\n",
            "date,close\n+2015-01-02,100\n",
            "date,close\n2015-01-02T00,100\n",
            "date,close\n20150102,100\n",
            "date,close\n 2015-01-02,100\n",
            "date,close\n2015001-02,100\n",
            "date,close\n2015/01/02,100\n",
            "date,close\n0000-01-01,100\n",
            "date,close\n2015-02-29,100\n",
            "date,close\n2016-02-29,100\n",
            "date,close\n2015-01-02,1_000\n",
            "date,close\n2015-01-02,infinity\n",
            "date,close\n2015-01-02,1e400\n",
            "date,close\n2015-01-02,0\n",
            "date,close\n2015-01-02,-1\n",
            "date,close\n2015-01-02,\n",
            "date,close\n" + ROWS + "2015-01-02,102\n",
            "date,close\n2015-01-05,101.5\n2015-01-02,100\n",
            "date,close\n2015-01-02,100\n\n2015-01-05,101.5\n",
            "date,close\n" + ROWS.rstrip("\n"),
            "\ufeffdate,close\n" + ROWS,
            "Date, Close\n" + ROWS,
            "date,close\n2015-01-02,100,7\n",
            'date,close\n2015-01-02,"100"\n',
            "date,close\n2015-01-02,\r100\n",
            "date,close\n2015-01-02,\t100 \n",
            "date,close\n",
            "date,close",
            "",
            # closes the fixed-point path must take or hand on unchanged
            "date,close\n2015-01-02,100.25\n2015-01-05,101.5\n",
            "date,close\n2015-01-02,101.5\n2015-01-05,100\n",
            "date,close\n2015-01-02,100\n2015-01-05,101.5\n",
            "date,close\n2015-01-02,.5\n2015-01-05,.7\n",
            "date,close\n2015-01-02,5.\n2015-01-05,6.\n",
            "date,close\n2015-01-02,007.50\n2015-01-05,008.25\n",
            "date,close\n2015-01-02,.\n",
            "date,close\n2015-01-02,1.2.3\n",
            "date,close\n2015-01-02,0.000\n",
            "date,close\n2015-01-02,123456789012345\n",
            "date,close\n2015-01-02,1234567890123456\n",
            "date,close\n2015-01-02,12345678901234567\n",
            "date,close\n2015-01-02,1234567.89012345\n",
            "date,close\n2015-01-02,1234567.890123456\n",
            "date,close\n2015-01-02,9007199254740991\n2015-01-05,9007199254740993\n",
            "date,close\n2015-01-02,90071992547409.91\n2015-01-05,90071992547409.93\n",
            "date,close\n2015-01-02,9007199254.740991\n2015-01-05,9007199254.740993\n",
            "date,close\n2015-01-02,1e5\n",
            "date,close\n2015-01-02,+1.5\n",
            "date,close\n2015-01-02,5\n2015-01-05,1234567890123456\n",
            "date,close\n2015-01-02,5\n2015-01-05,123456789012345\n",
        ],
    )
    def test_odd_and_bad_files(self, text):
        assert_line_ends_agree(text)

    def test_canonical_file_takes_bulk_path(self):
        assert _normalize(("date,close\n" + ROWS).encode())[2] is None

    def test_crlf_file_skips_pad_pass(self, monkeypatch):
        data = b"date,close\r\n2015-01-02,100.25\r\n2015-01-05,101.50\r\n"
        assert _normalize(data)[2] is None
        fixed_point = []
        real = market_data._fixed_point_closes

        def record(*args):
            fixed_point.append(real(*args))
            return fixed_point[-1]

        monkeypatch.setattr(market_data, "_fixed_point_closes", record)
        s = parse_price_csv(data, "A")
        assert len(fixed_point) == 1 and fixed_point[0] is not None
        assert s.closes.tolist() == [100.25, 101.5]

    def test_date_grid(self):
        # every month 00-13 and day 00-32 of years at the edges of both parsers
        for year in ("0000", "0001", "1900", "2000", "2015", "2016", "9999"):
            for month in range(14):
                for day in range(33):
                    assert_line_ends_agree(f"date,close\n{year}-{month:02d}-{day:02d},1\n")

    def test_closes_bit_equal_to_float(self):
        rng = np.random.default_rng(20150102)
        n = 100_000
        x = 10.0 ** rng.uniform(-8, 12, n)
        kind = rng.integers(0, 3, n).tolist()
        closes = [(repr(v), f"{v:.6f}", f"{v:.17g}")[k] for v, k in zip(x.tolist(), kind)]
        closes = [c if float(c) > 0 else "1" for c in closes]  # %.6f of tiny values is 0
        days = np.datetime64("1970-01-01") + np.arange(n)
        text = "date,close\n" + "".join(f"{d},{c}\n" for d, c in zip(days.astype(str), closes))
        assert _normalize(text.encode())[2] is None
        s = parse_price_csv(text, "A")
        assert s.closes.tobytes() == np.array([float(c) for c in closes]).tobytes()
        assert np.array_equal(s.dates, days)

    @pytest.mark.parametrize("k", range(7))
    def test_fixed_decimal_closes_bit_equal_to_float(self, k, monkeypatch):
        # up to 15 digits with k decimals; the first close is one digit long
        # when k = 0, so the right-aligned gather starts before the body
        rng = np.random.default_rng(k)
        n = 20_000
        width = rng.integers(k + 1, 16, n)
        m = rng.integers(1, 10 ** width, dtype=np.int64)
        m[0], width[0], m[-1], width[-1] = 7, k + 1, 10**15 - 1, 15
        ints = [str(v).zfill(w) for v, w in zip(m.tolist(), width.tolist())]
        closes = [s[: len(s) - k] + "." + s[len(s) - k :] if k else s for s in ints]
        days = np.datetime64("1970-01-01") + np.arange(n)
        text = "date,close\n" + "".join(f"{d},{c}\n" for d, c in zip(days.astype(str), closes))
        fixed_point = []
        real = market_data._fixed_point_closes

        def record(*args):
            fixed_point.append(real(*args))
            return fixed_point[-1]

        monkeypatch.setattr(market_data, "_fixed_point_closes", record)
        s = parse_price_csv(text.encode(), "A")
        assert len(fixed_point) == 1 and fixed_point[0] is not None
        assert s.closes.tobytes() == np.array([float(c) for c in closes]).tobytes()
        assert np.array_equal(s.dates, days)

    @settings(max_examples=200, deadline=None)
    @given(
        st.dictionaries(
            st.dates(date(1, 1, 1), date(9999, 12, 31)),
            st.tuples(
                st.floats(min_value=1e-300, max_value=1e300),
                st.sampled_from(["{!r}", "{:.6f}", "{:.17g}", "{:.0f}", "{:e}"]),
            ),
            min_size=1,
            max_size=30,
        )
    )
    def test_well_formed_rows(self, rows):
        lines = [f"{d.isoformat()},{fmt.format(c)}\n" for d, (c, fmt) in rows.items()]
        text = "date,close\n" + "".join(lines)
        assert_line_ends_agree(text)
        if not isinstance(outcome(text), str):
            assert _normalize(text.encode())[2] is None

    def test_not_utf8(self):
        with pytest.raises(MarketDataError, match="A: not UTF-8 text at line 3"):
            parse_price_csv(b"date,close\n2015-01-02,100\n2015-01-05,1\xff\n", "A")


def intersect_reference(series):
    """The inner join as a chain of pairwise intersections: dates and closes."""
    dates = (s.dates for s in series)
    common = reduce(lambda a, b: np.intersect1d(a, b, assume_unique=True), dates)
    return common, np.stack([s.closes[np.searchsorted(s.dates, common)] for s in series])


def series_on(asset_id, days):
    dates = np.array(days, dtype="datetime64[D]")
    return PriceSeries(asset_id, dates, np.arange(1.0, len(dates) + 1))


class TestAlignPanel:
    @pytest.mark.parametrize("seed", range(20))
    def test_matches_intersect_reference(self, seed):
        rng = np.random.default_rng(seed)
        series = []
        for i in range(int(rng.integers(2, 9))):
            days = np.datetime64("2020-01-01") + int(rng.integers(-60, 60)) + np.arange(400)
            keep = rng.random(400) < rng.uniform(0.8, 1.0)
            series.append(PriceSeries(f"S{i}", days[keep], rng.uniform(1, 100, keep.sum())))
        common, closes = intersect_reference(series)
        assert len(common) >= 2
        panel = align_panel(series[:-1], series[-1])
        assert panel.common_dates.dtype == np.dtype("datetime64[D]")
        assert np.array_equal(panel.common_dates, common)
        assert np.array_equal(panel.closes, closes)

    def test_interleaved_calendars(self):
        a = series_on("A", ["2020-01-01", "2020-01-03", "2020-01-05"])
        m = series_on("M", ["2020-01-02", "2020-01-04"])
        assert len(intersect_reference([a, m])[0]) == 0
        with pytest.raises(MarketDataError, match="^empty intersection of trading dates$"):
            align_panel([a], m)

    def test_dates_in_years_1_and_9999(self):
        a = series_on("A", ["0001-01-01", "0001-01-02", "5000-06-01", "9999-12-31"])
        b = series_on("B", ["0001-01-02", "0001-01-03", "5000-06-01", "9999-12-31"])
        m = series_on("M", ["0001-01-02", "5000-06-01", "9999-12-30", "9999-12-31"])
        common, closes = intersect_reference([a, b, m])
        assert common.astype(str).tolist() == ["0001-01-02", "5000-06-01", "9999-12-31"]
        tracemalloc.start()
        try:
            panel = align_panel([a, b], m)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20  # memory follows the 12 rows, not the 3.65 million days they span
        assert np.array_equal(panel.common_dates, common)
        assert np.array_equal(panel.closes, closes)

    def test_intersection(self):
        a = series_from_prices("A", [1, 2, 3], date(2020, 1, 1))
        m = series_from_prices("M", [5, 6, 7], date(2020, 1, 2))
        panel = align_panel([a], m)
        assert panel.common_dates.tolist() == [date(2020, 1, 2), date(2020, 1, 3)]
        assert panel.labels == ("A",) and panel.market_id == "M"
        assert panel.closes.tolist() == [[2, 3], [5, 6]]

    def test_identity_on_identical_calendars(self):
        a = series_from_prices("A", [1, 2, 3])
        m = series_from_prices("M", [4, 5, 6])
        panel = align_panel([a], m)
        assert np.array_equal(panel.common_dates, a.dates)
        assert np.array_equal(panel.closes, np.stack([a.closes, m.closes]))

    def test_disjoint_calendars(self):
        a = series_from_prices("A", [1, 2], date(2020, 1, 1))
        m = series_from_prices("M", [1, 2], date(2021, 1, 1))
        assert len(intersect_reference([a, m])[0]) == 0
        with pytest.raises(MarketDataError, match="^empty intersection of trading dates$"):
            align_panel([a], m)

    def test_single_common_date(self):
        a = series_from_prices("A", [1, 2], date(2020, 1, 1))
        m = series_from_prices("M", [1, 2], date(2020, 1, 2))
        assert len(intersect_reference([a, m])[0]) == 1
        message = r"^only 1 common trading date\(s\); need at least 2$"
        with pytest.raises(MarketDataError, match=message):
            align_panel([a], m)

    def test_no_assets(self):
        m = series_from_prices("M", [1, 2])
        with pytest.raises(MarketDataError):
            align_panel([], m)

    def test_idempotent(self):
        a = series_from_prices("A", [1, 2, 3, 4], date(2020, 1, 1))
        m = series_from_prices("M", [1, 2, 3], date(2020, 1, 2))
        once = align_panel([a], m)
        series = [
            PriceSeries(k, once.common_dates, c)
            for k, c in zip(once.labels + (once.market_id,), once.closes)
        ]
        twice = align_panel(series[:-1], series[-1])
        assert_fields_equal(once, twice)


class TestSliceWindow:
    def _panel(self):
        a = series_from_prices("A", range(1, 11), date(2020, 1, 1))
        m = series_from_prices("M", range(11, 21), date(2020, 1, 1))
        return align_panel([a], m)

    def test_full_range_identity(self):
        panel = self._panel()
        w = WindowSpec("all", date(2019, 1, 1), date(2021, 1, 1), 0.05)
        assert_fields_equal(slice_window(panel, w), panel)

    def test_single_day_error(self):
        panel = self._panel()
        w = WindowSpec("one", date(2020, 1, 3), date(2020, 1, 3), 0.05)
        with pytest.raises(MarketDataError, match="at least 2"):
            slice_window(panel, w)

    def test_filter_semantics(self):
        panel = self._panel()
        w = WindowSpec("mid", date(2020, 1, 3), date(2020, 1, 6), 0.05)
        sliced = slice_window(panel, w)
        assert sliced.common_dates.tolist() == [date(2020, 1, d) for d in (3, 4, 5, 6)]
        assert sliced.closes.tolist() == [[3, 4, 5, 6], [13, 14, 15, 16]]

    def test_monotonicity(self):
        # slicing a sliced panel == slicing once with the window intersection
        panel = self._panel()
        outer = WindowSpec("outer", date(2020, 1, 2), date(2020, 1, 8), 0.05)
        inner = WindowSpec("inner", date(2020, 1, 4), date(2020, 1, 10), 0.05)
        both = WindowSpec("both", date(2020, 1, 4), date(2020, 1, 8), 0.05)
        assert_fields_equal(
            slice_window(slice_window(panel, outer), inner), slice_window(panel, both)
        )

    def test_window_spec_validation(self):
        # every way of building a WindowSpec checks its fields, copies included
        good = WindowSpec("good", date(2020, 1, 1), date(2021, 1, 1), 0.05)
        names = ("", ".", "..", "../escape", "a/b", "a\\b", "a\0b", "a\ud800", "\udcff", 5, None)
        cases = [
            ({"start": date(2021, 1, 2)}, "after end"),
            ({"rf_annual": float("nan")}, "not finite"),
            *[({"name": name}, "plain directory name") for name in names],
        ]
        for bad, match in cases:
            fields = {**good._asdict(), **bad}
            for build in (
                lambda: WindowSpec(**fields),
                lambda: WindowSpec._make(fields.values()),
                lambda: good._replace(**bad),
            ):
                with pytest.raises(MarketDataError, match=match):
                    build()
        copy = good._replace(rf_annual=0.06)
        assert type(copy) is WindowSpec and copy == ("good", good.start, good.end, 0.06)


class TestSimpleReturns:
    def test_hand_arithmetic(self):
        assert returns_of([100, 110]).tolist() == pytest.approx([0.10])

    def test_constant_prices(self):
        assert returns_of([50, 50, 50]).tolist() == [0.0, 0.0]

    def test_down_then_up(self):
        assert returns_of([100, 80, 100]).tolist() == pytest.approx([-0.20, 0.25])

    def test_too_short(self):
        dates = np.array(["2020-01-01"], dtype="datetime64[D]")
        one_day = PricePanel(("A",), "M", dates, np.ones((2, 1)))
        with pytest.raises(MarketDataError, match="at least 2"):
            simple_returns(one_day)

    def test_length_and_dates(self):
        # one row per series, dated on the later day of each pair
        a = series_from_prices("A", [100, 101, 99, 104])
        m = series_from_prices("M", [10, 11, 12, 13])
        panel = align_panel([a], m)
        r = simple_returns(panel)
        assert r.shape == (2, len(panel.common_dates) - 1)
        assert r[1].tolist() == pytest.approx([0.1, 1 / 11, 1 / 12])

    def test_reconstruction(self):
        rng = np.random.default_rng(7)
        prices = 100 * np.cumprod(1 + rng.normal(0, 0.02, 300))
        rebuilt = prices[0] * np.prod(1 + returns_of(prices))
        assert abs(rebuilt - prices[-1]) / prices[-1] < 1e-12
