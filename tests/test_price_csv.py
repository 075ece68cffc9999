"""The bytes parser of price CSVs against the csv-module row loop it replaced.

``oracle.reference_parse_price_csv`` is that loop. On files in the documented
format the parser must give the loop's result exactly. On any other bytes it
may refuse more than the loop (dates other than ``YYYY-MM-DD``, quoted
fields, other whitespace), but it never accepts a file the loop refuses and
never fails other than with a one-line MarketDataError.
"""

import re
from datetime import date

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import test_market_data
from frontera import MarketDataError, market_data, parse_price_csv
from oracle import reference_parse_price_csv


def verdict(parse, data):
    """The exact arrays, or the error message up to its line number."""
    try:
        s = parse(data, "A")
    except MarketDataError as exc:
        return re.sub(r"( at line \d+).*", r"\1", str(exc), flags=re.DOTALL)
    return s.dates.dtype, s.dates.tobytes(), s.closes.tobytes()


def assert_matches_reference(data):
    assert verdict(parse_price_csv, data) == verdict(reference_parse_price_csv, data)


PAD = st.text(" \t", max_size=2)
CLOSE_FORMATS = ["{!r}", "{:.6f}", "{:.17g}", "{:.0f}", "{:e}"]


@st.composite
def documented_files(draw):
    """A price file in the documented format, with its layout variants, and
    some invalid or repeated dates and non-finite or non-positive closes."""
    days = draw(st.lists(st.dates(date(1, 1, 1), date(9999, 12, 31)), max_size=12))
    dates = [d.isoformat() for d in days]
    closes = [
        draw(st.sampled_from(CLOSE_FORMATS)).format(c)
        for c in draw(st.lists(st.floats(1e-300, 1e300), min_size=len(dates), max_size=len(dates)))
    ]
    some = st.sampled_from([0, 0, 0, 1, 2])
    for _ in range(draw(some)):  # a day the calendar lacks, such as 2015-02-30
        y, m, d = draw(st.integers(0, 9999)), draw(st.integers(0, 13)), draw(st.integers(0, 32))
        at = draw(st.integers(0, len(dates)))
        dates.insert(at, f"{y:04d}-{m:02d}-{d:02d}")
        closes.insert(at, "1")
    for _ in range(draw(some) if dates else 0):
        at = draw(st.integers(0, len(dates)))
        dates.insert(at, draw(st.sampled_from(dates)))
        closes.insert(at, draw(st.sampled_from(["inf", "nan", "-5", "0", "7"])))
    upper = draw(st.lists(st.booleans(), min_size=10, max_size=10))
    header = "".join(c.upper() if up else c for c, up in zip("date,close", upper))
    fields = [header.split(","), *zip(dates, closes)]
    lines = [f"{draw(PAD)}{a}{draw(PAD)},{draw(PAD)}{b}{draw(PAD)}" for a, b in fields]
    for _ in range(draw(st.integers(0, 2))):
        lines.insert(draw(st.integers(0, len(lines))), "")
    ends = draw(st.lists(st.sampled_from(["\n", "\r\n"]), min_size=len(lines), max_size=len(lines)))
    text = "".join(line + end for line, end in zip(lines, ends))
    if draw(st.booleans()):
        text = text.rstrip("\r\n")
    return (draw(st.sampled_from(["", "\ufeff"])) + text).encode()


class TestMatchesReference:
    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(documented_files())
    def test_documented_format(self, data):
        assert_matches_reference(data)

    def test_date_grid(self):
        # every month 00-13 and day 00-32 of years at the calendar's edges and leap rules
        for year in ("0000", "0001", "0004", "0100", "0400", "1900", "2000", "2015", "9999"):
            rows = [f"{year}-{m:02d}-{d:02d},1\n" for m in range(14) for d in range(33)]
            for row in rows:
                assert_matches_reference(("date,close\n" + row).encode())

    @pytest.mark.parametrize(
        "text",
        [
            "date,close\n2015-01-02,100\n \t\n2015-01-05,101\n",  # spaces are not a blank line
            "date,close\n2015-01-02,100\n5\n",
            " \ndate,close\n2015-01-02,100\n",
            "\r\n\ndate,close\r\n\r\n",
            "\n\r\n\n",
            "date,close\n2015-01-02,100\r",
            # closes float() reads one by one: the first it refuses ends the rows
            "date,close\n2015-01-02,1e0\n2015-01-05,1.2.3\n2015-01-06,inf\n",
            "date,close\n2015-01-02,1e0\n2015-01-05,-1e0\n2015-01-06,x\n",
            "date,close\n2015-01-02,1e0\n2015-01-05,1e0,5\n2015-01-06,1e0\n",
            "date,close\n2015-01-02,1e0\n2015-01-02,x\n",
            "date,close\n2015-01-05,1e0\n2015-01-02,2e0\n2015-01-05,3e0\n2015-01-06,x\n",
        ],
    )
    def test_short_lines_blank_lines_and_bad_closes(self, text):
        assert_matches_reference(text.encode())

    def test_error_lines_count_blank_lines_and_skip_the_bom(self):
        text = "\ufeff\r\n\r\nDate , Close\r\n\r\n2015-01-02, 100\r\n\r\n2015-01-02,101\r\n"
        data = text.encode()
        assert verdict(parse_price_csv, data) == "A: duplicate date 2015-01-02 at line 7"
        assert_matches_reference(data)


# the odd and bad files of TestBulkPathMatchesRowLoop, read from its parametrize mark
CORPUS = next(
    mark.args[1]
    for mark in test_market_data.TestBulkPathMatchesRowLoop.test_odd_and_bad_files.pytestmark
    if mark.name == "parametrize"
)
BYTES = st.sampled_from(b"0123456789-.,eE+_\"' \t\r\n\x00\x0b\x0c\x1c\x7f\xa0\xef\xbb\xbf\xff")


@st.composite
def mutated_files(draw):
    """A corpus file, as LF or CRLF bytes, with a few bytes inserted, removed,
    replaced or copied."""
    text = draw(st.sampled_from(CORPUS))
    data = bytearray(text.replace("\n", draw(st.sampled_from(["\n", "\r\n"]))).encode())
    for _ in range(draw(st.integers(1, 4))):
        at = draw(st.integers(0, len(data)))
        kind = draw(st.sampled_from(["insert", "delete", "replace", "copy"]))
        if kind == "insert" or not data:
            data[at:at] = draw(st.binary(max_size=3) | st.lists(BYTES, min_size=1).map(bytes))
        elif kind == "delete":
            del data[at : at + draw(st.integers(1, 3))]
        elif kind == "replace":
            data[min(at, len(data) - 1)] = draw(BYTES)
        else:
            stop = draw(st.integers(at, len(data)))
            data[at:at] = data[at:stop]
    return bytes(data)


class TestMutatedBytes:
    @settings(max_examples=500, deadline=None, derandomize=True)
    @given(mutated_files())
    def test_accepts_only_what_the_reference_accepts(self, data):
        ours = verdict(parse_price_csv, data)  # any other exception fails the test
        if isinstance(ours, str):
            assert "\n" not in ours and ours.startswith("A: ")
        else:
            assert verdict(reference_parse_price_csv, data) == ours


class TestNarrowing:
    """Rows the row loop read on some Python versions, refused on all of them."""

    @pytest.mark.parametrize(
        "row",
        [
            "20150102,100",  # date.fromisoformat reads these three from Python 3.11 on
            "2015-W01-5,100",
            "2015W015,100",
            '2015-01-02,"100"',
            "2015-01-02,\x0c100",
            "2015-01-02,\x0b100",
            "2015-01-02,100\xa0",
            '"2015-01-02",100',
            "2015-01-02,١٠٠",  # Arabic-Indic digits, which float() reads
        ],
    )
    def test_malformed(self, row):
        with pytest.raises(MarketDataError, match="^A: malformed row at line 2$"):
            parse_price_csv(f"date,close\n{row}\n2015-01-05,101\n", "A")


CANONICAL = "date,close\n2015-01-02,100.25\n2015-01-05,101.50\n"


class TestLayoutVariantsTakeBulkPath:
    @pytest.mark.parametrize(
        "text",
        [
            CANONICAL.replace("\n", "\r\n"),
            "\ufeff" + CANONICAL,
            CANONICAL.replace("\n", "\n\n"),
            "\n" + CANONICAL.rstrip("\n"),
            "date,close\n 2015-01-02 ,\t100.25\n2015-01-05\t, 101.50 \n",
            "Date, Close\n2015-01-02,100.25\n2015-01-05,101.50\n",
            " DATE\t,\tclose \r\n\r\n2015-01-02 , 100.25\r\n2015-01-05,101.50",
        ],
    )
    def test_fixed_point_closes_once(self, text, monkeypatch):
        fixed_point = []
        real = market_data._fixed_point_closes

        def record(*args):
            fixed_point.append(real(*args))
            return fixed_point[-1]

        monkeypatch.setattr(market_data, "_fixed_point_closes", record)
        s = parse_price_csv(text.encode(), "A")
        assert len(fixed_point) == 1 and fixed_point[0] is not None
        assert s.closes.tolist() == [100.25, 101.5]
        assert s.dates.tolist() == [date(2015, 1, 2), date(2015, 1, 5)]
        assert np.array_equal(s.closes, parse_price_csv(CANONICAL, "A").closes)
