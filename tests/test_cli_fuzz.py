"""``frontera analyze``, ``replay`` and ``frontier`` on generated inputs keep the one-line
failure contract.

Each example writes a JSON document and the files it names, and runs
``cli.main`` in-process. Three generators feed it:

- ``cases``: an ``analyze`` config of 2 or 3 assets and a market over 4 to 40
  common dates, whose closes are positive finite floats across the whole
  range, subnormals included: most days move by up to a factor of 2, and
  some step by a power of ten up to 1e300 (``closes``);
- ``mutated_cases``: an ``analyze`` config of 1 or 2 assets and a market,
  one of whose price files is an odd or bad file of
  ``TestBulkPathMatchesRowLoop`` with a few bytes mutated, as
  ``test_price_csv`` mutates them; the other files are ordinary;
- ``replay_docs``: a ``replay`` document, one of the six fixtures or the
  documents of ``test_cli.REPLAY_MESSAGES``, with one to three mutations
  (``MUTATIONS``): numbers at the edges of the float range or not finite,
  the covariance or the expected returns scaled by up to 1e±300, rf a few
  ulps from b/alpha, ragged and nested lists, type swaps, and labels that
  hold separators, lone surrogates or characters XML cannot hold; or
  (``scaled_docs``) a fixture scaled so and then given an rf a few ulps
  from b/alpha.

Whatever the input, the run exits 0, 1 or 2 with no ``RuntimeWarning``; a
failure prints one stderr line and writes nothing; no file is written
outside the output directory; no temporary file is left; no output
prints a non-finite number; every row of a csv or markdown table has
as many fields as its header; and every SVG figure is well-formed XML.
"""

import contextlib
import copy
import csv
import functools
import io
import json
import operator
import os
import re
import tempfile
import warnings
import xml.etree.ElementTree as ET
from datetime import date, timedelta
from itertools import groupby
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from frontera import cli
from conftest import FIXTURES
from test_cli import REPLAY_MESSAGES
from test_price_csv import mutated_files

START = date(2020, 1, 1)
NON_FINITE = re.compile(r"\b(nan|inf)|NaN")


@st.composite
def closes(draw, n_dates: int) -> list[str]:
    """``n_dates`` closes, the shortest repr of positive finite floats.

    The first close is anywhere in the float range. Each later day moves by
    up to a factor of 2. In one series of three, half of the days instead
    step by a power of ten, up by up to 1e300 or down by up to 1e20; a larger
    fall would only repeat the refusal of a return that rounds to -100%.
    """
    wild = draw(st.integers(0, 2)) == 0
    x = draw(st.integers(-323, 307)) + draw(st.floats(0.0, 1.0))  # log10 of the close
    out = []
    for _ in range(n_dates):
        out.append(repr(max(10.0**x, 5e-324)))
        if wild and draw(st.booleans()):
            x += draw(st.integers(-20, 300))
        else:
            x += draw(st.integers(-300, 300)) / 1000
        x = min(308.2, max(-323.3, x))
    return out


@st.composite
def cases(draw) -> tuple[dict, dict]:
    """A config document and the price files it names, as {file name: bytes}."""
    n_dates = draw(st.integers(4, 40))
    ids = [f"A{i}" for i in range(draw(st.integers(2, 3)))] + ["M"]
    files = {f"{i}.csv": draw(closes(n_dates)) for i in ids}
    windows = []
    for k in range(draw(st.integers(1, 2))):
        lo = draw(st.integers(0, n_dates - 3)) if k else 0  # w0 starts on the first date
        hi = draw(st.integers(lo + 2, n_dates - 1))
        windows.append({
            "name": f"w{k}",
            "start": (START + timedelta(lo)).isoformat(),
            "end": (START + timedelta(hi)).isoformat(),
            "rf_annual": draw(st.sampled_from([0.0, 0.02, 0.05])),
        })
    return config(ids, windows), {name: price_file(column) for name, column in files.items()}


@st.composite
def mutated_cases(draw) -> tuple[dict, dict]:
    """A config and its price files, one of them a mutated corpus file.

    The ordinary files hold 14 days from 2015-01-01, which cover the corpus
    dates, so a mutated file that still parses is aligned with them. Half of
    the mutated files go on with ordinary rows from 2015-01-07, so that one
    that still parses has enough dates for the window to be analyzed.
    """
    ids = [f"A{i}" for i in range(draw(st.integers(1, 2)))] + ["M"]
    days = st.lists(st.floats(50, 150), min_size=14, max_size=14)
    columns = [[f"{c:.2f}" for c in draw(days)] for _ in ids]
    files = {f"{i}.csv": price_file(c, date(2015, 1, 1)) for i, c in zip(ids, columns)}
    data = draw(mutated_files())
    if draw(st.booleans()):
        data += b"\n" + price_file(columns[0][6:], date(2015, 1, 7), header="")
    files[draw(st.sampled_from(sorted(files)))] = data
    rf = draw(st.sampled_from([0.0, 0.02, 0.05]))
    return config(ids, [{"name": "w0", "start": "2015-01-01", "end": "2015-01-31",
                         "rf_annual": rf}]), files


def price_file(column: list[str], start: date = START, header: str = "date,close\n") -> bytes:
    """A price file of one close a day from ``start``."""
    rows = [f"{start + timedelta(t)},{c}\n" for t, c in enumerate(column)]
    return (header + "".join(rows)).encode()


def config(ids: list[str], windows: list[dict]) -> dict:
    """The config document of assets ``ids[:-1]`` and market ``ids[-1]``."""
    return {
        "units": "decimal",
        "assets": [{"id": i, "csv_path": f"{i}.csv"} for i in ids[:-1]],
        "market": {"id": ids[-1], "csv_path": f"{ids[-1]}.csv"},
        "windows": windows,
    }


def run(root: Path, doc, files: dict[str, bytes], command: str,
        options: tuple[str, ...]) -> tuple[int, str, str]:
    for name, data in files.items():
        (root / name).write_bytes(data)
    (root / "doc.json").write_text(json.dumps(doc), encoding="utf-8")
    option = "--input" if command == "replay" else "--config"
    stdout, stderr = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(), contextlib.redirect_stdout(stdout), \
            contextlib.redirect_stderr(stderr):
        warnings.simplefilter("error", RuntimeWarning)
        code = cli.main([command, option, str(root / "doc.json"), *options])
    return code, stdout.getvalue(), stderr.getvalue()


@settings(max_examples=120, deadline=None, derandomize=True)
@given(cases())
def test_analyze_keeps_failure_contract(case):
    assert_failure_contract(*case)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(mutated_cases())
def test_mutated_price_file_keeps_failure_contract(case):
    assert_failure_contract(*case)


def assert_failure_contract(doc, files: dict[str, bytes], command: str = "analyze",
                            options: tuple[str, ...] = ()):
    """Run ``command`` on ``doc`` beside ``files``. The outputs go to ``out/``, or
    to a config's own ``output_dir``."""
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp) / "run"
        root.mkdir()
        code, out, err = run(root, doc, files, command, options)
        assert os.listdir(tmp) == ["run"]
        written = sorted(p.relative_to(root) for p in root.rglob("*") if p.is_file())
        inputs = sorted(Path(name) for name in [*files, "doc.json"])
        assert out == ""
        assert not [p for p in written if ".tmp" in p.name or ".old" in p.name], written
        if code == 0:
            assert err == ""
            out_dir = Path("out" if command == "replay" else doc.get("output_dir", "out"))
            for rel in set(written) - set(inputs):
                assert rel.parts[: len(out_dir.parts)] == out_dir.parts, rel
                text = (root / rel).read_bytes().decode("utf-8")  # CR kept
                assert not NON_FINITE.search(text), (rel, NON_FINITE.search(text))
                if rel.suffix in (".csv", ".md"):
                    assert all(len(c) == 1 for c in field_counts(text, rel.suffix)), (rel, text)
                if rel.suffix == ".svg":
                    ET.fromstring(text)  # a well-formed XML document
        else:
            assert code in (1, 2), code
            assert err.count("\n") == 1 and err.endswith("\n"), err
            assert err.startswith("error: " if code == 1 else "numeric error: "), err
            assert written == inputs


def field_counts(text: str, suffix: str) -> list[set[int]]:
    """The set of the rows' field counts, per table of a csv or markdown
    output: csv fields, or a markdown row's ``|`` count. Blank lines part
    the tables."""
    if suffix == ".csv":
        # Python 3.10's csv module refuses NUL, which parts no field
        rows = csv.reader(io.StringIO(text.replace("\0", ""), newline=""))
        counts = [len(row) for row in rows]
    else:
        counts = [line.count("|") for line in text.split("\n")]
    return [set(group) for nonblank, group in groupby(counts, bool) if nonblank]


# --- replay documents ---


def message_documents() -> list:
    """The documents of the replay message table, each of which is refused."""
    docs = []
    for _, edit, _ in REPLAY_MESSAGES:
        if isinstance(edit, str):
            docs.append(json.loads(edit))
        else:
            doc = json.loads((FIXTURES / "replay_2015_2023.json").read_text())
            edit(doc)
            docs.append(doc)
    return docs


FIXTURE_DOCUMENTS = [json.loads(p.read_text()) for p in sorted(FIXTURES.glob("replay_*.json"))]
MESSAGE_DOCUMENTS = message_documents()
EDGE_NUMBERS = [0, 0.0, -0.0, 1, -1, 1e300, -1e300, 1e-300, -1e-300, 1e154, -1e154, 1e-154,
                5e-324, -5e-324, 2.2e-308, 1.7976931348623157e308, float("nan"), float("inf"),
                float("-inf")]
ODD_VALUES = ["x", "0.1", "", True, False, None, {}, [], [[]], 5, {"a": 1}]
ODD_NAMES = ["a/b", "..", ".", "a\\b", "\ud800", "x\udcffy", "a,b", "a|b", "a\nb", "", " ",
             "a\tb", "A\x00B", '"q"', "ÉXITO", "C:x", "a\x01b", "\ufffe"]


def nodes(node, path=()):
    """(path, value) of ``node`` and of every value nested in it."""
    yield path, node
    if isinstance(node, (dict, list)):
        for key, value in (node.items() if isinstance(node, dict) else enumerate(node)):
            yield from nodes(value, (*path, key))


def at(doc, path):
    return functools.reduce(operator.getitem, path, doc)


def replace(doc, path, value):
    """``doc`` with the value at ``path`` replaced."""
    if not path:
        return value
    at(doc, path[:-1])[path[-1]] = value
    return doc


def is_number(x) -> bool:
    return isinstance(x, (int, float)) and not isinstance(x, bool)


def edge_number(draw, doc):
    numbers = [p for p, v in nodes(doc) if is_number(v)]
    if not numbers:
        return doc
    return replace(doc, draw(st.sampled_from(numbers)), draw(st.sampled_from(EDGE_NUMBERS)))


def scaled(draw, doc):
    """The covariance or the expected returns times 10^k, |k| <= 300.

    Half of the exponents are edges: a square overflows past 1e154, so a
    scale of 1e150 keeps gamma and delta finite while it puts the tangency
    of an rf near b/alpha past the float range.
    """
    field = draw(st.sampled_from(["expected_returns", "cov_matrix"]))
    if not isinstance(doc, dict) or field not in doc:
        return doc
    exponent = draw(st.sampled_from([150, 154, 300]) | st.integers(0, 300))
    factor = 10.0 ** (exponent * draw(st.sampled_from([1, -1])))
    for path, value in list(nodes(doc[field], (field,))):
        if is_number(value):
            replace(doc, path, value * factor)
    return doc


def rf_near_gmv(draw, doc):
    """rf a few ulps from b/alpha, where the tangency goes to infinity."""
    try:
        with np.errstate(all="ignore"):
            inverse = np.linalg.inv(np.array(doc["cov_matrix"], dtype=float))
            alpha = inverse.sum()
            rf = float((np.array(doc["expected_returns"], dtype=float) @ inverse).sum() / alpha)
    except (KeyError, TypeError, ValueError, np.linalg.LinAlgError):
        return doc
    if not np.isfinite(rf):
        return doc
    steps = draw(st.integers(-4, 4))
    for _ in range(abs(steps)):
        rf = float(np.nextafter(rf, np.copysign(np.inf, steps)))
    doc["rf"] = rf
    return doc


def ragged(draw, doc):
    lists = [p for p, v in nodes(doc) if isinstance(v, list)]
    if not lists:
        return doc
    path = draw(st.sampled_from(lists))
    value = copy.deepcopy(at(doc, path))
    how = draw(st.sampled_from(["pop", "append", "nest-item", "nest-list"]))
    if how == "pop" and value:
        value.pop(draw(st.integers(0, len(value) - 1)))
    elif how == "append":
        value.append(copy.deepcopy(value[0]) if value else 0.01)
    elif how == "nest-item" and value:
        i = draw(st.integers(0, len(value) - 1))
        value[i] = [value[i]]
    else:
        value = [value]
    return replace(doc, path, value)


def type_swap(draw, doc):
    path = draw(st.sampled_from([p for p, _ in nodes(doc)]))
    return replace(doc, path, copy.deepcopy(draw(st.sampled_from(ODD_VALUES))))


def odd_name(draw, doc):
    """A label, the window name or the market id set to an odd name of ``ODD_NAMES``."""
    names = [p for p, v in nodes(doc) if isinstance(v, str) and (
        p == ("name",) or p == ("market", "id") or p[:1] == ("labels",))]
    if not names:
        return doc
    return replace(doc, draw(st.sampled_from(names)), draw(st.sampled_from(ODD_NAMES)))


MUTATIONS = [edge_number, scaled, rf_near_gmv, ragged, type_swap, odd_name]


@st.composite
def replay_docs(draw):
    """A fixture or a message-table document with one to three mutations."""
    doc = draw(st.sampled_from(FIXTURE_DOCUMENTS) | st.sampled_from(MESSAGE_DOCUMENTS))
    doc = copy.deepcopy(doc)
    for _ in range(draw(st.integers(1, 3))):
        doc = draw(st.sampled_from(MUTATIONS))(draw, doc)
    return doc


@st.composite
def scaled_docs(draw):
    """A fixture whose covariance or expected returns are scaled, with rf
    then moved next to b/alpha."""
    return rf_near_gmv(draw, scaled(draw, copy.deepcopy(draw(st.sampled_from(FIXTURE_DOCUMENTS)))))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(replay_docs() | scaled_docs())
def test_replay_keeps_failure_contract(doc):
    assert_failure_contract(doc, {}, "replay")


# a fixture whose one fault is an odd name, which replay_docs seldom draws: its other
# mutations make most such documents fail before any output is checked
@pytest.mark.parametrize("path", [("labels", 0), ("market", "id"), ("name",)], ids=str)
@pytest.mark.parametrize("name", ODD_NAMES)
def test_odd_name_keeps_failure_contract(name, path):
    assert_failure_contract(replace(copy.deepcopy(FIXTURE_DOCUMENTS[0]), path, name), {}, "replay")


# --- analyze config documents ---
#
# One config of two assets and a market over 40 days, with a window on all of
# them and one on the last 20, and one to three mutations of the config alone
# (``CONFIG_MUTATIONS``); the price files stay as they are.

CONFIG_CLOSES = np.exp(np.cumsum(np.random.default_rng(7).normal(0, 0.02, (3, 40)), axis=1)) * 100
CONFIG_FILES = {f"{i}.csv": price_file([f"{c:.4f}" for c in column])
                for i, column in zip(["A0", "A1", "M"], CONFIG_CLOSES.tolist())}
CONFIG_DOCUMENT = {
    **config(["A0", "A1", "M"], [
        {"name": "w0", "start": "2020-01-01", "end": "2020-02-09", "rf_annual": 0.02},
        {"name": "w1", "start": "2020-01-21", "end": "2020-02-09", "rf_annual": 0.05},
    ]),
    "trading_days": 252,
}
CONFIG_DATES = ["2019-02-29", "2020-02-30", "2020-13-01", "2020-00-10", "0000-01-01",
                "0001-01-01", "9999-12-31", "01/01/2020", "20200101", "2020-W01-1", "2020-1-1",
                " 2020-01-01", "2020-01-01T00:00", "", "2020-02-09", "2019-12-31", "2020-01-01"]
TRADING_DAYS = [0, 1, 2, 365, 366, 367, -1, 1.0, 252.5, 2**63, "252", True, None]
RF_EDGES = [1e308, -1e308, 1e-308, -1e-308, 1.7976931348623157e308, -1.7976931348623157e308,
            5e-324, 1e154, -1e154, 1.0, -1.0, "0.02", True, False]
# the document's own names, as duplicates, and the summary's file name as a window's
CONFIG_NAMES = ODD_NAMES + ["w0", "w1", "A0", "A1", "M", "summary.csv"]


def set_field(keys: tuple[str, ...], values: list):
    """The mutation that sets a field named in ``keys`` to one of ``values``."""

    def mutate(draw, doc):
        paths = [p for p, _ in nodes(doc) if p and p[-1] in keys]
        if not paths:
            return doc
        return replace(doc, draw(st.sampled_from(paths)), draw(st.sampled_from(values)))

    return mutate


# NUL, empty, directories as price files, and a price file as the output directory
CSV_PATHS = ["a\0b", "", ".", "..", "missing.csv", "A1.csv"]
OUTPUT_DIRS = ["a\0b", "", "A0.csv", "A0.csv/out", "out"]


def set_output_dir(draw, doc):
    """The config's ``output_dir``, which the document leaves out, set to one of
    ``OUTPUT_DIRS``."""
    if isinstance(doc, dict):
        doc["output_dir"] = draw(st.sampled_from(OUTPUT_DIRS))
    return doc


CONFIG_MUTATIONS = [edge_number, type_swap, ragged, set_field(("start", "end"), CONFIG_DATES),
                    set_field(("trading_days",), TRADING_DAYS),
                    set_field(("rf_annual",), RF_EDGES), set_field(("name", "id"), CONFIG_NAMES),
                    set_field(("csv_path",), CSV_PATHS), set_output_dir]


@st.composite
def config_docs(draw):
    doc = copy.deepcopy(CONFIG_DOCUMENT)
    for _ in range(draw(st.integers(1, 3))):
        doc = draw(st.sampled_from(CONFIG_MUTATIONS))(draw, doc)
    return doc


@settings(max_examples=150, deadline=None, derandomize=True)
@given(config_docs())
def test_mutated_config_keeps_failure_contract(doc):
    assert_failure_contract(doc, CONFIG_FILES)


# each name as a window's, which config_docs seldom draws: its other mutations, and
# the fields it draws in place of the windows' names, leave most names untried
@pytest.mark.parametrize("name", CONFIG_NAMES)
def test_config_window_name_keeps_failure_contract(name):
    doc = replace(copy.deepcopy(CONFIG_DOCUMENT), ("windows", 1, "name"), name)
    assert_failure_contract(doc, CONFIG_FILES)


# spans float() reads or refuses at the edges of the float range, and point counts at and
# past the bounds of MAX_CURVE_POINTS
SPANS = ["-1.7e308:1.7e308", "0:1.7e308", "nan:1", "0:inf", "-0:0", "1:2:3", "0x1p3:9",
         "1_0:20", " 1:2", "0.01:0.2"]


@pytest.mark.parametrize("points", [1, 2, 1_000_001])
@pytest.mark.parametrize("span", SPANS)
def test_frontier_keeps_failure_contract(span, points):
    options = ("--window", "w0", f"--span={span}", "--points", str(points))
    assert_failure_contract(CONFIG_DOCUMENT, CONFIG_FILES, "frontier", options)
