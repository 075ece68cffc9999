"""``frontera analyze`` on generated price files keeps the one-line failure contract.

Each example writes the price files of some assets and a market and a config
with one or two windows, and runs ``cli.main`` in-process. Two generators
feed it:

- ``cases``: 2 or 3 assets and a market over 4 to 40 common dates, whose
  closes are positive finite floats across the whole range, subnormals
  included: most days move by up to a factor of 2, and some step by a power
  of ten up to 1e300 (``closes``);
- ``mutated_cases``: 1 or 2 assets and a market, one of whose price files is
  an odd or bad file of ``TestBulkPathMatchesRowLoop`` with a few bytes
  mutated, as ``test_price_csv`` mutates them; the other files are ordinary.

Whatever the files, the run exits 0, 1 or 2 with no ``RuntimeWarning``; a
failure prints one stderr line and writes nothing; no temporary file is
left; and no output prints a non-finite number.
"""

import contextlib
import io
import json
import re
import tempfile
import warnings
from datetime import date, timedelta
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from frontera import cli
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


def run(root: Path, doc: dict, files: dict[str, bytes]) -> tuple[int, str, str]:
    for name, data in files.items():
        (root / name).write_bytes(data)
    (root / "config.json").write_text(json.dumps(doc))
    stdout, stderr = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(), contextlib.redirect_stdout(stdout), \
            contextlib.redirect_stderr(stderr):
        warnings.simplefilter("error", RuntimeWarning)
        code = cli.main(["analyze", "--config", str(root / "config.json")])
    return code, stdout.getvalue(), stderr.getvalue()


@settings(max_examples=120, deadline=None, derandomize=True)
@given(cases())
def test_analyze_keeps_failure_contract(case):
    assert_failure_contract(*case)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(mutated_cases())
def test_mutated_price_file_keeps_failure_contract(case):
    assert_failure_contract(*case)


def assert_failure_contract(doc: dict, files: dict[str, bytes]):
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        code, out, err = run(root, doc, files)
        written = sorted(p.relative_to(root) for p in root.rglob("*") if p.is_file())
        inputs = sorted(Path(name) for name in [*files, "config.json"])
        assert out == ""
        assert not [p for p in written if ".tmp" in p.name or ".old" in p.name], written
        if code == 0:
            assert err == ""
            for rel in set(written) - set(inputs):
                text = (root / rel).read_text(encoding="utf-8")
                assert not NON_FINITE.search(text), (rel, NON_FINITE.search(text))
        else:
            assert code in (1, 2), code
            assert err.count("\n") == 1 and err.endswith("\n"), err
            assert err.startswith("error: " if code == 1 else "numeric error: "), err
            assert written == inputs
