"""``frontera analyze`` on generated price files keeps the one-line failure contract.

Each example writes 2 or 3 assets and a market over 4 to 40 common dates,
with one or two windows, and runs ``cli.main`` in-process. Closes are
positive finite floats across the whole range, subnormals included: most
days move by up to a factor of 2, and some step by a power of ten up to
1e300 (``closes``). Whatever the closes, the run exits 0, 1 or 2 with no
``RuntimeWarning``; a failure prints one stderr line and writes nothing;
no temporary file is left; and no output prints a non-finite number.
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
    """A config document and the price files it names, as {file name: closes}."""
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
    doc = {
        "units": "decimal",
        "assets": [{"id": i, "csv_path": f"{i}.csv"} for i in ids[:-1]],
        "market": {"id": "M", "csv_path": "M.csv"},
        "windows": windows,
    }
    return doc, files


def run(root: Path, doc: dict, files: dict) -> tuple[int, str, str]:
    for name, column in files.items():
        rows = [f"{START + timedelta(t)},{c}\n" for t, c in enumerate(column)]
        (root / name).write_text("date,close\n" + "".join(rows))
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
    doc, files = case
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
