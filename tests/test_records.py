"""The pipeline's record types: immutable, and built without the dataclasses
machinery, whose generated methods each CLI process would otherwise compile
at import."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from frontera.report import emit_frontier_curve, replay_paper
from frontera.cli import AnalysisConfig

from conftest import load_fixture, panel_from_returns, series_from_prices

SRC = Path(__file__).resolve().parents[1] / "src"
# what importing frontera.cli may add to the modules numpy already loaded
NEEDED = {"frontera", "argparse", "gettext", "json", "_json", "decimal", "_decimal"}

RECORDS = [
    "AnalysisConfig", "PriceSeries", "PricePanel", "WindowSpec",
    "FrontierConstants", "TangencySolution", "PortfolioSolution",
    "Viability", "FrontierCurve", "WindowReport", "ReplayInput",
]


def test_import_adds_only_frontera_and_the_stdlib_it_needs():
    probe = (
        "import sys; import numpy; before = set(sys.modules); import frontera.cli; "
        "print(' '.join(sorted(set(sys.modules) - before)))"
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, timeout=120
    )
    assert done.returncode == 0, done.stderr
    new = set(done.stdout.split())
    assert "frontera.cli" in new and "dataclasses" not in new
    assert {m for m in new if m.split(".")[0] not in NEEDED} == set()


@pytest.fixture(scope="module")
def records() -> dict:
    replay = load_fixture("2015_2023")
    report = replay_paper(replay)
    config = AnalysisConfig(
        assets=(("A", Path("a.csv")),),
        market=("M", Path("m.csv")),
        windows=(report.window,),
        trading_days=252,
        output_dir=Path("out"),
    )
    found = [
        config, series_from_prices("A", [1.0, 2.0]), panel_from_returns({"A": [0.1]}, [0.2]),
        report.window, report.constants, report.tangency,
        report.solution, report.viability, emit_frontier_curve(report), report, replay,
    ]
    return {type(r).__name__: r for r in found}


@pytest.mark.parametrize("name", RECORDS)
def test_fields_cannot_be_assigned(records, name):
    record = records[name]
    for field in (*record._fields, "extra"):
        with pytest.raises(AttributeError):
            setattr(record, field, None)
