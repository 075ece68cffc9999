"""The process entry: ``python -m frontera.cli`` run as a child process.

The other CLI tests call ``main(argv)`` in-process. These go through
``run()``, which ends a normal return with ``os._exit`` instead of the
interpreter's teardown, so they check that every output file, exit code and
stderr line still reaches the parent process.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from frontera import cli

from conftest import FIXTURES
from test_golden import NAMES, files_sha256, golden_for

SRC = Path(__file__).resolve().parent.parent / "src"


def frontera(*argv: str) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-m", "frontera.cli", *argv],
        env=env, capture_output=True, text=True, timeout=120,
    )


def test_replay_writes_golden_files(tmp_path):
    proc = frontera("replay", "--input", str(FIXTURES / "replay_2015_2019.json"),
                    "--output-dir", str(tmp_path))
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "", "")
    assert files_sha256(tmp_path) == golden_for("replay/2015_2019/csv")


def test_summarize_writes_golden_files(tmp_path):
    inputs = [str(FIXTURES / f"replay_{name}.json") for name in NAMES]
    proc = frontera("summarize", "--inputs", *inputs, "--output-dir", str(tmp_path))
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "", "")
    assert files_sha256(tmp_path) == golden_for("summarize/csv")


def test_missing_input_exit_1(tmp_path):
    absent = tmp_path / "absent.json"
    proc = frontera("replay", "--input", str(absent), "--output-dir", str(tmp_path / "o"))
    assert proc.returncode == 1
    assert proc.stderr == f"error: {absent}: file not found\n"
    assert not (tmp_path / "o").exists()


def test_non_pd_input_exit_2(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({
        "units": "decimal",
        "labels": ["A", "B"],
        "cov_matrix": [[0.01, 0.02], [0.02, 0.01]],
        "expected_returns": [0.03, 0.04],
        "rf": 0.02,
    }))
    proc = frontera("replay", "--input", str(bad), "--output-dir", str(tmp_path / "o"))
    assert proc.returncode == 2
    assert proc.stderr.startswith("numeric error: ") and proc.stderr.count("\n") == 1, proc.stderr
    assert not (tmp_path / "o").exists()


def test_help_exit_0():
    proc = frontera("--help")
    assert proc.returncode == 0 and proc.stderr == ""
    assert proc.stdout.startswith("usage: frontera ")


@pytest.mark.parametrize(
    "argv, code", [(["replay", "--input", "absent.json"], 1), ([], None)],
    ids=["main-returns", "usage-error"],
)
def test_run_exits_only_after_main_returns(monkeypatch, capsys, argv, code):
    # a return from main ends in os._exit(code); argparse's SystemExit propagates
    exits = []
    monkeypatch.setattr(sys, "argv", ["frontera", *argv])
    monkeypatch.setattr(os, "_exit", exits.append)
    if code is None:
        with pytest.raises(SystemExit):
            cli.run()
        assert exits == []
    else:
        cli.run()
        assert exits == [code]
    capsys.readouterr()
