"""Byte-identity gate: every file the CLI writes for the bundled fixtures
must match its SHA-256 digest in ``golden_sha256.json``.

The outputs covered are ``replay`` for each fixture, ``summarize`` over
all of them and ``analyze`` of the price files in ``fixtures/analyze``, in
csv and markdown. Those price files have ``%.6f`` closes that cross a
power of ten, dates missing from some series, one file out of date order
and one with CRLF line ends; of their three windows one is non-viable.
A change that alters any written byte fails here and names the file.
After a deliberate output change, show the diff of the changed files
and regenerate the digests with ``PYTHONPATH=src python tests/test_golden.py``.
"""

import hashlib
import json
import tempfile
from pathlib import Path

import pytest

from frontera.cli import main

from conftest import FIXTURES

GOLDEN = Path(__file__).with_name("golden_sha256.json")
FORMATS = ("csv", "markdown")
NAMES = sorted(p.stem.removeprefix("replay_") for p in FIXTURES.glob("replay_*.json"))
ANALYZE_CONFIG = FIXTURES / "analyze" / "config.json"


def files_sha256(out: Path) -> dict[str, str]:
    """SHA-256 of every file under ``out``, by relative path."""
    return {
        p.relative_to(out).as_posix(): hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(out.rglob("*"))
        if p.is_file()
    }


def golden_for(key: str) -> dict[str, str]:
    """The golden digests of run ``key``, by relative path."""
    return {
        k[len(key) + 1 :]: v
        for k, v in json.loads(GOLDEN.read_text()).items()
        if k.startswith(key + "/")
    }


def run_command(argv: list[str], out: Path) -> dict[str, str]:
    """SHA-256 of every file ``main(argv)`` writes under ``out``, by relative path."""
    assert main(argv + ["--output-dir", str(out)]) == 0
    return files_sha256(out)


def commands() -> dict[str, list[str]]:
    """Key of each covered run -> its CLI arguments."""
    inputs = [str(FIXTURES / f"replay_{name}.json") for name in NAMES]
    runs = {}
    for fmt in FORMATS:
        for name, path in zip(NAMES, inputs):
            runs[f"replay/{name}/{fmt}"] = ["replay", "--input", path, "--format", fmt]
        runs[f"summarize/{fmt}"] = ["summarize", "--inputs", *inputs, "--format", fmt]
        runs[f"analyze/{fmt}"] = ["analyze", "--config", str(ANALYZE_CONFIG), "--format", fmt]
    return runs


def digests(tmp: Path) -> dict[str, str]:
    """Digest of every covered output file, keyed ``<run>/<relative path>``."""
    return {
        f"{key}/{rel}": digest
        for i, (key, argv) in enumerate(commands().items())
        for rel, digest in run_command(argv, tmp / str(i)).items()
    }


def test_golden_files_cover_every_fixture():
    golden = json.loads(GOLDEN.read_text())
    assert NAMES
    assert {k.split("/")[1] for k in golden if k.startswith("replay/")} == set(NAMES)


@pytest.mark.parametrize("key", list(commands()))
def test_outputs_match_golden(key, tmp_path):
    golden = golden_for(key)
    written = run_command(commands()[key], tmp_path)
    assert sorted(written) == sorted(golden), f"{key}: files written differ from the golden set"
    changed = [rel for rel in golden if written[rel] != golden[rel]]
    assert not changed, f"{key}: output bytes differ from golden for {', '.join(changed)}"


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        GOLDEN.write_text(json.dumps(digests(Path(tmp)), indent=1, sort_keys=True) + "\n")
