"""No line of the package source is over 100 characters (characters, not bytes)."""

from pathlib import Path

SOURCE = Path(__file__).resolve().parents[1] / "src" / "frontera"


def test_no_source_line_over_100_characters():
    long = [f"{p.name}:{i}: {len(line)}" for p in sorted(SOURCE.glob("*.py"))
            for i, line in enumerate(p.read_text(encoding="utf-8").splitlines(), 1)
            if len(line) > 100]
    assert SOURCE.is_dir() and not long, long
