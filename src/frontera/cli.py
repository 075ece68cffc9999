"""Command-line entry point.

Subcommands: ``analyze`` (full pipeline from price CSVs), ``replay``
(pipeline from a published covariance/CAPM fixture), ``frontier`` (curve
files only) and ``summarize`` (cross-window summary of replay fixtures).

Exit codes: 0 success, 1 input error (missing file, schema violation,
malformed data), 2 numeric failure (non-PD matrix, degenerate frontier).
Outputs are written to temp files and renamed on success, so a failing
command leaves no partial files behind.
"""

import argparse
import contextlib
import itertools
import json
import math
import os
import re
import reprlib
import sys
from datetime import date as Date
from pathlib import Path
from typing import NamedTuple

import numpy as np

from . import frontier as fr
from . import report as rp
from . import stats as st
from .market_data import MarketDataError, WindowSpec, align_panel, parse_price_csv


class InputError(Exception):
    pass


class AnalysisConfig(NamedTuple):
    assets: tuple[tuple[str, Path], ...]  # (id, csv_path)
    market: tuple[str, Path]
    windows: tuple[WindowSpec, ...]
    trading_days: int
    output_dir: Path


class OutputSet(NamedTuple):
    """A command's output files, by path, renamed into place only on success."""

    files: dict[Path, str]

    def commit(self):
        """Write every file beside its target, then rename each into place.

        An existing target is first moved aside. If any write or rename
        fails, the new files are removed, the old ones put back and the
        directories this commit created removed, so the targets hold either
        all the new files or exactly what they held before.
        """
        temps, saved, placed, made = [], [], [], []
        try:
            for path, text in self.files.items():
                if not path.parent.is_dir():
                    new = [d for d in [path.parent, *path.parent.parents] if not d.exists()]
                    made += reversed(new)  # each directory after its parent
                    path.parent.mkdir(parents=True, exist_ok=True)
                tmp = path.with_name(path.name + f".tmp{os.getpid()}")
                temps.append((tmp, path))  # before writing: a failed write leaves a file
                tmp.write_text(text, encoding="utf-8")
            for tmp, path in temps:
                if path.exists():
                    old = path.with_name(path.name + f".old{os.getpid()}")
                    path.replace(old)
                    saved.append((old, path))
                tmp.replace(path)
                placed.append(path)
        except BaseException:
            for path in placed:
                path.unlink(missing_ok=True)
            for old, path in saved:
                old.replace(path)
            for tmp, _ in temps:
                tmp.unlink(missing_ok=True)
            for d in reversed(made):
                with contextlib.suppress(OSError):
                    d.rmdir()
            raise
        for old, _ in saved:
            old.unlink()


def _field(obj, field: str, path: str, convert=None, default=None):
    """``convert(obj[field])``, or ``convert(default)`` for a missing field with a default."""
    if not isinstance(obj, dict):
        raise InputError(f"{path}: expected a JSON object, got {reprlib.repr(obj)}")
    if field not in obj and default is None:
        raise InputError(f"{path}: missing field '{field}'")
    value = obj.get(field, default)
    if convert is None:
        return value
    try:
        return convert(value)
    except (TypeError, ValueError, OverflowError) as exc:
        raise InputError(
            f"{path}: field '{field}' has invalid value {reprlib.repr(value)} ({exc})"
        ) from None


def _text(value) -> str:
    if not isinstance(value, str):
        raise TypeError("expected a string")
    value.encode("utf-8")  # a lone surrogate raises UnicodeEncodeError, a ValueError
    return value


def _path(value) -> str:
    if not _text(value) or "\0" in value:
        raise ValueError("expected a non-empty path without NUL")
    return value


def _list(value) -> list:
    if not isinstance(value, list):
        raise TypeError("expected a list")
    return value


def _names(value) -> tuple[str, ...]:
    if not isinstance(value, list) or not all(isinstance(v, str) for v in value):
        raise TypeError("expected a list of strings")
    return tuple(map(_text, value))


def _days_per_year(value) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise TypeError("expected a JSON integer")
    if not 1 <= value <= 366:
        raise ValueError("expected 1 to 366")
    return value


def _number(value) -> float:
    if type(value) not in (int, float):  # what json.loads makes of a JSON number
        raise TypeError("expected a JSON number")
    x = float(value)
    if not math.isfinite(x):
        raise ValueError("not a finite number")
    return x


def _numbers(shape: tuple[int, ...]):
    """Converter to a float array of the given shape with only finite JSON numbers."""

    def convert(value) -> np.ndarray:
        try:
            a = np.array(value, dtype=float)
        except (ValueError, TypeError):  # checked only now, so an accepted document pays nothing
            if _ragged(value):
                raise ValueError(f"expected shape {shape}, got a ragged list") from None
            raise TypeError("expected JSON numbers") from None
        if a.shape != shape:
            raise ValueError(f"expected shape {shape}, got {a.shape}")
        # the shape holds, so the leaves are the entries of value, or of its rows
        leaves = value if len(shape) == 1 else itertools.chain.from_iterable(value)
        if not {int, float}.issuperset(map(type, leaves)):
            raise TypeError("expected JSON numbers")
        if not np.all(np.isfinite(a)):
            raise ValueError("not all numbers are finite")
        return a

    return convert


def _ragged(value) -> bool:
    """True if the lists nested in ``value`` differ in length, or mix with
    non-lists, at some depth."""
    level = [value]
    while any(isinstance(v, list) for v in level):
        if not all(isinstance(v, list) for v in level) or len({len(v) for v in level}) > 1:
            return True
        level = [x for v in level for x in v]
    return False


def _load_json(path: Path) -> dict:
    """The JSON object in ``path``, which must declare ``"units": "decimal"``."""
    if not path.is_file():
        raise InputError(f"{path}: file not found")
    try:
        doc = json.loads(path.read_text(encoding="utf-8"))
    except UnicodeDecodeError as exc:
        raise InputError(f"{path}: not UTF-8 text: {exc.reason} at byte {exc.start}") from None
    except json.JSONDecodeError as exc:
        raise InputError(f"{path}: invalid JSON: {exc}") from None
    except RecursionError:
        raise InputError(f"{path}: invalid JSON: nested too deeply") from None
    if _field(doc, "units", str(path)) != "decimal":
        raise InputError(f"{path}: field 'units' must be \"decimal\" (rates as fractions)")
    return doc


def _parse_date(raw, where: str) -> Date:
    # from Python 3.11 on, fromisoformat also takes forms such as 20190101
    if isinstance(raw, str) and re.fullmatch(r"[0-9]{4}-[0-9]{2}-[0-9]{2}", raw):
        with contextlib.suppress(ValueError):
            return Date.fromisoformat(raw)
    raise InputError(f"{where}: invalid date {raw!r} (expected YYYY-MM-DD)")


def _window(where: str, name, start: Date, end: Date, rf_annual: float) -> WindowSpec:
    try:
        return WindowSpec(name, start, end, rf_annual)
    except MarketDataError as exc:
        raise InputError(f"{where}: {exc}") from None


def load_config(path: Path) -> AnalysisConfig:
    doc = _load_json(path)
    where = str(path)
    assets_raw = _field(doc, "assets", where, _list)
    if len(assets_raw) < 2:  # a covariance needs two return series
        raise InputError(f"{where}: at least two assets are required")
    base = path.parent

    def series(obj, loc: str) -> tuple[str, Path]:
        return _field(obj, "id", loc, _text), base / _field(obj, "csv_path", loc, _path)

    def window(w, loc: str) -> WindowSpec:
        name = _field(w, "name", loc)  # first: a window without a name reports that
        start, end = (_parse_date(_field(w, k, loc), loc) for k in ("start", "end"))
        return _window(loc, name, start, end, _field(w, "rf_annual", loc, _number))

    assets = tuple(series(a, f"{where}.assets[{i}]") for i, a in enumerate(assets_raw))
    market = series(_field(doc, "market", where), f"{where}.market")
    ids = [a for a, _ in assets] + [market[0]]
    if len(set(ids)) != len(ids):
        raise InputError(f"{where}: asset and market ids must be unique")
    windows_raw = _field(doc, "windows", where, _list)
    windows = tuple(window(w, f"{where}.windows[{i}]") for i, w in enumerate(windows_raw))
    names = [w.name for w in windows]
    if len(set(names)) != len(names):
        raise InputError(f"{where}: window names must be unique")
    trading_days = _field(doc, "trading_days", where, _days_per_year, st.TRADING_DAYS)
    output_dir = base / _field(doc, "output_dir", where, _path, "out")
    return AnalysisConfig(assets, market, windows, trading_days, output_dir)


def load_replay_input(path: Path) -> rp.ReplayInput:
    doc = _load_json(path)
    where = str(path)
    labels = _field(doc, "labels", where, _names)
    if len(set(labels)) != len(labels):
        raise InputError(f"{where}: labels must be unique")
    n = len(labels)
    rf = _field(doc, "rf", where, _number)
    aux = None
    if "asset_stats" in doc:
        fields = ("ann_return", "ann_vol", "beta")  # the columns of ReplayInput.aux
        rows = _field(doc, "asset_stats", where, _list)
        if len(rows) != n:
            raise InputError(f"{where}: field 'asset_stats' has {len(rows)} entries for {n} labels")
        aux = np.array(
            [[_field(a, f, f"{where}.asset_stats[{i}]", _number) for f in fields]
             for i, a in enumerate(rows)]
        )
    market_aux = None
    if "market" in doc:
        m = doc["market"]
        market_aux = (
            _field(m, "id", f"{where}.market", _text),
            _field(m, "ann_return", f"{where}.market", _number),
            _field(m, "ann_vol", f"{where}.market", _number),
        )
        if market_aux[0] in labels:
            raise InputError(f"{where}: market id must differ from the labels")
    cov_matrix = _field(doc, "cov_matrix", where, _numbers((n, n)))
    expected_returns = _field(doc, "expected_returns", where, _numbers((n,)))
    window = _window(where, doc.get("name", "replay"), Date(1900, 1, 1), Date(2100, 1, 1), rf)
    return rp.ReplayInput(labels, cov_matrix, expected_returns, window, aux, market_aux)


def _output_dir(default: Path, override: str | None) -> Path:
    return Path(override or os.environ.get("FRONTERA_OUTPUT_DIR") or default)


def _ext(fmt: str) -> str:
    return "csv" if fmt == "csv" else "md"


def _curve_files(base: Path, curve: rp.FrontierCurve) -> dict[Path, str]:
    frontier_text, cml_text = rp.curve_csv(curve)
    return {base / "frontier_curve.csv": frontier_text, base / "cml_curve.csv": cml_text}


def _report_files(base: Path, report: rp.WindowReport, fmt: str) -> dict[Path, str]:
    base = base / report.window.name
    files = {base / f"tables.{_ext(fmt)}": rp.render_tables(report, fmt)}
    if report.solution is None:
        return files
    try:
        curve = rp.emit_frontier_curve(report)
    except fr.DegenerateFrontierError:  # equal expected returns: no frontier to draw
        return files
    return files | _curve_files(base, curve) | {base / "frontier.svg": rp.render_svg(report, curve)}


def _summary_file(base: Path, reports: list[rp.WindowReport], fmt: str) -> dict[Path, str]:
    return {base / f"summary.{_ext(fmt)}": rp.render_summary(reports, fmt)}


def _named_window(cfg: AnalysisConfig, args) -> WindowSpec:
    for w in cfg.windows:
        if w.name == args.window:
            return w
    raise InputError(f"{args.config}: no window named {args.window!r}")


def _cmd_analyze(args) -> OutputSet:
    cfg = load_config(Path(args.config))
    out_dir = _output_dir(cfg.output_dir, args.output_dir)
    windows = cfg.windows if args.window is None else (_named_window(cfg, args),)
    panel = _load_panel(cfg)
    reports = [rp.analyze_window(panel, w, cfg.trading_days) for w in windows]
    files = {}
    for report in reports:
        files |= _report_files(out_dir, report, args.format)
    return OutputSet(files | _summary_file(out_dir, reports, args.format))


def _load_panel(cfg: AnalysisConfig):
    def read_series(asset_id: str, csv_path: Path):
        if not csv_path.is_file():
            raise InputError(f"{csv_path}: price file not found")
        return parse_price_csv(csv_path.read_bytes(), asset_id)

    assets = [read_series(a, p) for a, p in cfg.assets]
    market = read_series(*cfg.market)
    return align_panel(assets, market)


def _cmd_replay(args) -> OutputSet:
    report = rp.replay_paper(load_replay_input(Path(args.input)))
    out_dir = _output_dir(Path(args.input).parent / "out", args.output_dir)
    return OutputSet(_report_files(out_dir, report, args.format))


def _parse_span(raw: str) -> tuple[float, float]:
    try:
        lo, hi = (float(x) for x in raw.split(":"))
    except ValueError:
        raise InputError(f"invalid span {raw!r} (expected LO:HI)") from None
    return lo, hi


def _cmd_frontier(args) -> OutputSet:
    cfg = load_config(Path(args.config))
    out_dir = _output_dir(cfg.output_dir, args.output_dir)
    window = _named_window(cfg, args)
    report = rp.analyze_window(_load_panel(cfg), window, cfg.trading_days)
    span = _parse_span(args.span) if args.span else None
    curve = rp.emit_frontier_curve(report, args.points, span)
    return OutputSet(_curve_files(out_dir / args.window, curve))


def _cmd_summarize(args) -> OutputSet:
    reports = [rp.replay_paper(load_replay_input(Path(p))) for p in args.inputs]
    out_dir = _output_dir(Path(args.inputs[0]).parent / "out", args.output_dir)
    return OutputSet(_summary_file(out_dir, reports, args.format))


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="frontera", description="Minimum-variance portfolio analytics"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--output-dir", help="override the output directory")
        p.add_argument("--format", choices=["csv", "markdown"], default="csv")

    p = sub.add_parser("analyze", help="full pipeline from price CSVs")
    p.add_argument("--config", required=True)
    p.add_argument("--window", help="analyze only the named window")
    common(p)
    p.set_defaults(func=_cmd_analyze)

    p = sub.add_parser("replay", help="pipeline from a covariance/CAPM fixture")
    p.add_argument("--input", required=True)
    common(p)
    p.set_defaults(func=_cmd_replay)

    p = sub.add_parser("frontier", help="frontier/CML curve files for one window")
    p.add_argument("--config", required=True)
    p.add_argument("--window", required=True)
    p.add_argument("--points", type=int, default=rp.DEFAULT_CURVE_POINTS)
    p.add_argument("--span", help="return span LO:HI as decimal fractions")
    p.add_argument("--output-dir", help="override the output directory")  # curve files only
    p.set_defaults(func=_cmd_frontier)

    p = sub.add_parser("summarize", help="cross-window summary of replay fixtures")
    p.add_argument("--inputs", nargs="+", required=True)
    common(p)
    p.set_defaults(func=_cmd_summarize)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        args.func(args).commit()
        return 0
    except (InputError, MarketDataError, rp.ReportError, OSError) as exc:
        code, line = 1, f"error: {exc}"
    except (st.StatsError, fr.FrontierError) as exc:
        code, line = 2, f"numeric error: {exc}"
    # a window name or a path from the input may hold a line break: the message stays one line
    print(line.replace("\r", "\\r").replace("\n", "\\n"), file=sys.stderr)
    return code


def run():
    """Process entry of ``python -m frontera.cli`` and the ``frontera`` script.

    Runs ``main()``, flushes stdout and stderr, and ends the process with
    ``os._exit``. That skips interpreter finalization: tearing down the
    modules and the shutdown garbage collections over the objects that
    importing numpy leaves, about 20 ms of CPU per process that no output
    depends on. It is safe because frontera starts no threads and
    registers no ``atexit`` handler, and ``OutputSet.commit`` has closed and
    renamed every output file before ``main`` returns. An ``atexit``
    callback that another package registers at start-up is skipped as well:
    certifi's ``where()`` registers one when a site-packages ``.pth`` hook
    calls it, and frontera's outputs do not depend on it. Only a normal return
    takes this exit: argparse's ``SystemExit`` (``--help``, usage errors) and
    any uncaught exception propagate to the normal interpreter exit.
    ``main(argv)`` stays the in-process API.
    """
    code = main()
    sys.stdout.flush()
    sys.stderr.flush()
    os._exit(code)


if __name__ == "__main__":
    run()
