"""In-process traced run: spans around the public functions of each layer.

The program is not modified. Each public function listed in LAYERS is
replaced, in every ``frontera`` module that refers to it, by a wrapper that
records a span (name, start, end, parent, window) in memory. A layer's self
time is the total of its spans minus the time covered by their child spans.
Counts are taken from the arguments and results the wrappers keep, after
the run, so that no counting happens inside a timed span.
"""

from __future__ import annotations

import sys
import time
import types

import numpy as np

PACKAGE = "frontera"
# span name -> public functions (module.attr[.attr]) it wraps
LAYERS = {
    "cli.main": ["cli.main"],
    "cli.load": ["cli.load_config", "cli.load_replay_input"],
    "cli.commit": ["cli.OutputSet.commit"],
    "market_data.parse": ["market_data.parse_price_csv"],
    "market_data.align": ["market_data.align_panel"],
    "market_data.slice": ["market_data.slice_window"],
    "market_data.returns": ["market_data.simple_returns"],
    "stats.asset_stats": ["stats.annualized_return", "stats.annualized_volatility", "stats.beta",
                          "stats.capm_expected_return", "stats.asset_sharpe", "stats.asset_treynor"],
    "stats.covariance": ["stats.covariance_matrix", "stats.sample_covariance"],
    "stats.invert": ["stats.invert_matrix"],
    "frontier.constants": ["frontier.frontier_constants", "frontier.viability_check",
                           "frontier.gmv_portfolio", "frontier.tangency"],
    "report.analyze_window": ["report.analyze_window"],
    "report.replay_paper": ["report.replay_paper"],
    "report.curve": ["report.emit_frontier_curve"],
    "report.render_tables": ["report.render_tables"],
    "report.render_svg": ["report.render_svg"],
    "report.curve_csv": ["report.curve_csv"],
    "report.summarize": ["report.summarize", "report.render_summary"],
}
# Counted, not timed: called hundreds of times per window, so a span
# would cost more than the call. Their time stays in the caller's span.
COUNTED = {"frontier.risk_calls": "frontier.frontier_risk"}
# Functions whose arguments and results the counters below read.
KEPT = {"market_data.parse_price_csv", "market_data.align_panel", "market_data.slice_window",
        "stats.invert_matrix", "frontier.viability_check", "report.render_tables"}
WINDOWED = {"report.analyze_window", "report.replay_paper"}  # spans that open a window

# per-layer self-time metric -> span name
SELF_TIME = {
    "market_data.parse_s": "market_data.parse",
    "market_data.align_s": "market_data.align",
    "market_data.slice_s": "market_data.slice",
    "market_data.returns_s": "market_data.returns",
    "stats.asset_stats_s": "stats.asset_stats",
    "stats.covariance_s": "stats.covariance",
    "stats.invert_s": "stats.invert",
    "frontier.constants_s": "frontier.constants",
    "report.curve_s": "report.curve",
    "report.render_svg_s": "report.render_svg",
    "report.curve_csv_s": "report.curve_csv",
    "report.render_tables_s": "report.render_tables",
    "report.analyze_window_self_s": "report.analyze_window",
    "report.replay_paper_self_s": "report.replay_paper",
    "report.summarize_s": "report.summarize",
    "cli.load_s": "cli.load",
    "cli.commit_s": "cli.commit",
    "cli.main_self_s": "cli.main",
}


class Absent(Exception):
    """A metric that cannot be measured on this version of the program."""


def _resolve(path: str):
    owner = sys.modules[f"{PACKAGE}.{path.split('.')[0]}"]
    parts = path.split(".")[1:]
    for part in parts[:-1]:
        owner = getattr(owner, part)
    return owner, parts[-1]


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index, window]
        self._stack: list[int] = []
        self.calls: dict[str, list] = {}  # public function -> [(args, result, span), ...]
        self.missing: dict[str, str] = {}  # span/counter name -> reason
        self._patched: list[tuple[object, str, object]] = []

    # --- wrapping ---

    def install(self):
        for span, funcs in LAYERS.items():
            found = [f for f in funcs if self._wrap(f, span)]
            if not found:
                self.missing[span] = f"no function of {funcs} exists in {PACKAGE}"
        for counter, func in COUNTED.items():
            if not self._wrap(func, None):
                self.missing[counter] = f"{PACKAGE}.{func} does not exist"

    def uninstall(self):
        for owner, attr, orig in reversed(self._patched):
            setattr(owner, attr, orig)
        self._patched.clear()

    def _wrap(self, path: str, span: str | None) -> bool:
        try:
            owner, attr = _resolve(path)
            orig = getattr(owner, attr)
        except (KeyError, AttributeError):
            return False
        calls = self.calls.setdefault(path, [])
        if span is None:
            wrapper = self._counted(orig, calls)
        else:
            wrapper = self._timed(span, orig, calls if path in KEPT else None)
        targets = [(owner, attr)]
        if isinstance(owner, types.ModuleType):  # also names imported into other modules
            targets += [(m, a) for name, m in list(sys.modules.items())
                        if name.startswith(PACKAGE) and m is not owner
                        for a, v in list(vars(m).items()) if v is orig]
        for o, a in targets:
            self._patched.append((o, a, orig))
            setattr(o, a, wrapper)
        return True

    def _timed(self, span, fn, calls):
        spans, stack = self.spans, self._stack
        windowed = span in WINDOWED

        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else -1
            window = _window(args) if windowed else (spans[parent][4] if stack else None)
            record = [span, 0.0, 0.0, parent, window]
            index = len(spans)
            stack.append(index)
            spans.append(record)
            record[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = time.perf_counter()
                stack.pop()
            if calls is not None:
                calls.append((args, result, index))
            return result

        return wrapper

    @staticmethod
    def _counted(fn, calls):
        def wrapper(*args, **kwargs):
            calls.append(None)
            return fn(*args, **kwargs)

        return wrapper

    # --- results ---

    def self_times(self) -> dict[str, float]:
        child = [0.0] * len(self.spans)
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict[str, float] = {}
        for (name, start, end, _, _), c in zip(self.spans, child):
            out[name] = out.get(name, 0.0) + (end - start) - c
        return out

    def total(self) -> float:
        return sum(end - start for _, start, end, parent, _ in self.spans if parent < 0)

    def overhead(self) -> tuple[float, float, float]:
        """Seconds the wrappers added to the traced pass: wrapped calls times
        the per-call cost of each kind of wrapper (see wrapper_costs).
        Returns (total, timed cost per call, counted cost per call)."""
        timed, counted = wrapper_costs()
        n_counted = sum(len(self.calls.get(f, ())) for f in COUNTED.values())
        return len(self.spans) * timed + n_counted * counted, timed, counted

    def metrics(self) -> dict[str, tuple[float | None, str | None]]:
        """Per-layer metric -> (value, reason it is absent or None)."""
        self_t = self.self_times()
        out = {}
        for metric, span in SELF_TIME.items():
            out[metric] = ((None, self.missing[span]) if span in self.missing
                           else (self_t.get(span, 0.0), None))
        counters = {
            "market_data.rows_parsed": self._rows_parsed,
            "market_data.dates_dropped": self._dates_dropped,
            "market_data.obs_per_window": self._obs_per_window,
            "stats.invert_calls": lambda: len(self._calls("stats.invert_matrix")),
            "stats.invert_residual": self._invert_residual,
            "frontier.risk_calls": lambda: len(self._calls("frontier.frontier_risk")),
            "report.viable_windows": self._viable_windows,
            "report.cells_formatted": lambda: sum(
                r.count("%") for _, r, _ in self._calls("report.render_tables")),
        }
        for metric, fn in counters.items():
            try:
                out[metric] = (fn(), None)
            except Absent as exc:
                out[metric] = (None, str(exc))
        return out

    def _calls(self, path: str) -> list:
        if path not in self.calls:
            raise Absent(f"{PACKAGE}.{path} does not exist")
        return self.calls[path]

    def _rows_parsed(self) -> int:
        def rows(text):
            text = text.decode("utf-8") if isinstance(text, bytes) else text
            return sum(1 for line in text.splitlines() if line.strip()) - 1

        try:
            return sum(rows(args[0]) for args, _, _ in self._calls("market_data.parse_price_csv"))
        except IndexError as exc:
            raise Absent(f"parse_price_csv arguments changed shape: {exc}") from None

    def _dates_dropped(self) -> int:
        try:
            return sum(
                len(set(args[1].dates).union(*(s.dates for s in args[0])))
                - len(result.common_dates)
                for args, result, _ in self._calls("market_data.align_panel"))
        except (AttributeError, IndexError) as exc:
            raise Absent(f"align_panel inputs/result changed shape: {exc}") from None

    def _obs_per_window(self) -> float:
        calls = self._calls("market_data.slice_window")
        try:
            return float(np.mean([len(r.common_dates) for _, r, _ in calls])) if calls else 0.0
        except AttributeError as exc:
            raise Absent(f"slice_window result changed shape: {exc}") from None

    def _viable_windows(self) -> int:
        """Windows judged viable, counted once per window and CLI invocation."""
        def root(i):
            while self.spans[i][3] >= 0:
                i = self.spans[i][3]
            return i

        return len({(root(i), self.spans[i][4])
                    for _, r, i in self._calls("frontier.viability_check") if r.viable})

    def _invert_residual(self) -> float:
        worst = 0.0
        for args, inv, _ in self._calls("stats.invert_matrix"):
            a = np.asarray(args[0], dtype=float)
            worst = max(worst, float(np.max(np.abs(a @ inv - np.eye(len(a))))))
        return worst


def wrapper_costs(calls: int = 2000, blocks: int = 21) -> tuple[float, float]:
    """Seconds a timed and a counted wrapper add to one call, measured on a
    no-op function. Plain, timed and counted loops alternate in short
    blocks, so the host's speed swings, which last seconds, cancel out of
    each block's difference; the median over blocks is returned."""
    def noop(*args):
        return None

    probe = Tracer()
    kept: list = []
    loops = [noop, probe._timed("calibration", noop, kept), probe._counted(noop, [])]
    diffs: list[list[float]] = [[], []]
    for b in range(blocks):
        took = [0.0, 0.0, 0.0]
        for k in [(b + i) % 3 for i in range(3)]:
            fn = loops[k]
            start = time.perf_counter()
            for _ in range(calls):
                fn(probe)
            took[k] = time.perf_counter() - start
        probe.spans.clear()
        kept.clear()
        diffs[0].append((took[1] - took[0]) / calls)
        diffs[1].append((took[2] - took[0]) / calls)
    return float(np.median(diffs[0])), float(np.median(diffs[1]))


def _window(args) -> str | None:
    """Window name of an analyze_window(panel, window) or replay_paper(replay) call."""
    for a in args[:2]:
        w = getattr(a, "window", a)
        name = getattr(w, "name", None)
        if isinstance(name, str) and hasattr(w, "rf_annual"):
            return name
    return None
