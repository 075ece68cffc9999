"""Independent check of the CLI's outputs, using numpy only.

It never imports frontera. From the generated input files it recomputes
aligned returns, the annualized covariance, CAPM expected returns and the
closed-form frontier (with ``np.linalg.solve`` instead of the program's
elimination), then compares the emitted files against that reference.
Each check returns a list of problems; an empty list means the output
passed. Output too malformed to parse raises ValueError, IndexError or
KeyError, which the caller counts as a failed check.
"""

from __future__ import annotations

import json
import math
import re
from functools import reduce
from pathlib import Path

import numpy as np

REL_TOL = 1e-6  # curve values are written with 10 significant digits
CURVE_POINTS = 200
_NON_FINITE = re.compile(r"\b(nan|inf|infinity)\b", re.IGNORECASE)
NON_VIABLE = "non-viable"
NON_VIABLE_REASON = "non-viable: all expected returns are negative"


def pct(x: float, places: int = 2) -> tuple[float, int, str]:
    """Expected cell of a percentage rounded to ``places`` decimals."""
    return 100.0 * float(x), places, "%"


def cell_ok(cell: str, want) -> bool:
    """A text cell must match exactly; a numeric one must carry the expected
    suffix and lie within half a unit of its last place (plus 1% of a unit,
    plus 1e-9 relative for the different order of operations)."""
    if isinstance(want, str):
        return cell == want
    value, places, suffix = want
    if not cell.endswith(suffix):
        return False
    try:
        got = float(cell[:len(cell) - len(suffix)])
    except ValueError:
        return False
    return math.isfinite(got) and abs(got - value) <= 0.51 * 10.0 ** -places + 1e-9 * abs(value)


def check_tables_text(text: str, blocks: list[list[list]], what: str) -> list[str]:
    """Compare CSV tables (blocks separated by a blank line) cell by cell."""
    got = [[line.split(",") for line in b.splitlines()] for b in text.rstrip("\n").split("\n\n")]
    shape = [[len(row) for row in b] for b in got]
    if shape != [[len(row) for row in b] for b in blocks]:
        return [f"{what}: table layout differs from the reference"]
    problems = []
    for g_block, w_block in zip(got, blocks):
        for g_row, w_row in zip(g_block, w_block):
            problems += [f"{what}: {g_block[0][0]} row {g_row[0]}: {cell!r}, reference {want!r}"
                         for cell, want in zip(g_row, w_row) if not cell_ok(cell, want)]
    return problems


def window_reference(name: str, labels: list[str], cov: np.ndarray, er: np.ndarray, rf: float,
                     stats: np.ndarray | None = None, market: tuple | None = None) -> dict:
    """Reference of one window: every cell of tables.csv, the default curve,
    the CML and the values summary.csv copies.

    ``stats`` holds per-asset (ann_return, ann_vol, beta) rows; ``market``
    is (id, ann_return, ann_vol).
    """
    n = len(er)
    inverse = np.linalg.solve(cov, np.eye(n))
    h, g = np.linalg.solve(cov, np.column_stack([np.ones(n), er])).T
    alpha, b, gamma = h.sum(), g.sum(), er @ g
    delta = alpha * gamma - b * b
    ref = {"name": name, "labels": labels, "viable": not bool(np.all(er < 0)), "er": er,
           "hist": None if stats is None else stats[:, 0]}
    tables = []
    if stats is not None:
        cols, (ret, vol, beta) = list(labels), stats.T
        if market is not None:
            cols.append(market[0])
            ret, vol, beta = np.append(ret, market[1]), np.append(vol, market[2]), np.append(beta, 1.0)
        capm = np.append(er, rf + (market[1] - rf)) if market is not None else er
        rows = {"Return": ret, "Volatility": vol, "Beta": beta, "CAPM": capm,
                "Sharpe": (ret - rf) / vol, "Treynor": (ret - rf) / beta}
        tables.append([["Indicator", *cols]] + [[k, *map(pct, v)] for k, v in rows.items()])
    tables.append([["Covariance", *labels]]
                  + [[lab, *map(pct, row)] for lab, row in zip(labels, cov)])
    tables.append([["Inverse", *labels]]
                  + [[lab, *(pct(v, 0) for v in row)] for lab, row in zip(labels, inverse)])
    tables.append([["Constant", "Value"], ["alpha", pct(alpha)], ["b", pct(b)],
                   ["gamma", pct(gamma)], ["delta", pct(delta)]])
    ref["tables"] = tables
    if not ref["viable"]:
        tables.append([["Portfolio", "Value"], ["viability", NON_VIABLE_REASON]])
        return ref
    mu, variance = b / alpha, 1 / alpha
    risk, weights = math.sqrt(variance), h / alpha
    sharpe = (mu - rf) / risk
    portfolio = [["Portfolio", "Value"], *([lab, pct(w)] for lab, w in zip(labels, weights)),
                 ["return", pct(mu)], ["variance", pct(variance)], ["risk", pct(risk)],
                 ["sharpe", pct(sharpe)]]
    tables.append(portfolio)
    hi = 1.5 * er.max()
    if hi <= mu:
        hi = mu + 0.02
    targets = np.linspace(min(0.0, mu - 0.02), hi, CURVE_POINTS)

    def frontier_risk(t):
        return np.sqrt((alpha * t * t - 2 * b * t + gamma) / delta)

    ref.update(gmv=(mu, variance, risk, sharpe), weights=weights,
               port_beta=None if stats is None else float(stats[:, 2] @ weights),
               curve=np.column_stack([targets, frontier_risk(targets)]))
    denom = b - alpha * rf
    if abs(denom) >= 1e-12 * max(1.0, alpha):
        r_t = (gamma - b * rf) / denom
        sigma_rt = frontier_risk(r_t)
        slope = (r_t - rf) / sigma_rt
        portfolio += [["tangency return", pct(r_t)], ["tangency risk", pct(sigma_rt)],
                      ["cml slope", pct(slope)]]
        cml_x = np.linspace(0.0, ref["curve"][:, 1].max(), CURVE_POINTS)
        ref["cml"] = np.column_stack([cml_x, rf + cml_x * slope])
    return ref


def _close(got: np.ndarray, want: np.ndarray) -> bool:
    scale = max(float(np.max(np.abs(want))), 1e-12)
    return got.shape == want.shape and bool(np.all(np.abs(got - want) <= REL_TOL * scale))


def check_curve_text(text: str, want: np.ndarray, what: str) -> list[str]:
    """Compare a two-column curve CSV with its reference, column by column."""
    try:
        got = np.array([[float(x) for x in line.split(",")]
                        for line in text.splitlines()[1:]], dtype=float).reshape(-1, 2)
    except ValueError as exc:
        return [f"{what}: unparsable ({exc})"]
    if not np.all(np.isfinite(got)):
        return [f"{what}: non-finite value"]
    bad = [i for i in range(2) if not _close(got[:, i], want[:, i])]
    return [f"{what}: column {i} differs from the reference beyond {REL_TOL}" for i in bad]


def check_window(out: Path, ref: dict, what: str) -> list[str]:
    """One window directory written by ``analyze`` or ``replay``."""
    expected = {"tables.csv"}
    if ref["viable"]:
        expected |= {"frontier_curve.csv", "frontier.svg"}
        if "cml" in ref:
            expected.add("cml_curve.csv")
    found = {p.name for p in out.iterdir()} if out.is_dir() else set()
    if found != expected:
        return [f"{what}: files {sorted(found)}, expected {sorted(expected)}"]
    texts = {name: (out / name).read_text(encoding="utf-8") for name in expected}
    problems = [f"{what}/{n}: non-finite number" for n, t in texts.items() if _NON_FINITE.search(t)]
    problems += check_tables_text(texts["tables.csv"], ref["tables"], f"{what}/tables.csv")
    if not ref["viable"]:
        return problems
    problems += check_curve_text(texts["frontier_curve.csv"], ref["curve"],
                                 f"{what}/frontier_curve.csv")
    if "cml" in ref:
        problems += check_curve_text(texts["cml_curve.csv"], ref["cml"], f"{what}/cml_curve.csv")
    svg = texts["frontier.svg"]
    if not (svg.startswith("<svg") and svg.endswith("</svg>\n")):
        problems.append(f"{what}/frontier.svg: not a complete SVG document")
    return problems


def summary_tables(refs: list[dict]) -> list[list[list]]:
    """Every cell of summary.csv, one column per window."""
    names, labels = [r["name"] for r in refs], refs[0]["labels"]

    def row(label, fn, prefix=()):
        return [*prefix, label, *(fn(r) if r["viable"] else NON_VIABLE for r in refs)]

    def beta(r):
        return NON_VIABLE if r["port_beta"] is None else (r["port_beta"], 2, "")

    perf = [["Indicator", *names],
            row("Return", lambda r: pct(r["gmv"][0])), row("Beta", beta),
            row("Variance", lambda r: pct(r["gmv"][1])), row("Risk", lambda r: pct(r["gmv"][2])),
            row("Sharpe", lambda r: pct(r["gmv"][3]))]
    weights = [["Asset", *names]] + [row(lab, lambda r, i=i: pct(r["weights"][i]))
                                     for i, lab in enumerate(labels)]
    returns = [["Block", "Asset", *names]]
    returns += [["Historical", lab, *("" if r["hist"] is None else pct(r["hist"][i]) for r in refs)]
                for i, lab in enumerate(labels)]
    returns += [["CAPM", lab, *(pct(r["er"][i]) for r in refs)] for i, lab in enumerate(labels)]
    returns += [row(lab, lambda r, i=i: pct(r["weights"][i] * r["er"][i]), ("Markowitz",))
                for i, lab in enumerate(labels)]
    return [perf, weights, returns]


def check_summary(path: Path, refs: list[dict]) -> list[str]:
    if not path.is_file():
        return [f"{path.name}: missing"]
    text = path.read_text(encoding="utf-8")
    if _NON_FINITE.search(text):
        return [f"{path.name}: non-finite number"]
    return check_tables_text(text, summary_tables(refs), path.name)


# --- analyze ---


def _read_prices(path: Path) -> tuple[np.ndarray, np.ndarray]:
    rows = [line.split(",") for line in path.read_text(encoding="utf-8").splitlines()[1:] if line]
    return np.array([r[0] for r in rows]), np.array([float(r[1]) for r in rows])


def analyze_references(in_dir: Path) -> tuple[list[dict], dict[str, float]]:
    """Reference of every window of an ``analyze`` config, and the traced
    counts the inputs fix: data rows, dates dropped by alignment, and the
    mean number of dates per window."""
    cfg = json.loads((in_dir / "config.json").read_text(encoding="utf-8"))
    series = [_read_prices(in_dir / a["csv_path"]) for a in cfg["assets"]]
    series.append(_read_prices(in_dir / cfg["market"]["csv_path"]))
    dates = [d for d, _ in series]
    common = reduce(np.intersect1d, dates)
    prices = np.column_stack([c[np.searchsorted(d, common)] for d, c in series])
    labels = [a["id"] for a in cfg["assets"]]
    td = cfg["trading_days"]
    refs, obs = [], []
    for w in cfg["windows"]:
        sel = prices[(common >= w["start"]) & (common <= w["end"])]
        obs.append(len(sel))
        rets = sel[1:] / sel[:-1] - 1
        assets, market = rets[:, :-1], rets[:, -1]
        growth = np.prod(1 + rets, axis=0) ** (td / len(rets)) - 1
        vol = np.std(rets, axis=0, ddof=1) * math.sqrt(td)
        mc = market - market.mean()
        betas = (assets - assets.mean(axis=0)).T @ mc / (mc @ mc)
        rf = w["rf_annual"]
        er = rf + betas * (growth[-1] - rf)
        refs.append(window_reference(
            w["name"], labels, np.cov(assets, rowvar=False) * td, er, rf,
            np.column_stack([growth[:-1], vol[:-1], betas]),
            (cfg["market"]["id"], growth[-1], vol[-1])))
    counts = {"market_data.rows_parsed": sum(map(len, dates)),
              "market_data.dates_dropped": len(reduce(np.union1d, dates)) - len(common),
              "market_data.obs_per_window": float(np.mean(obs)),
              "report.viable_windows": sum(r["viable"] for r in refs)}
    return refs, counts


def check_analyze(out: Path, refs: list[dict]) -> list[str]:
    problems = []
    found = {p.name for p in out.iterdir()} if out.is_dir() else set()
    if found != {r["name"] for r in refs} | {"summary.csv"}:
        return [f"analyze: output entries {len(found)}, expected {len(refs) + 1}"]
    for ref in refs:
        problems += check_window(out / ref["name"], ref, f"analyze/{ref['name']}")
    return problems + check_summary(out / "summary.csv", refs)


# --- replay / summarize ---


def replay_reference(fixture: Path) -> dict:
    doc = json.loads(fixture.read_text(encoding="utf-8"))
    stats = market = None
    if "asset_stats" in doc:
        stats = np.array([[a["ann_return"], a["ann_vol"], a["beta"]] for a in doc["asset_stats"]],
                         dtype=float)
    if "market" in doc:
        market = (doc["market"]["id"], doc["market"]["ann_return"], doc["market"]["ann_vol"])
    return window_reference(doc["name"], doc["labels"], np.array(doc["cov_matrix"], dtype=float),
                            np.array(doc["expected_returns"], dtype=float), float(doc["rf"]),
                            stats, market)


def check_replay(out: Path, ref: dict) -> list[str]:
    found = {p.name for p in out.iterdir()} if out.is_dir() else set()
    if found != {ref["name"]}:
        return [f"replay {ref['name']}: output entries {sorted(found)}"]
    return check_window(out / ref["name"], ref, f"replay/{ref['name']}")


def _nudge(cell: str) -> str:
    """The cell moved by two units of its last decimal place."""
    num = cell.rstrip("%")
    places = len(num.split(".")[1]) if "." in num else 0
    return f"{float(num) + 2 * 10.0 ** -places:.{places}f}{cell[len(num):]}"


def perturbations_accepted(window_dir: Path, ref: dict) -> list[str]:
    """Perturbed copies of a correct window that the check fails to reject:
    one frontier risk scaled by 1 + 1e-4, and in each block of tables.csv
    the last cell of the first row below the header moved by two units of
    its last place. An empty list means every one was rejected."""
    accepted = []
    lines = (window_dir / "frontier_curve.csv").read_text(encoding="utf-8").splitlines()
    t, r = lines[len(lines) // 2].split(",")
    lines[len(lines) // 2] = f"{t},{float(r) * (1 + 1e-4):.10g}"
    if not check_curve_text("\n".join(lines) + "\n", ref["curve"], "perturbed"):
        accepted.append("frontier_curve.csv risk")
    text = (window_dir / "tables.csv").read_text(encoding="utf-8")
    blocks = text.rstrip("\n").split("\n\n")
    for k, block in enumerate(blocks):
        rows = block.splitlines()
        cells = rows[1].split(",")
        cells[-1] = _nudge(cells[-1])
        rows[1] = ",".join(cells)
        changed = "\n\n".join(blocks[:k] + ["\n".join(rows)] + blocks[k + 1:]) + "\n"
        if not check_tables_text(changed, ref["tables"], "perturbed"):
            accepted.append(f"tables.csv {rows[0].split(',')[0]} cell")
    return accepted
