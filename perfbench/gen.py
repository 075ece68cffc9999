"""Seeded synthetic inputs for the benchmark workloads.

Every workload is a set of files (relative path -> bytes) plus the CLI
invocations that consume them. The seed only draws the noise; sizes,
betas, drift schedules and window layouts are fixed per workload, so every
seed asks the program for nearly the same amount of work. Only the number
of viable rolling windows moves, by a few (see price_panel).
"""

from __future__ import annotations

import json
from datetime import date, timedelta

import numpy as np

T_DAYS = 2520  # business days, about ten years
FIRST_DAY = date(2010, 1, 4)
MISSING_PER_ASSET = round(0.005 * T_DAYS)  # dates absent from each asset file
RF = 0.03
WIDE_ASSETS = 200
ROLLING_ASSETS = 20
ROLLING_WINDOWS = 84
REPLAY_ASSETS = 300
REPLAY_FIXTURES = 4


def business_days(n: int) -> list[date]:
    days, d = [], FIRST_DAY
    while len(days) < n:
        if d.weekday() < 5:
            days.append(d)
        d += timedelta(days=1)
    return days


def _month_index(days: list[date]) -> np.ndarray:
    first = days[0].year * 12 + days[0].month - 1
    return np.array([d.year * 12 + d.month - 1 - first for d in days])


def _csv(days: list[str], closes: np.ndarray) -> bytes:
    return ("date,close\n" + "".join(f"{d},{c:.6f}\n" for d, c in zip(days, closes))).encode()


def _market_drift(months: np.ndarray, bear: tuple[int, int] | None) -> np.ndarray:
    """Annual log drift of the market for each day."""
    drift = np.full(len(months), 0.10)
    if bear is not None:
        drift[(months >= bear[0]) & (months < bear[1])] = -0.47
    return drift


def price_panel(rng: np.random.Generator, n_assets: int, bear: tuple[int, int] | None):
    """Market and asset price files over T_DAYS business days.

    Market noise is demeaned within each calendar month, so a window made
    of whole months has about the scheduled market return whatever the
    seed. Viability near the bear phase still turns on the estimated beta
    of the lowest-beta asset, which the seed moves: seeds 1-5 give 55-59
    viable rolling windows of 84.
    """
    days = business_days(T_DAYS)
    months = _month_index(days)
    noise = rng.normal(0.0, 0.18 / np.sqrt(252), T_DAYS)
    for m in np.unique(months):
        sel = months == m
        noise[sel] -= noise[sel].mean()
    market_log = _market_drift(months, bear) / 252 + noise
    betas = np.linspace(0.6, 1.4, n_assets)
    idio = rng.normal(0.0, 0.25 / np.sqrt(252), (T_DAYS, n_assets))
    asset_log = market_log[:, None] * betas + idio
    iso = [d.isoformat() for d in days]
    files = {"prices/MKT.csv": _csv(iso, 100.0 * np.exp(np.cumsum(market_log)))}
    ids = [f"A{i:03d}" for i in range(n_assets)]
    closes = 100.0 * np.exp(np.cumsum(asset_log, axis=0))
    for i, asset_id in enumerate(ids):
        keep = np.ones(T_DAYS, dtype=bool)
        keep[rng.choice(T_DAYS, MISSING_PER_ASSET, replace=False)] = False
        kept = [d for d, k in zip(iso, keep) if k]
        files[f"prices/{asset_id}.csv"] = _csv(kept, closes[keep, i])
    return files, ids, days


def _config(ids: list[str], windows: list[dict]) -> bytes:
    doc = {
        "units": "decimal",
        "assets": [{"id": a, "csv_path": f"prices/{a}.csv"} for a in ids],
        "market": {"id": "MKT", "csv_path": "prices/MKT.csv"},
        "windows": windows,
        "trading_days": 252,
    }
    return json.dumps(doc, indent=1).encode()


def analyze_wide(rng: np.random.Generator) -> dict[str, bytes]:
    files, ids, _ = price_panel(rng, WIDE_ASSETS, bear=None)
    window = {"name": "full", "start": "2000-01-01", "end": "2030-12-31", "rf_annual": RF}
    files["config.json"] = _config(ids, [window])
    return files


def rolling_windows(first: date, count: int) -> list[dict]:
    """Three-year windows starting on the first of each month; the last few
    run past the end of the data and so hold a little less than three years."""
    out = []
    for m in range(count):
        y, mo = first.year + (first.month - 1 + m) // 12, (first.month - 1 + m) % 12 + 1
        end = date(y + 3, mo, 1) - timedelta(days=1)
        out.append({"name": f"w{m:02d}", "start": date(y, mo, 1).isoformat(),
                    "end": end.isoformat(), "rf_annual": RF})
    return out


# Market bear phase (month indices). A window that holds all of it has every
# CAPM return negative and is non-viable; one that misses a month of it is
# viable. The drift puts that threshold half a month from either side.
ROLLING_BEAR = (52, 60)


def analyze_rolling(rng: np.random.Generator) -> dict[str, bytes]:
    files, ids, days = price_panel(rng, ROLLING_ASSETS, bear=ROLLING_BEAR)
    files["config.json"] = _config(ids, rolling_windows(days[0], ROLLING_WINDOWS))
    return files


def _g12(a: np.ndarray) -> list:
    """Round to 12 significant digits, as nested lists for JSON."""
    return np.vectorize(lambda x: float(f"{x:.12g}"), otypes=[float])(a).tolist()


def replay_wide(rng: np.random.Generator) -> dict[str, bytes]:
    """REPLAY_FIXTURES covariance/CAPM fixtures over shared labels. Each
    covariance is a 3-factor model plus a diagonal, so it is SPD. Fixture 2
    has a negative market premium: every CAPM return is negative and it is
    non-viable, like the 2020 window of the bundled case study."""
    n = REPLAY_ASSETS
    labels = [f"S{i:03d}" for i in range(n)]
    files = {}
    for k in range(REPLAY_FIXTURES):
        loadings = np.column_stack([
            rng.uniform(0.5, 1.5, n), rng.normal(0.0, 0.5, n), rng.normal(0.0, 0.5, n)])
        factor_var = np.array([0.15, 0.08, 0.06]) ** 2
        cov = loadings @ np.diag(factor_var) @ loadings.T + np.diag(rng.uniform(0.02, 0.09, n))
        cov = (cov + cov.T) / 2
        rf = 0.02 + 0.01 * k
        premium = -0.25 if k == 2 else 0.05 + 0.01 * k
        er = rf + loadings[:, 0] * premium
        doc = {
            "units": "decimal",
            "name": f"R{k}",
            "labels": labels,
            "cov_matrix": _g12(cov),
            "expected_returns": _g12(er),
            "rf": rf,
            "asset_stats": [
                {"ann_return": r, "ann_vol": v, "beta": b}
                for r, v, b in zip(_g12(er + rng.normal(0, 0.05, n)),
                                   _g12(np.sqrt(np.diag(cov))), _g12(loadings[:, 0]))
            ],
            "market": {"id": "MKT", "ann_return": rf + premium, "ann_vol": 0.15},
        }
        files[f"fixture_{k}.json"] = json.dumps(doc).encode()
    return files


# Input sizes recorded with every result.
SIZES = {
    "analyze_wide": {"assets": WIDE_ASSETS, "days": T_DAYS, "windows": 1},
    "analyze_rolling": {"assets": ROLLING_ASSETS, "days": T_DAYS, "windows": ROLLING_WINDOWS},
    "replay_wide": {"assets": REPLAY_ASSETS, "fixtures": REPLAY_FIXTURES},
}

GENERATORS = {
    "analyze_wide": analyze_wide,
    "analyze_rolling": analyze_rolling,
    "replay_wide": replay_wide,
}


def generate(workload: str, seed: int) -> dict[str, bytes]:
    return GENERATORS[workload](np.random.default_rng(seed))


def invocations(workload: str, in_dir, out_dir) -> list[tuple[str, list[str]]]:
    """(output sub-directory, CLI argv) for each invocation of one pass."""
    if workload.startswith("analyze"):
        return [("analyze", ["analyze", "--config", str(in_dir / "config.json"),
                             "--output-dir", str(out_dir / "analyze")])]
    fixtures = [str(in_dir / f"fixture_{k}.json") for k in range(REPLAY_FIXTURES)]
    calls = [(f"replay_{k}", ["replay", "--input", f, "--output-dir", str(out_dir / f"replay_{k}")])
             for k, f in enumerate(fixtures)]
    calls.append(("summarize", ["summarize", "--inputs", *fixtures,
                                "--output-dir", str(out_dir / "summarize")]))
    return calls
