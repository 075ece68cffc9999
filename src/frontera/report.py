"""Window analysis orchestration and report rendering.

Two entry points build the same report structure:

- ``analyze_window``: raw aligned prices -> returns -> per-asset stats ->
  covariance -> frontier constants -> viability -> GMV portfolio,
  tangency and frontier curve.
- ``replay_paper``: start from a published covariance matrix and
  expected-return vector instead of raw prices; everything downstream is
  the identical code path.

A window in which every expected return is negative is marked non-viable:
no weights, tangency or curve are produced for it.
"""

from __future__ import annotations

from dataclasses import dataclass
from datetime import date as Date
from decimal import ROUND_HALF_UP, Decimal, localcontext

import numpy as np

from . import frontier as fr
from . import stats as st
from .market_data import PricePanel, WindowSpec, simple_returns, slice_window

DEFAULT_CURVE_POINTS = 200


class ReportError(ValueError):
    pass


@dataclass(frozen=True)
class FrontierCurve:
    """Sampled frontier and CML, plus the markers drawn on the figure."""

    points: tuple[tuple[float, float], ...]  # (target_return, frontier_risk)
    cml_points: tuple[tuple[float, float], ...]  # (risk, cml_value)
    asset_markers: tuple[tuple[str, float, float], ...]  # (label, ann_vol, capm)
    gmv_marker: tuple[float, float]  # (risk, return)
    tangency_marker: tuple[float, float] | None  # (sigma_rt, r_t)


@dataclass(frozen=True)
class WindowReport:
    window: WindowSpec
    labels: tuple[str, ...]
    expected_returns: np.ndarray
    stats: tuple[st.AssetStats, ...] | None
    market_stats: st.AssetStats | None
    cov: st.CovarianceModel
    constants: fr.FrontierConstants
    viability: fr.Viability
    tangency: fr.TangencySolution | None
    solution: fr.PortfolioSolution | None
    curve: FrontierCurve | None


@dataclass(frozen=True)
class AssetAux:
    """Indicator-table echo values for replay mode (from the published tables)."""

    ann_return: float
    ann_vol: float
    beta: float


@dataclass(frozen=True)
class ReplayInput:
    labels: tuple[str, ...]
    cov_matrix: np.ndarray
    expected_returns: np.ndarray
    rf: float
    aux: tuple[AssetAux, ...] | None = None
    market_aux: tuple[str, float, float] | None = None  # (id, ann_return, ann_vol)
    window: WindowSpec | None = None


def analyze_window(
    panel: PricePanel, window: WindowSpec, trading_days: int = st.TRADING_DAYS
) -> WindowReport:
    """Run the full pipeline on one date window of an aligned price panel."""
    sliced = slice_window(panel, window)
    r = simple_returns(sliced)
    rf = window.rf_annual
    ann_return = st.annualized_return(r, trading_days)
    ann_vol = st.annualized_volatility(r, trading_days)
    betas = np.append(st.beta(r[:-1], r[-1]), 1.0)  # the market's own beta is 1
    capm = st.capm_expected_return(betas, rf, ann_return[-1])
    *asset_stats, market_stats = _asset_stats(
        sliced.labels + (sliced.market_id,), ann_return, ann_vol, betas, capm, rf
    )
    cov = st.covariance_matrix(r[:-1], sliced.labels, trading_days)
    return _build_report(window, cov.labels, capm[:-1], tuple(asset_stats), market_stats, cov)


def _asset_stats(labels, ann_return, ann_vol, betas, capm, rf) -> tuple[st.AssetStats, ...]:
    """One AssetStats per label from per-asset arrays; Sharpe and Treynor
    take one array call each."""
    sharpe = st.asset_sharpe(ann_return, rf, ann_vol)
    treynor = st.asset_treynor(ann_return, rf, betas)
    return tuple(
        st.AssetStats(label, *map(float, values))
        for label, *values in zip(labels, ann_return, ann_vol, betas, capm, sharpe, treynor)
    )


def replay_paper(replay: ReplayInput) -> WindowReport:
    """Run the pipeline from a published covariance matrix and CAPM vector."""
    matrix = np.asarray(replay.cov_matrix, dtype=float)
    er = np.asarray(replay.expected_returns, dtype=float)
    labels = tuple(replay.labels)
    if matrix.shape != (len(labels), len(labels)):
        raise ReportError(f"covariance shape {matrix.shape} does not match {len(labels)} labels")
    if er.shape != (len(labels),):
        raise ReportError(f"expected-returns length does not match {len(labels)} labels")
    inverse = st.invert_matrix(matrix)
    cov = st.CovarianceModel(labels, matrix, inverse)
    window = replay.window or WindowSpec("replay", Date(1900, 1, 1), Date(2100, 1, 1), replay.rf)
    rf = window.rf_annual

    asset_stats = None
    if replay.aux is not None:
        if len(replay.aux) != len(labels):
            raise ReportError("aux stats length does not match labels")
        ann_return, ann_vol, betas = np.array(
            [(aux.ann_return, aux.ann_vol, aux.beta) for aux in replay.aux], dtype=float
        ).T
        asset_stats = _asset_stats(labels, ann_return, ann_vol, betas, er, rf)
    market_stats = None
    if replay.market_aux is not None:
        market_id, m_ret, m_vol = replay.market_aux
        market_stats = st.AssetStats(
            asset_id=market_id,
            ann_return=m_ret,
            ann_vol=m_vol,
            beta=1.0,
            capm=st.capm_expected_return(1.0, rf, m_ret),
            sharpe=st.asset_sharpe(m_ret, rf, m_vol),
            treynor=st.asset_treynor(m_ret, rf, 1.0),
        )
    return _build_report(window, labels, er, asset_stats, market_stats, cov)


def _build_report(window, labels, er, asset_stats, market_stats, cov) -> WindowReport:
    """Shared tail of analyze/replay; keeping one code path keeps the two
    modes numerically identical on identical intermediate inputs."""
    fc = fr.frontier_constants(cov, er)
    viability = fr.viability_check(er)
    tang = solution = curve = None
    if viability.viable:
        solution = fr.gmv_portfolio(fc, cov, window.rf_annual)
        try:
            tang = fr.tangency(fc, window.rf_annual)
        except (fr.TangencyUndefinedError, fr.DegenerateFrontierError):
            tang = None
        report = WindowReport(
            window, labels, er, asset_stats, market_stats, cov, fc, viability, tang, solution, None
        )
        try:
            curve = emit_frontier_curve(report, DEFAULT_CURVE_POINTS, _default_span(er, solution))
        except fr.DegenerateFrontierError:
            curve = None
    return WindowReport(
        window, labels, er, asset_stats, market_stats, cov, fc, viability, tang, solution, curve
    )


def _default_span(er: np.ndarray, solution: fr.PortfolioSolution) -> tuple[float, float]:
    hi = 1.5 * float(np.max(er))
    if hi <= solution.port_return:
        hi = solution.port_return + 0.02
    return (min(0.0, solution.port_return - 0.02), hi)


def emit_frontier_curve(
    report: WindowReport,
    n_points: int = DEFAULT_CURVE_POINTS,
    return_span: tuple[float, float] | None = None,
) -> FrontierCurve:
    """Sample the frontier over a return span and the CML over [0, max risk]."""
    if report.solution is None:
        raise ReportError(f"window {report.window.name} is non-viable; no curve")
    if n_points < 2:
        raise ReportError("need at least 2 curve points")
    lo, hi = return_span if return_span is not None else _default_span(
        report.expected_returns, report.solution
    )
    if not lo < hi:
        raise ReportError(f"invalid return span [{lo}, {hi}]")
    targets = np.linspace(lo, hi, n_points)
    risks = fr.frontier_risk(report.constants, targets)
    points = tuple(zip(targets.tolist(), risks.tolist()))
    max_risk = float(risks.max())
    cml_points: tuple[tuple[float, float], ...] = ()
    if report.tangency is not None:
        cml_points = tuple(
            (float(v), fr.cml_value(report.tangency.rf, report.tangency.slope, float(v)))
            for v in np.linspace(0.0, max_risk, n_points)
        )
    vols = np.sqrt(np.diag(report.cov.matrix))
    asset_markers = tuple(
        (label, float(vols[i]), float(report.expected_returns[i]))
        for i, label in enumerate(report.labels)
    )
    return FrontierCurve(
        points=points,
        cml_points=cml_points,
        asset_markers=asset_markers,
        gmv_marker=(report.solution.risk, report.solution.port_return),
        tangency_marker=None
        if report.tangency is None
        else (report.tangency.sigma_rt, report.tangency.r_t),
    )


# --- summary across windows (shapes of the published per-period summaries) ---


@dataclass(frozen=True)
class Summary:
    windows: tuple[str, ...]
    labels: tuple[str, ...]
    # per window, None where non-viable
    returns: tuple[float | None, ...]
    betas: tuple[float | None, ...]  # portfolio beta = sum(w_i * beta_i)
    variances: tuple[float | None, ...]
    risks: tuple[float | None, ...]
    sharpes: tuple[float | None, ...]
    weights: tuple[tuple[float | None, ...], ...]  # [asset][window]
    historical: tuple[tuple[float | None, ...], ...]  # per-asset annualized return
    capm: tuple[tuple[float, ...], ...]
    contributions: tuple[tuple[float | None, ...], ...]  # w_i * E(R)_i


def summarize(reports: list[WindowReport]) -> Summary:
    """One column per window: portfolio row, weight matrix and return matrix.

    Every cell is copied from its WindowReport; nothing is recomputed here
    except the portfolio beta, which is the weight-average of asset betas
    (reported only when per-asset betas are available).
    """
    if not reports:
        raise ReportError("need at least one report to summarize")
    labels = reports[0].labels
    for r in reports[1:]:
        if r.labels != labels:
            raise ReportError("reports have mismatched asset labels")

    def per_window(fn):
        return tuple(fn(r) for r in reports)

    def port_beta(r: WindowReport):
        if r.solution is None or r.stats is None:
            return None
        return float(np.array([s.beta for s in r.stats]) @ r.solution.weights)

    return Summary(
        windows=tuple(r.window.name for r in reports),
        labels=labels,
        returns=per_window(lambda r: None if r.solution is None else r.solution.port_return),
        betas=per_window(port_beta),
        variances=per_window(lambda r: None if r.solution is None else r.solution.variance),
        risks=per_window(lambda r: None if r.solution is None else r.solution.risk),
        sharpes=per_window(lambda r: None if r.solution is None else r.solution.sharpe),
        weights=tuple(
            per_window(lambda r, i=i: None if r.solution is None else float(r.solution.weights[i]))
            for i in range(len(labels))
        ),
        historical=tuple(
            per_window(lambda r, i=i: None if r.stats is None else r.stats[i].ann_return)
            for i in range(len(labels))
        ),
        capm=tuple(
            per_window(lambda r, i=i: float(r.expected_returns[i])) for i in range(len(labels))
        ),
        contributions=tuple(
            per_window(
                lambda r, i=i: None
                if r.solution is None
                else float(r.solution.weights[i] * r.expected_returns[i])
            )
            for i in range(len(labels))
        ),
    )


# --- rendering ---


def format_pct(x: float | None, places: int = 2) -> str:
    """Percent with fixed decimals, half-up rounding; "non-viable" for None.

    The shortest ``repr`` of ``x * 100`` is rounded half up (away from zero
    on a tie) to ``places`` decimals. Scalar form of ``format_pcts``.
    """
    return "non-viable" if x is None else format_pcts(x, places)


def format_pcts(values, places: int = 2):
    """``format_pct`` of every number in ``values``, nested like ``values``.

    Every cell is printed from its binary value by one ``%`` call over the
    whole array, ``"%.{places}f%%"`` per cell, which rounds as
    ``f"{y:.{places}f}"`` does (both are ``PyOS_double_to_string``). The
    shortest repr is within half an ulp of that value, so away from a .5 tie
    the two round alike; only cells within 1e-9 relative of a tie, and
    non-finite cells, take the ``Decimal`` path. NaN prints as ``NaN%``; a
    cell whose percent is infinite raises ReportError.
    """
    shape = np.shape(values)
    x = np.asarray(values, dtype=float).ravel()
    with np.errstate(over="ignore", invalid="ignore"):
        y = x * 100
        scaled = y * 10.0**places
        clear = np.isfinite(scaled) & (
            np.abs(scaled - np.floor(scaled) - 0.5) > 1e-9 * np.abs(scaled)
        )
    infinite = np.flatnonzero(np.isinf(y))
    if len(infinite):
        big = float(x[infinite[0]])
        raise ReportError(f"cell value {big!r} is too large to print as a percent")
    cells = (f"%.{places}f%%\n" * len(y) % tuple(y.tolist())).split("\n")
    cells.pop()  # the empty string after the last newline
    q = Decimal(1).scaleb(-places)
    with localcontext() as ctx:
        ctx.prec = 310 + places  # every digit of a finite double at `places`
        for i in np.flatnonzero(~clear).tolist():
            cells[i] = f"{Decimal(repr(float(y[i]))).quantize(q, rounding=ROUND_HALF_UP)}%"
    return np.array(cells, dtype=object).reshape(shape).tolist()


def _pct_rows(rows, missing: str) -> list[list[str]]:
    """``format_pcts`` of equal-length rows in which None prints as ``missing``."""
    cells = format_pcts([[0.0 if x is None else x for x in row] for row in rows])
    return [
        [missing if x is None else c for x, c in zip(row, out)] for row, out in zip(rows, cells)
    ]


def _table(header: list[str], rows: list[list[str]], fmt: str) -> str:
    if fmt == "csv":
        return "\n".join(",".join(cells) for cells in [header] + rows)
    widths = [max(len(r[i]) for r in [header] + rows) for i in range(len(header))]
    def line(cells):
        return "| " + " | ".join(c.ljust(w) for c, w in zip(cells, widths)) + " |"
    sep = "|" + "|".join("-" * (w + 2) for w in widths) + "|"
    return "\n".join([line(header), sep] + [line(r) for r in rows])


def render_tables(report: WindowReport, format: str = "csv") -> str:
    """Deterministic indicator/covariance/portfolio tables for one window."""
    if format not in ("csv", "markdown"):
        raise ReportError(f"unknown format {format!r}")
    out = []
    cols = list(report.labels)
    if report.stats is not None:
        stat_cols = cols + ([report.market_stats.asset_id] if report.market_stats else [])
        all_stats = list(report.stats) + ([report.market_stats] if report.market_stats else [])
        indicators = [
            ("Return", "ann_return"),
            ("Volatility", "ann_vol"),
            ("Beta", "beta"),
            ("CAPM", "capm"),
            ("Sharpe", "sharpe"),
            ("Treynor", "treynor"),
        ]
        cells = format_pcts([[getattr(s, attr) for s in all_stats] for _, attr in indicators])
        rows = [[name] + row for (name, _), row in zip(indicators, cells)]
        out.append(_table(["Indicator"] + stat_cols, rows, format))
    out.append(
        _table(
            ["Covariance"] + cols,
            [[lab] + row for lab, row in zip(cols, format_pcts(report.cov.matrix))],
            format,
        )
    )
    out.append(
        _table(
            ["Inverse"] + cols,
            [[lab] + row for lab, row in zip(cols, format_pcts(report.cov.inverse, 0))],
            format,
        )
    )
    fc = report.constants
    out.append(
        _table(
            ["Constant", "Value"],
            [
                [name, cell]
                for name, cell in zip(
                    ["alpha", "b", "gamma", "delta"],
                    format_pcts([fc.alpha, fc.b, fc.gamma, fc.delta]),
                )
            ],
            format,
        )
    )
    if report.solution is None:
        out.append(
            _table(
                ["Portfolio", "Value"],
                [["viability", f"non-viable: {report.viability.reason}"]],
                format,
            )
        )
    else:
        sol = report.solution
        names = cols + ["return", "variance", "risk", "sharpe"]
        values = sol.weights.tolist() + [sol.port_return, sol.variance, sol.risk, sol.sharpe]
        if report.tangency is not None:
            names += ["tangency return", "tangency risk", "cml slope"]
            values += [report.tangency.r_t, report.tangency.sigma_rt, report.tangency.slope]
        rows = [[name, cell] for name, cell in zip(names, format_pcts(values))]
        out.append(_table(["Portfolio", "Value"], rows, format))
    return "\n\n".join(out) + "\n"


def render_summary(summary: Summary, format: str = "csv") -> str:
    """Portfolio row, weight matrix and return matrix across windows."""
    if format not in ("csv", "markdown"):
        raise ReportError(f"unknown format {format!r}")
    win = list(summary.windows)
    beta_cells = [
        "non-viable" if b is None else f"{b:.2f}" for b in summary.betas
    ]
    ret, var, risk, sharpe = _pct_rows(
        [summary.returns, summary.variances, summary.risks, summary.sharpes], "non-viable"
    )
    perf = [
        ["Return"] + ret,
        ["Beta"] + beta_cells,
        ["Variance"] + var,
        ["Risk"] + risk,
        ["Sharpe"] + sharpe,
    ]
    weights = [
        [lab] + row
        for lab, row in zip(summary.labels, _pct_rows(summary.weights, "non-viable"))
    ]
    returns = []
    for block, matrix, missing in [
        ("Historical", summary.historical, ""),
        ("CAPM", summary.capm, "non-viable"),
        ("Markowitz", summary.contributions, "non-viable"),
    ]:
        for lab, row in zip(summary.labels, _pct_rows(matrix, missing)):
            returns.append([block, lab] + row)
    return "\n\n".join(
        [
            _table(["Indicator"] + win, perf, format),
            _table(["Asset"] + win, weights, format),
            _table(["Block", "Asset"] + win, returns, format),
        ]
    ) + "\n"


def curve_csv(curve: FrontierCurve) -> tuple[str, str]:
    """Frontier and CML curve files: 10 significant digits, one pair per line."""
    frontier_lines = ["target_return,frontier_risk"] + [
        f"{t:.10g},{r:.10g}" for t, r in curve.points
    ]
    cml_lines = ["risk,cml_value"] + [f"{v:.10g},{y:.10g}" for v, y in curve.cml_points]
    return "\n".join(frontier_lines) + "\n", "\n".join(cml_lines) + "\n"


# --- SVG figure ---

_SVG_W, _SVG_H = 720, 520
_MARGIN = 70


def _xml_escape(s: str) -> str:
    return s.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")


def render_svg(curve: FrontierCurve) -> str:
    """Standalone SVG: frontier polyline, CML polyline, labeled markers, percent axes."""
    if not curve.points:
        raise ReportError("empty curve")
    xs = [r for _, r in curve.points] + [v for v, _ in curve.cml_points]
    xs += [m[1] for m in curve.asset_markers] + [curve.gmv_marker[0]]
    ys = [t for t, _ in curve.points] + [y for _, y in curve.cml_points]
    ys += [m[2] for m in curve.asset_markers] + [curve.gmv_marker[1]]
    if curve.tangency_marker is not None:
        xs.append(curve.tangency_marker[0])
        ys.append(curve.tangency_marker[1])
    x_lo, x_hi = 0.0, max(xs) * 1.05 or 1.0
    pad = (max(ys) - min(ys)) * 0.08 or 0.01
    y_lo, y_hi = min(ys) - pad, max(ys) + pad

    def sx(x):
        return _MARGIN + (x - x_lo) / (x_hi - x_lo) * (_SVG_W - 2 * _MARGIN)

    def sy(y):
        return _SVG_H - _MARGIN - (y - y_lo) / (y_hi - y_lo) * (_SVG_H - 2 * _MARGIN)

    def poly(pairs, color):
        pts = " ".join(f"{sx(a):.2f},{sy(b):.2f}" for a, b in pairs)
        return f'<polyline fill="none" stroke="{color}" stroke-width="1.5" points="{pts}"/>'

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_SVG_W}" height="{_SVG_H}" '
        f'viewBox="0 0 {_SVG_W} {_SVG_H}">',
        f'<rect width="{_SVG_W}" height="{_SVG_H}" fill="white"/>',
        f'<line x1="{_MARGIN}" y1="{_SVG_H - _MARGIN}" x2="{_SVG_W - _MARGIN}" '
        f'y2="{_SVG_H - _MARGIN}" stroke="black"/>',
        f'<line x1="{_MARGIN}" y1="{_MARGIN}" x2="{_MARGIN}" y2="{_SVG_H - _MARGIN}" '
        'stroke="black"/>',
    ]
    for i in range(5):
        xv = x_lo + (x_hi - x_lo) * i / 4
        yv = y_lo + (y_hi - y_lo) * i / 4
        parts.append(
            f'<text x="{sx(xv):.2f}" y="{_SVG_H - _MARGIN + 18}" font-size="11" '
            f'text-anchor="middle">{xv * 100:.1f}%</text>'
        )
        parts.append(
            f'<text x="{_MARGIN - 8}" y="{sy(yv):.2f}" font-size="11" '
            f'text-anchor="end">{yv * 100:.1f}%</text>'
        )
    parts.append(
        f'<text x="{_SVG_W / 2}" y="{_SVG_H - 18}" font-size="13" '
        'text-anchor="middle">Risk (annualized)</text>'
    )
    parts.append(poly([(r, t) for t, r in curve.points], "#1f77b4"))
    if curve.cml_points:
        parts.append(poly(curve.cml_points, "#d62728"))
    for label, vol, capm in curve.asset_markers:
        parts.append(f'<circle cx="{sx(vol):.2f}" cy="{sy(capm):.2f}" r="4" fill="#2ca02c"/>')
        parts.append(
            f'<text x="{sx(vol) + 6:.2f}" y="{sy(capm) - 6:.2f}" '
            f'font-size="11">{_xml_escape(label)}</text>'
        )
    gx, gy = curve.gmv_marker
    parts.append(f'<circle cx="{sx(gx):.2f}" cy="{sy(gy):.2f}" r="5" fill="#1f77b4"/>')
    parts.append(f'<text x="{sx(gx) + 6:.2f}" y="{sy(gy) + 14:.2f}" font-size="11">GMV</text>')
    if curve.tangency_marker is not None:
        tx, ty = curve.tangency_marker
        parts.append(f'<circle cx="{sx(tx):.2f}" cy="{sy(ty):.2f}" r="5" fill="#d62728"/>')
        parts.append(
            f'<text x="{sx(tx) + 6:.2f}" y="{sy(ty) + 14:.2f}" font-size="11">Tangency</text>'
        )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
