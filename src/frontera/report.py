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

from dataclasses import dataclass, replace
from datetime import date as Date
from decimal import ROUND_HALF_UP, Decimal, localcontext
from itertools import accumulate

import numpy as np

from . import frontier as fr
from . import stats as st
from .market_data import PricePanel, WindowSpec, simple_returns, slice_window

DEFAULT_CURVE_POINTS = 200
MAX_CURVE_POINTS = 1_000_000


class ReportError(ValueError):
    pass


@dataclass(frozen=True)
class FrontierCurve:
    """Sampled frontier and CML, plus the markers drawn on the figure.

    ``points`` is an (n, 2) float array of (target return, frontier risk)
    rows and ``cml_points`` an (n, 2) array of (risk, CML value) rows; it
    is (0, 2) when the window has no tangency.
    """

    points: np.ndarray
    cml_points: np.ndarray
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
class ReplayInput:
    labels: tuple[str, ...]
    cov_matrix: np.ndarray
    expected_returns: np.ndarray
    rf: float
    # (N, 3) published ann_return, ann_vol and beta per label, echoed in the indicator table
    aux: np.ndarray | None = None
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
        aux = np.asarray(replay.aux, dtype=float)
        if aux.shape != (len(labels), 3):
            raise ReportError(f"aux stats shape {aux.shape} does not match {len(labels)} labels")
        asset_stats = _asset_stats(labels, *aux.T, er, rf)
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
    tang = solution = None
    if viability.viable:
        solution = fr.gmv_portfolio(fc, window.rf_annual)
        try:
            tang = fr.tangency(fc, window.rf_annual)
        except (fr.TangencyUndefinedError, fr.DegenerateFrontierError):
            pass
    report = WindowReport(
        window, labels, er, asset_stats, market_stats, cov, fc, viability, tang, solution, None
    )
    if solution is not None:
        try:
            report = replace(report, curve=emit_frontier_curve(report))
        except fr.DegenerateFrontierError:
            pass
    return report


def emit_frontier_curve(
    report: WindowReport,
    n_points: int = DEFAULT_CURVE_POINTS,
    return_span: tuple[float, float] | None = None,
) -> FrontierCurve:
    """Sample the frontier over a return span and the CML over [0, max risk].

    The default span runs from min(0, GMV return - 2%) to 1.5 times the
    largest expected return, or to GMV return + 2% if that is not above it.
    """
    if report.solution is None:
        raise ReportError(f"window {report.window.name} is non-viable; no curve")
    if not 2 <= n_points <= MAX_CURVE_POINTS:
        raise ReportError(f"need 2 to {MAX_CURVE_POINTS} curve points, got {n_points}")
    if return_span is None:
        mu = report.solution.port_return
        hi = 1.5 * float(np.max(report.expected_returns))
        return_span = (min(0.0, mu - 0.02), mu + 0.02 if hi <= mu else hi)
    lo, hi = return_span
    if not lo < hi:
        raise ReportError(f"invalid return span [{lo}, {hi}]")
    with np.errstate(all="ignore"):  # an overflow ends as a non-finite value, refused below
        targets = np.linspace(lo, hi, n_points)
        risks = fr.frontier_risk(report.constants, targets)
        cml_points = np.empty((0, 2))
        if report.tangency is not None:
            v = np.linspace(0.0, risks.max(), n_points)
            cml_points = np.column_stack([v, report.tangency.rf + v * report.tangency.slope])
    points = np.column_stack([targets, risks])
    if not (np.isfinite(points).all() and np.isfinite(cml_points).all()):
        raise ReportError(f"return span [{lo}, {hi}] gives non-finite curve values")
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
    """Cross-window summary of W windows over N assets, held in arrays.

    ``returns``, ``betas``, ``variances``, ``risks`` and ``sharpes`` are
    (W,) rows; ``weights``, ``historical``, ``capm`` and ``contributions``
    are (N, W). The (W,) bool masks ``viable`` (the window has a portfolio)
    and ``has_stats`` (per-asset stats are known) mark the known columns:
    the portfolio rows, weights and contributions need ``viable``, the
    historical returns ``has_stats`` and the beta both. Unknown cells are NaN.
    """

    windows: tuple[str, ...]
    labels: tuple[str, ...]
    viable: np.ndarray
    has_stats: np.ndarray
    returns: np.ndarray
    betas: np.ndarray  # portfolio beta = sum(w_i * beta_i)
    variances: np.ndarray
    risks: np.ndarray
    sharpes: np.ndarray
    weights: np.ndarray
    historical: np.ndarray  # per-asset annualized return
    capm: np.ndarray
    contributions: np.ndarray  # w_i * E(R)_i


def summarize(reports: list[WindowReport]) -> Summary:
    """One column per window: portfolio row, weight matrix and return matrix.

    Every cell is copied from its WindowReport; nothing is recomputed here
    except the portfolio beta, which is the weight-average of asset betas
    (known only when per-asset betas are available), and the contributions
    ``weights * capm``.
    """
    if not reports:
        raise ReportError("need at least one report to summarize")
    labels = reports[0].labels
    for r in reports[1:]:
        if r.labels != labels:
            raise ReportError("reports have mismatched asset labels")
    sols = [r.solution for r in reports]
    unknown = np.full(len(labels), np.nan)

    def row(attr: str) -> np.ndarray:
        return np.array([np.nan if s is None else getattr(s, attr) for s in sols])

    weights = np.column_stack([unknown if s is None else s.weights for s in sols])
    capm = np.column_stack([r.expected_returns for r in reports])
    return Summary(
        windows=tuple(r.window.name for r in reports),
        labels=labels,
        viable=np.array([s is not None for s in sols]),
        has_stats=np.array([r.stats is not None for r in reports]),
        returns=row("port_return"),
        betas=np.array(
            [
                np.nan if s is None or r.stats is None else [a.beta for a in r.stats] @ s.weights
                for r, s in zip(reports, sols)
            ]
        ),
        variances=row("variance"),
        risks=row("risk"),
        sharpes=row("sharpe"),
        weights=weights,
        historical=np.column_stack(
            [unknown if r.stats is None else [a.ann_return for a in r.stats] for r in reports]
        ),
        capm=capm,
        contributions=weights * capm,
    )


# --- rendering ---
#
# A table is laid out as bytes before it becomes text. Its cells are held
# in uint8 blocks of shape (height, cells): column j holds cell j's bytes,
# bottom-aligned and filled above with _PAD, a byte that UTF-8 never
# contains, so dropping every _PAD byte of a laid-out table in one pass
# leaves each cell whole. Blocks run cells along their long axis, so each
# numpy step covers every cell at once rather than the few bytes of one.

_PAD, _SPACE = np.uint8(0xFF), np.uint8(ord(" "))
_FILL = bytes([_PAD])
_MINUS, _POINT, _PERCENT, _NEWLINE, _ZERO = b"-.%\n0"
_POW10 = 10 ** np.arange(10, dtype=np.int32)[:, None]  # a printed m < 5e8 < 10**9
# 1 for a byte that starts a character: neither fill nor a UTF-8 continuation byte
_STARTS = ((np.arange(256) & 0xC0) != 0x80).astype(np.uint8)
_STARTS[_PAD] = 0


def format_pcts(values, places: int = 2):
    """Percent strings of the numbers in ``values``, nested like ``values``.

    Each cell is the shortest ``repr`` of ``y = x * 100`` rounded half up
    (away from zero on a tie) to ``places`` decimals. The shortest repr is
    within half an ulp of y, so away from a .5 tie both round alike, and
    such a cell is printed from the decimal digits of the integer
    m = rint(|y| * 10**places). Its sign is y's sign bit, so a negative that
    rounds to zero prints ``-0.00%``, as ``f"{y:.2f}%"`` does. Only cells
    within 1e-9 relative of a tie, which includes every cell with
    |y| * 10**places >= 5e8, and non-finite cells take the ``Decimal``
    path. NaN prints as ``NaN%``; a cell whose percent is infinite raises
    ReportError.
    """
    block = _pct_cells(values, places)
    lines = _text(np.concatenate([block, np.full((1, block.shape[1]), _NEWLINE, np.uint8)]).T)
    return np.array(lines.split("\n")[:-1], dtype=object).reshape(np.shape(values)).tolist()


def _pct_cells(values, places: int) -> np.ndarray:
    """The block of ``format_pcts(values, places)``, cells in row order."""
    x = np.asarray(values, dtype=float).ravel()
    with np.errstate(over="ignore", invalid="ignore"):
        y = x * 100
        a = np.abs(y * 10.0**places)
        clear = np.abs(a - np.floor(a) - 0.5) > 1e-9 * a  # False for inf and NaN
    m = np.rint(a, where=clear, out=np.zeros(len(a))).astype(np.int32)  # < 5e8
    whole = len(str(int(m.max(initial=0)) // 10**places))  # integer digits of the widest cell
    point = int(places > 0)
    # one row per character: sign, whole digits, point, decimals, %
    block = np.empty((whole + point + places + 2, len(x)), np.uint8)
    block[0] = _PAD
    block[0, np.signbit(y) & clear] = _MINUS
    block[-1] = _PERCENT
    rest = m
    for k in range(places + whole):  # the k-th digit from the right
        rest, block[-2 - k - (point and k >= places)] = np.divmod(rest, 10)
    block[1:-1] += _ZERO
    if point:
        block[-2 - places] = _POINT
    # zeros in front of the first whole digit; a digit ORed with _PAD is _PAD
    block[1:whole] |= (m < _POW10[places + whole - 1 : places : -1]) * _PAD
    unclear = (~clear).nonzero()[0]
    if len(unclear):
        infinite = unclear[np.isinf(y[unclear])]
        if len(infinite):
            big = float(x[infinite[0]])
            raise ReportError(f"cell value {big!r} is too large to print as a percent")
        q = Decimal(1).scaleb(-places)
        with localcontext() as ctx:
            ctx.prec = 310 + places  # every digit of a finite double at `places`
            texts = [
                f"{Decimal(repr(v)).quantize(q, rounding=ROUND_HALF_UP)}%"
                for v in y[unclear].tolist()
            ]
        block = _splice(block, unclear, texts)
    return block


def _masked_pcts(values: np.ndarray, known: np.ndarray, text) -> np.ndarray:
    """``_pct_cells`` of ``values`` at 2 places; a cell where ``known`` is
    False prints as its cell of ``text`` instead (both broadcast to ``values``)."""
    known = np.broadcast_to(known, values.shape)
    block = _pct_cells(np.where(known, values, 0.0), 2)
    texts = np.broadcast_to(text, known.shape)[~known].tolist()
    return _splice(block, (~known).ravel().nonzero()[0], texts)


def _text_cells(texts: list[str], height: int = 0) -> np.ndarray:
    """The block of cells that print as the strings ``texts``, at least
    ``height`` bytes high."""
    # surrogatepass: a label's lone surrogate comes back unchanged in _text
    data = [t.encode("utf-8", "surrogatepass") for t in texts]
    height = max([height] + [len(b) for b in data])
    padded = b"".join(b.rjust(height, _FILL) for b in data)
    return np.frombuffer(padded, np.uint8).reshape(len(data), height).T


def _splice(block: np.ndarray, cells: np.ndarray, texts: list[str]) -> np.ndarray:
    """``block`` with cell ``cells[i]`` set to ``texts[i]``, heightened if a
    text is longer than the block."""
    spliced = _text_cells(texts, len(block))
    if len(spliced) > len(block):
        block = np.concatenate([np.full((len(spliced) - len(block), block.shape[1]), _PAD), block])
    block[:, cells] = spliced
    return block


def _split(block: np.ndarray, sizes: list[int]) -> list[np.ndarray]:
    """Consecutive runs of ``sizes`` cells of one block."""
    return [block[:, end - n : end] for n, end in zip(sizes, accumulate(sizes))]


def _text(layout: np.ndarray) -> str:
    """The text of laid-out bytes, in row-major order, without the _PAD fill."""
    return layout.tobytes().translate(None, _FILL).decode("utf-8", "surrogatepass")


def _table(header: list[str], labels: list[np.ndarray], body: np.ndarray, fmt: str) -> str:
    """A csv or markdown table: the header row, then each row's label cells
    and body cells. ``labels`` holds the blocks of the leading text columns
    and ``body`` the block of the rest, cells in row order."""
    blocks = [*labels, body]
    rows = blocks[0].shape[1]
    counts = [1] * len(labels) + [len(header) - len(labels)]  # columns per block
    if fmt == "csv":
        lines, start, sep, end = [",".join(header)], b"", b",", b"\n"
        pads = [np.empty((0, b.shape[1]), np.uint8) for b in blocks]
    else:
        chars = [_STARTS[b].sum(axis=0, dtype=np.intp) for b in blocks]  # per cell
        chars = np.concatenate([c.reshape(rows, n) for c, n in zip(chars, counts)], axis=1)
        widths = np.maximum([len(h) for h in header], chars.max(axis=0, initial=0))
        lines = [
            "| " + " | ".join(h.ljust(w) for h, w in zip(header, widths.tolist())) + " |",
            "|" + "|".join("-" * (w + 2) for w in widths.tolist()) + "|",
        ]
        start, sep, end = b"| ", b" | ", b" |\n"
        need = widths - chars  # spaces after each cell
        spaces = np.arange(need.max(initial=0))[:, None]
        edges = list(accumulate([0] + counts))
        pads = [
            np.where(spaces < need[:, lo:hi].ravel(), _SPACE, _PAD)
            for lo, hi in zip(edges, edges[1:])
        ]
    if not rows:
        return "\n".join(lines)
    parts = [np.frombuffer(start * rows, np.uint8).reshape(rows, -1)]
    for block, pad in zip(blocks, pads):
        seps = np.frombuffer(sep * block.shape[1], np.uint8).reshape(-1, len(sep)).T
        parts.append(np.concatenate([block, pad, seps]).T.reshape(rows, -1))
    layout = np.concatenate(parts, axis=1)
    layout[:, -len(end) :] = np.frombuffer(end, np.uint8)
    return "\n".join(lines) + "\n" + _text(layout)[:-1]


def render_tables(report: WindowReport, format: str = "csv") -> str:
    """Deterministic indicator/covariance/portfolio tables for one window."""
    if format not in ("csv", "markdown"):
        raise ReportError(f"unknown format {format!r}")
    cols = list(report.labels)
    indicators = [
        ("Return", "ann_return"),
        ("Volatility", "ann_vol"),
        ("Beta", "beta"),
        ("CAPM", "capm"),
        ("Sharpe", "sharpe"),
        ("Treynor", "treynor"),
    ]
    stats = []
    if report.stats is not None:
        stats = list(report.stats) + ([report.market_stats] if report.market_stats else [])
    fc = report.constants
    names, values = ["viability"], []
    if report.solution is not None:
        sol = report.solution
        names = cols + ["return", "variance", "risk", "sharpe"]
        values = sol.weights.tolist() + [sol.port_return, sol.variance, sol.risk, sol.sharpe]
        if report.tangency is not None:
            names += ["tangency return", "tangency risk", "cml slope"]
            values += [report.tangency.r_t, report.tangency.sigma_rt, report.tangency.slope]
    texts = [name for name, _ in indicators] + cols + ["alpha", "b", "gamma", "delta"] + names
    indicator_names, labels, constant_names, portfolio_names = _split(
        _text_cells(texts), [6, len(cols), 4, len(names)]
    )
    # One formatting pass serves the first two tables, one the inverse and one
    # the last two. Cells are formatted in table order, so a cell too large to
    # print is named from the first table that holds one.
    indicator_values = [getattr(s, attr) for _, attr in indicators for s in stats]
    indicator_cells, cov_cells = _split(
        _pct_cells(np.concatenate([indicator_values, report.cov.matrix.ravel()]), 2),
        [len(indicator_values), len(cols) ** 2],
    )
    out = []
    if report.stats is not None:
        stat_cols = cols + ([report.market_stats.asset_id] if report.market_stats else [])
        out.append(_table(["Indicator"] + stat_cols, [indicator_names], indicator_cells, format))
    out.append(_table(["Covariance"] + cols, [labels], cov_cells, format))
    out.append(_table(["Inverse"] + cols, [labels], _pct_cells(report.cov.inverse, 0), format))
    constant_cells, portfolio_cells = _split(
        _pct_cells([fc.alpha, fc.b, fc.gamma, fc.delta] + values, 2), [4, len(values)]
    )
    if report.solution is None:
        portfolio_cells = _text_cells([f"non-viable: {report.viability.reason}"])
    out.append(_table(["Constant", "Value"], [constant_names], constant_cells, format))
    out.append(_table(["Portfolio", "Value"], [portfolio_names], portfolio_cells, format))
    return "\n\n".join(out) + "\n"


def render_summary(summary: Summary, format: str = "csv") -> str:
    """Portfolio row, weight matrix and return matrix across windows."""
    if format not in ("csv", "markdown"):
        raise ReportError(f"unknown format {format!r}")
    win = list(summary.windows)
    labels = list(summary.labels)
    n = len(labels)
    viable = summary.viable
    perf = [summary.returns, summary.betas, summary.variances, summary.risks, summary.sharpes]
    perf = np.array(perf)
    known = np.repeat(viable[None], 5, axis=0)
    known[1] = False  # the Beta row prints two places and no percent sign
    text = np.full(perf.shape, "non-viable", dtype=object)
    text[1] = [
        f"{b:.2f}" if ok else "non-viable"
        for b, ok in zip(summary.betas.tolist(), (viable & summary.has_stats).tolist())
    ]
    perf = _masked_pcts(perf, known, text)
    names = _text_cells(["Return", "Beta", "Variance", "Risk", "Sharpe"])
    weights = _masked_pcts(summary.weights, viable, "non-viable")
    blocks = ["Historical", "CAPM", "Markowitz"]
    returns = _masked_pcts(
        np.concatenate([summary.historical, summary.capm, summary.contributions]),
        np.concatenate(
            [np.broadcast_to(k, summary.capm.shape) for k in (summary.has_stats, True, viable)]
        ),
        np.repeat(["", "non-viable", "non-viable"], n)[:, None],
    )
    return "\n\n".join(
        [
            _table(["Indicator"] + win, [names], perf, format),
            _table(["Asset"] + win, [_text_cells(labels)], weights, format),
            _table(
                ["Block", "Asset"] + win,
                [_text_cells(np.repeat(blocks, n).tolist()), _text_cells(labels * 3)],
                returns,
                format,
            ),
        ]
    ) + "\n"


def _pairs(fmt: str, xy: np.ndarray, end: str) -> str:
    """``fmt % (x, y) + end`` for every row of an (n, 2) array, in one ``%`` call."""
    return (fmt + end) * len(xy) % tuple(xy.ravel().tolist())


def curve_csv(curve: FrontierCurve) -> tuple[str, str]:
    """Frontier and CML curve files: 10 significant digits, one pair per line."""
    return (
        "target_return,frontier_risk\n" + _pairs("%.10g,%.10g", curve.points, "\n"),
        "risk,cml_value\n" + _pairs("%.10g,%.10g", curve.cml_points, "\n"),
    )


# --- SVG figure ---

_SVG_W, _SVG_H = 720, 520
_MARGIN = 70


def _xml_escape(s: str) -> str:
    return s.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")


def render_svg(curve: FrontierCurve) -> str:
    """Standalone SVG: frontier polyline, CML polyline, labeled markers, percent axes."""
    if not len(curve.points):
        raise ReportError("empty curve")
    frontier_xy = curve.points[:, ::-1]  # (risk, return) rows
    markers = [(vol, capm) for _, vol, capm in curve.asset_markers] + [curve.gmv_marker]
    if curve.tangency_marker is not None:
        markers.append(curve.tangency_marker)
    xy = np.concatenate([frontier_xy, curve.cml_points, markers])
    x_lo, x_hi = 0.0, float(xy[:, 0].max()) * 1.05 or 1.0
    y_min, y_max = float(xy[:, 1].min()), float(xy[:, 1].max())
    pad = (y_max - y_min) * 0.08 or 0.01
    y_lo, y_hi = y_min - pad, y_max + pad

    def sx(x):
        return _MARGIN + (x - x_lo) / (x_hi - x_lo) * (_SVG_W - 2 * _MARGIN)

    def sy(y):
        return _SVG_H - _MARGIN - (y - y_lo) / (y_hi - y_lo) * (_SVG_H - 2 * _MARGIN)

    def poly(pairs, color):
        pts = _pairs("%.2f,%.2f", np.column_stack([sx(pairs[:, 0]), sy(pairs[:, 1])]), " ")[:-1]
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
    parts.append(poly(frontier_xy, "#1f77b4"))
    if len(curve.cml_points):
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
