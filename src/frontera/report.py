"""Window analysis orchestration and report rendering.

Two entry points build the same report structure:

- ``analyze_window``: raw aligned prices -> returns -> per-asset stats ->
  covariance, then ``replay_paper`` of those estimates.
- ``replay_paper``: a covariance matrix, expected returns and optional
  per-asset stats -> indicators -> certified inverse -> frontier constants
  -> viability -> GMV portfolio and tangency.

A window in which every expected return is negative is marked non-viable:
no weights or tangency are produced for it. ``emit_frontier_curve`` samples a
viable window's frontier and CML for the files that draw them.
"""

import re
from decimal import ROUND_HALF_UP, Decimal, localcontext
from itertools import chain
from typing import NamedTuple

import numpy as np

from . import frontier as fr
from . import stats as st
from .market_data import PricePanel, WindowSpec, simple_returns, slice_window

DEFAULT_CURVE_POINTS = 200
MAX_CURVE_POINTS = 1_000_000


class ReportError(ValueError):
    pass


class FrontierCurve(NamedTuple):
    """Sampled frontier and CML.

    ``points`` is an (n, 2) float array of (target return, frontier risk)
    rows and ``cml_points`` an (n, 2) array of (risk, CML value) rows; it
    is (0, 2) when the window has no tangency.
    """

    points: np.ndarray
    cml_points: np.ndarray


class WindowReport(NamedTuple):
    window: WindowSpec
    labels: tuple[str, ...]
    expected_returns: np.ndarray
    # (6, M) rows Return, Volatility, Beta, CAPM, Sharpe, Treynor over the N
    # assets, then the market column when market_id is set; None if unknown
    indicators: np.ndarray | None
    market_id: str | None
    cov: np.ndarray  # annualized covariance matrix A, (N, N)
    inverse: np.ndarray  # A^-1 from st.invert_matrix, which certifies A positive definite
    constants: fr.FrontierConstants
    viability: fr.Viability
    tangency: fr.TangencySolution | None
    solution: fr.PortfolioSolution | None


class ReplayInput(NamedTuple):
    labels: tuple[str, ...]
    cov_matrix: np.ndarray
    expected_returns: np.ndarray
    window: WindowSpec  # its rf_annual is the risk-free rate
    # (N, 3) ann_return, ann_vol and beta per label, published or estimated, for the indicators
    aux: np.ndarray | None = None
    market_aux: tuple[str, float, float] | None = None  # (id, ann_return, ann_vol)


def analyze_window(
    panel: PricePanel, window: WindowSpec, trading_days: int = st.TRADING_DAYS
) -> WindowReport:
    """Estimate one date window of an aligned price panel and replay the estimates."""
    sliced = slice_window(panel, window)
    r = simple_returns(sliced)
    ann_return = st.annualized_return(r, trading_days)
    ann_vol = st.annualized_volatility(r, trading_days)
    betas = st.beta(r[:-1], r[-1])
    capm = st.capm_expected_return(betas, window.rf_annual, ann_return[-1])
    cov = st.sample_covariance(r[:-1], trading_days)
    aux = np.column_stack([ann_return[:-1], ann_vol[:-1], betas])
    market_aux = (sliced.market_id, float(ann_return[-1]), float(ann_vol[-1]))
    return replay_paper(ReplayInput(sliced.labels, cov, capm, window, aux, market_aux))


def replay_paper(replay: ReplayInput) -> WindowReport:
    """Run the pipeline from a covariance matrix and CAPM vector: check the
    shapes, then the indicators, then the certificate of the inverse."""
    cov = np.asarray(replay.cov_matrix, dtype=float)
    er = np.asarray(replay.expected_returns, dtype=float)
    labels = tuple(replay.labels)
    n = len(labels)
    if cov.shape != (n, n):
        raise ReportError(f"covariance shape {cov.shape} does not match {n} labels")
    if er.shape != (n,):
        raise ReportError(f"expected-returns length does not match {n} labels")
    columns = np.empty((0, 4))  # (ann_return, ann_vol, beta, capm) rows
    if replay.aux is not None:
        aux = np.asarray(replay.aux, dtype=float)
        if aux.shape != (n, 3):
            raise ReportError(f"aux stats shape {aux.shape} does not match {n} labels")
        columns = np.column_stack([aux, er])
    rf = replay.window.rf_annual
    market_id = None
    if replay.market_aux is not None:
        market_id, m_ret, m_vol = replay.market_aux
        market = (m_ret, m_vol, 1.0, st.capm_expected_return(1.0, rf, m_ret))
        columns = np.vstack([columns, market])
    # Sharpe and Treynor run before the inversion, so a zero volatility is
    # named as such rather than as the singular covariance it gives
    ret, vol, betas, capm = columns.T
    sharpe, treynor = st.asset_sharpe(ret, rf, vol), st.asset_treynor(ret, rf, betas)
    indicators = np.array([ret, vol, betas, capm, sharpe, treynor])
    if replay.aux is None:  # the market is checked even when it is not shown
        indicators = market_id = None
    inverse = st.invert_matrix(cov)
    fc = fr.frontier_constants(inverse, er)
    viability = fr.viability_check(er)
    tang = gmv = None
    if viability.viable:
        gmv = fr.gmv_portfolio(fc, rf)
        try:
            tang = fr.tangency(fc, rf)
        except (fr.TangencyUndefinedError, fr.DegenerateFrontierError):
            pass
    return WindowReport(
        replay.window, labels, er, indicators, market_id, cov, inverse, fc, viability, tang, gmv
    )


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
            cml_points = np.column_stack([v, report.window.rf_annual + v * report.tangency.slope])
    points = np.column_stack([targets, risks])
    if not (np.isfinite(points).all() and np.isfinite(cml_points).all()):
        raise ReportError(f"return span [{lo}, {hi}] gives non-finite curve values")
    return FrontierCurve(points, cml_points)


# --- rendering ---
#
# A table row starts with its label cells, joined as one text "head"; only
# the body cells, the many numbers, are laid out as bytes. They are held in
# a uint8 block of shape (height, cells): column j holds cell j's bytes,
# bottom-aligned and filled above with _PAD, a byte that UTF-8 never
# contains, so dropping every _PAD byte of a laid-out table in one pass
# leaves each cell whole. The block runs cells along its long axis, so each
# numpy step covers every cell at once rather than the few bytes of one.

_PAD, _SPACE = np.uint8(0xFF), np.uint8(ord(" "))
_FILL = bytes([_PAD])
_MINUS, _POINT, _PERCENT, _ZERO = b"-.%0"
_POW10 = 10 ** np.arange(10, dtype=np.int32)[:, None]  # a printed m < 5e8 < 10**9
# a header or label holding one of these would break its table's rows
_BREAKS = {"csv": re.compile('[,"\r\n]'), "markdown": re.compile("[|\r\n]")}


def _pct_cells(values, places: int) -> np.ndarray:
    """The block of the percent cells of the numbers in ``values``, in row order.

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


def _masked_pcts(values: np.ndarray, text) -> np.ndarray:
    """``_pct_cells`` of ``values`` at 2 places; a NaN cell prints as its
    cell of ``text`` instead (broadcast to ``values``)."""
    unknown = np.isnan(values)
    block = _pct_cells(np.where(unknown, 0.0, values), 2)
    texts = np.broadcast_to(text, values.shape)[unknown].tolist()
    return _splice(block, unknown.ravel().nonzero()[0], texts)


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


def _text(layout: np.ndarray) -> str:
    """The text of laid-out bytes, in row-major order, without the _PAD fill."""
    return layout.tobytes().translate(None, _FILL).decode("utf-8", "surrogatepass")


def _table(header: list[str], labels: list[list[str]], body: np.ndarray, fmt: str) -> str:
    """A csv or markdown table: the header row, then each row's label cells
    and body cells. ``labels`` holds the leading text columns, each a list of
    strings, and ``body`` the block of the rest, cells in row order."""
    if fmt not in ("csv", "markdown"):
        raise ReportError(f"unknown format {fmt!r}")
    bad = next(filter(_BREAKS[fmt].search, [*header, *chain(*labels)]), None)
    if bad is not None:
        raise ReportError(f"{bad!r} holds a character that breaks a {fmt} table row")
    rows = list(zip(*labels))
    if fmt == "csv":
        lines, sep, end = [",".join(header)], b",", b"\n"
        heads = [",".join(row) + "," for row in rows]
        pads = body[:0]  # no spaces after a csv cell
    else:
        chars = (body != _PAD).sum(axis=0).reshape(len(rows), -1)  # body cells are ASCII
        widths = [max(map(len, [h, *col])) for h, col in zip(header, labels)]
        widths += np.maximum([len(h) for h in header[len(labels) :]], chars.max(axis=0)).tolist()
        lines = [
            "| " + " | ".join(h.ljust(w) for h, w in zip(header, widths)) + " |",
            "|" + "|".join("-" * (w + 2) for w in widths) + "|",
        ]
        sep, end = b" | ", b" |\n"
        heads = ["| " + " | ".join(map(str.ljust, row, widths)) + " | " for row in rows]
        need = (widths[len(labels) :] - chars).ravel()  # spaces after each body cell
        pads = np.where(np.arange(need.max())[:, None] < need, _SPACE, _PAD)
    seps = np.frombuffer(sep * body.shape[1], np.uint8).reshape(-1, len(sep)).T
    cells = np.concatenate([body, pads, seps]).T.reshape(len(rows), -1)
    layout = np.concatenate([_text_cells(heads).T, cells], axis=1)
    layout[:, -len(end) :] = np.frombuffer(end, np.uint8)
    return "\n".join(lines) + "\n" + _text(layout)[:-1]


def render_tables(report: WindowReport, format: str = "csv") -> str:
    """Deterministic indicator/covariance/portfolio tables for one window.

    Each table is formatted in turn, so a cell too large to print is named
    from the first table that holds one.
    """
    cols, fc, sol, tan = list(report.labels), report.constants, report.solution, report.tangency
    out = []
    if report.indicators is not None:
        ids = cols + ([] if report.market_id is None else [report.market_id])
        names = ["Return", "Volatility", "Beta", "CAPM", "Sharpe", "Treynor"]
        out.append(_table(["Indicator"] + ids, [names], _pct_cells(report.indicators, 2), format))
    out.append(_table(["Covariance"] + cols, [cols], _pct_cells(report.cov, 2), format))
    out.append(_table(["Inverse"] + cols, [cols], _pct_cells(report.inverse, 0), format))
    constants = _pct_cells([fc.alpha, fc.b, fc.gamma, fc.delta], 2)
    out.append(_table(["Constant", "Value"], [["alpha", "b", "gamma", "delta"]], constants, format))
    if sol is None:
        names, cells = ["viability"], _text_cells([f"non-viable: {report.viability.reason}"])
    else:
        names = cols + ["return", "variance", "risk", "sharpe"]
        values = sol.weights.tolist() + [sol.port_return, sol.variance, sol.risk, sol.sharpe]
        if tan is not None:
            names += ["tangency return", "tangency risk", "cml slope"]
            values += [tan.r_t, tan.sigma_rt, tan.slope]
        cells = _pct_cells(values, 2)
    out.append(_table(["Portfolio", "Value"], [names], cells, format))
    return "\n\n".join(out) + "\n"


def render_summary(reports: list[WindowReport], format: str = "csv") -> str:
    """Portfolio rows, weight matrix and return matrix, one column per window.

    Every cell is copied from its report except two products: the portfolio
    beta ``indicators[2, :N] @ weights``, known only when the report has
    per-asset stats, and the Markowitz returns ``weights * capm``. A cell
    that needs a portfolio the window does not have prints ``non-viable``,
    and a historical return without per-asset stats prints empty. Each
    table is formatted in turn, so a cell too large to print is named from
    the first table that holds one.
    """
    if not reports:
        raise ReportError("need at least one report to summarize")
    labels = reports[0].labels
    if any(r.labels != labels for r in reports[1:]):
        raise ReportError("reports have mismatched asset labels")
    n = len(labels)
    sols = [r.solution for r in reports]
    unknown = np.full(n, np.nan)  # NaN marks a value the window cannot know
    # one column per window: Return, Beta (printed from text), Variance, Risk, Sharpe
    perf = np.array(
        [[np.nan] * 5 if s is None else [s.port_return, np.nan, s.variance, s.risk, s.sharpe]
         for s in sols]
    ).T
    text = np.full(perf.shape, "non-viable", dtype=object)
    text[1] = [
        f"{r.indicators[2, :n] @ s.weights:.2f}" if s is not None and r.indicators is not None
        else "non-viable" for r, s in zip(reports, sols)
    ]
    weights = np.column_stack([unknown if s is None else s.weights for s in sols])
    capm = np.column_stack([r.expected_returns for r in reports])
    historical = np.column_stack(
        [unknown if r.indicators is None else r.indicators[0, :n] for r in reports]
    )
    win = [r.window.name for r in reports]
    names = ["Return", "Beta", "Variance", "Risk", "Sharpe"]
    blocks = np.repeat(["Historical", "CAPM", "Markowitz"], n).tolist()
    tables = [  # header, label columns, values, text of their NaN cells
        (["Indicator"] + win, [names], perf, text),
        (["Asset"] + win, [list(labels)], weights, "non-viable"),
        (["Block", "Asset"] + win, [blocks, list(labels) * 3],
         np.concatenate([historical, capm, weights * capm]),
         np.repeat(["", "non-viable", "non-viable"], n)[:, None]),
    ]
    return "\n\n".join(_table(h, c, _masked_pcts(v, t), format) for h, c, v, t in tables) + "\n"


def _pairs(fmt: str, rows: np.ndarray, end: str) -> str:
    """``fmt % tuple(row) + end`` for every row of a 2-D array, in one ``%`` call."""
    return (fmt + end) * len(rows) % tuple(rows.ravel().tolist())


def _fixed(xy: np.ndarray) -> str:
    """``%.Nf,%.Mf``, the decimals that give each column's largest |value| 10 significant digits.

    A value near zero, as on the CML at its zero crossing, then shows no BLAS-kernel noise.
    """
    exponents = [int(f"{m:.9e}".split("e")[1]) for m in np.abs(xy).max(axis=0, initial=0.0)]
    return ",".join(f"%.{max(0, 9 - e)}f" for e in exponents)


def curve_csv(curve: FrontierCurve) -> tuple[str, str]:
    """Frontier and CML curve files, one pair per line, each column in ``_fixed`` decimals."""
    return (
        "target_return,frontier_risk\n" + _pairs(_fixed(curve.points), curve.points, "\n"),
        "risk,cml_value\n" + _pairs(_fixed(curve.cml_points), curve.cml_points, "\n"),
    )


# --- SVG figure ---
#
# A data point p = (risk, return) is drawn at (p - lo) / span * _SCALE + _ORIGIN, where
# lo and span bound the figure's points: its plot area runs from x 70 to 650 and from
# y 450 up to 70 of the 720 x 520 image.

_ORIGIN, _SCALE = np.array([70, 450]), np.array([580, -380])
_SVG_HEAD = """\
<svg xmlns="http://www.w3.org/2000/svg" width="720" height="520" viewBox="0 0 720 520">
<rect width="720" height="520" fill="white"/>
<line x1="70" y1="450" x2="650" y2="450" stroke="black"/>
<line x1="70" y1="70" x2="70" y2="450" stroke="black"/>
"""
# one step of both axes: the risk tick's x and value, then the return tick's y and value
_TICKS = """\
<text x="%.2f" y="468" font-size="11" text-anchor="middle">%.1f%%</text>
<text x="62" y="%.2f" font-size="11" text-anchor="end">%.1f%%</text>"""
_TITLE = '<text x="360.0" y="502" font-size="13" text-anchor="middle">Risk (annualized)</text>'
_LINE = '<polyline fill="none" stroke="%s" stroke-width="1.5" points="%s"/>'


# a character outside XML 1.0's Char production, which no SVG document may hold, as a
# positive class: the negated class compiles about ten times slower, at every start-up
_NOT_XML = re.compile("[\x00-\x08\x0b\x0c\x0e-\x1f\ud800-\udfff\ufffe\uffff]")


def _xml_escape(s: str) -> str:
    if _NOT_XML.search(s):
        raise ReportError(f"{s!r} holds a character that an SVG document cannot hold")
    return s.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")


def render_svg(report: WindowReport, curve: FrontierCurve) -> str:
    """Standalone SVG: ``curve``'s frontier and CML polylines, labeled markers, percent axes.

    Every point drawn, the axis ticks too, is a row of one array that one affine map
    puts on the screen.
    """
    sol, tan = report.solution, report.tangency
    if sol is None:
        raise ReportError(f"window {report.window.name} is non-viable; no figure")
    if not len(curve.points):
        raise ReportError("empty curve")
    n = len(report.labels)
    markers = [(sol.risk, sol.port_return)] + ([] if tan is None else [(tan.sigma_rt, tan.r_t)])
    assets = np.column_stack([np.sqrt(np.diag(report.cov)), report.expected_returns])
    xy = np.concatenate([curve.points[:, ::-1], curve.cml_points, assets, markers])
    (x_max, y_max), y_min = xy.max(axis=0).tolist(), float(xy[:, 1].min())
    pad = (y_max - y_min) * 0.08 or 0.01
    lo = np.array([0.0, y_min - pad])
    span = np.array([x_max * 1.05 or 1.0, y_max + pad]) - lo
    ticks = lo + span * np.arange(5)[:, None] / 4
    screen = (np.concatenate([xy, ticks]) - lo) / span * _SCALE + _ORIGIN
    ends = np.cumsum([len(curve.points), len(curve.cml_points), n + len(markers)])
    frontier, cml, dots, at = np.split(screen, ends)
    steps = np.stack([at, ticks * 100], axis=2).reshape(5, 4)  # rows in _TICKS order
    parts = [_SVG_HEAD + _pairs(_TICKS, steps, "\n") + _TITLE]
    for points, color in [(frontier, "#1f77b4"), (cml, "#d62728")]:
        if len(points):
            parts.append(_LINE % (color, _pairs("%.2f,%.2f", points, " ")[:-1]))
    notes = dots + np.repeat([[6, -6], [6, 14]], [n, len(markers)], axis=0)
    names = [_xml_escape(s) for s in report.labels] + ["GMV", "Tangency"]
    styles = ['r="4" fill="#2ca02c"'] * n + ['r="5" fill="#1f77b4"', 'r="5" fill="#d62728"']
    for (x, y), (tx, ty), name, style in zip(dots.tolist(), notes.tolist(), names, styles):
        parts.append(f'<circle cx="{x:.2f}" cy="{y:.2f}" {style}/>')
        parts.append(f'<text x="{tx:.2f}" y="{ty:.2f}" font-size="11">{name}</text>')
    return "\n".join(parts) + "\n</svg>\n"
