import hashlib
import re
import xml.etree.ElementTree as ET
from datetime import date
from decimal import ROUND_HALF_UP, Decimal, localcontext

import numpy as np
import pytest

from frontera.market_data import WindowSpec
from frontera.report import (
    FrontierCurve,
    ReplayInput,
    ReportError,
    _NOT_XML,
    _pct_cells,
    _text,
    analyze_window,
    curve_csv,
    emit_frontier_curve,
    render_svg,
    render_summary,
    render_tables,
    replay_paper,
)
from frontera.stats import NotPositiveDefiniteError, StatsError

from conftest import (
    assert_reports_identical,
    load_fixture,
    panel_from_returns,
    random_pd_matrix,
)
from oracle import weights_for_target


def orthogonal_pair(n=240, scale=0.01):
    # equal variance, exactly zero in-sample covariance (n multiple of 4)
    r1 = np.tile([scale, -scale], n // 2)
    r2 = np.tile([scale, scale, -scale, -scale], n // 4)
    return r1, r2


def symmetric_panel():
    r1, r2 = orthogonal_pair()
    market = 0.5 * (r1 + r2) + 0.001
    return panel_from_returns({"A": r1, "B": r2}, market)


WINDOW = WindowSpec("test", date(2019, 1, 1), date(2021, 12, 31), 0.03)


def no_tangency_report():
    # at rf equal to the GMV return b / alpha the tangency is at infinity: no CML
    replay = load_fixture("2015_2023")
    fc = replay_paper(replay).constants
    window = replay.window._replace(rf_annual=fc.b / fc.alpha)
    return replay_paper(replay._replace(window=window))


# the fields of WindowReport that render_tables prints, one table each, in its order
TABLES = ["indicators", "cov", "inverse", "constants", "solution"]


def with_cell(report, table, value):
    """``report`` with one cell of ``table``, a field of TABLES, set to ``value``."""
    if table == "constants":
        return report._replace(constants=report.constants._replace(b=value))
    if table == "solution":
        return report._replace(solution=report.solution._replace(risk=value))
    matrix = getattr(report, table).copy()
    matrix[0, -1] = value
    return report._replace(**{table: matrix})


def with_summary_cell(report, table, value):
    """``report`` with one cell of the ``render_summary`` table ``table``,
    named by its header, set to ``value``."""
    if table == "Indicator":
        return report._replace(solution=report.solution._replace(risk=value))
    if table == "Asset":
        weights = report.solution.weights.copy()
        weights[0] = value
        return report._replace(solution=report.solution._replace(weights=weights))
    indicators = report.indicators.copy()
    indicators[0, 0] = value  # a historical return of the Block table
    return report._replace(indicators=indicators)


def escaped_labels_report():
    # two assets whose labels print escaped in the SVG
    cov, er = np.array([[0.04, 0.01], [0.01, 0.09]]), np.array([0.05, 0.08])
    window = WindowSpec("esc", date(2020, 1, 1), date(2020, 12, 31), 0.02)
    return replay_paper(ReplayInput(("A&B", "<C>"), cov, er, window))


class TestAnalyzeWindow:
    def test_symmetric_assets_split_evenly(self):
        report = analyze_window(symmetric_panel(), WINDOW)
        assert report.viability.viable
        assert np.allclose(report.solution.weights, [0.5, 0.5], atol=1e-9)
        assert report.cov[0, 0] == pytest.approx(report.cov[1, 1], rel=1e-9)
        assert abs(report.cov[0, 1]) < 1e-12

    def test_all_negative_capm_is_non_viable(self):
        rng = np.random.default_rng(21)
        market = -0.004 + rng.normal(0, 0.002, 300)
        assets = {
            "A": market + rng.normal(0, 0.0005, 300),
            "B": 0.8 * market + rng.normal(0, 0.0005, 300),
        }
        panel = panel_from_returns(assets, market)
        report = analyze_window(panel, WindowSpec("down", date(2019, 1, 1), date(2021, 12, 31), 0.05))
        assert np.all(report.expected_returns < 0)
        assert not report.viability.viable
        assert report.solution is None
        assert report.tangency is None
        with pytest.raises(ReportError, match="non-viable"):
            emit_frontier_curve(report)

    def test_gmv_matches_grid_oracle(self):
        from oracle import GridSpec, grid_min_variance

        rng = np.random.default_rng(33)
        n, obs = 4, 500
        chol = np.linalg.cholesky(random_pd_matrix(rng, n) / 252)
        rets = rng.normal(0, 1, (obs, n)) @ chol.T + 0.0005
        market = rets.mean(axis=1)
        panel = panel_from_returns({f"A{i}": rets[:, i] for i in range(n)}, market)
        report = analyze_window(panel, WindowSpec("rand", date(2019, 1, 1), date(2021, 12, 31), 0.01))
        assert report.solution is not None
        _, grid_var = grid_min_variance(report.cov, GridSpec(step=0.02))
        assert grid_var >= report.solution.variance - 1e-3

    def test_stats_include_market_row(self):
        report = analyze_window(symmetric_panel(), WINDOW)
        assert report.market_id == "MKT"
        assert report.indicators[2, -1] == 1.0
        assert report.indicators[3, -1] == pytest.approx(report.indicators[0, -1])

    def test_indicator_layout(self):
        # rows Return, Volatility, Beta, CAPM, Sharpe, Treynor; the N assets, then the market
        report = analyze_window(symmetric_panel(), WINDOW)
        ind, rf = report.indicators, WINDOW.rf_annual
        assert ind.shape == (6, 3) and ind.dtype == float
        assert ind[3, -1] == ind[0, -1] and ind[2, -1] == 1.0
        assert ind[3, :-1].tolist() == report.expected_returns.tolist()
        assert ind[4].tolist() == ((ind[0] - rf) / ind[1]).tolist()
        assert ind[5].tolist() == ((ind[0] - rf) / ind[2]).tolist()
        table = table_cells(render_tables(report).split("\n\n")[0], "csv")
        assert table[0] == ["Indicator", "A", "B", "MKT"]
        assert [c for row in table[1:] for c in row[1:]] == pct_cells(ind)


class TestReplayPaper:
    def test_walkthrough_2015_2023(self):
        report = replay_paper(load_fixture("2015_2023"))
        fc = report.constants
        assert fc.alpha == pytest.approx(15.62, abs=0.05)
        assert report.tangency.r_t == pytest.approx(0.0311, abs=0.001)
        assert report.solution.port_return == pytest.approx(0.038, abs=0.001)
        assert report.solution.risk == pytest.approx(0.253, abs=0.003)
        assert report.solution.sharpe == pytest.approx(-0.121, abs=0.005)

    def test_2020_non_viable(self):
        report = replay_paper(load_fixture("2020"))
        assert not report.viability.viable
        assert report.solution is None
        with pytest.raises(ReportError, match="non-viable"):
            emit_frontier_curve(report)

    def test_non_pd_matrix_rejected(self):
        with pytest.raises(NotPositiveDefiniteError):
            replay_paper(
                ReplayInput(
                    labels=("A", "B"),
                    cov_matrix=[[0.01, 0.02], [0.02, 0.01]],
                    expected_returns=[0.03, 0.04],
                    window=WINDOW,
                )
            )

    def test_no_labels_rejected(self):
        with pytest.raises(StatsError, match="^matrix is empty$"):
            replay_paper(ReplayInput((), np.empty((0, 0)), np.empty(0), WINDOW))

    @pytest.mark.parametrize(
        "aux, message",
        [
            ((0.05, 0.0, 1.0), "Sharpe undefined for zero volatility"),
            ((0.05, 0.2, 0.0), "Treynor undefined for zero beta"),
        ],
    )
    def test_aux_undefined_ratio(self, aux, message):
        with pytest.raises(StatsError, match=message):
            replay_paper(
                ReplayInput(
                    labels=("A", "B"),
                    cov_matrix=[[0.04, 0.01], [0.01, 0.09]],
                    expected_returns=[0.03, 0.04],
                    window=WINDOW,
                    aux=np.array([(0.04, 0.2, 0.8), aux]),
                )
            )

    @pytest.mark.parametrize("shape", [(3, 3), (2, 2), (2, 3, 1), (6,)])
    def test_aux_shape_mismatch(self, shape):
        with pytest.raises(ReportError, match="aux stats shape"):
            replay_paper(
                ReplayInput(
                    labels=("A", "B"),
                    cov_matrix=[[0.04, 0.01], [0.01, 0.09]],
                    expected_returns=[0.03, 0.04],
                    window=WINDOW,
                    aux=np.full(shape, 0.5),
                )
            )

    @pytest.mark.parametrize(
        "labels, expected_returns, message",
        [
            (("A", "B", "C"), [0.03, 0.04], r"covariance shape \(2, 2\) does not match 3 labels"),
            (("A", "B"), [0.03, 0.04, 0.05], "expected-returns length does not match 2 labels"),
        ],
        ids=["covariance", "expected-returns"],
    )
    def test_shape_mismatch(self, labels, expected_returns, message):
        with pytest.raises(ReportError, match=f"^{message}$"):
            replay_paper(
                ReplayInput(
                    labels=labels,
                    cov_matrix=[[0.01, 0.0], [0.0, 0.01]],
                    expected_returns=expected_returns,
                    window=WINDOW,
                )
            )

    def test_aux_stats_echo(self):
        report = replay_paper(load_fixture("2015_2023"))
        assert report.labels[0] == "PFBANCOLOMBIA"
        assert report.indicators[4, 0] == pytest.approx(-0.2050, abs=5e-4)
        assert report.indicators[5, 0] == pytest.approx(-0.1382, abs=5e-4)
        assert report.market_id == "ICOLCAP"
        assert report.indicators[5, -1] == pytest.approx(-0.0875, abs=1e-4)


class TestPipelineEquivalence:
    def test_replay_reproduces_analysis(self):
        panel = symmetric_panel()
        first = analyze_window(panel, WINDOW)
        replay = ReplayInput(
            labels=first.labels,
            cov_matrix=first.cov,
            expected_returns=first.expected_returns,
            window=WINDOW,
            aux=first.indicators[:3, :-1].T,
            market_aux=(first.market_id, *first.indicators[:2, -1].tolist()),
        )
        second = replay_paper(replay)
        assert_reports_identical(first, second)


def summary_tables(reports, fmt="csv"):
    """The cells of the three tables of ``render_summary(reports, fmt)``, and
    the Indicator table's rows by name."""
    tables = [table_cells(t, fmt) for t in render_summary(reports, fmt).split("\n\n")]
    return tables, {row[0]: row[1:] for row in tables[0][1:]}


def block_rows(table, block):
    """The (label, cells...) rows of one block of the return table."""
    return [row[1:] for row in table[1:] if row[0] == block]


class TestSummarize:
    def test_five_windows(self):
        names = ["2015_2023", "2015_2019", "2016_2020", "2020_2023", "2023"]
        reports = [replay_paper(load_fixture(n)) for n in names]
        (perf, weights, returns), rows = summary_tables(reports)
        assert perf[0] == ["Indicator", "2015-2023", "2015-2019", "2016-2020", "2020-2023", "2023"]
        assert float(rows["Return"][0].rstrip("%")) == pytest.approx(3.8, abs=0.1)
        # cells are copied from the reports, not recomputed
        sols = [r.solution for r in reports]
        for name in ("Return", "Variance", "Risk", "Sharpe"):
            field = {"Return": "port_return"}.get(name, name.lower())
            assert rows[name] == pct_reference([getattr(s, field) for s in sols])
        betas = [r.indicators[2, :4] @ r.solution.weights for r in reports]
        assert rows["Beta"] == [f"{b:.2f}" for b in betas]
        labels = list(reports[0].labels)
        w = np.column_stack([s.weights for s in sols])
        assert weights[1:] == [[lab] + row for lab, row in zip(labels, pct_reference(w))]
        capm = np.column_stack([r.expected_returns for r in reports])
        historical = np.column_stack([r.indicators[0, :4] for r in reports])
        for block, values in [("Historical", historical), ("CAPM", capm), ("Markowitz", w * capm)]:
            expected = [[lab] + row for lab, row in zip(labels, pct_reference(values))]
            assert block_rows(returns, block) == expected

    def test_singleton(self):
        (perf, weights, returns), rows = summary_tables([replay_paper(load_fixture("2023"))])
        assert perf[0] == ["Indicator", "2023"]
        assert {len(row) for table in (weights, returns) for row in table[1:]} == {2, 3}
        assert all(len(cells) == 1 for cells in rows.values())

    def test_non_viable_column(self):
        report = replay_paper(load_fixture("2020"))
        (_, weights, returns), rows = summary_tables([report])
        names = ["Return", "Beta", "Variance", "Risk", "Sharpe"]
        assert rows == {name: ["non-viable"] for name in names}
        assert [row[1:] for row in weights[1:]] == [["non-viable"]] * 4
        assert [row[1:] for row in block_rows(returns, "Markowitz")] == [["non-viable"]] * 4
        capm = [row[1:] for row in block_rows(returns, "CAPM")]
        assert capm == pct_reference(report.expected_returns[:, None])
        historical = [row[1:] for row in block_rows(returns, "Historical")]
        assert historical == pct_reference(report.indicators[0, :4, None])

    def test_empty(self):
        # the reports are checked before the format
        with pytest.raises(ReportError) as raised:
            render_summary([], "xml")
        assert str(raised.value) == "need at least one report to summarize"

    def test_mismatched_labels(self):
        first = replay_paper(load_fixture("2023"))
        other = first._replace(labels=("A", "B", "C", "D"))
        with pytest.raises(ReportError) as raised:
            render_summary([first, other], "xml")
        assert str(raised.value) == "reports have mismatched asset labels"

    def test_unknown_format(self):
        with pytest.raises(ReportError) as raised:
            render_summary([replay_paper(load_fixture("2023"))], "xml")
        assert str(raised.value) == "unknown format 'xml'"

    @staticmethod
    def mixed_reports():
        # window 1 has no per-asset stats, window 2 (2020) no portfolio, window 3 both
        no_stats = load_fixture("2015_2023")._replace(aux=None)
        return [replay_paper(r) for r in (no_stats, load_fixture("2020"), load_fixture("2023"))]

    def test_masks(self):
        # a column needs a portfolio for the portfolio rows and weights, per-asset
        # stats for the historical returns, and both for the beta
        (_, weights, returns), rows = summary_tables(self.mixed_reports())
        assert [c == "non-viable" for c in rows["Return"]] == [False, True, False]
        assert [c == "non-viable" for c in rows["Beta"]] == [True, True, False]
        assert {tuple(c == "non-viable" for c in row[1:]) for row in weights[1:]} == {
            (False, True, False)
        }
        assert {tuple(c == "" for c in row[1:]) for row in block_rows(returns, "Historical")} == {
            (True, False, False)
        }

    @pytest.mark.parametrize("fmt", ["csv", "markdown"])
    def test_missing_stats_and_non_viable_cells(self, fmt):
        reports = self.mixed_reports()
        (perf, weights, blocks), rows = summary_tables(reports, fmt)
        assert perf[0] == ["Indicator", "2015-2023", "2020", "2023"]
        beta_2023 = reports[2].indicators[2, :4] @ reports[2].solution.weights
        assert rows["Beta"] == ["non-viable", "non-viable", f"{beta_2023:.2f}"]
        for name in ("Return", "Variance", "Risk", "Sharpe"):
            assert rows[name][1] == "non-viable"
            assert rows[name][0].endswith("%") and rows[name][2].endswith("%")
        for row in weights[1:]:
            assert row[2] == "non-viable" and row[1].endswith("%") and row[3].endswith("%")
        by_block = {}
        for row in blocks[1:]:
            by_block.setdefault(row[0], []).append(row[2:])
        assert [cells[0] for cells in by_block["Historical"]] == [""] * 4
        assert all(c.endswith("%") for cells in by_block["Historical"] for c in cells[1:])
        assert all(c.endswith("%") for cells in by_block["CAPM"] for c in cells)
        for cells in by_block["Markowitz"]:
            assert cells[1] == "non-viable" and cells[0].endswith("%") and cells[2].endswith("%")


def table_cells(text: str, fmt: str) -> list[list[str]]:
    """Rows of cells of one rendered csv or markdown table (markdown rule line dropped)."""
    if fmt == "csv":
        return [line.split(",") for line in text.strip("\n").split("\n")]
    lines = [line for line in text.strip("\n").split("\n") if not line.startswith("|-")]
    return [[c.strip() for c in line.strip("|").split("|")] for line in lines]


class TestEmitFrontierCurve:
    def test_vertex_sampling(self):
        report = replay_paper(load_fixture("2015_2023"))
        fc = report.constants
        mu = fc.b / fc.alpha
        curve = emit_frontier_curve(report, 201, (mu - 0.02, mu + 0.02))
        assert curve.points.shape == (201, 2)
        assert curve.points[:, 0].tolist() == np.linspace(mu - 0.02, mu + 0.02, 201).tolist()
        min_risk = curve.points[:, 1].min()
        assert min_risk == pytest.approx(np.sqrt(1 / fc.alpha), abs=1e-4)

    def test_paper_markers(self):
        report = replay_paper(load_fixture("2015_2023"))
        assert report.solution.risk == pytest.approx(0.253, abs=0.003)
        assert report.solution.port_return == pytest.approx(0.038, abs=0.001)
        assert report.tangency.sigma_rt == pytest.approx(0.282, abs=0.005)
        assert report.tangency.r_t == pytest.approx(0.0311, abs=0.001)

    def test_two_points(self):
        report = replay_paper(load_fixture("2023"))
        curve = emit_frontier_curve(report, 2, (0.0, 0.1))
        assert curve.points.shape == curve.cml_points.shape == (2, 2)

    def test_no_tangency_curve(self):
        report = no_tangency_report()
        assert report.tangency is None
        curve = emit_frontier_curve(report)
        assert curve.points.shape == (200, 2)
        assert curve.cml_points.shape == (0, 2)
        assert curve_csv(curve)[1] == "risk,cml_value\n"
        root = ET.fromstring(render_svg(report, curve))
        assert len(root.findall("{http://www.w3.org/2000/svg}polyline")) == 1
        texts = [t.text for t in root.findall("{http://www.w3.org/2000/svg}text")]
        assert "GMV" in texts and "Tangency" not in texts

    def test_non_viable_rejected(self):
        report = replay_paper(load_fixture("2020"))
        with pytest.raises(ReportError, match="non-viable"):
            emit_frontier_curve(report, 10, (0.0, 0.1))

    def test_bad_args(self):
        report = replay_paper(load_fixture("2023"))
        with pytest.raises(ReportError):
            emit_frontier_curve(report, 1, (0.0, 0.1))
        with pytest.raises(ReportError):
            emit_frontier_curve(report, 10, (0.1, 0.1))

    def test_gmv_left_of_all_points(self):
        report = replay_paper(load_fixture("2015_2023"))
        curve = emit_frontier_curve(report)
        assert np.all(curve.points[:, 1] >= report.solution.risk - 1e-12)


class TestRendering:
    def test_tables_shape_csv(self):
        report = replay_paper(load_fixture("2015_2023"))
        text = render_tables(report, "csv")
        assert text.startswith("Indicator,PFBANCOLOMBIA,")
        assert "Covariance," in text and "Portfolio,Value" in text
        assert "49." not in text.split("Portfolio,Value")[0]  # weights only in portfolio block

    def test_tables_non_viable(self):
        report = replay_paper(load_fixture("2020"))
        text = render_tables(report, "csv")
        assert "non-viable" in text
        assert "tangency" not in text

    def test_deterministic(self):
        report = replay_paper(load_fixture("2016_2020"))
        assert render_tables(report, "csv") == render_tables(report, "csv")
        assert render_tables(report, "markdown") == render_tables(report, "markdown")

    def test_unknown_format(self):
        report = replay_paper(load_fixture("2023"))
        with pytest.raises(ReportError):
            render_tables(report, "yaml")

    @pytest.mark.parametrize("fmt", ["csv", "markdown"])
    @pytest.mark.parametrize("earlier, later", list(zip(TABLES, TABLES[1:])))
    def test_oversized_cell_named_from_the_first_table(self, earlier, later, fmt):
        # 1e307 and -1e307 are finite, but their percents are not
        report = replay_paper(load_fixture("2015_2023"))
        report = with_cell(with_cell(report, earlier, 1e307), later, -1e307)
        with pytest.raises(ReportError, match=r"^cell value 1e\+307 is too large"):
            render_tables(report, fmt)

    @pytest.mark.parametrize("fmt", ["csv", "markdown"])
    @pytest.mark.parametrize("earlier, later", [("Indicator", "Asset"), ("Asset", "Block")])
    def test_summary_oversized_cell_named_from_the_first_table(self, earlier, later, fmt):
        report = replay_paper(load_fixture("2015_2023"))
        report = with_summary_cell(with_summary_cell(report, earlier, 1e307), later, -1e307)
        with pytest.raises(ReportError, match=r"^cell value 1e\+307 is too large"):
            render_summary([report], fmt)

    def test_oversized_cell_named_before_an_unknown_format(self):
        # the first table's cells are formatted before the table is laid out
        report = replay_paper(load_fixture("2015_2023"))
        broken = [
            (render_tables, with_cell(report, "indicators", 1e307)),
            (lambda r, f: render_summary([r], f), with_summary_cell(report, "Indicator", 1e307)),
        ]
        for render, r in broken:
            with pytest.raises(ReportError, match=r"^cell value 1e\+307 is too large"):
                render(r, "xml")

    @pytest.mark.parametrize(
        "fmt, text",
        [("csv", "A,B"), ("csv", '"q"'), ("csv", "A\rB"), ("csv", "A\nB"),
         ("markdown", "A|B"), ("markdown", "A\rB"), ("markdown", "A\nB")],
    )
    def test_table_breaking_strings_refused(self, fmt, text):
        # a label, the market id and a window name, which heads a summary column
        report = replay_paper(load_fixture("2015_2023"))
        broken = [
            (render_tables, report._replace(labels=(text, *report.labels[1:]))),
            (render_tables, report._replace(market_id=text)),
            (lambda r, f: render_summary([r], f), report._replace(
                window=report.window._replace(name=text))),
        ]
        for render, r in broken:
            with pytest.raises(ReportError) as exc:
                render(r, fmt)
            assert str(exc.value) == f"{text!r} holds a character that breaks a {fmt} table row"

    def test_format_pct_half_up(self):
        assert pct_cells([0.12345, 0.12125, 0.005]) == ["12.35%", "12.13%", "0.50%"]

    def test_pct_cells_shapes(self):
        assert pct_cells(0.5) == ["50.00%"]
        assert pct_cells([0.5, -0.25], 0) == ["50%", "-25%"]
        assert pct_cells(np.array([[0.1], [0.2]])) == ["10.00%", "20.00%"]
        assert pct_cells([]) == []

    def test_curve_csv(self):
        report = replay_paper(load_fixture("2015_2023"))
        frontier_text, cml_text = curve_csv(emit_frontier_curve(report))
        assert frontier_text.splitlines()[0] == "target_return,frontier_risk"
        assert cml_text.splitlines()[0] == "risk,cml_value"
        assert len(frontier_text.splitlines()) == 201
        first = frontier_text.splitlines()[5].split(",")
        assert float(first[1]) > 0

    def test_curve_csv_fixed_decimals(self):
        # each column gets the decimals that give its largest |value| 10 significant
        # digits; a value near zero is printed to that resolution, not to 10 digits
        points = np.array([[-0.05, 0.2], [0.0, 0.15], [0.15, 1.2345678912345]])
        cml = np.array([[0.0, 0.0594], [2.39, -3.003349466123e-05], [9.9999999999, -12.5]])
        frontier_text, cml_text = curve_csv(FrontierCurve(points, cml))
        assert frontier_text.splitlines()[1:] == [
            "-0.0500000000,0.200000000", "0.0000000000,0.150000000", "0.1500000000,1.234567891",
        ]
        # 9.9999999999 rounds to 10.00000000 at 10 significant digits: 8 decimals
        assert cml_text.splitlines()[1:] == [
            "0.00000000,0.05940000", "2.39000000,-0.00003003", "10.00000000,-12.50000000",
        ]
        empty = FrontierCurve(points, np.empty((0, 2)))
        assert curve_csv(empty)[1] == "risk,cml_value\n"

    def test_svg_structure(self):
        report = replay_paper(load_fixture("2015_2023"))
        svg = render_svg(report, emit_frontier_curve(report))
        root = ET.fromstring(svg)
        ns = "{http://www.w3.org/2000/svg}"
        polylines = root.findall(f"{ns}polyline")
        assert len(polylines) == 2  # frontier + CML
        texts = [t.text for t in root.findall(f"{ns}text")]
        assert "GMV" in texts and "Tangency" in texts
        assert any(t == "PFBANCOLOMBIA" for t in texts)
        # one marker per asset, then GMV and tangency
        assert len(root.findall(f"{ns}circle")) == len(report.labels) + 2

    def test_svg_needs_a_curve(self):
        empty = FrontierCurve(np.empty((0, 2)), np.empty((0, 2)))
        with pytest.raises(ReportError, match="empty curve"):
            render_svg(replay_paper(load_fixture("2023")), empty)

    def test_svg_refuses_a_non_viable_report(self):
        curve = emit_frontier_curve(replay_paper(load_fixture("2023")))
        with pytest.raises(ReportError, match="^window 2020 is non-viable; no figure$"):
            render_svg(replay_paper(load_fixture("2020")), curve)

    # sha256 of figures that no golden file holds: a viable window without a
    # tangency, and labels that need XML escaping
    @pytest.mark.parametrize(
        "make, digest",
        [
            (no_tangency_report,
             "94a1f2dcfa637fd81b7ea888f5adf46374fff09678b3ebcc60acf60075b55b77"),
            (escaped_labels_report,
             "259e62e1c049bf2a8a9e3aeb89c12d6c4a0d12b19df22e657f7a57d06c43991d"),
        ],
    )
    def test_svg_bytes(self, make, digest):
        report = make()
        svg = render_svg(report, emit_frontier_curve(report))
        assert hashlib.sha256(svg.encode()).hexdigest() == digest

    def test_not_xml_is_the_complement_of_xml_chars(self):
        # XML 1.0's Char production, negated: every code point either class refuses
        char = re.compile("[^\t\n\r -\ud7ff\ue000-\ufffd\U00010000-\U0010ffff]")
        every = "".join(map(chr, range(0x110000)))
        refused = [m.start() for m in _NOT_XML.finditer(every)]
        assert refused == [m.start() for m in char.finditer(every)]
        assert len(refused) == 29 + 2048 + 2  # C0 controls but TAB/LF/CR, surrogates, FFFE/FFFF

    def test_svg_deterministic(self):
        report = replay_paper(load_fixture("2023"))
        curve = emit_frontier_curve(report)
        assert render_svg(report, curve) == render_svg(report, curve)


class TestWeightsAgainstPaperTables:
    @pytest.mark.parametrize(
        "name,target,expected",
        [
            ("2015_2023", 0.038, [0.498, 0.171, 0.313, 0.018]),
            ("2015_2019", 0.057, [0.308, 0.154, 0.433, 0.102]),
            ("2016_2020", 0.054, [0.16, 0.25, 0.53, 0.06]),
            ("2020_2023", 0.019, [0.48, 0.21, 0.28, 0.03]),
            ("2023", 0.060, [0.43, 0.27, 0.17, 0.13]),
        ],
    )
    def test_published_weight_tables(self, name, target, expected):
        report = replay_paper(load_fixture(name))
        sol = weights_for_target(report.constants, target)
        assert np.allclose(sol.weights, expected, atol=0.04)


def pct_cells(values, places: int = 2) -> list[str]:
    """The percent cells ``report._pct_cells`` prints for ``values``, in row order."""
    block = _pct_cells(values, places)
    lines = np.concatenate([block, np.full((1, block.shape[1]), ord("\n"), np.uint8)])
    return _text(lines.T).split("\n")[:-1]


def decimal_pct(x: float, places: int) -> str:
    """Half-up rounding of the shortest repr of x * 100, one Decimal per cell."""
    q = Decimal(1).scaleb(-places)
    return f"{Decimal(repr(float(x) * 100)).quantize(q, rounding=ROUND_HALF_UP)}%"


class TestBulkFormatterAgainstDecimal:
    @pytest.mark.parametrize("places", [0, 2])
    def test_random_magnitudes(self, places):
        rng = np.random.default_rng(40 + places)
        x = 10.0 ** rng.uniform(-8, 4, 20000) * rng.choice([-1.0, 1.0], 20000)
        assert pct_cells(x, places) == [decimal_pct(v, places) for v in x.tolist()]

    @pytest.mark.parametrize(
        "x, places",
        [(t / 100, 2) for t in (0.125, 0.145, -0.125, 0.005, 1.125)]
        + [(0.125, 0), (-0.125, 0), (0.005, 0), (-0.0, 0), (-0.0, 2), (1e-10, 2), (-1e-10, 2)],
    )
    def test_ties_and_signed_zero(self, x, places):
        # x * 100 is exactly 0.125 ... 1.125 in the first five, a tie at 2 places;
        # 0.145 has a binary value just below the tie, where f-string rounding goes down
        assert pct_cells([x], places) == pct_cells(x, places) == [decimal_pct(x, places)]

    def test_non_finite(self):
        assert pct_cells([float("nan")]) == [decimal_pct(float("nan"), 2)]

    def test_huge_and_infinite(self):
        # every digit of the shortest repr, past the default 28-digit Decimal precision
        assert pct_cells([1e30, -1.7e306], 0) == ["1" + "0" * 32 + "%", "-17" + "0" * 307 + "%"]
        for x in (1e307, float("inf"), -float("inf")):
            with pytest.raises(ReportError, match="too large to print as a percent"):
                pct_cells([0.5, x])


# --- the digit kernel against the per-cell renderer it replaced ---


def pct_reference(values, places: int = 2):
    """Percent cells printed one ``%`` conversion per cell, with the
    ``Decimal`` half-up path for cells near a .5 tie and non-finite cells."""
    shape = np.shape(values)
    x = np.asarray(values, dtype=float).ravel()
    with np.errstate(over="ignore", invalid="ignore"):
        y = x * 100
        scaled = y * 10.0**places
        clear = np.isfinite(scaled) & (
            np.abs(scaled - np.floor(scaled) - 0.5) > 1e-9 * np.abs(scaled)
        )
    cells = [f"%.{places}f%%" % v for v in y.tolist()]
    q = Decimal(1).scaleb(-places)
    with localcontext() as ctx:
        ctx.prec = 310 + places
        for i in np.flatnonzero(~clear).tolist():
            cells[i] = f"{Decimal(repr(float(y[i]))).quantize(q, rounding=ROUND_HALF_UP)}%"
    return np.array(cells, dtype=object).reshape(shape).tolist()


def table_reference(header, rows, fmt):
    if fmt == "csv":
        return "\n".join(",".join(cells) for cells in [header] + rows)
    widths = [max(len(r[i]) for r in [header] + rows) for i in range(len(header))]

    def line(cells):
        return "| " + " | ".join(c.ljust(w) for c, w in zip(cells, widths)) + " |"

    sep = "|" + "|".join("-" * (w + 2) for w in widths) + "|"
    return "\n".join([line(header), sep] + [line(r) for r in rows])


def render_tables_reference(report, fmt):
    """``render_tables`` assembled from per-cell strings, one row at a time."""
    out = []
    cols = list(report.labels)
    if report.indicators is not None:
        ids = cols + ([] if report.market_id is None else [report.market_id])
        names = ["Return", "Volatility", "Beta", "CAPM", "Sharpe", "Treynor"]
        cells = pct_reference(report.indicators)
        rows = [[name] + row for name, row in zip(names, cells)]
        out.append(table_reference(["Indicator"] + ids, rows, fmt))
    for name, matrix, places in [
        ("Covariance", report.cov, 2),
        ("Inverse", report.inverse, 0),
    ]:
        rows = [[lab] + row for lab, row in zip(cols, pct_reference(matrix, places))]
        out.append(table_reference([name] + cols, rows, fmt))
    fc = report.constants
    cells = pct_reference([fc.alpha, fc.b, fc.gamma, fc.delta])
    rows = [[name, cell] for name, cell in zip(["alpha", "b", "gamma", "delta"], cells)]
    out.append(table_reference(["Constant", "Value"], rows, fmt))
    if report.solution is None:
        rows = [["viability", f"non-viable: {report.viability.reason}"]]
    else:
        sol, tan = report.solution, report.tangency
        names = cols + ["return", "variance", "risk", "sharpe"]
        values = sol.weights.tolist() + [sol.port_return, sol.variance, sol.risk, sol.sharpe]
        if tan is not None:
            names += ["tangency return", "tangency risk", "cml slope"]
            values += [tan.r_t, tan.sigma_rt, tan.slope]
        rows = [[name, cell] for name, cell in zip(names, pct_reference(values))]
    out.append(table_reference(["Portfolio", "Value"], rows, fmt))
    return "\n\n".join(out) + "\n"


def render_summary_reference(reports, fmt):
    """``render_summary`` assembled from per-cell strings, one row at a time."""

    def pct_rows(rows, known, missing):
        cells = pct_reference(np.where(known, rows, 0.0))
        return [[c if ok else missing for c, ok in zip(row, known.tolist())] for row in cells]

    labels, n = list(reports[0].labels), len(reports[0].labels)
    win = [r.window.name for r in reports]
    sols = [r.solution for r in reports]
    viable = np.array([s is not None for s in sols])
    has_stats = np.array([r.indicators is not None for r in reports])
    beta = [
        f"{r.indicators[2, :n] @ s.weights:.2f}" if s is not None and r.indicators is not None
        else "non-viable"
        for r, s in zip(reports, sols)
    ]
    nan = [np.nan] * 4
    ret, var, risk, sharpe = pct_rows(
        np.array([nan if s is None else [s.port_return, s.variance, s.risk, s.sharpe]
                  for s in sols]).T,
        viable,
        "non-viable",
    )
    perf = [["Return"] + ret, ["Beta"] + beta, ["Variance"] + var, ["Risk"] + risk]
    perf.append(["Sharpe"] + sharpe)
    unknown = np.full(n, np.nan)
    w = np.column_stack([unknown if s is None else s.weights for s in sols])
    capm = np.column_stack([r.expected_returns for r in reports])
    historical = np.column_stack(
        [unknown if r.indicators is None else r.indicators[0, :n] for r in reports]
    )
    returns = []
    for block, matrix, known, missing in [
        ("Historical", historical, has_stats, ""),
        ("CAPM", capm, np.ones_like(viable), "non-viable"),
        ("Markowitz", w * capm, viable, "non-viable"),
    ]:
        rows = pct_rows(matrix, known, missing)
        returns += [[block, lab] + row for lab, row in zip(labels, rows)]
    weights = [[lab] + row for lab, row in zip(labels, pct_rows(w, viable, "non-viable"))]
    return "\n\n".join(
        [
            table_reference(["Indicator"] + win, perf, fmt),
            table_reference(["Asset"] + win, weights, fmt),
            table_reference(["Block", "Asset"] + win, returns, fmt),
        ]
    ) + "\n"


def seeded_replay(rng, labels, viable=True, stats=True, market=True):
    """A replay whose cells include exact .5 ties, values just beside a tie
    and tiny negatives that print as -0.00% and -0%. With ``stats`` but not
    ``market``, its Indicator table has no market column."""
    n = len(labels)
    cov = random_pd_matrix(rng, n) / 10
    special = rng.choice([0.00125, -0.00125, 0.001245, -3e-7, -0.004e-2, 0.0], size=(n, n))
    mask = np.triu(rng.random((n, n)) < 0.3, 1)
    cov[mask] = special[mask]
    cov.T[mask] = special[mask]
    cov += np.eye(n) * n * 0.01  # diagonally dominant, so positive definite
    er = rng.uniform(0.01, 0.09, n) * (1 if viable else -1)
    aux = np.column_stack(
        [rng.normal(0.05, 0.1, n), rng.uniform(0.1, 0.4, n), rng.normal(1, 0.3, n)]
    )
    aux[rng.random((n, 3)) < 0.2] = 0.00125  # ties: 0.125%
    aux[:, 0][rng.random(n) < 0.2] = -2e-6  # -0.00%
    return ReplayInput(
        labels=tuple(labels),
        cov_matrix=cov,
        expected_returns=er,
        window=WindowSpec(f"w{n}", date(2019, 1, 1), date(2021, 12, 31), 0.01),
        aux=aux if stats else None,
        market_aux=("ÍNDICE", -1e-7, 0.15) if stats and market else None,
    )


LABELS = ["ÉXITO", "A", "a-much-longer-label", "Z9"] + [f"S{i:03d}" for i in range(36)]


class TestDigitKernel:
    @pytest.mark.parametrize("fmt", ["csv", "markdown"])
    @pytest.mark.parametrize("n", [1, 2, 4, 40])
    def test_tables_match_per_cell_renderer(self, n, fmt):
        rng = np.random.default_rng(500 + n)
        cases = [(True, True, True), (False, True, True), (True, False, True), (True, True, False)]
        for viable, stats, market in cases:
            report = replay_paper(seeded_replay(rng, LABELS[:n], viable, stats, market))
            assert render_tables(report, fmt) == render_tables_reference(report, fmt)

    @pytest.mark.parametrize("fmt", ["csv", "markdown"])
    @pytest.mark.parametrize("n", [1, 4, 40])
    def test_summary_matches_per_cell_renderer(self, n, fmt):
        rng = np.random.default_rng(600 + n)
        reports = [
            replay_paper(seeded_replay(rng, LABELS[:n], viable, stats))
            for viable, stats in [(True, True), (False, True), (True, False), (True, True)]
        ]
        # a window name heads a body column: 13 characters in 14 UTF-8 bytes, wider than its cells
        reports[0] = reports[0]._replace(window=reports[0].window._replace(name="AÑO-2019-2021"))
        assert render_summary(reports, fmt) == render_summary_reference(reports, fmt)

    @pytest.mark.parametrize("places, expected", [(2, "-0.00%"), (0, "-0%")])
    def test_tiny_negatives_keep_their_sign(self, places, expected):
        x = [-1e-300, -1e-12, -4e-5, -0.0, -0.0049 / 10**places]
        assert pct_cells(x, places) == [expected] * len(x)
        assert pct_cells([1e-12, 0.0], places) == [expected[1:]] * 2

    @pytest.mark.parametrize("places", [0, 2])
    def test_ties_take_the_decimal_path(self, places):
        # cells exactly on a .5 tie: % rounds the binary value half to even,
        # the formatter rounds half up (away from zero)
        x = np.array([t / 100 for t in (0.125, 0.375, 2.125, 0.625, 12.5, 0.5, 2.5, 1000.5)])
        x = np.concatenate([x, -x])
        scaled = x * 100 * 10**places
        x = x[scaled - np.floor(scaled) == 0.5]
        assert len(x) >= 6
        cells = pct_cells(x, places)
        assert cells == [decimal_pct(v, places) for v in x.tolist()]
        assert cells != [f"%.{places}f%%" % (v * 100) for v in x.tolist()]

    @pytest.mark.parametrize("places", [0, 2])
    def test_cells_at_two_to_the_52(self, places):
        x = np.array([2**52 - 1, 2**52, -(2**52 - 1), -(2**52)], dtype=float) / 10**places / 100
        assert pct_cells(x, places) == [decimal_pct(v, places) for v in x.tolist()]
        # beside them, a cell of the digit kernel keeps its own width
        assert pct_cells(np.append(x, 0.01), places)[-1] == decimal_pct(0.01, places)

    @pytest.mark.parametrize("places", [0, 2])
    def test_nan_and_huge_cells_in_a_wide_table(self, places):
        rng = np.random.default_rng(70 + places)
        matrix = rng.normal(0, 0.05, (300, 300)) * 10.0 ** rng.integers(-3, 3, (300, 300))
        matrix[5, 7] = np.nan
        matrix[100, 200] = 1e30
        matrix[299, 0] = -1e30
        cells = np.reshape(pct_cells(matrix, places), matrix.shape).tolist()
        assert cells == pct_reference(matrix, places)
        assert cells[5][7] == "NaN%"
        assert cells[100][200] == "1" + "0" * 32 + "." * (places > 0) + "0" * places + "%"
        assert cells[299][0] == "-" + cells[100][200]

    def test_empty_and_one_cell(self):
        assert pct_cells(np.empty((0, 3))) == pct_cells(np.empty((3, 0))) == []
        assert pct_cells([[0.5]], 0) == ["50%"]
        assert pct_cells(np.array([[-0.00125]])) == ["-0.13%"]

    def test_markdown_pads_by_characters(self):
        # "ÉXITO" is 5 characters in 6 UTF-8 bytes; a byte count would shorten its padding
        report = replay_paper(seeded_replay(np.random.default_rng(9), LABELS[:4]))
        text = render_tables(report, "markdown")
        for table in text.strip("\n").split("\n\n"):
            lines = table.split("\n")
            assert len({len(line) for line in lines}) == 1
        row = next(line for line in text.split("\n") if line.startswith("| ÉXITO "))
        assert row.startswith("| ÉXITO               | ")  # padded to "a-much-longer-label"
