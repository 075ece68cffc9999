import json

import numpy as np
import pytest

from frontera import report as rp
from frontera.cli import InputError, OutputSet, load_config, load_replay_input, main

from conftest import FIXTURES


def write_prices(path, returns, start_price=100.0):
    # consecutive ISO dates starting 2019-01-01; prices compound the returns
    from datetime import date, timedelta

    lines = ["date,close"]
    price = start_price
    d = date(2019, 1, 1)
    lines.append(f"{d.isoformat()},{price:.6f}")
    for r in returns:
        d += timedelta(days=1)
        price *= 1.0 + r
        lines.append(f"{d.isoformat()},{price:.6f}")
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def make_config(tmp_path, n_days=400, seed=17, extra=None):
    rng = np.random.default_rng(seed)
    market = 0.0008 + rng.normal(0, 0.008, n_days)
    write_prices(tmp_path / "m.csv", market)
    for name, b in [("a", 1.1), ("b", 0.7), ("c", 0.9)]:
        write_prices(tmp_path / f"{name}.csv", b * market + rng.normal(0, 0.004, n_days))
    doc = {
        "units": "decimal",
        "assets": [
            {"id": "AAA", "csv_path": "a.csv"},
            {"id": "BBB", "csv_path": "b.csv"},
            {"id": "CCC", "csv_path": "c.csv"},
        ],
        "market": {"id": "MKT", "csv_path": "m.csv"},
        "windows": [
            {"name": "w1", "start": "2019-01-01", "end": "2019-12-31", "rf_annual": 0.03},
            {"name": "w2", "start": "2019-06-01", "end": "2020-06-01", "rf_annual": 0.04},
        ],
        "output_dir": "out",
    }
    if extra:
        doc.update(extra)
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps(doc), encoding="utf-8")
    return cfg


# written out by dump() as "[" * 100000 + "]" * 100000, deeper than json.loads recurses
DEEP = "<deeply nested list>"


def dump(doc) -> str:
    """``json.dumps(doc)`` with every DEEP string written out as the nested list."""
    return json.dumps(doc).replace(json.dumps(DEEP), "[" * 100_000 + "]" * 100_000)


def files_under(root):
    return sorted(p for p in root.rglob("*") if p.is_file())


def assert_one_error_line(capsys):
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1, err


# closes whose volatility is finite while its square, the covariance entry, is not
COVARIANCE_CLOSES = ["1.0", "1e154"] + [repr(1e154 * 4e-16**k) for k in range(1, 11)]


class TestAnalyze:
    def test_happy_path(self, tmp_path):
        cfg = make_config(tmp_path)
        assert main(["analyze", "--config", str(cfg)]) == 0
        out = tmp_path / "out"
        for w in ("w1", "w2"):
            assert (out / w / "tables.csv").is_file()
            assert (out / w / "frontier_curve.csv").is_file()
            assert (out / w / "cml_curve.csv").is_file()
            assert (out / w / "frontier.svg").is_file()
        assert (out / "summary.csv").is_file()

    def test_single_window_markdown(self, tmp_path):
        cfg = make_config(tmp_path)
        assert main(["analyze", "--config", str(cfg), "--window", "w1", "--format", "markdown"]) == 0
        assert (tmp_path / "out" / "w1" / "tables.md").is_file()
        assert not (tmp_path / "out" / "w2").exists()

    def test_unknown_window_exit_1(self, tmp_path, capsys):
        cfg = make_config(tmp_path)
        assert main(["analyze", "--config", str(cfg), "--window", "nope"]) == 1
        assert "no window named" in capsys.readouterr().err

    def test_missing_config_exit_1(self, tmp_path, capsys):
        absent = tmp_path / "absent.json"
        assert main(["analyze", "--config", str(absent)]) == 1
        assert capsys.readouterr().err == f"error: {absent}: file not found\n"

    def test_missing_units_exit_1(self, tmp_path, capsys):
        cfg = make_config(tmp_path)
        doc = json.loads(cfg.read_text())
        del doc["units"]
        cfg.write_text(json.dumps(doc))
        assert main(["analyze", "--config", str(cfg)]) == 1
        assert "units" in capsys.readouterr().err

    def test_percent_units_rejected(self, tmp_path):
        cfg = make_config(tmp_path, extra={"units": "percent"})
        assert main(["analyze", "--config", str(cfg)]) == 1

    def test_missing_price_file_exit_1(self, tmp_path):
        cfg = make_config(tmp_path)
        (tmp_path / "b.csv").unlink()
        assert main(["analyze", "--config", str(cfg)]) == 1

    def test_duplicate_asset_exit_2(self, tmp_path, capsys):
        # two identical series make the covariance singular: numeric failure
        cfg = make_config(tmp_path)
        doc = json.loads(cfg.read_text())
        doc["assets"][1] = {"id": "BBB", "csv_path": "a.csv"}
        cfg.write_text(json.dumps(doc))
        assert main(["analyze", "--config", str(cfg)]) == 2
        assert "numeric error" in capsys.readouterr().err

    def test_no_partial_writes_on_failure(self, tmp_path):
        cfg = make_config(tmp_path)
        doc = json.loads(cfg.read_text())
        doc["assets"][1] = {"id": "BBB", "csv_path": "a.csv"}
        cfg.write_text(json.dumps(doc))
        assert main(["analyze", "--config", str(cfg)]) == 2
        assert not (tmp_path / "out").exists() or not any((tmp_path / "out").rglob("*"))

    @pytest.mark.parametrize(
        "window_field, config_field",
        [
            ({"name": "../escape"}, {}),
            ({"name": 5}, {}),
            ({"name": "w\ud800"}, {}),
            ({"rf_annual": "x"}, {}),
            # forms that date.fromisoformat accepts from Python 3.11 on
            ({"start": "20190101"}, {}),
            ({"end": "2019-W52-2"}, {}),
            ({}, {"trading_days": "abc"}),
            ({}, {"trading_days": 1e300}),
            ({}, {"trading_days": 2.7}),
            ({}, {"trading_days": True}),
            ({}, {"trading_days": 0}),
            ({}, {"trading_days": 367}),
        ],
        ids=[
            "name-escapes", "name-not-str", "name-surrogate", "rf-not-number",
            "start-compact", "end-week-date", "trading-days-not-int", "trading-days-huge", "trading-days-fraction",
            "trading-days-bool", "trading-days-zero", "trading-days-367",
        ],
    )
    def test_bad_field_exit_1(self, tmp_path, capsys, window_field, config_field):
        cfg = make_config(tmp_path)
        doc = json.loads(cfg.read_text())
        doc["windows"][0].update(window_field)
        doc.update(config_field)
        cfg.write_text(json.dumps(doc))
        before = files_under(tmp_path)
        assert main(["analyze", "--config", str(cfg)]) == 1
        assert_one_error_line(capsys)
        assert files_under(tmp_path) == before

    @pytest.mark.parametrize(
        "edit, field",
        [
            (lambda doc: doc.update(windows=5), "windows"),
            (lambda doc: doc.update(market=5), "market"),
            (lambda doc: doc.update(assets=5), "assets"),
            (lambda doc: doc.update(output_dir=5), "output_dir"),
            (lambda doc: doc["assets"][1].update(id=5), "id"),
            (lambda doc: doc["assets"][1].update(csv_path=5), "csv_path"),
            (lambda doc: doc["windows"].__setitem__(0, 5), "windows[0]"),
            (lambda doc: doc["assets"][1].update(id="AAA"), "unique"),
            (lambda doc: doc["market"].update(id="CCC"), "unique"),
            # JSON text that UTF-8 cannot encode: a lone surrogate
            (lambda doc: doc["assets"][1].update(id="B\ud800"), "id"),
            (lambda doc: doc["market"].update(id="\udcffM"), "id"),
            (lambda doc: doc["assets"][1].update(csv_path="b\ud800.csv"), "csv_path"),
            (lambda doc: doc.update(output_dir="o\udfff"), "output_dir"),
            (lambda doc: doc.update(windows=DEEP), "invalid JSON: nested too deeply"),
        ],
        ids=[
            "windows-not-list", "market-not-object", "assets-not-list", "output-dir-not-str",
            "asset-id-not-str", "csv-path-not-str", "window-not-object", "asset-id-duplicate",
            "market-id-is-asset-id", "asset-id-surrogate", "market-id-surrogate",
            "csv-path-surrogate", "output-dir-surrogate", "nested-too-deeply",
        ],
    )
    def test_bad_structure_exit_1(self, tmp_path, capsys, edit, field):
        cfg = make_config(tmp_path)
        doc = json.loads(cfg.read_text())
        edit(doc)
        cfg.write_text(dump(doc))
        before = files_under(tmp_path)
        assert main(["analyze", "--config", str(cfg)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1 and field in err, err
        assert files_under(tmp_path) == before

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize(
        "line, day, message",
        [
            # the close after a subnormal one gives an infinite simple return
            (60, "2019-03-01", "return on 2019-03-02 overflows the floating-point range "
                               "(previous close too small)"),
            # a subnormal close on w2's last date, with none after it, gives a return of -1
            (401, "2020-02-05", "return on 2020-02-05 rounds to -100% (close too small)"),
        ],
        ids=["overflow", "last-close"],
    )
    def test_overflowing_return_exit_1(self, tmp_path, capsys, line, day, message):
        cfg = make_config(tmp_path)
        lines = (tmp_path / "b.csv").read_text().splitlines()
        assert lines[line].startswith(day + ",")
        lines[line] = f"{day},1e-310"
        (tmp_path / "b.csv").write_text("\n".join(lines) + "\n")
        before = files_under(tmp_path)
        assert main(["analyze", "--config", str(cfg)]) == 1
        assert capsys.readouterr().err == f"error: BBB: {message}\n"
        assert files_under(tmp_path) == before

    @pytest.mark.parametrize(
        "closes, statistic",
        [
            (["1e-300", "1.0", "1e300", "1e300"], "annualized return"),  # the growth overflows
            # the growth is finite, its annual power is not
            (["1.0", "1e100", "1e100", "1e100"], "annualized return"),
            (COVARIANCE_CLOSES, "annualized covariance"),
        ],
        ids=["growth", "power", "covariance"],
    )
    def test_overflowing_statistic_exit_2(self, tmp_path, capsys, closes, statistic):
        # every daily return of A is finite, but a statistic over the window is not
        b = [f"{100 + k % 3}" for k in range(len(closes))]
        self.assert_overflow_named(tmp_path, capsys, closes, b, statistic)

    def test_covariance_overflow_named_before_zero_volatility(self, tmp_path, capsys):
        # B's constant closes give a zero volatility, which Sharpe refuses, but
        # the covariance is estimated first
        b = ["100"] * len(COVARIANCE_CLOSES)
        self.assert_overflow_named(tmp_path, capsys, COVARIANCE_CLOSES, b, "annualized covariance")

    @staticmethod
    def assert_overflow_named(tmp_path, capsys, a, b, statistic):
        columns = {"a": a, "b": b, "m": [f"{50 + k % 4 / 2}" for k in range(len(a))]}
        for name, column in columns.items():
            rows = "".join(f"2020-01-{2 + k:02d},{c}\n" for k, c in enumerate(column))
            (tmp_path / f"{name}.csv").write_text("date,close\n" + rows)
        window = {"name": "jan", "start": "2020-01-01", "end": "2020-01-31", "rf_annual": 0.02}
        doc = {
            "units": "decimal",
            "assets": [{"id": "A", "csv_path": "a.csv"}, {"id": "B", "csv_path": "b.csv"}],
            "market": {"id": "M", "csv_path": "m.csv"},
            "windows": [window],
        }
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps(doc))
        before = files_under(tmp_path)
        assert main(["analyze", "--config", str(cfg)]) == 2
        assert capsys.readouterr().err == (
            f"numeric error: {statistic} is not finite: it overflows the floating-point range\n"
        )
        assert files_under(tmp_path) == before

    def test_non_utf8_price_file_exit_1(self, tmp_path, capsys):
        cfg = make_config(tmp_path)
        csv = tmp_path / "b.csv"
        lines = csv.read_bytes().split(b"\n")
        lines[2] += b"\xff"
        csv.write_bytes(b"\n".join(lines))
        assert main(["analyze", "--config", str(cfg)]) == 1
        err = capsys.readouterr().err
        assert err == "error: BBB: not UTF-8 text at line 3: invalid start byte\n", err

    def test_output_dir_env_override(self, tmp_path, monkeypatch):
        cfg = make_config(tmp_path)
        env_dir = tmp_path / "env_out"
        monkeypatch.setenv("FRONTERA_OUTPUT_DIR", str(env_dir))
        assert main(["analyze", "--config", str(cfg), "--window", "w1"]) == 0
        assert (env_dir / "w1" / "tables.csv").is_file()
        assert not (tmp_path / "out").exists()

    def test_flag_beats_env(self, tmp_path, monkeypatch):
        cfg = make_config(tmp_path)
        monkeypatch.setenv("FRONTERA_OUTPUT_DIR", str(tmp_path / "env_out"))
        flag_dir = tmp_path / "flag_out"
        assert main(["analyze", "--config", str(cfg), "--window", "w1", "--output-dir", str(flag_dir)]) == 0
        assert (flag_dir / "w1" / "tables.csv").is_file()
        assert not (tmp_path / "env_out").exists()


class TestReplay:
    def test_happy_path(self, tmp_path):
        src = FIXTURES / "replay_2015_2023.json"
        assert main(["replay", "--input", str(src), "--output-dir", str(tmp_path)]) == 0
        assert (tmp_path / "2015-2023" / "tables.csv").is_file()
        assert (tmp_path / "2015-2023" / "frontier.svg").is_file()

    def test_non_viable_window_still_succeeds(self, tmp_path):
        src = FIXTURES / "replay_2020.json"
        assert main(["replay", "--input", str(src), "--output-dir", str(tmp_path)]) == 0
        text = (tmp_path / "2020" / "tables.csv").read_text()
        assert "non-viable" in text
        assert not (tmp_path / "2020" / "frontier_curve.csv").exists()

    def test_degenerate_frontier_writes_only_tables(self, tmp_path):
        # a viable window whose expected returns are all equal has a GMV
        # portfolio but no frontier to draw: no curve files and no figure
        doc = json.loads((FIXTURES / "replay_2023.json").read_text())
        doc["expected_returns"] = [0.05] * len(doc["labels"])
        src = tmp_path / "flat.json"
        src.write_text(json.dumps(doc))
        assert main(["replay", "--input", str(src), "--output-dir", str(tmp_path / "o")]) == 0
        assert files_under(tmp_path / "o") == [tmp_path / "o" / doc["name"] / "tables.csv"]

    @pytest.mark.filterwarnings("error")
    def test_tangency_out_of_float_range_is_left_out(self, tmp_path, capsys):
        # rf two ulps from b/alpha: the tangency lies past the float range,
        # so it is left out as at b = alpha rf, with no warning on stderr
        src = tmp_path / "far.json"
        src.write_text(json.dumps({
            "units": "decimal", "labels": ["A", "B"], "rf": 1.5000000000000004e150,
            "expected_returns": [1e150, 2e150], "cov_matrix": [[0.04, 0], [0, 0.04]],
        }))
        assert main(["replay", "--input", str(src), "--output-dir", str(tmp_path / "o")]) == 0
        assert capsys.readouterr().err == ""
        assert "tangency return" not in (tmp_path / "o" / "replay" / "tables.csv").read_text()
        assert (tmp_path / "o" / "replay" / "cml_curve.csv").read_text() == "risk,cml_value\n"

    @pytest.mark.parametrize("fmt, ok", [("csv", True), ("markdown", False)])
    def test_table_breaking_label_per_format(self, tmp_path, capsys, fmt, ok):
        # "|" splits a markdown row but is plain text in a csv cell
        doc = json.loads((FIXTURES / "replay_2015_2019.json").read_text())
        doc["labels"][0] = "A|B"
        src = tmp_path / "bar.json"
        src.write_text(json.dumps(doc))
        out = tmp_path / "o"
        code = main(["replay", "--input", str(src), "--output-dir", str(out), "--format", fmt])
        err = capsys.readouterr().err
        if ok:
            assert (code, err) == (0, "")
            assert "Covariance,A|B," in (out / doc["name"] / "tables.csv").read_text()
        else:
            line = "error: 'A|B' holds a character that breaks a markdown table row\n"
            assert (code, err) == (1, line)
            assert not out.exists()

    def test_byte_identical_runs(self, tmp_path):
        src = FIXTURES / "replay_2016_2020.json"
        d1, d2 = tmp_path / "r1", tmp_path / "r2"
        assert main(["replay", "--input", str(src), "--output-dir", str(d1)]) == 0
        assert main(["replay", "--input", str(src), "--output-dir", str(d2)]) == 0
        files1 = sorted(p.relative_to(d1) for p in d1.rglob("*") if p.is_file())
        files2 = sorted(p.relative_to(d2) for p in d2.rglob("*") if p.is_file())
        assert files1 == files2 and files1
        for rel in files1:
            assert (d1 / rel).read_bytes() == (d2 / rel).read_bytes()

    def test_non_pd_input_exit_2(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(
            json.dumps(
                {
                    "units": "decimal",
                    "labels": ["A", "B"],
                    "cov_matrix": [[0.01, 0.02], [0.02, 0.01]],
                    "expected_returns": [0.03, 0.04],
                    "rf": 0.02,
                }
            )
        )
        assert main(["replay", "--input", str(bad), "--output-dir", str(tmp_path / "o")]) == 2
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize(
        "field",
        [
            {"name": "../../x"},
            {"rf": "x"},
            {"labels": 5},
            {"labels": ["A", "A"]},
            {"labels": ["\ud800X", "B"]},
            {"name": "\ud800X"},
        ],
        ids=[
            "name-escapes", "rf-not-number", "labels-not-list", "labels-duplicate",
            "labels-surrogate", "name-surrogate",
        ],
    )
    def test_bad_field_exit_1(self, tmp_path, capsys, field):
        doc = {
            "units": "decimal",
            "labels": ["A", "B"],
            "cov_matrix": [[0.04, 0.01], [0.01, 0.09]],
            "expected_returns": [0.03, 0.04],
            "rf": 0.02,
        }
        doc.update(field)
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        out = tmp_path / "a" / "b" / "o"  # "../../x" from here stays inside tmp_path
        assert main(["replay", "--input", str(bad), "--output-dir", str(out)]) == 1
        assert_one_error_line(capsys)
        assert files_under(tmp_path) == [bad]

    @pytest.mark.parametrize(
        "edit, field",
        [
            (lambda doc: doc["expected_returns"].__setitem__(1, "x"), "expected_returns"),
            (lambda doc: doc["expected_returns"].__setitem__(1, float("nan")), "expected_returns"),
            (lambda doc: doc["cov_matrix"][2].pop(), "cov_matrix"),
            (lambda doc: doc["cov_matrix"][1].__setitem__(1, float("nan")), "cov_matrix"),
            (lambda doc: doc["cov_matrix"][0].__setitem__(3, float("inf")), "cov_matrix"),
            (lambda doc: doc.update(asset_stats=5), "asset_stats"),
            (lambda doc: doc["asset_stats"].__setitem__(0, 5), "asset_stats[0]"),
            (lambda doc: doc["asset_stats"][2].update(beta=float("nan")), "beta"),
            (lambda doc: doc.update(market=5), "market"),
            (lambda doc: doc["market"].update(id=5), "id"),
            (lambda doc: doc["market"].update(id="ISA"), "market id"),
            (lambda doc: doc["market"].update(id="\udcffX"), "id"),
            (lambda doc: doc.update(cov_matrix=DEEP), "invalid JSON: nested too deeply"),
        ],
        ids=[
            "er-string", "er-nan", "cov-ragged", "cov-nan", "cov-inf", "asset-stats-not-list",
            "asset-stat-not-object", "asset-stat-nan", "market-not-object", "market-id-not-str",
            "market-id-is-label", "market-id-surrogate", "nested-too-deeply",
        ],
    )
    def test_bad_fixture_exit_1(self, tmp_path, capsys, edit, field):
        doc = json.loads((FIXTURES / "replay_2015_2023.json").read_text())
        edit(doc)
        bad = tmp_path / "bad.json"
        bad.write_text(dump(doc))
        assert main(["replay", "--input", str(bad), "--output-dir", str(tmp_path / "o")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1 and field in err, err
        assert files_under(tmp_path) == [bad]

    @pytest.mark.filterwarnings("error")
    def test_overflowing_inverse_exit_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(
            json.dumps(
                {
                    "units": "decimal",
                    "labels": ["A", "B"],
                    "cov_matrix": [[1e-310, 0.0], [0.0, 1e-310]],
                    "expected_returns": [0.03, 0.04],
                    "rf": 0.02,
                }
            )
        )
        assert main(["replay", "--input", str(bad), "--output-dir", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("numeric error: ") and err.count("\n") == 1, err
        assert not (tmp_path / "o").exists()

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize(
        "edit, ratio",
        [
            (lambda doc: doc["asset_stats"][1].update(ann_vol=1e-320), "Sharpe"),
            (lambda doc: doc["asset_stats"][1].update(beta=1e-320), "Treynor"),
            (lambda doc: doc["market"].update(ann_vol=1e-320), "Sharpe"),
        ],
        ids=["asset-ann-vol", "asset-beta", "market-ann-vol"],
    )
    def test_overflowing_ratio_exit_2(self, tmp_path, capsys, edit, ratio):
        # a subnormal denominator overflows Sharpe or Treynor, without a warning
        doc = json.loads((FIXTURES / "replay_2015_2023.json").read_text())
        edit(doc)
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        assert main(["replay", "--input", str(bad), "--output-dir", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"numeric error: {ratio} ratio is not finite"), err
        assert err.count("\n") == 1
        assert files_under(tmp_path) == [bad]

    def test_market_without_asset_stats_is_not_shown(self, tmp_path, capsys):
        # the market column is printed only beside the assets' indicators
        doc = json.loads((FIXTURES / "replay_2023.json").read_text())
        del doc["asset_stats"]
        src = tmp_path / "m.json"
        src.write_text(json.dumps(doc))
        out = tmp_path / "o"
        assert main(["replay", "--input", str(src), "--output-dir", str(out)]) == 0
        assert capsys.readouterr().err == ""
        tables = (out / "2023" / "tables.csv").read_text()
        assert tables.startswith("Covariance,") and "ICOLCAP" not in tables

    @pytest.mark.filterwarnings("error")
    def test_market_without_asset_stats_is_checked(self, tmp_path, capsys):
        doc = json.loads((FIXTURES / "replay_2023.json").read_text())
        del doc["asset_stats"]
        doc["market"]["ann_vol"] = 0
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        assert main(["replay", "--input", str(bad), "--output-dir", str(tmp_path / "o")]) == 2
        assert capsys.readouterr().err == "numeric error: Sharpe undefined for zero volatility\n"
        assert files_under(tmp_path) == [bad]

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize(
        "edit",
        [
            # gamma = E(R)' A^-1 E(R) overflows
            lambda doc: doc["expected_returns"].__setitem__(2, 1e160),
            # alpha * gamma and b * b overflow, so delta is inf - inf
            lambda doc: doc.update(cov_matrix=(1e-300 * np.eye(4)).tolist()),
        ],
        ids=["huge-returns", "tiny-covariance"],
    )
    def test_overflowing_constants_exit_2(self, tmp_path, capsys, edit):
        doc = json.loads((FIXTURES / "replay_2023.json").read_text())
        edit(doc)
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        assert main(["replay", "--input", str(bad), "--output-dir", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert err == "numeric error: frontier constants overflow the floating-point range\n"
        assert files_under(tmp_path) == [bad]

    @pytest.mark.parametrize("variance, code", [(1e30, 0), (1e307, 1)])
    def test_huge_variances(self, tmp_path, capsys, variance, code):
        # 1e30 prints every digit of its percent; 1e307 overflows to inf when scaled
        doc = json.loads((FIXTURES / "replay_2015_2023.json").read_text())
        n = len(doc["labels"])
        doc["cov_matrix"] = (variance * np.eye(n)).tolist()
        bad = tmp_path / "big.json"
        bad.write_text(json.dumps(doc))
        out = tmp_path / "o"
        assert main(["replay", "--input", str(bad), "--output-dir", str(out)]) == code
        err = capsys.readouterr().err
        if code == 0:
            assert err == ""
            cells = (out / doc["name"] / "tables.csv").read_text()
            assert "100000000000000000000000000000000.00%" in cells
        else:
            assert err == "error: cell value 1e+307 is too large to print as a percent\n", err
            assert not out.exists()

    def test_non_utf8_json_exit_1(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_bytes(b'{"units": "decimal", "name": "\xff"}')
        assert main(["replay", "--input", str(bad), "--output-dir", str(tmp_path / "o")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "not UTF-8 text" in err and err.count("\n") == 1
        assert files_under(tmp_path) == [bad]

    def test_invalid_json_exit_1(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert main(["replay", "--input", str(bad)]) == 1

    def test_missing_input_exit_1(self, tmp_path, capsys):
        absent = tmp_path / "absent.json"
        assert main(["replay", "--input", str(absent), "--output-dir", str(tmp_path / "o")]) == 1
        assert capsys.readouterr().err == f"error: {absent}: file not found\n"
        assert files_under(tmp_path) == []

    def test_shape_mismatch_exit_1(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(
            json.dumps(
                {
                    "units": "decimal",
                    "labels": ["A", "B", "C"],
                    "cov_matrix": [[0.01, 0.0], [0.0, 0.01]],
                    "expected_returns": [0.03, 0.04],
                    "rf": 0.02,
                }
            )
        )
        assert main(["replay", "--input", str(bad)]) == 1


class TestFrontier:
    def test_happy_path(self, tmp_path):
        cfg = make_config(tmp_path)
        assert main(
            ["frontier", "--config", str(cfg), "--window", "w1", "--points", "50", "--span", "0.0:0.2"]
        ) == 0
        lines = (tmp_path / "out" / "w1" / "frontier_curve.csv").read_text().splitlines()
        assert lines[0] == "target_return,frontier_risk"
        assert len(lines) == 51
        assert (tmp_path / "out" / "w1" / "cml_curve.csv").is_file()

    def test_bad_span_exit_1(self, tmp_path):
        cfg = make_config(tmp_path)
        assert main(["frontier", "--config", str(cfg), "--window", "w1", "--span", "0.2:0.1"]) == 1
        assert main(["frontier", "--config", str(cfg), "--window", "w1", "--span", "abc"]) == 1

    @pytest.mark.parametrize(
        "arg",
        [
            "--span=-inf:inf",
            "--span=0:1e200",
            "--span=-1e300:1e300",
            "--span=nan:1",
            "--points=1000000000000",
            "--points=1000001",
            "--points=1",
        ],
    )
    def test_non_finite_span_or_points_out_of_range_exit_1(self, tmp_path, capsys, arg):
        cfg = make_config(tmp_path)
        before = files_under(tmp_path)
        assert main(["frontier", "--config", str(cfg), "--window", "w1", arg]) == 1
        assert_one_error_line(capsys)
        assert files_under(tmp_path) == before

    def test_unknown_window_exit_1(self, tmp_path):
        cfg = make_config(tmp_path)
        assert main(["frontier", "--config", str(cfg), "--window", "zzz"]) == 1

    @pytest.mark.parametrize(
        "args, line",
        [
            (["--window=all", "--span=0.2:0.1"], "invalid return span [0.2, 0.1]"),
            (["--window=all", "--span=nan:1"], "invalid return span [nan, 1.0]"),
            (["--window=all", "--span=-inf:inf"],
             "return span [-inf, inf] gives non-finite curve values"),
            # two rules: the curve checks the span after the window and the points
            (["--window=crash", "--span=0.2:0.1"], "window crash is non-viable; no curve"),
            (["--window=all", "--points=1", "--span=0.2:0.1"],
             "need 2 to 1000000 curve points, got 1"),
        ],
        ids=["reversed", "nan", "infinite", "non-viable-and-reversed", "points-and-reversed"],
    )
    def test_span_message(self, tmp_path, capsys, args, line):
        cfg = FIXTURES / "analyze" / "config.json"
        assert main(["frontier", "--config", str(cfg), *args, "--output-dir", str(tmp_path)]) == 1
        assert capsys.readouterr().err == f"error: {line}\n"
        assert files_under(tmp_path) == []

    def test_no_format_option(self, capsys):
        # frontier writes only the curve files, which have one format
        with pytest.raises(SystemExit) as exc:
            main(["frontier", "--config", "c.json", "--window", "w", "--format", "csv"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --format csv" in capsys.readouterr().err


class TestSummarize:
    def test_all_windows(self, tmp_path):
        inputs = [
            str(FIXTURES / f"replay_{n}.json")
            for n in ("2015_2023", "2015_2019", "2016_2020", "2020", "2020_2023", "2023")
        ]
        assert main(["summarize", "--inputs", *inputs, "--output-dir", str(tmp_path)]) == 0
        text = (tmp_path / "summary.csv").read_text()
        assert "2015-2023" in text and "non-viable" in text

    def test_markdown(self, tmp_path):
        assert main(
            [
                "summarize",
                "--inputs",
                str(FIXTURES / "replay_2023.json"),
                "--output-dir",
                str(tmp_path),
                "--format",
                "markdown",
            ]
        ) == 0
        assert (tmp_path / "summary.md").read_text().startswith("|")

    def test_missing_input_exit_1(self, tmp_path, capsys):
        absent = tmp_path / "absent.json"
        inputs = [str(FIXTURES / "replay_2023.json"), str(absent)]
        assert main(["summarize", "--inputs", *inputs, "--output-dir", str(tmp_path / "o")]) == 1
        assert capsys.readouterr().err == f"error: {absent}: file not found\n"
        assert files_under(tmp_path) == []


@pytest.mark.parametrize(
    "argv, curves",
    [
        (["summarize", "--inputs", *map(str, sorted(FIXTURES.glob("replay_*.json")))], 0),
        (["frontier", "--config", str(FIXTURES / "analyze" / "config.json"), "--window", "all"], 1),
        (["analyze", "--config", str(FIXTURES / "analyze" / "config.json")], 2),
    ],
    ids=["summarize", "frontier", "analyze"],
)
def test_curve_drawn_only_for_its_files(tmp_path, monkeypatch, argv, curves):
    # summarize prints no curve; frontier and analyze draw one per window that has curve files
    emit, windows = rp.emit_frontier_curve, []

    def counted(report, *args):
        windows.append(report.window.name)
        return emit(report, *args)

    monkeypatch.setattr(rp, "emit_frontier_curve", counted)
    assert main(argv + ["--output-dir", str(tmp_path)]) == 0
    assert len(windows) == curves, windows


class TestLoaders:
    def test_load_config_relative_paths(self, tmp_path):
        cfg = make_config(tmp_path)
        config = load_config(cfg)
        assert config.assets[0][1] == tmp_path / "a.csv"
        assert config.output_dir == tmp_path / "out"

    def test_duplicate_window_names(self, tmp_path):
        cfg = make_config(tmp_path)
        doc = json.loads(cfg.read_text())
        doc["windows"].append(dict(doc["windows"][0]))
        cfg.write_text(json.dumps(doc))
        with pytest.raises(InputError, match="unique"):
            load_config(cfg)

    def test_bad_date(self, tmp_path):
        cfg = make_config(tmp_path)
        doc = json.loads(cfg.read_text())
        doc["windows"][0]["start"] = "01/01/2019"
        cfg.write_text(json.dumps(doc))
        with pytest.raises(InputError, match="date"):
            load_config(cfg)

    def test_load_replay_fixture(self):
        replay = load_replay_input(FIXTURES / "replay_2015_2023.json")
        assert replay.labels == ("PFBANCOLOMBIA", "ECOPETROL", "ISA", "BANCOLOMBIA")
        assert replay.window.rf_annual == pytest.approx(0.0687)
        assert replay.aux.shape == (4, 3) and replay.aux.dtype == float
        assert replay.market_aux[0] == "ICOLCAP"

    def test_output_set_atomic(self, tmp_path):
        out = OutputSet({tmp_path / "sub" / "a.txt": "hello", tmp_path / "sub" / "b.txt": "world"})
        assert not (tmp_path / "sub").exists()
        out.commit()
        assert (tmp_path / "sub" / "a.txt").read_text() == "hello"
        assert not list((tmp_path / "sub").glob("*.tmp*"))

    def test_output_set_replaces_existing(self, tmp_path):
        (tmp_path / "a.txt").write_text("old a")
        OutputSet({tmp_path / "a.txt": "new a", tmp_path / "b.txt": "new b"}).commit()
        assert {p.name: p.read_text() for p in tmp_path.iterdir()} == {
            "a.txt": "new a",
            "b.txt": "new b",
        }

    def test_output_set_failed_write_leaves_no_temp(self, tmp_path):
        out = OutputSet({
            tmp_path / "od" / "a.txt": "new a",
            tmp_path / "od" / "b.txt": "\ud800",  # UTF-8 cannot encode it: the write fails
        })
        with pytest.raises(UnicodeEncodeError):
            out.commit()
        assert list(tmp_path.rglob("*")) == []

    @pytest.mark.parametrize("order", [("a.txt", "b.txt", "c.txt"), ("c.txt", "b.txt", "a.txt")])
    def test_output_set_failed_rename_restores(self, tmp_path, monkeypatch, order):
        (tmp_path / "a.txt").write_text("old a")
        (tmp_path / "b.txt").write_text("old b")
        before = {p.name: p.read_text() for p in tmp_path.iterdir()}
        real_replace = type(tmp_path).replace
        calls = []

        def replace(self, target):
            calls.append(self.name)
            if len(calls) == 2:
                raise OSError("disk full")
            return real_replace(self, target)

        monkeypatch.setattr(type(tmp_path), "replace", replace)
        out = OutputSet({tmp_path / name: f"new {name}" for name in order})
        with pytest.raises(OSError, match="disk full"):
            out.commit()
        assert {p.name: p.read_text() for p in tmp_path.iterdir()} == before

    @pytest.mark.parametrize("od_existed", [False, True])
    def test_output_set_failed_commit_removes_new_dirs(self, tmp_path, monkeypatch, od_existed):
        od = tmp_path / "od"
        if od_existed:
            od.mkdir()
            (od / "keep.txt").write_text("kept")
        before = sorted(p.relative_to(tmp_path) for p in tmp_path.rglob("*"))
        real_replace = type(tmp_path).replace
        calls = []

        def replace(self, target):
            calls.append(self.name)
            if len(calls) == 2:
                raise OSError("disk full")
            return real_replace(self, target)

        monkeypatch.setattr(type(tmp_path), "replace", replace)
        out = OutputSet({od / "win" / "a.csv": "new a", od / "win" / "b.csv": "new b"})
        with pytest.raises(OSError, match="disk full"):
            out.commit()
        assert sorted(p.relative_to(tmp_path) for p in tmp_path.rglob("*")) == before
        assert od.exists() == od_existed


# --- every loader message, word for word ---
#
# Each case edits a valid document (or replaces its text) and pins the one
# stderr line and the exit code of ``main``. ``{doc}`` in a message stands
# for the document's path. Cases marked "two rules" break two rules at once,
# so they also pin which check runs first.

CONFIG_MESSAGES = [
    ("not-object", "[1, 2]",
     (1, 'error: {doc}: expected a JSON object, got [1, 2]')),
    ("units-missing", lambda d: d.pop("units"),
     (1, "error: {doc}: missing field 'units'")),
    ("units-percent", lambda d: d.update(units="percent"),
     (1, 'error: {doc}: field \'units\' must be "decimal" (rates as fractions)')),
    ("assets-missing", lambda d: d.pop("assets"),
     (1, "error: {doc}: missing field 'assets'")),
    ("assets-not-list", lambda d: d.update(assets={"id": "AAA"}),
     (1, "error: {doc}: field 'assets' has invalid value {'id': 'AAA'} (expected a list)")),
    ("assets-empty", lambda d: d.update(assets=[]),
     (1, 'error: {doc}: at least two assets are required')),
    ("assets-one", lambda d: d.update(assets=d["assets"][:1]),
     (1, 'error: {doc}: at least two assets are required')),
    ("asset-not-object", lambda d: d["assets"].__setitem__(1, "BBB"),
     (1, "error: {doc}.assets[1]: expected a JSON object, got 'BBB'")),
    ("asset-id-missing", lambda d: d["assets"][1].pop("id"),
     (1, "error: {doc}.assets[1]: missing field 'id'")),
    ("asset-id-not-str", lambda d: d["assets"][1].update(id=5),
     (1, "error: {doc}.assets[1]: field 'id' has invalid value 5 (expected a string)")),
    ("asset-csv-path-missing", lambda d: d["assets"][2].pop("csv_path"),
     (1, "error: {doc}.assets[2]: missing field 'csv_path'")),
    ("asset-csv-path-surrogate", lambda d: d["assets"][1].update(csv_path="b\ud800.csv"),
     (1, "error: {doc}.assets[1]: field 'csv_path' has invalid value 'b\\ud800.csv' ('utf-8' codec can't encode character '\\ud800' in position 1: surrogates not allowed)")),
    ("market-missing", lambda d: d.pop("market"),
     (1, "error: {doc}: missing field 'market'")),
    ("market-not-object", lambda d: d.update(market=["MKT"]),
     (1, "error: {doc}.market: expected a JSON object, got ['MKT']")),
    ("market-id-missing", lambda d: d["market"].pop("id"),
     (1, "error: {doc}.market: missing field 'id'")),
    ("market-csv-path-not-str", lambda d: d["market"].update(csv_path=None),
     (1, "error: {doc}.market: field 'csv_path' has invalid value None (expected a string)")),
    ("ids-duplicate", lambda d: d["market"].update(id="AAA"),
     (1, 'error: {doc}: asset and market ids must be unique')),
    ("windows-missing", lambda d: d.pop("windows"),
     (1, "error: {doc}: missing field 'windows'")),
    ("windows-not-list", lambda d: d.update(windows="w1"),
     (1, "error: {doc}: field 'windows' has invalid value 'w1' (expected a list)")),
    ("window-not-object", lambda d: d["windows"].__setitem__(1, None),
     (1, 'error: {doc}.windows[1]: expected a JSON object, got None')),
    ("window-name-missing", lambda d: d["windows"][0].pop("name"),
     (1, "error: {doc}.windows[0]: missing field 'name'")),
    ("window-start-missing", lambda d: d["windows"][1].pop("start"),
     (1, "error: {doc}.windows[1]: missing field 'start'")),
    ("window-end-missing", lambda d: d["windows"][0].pop("end"),
     (1, "error: {doc}.windows[0]: missing field 'end'")),
    ("window-rf-missing", lambda d: d["windows"][0].pop("rf_annual"),
     (1, "error: {doc}.windows[0]: missing field 'rf_annual'")),
    ("window-start-slashes", lambda d: d["windows"][0].update(start="01/01/2019"),
     (1, "error: {doc}.windows[0]: invalid date '01/01/2019' (expected YYYY-MM-DD)")),
    ("window-start-compact", lambda d: d["windows"][0].update(start="20190101"),
     (1, "error: {doc}.windows[0]: invalid date '20190101' (expected YYYY-MM-DD)")),
    ("window-end-week-date", lambda d: d["windows"][0].update(end="2019-W52-2"),
     (1, "error: {doc}.windows[0]: invalid date '2019-W52-2' (expected YYYY-MM-DD)")),
    ("window-end-not-str", lambda d: d["windows"][0].update(end=20191231),
     (1, 'error: {doc}.windows[0]: invalid date 20191231 (expected YYYY-MM-DD)')),
    ("window-end-invalid-day", lambda d: d["windows"][0].update(end="2019-02-30"),
     (1, "error: {doc}.windows[0]: invalid date '2019-02-30' (expected YYYY-MM-DD)")),
    ("window-rf-not-number", lambda d: d["windows"][0].update(rf_annual="x"),
     (1, "error: {doc}.windows[0]: field 'rf_annual' has invalid value 'x' (expected a JSON number)")),
    ("window-rf-true", lambda d: d["windows"][0].update(rf_annual=True),
     (1, "error: {doc}.windows[0]: field 'rf_annual' has invalid value True (expected a JSON number)")),
    ("window-rf-numeric-string", lambda d: d["windows"][1].update(rf_annual="0.03"),
     (1, "error: {doc}.windows[1]: field 'rf_annual' has invalid value '0.03' (expected a JSON number)")),
    ("window-rf-nan", lambda d: d["windows"][0].update(rf_annual=float("nan")),
     (1, "error: {doc}.windows[0]: field 'rf_annual' has invalid value nan (not a finite number)")),
    # found by test_mutated_config_keeps_failure_contract: the CAPM return overflowed
    ("window-rf-max-float", lambda d: d["windows"][0].update(rf_annual=1.7976931348623157e308),
     (2, "numeric error: CAPM expected return is not finite: it overflows the floating-point range")),
    ("window-rf-list", lambda d: d["windows"][0].update(rf_annual=[0.03]),
     (1, "error: {doc}.windows[0]: field 'rf_annual' has invalid value [0.03] (expected a JSON number)")),
    ("window-name-escapes", lambda d: d["windows"][0].update(name="../escape"),
     (1, "error: {doc}.windows[0]: window name '../escape' is not a plain directory name")),
    ("window-name-not-str", lambda d: d["windows"][0].update(name=5),
     (1, 'error: {doc}.windows[0]: window name 5 is not a plain directory name')),
    ("window-name-empty", lambda d: d["windows"][0].update(name=""),
     (1, "error: {doc}.windows[0]: window name '' is not a plain directory name")),
    ("window-start-after-end", lambda d: d["windows"][0].update(start="2020-01-01"),
     (1, 'error: {doc}.windows[0]: window w1: start 2020-01-01 after end 2019-12-31')),
    ("window-names-duplicate", lambda d: d["windows"][1].update(name="w1"),
     (1, 'error: {doc}: window names must be unique')),
    ("trading-days-not-int", lambda d: d.update(trading_days="abc"),
     (1, "error: {doc}: field 'trading_days' has invalid value 'abc' (expected a JSON integer)")),
    ("trading-days-fraction", lambda d: d.update(trading_days=2.7),
     (1, "error: {doc}: field 'trading_days' has invalid value 2.7 (expected a JSON integer)")),
    ("trading-days-bool", lambda d: d.update(trading_days=True),
     (1, "error: {doc}: field 'trading_days' has invalid value True (expected a JSON integer)")),
    ("trading-days-367", lambda d: d.update(trading_days=367),
     (1, "error: {doc}: field 'trading_days' has invalid value 367 (expected 1 to 366)")),
    ("output-dir-not-str", lambda d: d.update(output_dir=5),
     (1, "error: {doc}: field 'output_dir' has invalid value 5 (expected a string)")),
    ("output-dir-surrogate", lambda d: d.update(output_dir="o\udfff"),
     (1, "error: {doc}: field 'output_dir' has invalid value 'o\\udfff' ('utf-8' codec can't encode character '\\udfff' in position 1: surrogates not allowed)")),
    # a string that would break a table row is refused when its table is printed
    ("asset-id-comma", lambda d: d["assets"][1].update(id="B,B"),
     (1, "error: 'B,B' holds a character that breaks a csv table row")),
    ("market-id-quote", lambda d: d["market"].update(id='"M"'),
     (1, 'error: \'"M"\' holds a character that breaks a csv table row')),
    ("window-name-lf", lambda d: d["windows"][1].update(name="w\n2"),
     (1, "error: 'w\\n2' holds a character that breaks a csv table row")),
    ("window-name-cr", lambda d: d["windows"][0].update(name="w\r1"),
     (1, "error: 'w\\r1' holds a character that breaks a csv table row")),
    # a label holding a character that XML 1.0 cannot hold is refused when its figure is drawn
    ("asset-id-control", lambda d: d["assets"][0].update(id="A\u0001B"),
     (1, "error: 'A\\x01B' holds a character that an SVG document cannot hold")),
    # two rules
    ("units-and-assets-missing", lambda d: [d.pop("units"), d.pop("assets")],
     (1, "error: {doc}: missing field 'units'")),
    ("window-name-and-start-missing", lambda d: [d["windows"][0].pop(k) for k in ("name", "start")],
     (1, "error: {doc}.windows[0]: missing field 'name'")),
    ("window-start-and-end-missing", lambda d: [d["windows"][0].pop(k) for k in ("start", "end")],
     (1, "error: {doc}.windows[0]: missing field 'start'")),
    ("window-name-bad-and-start-bad", lambda d: d["windows"][0].update(name="../x", start="x"),
     (1, "error: {doc}.windows[0]: invalid date 'x' (expected YYYY-MM-DD)")),
    ("window-name-bad-and-rf-bad", lambda d: d["windows"][0].update(name="../x", rf_annual="x"),
     (1, "error: {doc}.windows[0]: field 'rf_annual' has invalid value 'x' (expected a JSON number)")),
    ("window-start-bad-and-rf-missing", lambda d: [d["windows"][0].update(start="x"), d["windows"][0].pop("rf_annual")],
     (1, "error: {doc}.windows[0]: invalid date 'x' (expected YYYY-MM-DD)")),
    ("ids-duplicate-and-windows-missing", lambda d: [d["market"].update(id="AAA"), d.pop("windows")],
     (1, 'error: {doc}: asset and market ids must be unique')),
    ("names-duplicate-and-trading-days-bad", lambda d: [d["windows"][1].update(name="w1"), d.update(trading_days=0)],
     (1, 'error: {doc}: window names must be unique')),
    ("trading-days-bad-and-output-dir-bad", lambda d: d.update(trading_days=0, output_dir=5),
     (1, "error: {doc}: field 'trading_days' has invalid value 0 (expected 1 to 366)")),
    ("window-bad-and-assets-empty", lambda d: [d["windows"][0].pop("name"), d.update(assets=[])],
     (1, 'error: {doc}: at least two assets are required')),
    ("window-name-lf-and-asset-id-comma", lambda d: [d["windows"][0].update(name="w\n1"), d["assets"][0].update(id="A,A")],
     (1, "error: 'A,A' holds a character that breaks a csv table row")),
    # found by test_mutated_config_keeps_failure_contract: a line break in a window name
    # split the message over two lines
    ("window-name-lf-and-start-after-end", lambda d: d["windows"][0].update(name="w\n1", start="2020-01-01"),
     (1, "error: {doc}.windows[0]: window w\\n1: start 2020-01-01 after end 2019-12-31")),
    ("window-name-cr-and-no-dates", lambda d: d["windows"][1].update(name="w\r2", start="2030-01-01", end="2030-12-31"),
     (1, "error: window w\\r2: 0 trading date(s) in range; need at least 2")),
]

REPLAY_MESSAGES = [
    ("not-object", '"decimal"',
     (1, "error: {doc}: expected a JSON object, got 'decimal'")),
    ("units-missing", lambda d: d.pop("units"),
     (1, "error: {doc}: missing field 'units'")),
    ("units-percent", lambda d: d.update(units="percent"),
     (1, 'error: {doc}: field \'units\' must be "decimal" (rates as fractions)')),
    ("labels-missing", lambda d: d.pop("labels"),
     (1, "error: {doc}: missing field 'labels'")),
    ("labels-not-list", lambda d: d.update(labels="A"),
     (1, "error: {doc}: field 'labels' has invalid value 'A' (expected a list of strings)")),
    ("labels-not-str", lambda d: d["labels"].__setitem__(1, 5),
     (1, "error: {doc}: field 'labels' has invalid value ['PFBANCOLOMBIA', 5, 'ISA', 'BANCOLOMBIA'] (expected a list of strings)")),
    ("labels-duplicate", lambda d: d["labels"].__setitem__(1, "PFBANCOLOMBIA"),
     (1, 'error: {doc}: labels must be unique')),
    ("labels-surrogate", lambda d: d["labels"].__setitem__(0, "\ud800X"),
     (1, "error: {doc}: field 'labels' has invalid value ['\\ud800X', 'ECOPETROL', 'ISA', 'BANCOLOMBIA'] ('utf-8' codec can't encode character '\\ud800' in position 0: surrogates not allowed)")),
    ("rf-missing", lambda d: d.pop("rf"),
     (1, "error: {doc}: missing field 'rf'")),
    ("rf-not-number", lambda d: d.update(rf="x"),
     (1, "error: {doc}: field 'rf' has invalid value 'x' (expected a JSON number)")),
    ("rf-true", lambda d: d.update(rf=True),
     (1, "error: {doc}: field 'rf' has invalid value True (expected a JSON number)")),
    ("rf-numeric-string", lambda d: d.update(rf="0.02"),
     (1, "error: {doc}: field 'rf' has invalid value '0.02' (expected a JSON number)")),
    ("rf-inf", lambda d: d.update(rf=float("inf")),
     (1, "error: {doc}: field 'rf' has invalid value inf (not a finite number)")),
    ("asset-stats-not-list", lambda d: d.update(asset_stats=5),
     (1, "error: {doc}: field 'asset_stats' has invalid value 5 (expected a list)")),
    ("asset-stats-short", lambda d: d["asset_stats"].pop(),
     (1, "error: {doc}: field 'asset_stats' has 3 entries for 4 labels")),
    ("asset-stats-long", lambda d: d["asset_stats"].append(d["asset_stats"][0]),
     (1, "error: {doc}: field 'asset_stats' has 5 entries for 4 labels")),
    ("asset-stats-empty", lambda d: d.update(asset_stats=[]),
     (1, "error: {doc}: field 'asset_stats' has 0 entries for 4 labels")),
    ("asset-stat-not-object", lambda d: d["asset_stats"].__setitem__(0, 5),
     (1, 'error: {doc}.asset_stats[0]: expected a JSON object, got 5')),
    ("asset-stat-beta-missing", lambda d: d["asset_stats"][3].pop("beta"),
     (1, "error: {doc}.asset_stats[3]: missing field 'beta'")),
    ("asset-stat-return-numeric-string", lambda d: d["asset_stats"][1].update(ann_return="0.05"),
     (1, "error: {doc}.asset_stats[1]: field 'ann_return' has invalid value '0.05' (expected a JSON number)")),
    ("asset-stat-beta-false", lambda d: d["asset_stats"][0].update(beta=False),
     (1, "error: {doc}.asset_stats[0]: field 'beta' has invalid value False (expected a JSON number)")),
    ("asset-stat-beta-nan", lambda d: d["asset_stats"][2].update(beta=float("nan")),
     (1, "error: {doc}.asset_stats[2]: field 'beta' has invalid value nan (not a finite number)")),
    ("market-not-object", lambda d: d.update(market=5),
     (1, 'error: {doc}.market: expected a JSON object, got 5')),
    ("market-id-missing", lambda d: d["market"].pop("id"),
     (1, "error: {doc}.market: missing field 'id'")),
    ("market-id-not-str", lambda d: d["market"].update(id=5),
     (1, "error: {doc}.market: field 'id' has invalid value 5 (expected a string)")),
    ("market-ann-vol-missing", lambda d: d["market"].pop("ann_vol"),
     (1, "error: {doc}.market: missing field 'ann_vol'")),
    ("market-ann-return-not-number", lambda d: d["market"].update(ann_return="x"),
     (1, "error: {doc}.market: field 'ann_return' has invalid value 'x' (expected a JSON number)")),
    ("market-ann-vol-true", lambda d: d["market"].update(ann_vol=True),
     (1, "error: {doc}.market: field 'ann_vol' has invalid value True (expected a JSON number)")),
    ("market-id-is-label", lambda d: d["market"].update(id="ISA"),
     (1, 'error: {doc}: market id must differ from the labels')),
    ("cov-missing", lambda d: d.pop("cov_matrix"),
     (1, "error: {doc}: missing field 'cov_matrix'")),
    ("cov-wrong-shape", lambda d: d.update(cov_matrix=[[0.04, 0.01], [0.01, 0.09]]),
     (1, "error: {doc}: field 'cov_matrix' has invalid value [[0.04, 0.01], [0.01, 0.09]] (expected shape (4, 4), got (2, 2))")),
    ("cov-nan", lambda d: d["cov_matrix"][1].__setitem__(1, float("nan")),
     (1, "error: {doc}: field 'cov_matrix' has invalid value [[0.0874, 0.0492, 0.0373, 0.0782], [0.0492, nan, 0.0399, 0.0478], [0.0373, 0.0399, 0.1172, 0.0468], [0.0782, 0.0478, 0.0468, 0.1203]] (not all numbers are finite)")),
    ("cov-string", lambda d: d["cov_matrix"][0].__setitem__(0, "x"),
     (1, "error: {doc}: field 'cov_matrix' has invalid value [['x', 0.0492, 0.0373, 0.0782], [0.0492, 0.1494, 0.0399, 0.0478], [0.0373, 0.0399, 0.1172, 0.0468], [0.0782, 0.0478, 0.0468, 0.1203]] (expected JSON numbers)")),
    ("cov-numeric-string", lambda d: d["cov_matrix"][2].__setitem__(3, "0.0468"),
     (1, "error: {doc}: field 'cov_matrix' has invalid value [[0.0874, 0.0492, 0.0373, 0.0782], [0.0492, 0.1494, 0.0399, 0.0478], [0.0373, 0.0399, 0.1172, '0.0468'], [0.0782, 0.0478, 0.0468, 0.1203]] (expected JSON numbers)")),
    ("cov-true", lambda d: d["cov_matrix"][3].__setitem__(0, True),
     (1, "error: {doc}: field 'cov_matrix' has invalid value [[0.0874, 0.0492, 0.0373, 0.0782], [0.0492, 0.1494, 0.0399, 0.0478], [0.0373, 0.0399, 0.1172, 0.0468], [True, 0.0478, 0.0468, 0.1203]] (expected JSON numbers)")),
    ("cov-ragged", lambda d: d["cov_matrix"][1].pop(),
     (1, "error: {doc}: field 'cov_matrix' has invalid value [[0.0874, 0.0492, 0.0373, 0.0782], [0.0492, 0.1494, 0.0399], [0.0373, 0.0399, 0.1172, 0.0468], [0.0782, 0.0478, 0.0468, 0.1203]] (expected shape (4, 4), got a ragged list)")),
    ("er-missing", lambda d: d.pop("expected_returns"),
     (1, "error: {doc}: missing field 'expected_returns'")),
    ("er-too-short", lambda d: d["expected_returns"].pop(),
     (1, "error: {doc}: field 'expected_returns' has invalid value [0.0303, 0.0432, 0.0473] (expected shape (4,), got (3,))")),
    ("er-string", lambda d: d["expected_returns"].__setitem__(1, "x"),
     (1, "error: {doc}: field 'expected_returns' has invalid value [0.0303, 'x', 0.0473, 0.0392] (expected JSON numbers)")),
    ("er-numeric-string", lambda d: d["expected_returns"].__setitem__(2, "0.0473"),
     (1, "error: {doc}: field 'expected_returns' has invalid value [0.0303, 0.0432, '0.0473', 0.0392] (expected JSON numbers)")),
    ("er-false", lambda d: d["expected_returns"].__setitem__(0, False),
     (1, "error: {doc}: field 'expected_returns' has invalid value [False, 0.0432, 0.0473, 0.0392] (expected JSON numbers)")),
    ("er-null", lambda d: d["expected_returns"].__setitem__(3, None),
     (1, "error: {doc}: field 'expected_returns' has invalid value [0.0303, 0.0432, 0.0473, None] (expected JSON numbers)")),
    ("er-nested", lambda d: d["expected_returns"].__setitem__(1, [0.0432]),
     (1, "error: {doc}: field 'expected_returns' has invalid value [0.0303, [0.0432], 0.0473, 0.0392] (expected shape (4,), got a ragged list)")),
    ("name-escapes", lambda d: d.update(name="../../x"),
     (1, "error: {doc}: window name '../../x' is not a plain directory name")),
    ("name-not-str", lambda d: d.update(name=5),
     (1, 'error: {doc}: window name 5 is not a plain directory name')),
    ("name-surrogate", lambda d: d.update(name="\ud800X"),
     (1, "error: {doc}: window name '\\ud800X' is not a plain directory name")),
    ("label-comma", lambda d: d["labels"].__setitem__(0, "A,B"),
     (1, "error: 'A,B' holds a character that breaks a csv table row")),
    ("label-quote", lambda d: d["labels"].__setitem__(2, 'I"SA'),
     (1, 'error: \'I"SA\' holds a character that breaks a csv table row')),
    ("label-cr", lambda d: d["labels"].__setitem__(1, "C\rD"),
     (1, "error: 'C\\rD' holds a character that breaks a csv table row")),
    ("label-lf", lambda d: d["labels"].__setitem__(3, "C\nD"),
     (1, "error: 'C\\nD' holds a character that breaks a csv table row")),
    ("market-id-comma", lambda d: d["market"].update(id="ICOL,CAP"),
     (1, "error: 'ICOL,CAP' holds a character that breaks a csv table row")),
    ("label-control", lambda d: d["labels"].__setitem__(0, "A\u0001B"),
     (1, "error: 'A\\x01B' holds a character that an SVG document cannot hold")),
    ("label-nul", lambda d: d["labels"].__setitem__(1, "C\u0000D"),
     (1, "error: 'C\\x00D' holds a character that an SVG document cannot hold")),
    ("label-noncharacter", lambda d: d["labels"].__setitem__(2, "\ufffe"),
     (1, "error: '\\ufffe' holds a character that an SVG document cannot hold")),
    ("not-positive-definite", lambda d: d["cov_matrix"][0].__setitem__(0, -0.1),
     (2, 'numeric error: pivot -1.000e-01 at index 0 fails the positive-definiteness check (leading minor 1 not positive)')),
    # two rules
    ("units-bad-and-labels-missing", lambda d: [d.update(units="percent"), d.pop("labels")],
     (1, 'error: {doc}: field \'units\' must be "decimal" (rates as fractions)')),
    ("labels-duplicate-and-rf-missing", lambda d: [d["labels"].__setitem__(1, "ISA"), d.pop("rf")],
     (1, 'error: {doc}: labels must be unique')),
    ("rf-bad-and-cov-missing", lambda d: [d.update(rf="x"), d.pop("cov_matrix")],
     (1, "error: {doc}: field 'rf' has invalid value 'x' (expected a JSON number)")),
    ("asset-stat-bad-and-market-bad", lambda d: [d["asset_stats"][0].pop("beta"), d.update(market=5)],
     (1, "error: {doc}.asset_stats[0]: missing field 'beta'")),
    ("market-id-is-label-and-cov-bad", lambda d: [d["market"].update(id="ISA"), d["cov_matrix"].pop()],
     (1, 'error: {doc}: market id must differ from the labels')),
    ("cov-bad-and-er-bad", lambda d: [d["cov_matrix"].pop(), d["expected_returns"].pop()],
     (1, "error: {doc}: field 'cov_matrix' has invalid value [[0.0874, 0.0492, 0.0373, 0.0782], [0.0492, 0.1494, 0.0399, 0.0478], [0.0373, 0.0399, 0.1172, 0.0468]] (expected shape (4, 4), got (3, 4))")),
    ("name-bad-and-er-bad", lambda d: [d.update(name="../x"), d["expected_returns"].pop()],
     (1, "error: {doc}: field 'expected_returns' has invalid value [0.0303, 0.0432, 0.0473] (expected shape (4,), got (3,))")),
    ("name-bad-and-not-positive-definite", lambda d: [d.update(name="../x"), d["cov_matrix"][0].__setitem__(0, -0.1)],
     (1, "error: {doc}: window name '../x' is not a plain directory name")),
    ("asset-stats-short-and-not-positive-definite", lambda d: [d["asset_stats"].pop(), d["cov_matrix"][0].__setitem__(0, -0.1)],
     (1, "error: {doc}: field 'asset_stats' has 3 entries for 4 labels")),
    ("ann-vol-zero-and-not-positive-definite", lambda d: [d["asset_stats"][1].update(ann_vol=0), d["cov_matrix"][0].__setitem__(0, -0.1)],
     (2, 'numeric error: Sharpe undefined for zero volatility')),
    ("label-comma-and-not-positive-definite", lambda d: [d["labels"].__setitem__(0, "A,B"), d["cov_matrix"][0].__setitem__(0, -0.1)],
     (2, 'numeric error: pivot -1.000e-01 at index 0 fails the positive-definiteness check (leading minor 1 not positive)')),
]


def write_case(path, doc, edit):
    if isinstance(edit, str):
        path.write_text(edit, encoding="utf-8")
    else:
        edit(doc)
        path.write_text(json.dumps(doc), encoding="utf-8")


def expected_line(message: str, path) -> tuple[int, str]:
    code, text = message
    return code, text.replace("{doc}", str(path)) + "\n"


@pytest.mark.parametrize("edit, message", [c[1:] for c in CONFIG_MESSAGES],
                         ids=[c[0] for c in CONFIG_MESSAGES])
def test_config_message(tmp_path, capsys, edit, message):
    cfg = make_config(tmp_path)
    write_case(cfg, json.loads(cfg.read_text()), edit)
    code = main(["analyze", "--config", str(cfg)])
    assert (code, capsys.readouterr().err) == expected_line(message, cfg)
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("edit, message", [c[1:] for c in REPLAY_MESSAGES],
                         ids=[c[0] for c in REPLAY_MESSAGES])
def test_replay_message(tmp_path, capsys, edit, message):
    src = tmp_path / "doc.json"
    write_case(src, json.loads((FIXTURES / "replay_2015_2023.json").read_text()), edit)
    code = main(["replay", "--input", str(src), "--output-dir", str(tmp_path / "o")])
    assert (code, capsys.readouterr().err) == expected_line(message, src)
    assert not (tmp_path / "o").exists()
