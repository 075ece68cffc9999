import json

import numpy as np
import pytest

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


def files_under(root):
    return sorted(p for p in root.rglob("*") if p.is_file())


def assert_one_error_line(capsys):
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1, err


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

    def test_missing_config_exit_1(self, tmp_path):
        assert main(["analyze", "--config", str(tmp_path / "absent.json")]) == 1

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
            ({"rf_annual": "x"}, {}),
            ({}, {"trading_days": "abc"}),
            ({}, {"trading_days": 1e300}),
            ({}, {"trading_days": 2.7}),
            ({}, {"trading_days": True}),
            ({}, {"trading_days": 0}),
            ({}, {"trading_days": 367}),
        ],
        ids=[
            "name-escapes", "name-not-str", "rf-not-number", "trading-days-not-int",
            "trading-days-huge", "trading-days-fraction", "trading-days-bool",
            "trading-days-zero", "trading-days-367",
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
        ],
        ids=[
            "windows-not-list", "market-not-object", "assets-not-list", "output-dir-not-str",
            "asset-id-not-str", "csv-path-not-str", "window-not-object", "asset-id-duplicate",
            "market-id-is-asset-id",
        ],
    )
    def test_bad_structure_exit_1(self, tmp_path, capsys, edit, field):
        cfg = make_config(tmp_path)
        doc = json.loads(cfg.read_text())
        edit(doc)
        cfg.write_text(json.dumps(doc))
        before = files_under(tmp_path)
        assert main(["analyze", "--config", str(cfg)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1 and field in err, err
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
        ],
        ids=["name-escapes", "rf-not-number", "labels-not-list", "labels-duplicate"],
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
        ],
        ids=[
            "er-string", "er-nan", "cov-ragged", "cov-nan", "cov-inf", "asset-stats-not-list",
            "asset-stat-not-object", "asset-stat-nan", "market-not-object", "market-id-not-str",
            "market-id-is-label",
        ],
    )
    def test_bad_fixture_exit_1(self, tmp_path, capsys, edit, field):
        doc = json.loads((FIXTURES / "replay_2015_2023.json").read_text())
        edit(doc)
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        assert main(["replay", "--input", str(bad), "--output-dir", str(tmp_path / "o")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1 and field in err, err
        assert files_under(tmp_path) == [bad]

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

    def test_unknown_window_exit_1(self, tmp_path):
        cfg = make_config(tmp_path)
        assert main(["frontier", "--config", str(cfg), "--window", "zzz"]) == 1


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
        assert replay.rf == pytest.approx(0.0687)
        assert replay.aux.shape == (4, 3) and replay.aux.dtype == float
        assert replay.market_aux[0] == "ICOLCAP"

    def test_output_set_atomic(self, tmp_path):
        out = OutputSet()
        out.add(tmp_path / "sub" / "a.txt", "hello")
        out.add(tmp_path / "sub" / "b.txt", "world")
        assert not (tmp_path / "sub").exists()
        out.commit()
        assert (tmp_path / "sub" / "a.txt").read_text() == "hello"
        assert not list((tmp_path / "sub").glob("*.tmp*"))

    def test_output_set_replaces_existing(self, tmp_path):
        (tmp_path / "a.txt").write_text("old a")
        out = OutputSet()
        out.add(tmp_path / "a.txt", "new a")
        out.add(tmp_path / "b.txt", "new b")
        out.commit()
        assert {p.name: p.read_text() for p in tmp_path.iterdir()} == {
            "a.txt": "new a",
            "b.txt": "new b",
        }

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
        out = OutputSet()
        for name in order:
            out.add(tmp_path / name, f"new {name}")
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
        out = OutputSet()
        out.add(od / "win" / "a.csv", "new a")
        out.add(od / "win" / "b.csv", "new b")
        with pytest.raises(OSError, match="disk full"):
            out.commit()
        assert sorted(p.relative_to(tmp_path) for p in tmp_path.rglob("*")) == before
        assert od.exists() == od_existed
