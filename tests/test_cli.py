"""End-to-end tests of the command-line front end."""

import json
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from mfvol import cli, ingest, mfdfa, synth, tgarch


def run(argv):
    return cli.main(argv)


class TestSimulate:
    def test_gaussian_writes_series_and_manifest(self, tmp_path):
        out = tmp_path / "noise.csv"
        assert run(["simulate", "--model", "gaussian", "--n", "500",
                    "--seed", "9", "-o", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "timestamp,value,flag"
        assert len(lines) == 501
        manifest = json.loads((tmp_path / "noise.csv.manifest.json").read_text())
        assert manifest["subcommand"] == "simulate"
        assert manifest["seeds"] == {"series": 9}
        assert manifest["config"]["model"] == "gaussian"

    def test_config_keys_honoured(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        # "window" belongs to rolling: allowed, so one file serves a pipeline
        cfg.write_text(json.dumps({"n": 50, "seed": 3, "model": "gaussian",
                                   "window": 100}))
        out = tmp_path / "noise.csv"
        assert run(["simulate", "--config", str(cfg), "-o", str(out)]) == 0
        assert len(out.read_text().splitlines()) == 51
        manifest = json.loads((tmp_path / "noise.csv.manifest.json").read_text())
        assert manifest["seeds"] == {"series": 3}
        assert manifest["config"]["n"] == 50
        assert "window" not in manifest["config"]
        assert run(["simulate", "--config", str(cfg), "--n", "20",
                    "-o", str(out)]) == 0
        assert len(out.read_text().splitlines()) == 21  # flag wins

    def test_rerun_byte_identical(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        argv = ["simulate", "--model", "tgarch", "--n", "300", "--seed", "4"]
        run(argv + ["-o", str(a)])
        run(argv + ["-o", str(b)])
        assert a.read_bytes() == b.read_bytes()


class TestIngest:
    def test_pipeline(self, tmp_path, ticks_3day_path):
        out = tmp_path / "returns.csv"
        assert run(["ingest", "--input", str(ticks_3day_path),
                    "--delta-t", "1440", "-o", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "timestamp,value,flag"
        values = [float(ln.split(",")[1]) for ln in lines[1:]]
        assert values[0] == pytest.approx(100 * np.log(11.5 / 10.2), rel=1e-12)
        assert (tmp_path / "returns.json").exists()
        manifest = json.loads((tmp_path / "returns.csv.manifest.json").read_text())
        assert manifest["config"]["delta_t"] == 1440

    def test_line_endings_give_the_same_returns(self, tmp_path, ticks_3day_path):
        lf = ticks_3day_path.read_bytes()
        outputs = []
        for name, eol in (("lf", b"\n"), ("crlf", b"\r\n"), ("cr", b"\r")):
            ticks = tmp_path / f"{name}.txt"
            ticks.write_bytes(lf.replace(b"\n", eol))
            out = tmp_path / f"{name}.csv"
            assert run(["ingest", "--input", str(ticks), "--delta-t", "60", "-o", str(out)]) == 0
            outputs.append((out.read_bytes(), (tmp_path / f"{name}.json").read_bytes()))
        assert outputs[0] == outputs[1] == outputs[2]

    def test_data_dir_resolution(self, tmp_path, ticks_3day_path, monkeypatch):
        monkeypatch.setenv("MFVOL_DATA_DIR", str(ticks_3day_path.parent))
        out = tmp_path / "r.csv"
        assert run(["ingest", "--input", ticks_3day_path.name,
                    "-o", str(out)]) == 0
        assert out.exists()

    def test_config_file_and_flag_precedence(self, tmp_path, ticks_3day_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"delta_t": 60}))
        out = tmp_path / "r.csv"
        run(["ingest", "--input", str(ticks_3day_path), "--config", str(cfg),
             "--delta-t", "1440", "-o", str(out)])
        manifest = json.loads((tmp_path / "r.csv.manifest.json").read_text())
        assert manifest["config"]["delta_t"] == 1440  # flag wins
        run(["ingest", "--input", str(ticks_3day_path), "--config", str(cfg),
             "-o", str(out)])
        manifest = json.loads((tmp_path / "r.csv.manifest.json").read_text())
        assert manifest["config"]["delta_t"] == 60  # config beats default


class TestStats:
    def test_json_document(self, tmp_path):
        series = tmp_path / "s.csv"
        run(["simulate", "--model", "gaussian", "--n", "400", "--seed", "2",
             "-o", str(series)])
        out = tmp_path / "stats.json"
        assert run(["stats", "--input", str(series), "-o", str(out),
                    "--volatility-output", str(tmp_path / "vol.csv")]) == 0
        doc = json.loads(out.read_text())
        assert set(doc["descriptive"]) >= {"mean", "sd", "kurtosis", "skewness",
                                           "nobs"}
        assert doc["descriptive"]["nobs"] == 400
        vol_lines = (tmp_path / "vol.csv").read_text().splitlines()
        assert vol_lines[0] == "t,s"
        assert len(vol_lines) == 402  # s_0 .. s_400

    @pytest.mark.parametrize("volatility", ["s.json", "s.json.manifest.json"])
    def test_volatility_output_clashing_with_an_output_usage_error(
            self, tmp_path, monkeypatch, volatility):
        series = tmp_path / "r.csv"
        run(["simulate", "--model", "gaussian", "--n", "50", "-o", str(series)])
        before = sorted(p.name for p in tmp_path.iterdir())
        monkeypatch.chdir(tmp_path)
        # the same file by another spelling of its path
        for out in ("s.json", str(tmp_path / "s.json"), "./s.json"):
            with pytest.raises(SystemExit) as exc:
                run(["stats", "--input", str(series), "-o", out,
                     "--volatility-output", volatility])
            assert exc.value.code == 2
            assert sorted(p.name for p in tmp_path.iterdir()) == before

    def test_manifest_names_the_input_file_read(self, tmp_path, monkeypatch):
        data, work = tmp_path / "data", tmp_path / "work"
        work.mkdir()
        run(["simulate", "--model", "gaussian", "--n", "50", "-o", str(data / "r.csv")])
        monkeypatch.chdir(work)
        monkeypatch.setenv("MFVOL_DATA_DIR", str(data))
        assert run(["stats", "--input", "r.csv", "-o", "s.json"]) == 0
        manifest = json.loads((work / "s.json.manifest.json").read_text())
        assert manifest["inputs"] == [str(data / "r.csv")]
        # a file the data dir did not resolve is recorded as given
        (work / "r.csv").write_bytes((data / "r.csv").read_bytes())
        for given in ("r.csv", "./r.csv", str(work / "r.csv")):
            assert run(["stats", "--input", given, "-o", "s.json"]) == 0
            manifest = json.loads((work / "s.json.manifest.json").read_text())
            assert manifest["inputs"] == [given]


class TestTgarch:
    def test_fit_json_schema(self, tmp_path):
        series = tmp_path / "s.csv"
        run(["simulate", "--model", "tgarch", "--n", "1500", "--seed", "3",
             "-o", str(series)])
        out = tmp_path / "fit.json"
        assert run(["tgarch", "--input", str(series), "--dist", "normal",
                    "-o", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert set(doc) == {"params", "std_errors", "loglik", "converged",
                            "iterations", "hessian_ok", "nobs"}
        assert doc["params"]["dist"] == "normal"
        assert doc["converged"] is True
        manifest = json.loads((tmp_path / "fit.json.manifest.json").read_text())
        assert "multistart" in manifest["seeds"]

    def test_rolling_boundary_fits_are_kept(self, tmp_path):
        # the first window's maximum lies on alpha + gamma = 0
        series = tmp_path / "t.csv"
        values = np.random.default_rng(6).standard_t(5, 430)
        series.write_text("timestamp,value\n" + "".join(
            f"{86400 * i},{float(v)!r}\n" for i, v in enumerate(values)))
        track = tmp_path / "track.csv"
        assert run(["rolling", "--input", str(series), "--estimator", "tgarch",
                    "--window", "400", "--step", "30", "-o", str(track)]) == 0
        rows = track.read_text().splitlines()[1:]
        assert len(rows) == 2
        assert all(row.endswith(",ok") for row in rows)


class TestMfdfa:
    def test_cascade_roundtrip_matches_oracle(self, tmp_path):
        series = tmp_path / "cascade.csv"
        run(["simulate", "--model", "cascade", "--levels", "13", "--a", "0.75",
             "-o", str(series)])
        prefix = str(tmp_path / "mf")
        assert run(["mfdfa", "--input", str(series), "--fit-min", "16",
                    "--fit-max", "1024", "-o", prefix]) == 0
        summary = json.loads((tmp_path / "mf_summary.json").read_text())
        q = 4.0
        expected = (synth.cascade_h_analytic(-q, 0.75)
                    - synth.cascade_h_analytic(q, 0.75))
        assert summary["dh"] == pytest.approx(expected, abs=0.07)
        for suffix in ("_fq.csv", "_hurst.csv", "_spectrum.csv"):
            assert (tmp_path / f"mf{suffix}").exists()

    def test_default_fit_range_in_manifest(self, tmp_path):
        series = tmp_path / "s.csv"
        run(["simulate", "--model", "gaussian", "--n", "1200", "--seed", "5",
             "-o", str(series)])
        prefix = str(tmp_path / "mf")
        assert run(["mfdfa", "--input", str(series), "-o", prefix]) == 0
        manifest = json.loads((tmp_path / "mf.manifest.json").read_text())
        config = manifest["config"]
        assert [config["fit_min"], config["fit_max"]] == [
            mfdfa.MfdfaConfig().fit_range[0], mfdfa.MfdfaConfig().fit_range[1]]


class TestRollingAndJoin:
    def test_rolling_track_and_join(self, tmp_path):
        series = tmp_path / "s.csv"
        run(["simulate", "--model", "gaussian", "--n", "3188", "--seed", "6",
             "-o", str(series)])
        t1 = tmp_path / "track_stats.csv"
        assert run(["rolling", "--input", str(series), "--estimator", "stats",
                    "--window", "548", "--step", "30", "-o", str(t1)]) == 0
        rows = t1.read_text().splitlines()
        assert len(rows) == 90  # header + 89 windows
        t2 = tmp_path / "track_stats2.csv"
        run(["rolling", "--input", str(series), "--estimator", "stats",
             "--window", "548", "--step", "30", "-o", str(t2)])
        out = tmp_path / "joined.csv"
        assert run(["join", "--inputs", str(t1), str(t2), "-o", str(out)]) == 0
        joined = out.read_text().splitlines()
        assert len(joined) == 90

    def test_normal_law_tgarch_track_joins(self, tmp_path):
        # the normal law has no shape parameter: no cell may read None
        series = tmp_path / "s.csv"
        run(["simulate", "--model", "tgarch", "--dist", "normal", "--n", "460",
             "--seed", "2", "-o", str(series)])
        tracks = [tmp_path / "garch.csv", tmp_path / "stats.csv"]
        for track, estimator in zip(tracks, ("tgarch", "stats")):
            assert run(["rolling", "--input", str(series), "--estimator", estimator,
                        "--dist", "normal", "--window", "400", "--step", "30",
                        "-o", str(track)]) == 0
        assert "None" not in tracks[0].read_text()
        out = tmp_path / "joined.csv"
        assert run(["join", "--inputs", *map(str, tracks), "-o", str(out)]) == 0
        assert "None" not in out.read_text()
        assert len(out.read_text().splitlines()) > 1

    def test_tgarch_window_without_convergence_fails_alone(self, tmp_path, monkeypatch):
        series = tmp_path / "s.csv"
        run(["simulate", "--model", "tgarch", "--n", "160", "--seed", "5", "-o", str(series)])
        real_fit, calls = tgarch.fit, []

        def fit(values, dist):
            calls.append(len(values))
            result = real_fit(values, dist=dist)
            return replace(result, converged=False) if len(calls) == 2 else result

        monkeypatch.setattr(tgarch, "fit", fit)
        flags = ["--input", str(series), "--window", "100", "--step", "30"]
        garch, sd = tmp_path / "garch.csv", tmp_path / "sd.csv"
        assert run(["rolling", "--estimator", "tgarch", *flags, "-o", str(garch)]) == 0
        assert calls == [100, 100, 100]
        header, *rows = [line.split(",") for line in garch.read_text().splitlines()]
        assert [row[-1] for row in rows] == ["ok", "failed", "ok"]
        assert rows[1][2:-1] == [""] * (len(header) - 3)
        assert all("" not in row for row in (rows[0], rows[2]))
        assert run(["rolling", "--estimator", "stats", *flags, "-o", str(sd)]) == 0
        joined = tmp_path / "joined.csv"
        assert run(["join", "--inputs", str(garch), str(sd), "-o", str(joined)]) == 0
        ends = [line.split(",")[0] for line in joined.read_text().splitlines()[1:]]
        assert ends == [rows[0][1], rows[2][1]]

    def test_tracks_of_one_stem_exit_one(self, tmp_path, capsys):
        # the second track's columns are prefixed with its stem, and a third
        # track of that stem would overwrite them
        tracks = [tmp_path / d / "track.csv" for d in "abc"]
        for track in tracks:
            track.parent.mkdir()
            track.write_text("window_start,window_end,h2,status\n1,2,0.5,ok\n")
        out = tmp_path / "joined.csv"
        assert run(["join", "--inputs", *map(str, tracks[:2]), "-o", str(out)]) == 0
        assert out.read_text().splitlines()[0] == "window_end,h2,track_h2"
        out.unlink()
        assert run(["join", "--inputs", *map(str, tracks), "-o", str(out)]) == 1
        report = json.loads(capsys.readouterr().err)  # one JSON document
        assert report["error"] == "ValueError"
        assert report["message"].startswith("column track_h2 would be written twice")
        assert not out.exists()


_FILES = ["--input", "r.csv", "-o", "t.csv"]  # errors come before either is opened


@pytest.mark.parametrize("argv", [
    ["--help"], *([name, "--help"] for name in cli.COMMANDS),
    pytest.param([], id="no-arguments"),
    pytest.param(["bogus"], id="bogus"),
    pytest.param(["rolling", "--bogus", "1", "--estimator", "stats", *_FILES], id="unknown-flag"),
    pytest.param(["rolling", *_FILES], id="missing-estimator"),
    pytest.param(["rolling", "--estimator", "stats", "--window", "0", *_FILES], id="window-0"),
    pytest.param(["rolling", "--estimator", "stats"], id="missing-input"),
    pytest.param(["-h", "rolling"], id="h-before-rolling"),
    pytest.param(["rolling", "-h"], id="h-after-rolling"),
    pytest.param(["--version"], id="version"),
    pytest.param(["--version", "rolling"], id="version-before-rolling"),
], ids=lambda argv: argv[0])
def test_help_is_the_full_parsers(argv, capsys, monkeypatch, tmp_path):
    """main builds only the named subcommand's parser when argv starts with
    it; its help, usage errors and exit codes are the full parser's."""
    monkeypatch.chdir(tmp_path)

    def shown():
        with pytest.raises(SystemExit) as exc:
            cli.main(argv)
        out = capsys.readouterr()
        return exc.value.code, out.out, out.err

    one = shown()
    full = cli.build_parser
    monkeypatch.setattr(cli, "build_parser", lambda subcommand=None: full())
    assert shown() == one
    assert not (tmp_path / "t.csv").exists()


class TestErrorHandling:
    def test_unknown_flag_usage_error(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            run(["simulate", "--model", "gaussian", "--bogus", "1",
                 "-o", str(tmp_path / "x.csv")])
        assert exc.value.code == 2

    @pytest.mark.parametrize("config, key", [
        ({"delta_tt": 60}, "delta_tt"),             # unknown key
        ({"delta_t": 60.7}, "delta_t"),             # no integer
        ({"outlier_mode": "both"}, "outlier_mode"),  # not a choice
    ])
    def test_bad_config_key_usage_error(self, tmp_path, ticks_3day_path, capsys,
                                        config, key):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(config))
        out = tmp_path / "r.csv"
        with pytest.raises(SystemExit) as exc:
            run(["ingest", "--input", str(ticks_3day_path), "--config", str(cfg),
                 "-o", str(out)])
        assert exc.value.code == 2
        assert key in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("config, message", [
        (None, "No such file or directory"),
        ("{\"delta_t\": 60,}", "Expecting property name"),
        ("[60]", "expected a JSON object of settings"),
    ], ids=["unreadable", "invalid_json", "not_an_object"])
    def test_bad_config_file_usage_error(self, tmp_path, ticks_3day_path, capsys,
                                         config, message):
        cfg = tmp_path / "cfg.json"
        if config is not None:
            cfg.write_text(config)
        out = tmp_path / "r.csv"
        with pytest.raises(SystemExit) as exc:
            run(["ingest", "--input", str(ticks_3day_path), "--config", str(cfg),
                 "-o", str(out)])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert f"--config {cfg}: " in err and message in err
        assert not out.exists()

    def test_missing_subcommand(self, capsys):
        with pytest.raises(SystemExit) as exc:
            run([])
        assert exc.value.code == 2
        # named by its dest: a metavar on the full parser would list every subcommand
        assert capsys.readouterr().err.endswith(
            "error: the following arguments are required: subcommand\n")

    def test_computation_error_exit_one(self, tmp_path, capsys):
        missing = tmp_path / "nope.csv"
        assert run(["tgarch", "--input", str(missing),
                    "-o", str(tmp_path / "out.json")]) == 1
        report = json.loads(capsys.readouterr().err)
        assert report["subcommand"] == "tgarch"
        assert "error" in report and "message" in report

    def test_bad_data_exit_one(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("99,5,1\n100,-5,1\n")
        assert run(["ingest", "--input", str(bad),
                    "-o", str(tmp_path / "out.csv")]) == 1
        report = json.loads(capsys.readouterr().err)
        assert report["error"] == "TickParseError"
        assert report["message"] == "line 2: nonpositive or non-finite price -5"

    @pytest.mark.parametrize("text, line", [
        ("", 1),
        ("\n \n", 1),
        ("window_end,window_start,status\n1,2,ok\n", 1),
        ("window_start,window_end,mean\n1,2,0.5\n", 1),
        ("window_start,window_end,status\n1,2\n", 2),
        ("window_start,window_end,mean,status\n1,2,ok\n", 2),
        ("window_start,window_end,mean,status\n1,2,0.5,ok\n3,4,0.5,0.7,ok\n", 3),
        ("window_start,window_end,mean,status\n1,2,0.5,done\n", 2),
        ("window_start,window_end,mean,status\n1,2.5,0.5,ok\n", 2),
        ("window_start,window_end,mean,status\n\n1,2,0.5,ok\n3,4,abc,ok\n", 4),
        ("window_start,window_end,mean,status\n0,2,0.5,ok\n1,2,0.7,ok\n", 3),
        ("window_start,window_end,h2,h2,status\n1,10,0.5,0.7,ok\n", 1),
    ], ids=["empty", "blank", "header_order", "no_status", "status_only", "short_row",
            "long_row", "status", "window_bound", "payload", "repeated_window_end",
            "repeated_column"])
    def test_malformed_track_exit_one(self, tmp_path, capsys, text, line):
        bad, good = tmp_path / "bad.csv", tmp_path / "good.csv"
        bad.write_text(text)
        good.write_text("window_start,window_end,mean,status\n1,2,0.5,ok\n")
        out = tmp_path / "joined.csv"
        assert run(["join", "--inputs", str(good), str(bad), "-o", str(out)]) == 1
        report = json.loads(capsys.readouterr().err)  # one JSON document
        assert report["error"] == "ValueError"
        assert report["message"].startswith(f"{bad}: line {line}: ")
        assert not out.exists()

    def test_timestamp_beyond_int64_exit_one(self, tmp_path, capsys):
        bad = tmp_path / "ticks.csv"
        bad.write_text("1,1.0,1.0\n99999999999999999999,1.0,1.0\n")
        assert run(["ingest", "--input", str(bad),
                    "-o", str(tmp_path / "out.csv")]) == 1
        report = json.loads(capsys.readouterr().err)
        assert report["error"] == "TickParseError"
        assert "line 2" in report["message"]

    def test_nan_return_exit_one(self, tmp_path, capsys):
        series = tmp_path / "r.csv"
        run(["simulate", "--model", "gaussian", "--n", "300", "--seed", "3",
             "-o", str(series)])
        lines = series.read_text().splitlines()
        lines[151] = lines[151].split(",")[0] + ",nan,ok"
        series.write_text("\n".join(lines) + "\n")
        out = tmp_path / "fit.json"
        assert run(["tgarch", "--input", str(series), "-o", str(out)]) == 1
        report = json.loads(capsys.readouterr().err)
        assert report["error"] == "ValueError"
        assert "line 152" in report["message"]
        assert not out.exists()

    @pytest.mark.parametrize("argv,scale", [
        (["stats"], 1e200),
        (["tgarch"], 1e200),
        (["mfdfa"], 1e200),
        (["rolling", "--estimator", "mfdfa"], 1e200),
        (["stats"], 1e-100),
    ], ids=[f"argv{i}" for i in range(5)])
    def test_overflowing_returns_one_json_error(self, tmp_path, argv, scale):
        # finite returns whose powers overflow (or underflow): a NumPy warning
        # printed before the error report would leave stderr no longer one
        # JSON document
        series = tmp_path / "r.csv"
        values = scale * np.random.default_rng(0).standard_normal(300)
        series.write_text("timestamp,value\n" + "".join(
            f"{60 * i},{float(v)!r}\n" for i, v in enumerate(values)))
        env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parents[1]))
        proc = subprocess.run(
            [sys.executable, "-W", "default", "-m", "mfvol.cli", *argv,
             "--input", str(series), "-o", str(tmp_path / "out.json")],
            capture_output=True, text=True, env=env)
        assert proc.returncode == 1
        report = json.loads(proc.stderr)
        assert report["error"] == "ValueError"
        assert report["subcommand"] == argv[0]

    def test_overflowing_simulation_one_json_error(self, tmp_path):
        # a variance that overflows: no NumPy warning, no output, one JSON report
        out = tmp_path / "r.csv"
        env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parents[1]))
        proc = subprocess.run(
            [sys.executable, "-W", "default", "-m", "mfvol.cli", "simulate", "--model",
             "tgarch", "--omega", "1e307", "--n", "5", "-o", str(out)],
            capture_output=True, text=True, env=env)
        assert proc.returncode == 1
        report = json.loads(proc.stderr)
        assert report["error"] == "ValueError"
        assert report["subcommand"] == "simulate"
        assert "floating-point range" in report["message"]
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("argv", [
        ["rolling", "--estimator", "stats", "--window", "0"],
        ["rolling", "--estimator", "stats", "--window", "-3"],
        ["rolling", "--estimator", "tgarch", "--step", "0"],
        ["rolling", "--estimator", "tgarch", "--window", "50"],
        ["rolling", "--estimator", "stats", "--window", "3"],
        ["mfdfa", "--s-min", "1"],
        ["mfdfa", "--fit-min", "100", "--fit-max", "20"],
        ["rolling", "--estimator", "mfdfa", "--fit-min", "100", "--fit-max", "20"],
        ["mfdfa", "--degree-q", "3.3"],
        ["mfdfa", "--detrend-order", "-1"],
        ["rolling", "--estimator", "mfdfa", "--detrend-order", "-1"],
        ["rolling", "--estimator", "mfdfa", "--window", "100"],
        ["ingest", "--delta-t", "0"],
        ["ingest", "--outlier-threshold", "0"],
        ["ingest", "--outlier-threshold", "nan"],
        ["ingest", "--outlier-threshold", "inf"],
        ["ingest", "--outlier-threshold", "nan", "--outlier-mode", "none"],
        ["ingest", "--config", '{"outlier_threshold": Infinity}'],
        ["stats", "--s0", "nan"],
        ["stats", "--s0", "inf"],
        ["stats", "--config", '{"s0": NaN}'],
        ["agg-gauss", "--delta-ts", "0,60"],
        ["agg-gauss", "--config", '{"delta_ts":[]}'],
        ["agg-gauss", "--config", '{"delta_ts": [60.7, 1440]}'],
        ["agg-gauss", "--config", '{"delta_ts": [true, 1440]}'],
        ["agg-gauss", "--config", '{"delta_ts": 60.7}'],
        ["agg-gauss", "--delta-ts", "60,1440", "--period-min", "360", "--period-max", "60"],
        ["agg-gauss", "--delta-ts", "5,5,60"],
        ["agg-gauss", "--delta-ts", "5,60,1440", "--min-nobs", "2"],
        ["agg-gauss", "--delta-ts", "5,60,1440", "--min-nobs", "0"],
    ], ids=lambda argv: "_".join(a.removeprefix("--") for a in argv))
    def test_bad_settings_usage_error(self, tmp_path, argv):
        series = tmp_path / "r.csv"
        run(["simulate", "--model", "gaussian", "--n", "600", "--seed", "4", "-o", str(series)])
        if "--config" in argv:  # the JSON object that follows goes into a config file
            k = argv.index("--config") + 1
            config = tmp_path / "config.json"
            config.write_text(argv[k])
            argv = [*argv[:k], str(config), *argv[k + 1:]]
        out = tmp_path / "out.csv"
        # checked before any input is read: a missing input gives the same exit
        for path in (series, tmp_path / "missing.csv"):
            with pytest.raises(SystemExit) as exc:
                run([*argv, "--input", str(path), "-o", str(out)])
            assert exc.value.code == 2
        assert not out.exists()

    @pytest.mark.parametrize("order", ["reversed", "repeated"])
    def test_returns_out_of_time_order_exit_one(self, tmp_path, capsys, order):
        series = tmp_path / "r.csv"
        run(["simulate", "--model", "gaussian", "--n", "30", "--seed", "4",
             "-o", str(series)])
        header, *rows = series.read_text().splitlines(keepends=True)
        rows = rows[::-1] if order == "reversed" else [*rows[:10], rows[9], *rows[10:]]
        series.write_text("".join([header, *rows]))
        capsys.readouterr()
        track = tmp_path / "t.csv"
        assert run(["rolling", "--input", str(series), "--estimator", "stats",
                    "--window", "5", "--step", "5", "-o", str(track)]) == 1
        report = json.loads(capsys.readouterr().err)  # one JSON document
        assert report["error"] == "ValueError"
        line = 3 if order == "reversed" else 12
        assert report["message"].startswith(f"line {line}: timestamp ")
        assert "does not exceed the one before" in report["message"]
        assert not track.exists()

    @pytest.mark.parametrize("argv", [
        ["simulate", "--model", "tgarch", "--alpha", "0.5", "--beta", "0.6"],
        ["simulate", "--model", "tgarch", "--shape", "1.5"],
        ["simulate", "--model", "tgarch", "--mu", "nan"],
        ["simulate", "--model", "tgarch", "--c1", "inf"],
        ["simulate", "--model", "tgarch", "--gamma", "nan"],
        ["simulate", "--model", "tgarch", "--omega", "inf"],
        ["simulate", "--model", "tgarch", "--dist", "ged", "--shape", "0.01"],
        ["simulate", "--model", "tgarch", "--dist", "ged", "--shape", "inf"],
        ["simulate", "--model", "tgarch", "--n", "0"],
        ["simulate", "--model", "gaussian", "--n", "0"],
        ["simulate", "--model", "cascade", "--levels", "30"],
        ["join", "--inputs", "{track}"],
    ], ids=lambda argv: "_".join(a.removeprefix("--") for a in argv))
    def test_bad_settings_without_input_usage_error(self, tmp_path, capsys, argv):
        series, track = tmp_path / "r.csv", tmp_path / "track.csv"
        run(["simulate", "--model", "gaussian", "--n", "600", "--seed", "4", "-o", str(series)])
        run(["rolling", "--input", str(series), "--estimator", "stats", "--window", "100",
             "--step", "100", "-o", str(track)])
        out = tmp_path / "out.csv"
        # a join is checked before its track is read: a missing one gives the same exit
        for path in (track, tmp_path / "missing.csv"):
            capsys.readouterr()
            with pytest.raises(SystemExit) as exc:
                run([a.format(track=path) for a in argv] + ["-o", str(out)])
            assert exc.value.code == 2
            assert "usage: mfvol" in capsys.readouterr().err
        assert not out.exists()

    def test_repeated_period_is_named(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            run(["agg-gauss", "--input", str(tmp_path / "missing.csv"), "--delta-ts", "60,5,5",
                 "-o", str(tmp_path / "a.csv")])
        assert exc.value.code == 2
        assert "--delta-ts lists the period 5 more than once" in capsys.readouterr().err

    def test_window_longer_than_series_exit_one(self, tmp_path, capsys):
        series = tmp_path / "r.csv"
        run(["simulate", "--model", "gaussian", "--n", "600", "--seed", "4", "-o", str(series)])
        capsys.readouterr()
        assert run(["rolling", "--input", str(series), "--estimator", "mfdfa",
                    "--window", "5000", "-o", str(tmp_path / "t.csv")]) == 1
        report = json.loads(capsys.readouterr().err)
        assert report["message"] == "series of length 600 shorter than window 5000"

    @pytest.mark.parametrize("argv", [
        ["ingest"],
        ["agg-gauss", "--delta-ts", "60,1440"],
    ])
    def test_output_clashing_with_json_sidecar_usage_error(self, tmp_path, argv,
                                                           ticks_3day_path):
        out = tmp_path / "out.json"
        with pytest.raises(SystemExit) as exc:
            run(argv + ["--input", str(ticks_3day_path), "-o", str(out)])
        assert exc.value.code == 2
        assert not out.exists()
        # checked before any input is read: a missing input gives the same exit
        with pytest.raises(SystemExit) as exc:
            run(argv + ["--input", str(tmp_path / "missing.csv"), "-o", str(out)])
        assert exc.value.code == 2


def _ticks_csv(n_days, seed):
    """Ticks every 10 minutes with a Gaussian random-walk log price."""
    rng = np.random.default_rng(seed)
    n = n_days * 144
    prices = 100.0 * np.exp(np.cumsum(rng.normal(0.0, 1e-3, n)))
    return "".join(f"{i * 600},{format(p, '.17g')},1\n" for i, p in enumerate(prices))


_MFDFA_FLAGS = ["--fit-min", "10", "--fit-max", "40", "--s-min", "8", "--s-max", "50",
                "--n-scales", "8", "--detrend-order", "2", "--degree-q", "3"]

# subcommand: (input arguments, non-default settings, output)
REPLAY_CASES = {
    "ingest": (["--input", "{ticks}"], ["--delta-t", "60", "--outlier-threshold", "2.5",
                                        "--outlier-mode", "symmetric"], "r.csv"),
    "stats": (["--input", "{returns}"], ["--s0", "1.5", "--r-bar-mode", "literal",
                                         "--volatility-output", "vol.csv"], "stats.json"),
    "agg-gauss": (["--input", "{ticks}"], ["--delta-ts", "60,360,1440", "--period-min", "60",
                                           "--period-max", "360", "--min-nobs", "5"],
                  "agg.csv"),
    "tgarch": (["--input", "{returns}"], ["--dist", "normal"], "fit.json"),
    "mfdfa": (["--input", "{returns}"], _MFDFA_FLAGS, "mf"),
    "rolling": (["--input", "{returns}"], ["--estimator", "mfdfa", "--window", "200",
                                           "--step", "50", *_MFDFA_FLAGS], "track.csv"),
    "join": (["--inputs", "{track}", "{track}"], [], "joined.csv"),
    "simulate": ([], ["--model", "tgarch", "--n", "300", "--seed", "7", "--levels", "5",
                      "--a", "0.6", "--mu", "0.01", "--c1", "0.05", "--omega", "0.3",
                      "--alpha", "0.05", "--beta", "0.85", "--gamma", "0.02",
                      "--dist", "ged", "--shape", "1.3"], "sim.csv"),
}


def test_mfdfa_fit_range_leaves_agg_gauss_periods(tmp_path):
    """fit_min/fit_max are MF-DFA scales in bars; agg-gauss ignores them."""
    ticks = tmp_path / "ticks.csv"
    ticks.write_text(_ticks_csv(10, seed=1))
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"fit_min": 20, "fit_max": 100}))
    argv = ["agg-gauss", "--input", str(ticks), "--delta-ts", "5,30,60,1440",
            "--min-nobs", "5"]
    assert run([*argv, "--config", str(cfg), "-o", str(tmp_path / "a.csv")]) == 0
    assert run([*argv, "-o", str(tmp_path / "b.csv")]) == 0
    summary = json.loads((tmp_path / "a.json").read_text())
    assert summary["fit_range"] == [5, 1440]
    assert summary == json.loads((tmp_path / "b.json").read_text())


@pytest.mark.parametrize("subcommand", sorted(REPLAY_CASES))
def test_manifest_config_replays_run(subcommand, tmp_path, monkeypatch):
    """Re-running with only the inputs, -o and the manifest's config block as
    --config reproduces every output byte for byte."""
    data = tmp_path / "data"
    data.mkdir()
    paths = {"ticks": data / "ticks.csv", "returns": data / "returns.csv",
             "track": data / "track.csv"}
    paths["ticks"].write_text(_ticks_csv(10, seed=1))
    run(["simulate", "--model", "gaussian", "--n", "400", "--seed", "2",
         "-o", str(paths["returns"])])
    run(["rolling", "--input", str(paths["returns"]), "--estimator", "stats",
         "--window", "100", "--step", "50", "-o", str(paths["track"])])
    inputs, settings, output = REPLAY_CASES[subcommand]
    inputs = [arg.format(**paths) for arg in inputs]

    def outputs(workdir, argv):
        workdir.mkdir()
        monkeypatch.chdir(workdir)  # relative output paths land in workdir
        assert run([subcommand, *inputs, *argv, "-o", output]) == 0
        manifest = json.loads((workdir / f"{output}.manifest.json").read_text())
        files = {p.name: p.read_bytes() for p in workdir.iterdir()
                 if not p.name.endswith(".manifest.json")}
        return manifest, files

    manifest, first = outputs(tmp_path / "first", settings)
    config = tmp_path / "config.json"
    config.write_text(json.dumps(manifest["config"]))
    replayed, second = outputs(tmp_path / "second", ["--config", str(config)])
    assert replayed["config"] == manifest["config"]
    assert first and second == first


@pytest.mark.parametrize("flags,fit_range", [
    (["--period-min", "30"], [30, 1440]),
    (["--period-max", "60"], [5, 60]),
    (["--period-min", "30", "--period-max", "1440"], [30, 1440]),
])
def test_agg_gauss_one_sided_period_range(tmp_path, flags, fit_range):
    """A missing end of the kurtosis-fit range is the shortest or longest
    period kept, as --help says."""
    ticks = tmp_path / "ticks.csv"
    ticks.write_text(_ticks_csv(10, seed=1))
    argv = ["agg-gauss", "--input", str(ticks), "--delta-ts", "5,30,60,1440",
            "--min-nobs", "5"]
    assert run([*argv, *flags, "-o", str(tmp_path / "a.csv")]) == 0
    assert run([*argv, "--period-min", str(fit_range[0]), "--period-max", str(fit_range[1]),
                "-o", str(tmp_path / "b.csv")]) == 0
    summary = json.loads((tmp_path / "a.json").read_text())
    assert summary["fit_range"] == fit_range
    assert summary == json.loads((tmp_path / "b.json").read_text())


def test_agg_gauss_without_slope_says_why(tmp_path):
    """A fit range holding fewer than two kept periods gives a null slope and
    a warning record naming the range."""
    ticks = tmp_path / "ticks.csv"
    ticks.write_text(_ticks_csv(10, seed=1))
    assert run(["agg-gauss", "--input", str(ticks), "--delta-ts", "5,60,1440",
                "--period-min", "30", "--period-max", "59", "--min-nobs", "5",
                "-o", str(tmp_path / "a.csv")]) == 0
    summary = json.loads((tmp_path / "a.json").read_text())
    assert summary["slope"] is None and summary["slope_se"] is None
    assert summary["warnings"] == [{
        "fit_range": [30, 59],
        "reason": "no slope: 0 kept period(s) in the fit range 30-59 minutes (< 2)"}]


def test_agg_gauss_with_two_periods_says_why_slope_se_is_null(tmp_path):
    """Two kept periods in the fit range give a slope, and a null slope_se
    with a warning record naming the range."""
    ticks = tmp_path / "ticks.csv"
    ticks.write_text(_ticks_csv(10, seed=1))
    assert run(["agg-gauss", "--input", str(ticks), "--delta-ts", "5,60", "--min-nobs", "5",
                "-o", str(tmp_path / "a.csv")]) == 0
    summary = json.loads((tmp_path / "a.json").read_text())
    assert summary["slope"] is not None and summary["slope_se"] is None
    assert summary["warnings"] == [{
        "fit_range": [5, 60],
        "reason": "no slope_se: 2 kept periods in the fit range 5-60 minutes "
                  "leave no residual degree of freedom"}]


def test_ingest_reads_a_pipe(tmp_path, read_fifo):
    """`ingest --input <(zcat ticks.csv.gz)` reads its pipe once and writes
    what it writes for the file."""
    ticks = tmp_path / "ticks.csv"
    ticks.write_text(_ticks_csv(10, seed=1))
    argv = ["ingest", "--delta-t", "60"]
    # the pipe first: a cached parse of the file would let it skip the parse
    assert read_fifo(ticks.read_text(), lambda path: run(
        [*argv, "--input", str(path), "-o", str(tmp_path / "pipe.csv")])) == 0
    assert run([*argv, "--input", str(ticks), "-o", str(tmp_path / "file.csv")]) == 0
    for suffix in (".csv", ".json"):
        assert (tmp_path / f"pipe{suffix}").read_bytes() == (tmp_path / f"file{suffix}").read_bytes()


def test_tick_cache_leaves_outputs_unchanged(tmp_path, tick_cache_home, monkeypatch):
    """The tick-reading runs of the benchmark pipeline write the same bytes,
    manifests included, with no cache, a cold cache and a warm one."""
    ticks = tmp_path / "ticks.csv"
    ticks.write_text(_ticks_csv(20, seed=1))
    assert ticks.stat().st_size >= ingest._TEXT_READ_BYTES  # a smaller one is not cached
    pipeline = [
        ["ingest", "--input", str(ticks), "--delta-t", "1440", "-o", "daily.csv"],
        ["ingest", "--input", str(ticks), "--delta-t", "5", "-o", "m5.csv"],
        ["agg-gauss", "--input", str(ticks), "--delta-ts",
         "5,10,15,30,60,120,240,480,720,1440", "-o", "agg.csv"],
    ]

    def outputs(name):
        workdir = tmp_path / name
        workdir.mkdir()
        monkeypatch.chdir(workdir)
        for argv in pipeline:
            assert run(argv) == 0
        return {p.name: p.read_bytes() for p in workdir.iterdir()}

    with monkeypatch.context() as no_cache:
        no_cache.delenv("XDG_CACHE_HOME")
        no_cache.delenv("HOME", raising=False)
        reference = outputs("none")
    assert not any(tick_cache_home.iterdir())
    assert outputs("cold") == reference
    assert len(list(tick_cache_home.glob("mfvol/parsed/*.npy"))) == 1

    monkeypatch.setattr(np, "loadtxt", None)  # a warm cache reads no file
    monkeypatch.setattr(ingest, "_parse_tick_lines", None)
    assert outputs("warm") == reference


def test_returns_cache_leaves_outputs_unchanged(tmp_path, tick_cache_home, monkeypatch):
    """The returns-reading subcommands write the same bytes, manifests
    included, with no cache, a cold cache and a warm one, on a returns file
    large enough to be cached."""
    series = tmp_path / "r.csv"
    assert run(["simulate", "--model", "gaussian", "--n", "3000", "--seed", "4",
                "-o", str(series)]) == 0
    assert series.stat().st_size >= ingest._TEXT_READ_BYTES
    pipeline = [
        ["stats", "--input", str(series), "-o", "stats.json"],
        ["tgarch", "--input", str(series), "--dist", "normal", "-o", "fit.json"],
        ["mfdfa", "--input", str(series), *_MFDFA_FLAGS, "-o", "mf"],
        ["rolling", "--input", str(series), "--estimator", "mfdfa", *_MFDFA_FLAGS,
         "--window", "1000", "--step", "500", "-o", "track.csv"],
    ]

    def outputs(name):
        workdir = tmp_path / name
        workdir.mkdir()
        monkeypatch.chdir(workdir)
        for argv in pipeline:
            assert run(argv) == 0
        return {p.name: p.read_bytes() for p in workdir.iterdir()}

    with monkeypatch.context() as no_cache:
        no_cache.delenv("XDG_CACHE_HOME")
        no_cache.delenv("HOME", raising=False)
        reference = outputs("none")
    assert not any(tick_cache_home.iterdir())
    assert outputs("cold") == reference
    assert len(list(tick_cache_home.glob("mfvol/parsed/*.npy"))) == 1

    monkeypatch.setattr(np, "loadtxt", None)  # a warm cache reads no file
    monkeypatch.setattr(ingest, "_read_return_lines", None)
    assert outputs("warm") == reference


def test_text_io_names_its_encoding(tmp_path, tick_cache_home):
    """Every subcommand runs under -X warn_default_encoding without an
    EncodingWarning from mfvol: no text file follows the locale.  The run is
    a subprocess, which also reads the test's tick cache home."""
    ticks = tmp_path / "ticks.csv"
    ticks.write_text(_ticks_csv(20, seed=1))
    assert ticks.stat().st_size >= ingest._TEXT_READ_BYTES  # a smaller one is not cached
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"min_nobs": 5}))
    runs = [["simulate", "--model", "gaussian", "--n", "300", "-o", "r.csv"],
            ["ingest", "--input", str(ticks), "--delta-t", "60", "-o", "h.csv"],
            ["stats", "--input", "r.csv", "-o", "stats.json"],
            ["agg-gauss", "--input", str(ticks), "--delta-ts", "60,1440",
             "--config", str(config), "-o", "agg.csv"],
            ["tgarch", "--input", "r.csv", "--dist", "normal", "-o", "fit.json"],
            ["mfdfa", "--input", "r.csv", *_MFDFA_FLAGS, "-o", "mf"],
            ["rolling", "--input", "r.csv", "--estimator", "stats", "--window", "100",
             "--step", "100", "-o", "track.csv"],
            ["join", "--inputs", "track.csv", "track.csv", "-o", "joined.csv"]]
    assert {argv[0] for argv in runs} == set(cli.COMMANDS)
    script = ("import json, sys\nfrom mfvol import cli\n"
              "sys.exit(max(cli.main(argv) for argv in json.loads(sys.argv[1])))")
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parents[1]))
    proc = subprocess.run(
        [sys.executable, "-X", "warn_default_encoding", "-W", "always::EncodingWarning",
         "-c", script, json.dumps(runs)],
        cwd=tmp_path, capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    package = str(Path(cli.__file__).parent)
    assert [ln for ln in proc.stderr.splitlines()
            if "EncodingWarning" in ln and package in ln] == []
    assert len(list(tick_cache_home.glob("mfvol/parsed/*.npy"))) == 1
