import numpy as np
import pytest

from mfvol import ingest, mfdfa, rolling


def make_returns(n, seed=0, step_seconds=86400):
    rng = np.random.default_rng(seed)
    times = np.arange(1, n + 1, dtype=np.int64) * step_seconds
    return ingest.ReturnSeries(1440, times, rng.standard_normal(n))


@rolling.each_window
def mean_estimator(values):
    return {"mean": float(np.mean(values))}


class TestWindowArithmetic:
    def test_paper_window_count(self):
        assert rolling.n_windows(3188, 548, 30) == 89

    def test_single_window(self):
        series = make_returns(548)
        for step in (1, 30, 548):
            track = rolling.rolling_apply(
                series, 548, step, mean_estimator
            )
            assert len(track.rows) == 1

    def test_too_short(self):
        with pytest.raises(ValueError):
            rolling.rolling_apply(
                make_returns(547), 548, 30,
                mean_estimator,
            )

    def test_window_coverage(self):
        series = make_returns(100)
        track = rolling.rolling_apply(
            series, 20, 7, mean_estimator
        )
        assert len(track.rows) == (100 - 20) // 7 + 1
        starts = [r["window_start"] for r in track.rows]
        assert starts == sorted(starts)
        diffs = np.diff([s // 86400 for s in starts])
        assert np.all(diffs == 7)


class TestEstimatorHandling:
    def test_failures_recorded(self):
        @rolling.each_window
        def flaky(values):
            if values[0] > 0:
                raise RuntimeError("no convergence")
            return {"mean": float(np.mean(values))}

        series = make_returns(60, seed=1)
        track = rolling.rolling_apply(
            series, 10, 10, flaky
        )
        statuses = {r["status"] for r in track.rows}
        assert "failed" in statuses and "ok" in statuses
        failed = [r for r in track.rows if r["status"] == "failed"]
        assert all("no convergence" in r["error"] for r in failed)
        assert len(track.rows) == 6  # failures never dropped

    def test_rerun_identical(self):
        series = make_returns(200, seed=2)
        window, step = 50, 10
        t1 = rolling.rolling_apply(series, window, step, mean_estimator)
        t2 = rolling.rolling_apply(series, window, step, mean_estimator)
        assert t1.rows == t2.rows

    def test_plain_sequence_uses_indices(self):
        track = rolling.rolling_apply(
            np.zeros(30), 10, 10, mean_estimator
        )
        assert track.rows[0]["window_start"] == 0
        assert track.rows[0]["window_end"] == 9


class TestWindowStack:
    def test_estimator_gets_read_only_view_of_every_window(self):
        series = make_returns(100, seed=3)
        seen = []

        def estimator(windows):
            seen.append(windows)
            return [{"first": float(w[0])} for w in windows]

        track = rolling.rolling_apply(series, 20, 7,
                                      estimator)
        (windows,) = seen
        assert windows.shape == ((100 - 20) // 7 + 1, 20)
        assert np.shares_memory(windows, series.values)
        assert not windows.flags.writeable
        assert np.array_equal(windows[3], series.values[21:41])
        assert [r["payload"]["first"] for r in track.rows] == list(series.values[::7][:12])

    def test_outcome_count_must_match(self):
        with pytest.raises(ValueError, match="2 outcomes for 9 windows"):
            rolling.rolling_apply(make_returns(100), 20, 10,
                                  lambda windows: [{}, {}])

    @pytest.mark.parametrize("window, step", [(0, 1), (-3, 1), (10, 0)])
    def test_non_positive_window_or_step(self, window, step):
        with pytest.raises(ValueError, match="positive"):
            rolling.n_windows(50, window, step)
        with pytest.raises(ValueError, match="positive"):
            rolling.rolling_apply(make_returns(50), window, step, mean_estimator)

    def test_batched_mfdfa_rows_match_per_window_rows(self):
        """A window with a NaN and a window of constant returns become failure
        rows with the per-window path's error text; the rest agree within the
        MF-DFA tolerances."""
        rng = np.random.default_rng(11)
        times = np.arange(1, 621, dtype=np.int64) * 86400
        values = rng.standard_normal(620)
        values[0] = np.nan
        values[300:600] = 0.5
        series = ingest.ReturnSeries(1440, times, values)
        window, step = 280, 9
        mf = mfdfa.MfdfaConfig(s_grid=mfdfa.scale_grid(16, 128), fit_range=(20, 100))

        def one(w):
            result = mfdfa.analyze(w, mf)
            return {k: result[k] for k in ("h2", "dh", "dalpha")}

        batched = rolling.rolling_apply(series, window, step,
                                        lambda w: mfdfa.analyze_windows(w, mf))
        single = rolling.rolling_apply(series, window, step, rolling.each_window(one))
        failed = [r["error"] for r in batched.rows if r["status"] == "failed"]
        assert failed[0].startswith("ValueError: returns contain 1 non-finite value(s)")
        assert "ValueError: all segments have zero variance at s=16" in failed
        for got, want in zip(batched.rows, single.rows, strict=True):
            assert got.keys() == want.keys()
            assert (got["status"], got.get("error")) == (want["status"], want.get("error"))
            for key, tol in (("h2", 1e-13), ("dh", 1e-13), ("dalpha", 1e-12)):
                if "payload" in got:
                    assert abs(got["payload"][key] - want["payload"][key]) <= tol * max(
                        1.0, abs(want["payload"][key]))


class TestJoin:
    def test_full_overlap(self):
        series = make_returns(3188, seed=4)
        window, step = 548, 30
        t1 = rolling.rolling_apply(series, window, step, mean_estimator)
        t2 = rolling.rolling_apply(series, window, step,
                                   rolling.each_window(lambda v: {"sd": float(np.std(v))}))
        joined = rolling.join_measures([t1, t2])
        assert len(joined) == 89
        assert all(list(row) == ["window_end", "mean", "sd"] for row in joined)

    def test_grid_containment(self):
        series = make_returns(800, seed=5)
        coarse = rolling.rolling_apply(
            series, 548, 30, mean_estimator
        )
        fine = rolling.rolling_apply(
            series, 548, 1,
            rolling.each_window(lambda v: {"sd": float(np.std(v))}),
        )
        joined = rolling.join_measures([coarse, fine])
        assert len(joined) == len(coarse.rows)

    def test_disjoint_error(self):
        t1 = rolling.RollingTrack([
            {"window_start": 0, "window_end": 9, "status": "ok", "payload": {"x": 1.0}}
        ])
        t2 = rolling.RollingTrack([
            {"window_start": 100, "window_end": 109, "status": "ok", "payload": {"x": 2.0}}
        ])
        with pytest.raises(ValueError, match="no overlapping"):
            rolling.join_measures([t1, t2])

    def test_failed_rows_excluded(self):
        t1 = rolling.RollingTrack([
            {"window_start": 0, "window_end": 9, "status": "ok", "payload": {"x": 1.0}},
            {"window_start": 1, "window_end": 10, "status": "ok", "payload": {"x": 2.0}},
        ])
        t2 = rolling.RollingTrack([
            {"window_start": 0, "window_end": 9, "status": "ok", "payload": {"y": 3.0}},
            {"window_start": 1, "window_end": 10, "status": "failed", "error": "x"},
        ])
        joined = rolling.join_measures([t1, t2], names=["a", "b"])
        assert joined == [{"window_end": 9, "x": 1.0, "y": 3.0}]

    @pytest.mark.parametrize("names, column", [(["t", "t", "t"], "t_h2"),
                                               (["a", "b", "b"], "b_h2")])
    def test_a_column_written_twice_raises(self, names, column):
        track = rolling.RollingTrack([
            {"window_start": 0, "window_end": 9, "status": "ok", "payload": {"h2": 1.0}}
        ])
        # the second track's column is prefixed; the third's prefix would collide
        with pytest.raises(ValueError, match=f"^column {column} would be written twice"):
            rolling.join_measures([track] * 3, names=names)
        joined = rolling.join_measures([track] * 3, names=["a", "b", "c"])
        assert joined == [{"window_end": 9, "h2": 1.0, "b_h2": 1.0, "c_h2": 1.0}]
        assert list(rolling.join_measures([track] * 2, names=["t", "t"])[0]) == [
            "window_end", "h2", "t_h2"]

    @pytest.mark.parametrize("count", [0, 1])
    def test_fewer_than_two_tracks_raise(self, count):
        track = rolling.RollingTrack([
            {"window_start": 0, "window_end": 9, "status": "ok", "payload": {"h2": 1.0}}
        ])
        with pytest.raises(ValueError, match="need at least 2 tracks"):
            rolling.join_measures([track] * count)

    def test_csv_columns_in_order_of_first_appearance(self):
        # a track's rows need not share their keys: a cell a row lacks is empty
        rows = [{"window_end": 9, "h2": 0.5}, {"window_end": 19, "dh": 0.25, "h2": 1.0}]
        assert rolling.joined_to_csv(rows) == "window_end,h2,dh\n9,0.5,\n19,1,0.25\n"


class TestCsv:
    def test_roundtrip(self):
        series = make_returns(100, seed=6)
        track = rolling.rolling_apply(
            series, 20, 20, mean_estimator
        )
        text = rolling.track_to_csv(track)
        assert text.splitlines()[0] == "window_start,window_end,mean,status"
        back = rolling.read_track_csv(text)
        assert [r["window_end"] for r in back.rows] == \
            [r["window_end"] for r in track.rows]
        assert back.rows[0]["payload"]["mean"] == track.rows[0]["payload"]["mean"]

    def test_all_failed_track_roundtrip(self):
        @rolling.each_window
        def failing(values):
            raise ValueError("degenerate window")

        track = rolling.rolling_apply(
            make_returns(60, seed=7), 20, 20, failing
        )
        text = rolling.track_to_csv(track)
        lines = text.splitlines()
        assert lines[0] == "window_start,window_end,status"
        assert all(len(ln.split(",")) == 3 for ln in lines)
        back = rolling.read_track_csv(text)
        assert [r["status"] for r in back.rows] == ["failed"] * 3
        assert all("payload" not in r for r in back.rows)

    def test_read_returns_the_track_written(self):
        # a failed row's error message is not written, so it reads back empty
        track = rolling.RollingTrack(rows=[
            {"window_start": 0, "window_end": 9, "status": "ok",
             "payload": {"h": 0.5, "dh": -1e-300}},
            {"window_start": 5, "window_end": 14, "status": "failed", "error": ""},
            {"window_start": 10, "window_end": 19, "status": "ok", "payload": {"dh": 1 / 3}},
        ])
        assert rolling.read_track_csv(rolling.track_to_csv(track)) == track

    @pytest.mark.parametrize("second", ["2,10,0.7,ok", "2, 10,,failed"])
    def test_repeated_window_end_names_both_lines(self, second):
        text = f"window_start,window_end,h,status\n1,10,0.5,ok\n\n{second}\n"
        with pytest.raises(ValueError, match="^line 4: window_end 10 repeats line 2$"):
            rolling.read_track_csv(text)

    @pytest.mark.parametrize("header", ["window_start,window_end,h2,h2,status",
                                        "window_start,window_end,window_end,status"])
    def test_header_naming_a_column_twice(self, header):
        cells = ",".join(["1"] * (len(header.split(",")) - 1))
        with pytest.raises(ValueError, match="^line 1: the header names column .* twice$"):
            rolling.read_track_csv(f"{header}\n{cells},ok\n")
