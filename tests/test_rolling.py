import numpy as np
import pytest

from mfvol import ingest, rolling


def make_returns(n, seed=0, step_seconds=86400):
    rng = np.random.default_rng(seed)
    times = np.arange(1, n + 1, dtype=np.int64) * step_seconds
    return ingest.ReturnSeries(1440, times, rng.standard_normal(n))


def mean_estimator(values):
    return {"mean": float(np.mean(values))}


class TestWindowArithmetic:
    def test_paper_window_count(self):
        assert rolling.n_windows(3188, 548, 30) == 89

    def test_single_window(self):
        series = make_returns(548)
        for step in (1, 30, 548):
            track = rolling.rolling_apply(
                series, rolling.RollingConfig(window=548, step=step), mean_estimator
            )
            assert len(track.rows) == 1

    def test_too_short(self):
        with pytest.raises(ValueError):
            rolling.rolling_apply(
                make_returns(547), rolling.RollingConfig(window=548, step=30),
                mean_estimator,
            )

    def test_window_coverage(self):
        series = make_returns(100)
        track = rolling.rolling_apply(
            series, rolling.RollingConfig(window=20, step=7), mean_estimator
        )
        assert len(track.rows) == (100 - 20) // 7 + 1
        starts = [r["window_start"] for r in track.rows]
        assert starts == sorted(starts)
        diffs = np.diff([s // 86400 for s in starts])
        assert np.all(diffs == 7)


class TestEstimatorHandling:
    def test_failures_recorded(self):
        def flaky(values):
            if values[0] > 0:
                raise RuntimeError("no convergence")
            return {"mean": float(np.mean(values))}

        series = make_returns(60, seed=1)
        track = rolling.rolling_apply(
            series, rolling.RollingConfig(window=10, step=10), flaky
        )
        statuses = {r["status"] for r in track.rows}
        assert "failed" in statuses and "ok" in statuses
        failed = [r for r in track.rows if r["status"] == "failed"]
        assert all("no convergence" in r["error"] for r in failed)
        assert len(track.rows) == 6  # failures never dropped

    def test_rerun_identical(self):
        series = make_returns(200, seed=2)
        cfg = rolling.RollingConfig(window=50, step=10)
        t1 = rolling.rolling_apply(series, cfg, mean_estimator)
        t2 = rolling.rolling_apply(series, cfg, mean_estimator)
        assert t1.rows == t2.rows

    def test_plain_sequence_uses_indices(self):
        track = rolling.rolling_apply(
            np.zeros(30), rolling.RollingConfig(window=10, step=10), mean_estimator
        )
        assert track.rows[0]["window_start"] == 0
        assert track.rows[0]["window_end"] == 9


class TestJoin:
    def test_full_overlap(self):
        series = make_returns(3188, seed=4)
        cfg = rolling.RollingConfig(window=548, step=30)
        t1 = rolling.rolling_apply(series, cfg, mean_estimator)
        t2 = rolling.rolling_apply(series, cfg,
                                   lambda v: {"sd": float(np.std(v))})
        joined = rolling.join_measures([t1, t2])
        assert len(joined.rows) == 89
        assert {"window_end", "mean", "sd"} <= set(joined.columns)

    def test_grid_containment(self):
        series = make_returns(800, seed=5)
        coarse = rolling.rolling_apply(
            series, rolling.RollingConfig(window=548, step=30), mean_estimator
        )
        fine = rolling.rolling_apply(
            series, rolling.RollingConfig(window=548, step=1),
            lambda v: {"sd": float(np.std(v))},
        )
        joined = rolling.join_measures([coarse, fine])
        assert len(joined.rows) == len(coarse.rows)

    def test_disjoint_error(self):
        t1 = rolling.RollingTrack(10, 1, [
            {"window_start": 0, "window_end": 9, "status": "ok", "payload": {"x": 1.0}}
        ])
        t2 = rolling.RollingTrack(10, 1, [
            {"window_start": 100, "window_end": 109, "status": "ok", "payload": {"x": 2.0}}
        ])
        with pytest.raises(ValueError, match="no overlapping"):
            rolling.join_measures([t1, t2])

    def test_failed_rows_excluded_and_counted(self):
        t1 = rolling.RollingTrack(10, 1, [
            {"window_start": 0, "window_end": 9, "status": "ok", "payload": {"x": 1.0}},
            {"window_start": 1, "window_end": 10, "status": "ok", "payload": {"x": 2.0}},
        ])
        t2 = rolling.RollingTrack(10, 1, [
            {"window_start": 0, "window_end": 9, "status": "ok", "payload": {"y": 3.0}},
            {"window_start": 1, "window_end": 10, "status": "failed", "error": "x"},
        ])
        joined = rolling.join_measures([t1, t2], names=["a", "b"])
        assert len(joined.rows) == 1
        assert joined.dropped == {"a": 1, "b": 0}


class TestCsv:
    def test_roundtrip(self):
        series = make_returns(100, seed=6)
        track = rolling.rolling_apply(
            series, rolling.RollingConfig(window=20, step=20), mean_estimator
        )
        text = rolling.track_to_csv(track)
        assert text.splitlines()[0] == "window_start,window_end,mean,status"
        back = rolling.read_track_csv(text)
        assert [r["window_end"] for r in back.rows] == \
            [r["window_end"] for r in track.rows]
        assert back.rows[0]["payload"]["mean"] == track.rows[0]["payload"]["mean"]

    def test_all_failed_track_roundtrip(self):
        def failing(values):
            raise ValueError("degenerate window")

        track = rolling.rolling_apply(
            make_returns(60, seed=7), rolling.RollingConfig(window=20, step=20), failing
        )
        text = rolling.track_to_csv(track)
        lines = text.splitlines()
        assert lines[0] == "window_start,window_end,status"
        assert all(len(ln.split(",")) == 3 for ln in lines)
        back = rolling.read_track_csv(text)
        assert [r["status"] for r in back.rows] == ["failed"] * 3
        assert all("payload" not in r for r in back.rows)
