import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mfvol import ingest, stats


class TestDescriptive:
    def test_alternating_two_point_sample(self):
        x = np.tile([-1.0, 1.0], 50)
        d = stats.descriptive(x)
        assert d.mean == pytest.approx(0.0, abs=1e-15)
        assert d.skewness == pytest.approx(0.0, abs=1e-12)
        assert d.kurtosis == pytest.approx(1.0, rel=1e-12)
        assert d.nobs == 100

    def test_gaussian_kurtosis(self):
        x = np.random.default_rng(11).standard_normal(100_000)
        d = stats.descriptive(x)
        assert abs(d.kurtosis - 3.0) < 0.1

    def test_zero_variance(self):
        with pytest.raises(stats.DegenerateSampleError):
            stats.descriptive(np.ones(10))

    def test_too_short(self):
        with pytest.raises(ValueError):
            stats.descriptive([1.0, 2.0, 3.0])

    def test_permutation_invariance(self):
        rng = np.random.default_rng(3)
        x = rng.standard_normal(500)
        d1 = stats.descriptive(x)
        d2 = stats.descriptive(x[rng.permutation(500)])
        assert d1.mean == pytest.approx(d2.mean, rel=1e-12)
        assert d1.kurtosis == pytest.approx(d2.kurtosis, rel=1e-12)
        assert d1.se_kurtosis == pytest.approx(d2.se_kurtosis, rel=1e-9)

    @pytest.mark.parametrize("bad", [np.nan, -np.inf])
    def test_non_finite_input(self, bad):
        with pytest.raises(ValueError, match="non-finite"):
            stats.descriptive([1.0, 2.0, bad, 4.0, 5.0])

    def test_overflowing_moments_raise(self):
        # finite input whose moments leave the float range: NumPy gives inf or
        # NaN, m2**2 overflows at 1e80, the fourth moment alone can overflow
        # while m2**2 stays finite (2e77), and m2**2 underflows to 0 at 1e-100
        for values in ([1e200, -1e200, 3e200, 0.0, 2e200],
                       [1e80, -1e80, 3e80, 0.0, 2e80],
                       [2e77, 0.0, 0.0, 0.0, 0.0],
                       np.random.default_rng(0).normal(0, 1, 50) * 1e-100):
            with np.errstate(over="ignore", invalid="ignore"):
                with pytest.raises(ValueError, match="Pearson"):
                    stats.descriptive(values)

    def test_pearson_inequality_holds(self):
        for seed in range(5):
            x = np.random.default_rng(seed).exponential(1.0, 300)
            d = stats.descriptive(x)
            assert d.kurtosis >= 1.0 + d.skewness**2 - 1e-12

    def test_fast_jackknife_matches_loop(self):
        x = np.random.default_rng(5).standard_normal(60)
        d = stats.descriptive(x)

        def kurt(v):
            y = v - v.mean()
            return (y**4).mean() / (y**2).mean() ** 2

        def skew(v):
            y = v - v.mean()
            return (y**3).mean() / (y**2).mean() ** 1.5

        assert d.se_kurtosis == pytest.approx(stats.jackknife_se(x, kurt), rel=1e-9)
        assert d.se_skewness == pytest.approx(stats.jackknife_se(x, skew), rel=1e-9)
        assert d.se_sd == pytest.approx(
            stats.jackknife_se(x, lambda v: v.std(ddof=1)), rel=1e-9
        )

    def test_subsample_above_variance_floor_matches_loop(self):
        # dropping the outlier leaves c2/t2 = 1.1e-5, above the 1e-6 floor
        x = np.r_[np.tile([1.0, -1.0], 50), 3e3]
        d = stats.descriptive(x)

        def kurt(v):
            y = v - v.mean()
            return (y**4).mean() / (y**2).mean() ** 2

        assert d.se_kurtosis == pytest.approx(stats.jackknife_se(x, kurt), rel=1e-5)

    @pytest.mark.parametrize("values", [
        np.r_[np.tile([1.0, -1.0], 50), 3e4],  # c2/t2 = 1.1e-7, below the floor
        [2.0, 2.0, 2.0, 2.0, 2.0, 9.0],  # c2 is 0; rounding leaves c2/t2 = 2e-17
    ], ids=["below_floor", "constant_up_to_rounding"])
    def test_subsample_below_variance_floor_raises(self, values):
        with pytest.raises(ValueError, match="replicate is not finite"):
            stats.descriptive(values)


    @pytest.mark.parametrize("scale", [1.0, 0.01])
    def test_matches_power_form(self, scale):
        # descriptive builds y**3 and y**4 from products; the tolerance
        # against the ** form it replaced is 1e-12 relative
        x = scale * np.random.default_rng(9).standard_t(3, 20_000)
        n = len(x)
        y = x - x.sum() / n
        t2, t3, t4 = ((y**p).sum() for p in (2, 3, 4))
        d = y / (n - 1)
        c2 = (t2 - y**2) - 2 * d * y + (n - 1) * d**2
        c3 = (t3 - y**3) + 3 * d * (t2 - y**2) - 3 * d**2 * y + (n - 1) * d**3
        c4 = ((t4 - y**4) + 4 * d * (t3 - y**3) + 6 * d**2 * (t2 - y**2)
              - 4 * d**3 * y + (n - 1) * d**4)
        m2 = c2 / (n - 1)
        replicates = {"se_mean": x.mean() - d, "se_sd": np.sqrt(c2 / (n - 2)),
                      "se_skewness": c3 / (n - 1) / m2**1.5,
                      "se_kurtosis": c4 / (n - 1) / m2**2}
        expected = {"sd": np.sqrt(t2 / (n - 1)), "skewness": (t3 / n) / (t2 / n) ** 1.5,
                    "kurtosis": (t4 / n) / (t2 / n) ** 2}
        expected.update({k: np.sqrt((n - 1) / n * ((r - r.mean()) ** 2).sum())
                         for k, r in replicates.items()})
        got = stats.descriptive(x).as_dict()
        for key, value in expected.items():
            assert got[key] == pytest.approx(value, rel=1e-12), key


class TestJackknife:
    def test_mean_identity(self):
        x = np.random.default_rng(1).standard_normal(50)
        se = stats.jackknife_se(x, np.mean)
        assert se == pytest.approx(x.std(ddof=1) / np.sqrt(50), rel=1e-12)

    def test_constant_sample(self):
        assert stats.jackknife_se(np.full(10, 3.0), np.mean) == 0.0

    def test_three_point_hand_computation(self):
        se = stats.jackknife_se([1.0, 2.0, 3.0], np.mean)
        assert se == pytest.approx(1.0 / np.sqrt(3.0), rel=1e-12)

    def test_failing_statistic_propagates_index(self):
        def bad(v):
            raise ZeroDivisionError("boom")

        with pytest.raises(RuntimeError, match="subsample 0"):
            stats.jackknife_se([1.0, 2.0], bad)

    @given(st.lists(st.floats(-100, 100), min_size=3, max_size=40))
    @settings(max_examples=30, deadline=None)
    def test_mean_identity_property(self, values):
        x = np.asarray(values)
        se = stats.jackknife_se(x, np.mean)
        expected = x.std(ddof=1) / np.sqrt(len(x))
        assert se == pytest.approx(expected, rel=1e-9, abs=1e-12)


class TestVolatilitySeries:
    def test_constant_returns(self):
        v = stats.volatility_series(np.full(10, 2.5), s0=1.0)
        assert np.allclose(v.values, 1.0, atol=1e-12)

    def test_symmetric_magnitudes(self):
        v = stats.volatility_series(np.array([3.0, -3.0]), s0=0.0)
        assert np.allclose(v.values, [0.0, 0.0, 0.0], atol=1e-12)

    def test_telescoping_endpoint(self):
        r = np.random.default_rng(9).standard_normal(1000)
        v = stats.volatility_series(r, s0=5.0)
        assert v.values[-1] == pytest.approx(5.0, abs=1e-9)
        assert len(v.values) == 1001

    def test_literal_mode(self):
        r = np.array([3.0, -3.0])
        v = stats.volatility_series(r, s0=0.0, r_bar_mode="literal")
        assert v.r_bar == 0.0
        assert list(v.values) == [0.0, 3.0, 6.0]

    def test_accepts_return_series(self):
        rs = ingest.ReturnSeries(1440, np.array([1, 2], dtype=np.int64),
                                 np.array([1.0, -1.0]))
        v = stats.volatility_series(rs)
        assert len(v.values) == 3

    def test_empty_error(self):
        with pytest.raises(ValueError):
            stats.volatility_series(np.array([]))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_input(self, bad):
        r = np.random.default_rng(0).standard_normal(300)
        r[123] = bad
        with pytest.raises(ValueError, match="non-finite .* index 123"):
            stats.volatility_series(r)


def _gaussian_ticks(n_days, seed, per_min_sd=0.05):
    """Minute-spaced ticks with IID Gaussian minute log-returns."""
    rng = np.random.default_rng(seed)
    n = n_days * 1440
    logp = np.cumsum(rng.normal(0.0, per_min_sd / 100.0, n))
    prices = 100.0 * np.exp(logp)
    ts = np.arange(n, dtype=np.int64) * 60
    return ingest.TickSeries(ts, prices, np.ones(n))


class TestAggGaussScan:
    def test_gaussian_ticks_stay_gaussian(self):
        ticks = _gaussian_ticks(1500, seed=2)
        scan = stats.agg_gaussianity_scan(ticks, [60, 360, 1440], min_nobs=200)
        assert len(scan.rows) == 3
        for row in scan.rows:
            assert abs(row["kurtosis"] - 3.0) < 0.35
        assert abs(scan.slope) < 0.15

    def test_single_delta_t_slope_absent(self):
        ticks = _gaussian_ticks(100, seed=3)
        scan = stats.agg_gaussianity_scan(ticks, [60], min_nobs=200)
        assert len(scan.rows) == 1
        assert scan.slope is None

    def test_insufficient_rows_warned(self):
        ticks = _gaussian_ticks(10, seed=4)
        scan = stats.agg_gaussianity_scan(ticks, [60, 1440], min_nobs=200)
        assert any(w["delta_t"] == 1440 for w in scan.warnings)
        assert all(r["delta_t"] != 1440 for r in scan.rows)

    def test_repeated_period_raises(self):
        ticks = _gaussian_ticks(10, seed=4)
        with pytest.raises(ValueError, match="period 60 minutes is listed more than once"):
            stats.agg_gaussianity_scan(ticks, [60, 1440, 60], min_nobs=5)

    def test_two_periods_leave_no_slope_se(self):
        ticks = _gaussian_ticks(10, seed=4)
        scan = stats.agg_gaussianity_scan(ticks, [60, 1440], min_nobs=5)
        assert len(scan.rows) == 2
        assert scan.slope is not None and scan.slope_se is None
        assert scan.warnings == [{"fit_range": [60, 1440], "reason": (
            "no slope_se: 2 kept periods in the fit range 60-1440 minutes "
            "leave no residual degree of freedom")}]

    def test_period_of_one_bar_warned(self):
        ticks = _gaussian_ticks(1, seed=6)  # one day from midnight: one daily bar
        scan = stats.agg_gaussianity_scan(ticks, [60, 1440], min_nobs=5)
        assert [r["delta_t"] for r in scan.rows] == [60]
        assert scan.warnings[0] == {"delta_t": 1440, "reason": "fewer than 2 bars"}

    def test_constant_prices_warned(self):
        n = 600
        ticks = ingest.TickSeries(60 * np.arange(n, dtype=np.int64), np.full(n, 100.0),
                                  np.ones(n))
        scan = stats.agg_gaussianity_scan(ticks, [5, 60], min_nobs=5)
        assert scan.rows == []
        assert scan.warnings[:2] == [{"delta_t": 5, "reason": "zero variance"},
                                     {"delta_t": 60, "reason": "zero variance"}]

    def test_rows_ordered_and_csv(self):
        ticks = _gaussian_ticks(400, seed=5)
        scan = stats.agg_gaussianity_scan(ticks, [360, 60], min_nobs=100)
        assert [r["delta_t"] for r in scan.rows] == [60, 360]
        csv = stats.scan_to_csv(scan)
        assert csv.splitlines()[0] == "delta_t,kurtosis,se,nobs"
        assert len(csv.splitlines()) == 3
