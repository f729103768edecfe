import ast
import dataclasses
import itertools
import math
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from mfvol import mfdfa, synth, tgarch
from mfvol._linfit import fit_line


def small_config(**kw):
    cfg = mfdfa.MfdfaConfig(**kw)
    return cfg


class TestProfile:
    def test_endpoint_zero(self):
        r = np.random.default_rng(0).standard_normal(5000)
        y = mfdfa.profile(r)
        assert abs(y[-1]) < 1e-9

    def test_hand_example(self):
        assert list(mfdfa.profile([1.0, -1.0])) == [1.0, 0.0]

    def test_constant_input(self):
        assert np.all(mfdfa.profile(np.full(10, 3.3)) == 0.0)

    def test_too_short(self):
        with pytest.raises(ValueError):
            mfdfa.profile([1.0])

    def test_non_finite_input(self):
        r = np.random.default_rng(0).standard_normal(600)
        r[7] = np.nan
        with pytest.raises(ValueError, match="non-finite"):
            mfdfa.profile(r)
        with pytest.raises(ValueError, match="non-finite"):
            mfdfa.analyze(r)
        # finite, but the profile's squares overflow
        with pytest.raises(ValueError, match="exceeds 1e150"):
            mfdfa.analyze(1e160 * np.random.default_rng(0).standard_normal(600))


class TestFluctuation:
    def test_segment_count_law(self):
        y = np.random.default_rng(1).standard_normal(1000)
        for s in (16, 33, 100):
            basis = mfdfa._segment_basis(s, 3)
            fv = mfdfa._segment_variances(y, s, basis)
            assert len(fv) == 2 * (1000 // s)

    def test_segment_variances_match_polyfit(self):
        # at n = 40,000 every scale takes several chunks of segment rows, one
        # of them holding the last forward and the first backward segments
        for n, order, s in itertools.product((2000, 40_000), (0, 1, 3), (16, 50, 128)):
            y = np.cumsum(np.random.default_rng(42).standard_normal(n) * 2.0)
            got = mfdfa._segment_variances(y, s, mfdfa._segment_basis(s, order))
            ns = len(y) // s
            chunk = mfdfa._SEGMENT_ELEMS // s
            if n > 2000:  # the second chunk straddles the halves, and a third follows
                assert chunk < ns < 2 * chunk < 2 * ns
            starts = [v * s for v in range(ns)] + [len(y) - (ns - v) * s for v in range(ns)]
            x = np.arange(s, dtype=np.float64)
            segs = np.array([y[a:a + s] for a in starts]).T
            fitted = np.vander(x, order + 1) @ np.polyfit(x, segs, order)
            assert_rel(got, np.mean((segs - fitted) ** 2, axis=0), 1e-12)

    def test_segment_chunks_depend_on_n_and_s_only(self):
        # BLAS round-off depends on where a product's rows are split, so a
        # window stacked with others must be split as it is alone; equal bits
        # cannot show that, since most sizes round alike either way
        class Recording:
            """A basis that records the segment rows of each product."""

            def __init__(self, basis):
                self.basis, self.T, self.shape, self.rows = basis, basis.T, basis.shape, []

            def __array_ufunc__(self, ufunc, method, segs, basis, **kwargs):
                # segs @ basis and np.matmul(segs, basis, out=...) both land here
                assert ufunc is np.matmul and method == "__call__" and basis is self
                self.rows.append(segs.shape[-2])
                return ufunc(segs, self.basis, **kwargs)

        n, s = 40_000, 16
        ns, chunk = n // s, mfdfa._SEGMENT_ELEMS // s
        y = np.cumsum(np.random.default_rng(3).standard_normal((7, n)), axis=1)
        alone = mfdfa._segment_variances(y[0], s, mfdfa._segment_basis(s, 1))
        for depth in (1, 3, 7):
            basis = Recording(mfdfa._segment_basis(s, 1))
            got = mfdfa._segment_variances(y[:depth], s, basis)
            assert basis.rows == [chunk, chunk, 2 * ns - 2 * chunk]
            assert np.array_equal(got[0], alone)

    def test_segment_basis_cached_read_only(self):
        basis = mfdfa._segment_basis(50, 3)
        assert mfdfa._segment_basis(50, 3) is basis
        assert not basis.flags.writeable

    def test_pure_cubic_profile_is_error(self):
        i = np.arange(2000, dtype=np.float64)
        prof = 1e-3 * i**3 - 0.5 * i**2 + 2.0 * i - 7.0
        with pytest.raises(ValueError, match="zero variance"):
            mfdfa.fluctuation(prof, small_config())

    def test_monotone_in_q(self):
        prof = mfdfa.profile(np.random.default_rng(2).standard_normal(4000))
        fmat = mfdfa.fluctuation(prof, small_config())
        if not np.any(fmat.excluded):
            diffs = np.diff(fmat.values, axis=0)
            assert np.all(diffs > -1e-12)

    def test_white_noise_h2(self):
        prof = mfdfa.profile(synth.gaussian_noise(2**15, seed=3))
        fmat = mfdfa.fluctuation(prof, small_config())
        curve = mfdfa.generalized_hurst(fmat, (20, 100))
        i = np.argmin(np.abs(curve.q_grid - 2.0))
        assert abs(curve.h[i] - 0.5) < 0.05

    def test_values_positive(self):
        prof = mfdfa.profile(np.random.default_rng(4).standard_normal(2000))
        fmat = mfdfa.fluctuation(prof, small_config())
        assert np.all(fmat.values > 0.0)

    def test_profile_too_short(self):
        with pytest.raises(ValueError, match="too short"):
            mfdfa.fluctuation(np.arange(100, dtype=float), small_config())

    def test_q_zero_alone(self):
        # no positive or negative moment, so no block of exponents
        prof = gaussian_window_profile()
        full = mfdfa.fluctuation(prof, mfdfa.MfdfaConfig())
        alone = mfdfa.fluctuation(prof, mfdfa.MfdfaConfig(q_grid=np.array([0.0])))
        assert np.array_equal(alone.values[0], full.values[mfdfa._grid_index(full.q_grid, 0.0)])

    def test_long_profile_temporaries_are_bounded(self):
        # 5-minute-sized series: the temporaries stay below twice the profile
        prof = np.cumsum(np.random.default_rng(3).standard_normal(200_000))
        cfg = mfdfa.MfdfaConfig(s_grid=mfdfa.scale_grid(16, 4096, 20), fit_range=(16, 4096))
        tracemalloc.start()
        try:
            mfdfa.fluctuation(prof, cfg)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2 * prof.nbytes, peak


class TestGeneralizedHurst:
    def make_power_law_matrix(self, h=0.7):
        q = mfdfa.default_q_grid()
        s = mfdfa.default_s_grid()
        values = np.tile(s.astype(float) ** h, (len(q), 1))
        return mfdfa.FluctuationMatrix(q, s, values, np.zeros(len(s), dtype=int))

    def test_exact_power_law(self):
        curve = mfdfa.generalized_hurst(self.make_power_law_matrix(0.7), (20, 100))
        assert np.max(np.abs(curve.h - 0.7)) < 1e-12

    def test_needs_three_scales(self):
        fmat = self.make_power_law_matrix()
        with pytest.raises(ValueError):
            mfdfa.generalized_hurst(fmat, (16, 17))

    def test_degree_monofractal_zero(self):
        curve = mfdfa.generalized_hurst(self.make_power_law_matrix(), (20, 100))
        assert abs(mfdfa.multifractality_degree(curve, 4.0)) < 1e-12

    def test_degree_off_grid_error(self):
        curve = mfdfa.generalized_hurst(self.make_power_law_matrix(), (20, 100))
        with pytest.raises(ValueError, match="not on the moment grid"):
            mfdfa.multifractality_degree(curve, 4.1234)


class TestSingularitySpectrum:
    def constant_curve(self, H=0.6):
        q = mfdfa.default_q_grid()
        return mfdfa.HurstCurve(q, np.full(len(q), H), np.zeros(len(q)), np.ones(len(q)))

    def test_f_is_one_at_q0(self):
        spec = mfdfa.singularity_spectrum(self.constant_curve())
        i = np.nonzero(np.abs(spec.q_grid) < 1e-12)[0][0]
        assert spec.f[i] == 1.0

    def test_monofractal_spectrum_degenerate(self):
        spec = mfdfa.singularity_spectrum(self.constant_curve(0.6))
        assert np.allclose(spec.alpha, 0.6, atol=1e-12)
        assert np.allclose(spec.f, 1.0, atol=1e-12)
        assert abs(mfdfa.delta_alpha(spec, 4.0)) < 1e-12

    def test_nonuniform_grid_error(self):
        q = np.array([-1.0, 0.0, 0.5])
        curve = mfdfa.HurstCurve(q, np.zeros(3), np.zeros(3), np.ones(3))
        with pytest.raises(ValueError, match="uniform"):
            mfdfa.singularity_spectrum(curve)


def cascade_config():
    # wide scale range: the closed-form exponents emerge over decades of s
    s = np.unique(np.round(np.geomspace(16, 1024, 25)).astype(int))
    return mfdfa.MfdfaConfig(s_grid=s, fit_range=(16, 1024))


class TestCascadeOracle:
    def setup_method(self):
        self.a = 0.75
        series = synth.binomial_cascade(synth.CascadeSpec(levels=14, a=self.a))
        self.result = mfdfa.analyze(series, cascade_config())

    def test_h_matches_analytic(self):
        curve = self.result["hurst"]
        for q in (-4.0, -2.0, -1.0, 0.0, 1.0, 2.0, 4.0):
            i = np.nonzero(np.abs(curve.q_grid - q) < 1e-9)[0][0]
            assert abs(curve.h[i] - synth.cascade_h_analytic(q, self.a)) < 0.05

    def test_degree_matches_analytic(self):
        dh_analytic = (synth.cascade_h_analytic(-4.0, self.a)
                       - synth.cascade_h_analytic(4.0, self.a))
        assert abs(self.result["dh"] - dh_analytic) < 0.07

    def test_spectrum_peak_and_width(self):
        spec = self.result["spectrum"]
        assert abs(np.max(spec.f) - 1.0) < 0.02
        assert self.result["dalpha"] >= self.result["dh"] - 0.02

    def test_f_bounded_above(self):
        assert np.max(self.result["spectrum"].f) <= 1.0 + 0.02


# on the default scale grid, 16 .. 128
FIT_RANGES_PAST_THE_GRID = [(10, 100), (1, 5000), (16, 200)]


class TestConfigValidation:
    def test_scale_vs_order(self):
        with pytest.raises(ValueError):
            mfdfa.MfdfaConfig(s_grid=np.array([4, 8]), detrend_order=3,
                              fit_range=(4, 8)).validate()

    def test_asymmetric_q_grid(self):
        with pytest.raises(ValueError):
            mfdfa.MfdfaConfig(q_grid=np.array([-1.0, 0.0, 2.0])).validate()

    def test_fit_range_outside_grid(self):
        # analyze fits the grid scales inside the range, so a range reaching
        # past the grid is valid while it holds 3 of them
        for fit_range in FIT_RANGES_PAST_THE_GRID:
            mfdfa.MfdfaConfig(fit_range=fit_range).validate()

    def test_negative_detrend_order(self):
        with pytest.raises(ValueError, match="detrend_order"):
            mfdfa.MfdfaConfig(detrend_order=-1).validate()
        with pytest.raises(ValueError, match="detrend_order"):
            mfdfa.fluctuation(gaussian_window_profile(), mfdfa.MfdfaConfig(detrend_order=-1))

    @pytest.mark.parametrize("kw, match", [
        ({"fit_range": (100, 20)}, "at least 3 scales"),
        ({"fit_range": (20, 22)}, "at least 3 scales"),
        ({"degree_q": 3.3}, "not on the moment grid"),
        ({"degree_q": -4.0}, "positive"),
        ({"q_grid": np.array([-1.0, 0.0, 1.0])}, "not on the moment grid"),
        ({"s_grid": np.array([16, 64, 32, 128])}, "increasing"),
        ({"q_grid": np.array([-4.0, -2.0, -1.0, 0.0, 1.0, 2.0, 4.0])}, "uniform"),
        ({"q_grid": np.array([-2.0, 2.0]), "degree_q": 2.0}, "at least 3 grid points"),
    ])
    def test_settings_analyze_cannot_run(self, kw, match):
        with pytest.raises(ValueError, match=match):
            mfdfa.MfdfaConfig(**kw).validate()

    def test_default_grid_lands_on_zero(self):
        q = mfdfa.default_q_grid()
        assert np.any(q == 0.0)
        assert q[0] == -25.0 and q[-1] == 25.0
        assert np.allclose(np.diff(q), 0.2)


def test_csv_exports():
    series = synth.binomial_cascade(synth.CascadeSpec(levels=10, a=0.75))
    cfg = mfdfa.MfdfaConfig(
        s_grid=np.unique(np.round(np.geomspace(16, 128, 10)).astype(int)),
        fit_range=(16, 128),
    )
    res = mfdfa.analyze(series, cfg)
    assert mfdfa.fluct_to_csv(res["fluctuation"]).splitlines()[0] == "q,s,F"
    assert mfdfa.hurst_to_csv(res["hurst"]).splitlines()[0] == "q,h,se"
    assert mfdfa.spectrum_to_csv(res["spectrum"]).splitlines()[0] == "q,alpha,f"


# --- the array q-moments against a scalar reference -----------------------------

def reference_fluctuation(prof, cfg):
    """F_q(s) by a loop over (q, s): max-shifted exponentials summed exactly
    with math.fsum, on the same segment variances and zero-variance rule
    (floored at the tolerance for q > 0, dropped for q <= 0); returns F and
    the zero-variance segments per scale."""
    y = np.asarray(prof, dtype=np.float64)
    zero_tol = float(np.max(np.abs(y))) ** 2 * 1e-26
    values = np.empty((len(cfg.q_grid), len(cfg.s_grid)))
    excluded = np.empty(len(cfg.s_grid), dtype=int)
    for js, s in enumerate(cfg.s_grid):
        s = int(s)
        fv = mfdfa._segment_variances(y, s, mfdfa._segment_basis(s, cfg.detrend_order))
        every = [math.log(max(v, zero_tol)) for v in fv]
        kept = [math.log(v) for v in fv if v > zero_tol]
        excluded[js] = len(fv) - len(kept)
        for jq, q in enumerate(cfg.q_grid):
            q = float(q)
            if q == 0.0:
                values[jq, js] = math.exp(0.5 * math.fsum(kept) / len(kept))
            else:
                logs = every if q > 0 else kept
                top = max(0.5 * q * v for v in logs)
                total = math.fsum(math.exp(0.5 * q * v - top) for v in logs)
                values[jq, js] = math.exp(
                    (math.log(total) + top - math.log(len(logs))) / q)
    return values, excluded


def assert_rel(got, want, tol):
    """|got - want| <= tol * |want| elementwise (so got == want where want == 0)."""
    got, want = np.asarray(got, dtype=np.float64), np.asarray(want, dtype=np.float64)
    assert np.all(np.abs(got - want) <= tol * np.abs(want)), np.max(
        np.abs(got - want) / np.maximum(np.abs(want), 1e-300))


def gaussian_window_profile():
    return mfdfa.profile(np.random.default_rng(548).standard_normal(548))


def zero_variance_profile():
    # a flat stretch: every segment inside it has exactly zero variance
    y = np.cumsum(np.random.default_rng(9).standard_normal(1200))
    y[300:900] = 0.0
    return y


@pytest.mark.parametrize("make", [
    lambda: (gaussian_window_profile(), mfdfa.MfdfaConfig()),
    lambda: (zero_variance_profile(), mfdfa.MfdfaConfig()),
    lambda: (mfdfa.profile(synth.binomial_cascade(synth.CascadeSpec(levels=14, a=0.75))),
             cascade_config()),
], ids=["gaussian548", "zero_variance", "cascade"])
def test_fluctuation_matches_scalar_reference(make):
    prof, cfg = make()
    fmat = mfdfa.fluctuation(prof, cfg)
    want, want_excluded = reference_fluctuation(prof, cfg)
    assert_rel(fmat.values, want, 1e-13)
    assert np.array_equal(fmat.excluded, want_excluded)


def test_zero_variance_segments_dropped_for_q_at_most_zero():
    prof = zero_variance_profile()
    cfg = mfdfa.MfdfaConfig()
    fmat = mfdfa.fluctuation(prof, cfg)
    assert fmat.excluded.shape == fmat.s_grid.shape and np.all(fmat.excluded > 0)
    # each moment at the smallest scale, by the definition on its own
    fv = mfdfa._segment_variances(prof, 16, mfdfa._segment_basis(16, cfg.detrend_order))
    zero_tol = np.max(np.abs(prof)) ** 2 * 1e-26
    kept = fv[fv > zero_tol]
    assert len(fv) - len(kept) == fmat.excluded[0]
    for q, want in ((2.0, np.mean(np.maximum(fv, zero_tol))),
                    (-2.0, np.mean(kept ** -1.0) ** -1.0),
                    (0.0, np.exp(np.mean(np.log(kept))))):
        assert_rel(fmat.values[mfdfa._grid_index(fmat.q_grid, q), 0] ** 2, want, 1e-13)


@pytest.mark.parametrize("scale", [1e-100, 1e-20, 1e-16, 1e-2, 1e2, 1e100])
def test_analyze_is_scale_invariant(scale):
    # F_q(s) of c * r is c * F_q(s) of r, so h(q) and the spectrum do not move
    r = np.random.default_rng(2000).standard_normal(2000)
    want, got = mfdfa.analyze(r), mfdfa.analyze(scale * r)
    for key in ("h2", "dh", "dalpha"):
        assert abs(got[key] - want[key]) <= 1e-12 * max(1.0, abs(want[key])), key


def plain_line_fit(x, y):
    """(slope, slope_se, r_squared) of one OLS line by a loop over the points."""
    n = len(x)
    mx, my = sum(x) / n, sum(y) / n
    sxx = sum((a - mx) ** 2 for a in x)
    slope = sum((a - mx) * (b - my) for a, b in zip(x, y)) / sxx
    ss_res = sum((b - my - slope * (a - mx)) ** 2 for a, b in zip(x, y))
    ss_tot = sum((b - my) ** 2 for b in y)
    se = math.sqrt(ss_res / (n - 2) / sxx) if n > 2 else None
    return slope, se, 1.0 if ss_tot == 0.0 else 1.0 - ss_res / ss_tot


def test_generalized_hurst_matches_plain_loop():
    fmat = mfdfa.fluctuation(gaussian_window_profile(), mfdfa.MfdfaConfig())
    fmat.values[7] = 1.0  # ln F == 0 at every scale: ss_tot is exactly 0
    fit_range = (20, 100)
    curve = mfdfa.generalized_hurst(fmat, fit_range)
    mask = (fmat.s_grid >= fit_range[0]) & (fmat.s_grid <= fit_range[1])
    x = [math.log(s) for s in fmat.s_grid[mask]]
    fits = [plain_line_fit(x, [math.log(v) for v in row[mask]]) for row in fmat.values]
    assert_rel(curve.h, [f[0] for f in fits], 1e-13)
    assert_rel(curve.slope_se, [f[1] for f in fits], 1e-13)
    assert_rel(curve.r_squared, [f[2] for f in fits], 1e-13)
    assert curve.r_squared[7] == 1.0 and curve.h[7] == 0.0


def test_fit_line_is_row_wise():
    rng = np.random.default_rng(5)
    x = np.log(np.arange(3, 9, dtype=np.float64))
    y = rng.standard_normal((2, 3, len(x))) + 0.7 * x
    slope, se, r2 = fit_line(x, y)
    assert slope.shape == se.shape == r2.shape == (2, 3)
    for i in np.ndindex(2, 3):
        want = plain_line_fit(list(x), list(y[i]))
        assert_rel([slope[i], se[i], r2[i]], want, 1e-12)
    # one row; two points leave no residual degrees of freedom
    slope, se, r2 = fit_line([0.0, 1.0], [1.0, 3.0])
    assert slope == 2.0 and se is None and r2 == 1.0


def test_fit_line_does_not_depend_on_row_count():
    # analyze_windows fits only the rows it reads, and analyze fits them all
    rng = np.random.default_rng(6)
    x = np.log(np.arange(20, 37, dtype=np.float64))
    y = np.cumsum(rng.standard_normal((52, 251, 17)), axis=-1)
    read = [90, 105, 106, 107, 143, 144, 145]
    for whole, part in zip(fit_line(x, y), fit_line(x, y[:, read])):
        assert np.array_equal(whole[:, read], part)


# --- analyze_windows: every window at once, each as analyze computes it --------

def assert_same_outcomes(batch, windows, cfg):
    """analyze_windows' outcomes against analyze on each window: h2, dh and
    dalpha bit for bit; a failed window has analyze's exception type and
    message."""
    assert len(batch) == len(windows)
    for got, w in zip(batch, windows):
        try:
            want = mfdfa.analyze(w, cfg)
        except Exception as exc:
            assert isinstance(got, Exception)
            assert f"{type(got).__name__}: {got}" == f"{type(exc).__name__}: {exc}"
            continue
        assert not isinstance(got, Exception), got
        assert got == {key: want[key] for key in ("h2", "dh", "dalpha")}


def assert_kernel_matches_fluctuation(windows, cfg):
    """The stacked kernel's F_q(s) within 1e-13 relative, and its exclusion
    counts identical, to fluctuation on each window alone and, for the
    first, middle and last window, to the scalar reference; returns the
    per-window exclusion counts."""
    profiles = np.cumsum(windows - windows.mean(axis=1, keepdims=True), axis=1)
    values, excluded = mfdfa._fluctuations(profiles, cfg)
    for k, w in enumerate(windows):
        fmat = mfdfa.fluctuation(mfdfa.profile(w), cfg)
        assert_rel(values[k], fmat.values, 1e-13)
        assert np.array_equal(excluded[k], fmat.excluded)
    for k in (0, len(windows) // 2, len(windows) - 1):
        want, want_excluded = reference_fluctuation(profiles[k], cfg)
        assert_rel(values[k], want, 1e-13)
        assert np.array_equal(excluded[k], want_excluded)
    return excluded


def windows_of(series, window, step):
    return np.lib.stride_tricks.sliding_window_view(series, window)[::step]


def benchmark_like_series(seed):
    """Sixteen windows of 548 daily TGARCH returns at step 1."""
    params = tgarch.TgarchParams(omega=0.05, alpha=0.08, beta=0.88, gamma=-0.04,
                                 dist="student-t", shape=5.0)
    return tgarch.simulate(params, 548 + 15, seed)


def flat_stretch_series():
    """Dyadic returns, so every window's mean and profile are exact, with
    exactly constant stretches: the segments inside one have zero variance
    to round-off under a detrending of order >= 1, and the windows differ in
    how many of them they hold."""
    r = np.random.default_rng(17).integers(-40, 41, 1300) / 8.0
    r[200:330] = 0.0
    r[600:640] = 0.625
    r[900:1000] = -1.25
    return r


@pytest.mark.parametrize("seed", [1, 2])
def test_windows_match_analyze_on_benchmark_like_series(seed):
    windows = windows_of(benchmark_like_series(seed), 548, 1)
    cfg = mfdfa.MfdfaConfig()
    assert_same_outcomes(mfdfa.analyze_windows(windows, cfg), windows, cfg)
    assert_kernel_matches_fluctuation(np.array(windows), cfg)


def test_windows_match_analyze_on_chunked_lengths():
    # windows long enough that their segment rows are taken in chunks: the
    # chunks depend on the window length only, not on how many are stacked
    windows = windows_of(np.random.default_rng(20_000).standard_normal(20_011), 20_000, 11)
    cfg = mfdfa.MfdfaConfig(q_grid=np.arange(-25, 26) / 5.0)
    assert 2 * (20_000 // 16) > mfdfa._SEGMENT_ELEMS // 16
    batch = mfdfa.analyze_windows(windows, cfg)
    assert_same_outcomes(batch, windows, cfg)
    assert_kernel_matches_fluctuation(np.array(windows), cfg)
    # and bit for bit
    for got, w in zip(batch, windows):
        want = mfdfa.analyze(w, cfg)
        assert got == {key: want[key] for key in ("h2", "dh", "dalpha")}


@pytest.mark.parametrize("make", [
    lambda: (benchmark_like_series(1), 548, 1, mfdfa.MfdfaConfig()),
    lambda: (flat_stretch_series(), 512, 7, mfdfa.MfdfaConfig(detrend_order=1)),
    lambda: (flat_stretch_series(), 512, 7, mfdfa.MfdfaConfig(degree_q=25.0, fit_range=(16, 40))),
], ids=["benchmark_like", "flat_stretches", "grid_ends"])
def test_kernel_restricted_as_analyze_windows_runs_it(make):
    # the read moments at the fit-range scales, bit for bit fluctuation's;
    # the zero-variance counts at every scale
    series, window, step, cfg = make()
    windows = np.array(windows_of(series, window, step))
    q_grid, s_grid = cfg.q_grid, cfg.s_grid
    read = np.unique([mfdfa._grid_index(q_grid, q) + d for q in (cfg.degree_q, -cfg.degree_q)
                      for d in (-1, 0, 1)] + [mfdfa._grid_index(q_grid, 2.0)])
    read = read[(read >= 0) & (read < len(q_grid))]
    fit = (s_grid >= cfg.fit_range[0]) & (s_grid <= cfg.fit_range[1])
    assert 0 < fit.sum() < len(s_grid)
    profiles = np.cumsum(windows - windows.mean(axis=1, keepdims=True), axis=1)
    values, excluded = mfdfa._fluctuations(
        profiles, dataclasses.replace(cfg, q_grid=q_grid[read]), fit)
    for k, w in enumerate(windows):
        fmat = mfdfa.fluctuation(mfdfa.profile(w), cfg)
        assert np.array_equal(values[k], fmat.values[np.ix_(read, fit)])
        assert np.array_equal(excluded[k], fmat.excluded)


@pytest.mark.parametrize("order", [0, 1, 3])
def test_windows_match_analyze_across_flat_stretches(order):
    # step 7 divides no scale of the default grid
    windows = windows_of(flat_stretch_series(), 512, 7)
    cfg = mfdfa.MfdfaConfig(detrend_order=order)
    assert_same_outcomes(mfdfa.analyze_windows(windows, cfg), windows, cfg)
    excluded = assert_kernel_matches_fluctuation(np.array(windows), cfg)
    if order >= 1:
        assert len({tuple(row) for row in excluded}) > 3


def test_windows_match_analyze_with_degree_at_grid_end():
    # alpha at q = +-25 is a one-sided difference; the fit range leaves the
    # scales above 40 without moments
    windows = windows_of(benchmark_like_series(2), 548, 3)
    cfg = mfdfa.MfdfaConfig(degree_q=25.0, fit_range=(16, 40))
    assert_same_outcomes(mfdfa.analyze_windows(windows, cfg), windows, cfg)


def test_window_without_kept_segment_fails_as_analyze_does():
    r = flat_stretch_series()
    r[200:800] = 0.25  # the windows inside it have a profile of exact zeros
    windows = windows_of(r, 512, 11)
    cfg = mfdfa.MfdfaConfig()
    batch = mfdfa.analyze_windows(windows, cfg)
    failed = [str(o) for o in batch if isinstance(o, Exception)]
    assert failed and set(failed) == {"all segments have zero variance at s=16"}
    assert len(failed) < len(batch)
    assert_same_outcomes(batch, windows, cfg)


def test_window_failing_below_the_fit_range_fails_as_analyze_does():
    # returns constant over each block of 16 make every s = 16 segment of a
    # window that starts on a block a straight line, of zero variance; the
    # longer segments take in a change of slope.  s = 16 lies below the fit
    # range, where the batch takes no moments, and such a window still fails
    rng = np.random.default_rng(21)
    r = rng.integers(-40, 41, 1600) / 8.0
    r[320:1280] = np.repeat(rng.integers(-40, 41, 60) / 8.0, 16)
    windows = windows_of(r, 512, 16)
    cfg = mfdfa.MfdfaConfig()
    assert cfg.s_grid[0] == 16 < cfg.fit_range[0]
    batch = mfdfa.analyze_windows(windows, cfg)
    failed = [str(o) for o in batch if isinstance(o, Exception)]
    assert failed and set(failed) == {"all segments have zero variance at s=16"}
    assert len(failed) < len(batch)
    assert_same_outcomes(batch, windows, cfg)


def test_windows_analyze_rejects_as_analyze_does():
    windows = windows_of(benchmark_like_series(3), 548, 5)
    bad = np.array(windows)
    bad[0, 10] = np.nan
    bad[1] *= 1e200  # finite, but the profile's squares overflow
    for cfg in (mfdfa.MfdfaConfig(), mfdfa.MfdfaConfig(degree_q=3.3),
                mfdfa.MfdfaConfig(s_grid=mfdfa.scale_grid(16, 300), fit_range=(20, 100)),
                mfdfa.MfdfaConfig(q_grid=np.array([-4.0, -2.0, -1.0, 0.0, 1.0, 2.0, 4.0])),
                mfdfa.MfdfaConfig(q_grid=np.array([-2.0, 2.0]), degree_q=2.0)):
        batch = mfdfa.analyze_windows(bad, cfg)
        assert all(isinstance(o, ValueError) for o in batch[:2])
        assert_same_outcomes(batch, bad, cfg)
    with pytest.raises(ValueError, match="two-dimensional"):
        mfdfa.analyze_windows(bad[0], mfdfa.MfdfaConfig())


def test_windows_run_settings_only_analyze_accepts(monkeypatch):
    # a fit range reaching past the scale grid: the batch takes every healthy
    # window itself, with analyze's outcome
    windows = windows_of(benchmark_like_series(3), 548, 5)
    analyze, calls = mfdfa.analyze, []
    monkeypatch.setattr(mfdfa, "analyze", lambda *a: calls.append(a) or analyze(*a))
    for fit_range in FIT_RANGES_PAST_THE_GRID:
        cfg = mfdfa.MfdfaConfig(fit_range=fit_range)
        want = [{k: analyze(w, cfg)[k] for k in ("h2", "dh", "dalpha")} for w in windows]
        assert mfdfa.analyze_windows(windows, cfg) == want
    assert calls == []


def _imports(module_name, seen):
    """Absolute names of the modules ``module_name`` imports, following its
    relative imports into other modules of its package."""
    package = module_name.rpartition(".")[0]
    path = Path(mfdfa.__file__).parent / (module_name.rpartition(".")[2] + ".py")
    names = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.add(node.module)
        elif isinstance(node, ast.ImportFrom):
            base = f"{package}.{node.module}" if node.module else package
            targets = [base] if node.module else [f"{base}.{a.name}" for a in node.names]
            for target in targets:
                names.add(target)
                if target not in seen:
                    seen.add(target)
                    names |= _imports(target, seen)
    return names


def test_mfdfa_imports_no_scipy():
    names = _imports("mfvol.mfdfa", {"mfvol.mfdfa"})
    assert "mfvol._validate" in names
    assert not [n for n in names if n == "scipy" or n.startswith("scipy.")]


@pytest.mark.parametrize("call, match", [
    (lambda: fit_line([1.0], [2.0]), "need at least 2 points"),
    (lambda: fit_line([], []), "need at least 2 points"),
    (lambda: fit_line([3.0, 3.0, 3.0], [1.0, 2.0, 4.0]), "degenerate abscissa"),
    (lambda: mfdfa.multifractality_degree(_monofractal_curve(), 0.0), "q must be positive"),
    (lambda: mfdfa.multifractality_degree(_monofractal_curve(), -4.0), "q must be positive"),
    (lambda: mfdfa.delta_alpha(mfdfa.singularity_spectrum(_monofractal_curve()), 0.0),
     "q must be positive"),
    (lambda: mfdfa.delta_alpha(mfdfa.singularity_spectrum(_monofractal_curve()), -4.0),
     "q must be positive"),
], ids=["fit-line-1-point", "fit-line-0-points", "fit-line-equal-x", "degree-q-0",
        "degree-q-negative", "delta-alpha-q-0", "delta-alpha-q-negative"])
def test_typed_errors(call, match):
    with pytest.raises(ValueError, match=match):
        call()


def _monofractal_curve():
    q = mfdfa.default_q_grid()
    return mfdfa.HurstCurve(q, np.full(len(q), 0.5), np.zeros(len(q)), np.ones(len(q)))
