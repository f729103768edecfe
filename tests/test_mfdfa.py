import numpy as np
import pytest

from mfvol import mfdfa, synth


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
        from mfvol import kernels
        y = np.random.default_rng(1).standard_normal(1000)
        for s in (16, 33, 100):
            basis = mfdfa._segment_basis(s, 3)
            fv = kernels.segment_variances(y, s, basis)
            assert len(fv) == 2 * (1000 // s)

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


class TestGeneralizedHurst:
    def make_power_law_matrix(self, h=0.7):
        q = mfdfa.default_q_grid()
        s = mfdfa.default_s_grid()
        values = np.tile(s.astype(float) ** h, (len(q), 1))
        return mfdfa.FluctuationMatrix(q, s, values, np.zeros_like(values, dtype=int))

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
        return mfdfa.HurstCurve(q, np.full(len(q), H), np.zeros(len(q)),
                                np.ones(len(q)), (20, 100))

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
        curve = mfdfa.HurstCurve(q, np.zeros(3), np.zeros(3), np.ones(3), (20, 100))
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


class TestConfigValidation:
    def test_scale_vs_order(self):
        with pytest.raises(ValueError):
            mfdfa.MfdfaConfig(s_grid=np.array([4, 8]), detrend_order=3,
                              fit_range=(4, 8)).validate()

    def test_asymmetric_q_grid(self):
        with pytest.raises(ValueError):
            mfdfa.MfdfaConfig(q_grid=np.array([-1.0, 0.0, 2.0])).validate()

    def test_fit_range_outside_grid(self):
        with pytest.raises(ValueError):
            mfdfa.MfdfaConfig(fit_range=(1, 5000)).validate()

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
