import math

import numpy as np
import pytest

from mfvol import synth


class TestGaussianNoise:
    def test_moments(self):
        x = synth.gaussian_noise(100_000, seed=1)
        assert abs(x.mean()) < 0.02
        assert abs(x.var() - 1.0) < 0.02

    def test_deterministic(self):
        assert np.array_equal(synth.gaussian_noise(1000, 7),
                              synth.gaussian_noise(1000, 7))

    def test_single_draw(self):
        x = synth.gaussian_noise(1, seed=2)
        assert len(x) == 1 and np.isfinite(x[0])

    def test_bad_n(self):
        with pytest.raises(ValueError):
            synth.gaussian_noise(0, seed=1)


class TestBinomialCascade:
    def test_normalization_small(self):
        x = synth.binomial_cascade(synth.CascadeSpec(levels=3, a=0.75))
        assert len(x) == 8
        assert x.sum() == pytest.approx(1.0, abs=1e-15)

    def test_normalization_double_precision(self):
        x = synth.binomial_cascade(synth.CascadeSpec(levels=16, a=0.75))
        assert x.sum() == pytest.approx(1.0, abs=1e-12)

    def test_values_from_digit_sum(self):
        x = synth.binomial_cascade(synth.CascadeSpec(levels=3, a=0.75))
        a = 0.75
        # k=1 -> phi(0)=0; k=4 -> phi(3)=2
        assert x[0] == pytest.approx(a**3, abs=1e-15)
        assert x[3] == pytest.approx(a * (1 - a) ** 2, abs=1e-15)
        assert x[-1] == pytest.approx((1 - a) ** 3, abs=1e-15)

    def test_spec_bounds(self):
        with pytest.raises(ValueError):
            synth.binomial_cascade(synth.CascadeSpec(levels=30, a=0.75))
        with pytest.raises(ValueError):
            synth.binomial_cascade(synth.CascadeSpec(levels=10, a=0.4))


class TestCascadeAnalytic:
    def test_symmetric_weight_is_monofractal(self):
        # a = 1/2 gives a constant series: h(q) = 1 independent of q
        for q in (-4.0, -1.0, 0.0, 2.0, 7.5):
            assert synth.cascade_h_analytic(q, 0.5) == pytest.approx(1.0, abs=1e-12)

    def test_direct_evaluation(self):
        expected = 0.5 - math.log(0.5625 + 0.0625) / (2 * math.log(2))
        assert synth.cascade_h_analytic(2.0, 0.75) == pytest.approx(expected, rel=1e-12)
        assert expected == pytest.approx(0.8390, abs=5e-4)

    def test_q_zero_limit(self):
        a = 0.75
        numeric = 0.5 * (synth.cascade_h_analytic(1e-6, a)
                         + synth.cascade_h_analytic(-1e-6, a))
        assert synth.cascade_h_analytic(0.0, a) == pytest.approx(numeric, abs=1e-6)

    def test_h_decreasing_spread(self):
        a = 0.75
        for q in np.arange(0.5, 10.5, 0.5):
            assert (synth.cascade_h_analytic(-q, a)
                    > synth.cascade_h_analytic(q, a))

    def test_vectorized(self):
        q = np.array([-2.0, 0.0, 2.0])
        h = synth.cascade_h_analytic(q, 0.75)
        assert h.shape == (3,)
        assert h[0] > h[1] > h[2]


@pytest.mark.parametrize("a", [0.4, 1.0, 1.5, -0.75])
def test_cascade_h_analytic_rejects_a_weight_outside_its_range(a):
    with pytest.raises(ValueError, match=r"weight a must be in \[0.5, 1\)"):
        synth.cascade_h_analytic(2.0, a)
