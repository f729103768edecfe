"""The input gate of the public estimators: on any 1-D sample, of any length
and any floating-point scale, each returns finite results or raises
ValueError, and prints no NumPy warning; a 2-D sample is rejected."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mfvol import _validate, mfdfa, stats, tgarch

P = tgarch.TgarchParams(omega=0.2, alpha=0.1, beta=0.8, gamma=-0.05)
P_GED = tgarch.TgarchParams(omega=0.2, alpha=0.1, beta=0.8, gamma=-0.05, dist="ged",
                            shape=50.0)
# scales 8..32, so that short samples reach the fluctuation functions
SMALL_GRID = mfdfa.MfdfaConfig(s_grid=mfdfa.scale_grid(8, 32, 6), fit_range=(8, 32))


def _finite(*values):
    return all(np.all(np.isfinite(np.asarray(v, dtype=np.float64))) for v in values)


def _fit(x):
    f = tgarch.fit(x)
    return _finite(f.loglik, [getattr(f.params, n) for n in f.params.free_names()],
                   list((f.std_errors or {}).values()))


def _std_errors(x, **kw):
    se = tgarch.std_errors(x, P, **kw)
    return se is None or _finite(list(se.values()))


def _descriptive(x):
    d = stats.descriptive(x)
    return _finite([v for k, v in d.items() if k != "nobs"])


def _volatility(x):
    v = stats.volatility_series(x)
    return _finite(v.values, v.r_bar)


def _fluctuation(x):
    f = mfdfa.fluctuation(x, SMALL_GRID)
    return _finite(f.values)


ENTRY_POINTS = {
    "fit": _fit,
    "filter_volatility": lambda x: _finite(*tgarch.filter_volatility(P, x)),
    "filter_volatility_init": lambda x: _finite(
        *tgarch.filter_volatility(P, x, sigma2_init=1.0)),
    "neg_log_likelihood": lambda x: _finite(tgarch.neg_log_likelihood(P, x)),
    "neg_log_likelihood_init": lambda x: _finite(
        tgarch.neg_log_likelihood(P, x, sigma2_init=1.0)),
    "neg_log_likelihood_ged_init": lambda x: _finite(
        tgarch.neg_log_likelihood(P_GED, x, sigma2_init=1.0)),
    "std_errors": _std_errors,
    "std_errors_init": lambda x: _std_errors(x, sigma2_init=1.0),
    "profile": lambda x: _finite(mfdfa.profile(x)),
    "fluctuation": _fluctuation,
    "descriptive": _descriptive,
    "volatility_series": _volatility,
    "jackknife_se": lambda x: _finite(stats.jackknife_se(x, np.mean)),
}


def _sample(n, k, seed, variant):
    rng = np.random.default_rng(seed)
    scale = 10.0 ** k
    if variant == "2d":
        return scale * rng.standard_normal((n, 2))
    if variant == "constant":
        return np.full(n, scale)
    if variant == "outlier":  # the subsample without the outlier is constant
        return np.zeros(n) + (np.arange(n) == n // 2) * scale
    x = scale * rng.standard_normal(n)
    if variant in ("nan", "inf", "-inf") and n:
        x[rng.integers(n)] = float(variant)
    return x


@pytest.mark.parametrize("entry", ENTRY_POINTS)
@given(n=st.integers(0, 700), k=st.integers(-150, 150), seed=st.integers(0, 2**32 - 1),
       variant=st.sampled_from(["plain", "nan", "inf", "-inf", "constant", "outlier", "2d"]))
# faults of earlier versions: a wrong answer on 2-D input, IndexError on an
# empty sample, ZeroDivisionError from underflowing moments, warnings on
# short, infinite, huge or tiny samples
@example(n=300, k=0, seed=1, variant="2d")
@example(n=0, k=0, seed=1, variant="plain")
@example(n=1, k=0, seed=1, variant="plain")
@example(n=50, k=-100, seed=0, variant="plain")
@example(n=300, k=0, seed=1, variant="inf")
@example(n=300, k=200, seed=1, variant="plain")
@example(n=548, k=-80, seed=1, variant="plain")
@settings(derandomize=True, max_examples=25, deadline=None)
def test_finite_results_or_value_error(entry, n, k, seed, variant):
    x = _sample(n, k, seed, variant)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            ok = ENTRY_POINTS[entry](x)
        except ValueError:
            return
    assert variant != "2d", f"{entry} accepted an array of shape {x.shape}"
    assert ok, f"{entry} returned a non-finite result"


def test_gate_messages():
    with pytest.raises(ValueError, match=r"one-dimensional, got shape \(3, 2\)"):
        _validate.finite_array(np.zeros((3, 2)), "returns", 2)
    with pytest.raises(ValueError, match="need at least 4 values, got 3"):
        _validate.finite_array([1.0, 2.0, 3.0], "values", 4)
    with pytest.raises(ValueError, match="non-finite .* index 1: np.float64\\(inf\\)"):
        _validate.finite_array([1.0, math.inf], "returns", 2)
    x = _validate.finite_array([1, 2], "returns", 2)
    assert x.dtype == np.float64 and x.ndim == 1
