"""The NumPy kernels against plain scalar-loop references written here."""

import math
import subprocess
import sys
import warnings

import numpy as np
import pytest

from mfvol import kernels
from mfvol.tgarch import TgarchParams


def loop_recursion(r, mu, c1, omega, alpha, beta, gamma, sigma2_init):
    n = len(r)
    eps = [r[0] - mu] + [r[t] - mu - c1 * r[t - 1] for t in range(1, n)]
    sigma2 = [sigma2_init]
    for t in range(1, n):
        e = eps[t - 1]
        coef = alpha + (gamma if e < 0.0 else 0.0)
        sigma2.append(omega + coef * e * e + beta * sigma2[t - 1])
    return np.array(sigma2), np.array(eps)


def loop_nll(r, mu, c1, omega, alpha, beta, gamma, sigma2_init, dist, shape):
    sigma2, eps = loop_recursion(r, mu, c1, omega, alpha, beta, gamma, sigma2_init)
    total = 0.0
    for t in range(1, len(r)):
        z = eps[t] / math.sqrt(sigma2[t])
        if dist == "normal":
            term = 0.5 * math.log(2.0 * math.pi) + 0.5 * z * z
        elif dist == "student-t":
            nu = shape
            log_c = (math.lgamma(0.5 * (nu + 1.0)) - math.lgamma(0.5 * nu)
                     - 0.5 * math.log(math.pi * (nu - 2.0)))
            term = -log_c + 0.5 * (nu + 1.0) * math.log1p(z * z / (nu - 2.0))
        else:
            kappa = shape
            lam = math.sqrt(math.exp(math.lgamma(1.0 / kappa) - math.lgamma(3.0 / kappa))
                            * 2.0 ** (-2.0 / kappa))
            log_c = (math.log(kappa) - math.log(lam) - (1.0 + 1.0 / kappa) * math.log(2.0)
                     - math.lgamma(1.0 / kappa))
            term = -log_c + 0.5 * abs(z / lam) ** kappa
        total += term + 0.5 * math.log(sigma2[t])
    return total


@pytest.fixture
def returns():
    return np.random.default_rng(42).standard_normal(2000) * 2.0


@pytest.mark.parametrize("beta", [0.0, 0.5, 0.97])
@pytest.mark.parametrize("gamma", [-0.04, 0.02])
def test_recursion_matches_loop(returns, beta, gamma):
    omega = 0.3 * (1.0 - beta)
    p = TgarchParams(mu=0.05, c1=-0.1, omega=omega, alpha=0.04, beta=beta, gamma=gamma)
    s_vec, e_vec = kernels.tgarch_recursion(returns, p, 1.7)
    s_ref, e_ref = loop_recursion(returns, 0.05, -0.1, omega, 0.04, beta, gamma, 1.7)
    assert np.array_equal(e_vec, e_ref)
    assert np.max(np.abs(s_vec - s_ref) / s_ref) <= 1e-14


@pytest.mark.parametrize("dist,shape", [
    ("normal", None),
    ("student-t", 5.0),
    ("ged", 1.4),
])
def test_nll_matches_loop(returns, dist, shape):
    p = TgarchParams(mu=0.05, c1=-0.1, omega=0.3, alpha=0.08, beta=0.85, gamma=-0.04,
                     dist=dist, shape=shape)
    assert kernels.tgarch_nll(returns, p, 1.7) == pytest.approx(
        loop_nll(returns, 0.05, -0.1, 0.3, 0.08, 0.85, -0.04, 1.7, dist, shape), rel=1e-12)


@pytest.mark.parametrize("omega,dist,shape", [
    (-1.0, "normal", None),
    (-1.0, "student-t", 5.0),
    (0.2, "student-t", 2.0),
    (0.2, "ged", 0.0),
])
def test_nll_invalid_params_inf(returns, omega, dist, shape):
    p = TgarchParams(omega=omega, alpha=0.1, beta=0.8, dist=dist, shape=shape)
    assert kernels.tgarch_nll(returns, p, 0.0) == math.inf


def test_ged_power_overflow_scores_inf_without_warning():
    r = np.r_[np.zeros(10), 1e6, np.zeros(10)]
    p = TgarchParams(omega=0.01, alpha=0.05, beta=0.9, dist="ged", shape=50.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert kernels.tgarch_nll(r, p, 0.01) == math.inf


# Points in scale-free units: mu in units of the returns' scale, omega in its
# square, the rest as is.
SCORE_POINTS = {
    "interior": (0.05, -0.1, 0.3, 0.08, 0.85, 0.04),
    "alpha_plus_gamma_near_0": (0.05, 0.1, 0.2, 0.05, 0.9, -0.049999),
    "gamma_negative_beta_0": (-0.1, 0.05, 0.5, 0.3, 0.0, -0.2),
    "gamma_negative": (0.02, -0.05, 0.1, 0.2, 0.6, -0.15),
}


def _central_difference(f, x, h):
    """Fourth-order central differences of the scalar function f at x."""
    grad = np.empty(len(x))
    for i in range(len(x)):
        step = np.zeros(len(x))
        step[i] = h[i]
        grad[i] = (8.0 * (f(x + step) - f(x - step))
                   - (f(x + 2.0 * step) - f(x - 2.0 * step))) / (12.0 * h[i])
    return grad


@pytest.mark.parametrize("scale", [1e-2, 1.0, 1e2])
@pytest.mark.parametrize("point", list(SCORE_POINTS))
@pytest.mark.parametrize("dist,shape", [("normal", None), ("student-t", 5.0), ("ged", 1.4)])
def test_score_matches_central_differences(dist, shape, point, scale):
    r = np.random.default_rng(5).standard_t(5, 500) * scale
    sigma2_init = 1.7 * scale**2
    x = np.array(SCORE_POINTS[point] + ((shape,) if shape else ()))
    units = np.array([scale, 1.0, scale**2, 1.0, 1.0, 1.0, 1.0])[:len(x)]

    def params(x):
        theta = [float(v) for v in x * units]
        return TgarchParams(*theta[:6], dist=dist, shape=theta[6] if shape else None)

    with warnings.catch_warnings():
        warnings.simplefilter("error")
        score = kernels.tgarch_score(r, params(x), sigma2_init) * units
        fd = _central_difference(lambda x: kernels.tgarch_nll(r, params(x), sigma2_init),
                                 x, 1e-4 * (np.abs(x) + 0.1))
    np.testing.assert_allclose(score, fd, rtol=1e-6, atol=0.0)


@pytest.mark.parametrize("r,p", [
    (np.linspace(-1.0, 1.0, 50), TgarchParams(omega=-1.0, alpha=0.1, beta=0.8)),
    (np.linspace(-1.0, 1.0, 50), TgarchParams(omega=0.2, alpha=0.1, beta=0.8, shape=2.0)),
    (np.r_[np.ones(10), 1e200, np.ones(10)], TgarchParams(omega=0.2, alpha=0.1, beta=0.8)),
    (np.r_[np.zeros(10), 1e6, np.zeros(10)],
     TgarchParams(omega=0.01, alpha=0.05, beta=0.9, dist="ged", shape=50.0)),
], ids=["negative_variance", "invalid_shape", "variance_overflow", "ged_power_overflow"])
def test_score_not_finite_where_likelihood_is_inf(r, p):
    with np.errstate(over="ignore", invalid="ignore"):
        assert kernels.tgarch_nll(r, p, 0.1) == math.inf
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        score = kernels.tgarch_score(r, p, 0.1)
    assert score.shape == (7,)
    assert not np.all(np.isfinite(score))


def test_cli_import_leaves_scipy_signal_unloaded():
    # scipy.signal costs far more to import than the whole CLI
    code = "import sys, mfvol.cli; print('scipy.signal' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True)
    assert out.stdout.strip() == "False"
