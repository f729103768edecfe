"""Acceptance suite: ten oracle-backed criteria for the full pipeline.

Each test prints one PASS/FAIL line to the terminal (bypassing capture)
and then asserts, so a plain ``pytest tests/test_acceptance.py`` shows the
scorecard.  Criteria are checked at the stated tolerances; the synthetic
oracles are the package's own simulators plus closed-form results.
"""

import dataclasses
import time

import numpy as np
import pytest

from mfvol import ingest, mfdfa, rolling, stats, synth, tgarch


@pytest.fixture
def report(capsys):
    def _report(num, ok, detail=""):
        status = "PASS" if ok else "FAIL"
        with capsys.disabled():
            print(f"\nACCEPTANCE CRITERION {num:2d}: {status} -- {detail}")
        assert ok, f"criterion {num} failed: {detail}"
    return _report


TRUE_PARAMS = tgarch.TgarchParams(
    mu=0.0, c1=0.0, omega=0.2, alpha=0.1, beta=0.8, gamma=-0.05,
    dist="student-t", shape=5.0,
)
CHECKED = ("omega", "alpha", "beta", "gamma", "shape")


def test_criterion_01_tgarch_recovery(report):
    """>= 18/20 seeded fits recover every named parameter within 3 reported
    SEs; median fit time < 5 s; spot check that no nearby grid point beats
    the fitted likelihood."""
    n_ok, times = 0, []
    first = None
    for seed in range(1, 21):
        r = tgarch.simulate(TRUE_PARAMS, 10_000, seed)
        t0 = time.perf_counter()
        fit = tgarch.fit(r, dist="student-t")
        times.append(time.perf_counter() - t0)
        if first is None:
            first = (r, fit)
        truth = TRUE_PARAMS.as_dict()
        est = fit.params.as_dict()
        se = fit.std_errors or {}
        if fit.converged and all(
            name in se and abs(est[name] - truth[name]) <= 3.0 * se[name]
            for name in CHECKED
        ):
            n_ok += 1

    # optimality spot check: coarse grid around the first fitted point
    r, fit = first
    base_nll = tgarch.neg_log_likelihood(fit.params, r)
    better = 0
    for da in (-0.03, 0.0, 0.03):
        for db in (-0.03, 0.0, 0.03):
            for dg in (-0.03, 0.0, 0.03):
                cand = dataclasses.replace(
                    fit.params,
                    alpha=fit.params.alpha + da,
                    beta=fit.params.beta + db,
                    gamma=fit.params.gamma + dg,
                )
                try:
                    nll = tgarch.neg_log_likelihood(cand, r)
                except ValueError:
                    continue
                if nll < base_nll - 1e-6 * abs(base_nll):
                    better += 1

    med = float(np.median(times))
    ok = n_ok >= 18 and med < 5.0 and better == 0
    report(1, ok,
           f"recovery {n_ok}/20 within 3 SE, median fit {med:.2f} s, "
           f"{better} grid points beat the optimum")


def test_criterion_02_distribution_limits(report):
    """GED(kappa=2) NLL equals the normal NLL to 1e-9 and student-t with
    huge dof is within 1e-3, over 100 random parameter/data draws."""
    rng = np.random.default_rng(123)
    max_ged, max_t = 0.0, 0.0
    for _ in range(100):
        alpha = rng.uniform(0.01, 0.15)
        base = dict(
            mu=rng.uniform(-0.1, 0.1), c1=rng.uniform(-0.3, 0.3),
            omega=rng.uniform(0.05, 0.5), alpha=alpha,
            beta=rng.uniform(0.3, 0.8), gamma=rng.uniform(-alpha, 0.05),
        )
        # data on the model's own scale, so standardized residuals are O(1)
        # and the finite-dof correction of order z^4/nu stays resolvable
        uncond_sd = np.sqrt(base["omega"]
                            / (1 - alpha - base["beta"] - base["gamma"] / 2))
        r = rng.standard_normal(rng.integers(50, 200)) * uncond_sd
        nll_n = tgarch.neg_log_likelihood(
            tgarch.TgarchParams(dist="normal", **base), r)
        nll_g = tgarch.neg_log_likelihood(
            tgarch.TgarchParams(dist="ged", shape=2.0, **base), r)
        nll_t = tgarch.neg_log_likelihood(
            tgarch.TgarchParams(dist="student-t", shape=1e6, **base), r)
        max_ged = max(max_ged, abs(nll_g - nll_n))
        max_t = max(max_t, abs(nll_t - nll_n))
    ok = max_ged <= 1e-9 and max_t <= 1e-3
    report(2, ok, f"max |GED(2)-normal| = {max_ged:.2e} (<=1e-9), "
                  f"max |t(1e6)-normal| = {max_t:.2e} (<=1e-3)")


def test_criterion_03_indicator_semantics(report):
    """Hand-built two-step variance paths hit the worked values to 1e-12."""
    params = tgarch.TgarchParams(mu=0.0, c1=0.0, omega=1.0, alpha=0.1,
                                 beta=0.0, gamma=0.2, dist="normal")
    # negative first residual triggers the asymmetry term
    path_neg = tgarch.filter_volatility(params, [-2.0, 0.0], sigma2_init=1.0)
    # positive first residual of the same size does not
    path_pos = tgarch.filter_volatility(params, [2.0, 0.0], sigma2_init=1.0)
    err_neg = abs(path_neg.sigma2[1] - 2.2)
    err_pos = abs(path_pos.sigma2[1] - 1.4)
    ok = err_neg <= 1e-12 and err_pos <= 1e-12
    report(3, ok, f"sigma^2 after negative shock err {err_neg:.1e}, "
                  f"after positive shock err {err_pos:.1e} (<=1e-12)")


def _cascade_config(max_scale=1024):
    s = np.unique(np.round(np.geomspace(16, max_scale, 25)).astype(int))
    return mfdfa.MfdfaConfig(s_grid=s, fit_range=(16, max_scale))


def test_criterion_04_cascade_oracle(report):
    """Binomial cascade (a=0.75, N=2^16): h(q) within 0.05 of the closed
    form over q in [-4, 4]; Delta h(4) within 0.07 and Delta alpha(4)
    within 0.08 of analytic; runtime < 10 s."""
    a = 0.75
    x = synth.binomial_cascade(synth.CascadeSpec(levels=16, a=a))
    cfg = _cascade_config()
    t0 = time.perf_counter()
    result = mfdfa.analyze(x, cfg)
    elapsed = time.perf_counter() - t0

    curve = result["hurst"]
    mask = np.abs(curve.q_grid) <= 4.0 + 1e-12
    h_err = float(np.max(np.abs(
        curve.h[mask] - synth.cascade_h_analytic(curve.q_grid[mask], a))))
    dh_true = (synth.cascade_h_analytic(-4.0, a)
               - synth.cascade_h_analytic(4.0, a))
    dh_err = abs(result["dh"] - dh_true)

    def alpha_analytic(q):
        # alpha(q) = d(q h(q))/dq for the binomial cascade
        b = 1.0 - a
        return -(a**q * np.log(a) + b**q * np.log(b)) / (
            (a**q + b**q) * np.log(2.0))

    da_true = alpha_analytic(-4.0) - alpha_analytic(4.0)
    da_err = abs(result["dalpha"] - da_true)
    ok = h_err <= 0.05 and dh_err <= 0.07 and da_err <= 0.08 and elapsed < 10.0
    report(4, ok, f"max h error {h_err:.3f} (<=0.05), "
                  f"dh error {dh_err:.3f} (<=0.07), "
                  f"dalpha error {da_err:.3f} (<=0.08), {elapsed:.1f} s")


def test_criterion_05_monofractal_null(report):
    """Gaussian noise (N=2^15, 20 seeds): h(2) in [0.45, 0.55] and
    Delta h(4) < 0.15, each in at least 18/20 runs."""
    n_h, n_dh = 0, 0
    for seed in range(1, 21):
        x = synth.gaussian_noise(2**15, seed)
        result = mfdfa.analyze(x)
        if 0.45 <= result["h2"] <= 0.55:
            n_h += 1
        if result["dh"] < 0.15:
            n_dh += 1
    ok = n_h >= 18 and n_dh >= 18
    report(5, ok, f"h(2) in band {n_h}/20, dh(4) < 0.15 {n_dh}/20 (>=18 each)")


def test_criterion_06_forced_identities(report):
    """Exact power-law fluctuation matrix recovers its exponent to 1e-12;
    f(alpha) = 1 exactly at q = 0; the profile endpoint is 0 to 1e-9."""
    q = mfdfa.default_q_grid()
    s = mfdfa.default_s_grid()
    values = np.tile(0.37 * s.astype(float) ** 0.7, (len(q), 1))
    fmat = mfdfa.FluctuationMatrix(q, s, values,
                                   np.zeros_like(values, dtype=int))
    curve = mfdfa.generalized_hurst(fmat)
    h_err = float(np.max(np.abs(curve.h - 0.7)))

    spec = mfdfa.singularity_spectrum(curve)
    f0 = spec.f[np.argmin(np.abs(spec.q_grid))]

    rng = np.random.default_rng(6)
    endpoint = abs(mfdfa.profile(rng.standard_normal(5000) * 10)[-1])

    ok = h_err <= 1e-12 and f0 == 1.0 and endpoint <= 1e-9
    report(6, ok, f"power-law h error {h_err:.1e} (<=1e-12), "
                  f"f(alpha(0)) = {f0} (==1), profile endpoint {endpoint:.1e}")


def test_criterion_07_jackknife_identity(report):
    """Jackknife SE of the mean equals sd/sqrt(n) to 1e-12 relative, over
    100 random samples."""
    rng = np.random.default_rng(7)
    worst = 0.0
    for _ in range(100):
        x = rng.standard_normal(int(rng.integers(5, 500))) * rng.uniform(0.1, 10)
        se = stats.jackknife_se(x, np.mean)
        exact = np.std(x, ddof=1) / np.sqrt(len(x))
        worst = max(worst, abs(se - exact) / exact)
    ok = worst <= 1e-12
    report(7, ok, f"max relative deviation {worst:.1e} (<=1e-12)")


def test_criterion_08_rolling_arithmetic(report):
    """3188 observations, window 548, step 30 give exactly 89 windows."""
    count = rolling.n_windows(3188, 548, 30)

    rng = np.random.default_rng(8)
    times = np.arange(1, 3189, dtype=np.int64) * 86_400
    series = ingest.ReturnSeries(1440, times, rng.standard_normal(3188))
    cfg = rolling.RollingConfig(window=548, step=30)

    def estimator(values):
        return {"mean": float(np.mean(values)), "sd": float(np.std(values))}

    rows = len(rolling.rolling_apply(series, cfg, rolling.each_window(estimator)).rows)
    ok = count == 89 and rows == 89
    report(8, ok, f"window count {count} (==89), track rows {rows} (==89)")


def test_criterion_09_aggregational_gaussianity_null(report):
    """IID Gaussian minute ticks keep kurtosis 3 +- 0.2 at 60/360/1440
    minute sampling and a log-log slope of 0 +- 0.1."""
    n_days = 8000
    n_min = n_days * 1440
    rng = np.random.default_rng(9)
    log_price = np.cumsum(rng.standard_normal(n_min)) * 5e-4
    ticks = ingest.TickSeries(
        timestamps=np.arange(n_min, dtype=np.int64) * 60,
        prices=np.exp(log_price),
        amounts=np.ones(n_min),
    )
    scan = stats.agg_gaussianity_scan(ticks, [60, 360, 1440])
    kurts = {row["delta_t"]: row["kurtosis"] for row in scan.rows}
    kurt_ok = all(abs(kurts[dt] - 3.0) <= 0.2 for dt in (60, 360, 1440))
    slope_ok = scan.slope is not None and abs(scan.slope) <= 0.1
    ok = kurt_ok and slope_ok
    report(9, ok, "kurtosis " + ", ".join(
        f"{dt}min={kurts[dt]:.3f}" for dt in (60, 360, 1440))
        + f" (3 +- 0.2), slope {scan.slope:.3f} (0 +- 0.1)")


def test_criterion_10_shuffle_test(report):
    """Shuffling the cascade destroys long-range correlation, cutting the
    large-scale Delta h(4) by at least half."""
    x = synth.binomial_cascade(synth.CascadeSpec(levels=16, a=0.75))
    shuffled = np.random.default_rng(10).permutation(x)
    s = np.unique(np.round(np.geomspace(128, 8192, 25)).astype(int))
    cfg = mfdfa.MfdfaConfig(s_grid=s, fit_range=(128, 8192))
    dh = mfdfa.analyze(x, cfg)["dh"]
    dh_shuffled = mfdfa.analyze(shuffled, cfg)["dh"]
    reduction = 1.0 - dh_shuffled / dh
    ok = reduction >= 0.5
    report(10, ok, f"dh {dh:.3f} -> {dh_shuffled:.3f} shuffled, "
                   f"reduction {100 * reduction:.0f}% (>=50%)")
