import math
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from scipy.optimize import LinearConstraint, minimize

from mfvol import kernels, tgarch


def normal_params(**kw):
    base = dict(mu=0.0, c1=0.0, omega=1.0, alpha=0.0, beta=0.0, gamma=0.0,
                dist="normal")
    base.update(kw)
    return tgarch.TgarchParams(**base)


# The benchmark's model: tgarch.simulate with seed [seed, stream] and a burn-in
# of 500 gives the series of perfbench/gen.py daily_series(n, seed, stream)
BENCH_MODEL = tgarch.TgarchParams(mu=0.03, c1=0.05, omega=0.2, alpha=0.1, beta=0.8,
                                  gamma=-0.05, dist="student-t", shape=5.0)
WINDOWS = {
    # the benchmark panel's first window: an interior fit under every law
    "interior": lambda: tgarch.simulate(BENCH_MODEL, 578, seed=[7, 100], burn_in=500)[:548],
    # the panel's stream 101: alpha + gamma = 0 under every law, and no Hessian
    "boundary": lambda: tgarch.simulate(BENCH_MODEL, 548, seed=[7, 101], burn_in=500),
    # a rolling window of 3,000 bars whose GED fit moves in its last digits when
    # the two constraint rows are taken from separate dot products
    "rolling": lambda: tgarch.simulate(BENCH_MODEL, 3000, seed=[1, 11], burn_in=500)[120:668],
}


def count_calls(monkeypatch, names):
    """Count the calls of the named ``kernels`` functions, made through the
    module attribute; returns the live counts."""
    calls = dict.fromkeys(names, 0)

    def counting(name):
        real = getattr(kernels, name)

        def counted(*args, **kwargs):
            calls[name] += 1
            return real(*args, **kwargs)

        return counted

    for name in names:
        monkeypatch.setattr(kernels, name, counting(name))
    return calls


def best_step_gain(params, r):
    """Largest log-likelihood gain of a feasible +-0.1 % coordinate step
    (step 1e-3 * (|value| + 0.1)), the optimality rule of the benchmark's checks."""
    base = tgarch.neg_log_likelihood(params, r)
    gain = -math.inf
    for name in params.free_names():
        value = getattr(params, name)
        h = 1e-3 * (abs(value) + 0.1)
        for step in (h, -h):
            try:
                nll = tgarch.neg_log_likelihood(replace(params, **{name: value + step}), r)
            except ValueError:  # the step leaves the feasible set
                continue
            gain = max(gain, base - nll)
    return gain


class TestFilterVolatility:
    def test_collapses_to_intercept(self):
        p = normal_params(omega=2.5)
        sigma2, _ = tgarch.filter_volatility(p, np.array([1.0, -1.0, 0.5]),
                                             sigma2_init=2.5)
        assert np.allclose(sigma2, 2.5)

    def test_negative_residual_branch(self):
        p = normal_params(alpha=0.1, gamma=0.2)
        sigma2, _ = tgarch.filter_volatility(p, [-2.0, 0.0], sigma2_init=1.0)
        assert sigma2[1] == pytest.approx(2.2, abs=1e-12)

    def test_positive_residual_branch(self):
        p = normal_params(alpha=0.1, gamma=0.2)
        sigma2, _ = tgarch.filter_volatility(p, [2.0, 0.0], sigma2_init=1.0)
        assert sigma2[1] == pytest.approx(1.4, abs=1e-12)

    def test_scale_consistency(self):
        # k a power of two so the rescaling is exact in floating point
        k = 2.0
        rng = np.random.default_rng(0)
        r = rng.standard_normal(200)
        p = normal_params(mu=0.05, c1=0.1, omega=0.4, alpha=0.08, beta=0.8,
                          gamma=-0.04)
        pk = normal_params(mu=k * 0.05, c1=0.1, omega=k * k * 0.4, alpha=0.08,
                           beta=0.8, gamma=-0.04)
        a, _ = tgarch.filter_volatility(p, r, sigma2_init=1.0)
        b, _ = tgarch.filter_volatility(pk, k * r, sigma2_init=k * k * 1.0)
        assert np.array_equal(b, k * k * a)

    def test_indicator_flip_changes_sigma2_by_gamma_eps2(self):
        p = normal_params(alpha=0.1, gamma=0.2)
        neg, _ = tgarch.filter_volatility(p, [-3.0, 0.0], sigma2_init=1.0)
        pos, _ = tgarch.filter_volatility(p, [3.0, 0.0], sigma2_init=1.0)
        assert neg[1] - pos[1] == pytest.approx(0.2 * 9.0, abs=1e-12)

    def test_invalid_params_rejected(self):
        with pytest.raises(ValueError):
            tgarch.filter_volatility(normal_params(omega=-1.0), [1.0, 2.0])
        with pytest.raises(ValueError):
            tgarch.filter_volatility(normal_params(alpha=0.5, beta=0.7), [1.0, 2.0])

    @pytest.mark.parametrize("bad,match", [
        pytest.param(np.nan, "non-finite .* index 123", id="nan"),
        pytest.param(np.inf, "non-finite .* index 123", id="inf"),
        # finite, but the default presample variance overflows to inf
        pytest.param(1e200, "positive finite domain", id="overflow"),
    ])
    def test_non_finite_input(self, bad, match):
        r = np.random.default_rng(0).standard_normal(300)
        r[123] = bad
        # rejected before any NumPy warning is printed
        with warnings.catch_warnings(), pytest.raises(ValueError, match=match):
            warnings.simplefilter("error")
            tgarch.filter_volatility(normal_params(alpha=0.1, beta=0.8), r)


    @pytest.mark.parametrize("call", [tgarch.filter_volatility, tgarch.neg_log_likelihood])
    def test_overflow_with_explicit_presample_variance(self, call):
        r = 1e200 * np.random.default_rng(0).standard_normal(300)
        with warnings.catch_warnings(), pytest.raises(ValueError):
            warnings.simplefilter("error")
            call(normal_params(alpha=0.1, beta=0.8), r, sigma2_init=1.0)


class TestNegLogLikelihood:
    def test_standard_normal_at_zero(self):
        nll = tgarch.neg_log_likelihood(normal_params(), [0.0, 0.0],
                                        sigma2_init=1.0)
        assert nll == pytest.approx(0.5 * math.log(2 * math.pi), rel=1e-12)

    def test_student_t_limit_is_normal(self):
        r = np.random.default_rng(1).standard_normal(300)
        pt = tgarch.TgarchParams(omega=1.0, dist="student-t", shape=1e6)
        pn = normal_params()
        nt = tgarch.neg_log_likelihood(pt, r, sigma2_init=1.0)
        nn = tgarch.neg_log_likelihood(pn, r, sigma2_init=1.0)
        assert abs(nt - nn) < 1e-3

    def test_ged_shape2_equals_normal(self):
        r = np.random.default_rng(2).standard_normal(300)
        pg = tgarch.TgarchParams(mu=0.1, c1=0.05, omega=0.5, alpha=0.1,
                                 beta=0.7, gamma=-0.05, dist="ged", shape=2.0)
        pn = tgarch.TgarchParams(mu=0.1, c1=0.05, omega=0.5, alpha=0.1,
                                 beta=0.7, gamma=-0.05, dist="normal")
        ng = tgarch.neg_log_likelihood(pg, r)
        nn = tgarch.neg_log_likelihood(pn, r)
        assert ng == pytest.approx(nn, abs=1e-9)

    def test_bad_shape_rejected(self):
        with pytest.raises(ValueError):
            tgarch.neg_log_likelihood(
                tgarch.TgarchParams(omega=1.0, dist="student-t", shape=1.5),
                [0.0, 1.0],
            )


class TestSimulate:
    def test_iid_variance(self):
        p = normal_params(omega=4.0)
        x = tgarch.simulate(p, 100_000, seed=5)
        assert abs(np.var(x) - 4.0) < 0.15

    def test_gamma_zero_matches_plain_garch_recursion(self):
        p = tgarch.TgarchParams(mu=0.0, c1=0.0, omega=0.2, alpha=0.1,
                                beta=0.8, gamma=0.0, dist="normal")
        x = tgarch.simulate(p, 500, seed=7, burn_in=100)
        # gamma-free reference recursion driven by the same seeded draws
        rng = np.random.default_rng(7)
        eta = rng.standard_normal(600)
        s2 = 0.2 / (1.0 - 0.9)
        e_prev = 0.0
        ref = []
        for t in range(600):
            s2 = 0.2 + 0.1 * e_prev * e_prev + 0.8 * s2
            e_prev = math.sqrt(s2) * eta[t]
            ref.append(e_prev)
        assert np.array_equal(x, np.asarray(ref)[100:])

    def test_ar1_autocorrelation(self):
        p = normal_params(c1=0.5, omega=1.0)
        x = tgarch.simulate(p, 100_000, seed=9)
        xc = x - x.mean()
        rho = (xc[1:] @ xc[:-1]) / (xc @ xc)
        assert abs(rho - 0.5) < 0.02

    def test_deterministic_per_seed(self):
        p = normal_params(omega=1.0)
        assert np.array_equal(tgarch.simulate(p, 100, 3), tgarch.simulate(p, 100, 3))

    def test_ged_draws_unit_variance(self):
        p = tgarch.TgarchParams(omega=1.0, dist="ged", shape=1.3)
        x = tgarch.simulate(p, 200_000, seed=11)
        assert abs(np.var(x) - 1.0) < 0.02


class TestFit:
    def test_null_model_recovery(self):
        # Constant-variance Gaussian: the shock loadings should be small and
        # the implied unconditional variance close to 1.  (beta alone is not
        # identified when alpha and gamma vanish, so it is not checked.)
        p = normal_params(omega=1.0)
        r = tgarch.simulate(p, 5000, seed=13)
        fit = tgarch.fit(r, "normal")
        assert fit.converged
        est = fit.params
        assert abs(est.alpha) <= 0.05
        assert abs(est.alpha + est.gamma) <= 0.05
        persistence = est.alpha + est.beta + 0.5 * est.gamma
        uncond = est.omega / (1.0 - persistence)
        assert uncond == pytest.approx(np.var(r), rel=0.1)

    def test_deterministic(self):
        truth = tgarch.TgarchParams(omega=0.2, alpha=0.1, beta=0.8,
                                    gamma=-0.05, dist="normal")
        r = tgarch.simulate(truth, 1500, seed=17)
        f1 = tgarch.fit(r, "normal")
        f2 = tgarch.fit(r, "normal")
        assert f1.params.as_dict() == f2.params.as_dict()
        assert f1.loglik == f2.loglik

    def test_degenerate_input(self):
        # zero variance, and finite returns whose variance overflows
        for r in (np.ones(500), 1e200 * np.random.default_rng(0).standard_normal(300)):
            with pytest.raises(ValueError, match="variance"):
                tgarch.fit(r, "normal")

    def test_too_short(self):
        with pytest.raises(ValueError):
            tgarch.fit(np.random.default_rng(0).standard_normal(50), "normal")

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_input(self, bad):
        r = np.random.default_rng(0).standard_normal(300)
        r[123] = bad
        with pytest.raises(ValueError, match="non-finite .* index 123"):
            tgarch.fit(r, "normal")

    @pytest.mark.parametrize("dist,r", [
        ("normal", np.random.default_rng(5).standard_normal(400)),
        ("student-t", np.random.default_rng(6).standard_t(5, 400)),
        # the GED shape runs to the upper end of its range here
        ("ged", np.random.default_rng(2).uniform(-1, 1, 600)),
    ])
    def test_reports_the_scored_parameters(self, dist, r):
        fit = tgarch.fit(r, dist)
        assert fit.loglik == pytest.approx(-tgarch.neg_log_likelihood(fit.params, r),
                                           rel=1e-12)

    # i.i.d. series whose maximum lies on alpha + gamma = 0, with the
    # log-likelihood that the earlier Nelder-Mead fit stopped at
    @pytest.mark.parametrize("dist,r,earlier_loglik", [
        ("normal", np.random.default_rng(5).standard_normal(400), -550.550907),
        ("student-t", np.random.default_rng(6).standard_t(5, 400), -676.642837),
    ], ids=["normal", "student-t"])
    def test_boundary_fit_is_a_converged_maximum(self, dist, r, earlier_loglik):
        fit = tgarch.fit(r, dist)
        assert fit.converged
        fit.params.validate()
        assert fit.params.alpha + fit.params.gamma == pytest.approx(0.0, abs=1e-9)
        assert fit.loglik >= earlier_loglik
        assert best_step_gain(fit.params, r) <= 1e-5

    @given(arrays(np.float64, st.integers(100, 120),
                  elements=st.floats(-1e300, 1e300, allow_nan=False)))
    @settings(derandomize=True, max_examples=40, deadline=None)
    def test_raises_or_returns_finite_fit(self, x):
        try:
            fit = tgarch.fit(x, "normal")
        except ValueError:
            return
        p = fit.params
        assert all(math.isfinite(v) for v in (p.mu, p.c1, p.omega, p.alpha, p.beta, p.gamma))
        assert math.isfinite(fit.loglik) and fit.loglik > -1e10

    def test_ged_fit_without_warning(self):
        # the GED kernel's |z|^kappa overflows at some of the solver's trial points
        truth = tgarch.TgarchParams(mu=0.03, c1=0.05, omega=0.2, alpha=0.1, beta=0.8,
                                    gamma=-0.05, dist="student-t", shape=5.0)
        r = tgarch.simulate(truth, 548, seed=4)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            fit = tgarch.fit(r, "ged")
        assert fit.converged and math.isfinite(fit.loglik)

    def test_likelihood_called_through_kernels_attribute(self, monkeypatch):
        # the benchmark's tracer counts likelihood calls through this attribute;
        # std_errors differences the score, so it is reached the same way
        calls = count_calls(monkeypatch, ["tgarch_nll", "tgarch_score"])
        r = np.random.default_rng(3).standard_normal(200)
        fit = tgarch.fit(r, "normal")
        after_fit = dict(calls)
        tgarch.std_errors(r, fit.params)
        assert after_fit["tgarch_nll"] > 0 and after_fit["tgarch_score"] > 0
        assert calls["tgarch_score"] > after_fit["tgarch_score"]


class TestSharedForwardPass:
    """SLSQP asks for the score at the point whose likelihood it has just
    evaluated; the fit reuses that likelihood's forward pass there, and the
    fit does not change."""

    @staticmethod
    def plain_fit(r, dist, starts, bounds):
        """`tgarch.fit` from the given starts and bounds with every likelihood
        and score call running its own forward pass, and the two linear
        constraints as SciPy's `LinearConstraint`."""
        sigma2_init = tgarch._default_sigma2_init(r)
        k = len(starts[0])
        units = tgarch._units(sigma2_init, k)

        def nll(x):
            return kernels.tgarch_nll(r, tgarch._params_at(x, units, dist), sigma2_init)

        def score(x):
            return kernels.tgarch_score(r, tgarch._params_at(x, units, dist), sigma2_init) * units

        rows = np.array([[0, 0, 0, 1, 0, 1, 0], [0, 0, 0, 1, 1, 0.5, 0]])[:, :k]
        constraint = LinearConstraint(rows, [0.0, -np.inf], [np.inf, tgarch._MAX_PERSISTENCE])
        results = [minimize(nll, x0, method="SLSQP", jac=score, bounds=bounds,
                            constraints=constraint,
                            options={"ftol": tgarch._FTOL, "maxiter": tgarch._MAXITER})
                   for x0 in starts]
        best = min(results, key=lambda res: (not res.success, res.fun))
        x = best.x.copy()
        x[5] = max(x[5], -x[3])
        params = tgarch._params_at(x, units, dist)
        return tgarch.TgarchFit(
            params=params, std_errors=tgarch.std_errors(r, params, sigma2_init=sigma2_init),
            loglik=-tgarch.neg_log_likelihood(params, r, sigma2_init),
            converged=bool(best.success), iterations=sum(int(res.nit) for res in results),
            nobs=len(r))

    @pytest.mark.parametrize("window", sorted(WINDOWS))
    @pytest.mark.parametrize("dist", ["normal", "student-t", "ged"])
    def test_fit_equals_the_plain_solve_exactly(self, monkeypatch, dist, window):
        r = WINDOWS[window]()
        solves = []
        real_minimize = tgarch.minimize

        def recording(fun, x0, **kwargs):
            solves.append((x0.copy(), kwargs["bounds"]))
            return real_minimize(fun, x0, **kwargs)

        monkeypatch.setattr(tgarch, "minimize", recording)
        got = tgarch.fit(r, dist)
        want = self.plain_fit(r, dist, [x0 for x0, _ in solves], solves[0][1])
        assert len(solves) == tgarch._MULTISTARTS
        # params, log-likelihood, standard errors, converged and iterations, exactly
        assert tgarch.fit_to_json(got) == tgarch.fit_to_json(want)
        if window == "boundary":
            assert got.params.alpha + got.params.gamma == 0.0
        elif window == "interior":
            assert got.hessian_ok

    def test_one_forward_pass_per_solver_point(self, monkeypatch):
        # 126 likelihood calls by SLSQP over three starts and one to score the
        # projected optimum, as before the score reused the forward pass
        calls = count_calls(monkeypatch, ["tgarch_nll", "tgarch_score", "tgarch_recursion"])
        fit = tgarch.fit(WINDOWS["interior"](), "student-t")
        k = len(fit.params.free_names())
        assert calls["tgarch_nll"] == 127
        assert calls["tgarch_score"] > 2 * k
        # each score SLSQP asks for reuses a likelihood's recursion; only the
        # Hessian's 2k score calls, at new points, run their own
        assert calls["tgarch_recursion"] == calls["tgarch_nll"] + 2 * k

    def test_memo_holds_one_point_of_one_objective(self):
        r = WINDOWS["interior"]()
        units = tgarch._units(1.0, 7)
        x = np.array([0.01, 0.05, 0.1, 0.1, 0.8, 0.0, 5.0])
        y = x + 0.01

        def plain_score(returns, point):
            params = tgarch._params_at(point, units, "student-t")
            return kernels.tgarch_score(returns, params, 1.0) * units

        objective = tgarch._Objective(r, "student-t", 1.0, units)
        other = tgarch._Objective(2.0 * r, "student-t", 1.0, units)
        objective.nll(x)
        other.nll(x)  # the same point with other returns
        assert np.array_equal(objective.score(x), plain_score(r, x))
        assert np.array_equal(objective.score(y), plain_score(r, y))
        assert not np.array_equal(plain_score(r, x), plain_score(r, y))


class TestStdErrors:
    def test_gaussian_mean_fisher_information(self):
        rng = np.random.default_rng(19)
        sigma = 2.0
        n = 5000
        r = rng.normal(0.0, sigma, n)
        p = normal_params(omega=sigma**2)
        se = tgarch.std_errors(r, p, free=["mu"], sigma2_init=sigma**2)
        assert set(se) == {"mu"}
        # likelihood conditions on the first observation: n-1 effective
        expected = sigma / math.sqrt(n - 1)
        assert se["mu"] == pytest.approx(expected, rel=0.05)

    def test_saddle_flagged(self):
        # far in the tail of a student-t location model the NLL curvature
        # in mu is negative: redescending score
        r = np.random.default_rng(21).standard_normal(200)
        p = tgarch.TgarchParams(mu=50.0, omega=1.0, dist="student-t", shape=3.0)
        assert tgarch.std_errors(r, p, free=["mu"], sigma2_init=1.0) is None

    @pytest.mark.parametrize("scale", [1e-80, 1e-120])
    def test_tiny_returns_flagged_without_warning(self, scale):
        # omega = 0.2 is ~1e159 sample variances: the Hessian's steps overflow
        r = scale * np.random.default_rng(0).standard_normal(300)
        p = tgarch.TgarchParams(omega=0.2, alpha=0.1, beta=0.8, gamma=-0.05)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            se = tgarch.std_errors(r, p)
        assert se is None

    @pytest.fixture(scope="class")
    def unit_scale_fit(self):
        truth = tgarch.TgarchParams(mu=0.05, c1=0.05, omega=0.2, alpha=0.1, beta=0.8,
                                    gamma=-0.05, dist="student-t", shape=6.0)
        r = tgarch.simulate(truth, 1000, seed=31)
        return r, tgarch.fit(r)

    @pytest.mark.parametrize("c", [1e-4, 1e-2, 1e2])
    def test_scale_with_the_returns(self, unit_scale_fit, c):
        # decimal returns (c = 1e-2) must get the standard errors of percent
        # returns, in their own units: SE(mu) ~ c, SE(omega) ~ c^2
        r, base = unit_scale_fit
        assert base.hessian_ok
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            scaled = tgarch.fit(r * c)
        assert scaled.hessian_ok
        power = {"mu": 1, "omega": 2}
        for name, se in base.std_errors.items():
            assert scaled.std_errors[name] / c ** power.get(name, 0) == pytest.approx(se, rel=1e-4)


def test_fit_json_schema():
    truth = tgarch.TgarchParams(omega=0.2, alpha=0.1, beta=0.8, gamma=-0.05,
                                dist="normal")
    r = tgarch.simulate(truth, 1500, seed=23)
    fit = tgarch.fit(r, "normal")
    import json
    doc = json.loads(tgarch.fit_to_json(fit))
    for key in ("params", "std_errors", "loglik", "converged", "iterations",
                "hessian_ok", "nobs"):
        assert key in doc
    for key in ("mu", "c1", "omega", "alpha", "beta", "gamma", "dist"):
        assert key in doc["params"]
