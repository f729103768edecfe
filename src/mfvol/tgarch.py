"""AR(1) + threshold-GARCH(1,1) model.

r_t = mu + c1 * r_{t-1} + eps_t,       eps_t = sigma_t * eta_t
sigma2_t = omega + alpha * eps_{t-1}^2 + beta * sigma2_{t-1}
           + gamma * eps_{t-1}^2 * 1[eps_{t-1} < 0]

eta_t is IID with unit variance under one of three laws: normal, Student-t
(scaled by sqrt(nu/(nu-2))), or the generalized error distribution
(parameterized so shape kappa = 2 is exactly Gaussian).  gamma < 0 means
volatility reacts more to positive shocks (inverted asymmetry).

The likelihood is conditional on the first return; the variance recursion is
seeded with the sample variance of the fitted window.
"""

import json
import math
import time
from dataclasses import dataclass, replace

import numpy as np
from scipy.optimize import minimize

from . import kernels
from ._validate import finite_array

# The known innovation laws, with the shape each starts from (nu, kappa).
DEFAULT_SHAPE = {"normal": None, "student-t": 6.0, "ged": 1.5}

# Fixed fit settings; a manifest pins them through the recorded version.
MULTISTART_SEED = 20210915
_MULTISTARTS = 5
_MIN_OBS = 100
_SE_REL_STEP = 1e-4

_INVALID_NLL = 1e10


@dataclass
class TgarchParams:
    mu: float = 0.0
    c1: float = 0.0
    omega: float = 1.0
    alpha: float = 0.0
    beta: float = 0.0
    gamma: float = 0.0
    dist: str = "student-t"
    shape: float | None = None

    def __post_init__(self):
        if self.dist not in DEFAULT_SHAPE:
            raise ValueError(f"unknown distribution {self.dist!r}")
        if self.shape is None and self.dist != "normal":
            self.shape = DEFAULT_SHAPE[self.dist]

    def validate(self):
        if not self.omega > 0:
            raise ValueError("omega must be positive")
        if self.alpha < 0 or self.beta < 0:
            raise ValueError("alpha and beta must be nonnegative")
        if self.alpha + self.gamma < 0:
            raise ValueError("alpha + gamma must be nonnegative")
        if self.alpha + self.beta + 0.5 * self.gamma >= 1:
            raise ValueError("stationarity requires alpha + beta + gamma/2 < 1")
        if self.dist == "student-t" and not self.shape > 2:
            raise ValueError("student-t shape nu must exceed 2")
        if self.dist == "ged" and not self.shape > 0:
            raise ValueError("ged shape kappa must be positive")

    def free_names(self):
        names = ["mu", "c1", "omega", "alpha", "beta", "gamma"]
        if self.dist != "normal":
            names.append("shape")
        return names

    def as_dict(self):
        return {
            "mu": self.mu, "c1": self.c1, "omega": self.omega,
            "alpha": self.alpha, "beta": self.beta, "gamma": self.gamma,
            "dist": self.dist, "shape": self.shape,
        }


@dataclass
class VolatilityPath:
    sigma2: np.ndarray
    eps: np.ndarray
    sigma2_init: float


@dataclass
class StdErrors:
    values: dict | None
    hessian_ok: bool


@dataclass
class TgarchFit:
    params: TgarchParams
    std_errors: dict | None
    loglik: float
    converged: bool
    iterations: int
    hessian_ok: bool
    nobs: int
    fit_seconds: float = 0.0


def _default_sigma2_init(returns):
    return float(np.var(np.asarray(returns, dtype=np.float64), ddof=1))


def filter_volatility(params: TgarchParams, returns, sigma2_init=None) -> VolatilityPath:
    """Run the residual/variance recursion under fixed parameters."""
    params.validate()
    r = finite_array(returns, "returns")
    if len(r) < 2:
        raise ValueError("need at least 2 returns")
    if sigma2_init is None:
        sigma2_init = _default_sigma2_init(r)
    sigma2, eps = kernels.tgarch_recursion(r, params, sigma2_init)
    if not (sigma2.min() > 0 and sigma2.max() < math.inf):
        raise ValueError("conditional variance left the positive finite domain")
    return VolatilityPath(sigma2=sigma2, eps=eps, sigma2_init=float(sigma2_init))


def neg_log_likelihood(params: TgarchParams, returns, sigma2_init=None) -> float:
    """Conditional NLL summed over observations 2..n (AR lag consumes one)."""
    params.validate()
    r = np.asarray(returns, dtype=np.float64)
    if sigma2_init is None:
        sigma2_init = _default_sigma2_init(r)
    nll = kernels.tgarch_nll(r, params, sigma2_init)
    if not math.isfinite(nll):
        raise ValueError("non-finite likelihood (invalid parameters or data)")
    return nll


# --- unconstrained reparameterization used by the optimizer ----------------

def _z_to_params(z, dist):
    """The parameters at z, with the shape clamped to nu <= 2 + e^50 and
    kappa <= e^10.  Raises OverflowError if omega, alpha or beta does."""
    shape = None
    if dist == "student-t":
        shape = 2.0 + math.exp(min(z[6], 50.0))
    elif dist == "ged":
        shape = math.exp(min(z[6], 10.0))
    return TgarchParams(
        mu=z[0], c1=z[1], omega=math.exp(z[2]),
        alpha=math.exp(z[3]), beta=math.exp(z[4]), gamma=z[5],
        dist=dist, shape=shape,
    )


def _params_to_z(p: TgarchParams):
    z = [p.mu, p.c1, math.log(p.omega), math.log(max(p.alpha, 1e-8)),
         math.log(max(p.beta, 1e-8)), p.gamma]
    if p.dist == "student-t":
        z.append(math.log(p.shape - 2.0))
    elif p.dist == "ged":
        z.append(math.log(p.shape))
    return np.asarray(z, dtype=np.float64)


def _objective(z, r, dist, sigma2_init):
    try:
        p = _z_to_params(z, dist)
    except OverflowError:
        return _INVALID_NLL
    persistence = p.alpha + p.beta + 0.5 * p.gamma
    # Smooth transforms keep omega/alpha/beta positive; the remaining two
    # constraints are enforced by rejection with a gradient-friendly penalty.
    if persistence >= 0.999999 or p.alpha + p.gamma < 0:
        return _INVALID_NLL * (1.0 + max(persistence - 1.0, 0.0) + max(-(p.alpha + p.gamma), 0.0))
    nll = kernels.tgarch_nll(r, p, sigma2_init)
    return nll if math.isfinite(nll) else _INVALID_NLL


def _moment_start(r, dist):
    v = float(np.var(r, ddof=1))
    mu0 = float(np.mean(r))
    rc = r - mu0
    denom = float(rc[:-1] @ rc[:-1])
    c10 = float(rc[1:] @ rc[:-1]) / denom if denom > 0 else 0.0
    c10 = float(np.clip(c10, -0.9, 0.9))
    alpha0, beta0 = 0.1, 0.8
    omega0 = max(v * (1.0 - alpha0 - beta0), 1e-6)
    return TgarchParams(
        mu=mu0, c1=c10, omega=omega0, alpha=alpha0, beta=beta0, gamma=0.0,
        dist=dist, shape=DEFAULT_SHAPE[dist],
    )


def fit(returns, dist: str = "student-t") -> TgarchFit:
    """Constrained maximum-likelihood fit.

    Seeded multi-start Nelder-Mead in the transformed space, best point
    polished by BFGS.  Deterministic for fixed inputs and dist.
    """
    if dist not in DEFAULT_SHAPE:
        raise ValueError(f"unknown distribution {dist!r}")
    r = finite_array(returns, "returns")
    if len(r) < _MIN_OBS:
        raise ValueError(f"need at least {_MIN_OBS} returns, got {len(r)}")
    with np.errstate(over="ignore"):  # an overflow is rejected just below
        var = float(np.var(r))
    if not 0.0 < var < math.inf:
        raise ValueError(f"degenerate input: variance must be positive and finite, got {var}")

    t0 = time.perf_counter()
    sigma2_init = _default_sigma2_init(r)
    z0 = _params_to_z(_moment_start(r, dist))
    rng = np.random.default_rng(MULTISTART_SEED)
    scales = np.array([0.1, 0.1, 0.3, 0.3, 0.2, 0.05] + ([0.3] if dist != "normal" else []))
    starts = [z0] + [z0 + rng.normal(0.0, scales) for _ in range(_MULTISTARTS - 1)]

    best = None
    iterations = 0
    any_success = False
    for z_start in starts:
        res = minimize(
            _objective, z_start, args=(r, dist, sigma2_init),
            method="Nelder-Mead",
            options={
                "maxiter": 1000,
                "fatol": 1e-7,
                "xatol": 1e-6,
                "adaptive": True,
            },
        )
        iterations += res.nit
        any_success = any_success or bool(res.success)
        if best is None or res.fun < best.fun:
            best = res

    polish = minimize(
        _objective, best.x, args=(r, dist, sigma2_init),
        method="BFGS",
        options={"gtol": 1e-6, "maxiter": 500},
    )
    iterations += polish.nit
    if polish.fun <= best.fun and np.isfinite(polish.fun):
        z_opt, f_opt = polish.x, polish.fun
        converged = bool(polish.success or any_success)
    else:
        z_opt, f_opt = best.x, best.fun
        converged = any_success

    params = _z_to_params(z_opt, dist)
    try:
        params.validate()
    except ValueError:
        converged = False

    se = std_errors(r, params, sigma2_init=sigma2_init)
    return TgarchFit(
        params=params,
        std_errors=se.values,
        loglik=-float(f_opt),
        converged=converged,
        iterations=int(iterations),
        hessian_ok=se.hessian_ok,
        nobs=len(r),
        fit_seconds=time.perf_counter() - t0,
    )


def std_errors(returns, params: TgarchParams, free=None, sigma2_init=None) -> StdErrors:
    """Asymptotic standard errors from the numerically differenced Hessian.

    Central differences in the original parameter space with a per-parameter
    relative step.  ``free`` restricts the Hessian to a subset of parameter
    names (the rest held fixed).  A non-positive-definite Hessian yields
    hessian_ok=False and no values.
    """
    r = np.asarray(returns, dtype=np.float64)
    if sigma2_init is None:
        sigma2_init = _default_sigma2_init(r)
    names = list(free) if free is not None else params.free_names()
    p0 = np.array([getattr(params, n) for n in names], dtype=np.float64)

    def f(p):
        cand = replace(params, **dict(zip(names, p)))
        try:
            return kernels.tgarch_nll(r, cand, sigma2_init)
        except (ValueError, OverflowError):
            return math.inf

    k = len(p0)
    # additive floor: a purely relative step underflows into round-off noise
    # for near-zero parameters (second differences of an O(1e4) objective)
    h = _SE_REL_STEP * (np.abs(p0) + 0.1)
    hess = np.empty((k, k))
    f0 = f(p0)
    for i in range(k):
        ei = np.zeros(k); ei[i] = h[i]
        hess[i, i] = (f(p0 + ei) - 2.0 * f0 + f(p0 - ei)) / h[i] ** 2
        for j in range(i + 1, k):
            ej = np.zeros(k); ej[j] = h[j]
            hess[i, j] = hess[j, i] = (
                f(p0 + ei + ej) - f(p0 + ei - ej) - f(p0 - ei + ej) + f(p0 - ei - ej)
            ) / (4.0 * h[i] * h[j])

    if not np.all(np.isfinite(hess)):
        return StdErrors(values=None, hessian_ok=False)
    try:
        np.linalg.cholesky(hess)
    except np.linalg.LinAlgError:
        return StdErrors(values=None, hessian_ok=False)
    cov = np.linalg.inv(hess)
    diag = np.diag(cov)
    if np.any(diag <= 0):
        return StdErrors(values=None, hessian_ok=False)
    return StdErrors(values=dict(zip(names, np.sqrt(diag))), hessian_ok=True)


def simulate(params: TgarchParams, n: int, seed: int, burn_in: int = 1000) -> np.ndarray:
    """Generate n returns from the model after discarding a burn-in.

    Deterministic per seed (NumPy PCG64 generator).
    """
    params.validate()
    if n < 1:
        raise ValueError("n must be >= 1")
    rng = np.random.default_rng(seed)
    total = n + burn_in
    if params.dist == "normal":
        eta = rng.standard_normal(total)
    elif params.dist == "student-t":
        nu = params.shape
        eta = rng.standard_t(nu, total) * math.sqrt((nu - 2.0) / nu)
    else:
        kappa = params.shape
        lam = math.sqrt(kernels._ged_lambda2(kappa))
        w = rng.gamma(1.0 / kappa, 1.0, total)
        signs = np.where(rng.random(total) < 0.5, -1.0, 1.0)
        eta = signs * lam * (2.0 * w) ** (1.0 / kappa)

    persistence = params.alpha + params.beta + 0.5 * params.gamma
    s2 = params.omega / (1.0 - persistence)
    e_prev = 0.0
    r_prev = params.mu / (1.0 - params.c1) if abs(params.c1) < 1 else 0.0
    out = np.empty(total)
    for t in range(total):
        coef = params.alpha + (params.gamma if e_prev < 0.0 else 0.0)
        s2 = params.omega + coef * e_prev * e_prev + params.beta * s2
        e = math.sqrt(s2) * eta[t]
        r_t = params.mu + params.c1 * r_prev + e
        out[t] = r_t
        e_prev, r_prev = e, r_t
    return out[burn_in:]


def fit_to_json(fit_result: TgarchFit) -> str:
    doc = {
        "params": fit_result.params.as_dict(),
        "std_errors": fit_result.std_errors,
        "loglik": fit_result.loglik,
        "converged": fit_result.converged,
        "iterations": fit_result.iterations,
        "hessian_ok": fit_result.hessian_ok,
        "nobs": fit_result.nobs,
    }
    return json.dumps(doc, indent=2)
