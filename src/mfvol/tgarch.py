"""AR(1) + threshold-GARCH(1,1) model.

r_t = mu + c1 * r_{t-1} + eps_t,       eps_t = sigma_t * eta_t
sigma2_t = omega + alpha * eps_{t-1}^2 + beta * sigma2_{t-1}
           + gamma * eps_{t-1}^2 * 1[eps_{t-1} < 0]

eta_t is IID with unit variance under one of three laws: normal, Student-t
(scaled by sqrt(nu/(nu-2))), or the generalized error distribution
(parameterized so shape kappa = 2 is exactly Gaussian).  gamma < 0 means
volatility reacts more to positive shocks (inverted asymmetry).

The likelihood is conditional on the first return; the variance recursion is
seeded with the sample variance of the fitted window.  `filter_volatility`
returns the (sigma2, eps) arrays of that recursion, and `std_errors` the
standard errors by parameter name, or None when the Hessian is not finite or
not positive definite; a fit's ``hessian_ok`` says which.
"""

import json
import math
from dataclasses import dataclass

import numpy as np
from scipy.optimize import minimize

from . import kernels
from ._validate import finite_array

# The known innovation laws, with the shape each starts from (nu, kappa).
DEFAULT_SHAPE = {"normal": None, "student-t": 6.0, "ged": 1.5}

# Fixed fit settings; a manifest pins them through the recorded version.
MULTISTART_SEED = 20210915
_MULTISTARTS = 3
MIN_OBS = 100  # returns a fit needs
_SE_REL_STEP = 1e-4
_FTOL = 1e-10
_MAXITER = 500
_MAX_PERSISTENCE = 1.0 - 1e-6
_OMEGA_FLOOR = 1e-8  # in units of the sample variance
# Shape ranges inside which the likelihood stays finite: kappa well below 0.1
# underflows the GED scale, and a large kappa overflows |z|^kappa.
_SHAPE_BOUNDS = {"student-t": (2.001, 500.0), "ged": (0.1, 50.0)}
# spread of the random starts around the moment start, in the solver's units
_START_SPREAD = np.array([0.1, 0.1, 0.03, 0.03, 0.05, 0.03, 1.0])


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
class TgarchFit:
    params: TgarchParams
    std_errors: dict | None
    loglik: float
    converged: bool
    iterations: int
    nobs: int

    @property
    def hessian_ok(self):
        """Whether the Hessian gave standard errors (see `std_errors`)."""
        return self.std_errors is not None


def _default_sigma2_init(returns):
    """The presample variance of the recursion: the sample variance of the
    returns.  Raises ValueError unless it is positive and finite."""
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow is rejected below
        var = float(np.var(returns, ddof=1))
    if not 0.0 < var < math.inf:
        raise ValueError(f"degenerate input: the sample variance {var} is outside "
                         "the positive finite domain")
    return var


@np.errstate(over="ignore", invalid="ignore")  # an overflow is rejected below
def filter_volatility(params: TgarchParams, returns, sigma2_init=None):
    """Run the residual/variance recursion under fixed parameters.

    Returns the arrays (sigma2, eps) of `kernels.tgarch_recursion`; sigma2[0]
    is the presample variance ``sigma2_init``.
    """
    params.validate()
    r = finite_array(returns, "returns", 2)
    if sigma2_init is None:
        sigma2_init = _default_sigma2_init(r)
    sigma2, eps = kernels.tgarch_recursion(r, params, sigma2_init)
    if not (sigma2.min() > 0 and sigma2.max() < math.inf):
        raise ValueError("conditional variance left the positive finite domain")
    return sigma2, eps


@np.errstate(over="ignore", invalid="ignore")  # an overflow is rejected below
def neg_log_likelihood(params: TgarchParams, returns, sigma2_init=None) -> float:
    """Conditional NLL summed over observations 2..n (AR lag consumes one)."""
    params.validate()
    r = finite_array(returns, "returns", 2)
    if sigma2_init is None:
        sigma2_init = _default_sigma2_init(r)
    nll = kernels.tgarch_nll(r, params, sigma2_init)
    if not math.isfinite(nll):
        raise ValueError("non-finite likelihood (invalid parameters or data)")
    return nll


# --- the constrained fit ---------------------------------------------------

def _units(var, k):
    """The solver's coordinates are x = theta / units: mu in units of
    sqrt(var), omega in units of var, the rest as is."""
    return np.array([math.sqrt(var), 1.0, var, 1.0, 1.0, 1.0, 1.0][:k])


def _params_at(x, units, dist):
    """The parameters at the solver's point x, whose coordinates are the free
    parameters divided by ``units``."""
    v = (x[:6] * units[:6]).tolist()
    return TgarchParams(*v, dist=dist, shape=float(x[6]) if dist != "normal" else None)


class _Objective:
    """The fit's objective and its gradient at the solver's points x, for one
    fit or one Hessian.

    SLSQP asks for the gradient at the point whose likelihood it has just
    evaluated, so the likelihood keeps its forward pass and a gradient at
    the same point, keyed on the exact bytes of x, runs only the backward
    one.  The memo holds one point and belongs to this object, never to the
    module: two fits can visit the same x with different returns.
    """

    def __init__(self, r, dist, sigma2_init, units):
        self.r, self.dist, self.sigma2_init, self.units = r, dist, sigma2_init, units
        self._key = self._params = self._forward = None

    def nll(self, x):
        # +inf at a trial point whose variance overflows (one off the stationarity
        # constraint, say); SLSQP's line search steps back from it
        params = _params_at(x, self.units, self.dist)
        forward = {}
        nll = kernels.tgarch_nll(self.r, params, self.sigma2_init, forward)
        self._key, self._params, self._forward = x.tobytes(), params, forward
        return nll

    def score(self, x):
        # the analytic score in the solver's coordinates; not finite wherever the
        # objective is +inf, so a Hessian that meets such a point is not finite
        if x.tobytes() == self._key:
            params, forward = self._params, self._forward
        else:
            params, forward = _params_at(x, self.units, self.dist), None
        return kernels.tgarch_score(self.r, params, self.sigma2_init, forward) * self.units


def _linear_constraints(k):
    """alpha + gamma >= 0 and alpha + beta + gamma/2 <= _MAX_PERSISTENCE as one
    SLSQP inequality block g(x) >= 0 with a constant Jacobian.  Both rows come
    from one ``rows @ x`` product, the values SciPy's ``LinearConstraint``
    wrapper computes, bit for bit."""
    rows = np.ascontiguousarray(
        np.array([[0, 0, 0, 1, 0, 1, 0], [0, 0, 0, 1, 1, 0.5, 0]], dtype=np.float64)[:, :k])
    jac = rows * np.array([[1.0], [-1.0]])

    def values(x):
        y = rows @ x
        y[1] = -(y[1] - _MAX_PERSISTENCE)
        return y

    return {"type": "ineq", "fun": values, "jac": lambda x: jac}


def _moment_start(r, dist, var):
    """The first start, in the solver's units: the sample mean and lag-1
    autocorrelation, alpha = 0.1, beta = 0.8, gamma = 0, omega matching the
    sample variance ``var``, and the law's default shape."""
    mu0 = float(np.mean(r))
    rc = r - mu0
    denom = float(rc[:-1] @ rc[:-1])
    c10 = float(rc[1:] @ rc[:-1]) / denom if denom > 0 else 0.0
    x0 = [mu0 / math.sqrt(var), float(np.clip(c10, -0.9, 0.9)), 0.1, 0.1, 0.8, 0.0]
    if dist != "normal":
        x0.append(DEFAULT_SHAPE[dist])
    return np.array(x0)


def fit(returns, dist: str = "student-t") -> TgarchFit:
    """Constrained maximum-likelihood fit.

    Seeded multistart SLSQP, with the analytic score as its gradient, over
    (mu, c1, omega, alpha, beta, gamma[, shape]) with omega >= a positive
    floor, alpha, beta >= 0 and the shape in its law's range as bounds, and
    alpha + gamma >= 0 and alpha + beta + gamma/2 <= 1 - 1e-6 as linear
    constraints.  mu and omega are measured in units of the sample standard
    deviation and variance, so the solver's steps do not depend on the scale
    of the returns.  The best start is projected onto the feasible set and
    scored again; ``converged`` is that start's SLSQP exit, so an optimum on
    a constraint is a converged fit.  Deterministic for fixed inputs and
    dist.
    """
    if dist not in DEFAULT_SHAPE:
        raise ValueError(f"unknown distribution {dist!r}")
    r = finite_array(returns, "returns", MIN_OBS)
    sigma2_init = _default_sigma2_init(r)

    x0 = _moment_start(r, dist, sigma2_init)
    k = len(x0)
    units = _units(sigma2_init, k)
    bounds = [(None, None), (None, None), (_OMEGA_FLOOR, None), (0.0, None), (0.0, None),
              (None, None), _SHAPE_BOUNDS.get(dist)][:k]
    constraints = _linear_constraints(k)
    rng = np.random.default_rng(MULTISTART_SEED)
    starts = [x0] + [x0 + rng.normal(0.0, _START_SPREAD[:k]) for _ in range(_MULTISTARTS - 1)]

    objective = _Objective(r, dist, sigma2_init, units)
    results = [
        minimize(objective.nll, x_start, method="SLSQP", jac=objective.score,
                 bounds=bounds, constraints=constraints,
                 options={"ftol": _FTOL, "maxiter": _MAXITER})
        for x_start in starts
    ]
    best = min(results, key=lambda res: (not res.success, res.fun))

    # SLSQP meets alpha + gamma >= 0 only to about 1e-11
    x = best.x.copy()
    x[5] = max(x[5], -x[3])
    params = _params_at(x, units, dist)
    nll = neg_log_likelihood(params, r, sigma2_init)

    return TgarchFit(
        params=params,
        std_errors=std_errors(r, params, sigma2_init=sigma2_init),
        loglik=-nll,
        converged=bool(best.success),
        iterations=sum(int(res.nit) for res in results),
        nobs=len(r),
    )


@np.errstate(over="ignore", invalid="ignore")  # an overflow is rejected below
def std_errors(returns, params: TgarchParams, free=None, sigma2_init=None) -> dict | None:
    """Asymptotic standard errors from the Hessian of the fit's own
    objective, in the solver's coordinates x = theta / units (mu in units of
    sqrt(sigma2_init), omega in units of sigma2_init).

    Each Hessian column is a central difference of the analytic score, with
    the step ``_SE_REL_STEP * (|x| + 0.1)``, and the matrix is symmetrized;
    each standard error maps back as units * SE(x), so it scales with the
    returns.  ``free`` restricts the Hessian to a subset of parameter names
    (the rest held fixed).  Returns the standard errors by name, or None
    for a non-finite (an overflowing step, say) or non-positive-definite
    Hessian.
    """
    r = finite_array(returns, "returns", 2)
    if sigma2_init is None:
        sigma2_init = _default_sigma2_init(r)
    all_names = params.free_names()
    names = list(free) if free is not None else all_names
    idx = [all_names.index(n) for n in names]
    units = _units(sigma2_init, len(all_names))
    x0 = np.array([getattr(params, n) for n in all_names]) / units
    score = _Objective(r, params.dist, sigma2_init, units).score

    h = _SE_REL_STEP * (np.abs(x0[idx]) + 0.1)
    steps = np.eye(len(x0))[idx] * h[:, None]
    hess = np.array([score(x0 + step) - score(x0 - step)
                     for step in steps])[:, idx] / (2.0 * h[:, None])
    hess = 0.5 * (hess + hess.T)

    if not np.all(np.isfinite(hess)):
        return None
    try:
        np.linalg.cholesky(hess)
    except np.linalg.LinAlgError:
        return None
    cov = np.linalg.inv(hess)
    diag = np.diag(cov)
    if np.any(diag <= 0):
        return None
    return dict(zip(names, units[idx] * np.sqrt(diag)))


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
