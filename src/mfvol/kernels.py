"""Hot numerical kernels of the TGARCH fit: the variance recursion and the
likelihood, as plain NumPy/SciPy array code.

The variance recursion sigma2_t = beta * sigma2_{t-1} + u_t is linear in
sigma2, and its input u_t = omega + (alpha + gamma * 1[eps_{t-1} < 0])
* eps_{t-1}^2 depends only on the residuals, which do not depend on sigma2.
So u is built in one vector expression and the recursion is a single
first-order filter, solved as the unit lower-bidiagonal system
(I - beta * L) sigma2 = u by the BLAS banded solver.  ``scipy.linalg`` is
already loaded by ``scipy.optimize``, so this adds nothing to import time.
"""

import math

import numpy as np
from scipy.linalg.blas import dtbsv

_HALF_LN_2PI = 0.5 * math.log(2.0 * math.pi)


def tgarch_recursion(r, params, sigma2_init):
    """Run the AR(1) residual and threshold-GARCH variance recursion under
    ``params`` (a ``tgarch.TgarchParams``, read by attribute).

    Returns ``(sigma2, eps)``, both of length ``len(r)``.  The first
    residual has no lagged return available, so it is ``r[0] - mu``; the
    first variance is the supplied presample value.
    """
    r = np.ascontiguousarray(r, dtype=np.float64)
    n = r.shape[0]
    eps = np.empty(n)
    eps[0] = r[0] - params.mu
    eps[1:] = r[1:] - params.mu - params.c1 * r[:-1]

    e = eps[:-1]
    u = np.empty(n)
    u[0] = sigma2_init
    alpha = params.alpha
    u[1:] = params.omega + np.where(e < 0.0, alpha + params.gamma, alpha) * e * e
    # Band storage of I - beta * L: row 1 holds the subdiagonal; row 0 (the
    # unit diagonal) is not referenced with diag=1.
    band = np.full((2, n), -params.beta, order="F")
    sigma2 = dtbsv(1, band, u, lower=1, diag=1, overwrite_x=1)
    return sigma2, eps


def _ged_lambda2(kappa):
    """Squared scale lambda^2 that gives the GED with shape kappa unit variance."""
    return (math.exp(math.lgamma(1.0 / kappa) - math.lgamma(3.0 / kappa))
            * 2.0 ** (-2.0 / kappa))


def _log_density_constant(dist, shape):
    """(log normalizing constant, scale of z^2 in the kernel) of the
    unit-variance standardized density; None for an invalid shape."""
    if dist == "normal":
        return -_HALF_LN_2PI, 1.0
    if dist == "student-t":
        nu = shape
        if not nu > 2.0:
            return None
        log_c = (
            math.lgamma(0.5 * (nu + 1.0))
            - math.lgamma(0.5 * nu)
            - 0.5 * math.log(math.pi * (nu - 2.0))
        )
        return log_c, 1.0 / (nu - 2.0)
    if dist == "ged":
        kappa = shape
        if not kappa > 0.0:
            return None
        lam2 = _ged_lambda2(kappa)
        log_c = (
            math.log(kappa)
            - 0.5 * math.log(lam2)
            - (1.0 + 1.0 / kappa) * math.log(2.0)
            - math.lgamma(1.0 / kappa)
        )
        return log_c, 1.0 / lam2
    raise ValueError(f"unknown distribution {dist!r}")


def tgarch_nll(r, params, sigma2_init):
    """Negative log-likelihood, conditional on the first return.

    ``params`` supplies the recursion's parameters, ``dist`` (``"normal"``,
    ``"student-t"`` or ``"ged"``) and ``shape`` (nu or kappa).  Evaluated
    observations are t = 1 .. n-1 (the AR(1) lag consumes one).  Returns
    +inf for an invalid shape or if the variance recursion leaves the
    positive domain.
    """
    dist, shape = params.dist, params.shape
    const = _log_density_constant(dist, shape)
    if const is None:
        return math.inf
    log_c, scale = const
    sigma2, eps = tgarch_recursion(r, params, sigma2_init)
    s2 = sigma2[1:]
    if s2.size and not (s2.min() > 0.0 and s2.max() < math.inf):
        return math.inf
    # z^2 = eps^2 / sigma2 directly: no square root is needed by any density
    w = np.square(eps[1:]) / s2 * scale
    if dist == "normal":
        kernel = 0.5 * float(w.sum())
    elif dist == "student-t":
        kernel = 0.5 * (shape + 1.0) * float(np.log1p(w).sum())
    else:
        with np.errstate(over="ignore"):  # an overflow scores +inf below
            kernel = 0.5 * float(np.sum(w ** (0.5 * shape)))
    nll = kernel + 0.5 * float(np.log(s2).sum()) - s2.size * log_c
    return nll if math.isfinite(nll) else math.inf

