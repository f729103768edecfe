"""Hot numerical kernels of the TGARCH fit: the variance recursion, the
likelihood and its gradient, as plain NumPy/SciPy array code.

The variance recursion sigma2_t = beta * sigma2_{t-1} + u_t is linear in
sigma2, and its input u_t = omega + (alpha + gamma * 1[eps_{t-1} < 0])
* eps_{t-1}^2 depends only on the residuals, which do not depend on sigma2.
So u is built in one vector expression and the recursion is a single
first-order filter, solved as the unit lower-bidiagonal system
(I - beta * L) sigma2 = u by the BLAS banded solver.

The score is the exact gradient of that likelihood in reverse mode
(Griewank & Walther, "Evaluating Derivatives", 2008; for GARCH, Fiorentini,
Calzolari & Panattoni 1996): the adjoint lam of the variances solves the
transposed system (I - beta * L)^T lam = dNLL/dsigma2 with the same banded
solver, and each parameter's term is then one dot product of lam with
du/dtheta.  One score call costs a little over two likelihood calls,
whatever the number of parameters, when it runs its own forward pass.  An
optimizer asks for the score at the point whose likelihood it has just
evaluated, so ``tgarch_nll`` can hand its forward pass (sigma2, eps, w and
the density constants) to the ``tgarch_score`` call at the same point,
which then runs only the backward pass, about 1.3 likelihood calls.
``scipy.linalg`` and ``scipy.special`` are already loaded by
``scipy.optimize``, so this adds nothing to import time.
"""

import math

import numpy as np
from scipy.linalg.blas import dtbsv
from scipy.special import digamma, xlogy

_HALF_LN_2PI = 0.5 * math.log(2.0 * math.pi)
_LN_2 = math.log(2.0)


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
        if not 0.0 < kappa < math.inf:
            return None
        lam2 = _ged_lambda2(kappa)
        if not 0.0 < lam2 < math.inf:  # no unit-variance scale in floating point
            return None
        log_c = (
            math.log(kappa)
            - 0.5 * math.log(lam2)
            - (1.0 + 1.0 / kappa) * math.log(2.0)
            - math.lgamma(1.0 / kappa)
        )
        return log_c, 1.0 / lam2
    raise ValueError(f"unknown distribution {dist!r}")


def _squared_residuals(r, params, sigma2_init):
    """``(log_c, scale, sigma2, eps, w)`` with w_t = scale * eps_t^2 / sigma2_t
    for t = 1 .. n-1, or None where the likelihood is +inf: an invalid shape,
    or a variance path that leaves the positive finite domain."""
    const = _log_density_constant(params.dist, params.shape)
    if const is None:
        return None
    log_c, scale = const
    sigma2, eps = tgarch_recursion(r, params, sigma2_init)
    s2 = sigma2[1:]
    if s2.size and not (s2.min() > 0.0 and s2.max() < math.inf):
        return None
    # z^2 = eps^2 / sigma2 directly: no square root is needed by any density
    return log_c, scale, sigma2, eps, np.square(eps[1:]) / s2 * scale


def tgarch_nll(r, params, sigma2_init, forward=None):
    """Negative log-likelihood, conditional on the first return.

    ``params`` supplies the recursion's parameters, ``dist`` (``"normal"``,
    ``"student-t"`` or ``"ged"``) and ``shape`` (nu or kappa).  Evaluated
    observations are t = 1 .. n-1 (the AR(1) lag consumes one).  Returns
    +inf for an invalid shape or if the variance recursion leaves the
    positive domain.

    ``forward``, if given, is a dict that receives this call's forward pass
    (the variances, residuals and density constants) under ``"terms"``, for
    a ``tgarch_score`` call at the same ``r``, ``params`` and ``sigma2_init``.
    """
    terms = _squared_residuals(r, params, sigma2_init)
    if forward is not None:
        forward["terms"] = terms
    if terms is None:
        return math.inf
    log_c, _, sigma2, _, w = terms
    dist, shape = params.dist, params.shape
    s2 = sigma2[1:]
    if dist == "normal":
        kernel = 0.5 * float(w.sum())
    elif dist == "student-t":
        kernel = 0.5 * (shape + 1.0) * float(np.log1p(w).sum())
    else:
        with np.errstate(over="ignore"):  # an overflow scores +inf below
            kernel = 0.5 * float(np.sum(w ** (0.5 * shape)))
    nll = kernel + 0.5 * float(np.log(s2).sum()) - s2.size * log_c
    return nll if math.isfinite(nll) else math.inf


@np.errstate(over="ignore", invalid="ignore", divide="ignore")  # non-finite is the signal
def tgarch_score(r, params, sigma2_init, forward=None):
    """Gradient of ``tgarch_nll`` with respect to (mu, c1, omega, alpha,
    beta, gamma), plus the shape unless ``params.dist`` is ``"normal"``;
    ``sigma2_init`` is held fixed.

    All NaN for an invalid shape or a variance path outside the positive
    finite domain, and with non-finite entries where a likelihood term
    overflows; never a warning.

    ``forward`` is the dict a ``tgarch_nll`` call at the same arguments
    filled; its forward pass is reused, so the call runs only the backward
    one.  Without it the forward pass is run here.
    """
    dist, shape = params.dist, params.shape
    grad = np.full(6 if dist == "normal" else 7, math.nan)
    r = np.ascontiguousarray(r, dtype=np.float64)
    terms = (_squared_residuals(r, params, sigma2_init) if forward is None
             else forward["terms"])
    if terms is None:
        return grad
    _, scale, sigma2, eps, w = terms
    s2, e = sigma2[1:], eps[1:]
    # Each observation's term is K(w) + log(sigma2)/2 with w = scale * e^2 / sigma2.
    # q = w K'(w) gives dl/dsigma2 = (1/2 - q) / sigma2; g_e is dl/de.
    if dist == "normal":
        q = 0.5 * w
        g_e = e / s2
    elif dist == "student-t":
        k_w = 0.5 * (shape + 1.0) / (1.0 + w)
        q = k_w * w
        g_e = 2.0 * scale * k_w * e / s2
    else:
        # K = |z / lambda|^kappa / 2 = w^(kappa/2) / 2, written with |z / lambda|
        # = sqrt(w) so that e = 0 needs no 0 * inf (except at the cusp, kappa < 1)
        root_w = np.sqrt(w)
        power_m1 = root_w ** (shape - 1.0)
        power = power_m1 * root_w
        q = 0.25 * shape * power
        g_e = 0.5 * shape * np.sign(e) * power_m1 * np.sqrt(scale / s2)

    # adjoint of the recursion: (I - beta L)^T lam = dNLL/dsigma2.  sigma2_0 is
    # fixed, and lam_t depends only on later terms, so t = 1 .. n-1 suffice.
    band = np.full((2, s2.size), -params.beta, order="F")
    lam = dtbsv(1, band, (0.5 - q) / s2, lower=1, trans=1, diag=1, overwrite_x=1)

    # u_t depends on the lagged residual e_{t-1} = eps[:-1]:
    # du_t/de_{t-1} = 2 (alpha e_{t-1} + gamma min(e_{t-1}, 0))
    e_lag = eps[:-1]
    e_neg = np.minimum(e_lag, 0.0)
    lam_du_de = lam * (params.alpha * e_lag + params.gamma * e_neg)
    # de_t/dmu = -1 for every t; de_t/dc1 = -r_{t-1} for t >= 1 and 0 for t = 0
    grad[0] = -2.0 * lam_du_de.sum() - g_e.sum()
    grad[1] = -2.0 * (lam_du_de[1:] @ r[:-2]) - g_e @ r[:-1]
    grad[2] = lam.sum()
    grad[3] = lam @ (e_lag * e_lag)
    grad[4] = lam @ sigma2[:-1]
    grad[5] = lam @ (e_neg * e_neg)
    if dist == "student-t":
        nu = shape
        dlog_c = 0.5 * (digamma(0.5 * (nu + 1.0)) - digamma(0.5 * nu)) - 0.5 / (nu - 2.0)
        grad[6] = 0.5 * np.log1p(w).sum() - q.sum() / (nu - 2.0) - s2.size * dlog_c
    elif dist == "ged":
        kappa = shape
        dlog_lam2 = (3.0 * digamma(3.0 / kappa) - digamma(1.0 / kappa) + 2.0 * _LN_2) / kappa**2
        dlog_c = (1.0 / kappa - 0.5 * dlog_lam2
                  + (_LN_2 + digamma(1.0 / kappa)) / kappa**2)
        # d/dkappa of w^(kappa/2) / 2 at fixed w is (w^(kappa/2) log w^(kappa/2)) / (2 kappa)
        grad[6] = (0.5 / kappa * xlogy(power, power).sum() - q.sum() * dlog_lam2
                   - s2.size * dlog_c)
    return grad
