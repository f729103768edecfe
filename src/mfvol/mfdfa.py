"""Multifractal detrended fluctuation analysis.

Pipeline: profile (cumulative mean-removed sum) -> segment-wise polynomial
detrending over a grid of scales -> q-th order fluctuation functions ->
generalized Hurst exponents h(q) by log-log fit -> multifractality degrees
and the singularity spectrum.

Segments are taken forward from the start and backward from the end
(2 * floor(N/s) per scale).  q = 0 uses logarithmic averaging; negative
moments exclude zero-variance segments (counts are recorded).
"""

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from ._validate import finite_array

_LOG_FLOOR = 1e-30
# Bound on the elements of one (q, segment) block of exponents (2 MiB): at
# s = 16 on 2e5 returns the whole outer product is 24 MiB per sign of q.
_BLOCK_ELEMS = 1 << 18


def default_q_grid():
    # -25 .. 25, step 0.2, landing exactly on 0
    return np.arange(-125, 126, dtype=np.float64) / 5.0


def scale_grid(s_min: int, s_max: int, n_scales: int = 20):
    """Log-spaced integer scale grid spanning [s_min, s_max]."""
    if not 2 <= s_min < s_max:
        raise ValueError("need 2 <= s_min < s_max")
    return np.unique(np.round(np.geomspace(s_min, s_max, n_scales)).astype(int))


def default_s_grid():
    # 20 log-spaced integer scales spanning [16, 128]; fit restricted later
    return scale_grid(16, 128, 20)


@dataclass
class MfdfaConfig:
    q_grid: np.ndarray = field(default_factory=default_q_grid)
    s_grid: np.ndarray = field(default_factory=default_s_grid)
    detrend_order: int = 3
    fit_range: tuple = (20, 100)
    degree_q: float = 4.0

    def validate(self):
        q = np.asarray(self.q_grid, dtype=np.float64)
        s = np.asarray(self.s_grid, dtype=int)
        if len(s) == 0 or np.any(s < self.detrend_order + 2):
            raise ValueError("every scale must be >= detrend_order + 2")
        if not np.allclose(np.sort(q), np.sort(-q), atol=1e-12):
            raise ValueError("q_grid must be symmetric about 0")
        if self.fit_range[0] < s.min() or self.fit_range[1] > s.max():
            raise ValueError("fit_range must lie within the scale grid span")


@dataclass
class FluctuationMatrix:
    q_grid: np.ndarray
    s_grid: np.ndarray
    values: np.ndarray     # (n_q, n_s)
    excluded: np.ndarray   # (n_q, n_s) int, zero-variance segments dropped


@dataclass
class HurstCurve:
    q_grid: np.ndarray
    h: np.ndarray
    slope_se: np.ndarray
    r_squared: np.ndarray
    fit_range: tuple


@dataclass
class SingularitySpectrum:
    q_grid: np.ndarray
    alpha: np.ndarray
    f: np.ndarray


def profile(returns) -> np.ndarray:
    """Cumulative sum of mean-removed values; endpoint is 0 by construction."""
    r = finite_array(returns, "returns", 2)
    return np.cumsum(r - r.mean())


@functools.lru_cache
def _segment_basis(s: int, order: int) -> np.ndarray:
    # Abscissa 1..s rescaled to [-1, 1]; orthonormal columns via QR so the
    # cubic fit stays well conditioned at s ~ 100.  Cached, so read-only.
    x = (2.0 * np.arange(1, s + 1) - (s + 1)) / (s - 1)
    v = np.vander(x, order + 1, increasing=True)
    q, _ = np.linalg.qr(v)
    q = np.ascontiguousarray(q)
    q.setflags(write=False)
    return q


def _segment_variances(profile, s, basis):
    """Detrended variance of every length-s segment, forward then backward.

    ``basis`` is an (s, k) matrix with orthonormal columns spanning the
    detrending polynomials on the segment abscissa.  Returns 2*floor(N/s)
    residual variances (mean squared residual per segment).
    """
    y = np.ascontiguousarray(profile, dtype=np.float64)
    n = y.shape[0]
    ns = n // s
    fwd = y[: ns * s].reshape(ns, s)
    bwd = y[n - ns * s :].reshape(ns, s)
    segs = np.concatenate([fwd, bwd], axis=0)
    coeffs = segs @ basis
    # Residuals computed explicitly (not via the Pythagorean identity) so
    # that exactly-fitted segments come out at round-off level, not at the
    # much larger cancellation error of total - fitted.
    resid = segs - coeffs @ basis.T
    return np.einsum("ij,ij->i", resid, resid) / s


def _log_mean_moments(half_q, log_f2, log_f2_top):
    """ln mean_j exp(half_q[i] * log_f2[j]) for every row i.

    ``log_f2_top`` is the element of ``log_f2`` that maximises every
    exponent (its max for positive q, its min for negative q), so the shift
    half_q * log_f2_top leaves no exponent positive.  The (q, segment)
    exponents are built in blocks of rows of at most _BLOCK_ELEMS elements.
    """
    shift = half_q * log_f2_top
    log_sum = np.empty(len(half_q))
    rows = max(1, _BLOCK_ELEMS // len(log_f2))
    for lo in range(0, len(half_q), rows):
        block = np.multiply.outer(half_q[lo:lo + rows], log_f2)
        block -= shift[lo:lo + rows, None]
        np.exp(block, out=block)
        log_sum[lo:lo + rows] = np.log(block.sum(axis=1))
    return log_sum + shift - math.log(len(log_f2))


def fluctuation(prof, config: MfdfaConfig) -> FluctuationMatrix:
    """Fluctuation functions F_q(s) over the configured (q, s) grid."""
    config.validate()
    y = finite_array(prof, "profile values", 2)
    s_grid = np.asarray(config.s_grid, dtype=int)
    q_grid = np.asarray(config.q_grid, dtype=np.float64)
    n = len(y)
    if n < 2 * int(s_grid.max()):
        raise ValueError(
            f"profile of length {n} too short for 2 segments at s={int(s_grid.max())}"
        )

    y_max = float(np.max(np.abs(y)))
    if not y_max < 1e150:
        raise ValueError(f"profile magnitude {y_max:.3g} exceeds 1e150, so its squares overflow")
    zero_tol = y_max ** 2 * 1e-26
    values = np.empty((len(q_grid), len(s_grid)))
    excluded = np.zeros((len(q_grid), len(s_grid)), dtype=int)
    pos, neg, zero = q_grid > 0, q_grid < 0, q_grid == 0
    half_pos, half_neg = 0.5 * q_grid[pos], 0.5 * q_grid[neg]

    for js, s in enumerate(s_grid):
        basis = _segment_basis(int(s), config.detrend_order)
        fv = _segment_variances(y, int(s), basis)
        nonzero = fv > zero_tol
        n_excl = int(np.sum(~nonzero))
        log_all = np.log(np.maximum(fv, _LOG_FLOOR))
        log_kept = np.log(fv[nonzero]) if n_excl else log_all
        if len(log_kept) == 0:
            raise ValueError(f"all segments have zero variance at s={int(s)}")

        # positive moments tolerate zero variances (floored in logs);
        # negative ones and the q = 0 log-average use the kept segments only
        values[pos, js] = np.exp(
            _log_mean_moments(half_pos, log_all, log_all.max()) / q_grid[pos])
        values[neg, js] = np.exp(
            _log_mean_moments(half_neg, log_kept, log_kept.min()) / q_grid[neg])
        values[zero, js] = math.exp(0.5 * float(np.mean(log_kept)))
        excluded[~pos, js] = n_excl

    return FluctuationMatrix(q_grid=q_grid, s_grid=s_grid, values=values, excluded=excluded)


def generalized_hurst(fmat: FluctuationMatrix, fit_range=None) -> HurstCurve:
    """h(q) as the OLS slope of ln F_q(s) vs ln s over scales in fit_range."""
    if fit_range is None:
        fit_range = (int(fmat.s_grid.min()), int(fmat.s_grid.max()))
    mask = (fmat.s_grid >= fit_range[0]) & (fmat.s_grid <= fit_range[1])
    if int(mask.sum()) < 3:
        raise ValueError("need at least 3 scales inside fit_range")
    # one centred least-squares fit per row of ln F, as in _linfit.fit_line
    x = np.log(fmat.s_grid[mask].astype(np.float64))
    y = np.log(fmat.values[:, mask])
    xm = x - x.mean()
    sxx = float(xm @ xm)
    if sxx == 0.0:
        raise ValueError("degenerate abscissa: all scales in fit_range equal")
    y_mean = y.mean(axis=1)
    y_dev = y - y_mean[:, None]
    h = (y_dev @ xm) / sxx
    intercept = y_mean - h * x.mean()
    resid = y - (intercept[:, None] + h[:, None] * x)
    ss_res = np.einsum("ij,ij->i", resid, resid)
    ss_tot = np.einsum("ij,ij->i", y_dev, y_dev)
    se = np.sqrt(ss_res / (len(x) - 2) / sxx)
    with np.errstate(divide="ignore", invalid="ignore"):
        r2 = np.where(ss_tot == 0.0, 1.0, 1.0 - ss_res / ss_tot)
    return HurstCurve(q_grid=fmat.q_grid, h=h, slope_se=se, r_squared=r2,
                      fit_range=tuple(fit_range))


def _grid_index(q_grid, q):
    idx = np.nonzero(np.abs(q_grid - q) < 1e-9)[0]
    if len(idx) == 0:
        raise ValueError(f"q={q} is not on the moment grid (no interpolation)")
    return int(idx[0])


def multifractality_degree(curve: HurstCurve, q: float) -> float:
    """Delta h(q) = h(-q) - h(q); zero for a monofractal series."""
    if q <= 0:
        raise ValueError("q must be positive")
    return float(curve.h[_grid_index(curve.q_grid, -q)]
                 - curve.h[_grid_index(curve.q_grid, q)])


def singularity_spectrum(curve: HurstCurve) -> SingularitySpectrum:
    """alpha(q) = h + q h'(q), f(alpha) = q (alpha - h) + 1.

    h'(q) by central differences on the uniform q grid (one-sided at the
    ends); f is exactly 1 at q = 0.
    """
    q = np.asarray(curve.q_grid, dtype=np.float64)
    if len(q) < 3:
        raise ValueError("need at least 3 grid points")
    dq = np.diff(q)
    if np.max(np.abs(dq - dq[0])) > 1e-9:
        raise ValueError("q grid must be uniform")
    hprime = np.gradient(curve.h, q, edge_order=1)
    alpha = curve.h + q * hprime
    f = q * (alpha - curve.h) + 1.0
    return SingularitySpectrum(q_grid=q, alpha=alpha, f=f)


def delta_alpha(spec: SingularitySpectrum, q: float) -> float:
    """Delta alpha(q) = alpha(-q) - alpha(q) from the singularity spectrum."""
    if q <= 0:
        raise ValueError("q must be positive")
    return float(spec.alpha[_grid_index(spec.q_grid, -q)]
                 - spec.alpha[_grid_index(spec.q_grid, q)])


def analyze(returns, config: MfdfaConfig | None = None) -> dict:
    """Full pipeline on a return window; summary measures for tracks.

    Returns h(2), Delta h and Delta alpha at the configured degree moment,
    plus the intermediate curve objects.
    """
    cfg = config or MfdfaConfig()
    prof = profile(returns)
    fmat = fluctuation(prof, cfg)
    curve = generalized_hurst(fmat, cfg.fit_range)
    spec = singularity_spectrum(curve)
    return {
        "h2": float(curve.h[_grid_index(curve.q_grid, 2.0)]),
        "dh": multifractality_degree(curve, cfg.degree_q),
        "dalpha": delta_alpha(spec, cfg.degree_q),
        "fluctuation": fmat,
        "hurst": curve,
        "spectrum": spec,
    }


def _fmt(x):
    return format(float(x), ".17g")


def fluct_to_csv(fmat: FluctuationMatrix) -> str:
    out = ["q,s,F"]
    for jq, q in enumerate(fmat.q_grid):
        for js, s in enumerate(fmat.s_grid):
            out.append(f"{_fmt(q)},{int(s)},{_fmt(fmat.values[jq, js])}")
    return "\n".join(out) + "\n"


def hurst_to_csv(curve: HurstCurve) -> str:
    out = ["q,h,se"]
    for q, h, se in zip(curve.q_grid, curve.h, curve.slope_se):
        out.append(f"{_fmt(q)},{_fmt(h)},{_fmt(se)}")
    return "\n".join(out) + "\n"


def spectrum_to_csv(spec: SingularitySpectrum) -> str:
    out = ["q,alpha,f"]
    for q, a, f in zip(spec.q_grid, spec.alpha, spec.f):
        out.append(f"{_fmt(q)},{_fmt(a)},{_fmt(f)}")
    return "\n".join(out) + "\n"
