"""Multifractal detrended fluctuation analysis.

Pipeline: profile (cumulative mean-removed sum) -> segment-wise polynomial
detrending over a grid of scales -> q-th order fluctuation functions ->
generalized Hurst exponents h(q) by log-log fit -> multifractality degrees
and the singularity spectrum.

Segments are taken forward from the start and backward from the end
(2 * floor(N/s) per scale).  q = 0 uses logarithmic averaging; segments of
zero variance, up to a tolerance relative to the profile, are floored at it
for q > 0 and dropped for q <= 0 (counts are recorded).

One kernel, _fluctuations, computes F_q(s) for a stack of profiles: a
single series is a stack of one, and analyze_windows runs every window of
a rolling analysis through it together, with each window's arithmetic
unchanged.
"""

import dataclasses
import functools
import math
from dataclasses import dataclass, field

import numpy as np

from . import ingest
from ._linfit import fit_line
from ._validate import finite_array

# Bound on the elements of one scale's segment rows (the work buffer of
# _segment_variances) per chunk of analyze_windows' windows: 59 windows of 548.
_BLOCK_ELEMS = 1 << 16
# Bounds that keep a long series' temporaries cache-sized: the elements of
# one chunk of segment rows (256 KiB) and of one (q, segment) block of
# exponents (512 KiB).  At s = 16 on 2e5 returns the segments fill 1.6 MB
# and the whole outer product is 24 MiB per sign of q.
_SEGMENT_ELEMS = 1 << 15
_MOMENT_ELEMS = 1 << 16


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

    def __post_init__(self):
        self.q_grid = np.asarray(self.q_grid, dtype=np.float64)
        self.s_grid = np.asarray(self.s_grid, dtype=int)

    @property
    def min_length(self) -> int:
        """Shortest series with 2 segments at the largest scale."""
        return 2 * int(np.max(self.s_grid))

    def validate(self):
        """ValueError unless analyze can run these settings (on a series of
        at least min_length values)."""
        self._validate_grids()
        lo, hi = self.fit_range
        if np.count_nonzero((self.s_grid >= lo) & (self.s_grid <= hi)) < 3:
            raise ValueError("fit_range must hold at least 3 scales of the grid")
        if not self.degree_q > 0:
            raise ValueError("degree_q must be positive")
        for q in (2.0, self.degree_q):
            _grid_index(self.q_grid, q)
        _check_uniform(self.q_grid)

    def _validate_grids(self):
        """ValueError unless fluctuation can run on these grids."""
        if self.detrend_order < 0:
            raise ValueError("detrend_order must be >= 0")
        if len(self.s_grid) == 0 or np.any(self.s_grid < self.detrend_order + 2):
            raise ValueError("every scale must be >= detrend_order + 2")
        if np.any(np.diff(self.s_grid) <= 0):
            raise ValueError("scales must be strictly increasing")
        if not np.allclose(np.sort(self.q_grid), np.sort(-self.q_grid), atol=1e-12):
            raise ValueError("q_grid must be symmetric about 0")


@dataclass
class FluctuationMatrix:
    q_grid: np.ndarray
    s_grid: np.ndarray
    values: np.ndarray     # (n_q, n_s), or (W, n_q, n_s) for a stack of windows
    excluded: np.ndarray   # int, (n_s,) or (W, n_s): zero-variance segments, dropped for q <= 0


@dataclass
class HurstCurve:
    q_grid: np.ndarray
    h: np.ndarray
    slope_se: np.ndarray
    r_squared: np.ndarray


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


def _segment_work(shape, s, k):
    """Elements of the work buffer _segment_variances takes at scale s, with
    a basis of k columns, on a stack of profiles of this shape."""
    rows = min(max(1, _SEGMENT_ELEMS // s), 2 * (shape[-1] // s))
    return math.prod(shape[:-1]) * rows * (2 * s + k)


def _segment_variances(profiles, s, basis, work=None):
    """Detrended variance of every length-s segment, forward then backward.

    ``profiles`` is one profile or a (W, n) stack of them; ``basis`` is an
    (s, k) matrix with orthonormal columns spanning the detrending
    polynomials on the segment abscissa.  Returns 2*floor(n/s) residual
    variances (mean squared residual per segment) per profile.

    The forward then backward segment rows are taken in consecutive chunks
    of _SEGMENT_ELEMS // s rows; a chunk that spans both halves joins its
    two pieces, so when every row fits in one chunk it is the whole
    concatenation.  The chunks depend on n and s only.  ``work``, a flat
    buffer of at least _segment_work elements, holds a chunk's joined
    segments, coefficients and residuals; a caller that runs several scales
    passes one, so that no chunk allocates them.
    """
    y = np.asarray(profiles, dtype=np.float64)
    n, lead = y.shape[-1], y.shape[:-1]
    ns, k = n // s, basis.shape[1]
    fwd = y[..., : ns * s].reshape(*lead, ns, s)
    bwd = y[..., n - ns * s :].reshape(*lead, ns, s)
    rows = max(1, _SEGMENT_ELEMS // s)
    if work is None:
        work = np.empty(_segment_work(y.shape, s, k))
    out = np.empty((*lead, 2 * ns))
    for lo in range(0, 2 * ns, rows):
        hi = min(lo + rows, 2 * ns)
        m = hi - lo
        size = math.prod(lead) * m * s
        joined = work[:size].reshape(*lead, m, s)
        resid = work[size:2 * size].reshape(*lead, m, s)
        coeffs = work[2 * size:2 * size + size // s * k].reshape(*lead, m, k)
        cut = min(max(ns - lo, 0), m)  # forward rows in the chunk
        if cut == m:
            segs = fwd[..., lo:hi, :]
        elif cut == 0:
            segs = bwd[..., lo - ns:hi - ns, :]
        else:
            segs = joined
            segs[..., :cut, :] = fwd[..., lo:, :]
            segs[..., cut:, :] = bwd[..., :hi - ns, :]
        # One product per profile, shaped as for a profile alone, so a
        # window's variances are bit-for-bit those of the window alone: BLAS
        # round-off depends on where it meets a row.
        np.matmul(segs, basis, out=coeffs)
        # Residuals computed explicitly (not via the Pythagorean identity) so
        # that exactly-fitted segments come out at round-off level, not at the
        # much larger cancellation error of total - fitted.
        np.matmul(coeffs, basis.T, out=resid)
        np.subtract(segs, resid, out=resid)
        np.einsum("...ij,...ij->...i", resid, resid, out=out[..., lo:hi])
    out /= s
    return out


def _moment_rows(cells, n_q):
    """q rows per block of exponents over ``cells`` (window, segment) cells."""
    return max(1, min(n_q, _MOMENT_ELEMS // cells))


def _log_sum_moments(half_q, logs, top, buf):
    """ln sum_j exp(half_q[i] * logs[w, j]) for every row w and moment i.

    ``top[w]`` is the element of ``logs[w]`` that maximises every exponent
    (its max for positive q, its min for negative q), so the shift
    half_q * top leaves no exponent positive.  The (w, q, segment) exponents
    are built in blocks of _moment_rows q rows, in the flat buffer ``buf``.
    """
    shift = np.multiply.outer(top, half_q)
    log_sum = np.empty(shift.shape)
    rows = _moment_rows(logs.size, len(half_q))
    for lo in range(0, len(half_q), rows):
        hq = half_q[lo:lo + rows]
        block = buf[: logs.size * len(hq)].reshape(len(logs), len(hq), logs.shape[1])
        np.multiply(hq[:, None], logs[:, None, :], out=block)
        block -= shift[:, lo:lo + rows, None]
        np.exp(block, out=block)
        log_sum[:, lo:lo + rows] = np.log(block.sum(axis=2))
    return log_sum + shift


@np.errstate(divide="ignore", invalid="ignore")  # NaN where a row keeps no segment
def _fluctuations(profiles, config: MfdfaConfig, moment_scales=None):
    """F_q(s) of every row of a (W, n) stack of profiles, all rows at once.

    A segment has zero variance when its variance is at most its row's
    zero_tol, 1e-26 * max |profile|^2, so F_q(s) of c * profile is c times
    that of the profile: positive moments floor it at zero_tol, negative
    moments and the q = 0 log-average drop it.  Each row comes out as it
    would alone.  Rows must be finite, with max |profile| below 1e150.
    Returns F, (W, n_q, n_m), and the zero-variance segments per row and
    scale, (W, n_s).  F is taken at the n_m scales that the boolean mask
    ``moment_scales`` selects (by default all); the segment variances and
    their count are taken at every scale.  A row that keeps no segment at
    some scale gets F = NaN there; its caller fails it.
    """
    s_grid, q_grid = config.s_grid, config.q_grid
    taken = np.ones(len(s_grid), bool) if moment_scales is None else moment_scales
    zero_tol = np.max(np.abs(profiles), axis=1)[:, None] ** 2 * 1e-26
    values = np.empty((len(profiles), len(q_grid), np.count_nonzero(taken)))
    excluded = np.empty((len(profiles), len(s_grid)), dtype=int)
    pos, neg, zero = q_grid > 0, q_grid < 0, q_grid == 0
    half_pos, half_neg = 0.5 * q_grid[pos], 0.5 * q_grid[neg]
    # one segment work buffer and one exponent buffer for every scale
    work = np.empty(max(_segment_work(profiles.shape, int(s), config.detrend_order + 1)
                        for s in s_grid))
    n_half = max(len(half_pos), len(half_neg))
    cells = len(profiles) * 2 * (profiles.shape[1] // s_grid[taken])
    buf = np.empty(max(c * _moment_rows(c, n_half) for c in cells))

    for js, (s, jm) in enumerate(zip(s_grid.tolist(), np.cumsum(taken) - 1)):
        fv = _segment_variances(profiles, s, _segment_basis(s, config.detrend_order), work)
        dropped = fv <= zero_tol
        excluded[:, js] = np.count_nonzero(dropped, axis=1)
        if not taken[js]:
            continue
        n_kept = fv.shape[1] - excluded[:, js]
        log_fv = np.log(np.maximum(fv, zero_tol))
        values[:, pos, jm] = np.exp(
            (_log_sum_moments(half_pos, log_fv, log_fv.max(axis=1), buf)
             - math.log(fv.shape[1])) / q_grid[pos])
        # ln F^2 = +inf makes a dropped segment's term exactly 0
        log_neg = np.where(dropped, np.inf, log_fv)
        # libm's log and exp, which can differ from NumPy's in the last bit
        log_n = np.array([math.log(k) if k else -math.inf for k in n_kept])
        values[:, neg, jm] = np.exp(
            (_log_sum_moments(half_neg, log_neg, log_neg.min(axis=1), buf)
             - log_n[:, None]) / q_grid[neg])
        if zero.any():
            mean_log = np.where(dropped, 0.0, log_fv).sum(axis=1) / n_kept
            values[:, zero, jm] = np.array([math.exp(0.5 * m) for m in mean_log])[:, None]

    return values, excluded


def fluctuation(prof, config: MfdfaConfig) -> FluctuationMatrix:
    """Fluctuation functions F_q(s) over the configured (q, s) grid."""
    config._validate_grids()
    y = finite_array(prof, "profile values", 2)
    s_grid = config.s_grid
    n = len(y)
    if n < config.min_length:
        raise ValueError(
            f"profile of length {n} too short for 2 segments at s={int(s_grid.max())}"
        )
    y_max = float(np.max(np.abs(y)))
    if not y_max < 1e150:
        raise ValueError(f"profile magnitude {y_max:.3g} exceeds 1e150, so its squares overflow")

    values, excluded = _fluctuations(y[None, :], config)
    empty = np.flatnonzero(excluded[0] == 2 * (n // s_grid))
    if empty.size:
        raise ValueError(f"all segments have zero variance at s={int(s_grid[empty[0]])}")
    return FluctuationMatrix(config.q_grid, s_grid, values[0], excluded[0])


def generalized_hurst(fmat: FluctuationMatrix, fit_range=None) -> HurstCurve:
    """h(q) as the OLS slope of ln F_q(s) vs ln s over scales in fit_range.

    ``fmat.values`` may carry leading window axes, (..., n_q, n_s); the
    curve's arrays then carry them too.
    """
    if fit_range is None:
        fit_range = (int(fmat.s_grid.min()), int(fmat.s_grid.max()))
    mask = (fmat.s_grid >= fit_range[0]) & (fmat.s_grid <= fit_range[1])
    if int(mask.sum()) < 3:
        raise ValueError("need at least 3 scales inside fit_range")
    x = np.log(fmat.s_grid[mask].astype(np.float64))
    h, se, r2 = fit_line(x, np.log(fmat.values[..., mask]))
    return HurstCurve(q_grid=fmat.q_grid, h=h, slope_se=se, r_squared=r2)


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


def _check_uniform(q):
    """ValueError unless the q grid takes h'(q)'s central differences."""
    if len(q) < 3:
        raise ValueError("need at least 3 grid points")
    dq = np.diff(q)
    if np.max(np.abs(dq - dq[0])) > 1e-9:
        raise ValueError("q grid must be uniform")


def singularity_spectrum(curve: HurstCurve) -> SingularitySpectrum:
    """alpha(q) = h + q h'(q), f(alpha) = q (alpha - h) + 1.

    h'(q) by central differences on the uniform q grid (one-sided at the
    ends), along the last axis of ``curve.h``; f is exactly 1 at q = 0.
    """
    q = np.asarray(curve.q_grid, dtype=np.float64)
    _check_uniform(q)
    hprime = np.gradient(curve.h, q, axis=-1, edge_order=1)
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


def _summary(returns, cfg):
    """analyze's h2, dh and dalpha on one window, or the exception it raises."""
    try:
        result = analyze(returns, cfg)
    except Exception as exc:
        return exc
    return {k: result[k] for k in ("h2", "dh", "dalpha")}


def analyze_windows(windows, config: MfdfaConfig | None = None) -> list:
    """analyze's h2, dh and dalpha for every row of a (W, n) stack of return
    windows, or the exception analyze raises on that row.

    The rows go through the pipeline together, in chunks of windows whose
    segment rows at one scale hold at most _BLOCK_ELEMS numbers, and each
    row's arithmetic is analyze's.  Only what the summary reads is computed:
    the moments q = 2, +-degree_q and their grid neighbours, which alpha's
    central difference takes, at the scales inside fit_range.  The segment
    variances, and so the zero-variance check, cover every scale.  A row
    the batch cannot take (non-finite, a profile of 1e150 or more, or a
    scale with no segment of nonzero variance), and every row of settings
    analyze rejects, goes through analyze itself.
    """
    cfg = config or MfdfaConfig()
    windows = np.asarray(windows, dtype=np.float64)
    if windows.ndim != 2:
        raise ValueError(f"windows must be a two-dimensional stack, got shape {windows.shape}")
    n = windows.shape[1]
    try:
        cfg.validate()
        runs = n >= cfg.min_length
    except ValueError:
        runs = False
    if not runs:  # analyze fails every row, each with its own message
        return [_summary(row, cfg) for row in windows]

    q_grid, s_grid = cfg.q_grid, cfg.s_grid
    i2, i_pos, i_neg = (_grid_index(q_grid, q) for q in (2.0, cfg.degree_q, -cfg.degree_q))
    read = np.unique([i2, i_pos - 1, i_pos, i_pos + 1, i_neg - 1, i_neg, i_neg + 1])
    read = read[(read >= 0) & (read < len(q_grid))]
    moments = dataclasses.replace(cfg, q_grid=q_grid[read])
    fit = (s_grid >= cfg.fit_range[0]) & (s_grid <= cfg.fit_range[1])
    segments = 2 * (n // s_grid)
    # a window's segment rows at one scale hold at most 2n numbers
    chunk = max(1, _BLOCK_ELEMS // (2 * n))
    out = []
    for lo in range(0, len(windows), chunk):
        r = np.array(windows[lo:lo + chunk])
        with np.errstate(over="ignore", invalid="ignore"):
            prof = np.cumsum(r - r.mean(axis=1, keepdims=True), axis=1)
            # such a row keeps no segment, so analyze reports it below
            prof[~(np.max(np.abs(prof), axis=1) < 1e150)] = 0.0
        values, excluded = _fluctuations(prof, moments, fit)
        failed = np.any(excluded == segments, axis=1)
        curve = generalized_hurst(
            FluctuationMatrix(moments.q_grid, s_grid[fit], values, excluded[:, fit]),
            cfg.fit_range)
        # alpha by np.gradient over the whole q grid, as analyze takes it: its
        # formula depends on whether the grid's steps are all equal
        h = np.full((len(r), len(q_grid)), np.nan)
        h[:, read] = curve.h
        alpha = singularity_spectrum(HurstCurve(q_grid, h, None, None)).alpha
        h2 = h[:, i2]
        dh = h[:, i_neg] - h[:, i_pos]
        dalpha = alpha[:, i_neg] - alpha[:, i_pos]
        out += [_summary(r[k], cfg) if failed[k] else
                {"h2": float(h2[k]), "dh": float(dh[k]), "dalpha": float(dalpha[k])}
                for k in range(len(r))]
    return out


def fluct_to_csv(fmat: FluctuationMatrix) -> str:
    n_q, n_s = len(fmat.q_grid), len(fmat.s_grid)
    return ingest.csv_table("q,s,F", "%.17g,%d,%.17g", [
        np.repeat(fmat.q_grid, n_s), np.tile(fmat.s_grid, n_q), np.ravel(fmat.values)])


def hurst_to_csv(curve: HurstCurve) -> str:
    return ingest.csv_table("q,h,se", "%.17g,%.17g,%.17g",
                            [curve.q_grid, curve.h, curve.slope_se])


def spectrum_to_csv(spec: SingularitySpectrum) -> str:
    return ingest.csv_table("q,alpha,f", "%.17g,%.17g,%.17g", [spec.q_grid, spec.alpha, spec.f])
