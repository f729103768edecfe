"""Descriptive statistics with jackknife errors (a plain dict), the
cumulative volatility series, and the aggregational-Gaussianity kurtosis scan.

Moment conventions: SD uses the n-1 denominator; skewness and kurtosis use
n-denominator central moments (raw Pearson kurtosis, Gaussian = 3).
"""

import math
from dataclasses import dataclass, field

import numpy as np

from . import ingest
from ._linfit import fit_line
from ._validate import finite_array

DESCRIPTIVE_MIN_OBS = 4  # values `descriptive` needs


@dataclass
class VolatilitySeries:
    values: np.ndarray
    r_bar: float


@dataclass
class AggGaussScan:
    rows: list  # dicts: delta_t, kurtosis, se_kurtosis, nobs
    slope: float | None
    slope_se: float | None
    fit_range: tuple
    warnings: list = field(default_factory=list)


class DegenerateSampleError(ValueError):
    pass


def jackknife_se(values, statistic) -> float:
    """Delete-one jackknife standard error of an arbitrary statistic.

    sqrt((n-1)/n * sum_i (theta_(i) - theta_bar)^2) over the n delete-one
    subsamples.  Failures on a subsample propagate with the offending index.
    """
    values = finite_array(values, "values", 2)
    n = len(values)
    reps = np.empty(n)
    for i in range(n):
        sub = np.delete(values, i)
        try:
            reps[i] = statistic(sub)
        except Exception as exc:
            raise RuntimeError(f"statistic failed on delete-one subsample {i}") from exc
    return _se_from_replicates(reps)


# A delete-one sum of squares c2 below this fraction of the sample's t2 counts
# as 0: the subsample is constant up to rounding.  The rounding error of its
# kurtosis replicate grows like n * eps * (t2 / c2)**2.  On 100 or 1,000
# values plus one outlier, the kurtosis standard error was 1e-4 relative off
# a delete-one loop at c2/t2 = 1e-6, and 0.67 at 1e-8.
_C2_REL_FLOOR = 1e-6


def _replicate_terms(y, t2):
    """What every delete-one replicate is built from, in O(n): the shift d of
    the remaining sample's mean (sign flipped), powers of y and d, and each
    subsample's sum of squares c2.  A c2 below ``_C2_REL_FLOOR * t2`` is set
    to 0, which leaves that subsample's skewness and kurtosis non-finite."""
    n = len(y)
    d = y / (n - 1)
    # products, not y**3 or d**4: NumPy's general power is ~50x slower
    y2, d2 = y * y, d * d
    y3, d3 = y2 * y, d2 * d
    c2 = (t2 - y2) - 2 * d * y + (n - 1) * d2
    c2[c2 < _C2_REL_FLOOR * t2] = 0.0
    return d, y2, d2, y3, d3, c2


def _kurtosis_replicates(y, t2, t3, t4, terms):
    """Delete-one kurtosis replicates from `_replicate_terms`."""
    n = len(y)
    d, y2, d2, y3, d3, c2 = terms
    c4 = (t4 - y2 * y2) + 4 * d * (t3 - y3) + 6 * d2 * (t2 - y2) - 4 * d3 * y + (n - 1) * d2 * d2
    m2 = c2 / (n - 1)
    return (c4 / (n - 1)) / m2**2


def _jackknife_moment_replicates(mean, y, t2, t3, t4):
    """Delete-one (mean, sd, skewness, kurtosis) replicates in O(n).

    From the centred sample y = x - mean and its power sums t2, t3, t4, so
    each delete-one moment is exact; equivalent to looping np.delete but
    usable at n ~ 1e5.
    """
    n = len(y)
    terms = _replicate_terms(y, t2)
    d, y2, d2, y3, d3, c2 = terms
    c3 = (t3 - y3) + 3 * d * (t2 - y2) - 3 * d2 * y + (n - 1) * d3

    m2 = c2 / (n - 1)
    mean_i = mean - d
    sd_i = np.sqrt(c2 / (n - 2))
    skew_i = (c3 / (n - 1)) / m2**1.5
    return mean_i, sd_i, skew_i, _kurtosis_replicates(y, t2, t3, t4, terms)


def _se_from_replicates(reps):
    n = len(reps)
    with np.errstate(over="ignore", invalid="ignore"):  # rejected below
        se = float(np.sqrt((n - 1) / n * np.sum((reps - reps.mean()) ** 2)))
    if not math.isfinite(se):
        raise ValueError(f"jackknife standard error {se!r}: a replicate is not finite")
    return se


def _moments(values):
    """``(mean, y, (t2, t3, t4), skewness, kurtosis)`` of a checked sample:
    its centred values y = x - mean and their power sums.  Called with
    NumPy's overflow warnings off: an overflow shows as a non-finite moment,
    rejected here."""
    x = finite_array(values, "values", DESCRIPTIVE_MIN_OBS)
    n = len(x)
    # one set of centred power sums gives the moments and the jackknife
    mean = float(x.sum()) / n
    y = x - mean
    y2 = y * y
    t2, t3, t4 = float(y2.sum()), float((y2 * y).sum()), float((y2 * y2).sum())
    m2, m3, m4 = t2 / n, t3 / n, t4 / n
    if m2 == 0.0:
        raise DegenerateSampleError("degenerate sample: zero variance")

    # out of range: m2**2 overflows, or underflows into the imprecise subnormals
    if np.finfo(np.float64).tiny <= m2 * m2 < math.inf:
        skewness = m3 / m2**1.5
        kurtosis = m4 / m2**2
    else:
        skewness = kurtosis = math.inf
    if not (math.isfinite(kurtosis) and kurtosis >= 1.0 + skewness**2 - 1e-12):
        # holds for every finite sample; fails only when the moments leave the range
        raise ValueError(
            f"moments out of floating-point range: kurtosis {kurtosis!r} and "
            f"skewness {skewness!r} are not finite or violate Pearson's inequality"
        )
    return mean, y, (t2, t3, t4), skewness, kurtosis


@np.errstate(divide="ignore", over="ignore", invalid="ignore")  # rejected in _moments
def descriptive(values) -> dict:
    """Mean, SD, kurtosis, skewness with delete-one jackknife errors: a dict
    with the keys mean, sd, kurtosis, skewness, nobs, se_mean, se_sd,
    se_kurtosis and se_skewness, in that order."""
    mean, y, sums, skewness, kurtosis = _moments(values)
    n = len(y)
    # _se_from_replicates rejects the non-finite replicate of a constant subsample
    mean_r, sd_r, skew_r, kurt_r = _jackknife_moment_replicates(mean, y, *sums)
    return {
        "mean": mean,
        "sd": math.sqrt(sums[0] / (n - 1)),
        "kurtosis": float(kurtosis),
        "skewness": float(skewness),
        "nobs": n,
        "se_mean": _se_from_replicates(mean_r),
        "se_sd": _se_from_replicates(sd_r),
        "se_kurtosis": _se_from_replicates(kurt_r),
        "se_skewness": _se_from_replicates(skew_r),
    }


@np.errstate(divide="ignore", over="ignore", invalid="ignore")  # as in descriptive
def _kurtosis_with_se(values):
    """``(kurtosis, se_kurtosis)`` as `descriptive` gives them, bit for bit,
    without the other moments' replicates."""
    _, y, sums, _, kurtosis = _moments(values)
    reps = _kurtosis_replicates(y, *sums, _replicate_terms(y, sums[0]))
    return float(kurtosis), _se_from_replicates(reps)


def volatility_series(returns, s0: float = 0.0, r_bar_mode: str = "abs") -> VolatilitySeries:
    """Cumulative volatility series s_t = s_{t-1} + |r_t| - r_bar.

    r_bar_mode "abs" (default) uses the mean of |r_t|, which makes the series
    drift-free (s_N = s_0 exactly); "literal" uses the mean of r_t.
    """
    if isinstance(returns, ingest.ReturnSeries):
        returns = returns.values
    r = finite_array(returns, "returns", 1)
    if r_bar_mode == "abs":
        r_bar = float(np.abs(r).mean())
    elif r_bar_mode == "literal":
        r_bar = float(r.mean())
    else:
        raise ValueError(f"unknown r_bar_mode {r_bar_mode!r}")
    values = np.concatenate([[s0], s0 + np.cumsum(np.abs(r) - r_bar)])
    return VolatilitySeries(values=values, r_bar=r_bar)


def agg_gaussianity_scan(
    ticks,
    delta_ts,
    fit_range=None,
    min_nobs: int = 200,
) -> AggGaussScan:
    """Kurtosis of returns vs sampling period, with a log-log power-law fit.

    Each period is resampled independently; periods yielding fewer than
    min_nobs returns are skipped with a warning record.  The slope is the
    OLS fit of ln(kurtosis) on ln(delta_t) over periods inside fit_range,
    a (min, max) pair in minutes; a missing pair or a None end stands for
    the shortest or longest retained period (0 when none is retained).
    With fewer than two retained periods in that range the slope is None,
    with exactly two its standard error is None, and a warning record names
    the range.  A period listed twice, or a min_nobs below
    DESCRIPTIVE_MIN_OBS, raises ValueError.
    """
    if min_nobs < DESCRIPTIVE_MIN_OBS:
        raise ValueError(f"min_nobs must be at least {DESCRIPTIVE_MIN_OBS}, got {min_nobs}")
    delta_ts = sorted(int(d) for d in delta_ts)
    repeated = [a for a, b in zip(delta_ts, delta_ts[1:]) if a == b]
    if repeated:
        raise ValueError(f"period {repeated[0]} minutes is listed more than once")
    rows, warnings = [], []
    for dt in delta_ts:
        prices = ingest.resample_last(ticks, dt)
        if len(prices) < 2:
            warnings.append({"delta_t": dt, "reason": "fewer than 2 bars"})
            continue
        r = ingest.log_returns(prices)
        if len(r) < min_nobs:
            warnings.append(
                {"delta_t": dt, "reason": f"only {len(r)} returns (< {min_nobs})"}
            )
            continue
        try:
            kurtosis, se = _kurtosis_with_se(r.values)
        except DegenerateSampleError:
            warnings.append({"delta_t": dt, "reason": "zero variance"})
            continue
        rows.append({"delta_t": dt, "kurtosis": kurtosis, "se_kurtosis": se, "nobs": len(r)})

    kept = [r["delta_t"] for r in rows] or [0]
    lo, hi = (None, None) if fit_range is None else fit_range
    fit_range = (min(kept) if lo is None else lo, max(kept) if hi is None else hi)

    in_range = [r for r in rows if fit_range[0] <= r["delta_t"] <= fit_range[1]]
    slope = slope_se = None
    if len(in_range) >= 2:
        lx = [math.log(r["delta_t"]) for r in in_range]
        ly = [math.log(r["kurtosis"]) for r in in_range]
        slope, slope_se, _ = fit_line(lx, ly)
    span = f"the fit range {fit_range[0]}-{fit_range[1]} minutes"
    if slope is None:
        warnings.append({"fit_range": list(fit_range), "reason": (
            f"no slope: {len(in_range)} kept period(s) in {span} (< 2)")})
    elif slope_se is None:
        warnings.append({"fit_range": list(fit_range), "reason": (
            f"no slope_se: 2 kept periods in {span} leave no residual degree of freedom")})
    return AggGaussScan(
        rows=rows, slope=slope, slope_se=slope_se,
        fit_range=tuple(fit_range), warnings=warnings,
    )


def scan_to_csv(scan: AggGaussScan) -> str:
    return ingest.csv_table("delta_t,kurtosis,se,nobs", "%d,%.17g,%.17g,%d", [
        [r[key] for r in scan.rows] for key in ("delta_t", "kurtosis", "se_kurtosis", "nobs")])
