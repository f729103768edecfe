"""Descriptive statistics with jackknife errors, the cumulative volatility
series, and the aggregational-Gaussianity kurtosis scan.

Moment conventions: SD uses the n-1 denominator; skewness and kurtosis use
n-denominator central moments (raw Pearson kurtosis, Gaussian = 3).
"""

import math
from dataclasses import dataclass, field

import numpy as np

from . import ingest
from ._linfit import fit_line
from ._validate import finite_array


@dataclass
class DescriptiveStats:
    mean: float
    sd: float
    kurtosis: float
    skewness: float
    nobs: int
    se_mean: float
    se_sd: float
    se_kurtosis: float
    se_skewness: float

    def as_dict(self):
        return dict(self.__dict__)


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
    values = np.asarray(values, dtype=np.float64)
    n = len(values)
    if n < 2:
        raise ValueError("jackknife needs at least 2 observations")
    reps = np.empty(n)
    for i in range(n):
        sub = np.delete(values, i)
        try:
            reps[i] = statistic(sub)
        except Exception as exc:
            raise RuntimeError(f"statistic failed on delete-one subsample {i}") from exc
    return _se_from_replicates(reps)


def _jackknife_moment_replicates(mean, y, t2, t3, t4):
    """Delete-one (mean, sd, skewness, kurtosis) replicates in O(n).

    From the centred sample y = x - mean and its power sums t2, t3, t4, so
    each delete-one moment is exact; equivalent to looping np.delete but
    usable at n ~ 1e5.
    """
    n = len(y)
    d = y / (n - 1)  # shift of the remaining sample's mean, sign flipped

    c2 = (t2 - y**2) - 2 * d * y + (n - 1) * d**2
    c3 = (t3 - y**3) + 3 * d * (t2 - y**2) - 3 * d**2 * y + (n - 1) * d**3
    c4 = (t4 - y**4) + 4 * d * (t3 - y**3) + 6 * d**2 * (t2 - y**2) - 4 * d**3 * y + (n - 1) * d**4

    m2 = c2 / (n - 1)
    mean_i = mean - d
    sd_i = np.sqrt(c2 / (n - 2))
    skew_i = (c3 / (n - 1)) / m2**1.5
    kurt_i = (c4 / (n - 1)) / m2**2
    return mean_i, sd_i, skew_i, kurt_i


def _se_from_replicates(reps):
    n = len(reps)
    return float(np.sqrt((n - 1) / n * np.sum((reps - reps.mean()) ** 2)))


def descriptive(values) -> DescriptiveStats:
    """Mean, SD, kurtosis, skewness with delete-one jackknife errors."""
    x = finite_array(values, "values")
    n = len(x)
    if n < 4:
        raise ValueError("descriptive statistics need at least 4 observations")
    # one set of centred power sums gives the moments and the jackknife; an
    # overflow shows as a non-finite moment, rejected just below
    with np.errstate(over="ignore", invalid="ignore"):
        mean = float(x.sum()) / n
        y = x - mean
        t2, t3, t4 = (float((y**p).sum()) for p in (2, 3, 4))
    m2, m3, m4 = t2 / n, t3 / n, t4 / n
    if m2 == 0.0:
        raise DegenerateSampleError("degenerate sample: zero variance")

    try:
        skewness = m3 / m2**1.5
        kurtosis = m4 / m2**2
    except OverflowError:  # a Python float power raises where NumPy gives inf
        skewness = kurtosis = math.inf
    if not (math.isfinite(kurtosis) and kurtosis >= 1.0 + skewness**2 - 1e-12):
        # holds for every finite sample; fails only when the moments overflow
        raise ValueError(
            f"moments out of floating-point range: kurtosis {kurtosis!r} and "
            f"skewness {skewness!r} are not finite or violate Pearson's inequality"
        )

    mean_r, sd_r, skew_r, kurt_r = _jackknife_moment_replicates(mean, y, t2, t3, t4)
    return DescriptiveStats(
        mean=mean,
        sd=math.sqrt(t2 / (n - 1)),
        kurtosis=float(kurtosis),
        skewness=float(skewness),
        nobs=n,
        se_mean=_se_from_replicates(mean_r),
        se_sd=_se_from_replicates(sd_r),
        se_kurtosis=_se_from_replicates(kurt_r),
        se_skewness=_se_from_replicates(skew_r),
    )


def volatility_series(returns, s0: float = 0.0, r_bar_mode: str = "abs") -> VolatilitySeries:
    """Cumulative volatility series s_t = s_{t-1} + |r_t| - r_bar.

    r_bar_mode "abs" (default) uses the mean of |r_t|, which makes the series
    drift-free (s_N = s_0 exactly); "literal" uses the mean of r_t.
    """
    if isinstance(returns, ingest.ReturnSeries):
        returns = returns.values
    r = finite_array(returns, "returns")
    if len(r) == 0:
        raise ValueError("empty returns")
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
    OLS fit of ln(kurtosis) on ln(delta_t) over periods inside fit_range
    (default: all retained periods).
    """
    delta_ts = sorted(int(d) for d in delta_ts)
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
            d = descriptive(r.values)
        except DegenerateSampleError:
            warnings.append({"delta_t": dt, "reason": "zero variance"})
            continue
        rows.append(
            {
                "delta_t": dt,
                "kurtosis": d.kurtosis,
                "se_kurtosis": d.se_kurtosis,
                "nobs": d.nobs,
            }
        )

    if fit_range is None and rows:
        fit_range = (rows[0]["delta_t"], rows[-1]["delta_t"])
    elif fit_range is None:
        fit_range = (0, 0)

    in_range = [r for r in rows if fit_range[0] <= r["delta_t"] <= fit_range[1]]
    slope = slope_se = None
    if len(in_range) >= 2:
        lx = [math.log(r["delta_t"]) for r in in_range]
        ly = [math.log(r["kurtosis"]) for r in in_range]
        slope, _, slope_se, _ = fit_line(lx, ly)
    return AggGaussScan(
        rows=rows, slope=slope, slope_se=slope_se,
        fit_range=tuple(fit_range), warnings=warnings,
    )


def scan_to_csv(scan: AggGaussScan) -> str:
    out = ["delta_t,kurtosis,se,nobs"]
    for r in scan.rows:
        out.append(
            f"{r['delta_t']},{r['kurtosis']:.17g},{r['se_kurtosis']:.17g},{r['nobs']}"
        )
    return "\n".join(out) + "\n"
