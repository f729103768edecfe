"""Ordinary least-squares slopes, with their standard error and R^2, of
one line or of a stack of lines sharing one abscissa.

Every reduction runs along a row on its own, so a row's fit has the same
bits whatever rows are stacked with it: a stack can be cut to the rows a
caller reads."""

import numpy as np


def fit_line(x, y):
    """Fit y = a + b*x by OLS, one line per row of y (along its last axis).

    Returns (slope, slope_se, r_squared), each of shape y.shape[:-1].
    slope_se is None for fewer than 3 points (zero residual degrees of
    freedom); r_squared is 1 for a row with no spread.
    """
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    n = len(x)
    if n < 2:
        raise ValueError("need at least 2 points for a line fit")
    xm = x - x.mean()
    sxx = float(xm @ xm)
    if sxx == 0.0:
        raise ValueError("degenerate abscissa: all x equal")
    y_mean = y.mean(axis=-1)
    y_dev = y - y_mean[..., None]
    # einsum, not a gemv product (y_dev @ xm), whose bits depend on the rows
    slope = np.einsum("...j,j->...", y_dev, xm) / sxx
    # the residuals keep this form: y_dev - slope * xm rounds differently
    intercept = y_mean - slope * x.mean()
    resid = y - (intercept[..., None] + slope[..., None] * x)
    ss_res = np.einsum("...j,...j->...", resid, resid)
    ss_tot = np.einsum("...j,...j->...", y_dev, y_dev)
    with np.errstate(divide="ignore", invalid="ignore"):
        r2 = np.where(ss_tot == 0.0, 1.0, 1.0 - ss_res / ss_tot)
    se = np.sqrt(ss_res / (n - 2) / sxx) if n > 2 else None
    return slope, se, r2
