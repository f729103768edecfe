"""The one input check of the public estimators."""

import numpy as np


def finite_array(values, what, min_len):
    """``values`` as a 1-D float64 array of at least ``min_len`` finite entries;
    ValueError naming the shape, the length or the first non-finite entry."""
    x = np.asarray(values, dtype=np.float64)
    if x.ndim != 1:
        raise ValueError(f"{what} must be one-dimensional, got shape {x.shape}")
    if len(x) < min_len:
        raise ValueError(f"need at least {min_len} {what}, got {len(x)}")
    bad = np.flatnonzero(~np.isfinite(x))
    if bad.size:
        raise ValueError(f"{what} contain {bad.size} non-finite value(s), "
                         f"the first at index {int(bad[0])}: {x[bad[0]]!r}")
    return x
