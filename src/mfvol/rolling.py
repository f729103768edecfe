"""Rolling-window engine: apply any estimator over sliding windows and
assemble time-indexed tracks of the results, and join tracks on their
window ends into plain rows.

Windows are index-based on the regular (gap-filled) return grid: window k
covers indices [k*step, k*step + window).  The estimator gets all windows at
once, as one stack; a window it fails on becomes a flagged row rather than a
silent gap.
"""

from dataclasses import dataclass, field

import numpy as np

from . import ingest


@dataclass
class RollingConfig:
    window: int = 548
    step: int = 30

    def validate(self):
        if self.window < 1 or self.step < 1:
            raise ValueError("window and step must be positive")


@dataclass
class RollingTrack:
    rows: list = field(default_factory=list)
    # row: {window_start, window_end, status: ok|failed, payload | error}


def n_windows(n_obs: int, window: int, step: int) -> int:
    if n_obs < window:
        raise ValueError(f"series of length {n_obs} shorter than window {window}")
    return (n_obs - window) // step + 1


def each_window(fn):
    """An estimator for rolling_apply from ``fn``, which maps one window's
    values to a payload; an exception it raises is that window's outcome."""
    def run(windows):
        out = []
        for values in windows:
            try:
                out.append(fn(values))
            except Exception as exc:
                out.append(exc)
        return out
    return run


def rolling_apply(series, config: RollingConfig, estimator) -> RollingTrack:
    """Apply estimator to every window, in window order.

    ``series`` is a ReturnSeries (window labels are timestamps) or a plain
    sequence (labels are indices).  ``estimator`` maps the (count, window)
    stack of windows, a read-only view of the series, to one outcome per
    window: a dict of scalar measures, or an exception, which becomes a
    failure row.  ``each_window`` makes one from a per-window function.
    """
    if isinstance(series, ingest.ReturnSeries):
        values = series.values
        times = series.times
    else:
        values = np.asarray(series, dtype=np.float64)
        times = np.arange(len(values), dtype=np.int64)
    config.validate()
    count = n_windows(len(values), config.window, config.step)
    windows = np.lib.stride_tricks.sliding_window_view(values, config.window)[::config.step]
    outcomes = estimator(windows)
    if len(outcomes) != count:
        raise ValueError(f"estimator gave {len(outcomes)} outcomes for {count} windows")

    rows = []
    for k, outcome in enumerate(outcomes):
        lo = k * config.step
        row = {"window_start": int(times[lo]), "window_end": int(times[lo + config.window - 1])}
        if isinstance(outcome, Exception):
            row["status"] = "failed"
            row["error"] = f"{type(outcome).__name__}: {outcome}"
        else:
            row["status"] = "ok"
            row["payload"] = outcome
        rows.append(row)
    return RollingTrack(rows=rows)


def join_measures(tracks, names=None) -> list:
    """Inner join of tracks on window_end for cross-measure scatters: one
    dict per common window, in window_end order, keyed window_end and then
    the tracks' payload keys.

    Only status-ok rows participate.  Colliding payload keys are prefixed
    with the track name (or its index).  Raises if no window labels overlap,
    or if a column would still be written twice (two tracks of one name).
    """
    if len(tracks) < 2:
        raise ValueError("need at least 2 tracks to join")
    names = names or [f"t{i}" for i in range(len(tracks))]

    maps = []
    for track in tracks:
        maps.append({
            row["window_end"]: row["payload"]
            for row in track.rows if row["status"] == "ok"
        })
    common = set(maps[0])
    for m in maps[1:]:
        common &= set(m)
    if not common:
        raise ValueError("tracks have no overlapping windows")

    rows = []
    for end in sorted(common):
        merged = {"window_end": end}
        for name, m in zip(names, maps):
            for key, val in m[end].items():
                col = key if key not in merged else f"{name}_{key}"
                if col in merged:
                    raise ValueError(f"column {col} would be written twice: "
                                     "the tracks need distinct names")
                merged[col] = val
        rows.append(merged)
    return rows


def _fmt(x):
    if isinstance(x, float):
        return format(x, ".17g")
    return str(x)


def _keys(dicts):
    """The keys of ``dicts`` in order of first appearance: a table's columns."""
    return list(dict.fromkeys(key for d in dicts for key in d))


def track_to_csv(track: RollingTrack) -> str:
    keys = _keys(row.get("payload", {}) for row in track.rows)
    out = [",".join(["window_start", "window_end", *keys, "status"])]
    for row in track.rows:
        payload = row.get("payload", {})
        cells = [str(row["window_start"]), str(row["window_end"])]
        cells += [_fmt(payload[k]) if k in payload else "" for k in keys]
        cells.append(row["status"])
        out.append(",".join(cells))
    return "\n".join(out) + "\n"


def read_track_csv(text: str) -> RollingTrack:
    """Track from track_to_csv text; a failed row's error message is not kept.

    Raises ValueError naming the 1-based line of a missing header, a header
    not of the form ``window_start,window_end,...,status``, a row whose cell
    count differs from the header's, a status other than ``ok`` or
    ``failed``, a window bound that is not an integer, or a payload cell of
    an ``ok`` row that is neither empty nor a number.
    """
    lines = [(i, ln) for i, ln in enumerate(text.splitlines(), start=1) if ln.strip()]
    if not lines:
        raise ValueError("line 1: no header: the track is empty")
    lineno, first = lines[0]
    header = first.split(",")
    if len(header) < 3 or header[:2] != ["window_start", "window_end"] or header[-1] != "status":
        raise ValueError(f"line {lineno}: the header is not window_start,window_end,...,status")
    keys = header[2:-1]
    rows = []
    for lineno, ln in lines[1:]:
        cells = ln.split(",")
        if len(cells) != len(header):
            raise ValueError(f"line {lineno}: {len(cells)} cells, the header has {len(header)}")
        status = cells[-1]
        if status not in ("ok", "failed"):
            raise ValueError(f"line {lineno}: status {status!r} is neither ok nor failed")
        try:
            row = {"window_start": int(cells[0]), "window_end": int(cells[1]), "status": status}
            if status == "ok":
                row["payload"] = {k: float(v) for k, v in zip(keys, cells[2:-1]) if v != ""}
            else:
                row["error"] = ""
        except ValueError as exc:
            raise ValueError(f"line {lineno}: {exc}") from None
        rows.append(row)
    return RollingTrack(rows=rows)


def joined_to_csv(rows) -> str:
    """CSV of `join_measures` rows; a cell whose row lacks the column is empty."""
    columns = _keys(rows)
    out = [",".join(columns)]
    for row in rows:
        out.append(",".join(_fmt(row.get(c, "")) for c in columns))
    return "\n".join(out) + "\n"
