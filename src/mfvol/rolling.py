"""Rolling-window engine: apply any estimator over sliding windows and
assemble time-indexed tracks of the results.

Windows are index-based on the regular (gap-filled) return grid: window k
covers indices [k*step, k*step + window).  Failed estimator calls become
flagged rows rather than silent gaps.
"""

from dataclasses import dataclass, field

import numpy as np

from . import ingest


@dataclass
class RollingConfig:
    window: int = 548
    step: int = 30


@dataclass
class RollingTrack:
    rows: list = field(default_factory=list)
    # row: {window_start, window_end, status: ok|failed, payload | error}


def n_windows(n_obs: int, window: int, step: int) -> int:
    if n_obs < window:
        raise ValueError(f"series of length {n_obs} shorter than window {window}")
    return (n_obs - window) // step + 1


def rolling_apply(series, config: RollingConfig, estimator) -> RollingTrack:
    """Apply estimator to every window, in window order.

    ``series`` is a ReturnSeries (window labels are timestamps) or a plain
    sequence (labels are indices).  ``estimator`` maps a window's values to
    a dict of scalar measures; exceptions become failure rows.
    """
    if isinstance(series, ingest.ReturnSeries):
        values = series.values
        times = series.times
    else:
        values = np.asarray(series, dtype=np.float64)
        times = np.arange(len(values), dtype=np.int64)
    if config.window < 1 or config.step < 1:
        raise ValueError("window and step must be positive")
    count = n_windows(len(values), config.window, config.step)

    def run_one(k):
        lo = k * config.step
        hi = lo + config.window
        row = {
            "window_start": int(times[lo]),
            "window_end": int(times[hi - 1]),
        }
        try:
            payload = estimator(values[lo:hi])
            row["status"] = "ok"
            row["payload"] = payload
        except Exception as exc:
            row["status"] = "failed"
            row["error"] = f"{type(exc).__name__}: {exc}"
        return row

    rows = [run_one(k) for k in range(count)]
    return RollingTrack(rows=rows)


@dataclass
class JoinedTable:
    columns: list
    rows: list
    dropped: dict  # per-track count of rows without a match


def join_measures(tracks, names=None) -> JoinedTable:
    """Inner join of tracks on window_end for cross-measure scatters.

    Only status-ok rows participate.  Colliding payload keys are prefixed
    with the track name (or its index).  Raises if no window labels overlap.
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

    dropped = {names[i]: len(m) - len(common) for i, m in enumerate(maps)}
    seen, columns = set(), []
    rows = []
    for end in sorted(common):
        merged = {"window_end": end}
        for name, m in zip(names, maps):
            for key, val in m[end].items():
                col = key if key not in merged else f"{name}_{key}"
                merged[col] = val
        rows.append(merged)
        for col in merged:
            if col not in seen:
                seen.add(col)
                columns.append(col)
    return JoinedTable(columns=columns, rows=rows, dropped=dropped)


def _fmt(x):
    if isinstance(x, float):
        return format(x, ".17g")
    return str(x)


def track_to_csv(track: RollingTrack) -> str:
    keys = []
    for row in track.rows:
        for key in row.get("payload", {}):
            if key not in keys:
                keys.append(key)
    out = [",".join(["window_start", "window_end", *keys, "status"])]
    for row in track.rows:
        payload = row.get("payload", {})
        cells = [str(row["window_start"]), str(row["window_end"])]
        cells += [_fmt(payload[k]) if k in payload else "" for k in keys]
        cells.append(row["status"])
        out.append(",".join(cells))
    return "\n".join(out) + "\n"


def read_track_csv(text: str) -> RollingTrack:
    """Track from track_to_csv text; a failed row's error message is not kept."""
    lines = [ln for ln in text.splitlines() if ln.strip()]
    header = lines[0].split(",")
    keys = header[2:-1]
    rows = []
    for ln in lines[1:]:
        cells = ln.split(",")
        status = cells[-1]
        row = {
            "window_start": int(cells[0]),
            "window_end": int(cells[1]),
            "status": status,
        }
        if status == "ok":
            row["payload"] = {
                k: float(v) for k, v in zip(keys, cells[2:-1]) if v != ""
            }
        else:
            row["error"] = ""
        rows.append(row)
    return RollingTrack(rows=rows)


def joined_to_csv(table: JoinedTable) -> str:
    out = [",".join(table.columns)]
    for row in table.rows:
        out.append(",".join(_fmt(row.get(c, "")) for c in table.columns))
    return "\n".join(out) + "\n"
