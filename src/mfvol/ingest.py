"""Tick parsing, fixed-period resampling, log-returns, and cleaning rules.

Input format: headerless UTF-8 CSV, one trade per line, ``unix_seconds,price,amount``
(the Bitcoincharts dump layout).  Parsed ticks are in timestamp order, and
`load_ticks` caches their three arrays per file contents.  Prices are
resampled onto a regular bar grid and returns are percent log differences.
"""

import io
import json
import math
import os
import stat
import sys
import tempfile
import warnings
import zipfile
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

OUTLIER_THRESHOLD_DEFAULT = 40.0


class TickParseError(ValueError):
    """Malformed tick input; carries the 1-based line number."""

    def __init__(self, line_number, message):
        super().__init__(f"line {line_number}: {message}")
        self.line_number = line_number


@dataclass
class TickSeries:
    """Raw trades: parallel arrays of timestamp (s), price, amount."""

    timestamps: np.ndarray
    prices: np.ndarray
    amounts: np.ndarray

    def __len__(self):
        return len(self.timestamps)


@dataclass
class PriceSeries:
    """Regular price grid: bar i sits at start_time + i * delta_t."""

    delta_t_minutes: int
    start_time: int
    prices: np.ndarray

    def __len__(self):
        return len(self.prices)

    def bar_times(self):
        step = self.delta_t_minutes * 60
        return self.start_time + step * np.arange(len(self.prices), dtype=np.int64)


@dataclass
class ReturnSeries:
    """Percent log-returns at a fixed sampling period."""

    delta_t_minutes: int
    times: np.ndarray
    values: np.ndarray
    removed_outliers: list = field(default_factory=list)

    def __len__(self):
        return len(self.values)


def _read_text(source) -> str:
    if isinstance(source, os.PathLike):
        with open(source, encoding="utf-8") as fh:  # universal newlines
            return fh.read()
    if isinstance(source, bytes):
        return source.decode("utf-8")
    if isinstance(source, str):
        return source
    if hasattr(source, "read"):
        data = source.read()
        return data.decode("utf-8") if isinstance(data, bytes) else data
    raise TypeError("source must be a path, str, bytes, or a file-like object")


_TICK_ROW = np.dtype([("t", np.int64), ("p", np.float64), ("a", np.float64)])
_RETURN_ROW = np.dtype([("t", np.int64), ("v", np.float64)])
_INT64_RANGE = range(-2**63, 2**63)  # the timestamps np.loadtxt reads
# Line breaks of str.splitlines that np.loadtxt reads as field characters.
_OTHER_BREAKS = "\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029"
_CHUNK_CHARS = 1 << 18  # characters per read of a file's line-break check
_COMPRESSED = (".gz", ".bz2", ".xz")


def _text_or_path(source):
    """``source`` itself when it is a path np.loadtxt reads as it is, its text
    otherwise.  A path is read in place only if it names a regular file
    without a compressed suffix: np.loadtxt decompresses a path by its
    suffix, and a pipe (``--input <(zcat ticks.csv.gz)``) can be read only
    once, while a path is opened for its line-break check and again by
    np.loadtxt."""
    if (isinstance(source, os.PathLike) and Path(source).suffix not in _COMPRESSED
            and os.path.isfile(source)):
        return source
    return _read_text(source)


def _chunks(source):
    """The text of ``source``: a str whole, a path in reads of _CHUNK_CHARS
    with universal newlines, as np.loadtxt reads the path."""
    if isinstance(source, str):
        yield source
        return
    with open(source, encoding="utf-8") as fh:
        while chunk := fh.read(_CHUNK_CHARS):
            yield chunk


def _header_rows(source, header):
    """Lines np.loadtxt skips: 1 when the first starts with the word ``header``
    (in any case), else 0.  None when np.loadtxt and the line loop could split
    the text into different lines (a lone CR, a form feed, ...)."""
    skip = 0
    for k, chunk in enumerate(_chunks(source)):
        if any(c in chunk for c in _OTHER_BREAKS) or (
            "\r" in chunk and chunk.count("\r") != chunk.count("\r\n")
        ):
            return None
        if k == 0 and header is not None:
            skip = int(chunk[:len(header)].lower() == header)
    return skip


def _load_rows(source, dtype, header=None, **kwargs):
    """All rows of ``source`` from one np.loadtxt call, or None when it fails.

    ``source`` is text, or a path that np.loadtxt reads in place, in chunks,
    so that no copy of the whole file is made.  None sends the caller to its
    line loop, which is the reference: it skips whitespace-only lines, reads
    ``1_000``, and names the line of an error.  Text whose line breaks the
    two could split differently goes to the loop unread, and so does a file
    that is not UTF-8: the loop reads it again and reports the error.
    """
    try:
        skip = _header_rows(source, header)
        if skip is None:
            return None
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # e.g. "input contained no data"
            return np.loadtxt(io.StringIO(source) if isinstance(source, str) else source,
                              dtype=dtype, delimiter=",", comments=None, ndmin=1,
                              skiprows=skip, encoding="utf-8", **kwargs)
    except (ValueError, Warning):
        return None


def _tick_series(timestamps, prices, amounts) -> TickSeries:
    timestamps = np.ascontiguousarray(timestamps, dtype=np.int64)
    prices = np.ascontiguousarray(prices, dtype=np.float64)
    amounts = np.ascontiguousarray(amounts, dtype=np.float64)
    if (timestamps[1:] < timestamps[:-1]).any():
        order = np.argsort(timestamps, kind="stable")
        timestamps, prices, amounts = timestamps[order], prices[order], amounts[order]
    return TickSeries(timestamps, prices, amounts)


def parse_ticks(source) -> TickSeries:
    """Parse `timestamp,price,amount` lines into a TickSeries.

    Empty lines are skipped.  Records are returned in timestamp order; a
    stable sort is applied when the input is out of order, so that "last
    trade wins" semantics survive.
    ``source`` is a path, read in place, or text, bytes or a file object.
    The input is read as one array; input that fails that read or its checks
    is parsed line by line, which raises naming the offending line.
    """
    source = _text_or_path(source)
    rows = _load_rows(source, _TICK_ROW)
    if rows is not None:
        t, p, a = rows["t"], rows["p"], rows["a"]
        if np.isfinite(p).all() and (p > 0.0).all() and (a >= 0.0).all():
            return _tick_series(t, p, a)
    return _parse_tick_lines(_read_text(source))


TICK_CACHE_ENTRIES = 4  # parsed tick files the cache keeps, the most recently used
TICK_CACHE_BYTES = 1 << 29  # and the most bytes those entries may hold together
_HASH_BYTES = 1 << 20


def load_ticks(path) -> TickSeries:
    """`parse_ticks(path)`, parsed once per file contents and then cached.

    An entry is keyed by the SHA-256 of the file's bytes, the mfvol, NumPy
    and Python versions and this module's own bytes, so an edited file,
    another release or changed parsing code never finds it.  Entries live in
    ``$XDG_CACHE_HOME/mfvol/ticks`` (default ``~/.cache/mfvol/ticks``), a
    folder that must belong to the current user and be closed to others; the
    TICK_CACHE_ENTRIES most recently used that fit in TICK_CACHE_BYTES are
    kept.  A hit is checked against every guarantee of `parse_ticks`, and an
    entry that fails a check or cannot be read is a miss.  Without a usable
    cache, or for a path that is not a regular file (a pipe, which can be
    read only once), the input is parsed as `parse_ticks` parses it and is
    not cached; an input that fails to parse raises its usual error and is
    not cached.
    """
    path = Path(path)
    folder = _tick_cache_dir()
    # a pipe is read once, by the parse; a missing file raises there too
    if folder is None or not _private(folder) or not path.is_file():
        return parse_ticks(path)
    state = _file_state(path)
    try:
        key = _content_key(path)
    except OSError:  # parse_ticks reports an unreadable input
        return parse_ticks(path)
    entry = folder / f"{key}.npz"
    ticks = _read_entry(entry)
    if ticks is not None:
        try:
            os.utime(entry)  # the pruning order is the order of use
        except OSError:
            pass
        return ticks
    ticks = parse_ticks(path)
    if state is not None and _file_state(path) == state:  # not written to meanwhile
        _write_entry(folder, entry, ticks)
    return ticks


def _tick_cache_dir():
    base = os.environ.get("XDG_CACHE_HOME", "")
    if not os.path.isabs(base):  # the XDG spec ignores a relative path
        home = os.environ.get("HOME")
        if not home:
            return None
        base = os.path.join(home, ".cache")
    return Path(base, "mfvol", "ticks")


def _private(folder):
    """Whether ``folder`` is missing, or is a directory of the current user's
    that no one else may read or write: only then is an entry trusted."""
    try:
        st = os.stat(folder)
    except FileNotFoundError:
        return True
    except OSError:
        return False
    return (stat.S_ISDIR(st.st_mode) and hasattr(os, "getuid")
            and st.st_uid == os.getuid() and not st.st_mode & 0o077)


def _file_state(path):
    """What a write to the file changes; None when it cannot be read."""
    try:
        st = os.stat(path)
    except OSError:
        return None
    return st.st_dev, st.st_ino, st.st_size, st.st_mtime_ns, st.st_ctime_ns


def _content_key(path):
    """Hex SHA-256 of what a parse depends on: the mfvol, NumPy and Python
    versions, this module's bytes, and the file's bytes, read in blocks."""
    import hashlib

    import mfvol  # imported in full by the time a file is read

    digest = hashlib.sha256(b"\0".join([mfvol.__version__.encode(), np.__version__.encode(),
                                        sys.version.encode(), Path(__file__).read_bytes(),
                                        b""]))
    with open(path, "rb") as fh:
        while block := fh.read(_HASH_BYTES):
            digest.update(block)
    return digest.hexdigest()


def _read_entry(entry):
    """The TickSeries a cache entry holds; None when it is missing, cannot be
    read, or breaks a guarantee of `parse_ticks`."""
    try:
        with open(entry, "rb") as fh:
            npz = np.load(fh, allow_pickle=False)
            if not isinstance(npz, np.lib.npyio.NpzFile):
                return None
            t, p, a = (npz[k] for k in ("t", "p", "a"))
    except (OSError, ValueError, KeyError, EOFError, zipfile.BadZipFile):
        return None
    valid = (t.dtype == np.int64 and p.dtype == np.float64 and a.dtype == np.float64
             and t.ndim == 1 and t.shape == p.shape == a.shape
             and np.isfinite(p).all() and (p > 0.0).all() and (a >= 0.0).all()
             and (t[1:] >= t[:-1]).all())
    return TickSeries(t, p, a) if valid else None


def _write_entry(folder, entry, ticks):
    """Store ``ticks`` as ``entry``, then keep only the TICK_CACHE_ENTRIES most
    recently used entries that fit in TICK_CACHE_BYTES.  The entry appears
    whole or not at all; arrays larger than the bound are not stored, and a
    cache that cannot be written is left as it is."""
    arrays = {"t": ticks.timestamps, "p": ticks.prices, "a": ticks.amounts}
    if sum(x.nbytes for x in arrays.values()) > TICK_CACHE_BYTES:
        return
    try:
        folder.mkdir(mode=0o700, parents=True, exist_ok=True)
        if not _private(folder):
            return
        fd, tmp = tempfile.mkstemp(suffix=".tmp", dir=folder)
        try:
            with os.fdopen(fd, "wb") as fh:
                np.savez(fh, **arrays)
            os.replace(tmp, entry)
        finally:
            if os.path.exists(tmp):
                os.unlink(tmp)
        kept = total = 0
        for old in sorted(folder.glob("*.npz"), key=lambda e: -e.stat().st_mtime_ns):
            total += old.stat().st_size
            if kept < TICK_CACHE_ENTRIES and total <= TICK_CACHE_BYTES:
                kept += 1
            else:
                old.unlink(missing_ok=True)
    except OSError:
        pass


def _parse_tick_lines(text) -> TickSeries:
    """`parse_ticks` one line at a time: the reference, and its error report."""
    ts, px, am = [], [], []
    for lineno, raw in enumerate(io.StringIO(text), start=1):
        line = raw.strip()
        if not line:
            continue
        parts = line.split(",")
        if len(parts) != 3:
            raise TickParseError(lineno, f"expected 3 fields, got {len(parts)}")
        try:
            t = int(parts[0])
            p = float(parts[1])
            a = float(parts[2])
        except ValueError as exc:
            raise TickParseError(lineno, str(exc)) from None
        if t not in _INT64_RANGE:
            raise TickParseError(lineno, f"timestamp {parts[0]} outside the int64 range")
        if not np.isfinite(p) or p <= 0.0:
            raise ValueError(f"line {lineno}: nonpositive or non-finite price {parts[1]}")
        if a < 0.0:
            raise ValueError(f"line {lineno}: negative amount {parts[2]}")
        ts.append(t)
        px.append(p)
        am.append(a)
    return _tick_series(ts, px, am)


def resample_last(ticks: TickSeries, delta_t_minutes: int) -> PriceSeries:
    """Resample to a regular grid: bar price = last trade in [start, start + dt).

    Bar boundaries are aligned to multiples of delta_t since the epoch.
    Bars with no trades carry the previous bar's price.  Bars before the
    first trade are excluded.
    """
    if len(ticks) == 0:
        raise ValueError("cannot resample an empty TickSeries")
    if delta_t_minutes < 1:
        raise ValueError("delta_t_minutes must be >= 1")

    step = int(delta_t_minutes) * 60
    first_bar = int(ticks.timestamps[0]) // step
    last_bar = int(ticks.timestamps[-1]) // step
    n_bars = last_bar - first_bar + 1

    # Last tick strictly before each bar end; bar 0 always contains a tick.
    ends = (first_bar + 1 + np.arange(n_bars, dtype=np.int64)) * step
    idx = np.searchsorted(ticks.timestamps, ends, side="left") - 1
    prices = ticks.prices[idx]  # a bar without trades inherits the last earlier one

    return PriceSeries(
        delta_t_minutes=int(delta_t_minutes),
        start_time=first_bar * step,
        prices=np.asarray(prices, dtype=np.float64),
    )


def log_returns(series: PriceSeries) -> ReturnSeries:
    """Percent log-returns: 100 * (ln p[i+1] - ln p[i]); one per bar pair."""
    if len(series) < 2:
        raise ValueError("need at least 2 bars to form returns")
    values = 100.0 * np.diff(np.log(series.prices))
    times = series.bar_times()[1:]
    return ReturnSeries(series.delta_t_minutes, times, values)


def filter_outliers(
    returns: ReturnSeries,
    threshold: float = OUTLIER_THRESHOLD_DEFAULT,
    mode: str = "positive-only",
) -> ReturnSeries:
    """Drop outlier returns; dropped entries are recorded, never lost.

    ``positive-only`` removes r > threshold (the literal published rule);
    ``symmetric`` removes |r| > threshold.
    """
    if not threshold > 0:
        raise ValueError("threshold must be positive")
    if mode == "positive-only":
        drop = returns.values > threshold
    elif mode == "symmetric":
        drop = np.abs(returns.values) > threshold
    else:
        raise ValueError(f"unknown outlier mode {mode!r}")

    removed = list(returns.removed_outliers) + [
        (int(t), float(v))
        for t, v in zip(returns.times[drop], returns.values[drop])
    ]
    return ReturnSeries(
        returns.delta_t_minutes,
        returns.times[~drop],
        returns.values[~drop],
        removed_outliers=removed,
    )


_ROWS_PER_CALL = 1 << 14


def csv_table(header, row_format, columns) -> str:
    """CSV text: the ``header`` line, then ``row_format % row`` for each row.

    ``columns`` are equal-length arrays or sequences, one per field of
    ``row_format``.  Each chunk of _ROWS_PER_CALL rows is formatted by one
    ``%`` call, and ``%.17g`` writes what ``format(v, ".17g")`` writes.
    """
    line, width, n = row_format + "\n", len(columns), len(columns[0])
    out = [header + "\n"]
    for start in range(0, n, _ROWS_PER_CALL):
        rows = min(_ROWS_PER_CALL, n - start)
        cells = [None] * (rows * width)
        for j, column in enumerate(columns):
            cells[j::width] = np.asarray(column[start:start + rows]).tolist()
        out.append(line * rows % tuple(cells))
    return "".join(out)


def returns_to_csv(returns: ReturnSeries) -> str:
    return csv_table("timestamp,value,flag", "%d,%.17g,ok", [returns.times, returns.values])


def returns_to_json(returns: ReturnSeries) -> str:
    """Metadata sidecar of a returns CSV; the returns themselves are in the CSV."""
    doc = {
        "delta_t_minutes": returns.delta_t_minutes,
        "n_returns": int(len(returns)),
        "removed_outliers": [
            {"timestamp": t, "value": v} for t, v in returns.removed_outliers
        ],
    }
    return json.dumps(doc, indent=2)


def read_returns_csv(source) -> ReturnSeries:
    """Read a returns CSV produced by `returns_to_csv` (flag column optional).

    A malformed row or a non-finite value raises ValueError naming its
    1-based line number.  As in `parse_ticks`, ``source`` may be a path, the
    input is read as one array, and only input that fails that read or its
    check is read line by line.
    """
    source = _text_or_path(source)
    # a header anywhere but on line 1 fails the array read and goes to the loop
    rows = _load_rows(source, _RETURN_ROW, header="timestamp", usecols=(0, 1))
    if rows is not None and np.isfinite(rows["v"]).all():
        return _return_series(rows["t"], rows["v"])
    return _read_return_lines(_read_text(source))


def _read_return_lines(text) -> ReturnSeries:
    """`read_returns_csv` one line at a time: the reference, and its error report."""
    times, values = [], []
    lines = [(i, ln) for i, ln in enumerate(text.splitlines(), start=1) if ln.strip()]
    if lines and lines[0][1].lower().startswith("timestamp"):
        lines = lines[1:]
    for lineno, ln in lines:
        parts = ln.split(",")
        try:
            t, v = int(parts[0]), float(parts[1])
        except (ValueError, IndexError) as exc:
            raise ValueError(f"line {lineno}: {exc}") from None
        if t not in _INT64_RANGE:
            raise ValueError(f"line {lineno}: timestamp {parts[0]} outside the int64 range")
        if not math.isfinite(v):
            raise ValueError(f"line {lineno}: non-finite return {parts[1]}")
        times.append(t)
        values.append(v)
    return _return_series(times, values)


def _return_series(times, values) -> ReturnSeries:
    times = np.ascontiguousarray(times, dtype=np.int64)
    delta_t = None
    if len(times) > 1:
        step = int(np.min(np.diff(times)))
        if step > 0 and step % 60 == 0:
            delta_t = step // 60
    return ReturnSeries(delta_t or 1, times, np.ascontiguousarray(values, dtype=np.float64))
