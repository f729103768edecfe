"""Tick parsing, fixed-period resampling, log-returns, and cleaning rules.

Input format: headerless UTF-8 CSV, one trade per line, ``unix_seconds,price,amount``
(the Bitcoincharts dump layout).  Parsed ticks are in timestamp order.
Prices are resampled onto a regular bar grid and returns are percent log
differences.  `parse_ticks` and `read_returns_csv` take a path, text,
bytes or a file object; a ``str`` is always CSV text.  A path of 64 KiB or
more is read in place, and its parsed rows are cached by its contents, so
it is not parsed again; any other input is read whole as text and never
cached.
"""

import io
import json
import math
import os
import stat
import sys
import tempfile
import warnings
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
# ASCII that np.loadtxt reads otherwise than the line loop: line breaks of
# str.splitlines that it reads as field characters, and \x1f, which it strips
# from a number.  Text that is not ASCII goes to the line loop whole.
_LOOP_ONLY = "\x0b\x0c\x1c\x1d\x1e\x1f"
_CHUNK_CHARS = 1 << 18  # characters per read of a file's check
# A smaller file is read whole and parsed from its text, and not cached:
# np.loadtxt reads text line by line, slower than a path, but a path's first
# read imports gzip and more, and a parse is quicker than a hit.
_TEXT_READ_BYTES = 1 << 16
_COMPRESSED = (".gz", ".bz2", ".xz", ".lzma")  # the suffixes np.loadtxt decompresses


def _text_or_path(source):
    """``(source, state)`` for a path that np.loadtxt reads in place, with the
    file's `_file_state`; ``(text, None)`` for any other input.  A path is
    read in place only if it names a regular file of at least
    _TEXT_READ_BYTES bytes without a compressed suffix: np.loadtxt
    decompresses a path by its suffix, and a pipe (``--input <(zcat
    ticks.csv.gz)``) can be read only once, while a path read in place is
    opened for the check of `_read_rows` and again by np.loadtxt."""
    if isinstance(source, os.PathLike) and Path(source).suffix not in _COMPRESSED:
        state = _file_state(source)
        if state is not None and state[2] >= _TEXT_READ_BYTES:  # state[2]: the size
            return source, state
    return _read_text(source), None


def _chunks(source):
    """The text of ``source``: a str whole, a path in reads of _CHUNK_CHARS
    with universal newlines, as np.loadtxt reads the path."""
    if isinstance(source, str):
        yield source
        return
    with open(source, encoding="utf-8") as fh:
        while chunk := fh.read(_CHUNK_CHARS):
            yield chunk


def _load_rows(source, state, dtype, valid, header=None, **kwargs):
    """The columns of the rows of ``source`` as `_read_rows` reads them, or
    None when that read fails or ``valid(*columns)`` is false.

    The rows of a path read in place (``state`` is its `_file_state`) are
    cached in ``$XDG_CACHE_HOME/mfvol/parsed`` (default
    ``~/.cache/mfvol/parsed``), a folder that must belong to the current
    user and be closed to others.  An entry is named by `_content_key`: the
    file's bytes, how they are read and the code that reads them.  A hit is
    read neither by np.loadtxt nor by the check, whose bytes its key covers,
    but must pass ``valid`` as a read must; an entry that fails it or cannot
    be read is a miss.  Rows are stored only once they pass ``valid``, and
    only if the file was not written to meanwhile.
    """
    entry = None
    if state is not None:
        folder = _cache_dir()
        if folder is not None and _private(folder):
            try:
                key = _content_key(source, repr((dtype.descr, header, kwargs)))
                entry = folder / f"{key}.npy"
            except OSError:  # the read reports an unreadable file
                pass
    if entry is not None:
        rows = _read_entry(entry, dtype)
        if rows is not None and valid(*(columns := _columns(rows))):
            try:
                os.utime(entry)  # the pruning order is the order of use
            except OSError:
                pass
            return columns
    rows = _read_rows(source, dtype, header, **kwargs)
    if rows is None or not valid(*(columns := _columns(rows))):
        return None
    if entry is not None and _file_state(source) == state:  # not written to meanwhile
        _write_entry(entry, rows)
    return columns


def _columns(rows):
    """The fields of ``rows``, each 8 bytes wide, as contiguous arrays: one
    transposed copy of the whole table is quicker than a copy per field."""
    table = rows.view(np.int64).reshape(-1, len(rows.dtype)).T.copy()
    return [column.view(rows.dtype[k]) for k, column in enumerate(table)]


def _read_rows(source, dtype, header, **kwargs):
    """All rows of ``source`` from one np.loadtxt call, or None when it fails.

    ``source`` is text, or a path that np.loadtxt reads in place, in chunks,
    so that no copy of the whole file is made.  None sends the caller to its
    line loop, which is the reference: it skips whitespace-only lines, reads
    ``1_000``, and names the line of an error.  Text that the two could read
    differently goes to the loop unread: text that is not ASCII or holds a
    character of _LOOP_ONLY or a lone CR.  So does a file that is not UTF-8:
    the loop reads it again and reports the error.  The first line is
    skipped when it starts with the word ``header`` (in any case).
    """
    try:
        skip = 0
        for i, chunk in enumerate(_chunks(source)):
            if not chunk.isascii() or any(c in chunk for c in _LOOP_ONLY) or (
                "\r" in chunk and chunk.count("\r") != chunk.count("\r\n")
            ):
                return None
            if i == 0 and header is not None:
                skip = int(chunk[:len(header)].lower() == header)
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
    ``source`` is a path (``os.PathLike``), or text, bytes or a file object;
    a ``str`` is CSV text, never a file name.  The input is read as one
    array, which is cached for a path of _TEXT_READ_BYTES or more (see
    `_load_rows`); input that fails that read or its checks is parsed line
    by line, which raises naming the offending line.
    """
    source, state = _text_or_path(source)
    columns = _load_rows(source, state, _TICK_ROW, lambda t, p, a: (
        np.isfinite(p).all() and (p > 0.0).all() and (a >= 0.0).all()))
    if columns is not None:
        return _tick_series(*columns)
    return _parse_tick_lines(_read_text(source))


TICK_CACHE_ENTRIES = 4  # parsed files the cache keeps, the most recently used
TICK_CACHE_BYTES = 1 << 29  # and the most bytes those entries may hold together
_HASH_BYTES = 1 << 20


def _cache_dir():
    base = os.environ.get("XDG_CACHE_HOME", "")
    if not os.path.isabs(base):  # the XDG spec ignores a relative path
        home = os.environ.get("HOME")
        if not home:
            return None
        base = os.path.join(home, ".cache")
    return Path(base, "mfvol", "parsed")


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
    """What a write to the file changes; None when ``path`` is not a regular
    file or cannot be read."""
    try:
        st = os.stat(path)
    except OSError:
        return None
    if not stat.S_ISREG(st.st_mode):
        return None
    return st.st_dev, st.st_ino, st.st_size, st.st_mtime_ns, st.st_ctime_ns


def _content_key(path, how):
    """Hex SHA-256 of what a read depends on: the mfvol, NumPy and Python
    versions, this module's bytes, ``how`` the file is read (a str) and the
    file's bytes, read in blocks."""
    import hashlib

    import mfvol  # imported in full by the time a file is read

    digest = hashlib.sha256(b"\0".join([mfvol.__version__.encode(), np.__version__.encode(),
                                        sys.version.encode(), Path(__file__).read_bytes(),
                                        how.encode(), b""]))
    with open(path, "rb") as fh:
        while block := fh.read(_HASH_BYTES):
            digest.update(block)
    return digest.hexdigest()


def _read_entry(entry, dtype):
    """The rows a cache entry holds; None when it is missing, cannot be read,
    or is not a 1-D array of ``dtype``."""
    try:
        with open(entry, "rb") as fh:
            rows = np.lib.format.read_array(fh, allow_pickle=False)
    except (OSError, ValueError):
        return None
    return rows if rows.dtype == dtype and rows.ndim == 1 else None


def _write_entry(entry, rows):
    """Store ``rows`` as ``entry``, then keep only the TICK_CACHE_ENTRIES
    most recently used entries of its folder that fit in TICK_CACHE_BYTES.
    The entry appears whole or not at all; rows larger than the bound are
    not stored, and a cache that cannot be written is left as it is."""
    if rows.nbytes > TICK_CACHE_BYTES:
        return
    folder = entry.parent
    try:
        folder.mkdir(mode=0o700, parents=True, exist_ok=True)
        if not _private(folder):
            return
        fd, tmp = tempfile.mkstemp(suffix=".tmp", dir=folder)
        try:
            with os.fdopen(fd, "wb") as fh:
                np.lib.format.write_array(fh, rows, allow_pickle=False)
            os.replace(tmp, entry)
        finally:
            if os.path.exists(tmp):
                os.unlink(tmp)
        kept = total = 0
        for old in sorted(folder.glob("*.npy"), key=lambda e: -e.stat().st_mtime_ns):
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
    for lineno, raw in enumerate(text.splitlines(), start=1):
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
            raise TickParseError(lineno, f"nonpositive or non-finite price {parts[1]}")
        if a < 0.0:
            raise TickParseError(lineno, f"negative amount {parts[2]}")
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

    A malformed row, a non-finite value or a timestamp that does not exceed
    the one before raises ValueError naming its 1-based line number.  As in
    `parse_ticks`, ``source`` may be a path, text (a ``str``, never a file
    name), bytes or a file object, the input is read as one array, cached
    for a large path, and only input that fails that read or its check is
    read line by line.
    """
    source, state = _text_or_path(source)
    # a header anywhere but on line 1 fails the array read and goes to the loop
    columns = _load_rows(source, state, _RETURN_ROW,
                         lambda t, v: np.isfinite(v).all() and (t[1:] > t[:-1]).all(),
                         header="timestamp", usecols=(0, 1))
    if columns is not None:
        return _return_series(*columns)
    return _read_return_lines(_read_text(source))


def _read_return_lines(text) -> ReturnSeries:
    """`read_returns_csv` one line at a time: the reference, and its error report."""
    times, values = [], []
    lines = [(i, ln) for i, ln in enumerate(text.splitlines(), start=1) if ln.strip()]
    if lines and lines[0][1].lower().startswith("timestamp"):
        lines = lines[1:]
    for lineno, ln in lines:
        parts = ln.split(",")
        if len(parts) < 2:
            raise ValueError(f"line {lineno}: expected at least 2 fields, got {len(parts)}")
        try:
            t, v = int(parts[0]), float(parts[1])
        except ValueError as exc:
            raise ValueError(f"line {lineno}: {exc}") from None
        if t not in _INT64_RANGE:
            raise ValueError(f"line {lineno}: timestamp {parts[0]} outside the int64 range")
        if not math.isfinite(v):
            raise ValueError(f"line {lineno}: non-finite return {parts[1]}")
        if times and t <= times[-1]:
            raise ValueError(f"line {lineno}: timestamp {t} does not exceed "
                             f"the one before, {times[-1]}")
        times.append(t)
        values.append(v)
    return _return_series(times, values)


def _return_series(times, values) -> ReturnSeries:
    times = np.ascontiguousarray(times, dtype=np.int64)
    delta_t = None
    if len(times) > 1:
        step = int(np.min(np.diff(times)))
        if step % 60 == 0:
            delta_t = step // 60
    return ReturnSeries(delta_t or 1, times, np.ascontiguousarray(values, dtype=np.float64))
