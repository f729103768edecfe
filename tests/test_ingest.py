import math
import os
import sys
import tracemalloc
import warnings
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import mfvol
from mfvol import ingest


class TestParseTicks:
    def test_empty_input(self):
        ticks = ingest.parse_ticks("")
        assert len(ticks) == 0

    def test_single_line(self):
        ticks = ingest.parse_ticks("1315922016,5.8,1.0\n")
        assert len(ticks) == 1
        assert ticks.timestamps[0] == 1315922016
        assert ticks.prices[0] == 5.8
        assert ticks.amounts[0] == 1.0

    def test_malformed_field(self):
        with pytest.raises(ingest.TickParseError) as exc:
            ingest.parse_ticks("1315922016,abc,1.0\n")
        assert exc.value.line_number == 1

    def test_malformed_line_number(self):
        with pytest.raises(ingest.TickParseError) as exc:
            ingest.parse_ticks("1,2.0,1.0\n2,3.0\n")
        assert exc.value.line_number == 2

    def test_nonpositive_price(self):
        with pytest.raises(ValueError):
            ingest.parse_ticks("1315922016,-5.8,1.0\n")
        with pytest.raises(ValueError):
            ingest.parse_ticks("1315922016,0,1.0\n")

    def test_negative_amount_names_its_line(self):
        with pytest.raises(ValueError, match="^line 2: negative amount -1.0$"):
            ingest.parse_ticks("1,2.0,1.0\n2,3.0,-1.0\n")

    def test_out_of_order_input_is_sorted(self):
        ticks = ingest.parse_ticks("20,2.0,1.0\n10,1.0,1.0\n")
        assert list(ticks.timestamps) == [10, 20]
        assert list(ticks.prices) == [1.0, 2.0]

    def test_order_of_the_extreme_timestamps(self):
        # their difference wraps around in int64 arithmetic
        ticks = ingest.parse_ticks("9223372036854775807,2.0,1.0\n"
                                   "-9223372036854775808,1.0,1.0\n")
        assert list(ticks.timestamps) == [-2**63, 2**63 - 1]
        assert list(ticks.prices) == [1.0, 2.0]

    def test_blank_lines_skipped(self):
        ticks = ingest.parse_ticks("1,2.0,1.0\n\n2,3.0,1.0\n")
        assert len(ticks) == 2

    def test_whitespace_only_lines_skipped(self):
        ticks = ingest.parse_ticks("1,2.0,1.0\n  \t\n2,3.0,1.0\r\n \r\n")
        assert list(ticks.timestamps) == [1, 2]
        assert list(ticks.prices) == [2.0, 3.0]

    def test_empty_input_warns_nothing(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            ticks = ingest.parse_ticks("")
        assert len(ticks) == 0
        assert ticks.timestamps.dtype == np.int64
        # np.loadtxt warns on empty input; the warning must not leave parse_ticks
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            ingest.parse_ticks("")
            ingest.read_returns_csv("timestamp,value,flag\n")
        assert caught == []

    def test_timestamp_beyond_int64_names_its_line(self):
        with pytest.raises(ingest.TickParseError, match="int64") as exc:
            ingest.parse_ticks("1,1.0,1.0\n99999999999999999999,1.0,1.0\n")
        assert exc.value.line_number == 2


class TestResampleLast:
    def test_two_bars_each_with_tick(self):
        # ticks at t=0 (10) and t=90min (12), dt=60: bar 1 covers [60,120)
        ticks = ingest.parse_ticks("0,10,1\n5400,12,1\n")
        prices = ingest.resample_last(ticks, 60)
        assert list(prices.prices) == [10.0, 12.0]

    def test_gap_filled_middle_bar(self):
        ticks = ingest.parse_ticks("0,10,1\n9000,12,1\n")  # t=150min
        prices = ingest.resample_last(ticks, 60)
        assert list(prices.prices) == [10.0, 10.0, 12.0]

    def test_3day_fixture_brute_force(self, ticks_3day_path):
        with open(ticks_3day_path) as fh:
            ticks = ingest.parse_ticks(fh)
        prices = ingest.resample_last(ticks, 1440)
        assert len(prices) == 3
        # independent oracle: scan every tick for the last trade per day
        day = 86400
        for i in range(3):
            in_day = [
                p for t, p in zip(ticks.timestamps, ticks.prices)
                if i * day <= t < (i + 1) * day
            ]
            assert prices.prices[i] == in_day[-1]

    def test_empty_ticks_error(self):
        with pytest.raises(ValueError):
            ingest.resample_last(ingest.parse_ticks(""), 60)

    @pytest.mark.parametrize("delta_t", [0, -60])
    def test_period_below_one_minute(self, delta_t):
        ticks = ingest.parse_ticks("0,10,1\n5400,12,1\n")
        with pytest.raises(ValueError, match="delta_t_minutes must be >= 1"):
            ingest.resample_last(ticks, delta_t)

    def test_duplicate_timestamp_last_wins(self):
        ticks = ingest.parse_ticks("10,5,1\n10,6,1\n")
        prices = ingest.resample_last(ticks, 1)
        assert prices.prices[0] == 6.0


class TestLogReturns:
    def test_unchanged_price(self):
        series = ingest.PriceSeries(60, 0, np.array([100.0, 100.0]))
        r = ingest.log_returns(series)
        assert list(r.values) == [0.0]

    def test_closed_form(self):
        series = ingest.PriceSeries(60, 0, np.array([100.0, 100.0 * math.e**0.02]))
        r = ingest.log_returns(series)
        assert r.values[0] == pytest.approx(2.0, rel=1e-14)

    def test_telescoping(self):
        series = ingest.PriceSeries(60, 0, np.array([100.0, 50.0, 100.0]))
        r = ingest.log_returns(series)
        assert r.values[0] == pytest.approx(-100.0 * math.log(2), rel=1e-12)
        assert r.values[1] == pytest.approx(100.0 * math.log(2), rel=1e-12)
        assert r.values.sum() == pytest.approx(0.0, abs=1e-12)

    def test_too_short(self):
        series = ingest.PriceSeries(60, 0, np.array([100.0]))
        with pytest.raises(ValueError):
            ingest.log_returns(series)


class TestFilterOutliers:
    def setup_method(self):
        self.returns = ingest.ReturnSeries(
            1440, np.array([1, 2, 3], dtype=np.int64),
            np.array([1.0, 45.0, -45.0]),
        )

    def test_positive_only(self):
        out = ingest.filter_outliers(self.returns, 40.0, "positive-only")
        assert list(out.values) == [1.0, -45.0]
        assert out.removed_outliers == [(2, 45.0)]

    def test_symmetric(self):
        out = ingest.filter_outliers(self.returns, 40.0, "symmetric")
        assert list(out.values) == [1.0]
        assert len(out.removed_outliers) == 2

    def test_nothing_exceeds(self):
        r = ingest.ReturnSeries(1440, np.array([1, 2, 3], dtype=np.int64),
                                np.array([1.0, 2.0, 3.0]))
        for mode in ("positive-only", "symmetric"):
            out = ingest.filter_outliers(r, 40.0, mode)
            assert list(out.values) == [1.0, 2.0, 3.0]
            assert out.removed_outliers == []

    def test_unknown_mode(self):
        with pytest.raises(ValueError, match="unknown outlier mode 'none'"):
            ingest.filter_outliers(self.returns, 40.0, "none")

    def test_bad_threshold(self):
        for threshold in (-1.0, 0.0, math.nan):
            with pytest.raises(ValueError):
                ingest.filter_outliers(self.returns, threshold)


class TestProperties:
    def test_resample_return_sum_telescopes(self):
        rng = np.random.default_rng(7)
        n = 200
        ts = np.arange(n) * 3600  # one tick per hour, gap-free at dt=60
        prices = 100.0 * np.exp(np.cumsum(rng.normal(0, 0.01, n)))
        lines = "\n".join(f"{t},{float(p)!r},1.0" for t, p in zip(ts, prices))
        ticks = ingest.parse_ticks(lines)
        r = ingest.log_returns(ingest.resample_last(ticks, 60))
        expected = 100.0 * (math.log(prices[-1]) - math.log(prices[0]))
        assert r.values.sum() == pytest.approx(expected, rel=1e-9)

    def test_gap_bars_give_zero_returns(self):
        ticks = ingest.parse_ticks("0,10,1\n18000,12,1\n")  # 5h gap at dt=60
        r = ingest.log_returns(ingest.resample_last(ticks, 60))
        assert np.all(r.values[:-1] == 0.0)
        assert r.values[-1] != 0.0


class TestSerialization:
    def test_returns_csv_roundtrip(self):
        r = ingest.ReturnSeries(1440, np.array([86400, 172800], dtype=np.int64),
                                np.array([1.5, -2.25]))
        back = ingest.read_returns_csv(ingest.returns_to_csv(r))
        assert np.array_equal(back.times, r.times)
        assert np.array_equal(back.values, r.values)
        assert back.delta_t_minutes == 1440

    @pytest.mark.parametrize("bad", ["nan", "inf", "-Infinity"])
    def test_read_returns_rejects_non_finite_with_line(self, bad):
        text = f"timestamp,value,flag\n86400,1.5,ok\n\n172800,{bad},ok\n"
        with pytest.raises(ValueError, match="line 4: non-finite"):
            ingest.read_returns_csv(text)

    def test_read_returns_timestamp_beyond_int64_names_its_line(self):
        with pytest.raises(ValueError, match="line 2: .*int64"):
            ingest.read_returns_csv("timestamp,value\n99999999999999999999,1.0\n")

    def test_read_returns_malformed_row_line(self):
        with pytest.raises(ValueError, match="line 3"):
            ingest.read_returns_csv("timestamp,value,flag\n86400,1.5,ok\n172800\n")

    def test_json_metadata(self):
        import json
        r = ingest.ReturnSeries(1440, np.array([86400], dtype=np.int64),
                                np.array([1.5]), removed_outliers=[(3, 44.0)])
        doc = json.loads(ingest.returns_to_json(r))
        # metadata only: the returns themselves are in the CSV
        assert set(doc) == {"delta_t_minutes", "n_returns", "removed_outliers"}
        assert doc["delta_t_minutes"] == 1440
        assert doc["n_returns"] == 1
        assert doc["removed_outliers"] == [{"timestamp": 3, "value": 44.0}]


def _outcome(parse, text):
    """What a parser makes of ``text``: its arrays, or its error."""
    try:
        result = parse(text)
    except ValueError as exc:
        return type(exc), getattr(exc, "line_number", None), str(exc)
    if isinstance(result, ingest.TickSeries):
        fields = (result.timestamps, result.prices, result.amounts)
        flags = ()
    else:
        fields = (result.times, result.values)
        flags = (result.delta_t_minutes,)
    return flags + tuple((a.dtype.str, a.tobytes()) for a in fields)


def _numeral(strategy):
    """Plain, exponent and +-signed spellings of the drawn numbers."""
    return st.tuples(strategy, st.sampled_from(["{!r}", "{:.6e}", "+{}", " {} "])).map(
        lambda drawn: drawn[1].format(drawn[0]))


_TIMES = st.integers(0, 10**10).map(str)
_PRICES = _numeral(st.floats(1e-3, 1e6))
_AMOUNTS = _numeral(st.floats(0.0, 1e3))
_RETURNS = _numeral(st.floats(-1e3, 1e3))
_ODD_NUMERALS = st.sampled_from(
    ["1_000", "1_0.5", "nan", "-inf", "inf", "0", "-0.0", "-3", "1.0", "1e400", "x", "",
     "9223372036854775807", "9223372036854775808", "-9223372036854775809"])
_ODD_LINES = st.one_of(
    st.sampled_from(["", " ", "\t", "  \t "]),
    st.lists(st.one_of(_TIMES, _PRICES, _ODD_NUMERALS), min_size=2, max_size=4).map(",".join),
)
_EOL = st.sampled_from(["\n", "\r\n"])
_FILE_EOL = st.sampled_from(["\n", "\r\n", "\r"])  # a text-mode read turns all to LF


def _text(valid_row, eol=_EOL):
    """Text of valid rows with up to two odd lines put in, each ended by ``eol``."""
    @st.composite
    def text(draw):
        lines = draw(st.lists(valid_row, max_size=12))
        for _ in range(draw(st.integers(0, 2))):
            lines.insert(draw(st.integers(0, len(lines))), draw(_ODD_LINES))
        return "".join(line + draw(eol) for line in lines)

    return text()


class TestFastPathMatchesLineLoop:
    """The one-array read answers exactly as the line loop it short-cuts."""

    @given(_text(st.tuples(_TIMES, _PRICES, _AMOUNTS).map(",".join)))
    @settings(derandomize=True, max_examples=300, deadline=None)
    def test_parse_ticks(self, text):
        assert _outcome(ingest.parse_ticks, text) == _outcome(ingest._parse_tick_lines, text)

    @given(_text(st.one_of(st.tuples(_TIMES, _RETURNS),
                           st.tuples(_TIMES, _RETURNS, st.just("ok"))).map(",".join)),
           st.sampled_from(["", "timestamp,value,flag\n", "Timestamp,value\r\n", "\n", "x,y\n"]))
    @settings(derandomize=True, max_examples=300, deadline=None)
    def test_read_returns_csv(self, body, header):
        text = header + body
        assert (_outcome(ingest.read_returns_csv, text)
                == _outcome(ingest._read_return_lines, text))

    @pytest.mark.parametrize("text", ["60,1.5,ok\x0c120,2.5,ok\n", "60,1.5,x\u2028120,2.5\n",
                                      "timestamp,value\r60,1.5\r120,2.5\n180,3.5\n"])
    def test_returns_line_breaks_loadtxt_does_not_split(self, text):
        # str.splitlines breaks lines at a lone CR, a form feed, U+2028, ...
        assert (_outcome(ingest.read_returns_csv, text)
                == _outcome(ingest._read_return_lines, text))
        assert len(ingest.read_returns_csv(text)) >= 2

    @pytest.mark.parametrize("text", ["1,2.0,1.0\r2,3.0,1.0\n", "1,2.0,1.0\r\r\n"])
    def test_ticks_lone_carriage_return(self, text):
        assert _outcome(ingest.parse_ticks, text) == _outcome(ingest._parse_tick_lines, text)


class TestPathMatchesLineLoop:
    """A path is read in place and answers exactly as the line loop run on the
    file's text as a text-mode read gives it (every CR and CRLF made LF)."""

    @pytest.fixture(scope="class")
    def file(self, tmp_path_factory):
        return tmp_path_factory.mktemp("path_route") / "input.csv"

    @staticmethod
    def outcomes(parse, loop, file, text, chunk_chars):
        file.write_text(text, encoding="utf-8", newline="")
        with mock.patch.object(ingest, "_CHUNK_CHARS", chunk_chars):
            return _outcome(parse, file), _outcome(loop, file.read_text(encoding="utf-8"))

    # 16 characters a read puts most files' line-break check across chunks
    @given(_text(st.tuples(_TIMES, _PRICES, _AMOUNTS).map(",".join), _FILE_EOL),
           st.sampled_from([16, ingest._CHUNK_CHARS]))
    @settings(derandomize=True, max_examples=200, deadline=None)
    def test_parse_ticks(self, file, text, chunk_chars):
        fast, loop = self.outcomes(ingest.parse_ticks, ingest._parse_tick_lines, file, text,
                                   chunk_chars)
        assert fast == loop

    @given(_text(st.one_of(st.tuples(_TIMES, _RETURNS),
                           st.tuples(_TIMES, _RETURNS, st.just("ok"))).map(",".join), _FILE_EOL),
           st.sampled_from(["", "timestamp,value,flag\n", "Timestamp,value\r\n", "TIMESTAMP\r",
                            "\n", "x,y\n"]),
           st.sampled_from([16, ingest._CHUNK_CHARS]))
    @settings(derandomize=True, max_examples=200, deadline=None)
    def test_read_returns_csv(self, file, body, header, chunk_chars):
        fast, loop = self.outcomes(ingest.read_returns_csv, ingest._read_return_lines, file,
                                   header + body, chunk_chars)
        assert fast == loop

    @pytest.mark.parametrize("text", ["1,2.0,1.0\x0c2,3.0,1.0\n", "1,2.0,1.0\u20282,3.0,1.0\n",
                                      "60,1.5,ok\x0c120,2.5,ok\n", "60,1.5,x\u2028120,2.5\n",
                                      "60,1.5\r\n" * 3 + "60,1.5,ok\x0b120,2.5,ok\n"])
    def test_form_feed_and_line_separator(self, file, text):
        # the line loops split lines at these; np.loadtxt reads them as field characters
        for parse, loop in ((ingest.parse_ticks, ingest._parse_tick_lines),
                            (ingest.read_returns_csv, ingest._read_return_lines)):
            for chunk_chars in (16, ingest._CHUNK_CHARS):
                fast, reference = self.outcomes(parse, loop, file, text, chunk_chars)
                assert fast == reference

    def test_text_file_with_a_compressed_suffix(self, tmp_path):
        # np.loadtxt would decompress a path by its suffix; the file is read as text
        path = tmp_path / "ticks.csv.gz"
        path.write_text("1,2.0,1.0\n2,3.0,1.0\n")
        assert list(ingest.parse_ticks(path).prices) == [2.0, 3.0]

    def test_file_not_utf8(self, file):
        file.write_bytes(b"1,2.0,1.0\n2,\xff,1.0\n")
        with pytest.raises(UnicodeDecodeError):
            ingest.parse_ticks(file)


def _tick_file(path, n, seed):
    """``n`` ticks at full precision, written to ``path``; their arrays."""
    rng = np.random.default_rng(seed)
    times = 1_400_000_000 + np.cumsum(rng.integers(0, 30, n))
    prices = 500.0 * np.exp(np.cumsum(rng.normal(0.0, 1e-3, n)))
    amounts = rng.exponential(0.5, n)
    path.write_text("".join(f"{t},{p!r},{a!r}\n" for t, p, a in
                            zip(times.tolist(), prices.tolist(), amounts.tolist())))
    return times, prices, amounts


class TestValidInputSkipsLineLoop:
    @pytest.fixture
    def no_line_loop(self, monkeypatch):
        def refuse(text):
            raise AssertionError("valid input reached the line loop")

        monkeypatch.setattr(ingest, "_parse_tick_lines", refuse)
        monkeypatch.setattr(ingest, "_read_return_lines", refuse)

    def test_tick_file(self, no_line_loop, tmp_path):
        path = tmp_path / "ticks.csv"
        times, prices, amounts = _tick_file(path, 10_000, seed=3)
        with open(path) as fh:
            from_file = ingest.parse_ticks(fh)
        for ticks in (from_file, ingest.parse_ticks(path)):
            assert np.array_equal(ticks.timestamps, times)
            assert np.array_equal(ticks.prices, prices)
            assert np.array_equal(ticks.amounts, amounts)

    def test_returns_csv(self, no_line_loop, tmp_path):
        times = 300 * np.arange(1, 1001, dtype=np.int64)
        values = np.random.default_rng(4).standard_t(3, 1000)
        text = ingest.returns_to_csv(ingest.ReturnSeries(5, times, values))
        path = tmp_path / "returns.csv"
        path.write_text(text.replace("\n", "\r\n"), newline="")
        for back in (ingest.read_returns_csv(text.encode()), ingest.read_returns_csv(path)):
            assert back.delta_t_minutes == 5
            assert np.array_equal(back.times, times)
            assert np.array_equal(back.values, values)


class TestPathReadMemory:
    """A path is read in place: the peak is about the result arrays, where a
    whole-text read holds the text and its io.StringIO copy (≈ 5x the file)."""

    @staticmethod
    def peak(read, path):
        tracemalloc.start()
        try:
            return read(path), tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def test_tick_file(self, tmp_path):
        path = tmp_path / "ticks.csv"
        _tick_file(path, 45_000, seed=5)  # ≈ 2 MB
        ticks, peak = self.peak(ingest.parse_ticks, path)
        assert len(ticks) == 45_000
        assert peak < 1.5 * path.stat().st_size

    def test_returns_file(self, tmp_path):
        n = 60_000
        values = np.random.default_rng(6).standard_t(3, n)
        path = tmp_path / "returns.csv"  # ≈ 2 MB
        path.write_text(ingest.returns_to_csv(
            ingest.ReturnSeries(5, 300 * np.arange(1, n + 1, dtype=np.int64), values)))
        returns, peak = self.peak(ingest.read_returns_csv, path)
        assert np.array_equal(returns.values, values)
        assert peak < 1.5 * path.stat().st_size


class TestCsvTable:
    """The chunked formatter writes what one format(v, ".17g") a cell writes."""

    ODD = [-0.0, 0.0, 5e-324, -2.2250738585072014e-308 / 3, 1.7e308, -1.7e308, math.nan,
           math.inf, -math.inf, 0.1, 1 / 3, 1e16, 123456789.0, -1.5]

    @pytest.mark.parametrize("extra", [-1, 0, 1])
    def test_matches_per_row_format(self, extra):
        n = ingest._ROWS_PER_CALL + extra
        ints = np.arange(-3, n - 3, dtype=np.int64) * 10**12
        floats = np.resize(np.array(self.ODD), n)
        text = ingest.csv_table("t,a,b", "%d,%.17g,%.17g", [ints, floats, floats[::-1]])
        rows = [f"{t},{format(a, '.17g')},{format(b, '.17g')}" for t, a, b in
                zip(ints.tolist(), floats.tolist(), floats[::-1].tolist())]
        assert text == "\n".join(["t,a,b", *rows]) + "\n"

    def test_empty_table_is_its_header(self):
        assert ingest.csv_table("q,h", "%.17g,%.17g", [np.array([]), []]) == "q,h\n"


class TestPipeInput:
    """A path that is not a regular file, such as ``<(zcat ticks.csv.gz)``, is
    read once; a second open of a pipe would wait for a writer for ever."""

    def test_parse_ticks(self, tmp_path, read_fifo):
        path = tmp_path / "ticks.csv"
        _tick_file(path, 20_000, seed=3)  # > 64 KiB: the writer waits on the reader
        got = read_fifo(path.read_text(), ingest.parse_ticks)
        TestTickCache.assert_same(got, ingest.parse_ticks(path))

    def test_read_returns_csv(self, read_fifo):
        text = "timestamp,value,flag\n" + "".join(
            f"{86400 * i},{v!r},ok\n"
            for i, v in enumerate(np.random.default_rng(4).standard_normal(5_000).tolist()))
        got = read_fifo(text, ingest.read_returns_csv)
        want = ingest.read_returns_csv(text)
        assert np.array_equal(got.times, want.times) and np.array_equal(got.values, want.values)
        assert got.delta_t_minutes == want.delta_t_minutes == 1440


class TestTickCache:
    """`load_ticks`: `parse_ticks` behind a cache keyed by the file's contents."""

    @pytest.fixture
    def entries(self, tick_cache_home):
        folder = tick_cache_home / "mfvol" / "ticks"
        return lambda: sorted(folder.glob("*")) if folder.exists() else []

    @staticmethod
    def assert_same(got, want):
        for name in ("timestamps", "prices", "amounts"):
            a, b = getattr(got, name), getattr(want, name)
            assert a.dtype == b.dtype and np.array_equal(a, b)

    @pytest.mark.parametrize("shuffle", [False, True])
    def test_hit_is_the_parse_bit_for_bit(self, tmp_path, entries, monkeypatch, shuffle):
        path = tmp_path / "ticks.csv"
        _tick_file(path, 2_000, seed=7)
        if shuffle:  # out of order: the entry holds the sorted arrays
            lines = path.read_text().splitlines(keepends=True)
            np.random.default_rng(1).shuffle(lines)
            path.write_text("".join(lines))
        in_file = [int(line.split(",")[0]) for line in path.read_text().splitlines()]
        assert (in_file != sorted(in_file)) is shuffle
        want = ingest.parse_ticks(path)
        self.assert_same(ingest.load_ticks(path), want)
        assert len(entries()) == 1
        monkeypatch.setattr(ingest, "parse_ticks", None)  # a hit parses nothing
        self.assert_same(ingest.load_ticks(str(path)), want)

    def test_pipe_is_parsed_and_not_cached(self, tmp_path, entries, read_fifo):
        path = tmp_path / "ticks.csv"
        _tick_file(path, 20_000, seed=5)
        got = read_fifo(path.read_text(), ingest.load_ticks)
        self.assert_same(got, ingest.parse_ticks(path))
        assert entries() == []

    def test_edited_file_of_the_same_size_and_mtime_misses(self, tmp_path, entries):
        path = tmp_path / "ticks.csv"
        path.write_text("1,10.5,1\n2,11.5,1\n")
        stat = path.stat()
        assert ingest.load_ticks(path).prices.tolist() == [10.5, 11.5]
        path.write_text("1,10.5,1\n2,12.5,1\n")
        os.utime(path, ns=(stat.st_atime_ns, stat.st_mtime_ns))
        assert path.stat().st_size == stat.st_size
        assert ingest.load_ticks(path).prices.tolist() == [10.5, 12.5]
        assert len(entries()) == 2

    @pytest.mark.parametrize("change", ["mfvol_version", "numpy_version", "python_version",
                                        "module_bytes"])
    def test_other_parsing_code_misses(self, tmp_path, entries, monkeypatch, change):
        path = tmp_path / "ticks.csv"
        path.write_text("1,10.5,1\n")
        ingest.load_ticks(path)
        if change == "mfvol_version":
            monkeypatch.setattr(mfvol, "__version__", mfvol.__version__ + ".post1")
        elif change == "numpy_version":
            monkeypatch.setattr(np, "__version__", np.__version__ + ".post1")
        elif change == "python_version":
            monkeypatch.setattr(sys, "version", sys.version + "+")
        else:  # an edited ingest.py of the same release
            edited = tmp_path / "ingest.py"
            edited.write_bytes(Path(ingest.__file__).read_bytes() + b"\n")
            monkeypatch.setattr(ingest, "__file__", str(edited))
        ingest.load_ticks(path)
        assert len(entries()) == 2

    def test_file_written_while_parsed_is_not_cached(self, tmp_path, entries, monkeypatch):
        path = tmp_path / "ticks.csv"
        path.write_text("1,10.5,1\n")
        parse = ingest.parse_ticks

        def parse_then_edit(source):
            ticks = parse(source)
            path.write_text("1,12.5,1\n")
            return ticks

        monkeypatch.setattr(ingest, "parse_ticks", parse_then_edit)
        assert ingest.load_ticks(path).prices.tolist() == [10.5]
        assert entries() == []

    @pytest.mark.parametrize("damage", ["truncated", "garbage", "npy", "price", "dtype",
                                        "order", "missing"])
    def test_bad_entry_is_parsed_again_and_rewritten(self, tmp_path, entries, damage):
        path = tmp_path / "ticks.csv"
        _tick_file(path, 500, seed=8)
        want = ingest.parse_ticks(path)
        ingest.load_ticks(path)
        (entry,) = entries()
        arrays = {"t": want.timestamps, "p": want.prices, "a": want.amounts}
        if damage == "truncated":
            entry.write_bytes(entry.read_bytes()[:len(entry.read_bytes()) // 2])
        elif damage == "garbage":
            entry.write_bytes(b"not a cache entry")
        elif damage == "npy":
            with open(entry, "wb") as fh:
                np.save(fh, want.prices)
        else:
            if damage == "price":
                arrays["p"] = np.where(np.arange(500) == 9, -1.0, want.prices)
            elif damage == "dtype":
                arrays["t"] = want.timestamps.astype(np.float64)
            elif damage == "order":
                arrays["t"] = want.timestamps[::-1].copy()
            else:
                del arrays["a"]
            with open(entry, "wb") as fh:
                np.savez(fh, **arrays)
        self.assert_same(ingest.load_ticks(path), want)
        assert entries() == [entry]
        self.assert_same(ingest._read_entry(entry), want)

    @pytest.mark.parametrize("where", ["file_as_cache_home", "file_as_cache_dir",
                                       "no_home"])
    def test_unusable_cache_still_parses(self, tmp_path, tick_cache_home, monkeypatch,
                                         where):
        if where == "file_as_cache_home":
            monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "file"))
            (tmp_path / "file").write_text("")
        elif where == "file_as_cache_dir":
            (tick_cache_home / "mfvol").mkdir()
            (tick_cache_home / "mfvol" / "ticks").write_text("")
        else:
            monkeypatch.delenv("XDG_CACHE_HOME")
            monkeypatch.delenv("HOME", raising=False)
            assert ingest._tick_cache_dir() is None
        path = tmp_path / "ticks.csv"
        _tick_file(path, 200, seed=9)
        for _ in range(2):
            self.assert_same(ingest.load_ticks(path), ingest.parse_ticks(path))

    @pytest.mark.parametrize("flaw", ["group_writable", "world_readable", "other_owner"])
    def test_folder_open_to_others_is_not_used(self, tmp_path, tick_cache_home, entries,
                                               monkeypatch, flaw):
        path = tmp_path / "ticks.csv"
        _tick_file(path, 200, seed=9)
        want = ingest.load_ticks(path)
        (entry,) = entries()
        before = entry.stat().st_mtime_ns
        folder = entry.parent
        if flaw == "other_owner":
            uid = os.getuid()
            monkeypatch.setattr(os, "getuid", lambda: uid + 1)
        else:
            folder.chmod(0o720 if flaw == "group_writable" else 0o704)
        parses = []
        parse = ingest.parse_ticks
        monkeypatch.setattr(ingest, "parse_ticks", lambda src: parses.append(src) or parse(src))
        other = tmp_path / "other.csv"
        _tick_file(other, 100, seed=10)
        self.assert_same(ingest.load_ticks(path), want)
        ingest.load_ticks(other)
        assert parses == [path, other]  # no entry is read, and none is written
        assert entries() == [entry] and entry.stat().st_mtime_ns == before

    def test_keeps_the_most_recently_used_entries(self, tmp_path, entries):
        paths = [tmp_path / f"ticks{k}.csv" for k in range(ingest.TICK_CACHE_ENTRIES + 2)]
        for k, path in enumerate(paths):
            path.write_text(f"{k},10.5,1\n")
        n = ingest.TICK_CACHE_ENTRIES
        for path in [*paths[:n], paths[0], *paths[n:]]:  # the hit on paths[0] is a use
            ingest.load_ticks(path)
        assert {e.name for e in entries()} == {
            ingest._content_key(p) + ".npz" for p in [paths[0], *paths[3:]]}

    def test_entries_fit_in_the_byte_bound(self, tmp_path, entries, monkeypatch):
        paths = [tmp_path / f"ticks{k}.csv" for k in range(3)]
        for k, (n, path) in enumerate(zip([100, 100, 300], paths)):
            _tick_file(path, n, seed=20 + k)
        monkeypatch.setattr(ingest, "TICK_CACHE_BYTES", 24 * 250)  # 250 ticks
        names = [ingest._content_key(path) + ".npz" for path in paths]
        ingest.load_ticks(paths[0])
        ingest.load_ticks(paths[2])  # 300 ticks: not stored, and nothing is dropped
        assert [e.name for e in entries()] == [names[0]]
        ingest.load_ticks(paths[1])  # two entries and their headers would not fit
        assert [e.name for e in entries()] == [names[1]]

    def test_malformed_file_raises_and_is_not_cached(self, tmp_path, entries):
        path = tmp_path / "ticks.csv"
        path.write_text("1,10.0,1\n2,11.0,1\n3,abc,1\n")
        for _ in range(2):
            with pytest.raises(ingest.TickParseError, match="line 3"):
                ingest.load_ticks(path)
        assert entries() == []

    def test_hit_memory_is_about_the_arrays(self, tmp_path):
        path = tmp_path / "ticks.csv"
        _tick_file(path, 45_000, seed=5)  # ≈ 2 MB
        ingest.load_ticks(path)
        ticks, peak = TestPathReadMemory.peak(ingest.load_ticks, path)
        assert len(ticks) == 45_000
        assert peak < 1.5 * path.stat().st_size
