import math
import os
import sys
import tracemalloc
import warnings
from collections.abc import Callable
from dataclasses import dataclass
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

    @pytest.mark.parametrize("line, message", [
        ("2,-5.0,1.0", "nonpositive or non-finite price -5.0"),
        ("2,3.0,-1.0", "negative amount -1.0"),
    ], ids=["price", "amount"])
    def test_every_bad_line_is_a_tick_parse_error(self, line, message):
        with pytest.raises(ingest.TickParseError, match=f"^line 2: {message}$") as exc:
            ingest.parse_ticks(f"1,2.0,1.0\n{line}\n")
        assert exc.value.line_number == 2

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

    @pytest.mark.parametrize("read", [ingest.parse_ticks, ingest.read_returns_csv],
                             ids=["ticks", "returns"])
    @pytest.mark.parametrize("source", [123, 1.5, None, ["86400,1.5"]],
                             ids=["int", "float", "none", "list"])
    def test_source_of_another_type_raises_type_error(self, read, source):
        with pytest.raises(TypeError, match="source must be a path, str, bytes"):
            read(source)

    def test_read_returns_timestamp_beyond_int64_names_its_line(self):
        with pytest.raises(ValueError, match="line 2: .*int64"):
            ingest.read_returns_csv("timestamp,value\n99999999999999999999,1.0\n")

    def test_read_returns_malformed_row_line(self):
        with pytest.raises(ValueError, match="^line 3: expected at least 2 fields, got 1$"):
            ingest.read_returns_csv("timestamp,value,flag\n86400,1.5,ok\n172800\n")

    @pytest.mark.parametrize("back", [0, 60], ids=["repeated", "decreasing"])
    @pytest.mark.parametrize("as_path", [False, True], ids=["text", "path"])
    def test_read_returns_rejects_timestamps_out_of_time_order(self, tmp_path, back,
                                                               as_path):
        n = 5_000  # a path of 64 KiB or more is read in place
        last = 60 * n
        text = ("timestamp,value,flag\n" + "".join(f"{60 * i},0.5,ok\n" for i in range(1, n + 1))
                + f"{last - back},0.5,ok\n")
        source = tmp_path / "r.csv" if as_path else text
        if as_path:
            source.write_text(text)
            assert source.stat().st_size >= ingest._TEXT_READ_BYTES
        message = f"^line {n + 2}: timestamp {last - back} does not exceed the one before, {last}$"
        for _ in range(2):  # nothing is cached for the second read to find
            with pytest.raises(ValueError, match=message):
                ingest.read_returns_csv(source)

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
     "9223372036854775807", "9223372036854775808", "-9223372036854775809",
     # np.loadtxt reads some of these as numbers; int() and float() none
     "1\x1f", "\x1f2.5", "3\u0906", "\u01fe4", "5.5\u0906"])
_ODD_LINES = st.one_of(
    st.sampled_from(["", " ", "\t", "  \t "]),
    st.lists(st.one_of(_TIMES, _PRICES, _ODD_NUMERALS), min_size=2, max_size=4).map(",".join),
)
_EOL = st.sampled_from(["\n", "\r\n"])
_FILE_EOL = st.sampled_from(["\n", "\r\n", "\r"])  # a text-mode read turns all to LF


@st.composite
def _return_rows(draw):
    """Up to 12 returns rows, some with a flag field, whose timestamps strictly
    increase, so that a text without odd lines passes the array read's check."""
    t = draw(st.integers(0, 10**10))
    rows = []
    for _ in range(draw(st.integers(0, 12))):
        t += draw(st.one_of(st.integers(1, 10**8), st.integers(1, 1440).map(lambda k: 60 * k)))
        rows.append(",".join([str(t), draw(_RETURNS)] + draw(st.sampled_from([[], ["ok"]]))))
    return rows


_TICK_ROWS = st.lists(st.tuples(_TIMES, _PRICES, _AMOUNTS).map(",".join), max_size=12)


def _text(valid_rows, eol=_EOL):
    """Text of drawn valid rows with up to two odd lines put in, each ended by ``eol``."""
    @st.composite
    def text(draw):
        lines = draw(valid_rows)
        for _ in range(draw(st.integers(0, 2))):
            lines.insert(draw(st.integers(0, len(lines))), draw(_ODD_LINES))
        return "".join(line + draw(eol) for line in lines)

    return text()


class TestFastPathMatchesLineLoop:
    """The one-array read answers exactly as the line loop it short-cuts."""

    @given(_text(_TICK_ROWS))
    @settings(derandomize=True, max_examples=300, deadline=None)
    def test_parse_ticks(self, text):
        assert _outcome(ingest.parse_ticks, text) == _outcome(ingest._parse_tick_lines, text)

    @given(_text(_return_rows()),
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
    @given(_text(_TICK_ROWS, _FILE_EOL),
           st.sampled_from([16, ingest._CHUNK_CHARS]))
    @settings(derandomize=True, max_examples=200, deadline=None)
    def test_parse_ticks(self, file, text, chunk_chars):
        fast, loop = self.outcomes(ingest.parse_ticks, ingest._parse_tick_lines, file, text,
                                   chunk_chars)
        assert fast == loop

    @given(_text(_return_rows(), _FILE_EOL),
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

    @pytest.mark.parametrize("text", ["1,2.0,1.0\r2,3.0,1.0\n", "1,2.0,1.0\x0c2,3.0,1.0\n",
                                      "1,2.0,1.0\u20282,3.0,1.0\n"],
                             ids=["cr", "form_feed", "u2028"])
    def test_ticks_text_breaks_lines_as_a_file_read(self, file, text):
        # a text-mode read makes a lone CR LF; str.splitlines breaks all three
        file.write_text(text, encoding="utf-8", newline="")
        assert _outcome(ingest.parse_ticks, text) == _outcome(ingest.parse_ticks, file)
        assert len(ingest.parse_ticks(text).timestamps) == 2

    @pytest.mark.parametrize("read", ["text", "small_file", "large_file"])
    @pytest.mark.parametrize("parse, loop, line, odd", [
        (ingest.parse_ticks, ingest._parse_tick_lines, 6, "1700000300\u0906,100.05,1.0"),
        (ingest.parse_ticks, ingest._parse_tick_lines, 6, "\u01fe1700000300,100.05,1.0"),
        (ingest.parse_ticks, ingest._parse_tick_lines, 6, "1700000300\x1f,100.05,1.0"),
        (ingest.parse_ticks, ingest._parse_tick_lines, 6, "1700000300,100.05\x1f,1.0"),
        (ingest.read_returns_csv, ingest._read_return_lines, 8, "604800,0.6\x1f,ok"),
        (ingest.read_returns_csv, ingest._read_return_lines, 8, "604800\u0906,0.6,ok"),
        (ingest.read_returns_csv, ingest._read_return_lines, 8, "\u01fe604800,0.6,ok"),
    ], ids=["ticks-u0906", "ticks-u01fe", "ticks-x1f-int", "ticks-x1f-float",
            "returns-x1f", "returns-u0906", "returns-u01fe"])
    def test_fields_only_loadtxt_reads_as_numbers(self, tmp_path, parse, loop, line, odd,
                                                  read):
        # rows of ticks 60 s apart, or daily returns under a header
        if parse is ingest.parse_ticks:
            rows = [f"{1_700_000_000 + 60 * i},100.05,1.0" for i in range(6_000)]
        else:
            rows = ["timestamp,value,flag"] + [f"{86400 * i},0.5,ok" for i in range(1, 6_000)]
        rows[line - 1] = odd
        text = "\n".join(rows if read == "large_file" else rows[:200]) + "\n"
        path = tmp_path / "input.csv"
        path.write_text(text, encoding="utf-8")
        assert (path.stat().st_size >= ingest._TEXT_READ_BYTES) == (read == "large_file")
        source = text if read == "text" else path
        with pytest.raises(ValueError, match=f"^line {line}: "):
            parse(source)
        assert _outcome(parse, source) == _outcome(loop, text)

    @pytest.mark.parametrize("suffix", [".gz", ".bz2", ".xz", ".lzma"])
    def test_text_file_with_a_compressed_suffix(self, tmp_path, tick_cache_home, suffix):
        # np.loadtxt would decompress a path by its suffix; the file is read as
        # text, also when it is large enough to be read in place otherwise
        path = tmp_path / f"ticks.csv{suffix}"
        text = "".join(f"{i},{2.0 + i % 7},1.0\n" for i in range(1, 8_000))
        path.write_text(text)
        assert path.stat().st_size >= ingest._TEXT_READ_BYTES
        assert _outcome(ingest.parse_ticks, path) == _outcome(ingest._parse_tick_lines, text)
        assert not any(tick_cache_home.iterdir())

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


class TestSmallFileReadOnce:
    """A file under _TEXT_READ_BYTES bytes is read whole as text and parsed
    from it; np.loadtxt opens a larger one again, in place."""

    @pytest.fixture
    def opens(self, monkeypatch):
        """The paths np.loadtxt opens (through numpy.lib._datasource)."""
        seen, real = [], np.lib._datasource.open

        def spy(path, *args, **kwargs):
            seen.append(Path(path))
            return real(path, *args, **kwargs)

        monkeypatch.setattr(np.lib._datasource, "open", spy)
        return seen

    @staticmethod
    def returns_file(path, n, eol="\n", header=True):
        values = np.random.default_rng(n).standard_t(3, n)
        text = ingest.returns_to_csv(
            ingest.ReturnSeries(1440, 86400 * np.arange(1, n + 1, dtype=np.int64), values))
        if not header:
            text = text.split("\n", 1)[1]
        path.write_text(text.replace("\n", eol), newline="")
        return values

    def test_small_files_are_opened_once(self, tmp_path, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("a small file was opened again by np.loadtxt")

        monkeypatch.setattr(np.lib._datasource, "open", refuse)
        returns, ticks = tmp_path / "returns.csv", tmp_path / "ticks.csv"
        values = self.returns_file(returns, 563)
        times, prices, amounts = _tick_file(ticks, 500, seed=2)
        assert ticks.stat().st_size < ingest._TEXT_READ_BYTES
        assert np.array_equal(ingest.read_returns_csv(returns).values, values)
        parsed = ingest.parse_ticks(ticks)
        for got, want in ((parsed.timestamps, times), (parsed.prices, prices),
                          (parsed.amounts, amounts)):
            assert np.array_equal(got, want)

    @pytest.mark.parametrize("eol", ["\n", "\r\n"], ids=["lf", "crlf"])
    @pytest.mark.parametrize("header", [True, False], ids=["header", "no-header"])
    def test_both_sides_of_the_bound_match_text_reads(self, tmp_path, opens, eol, header):
        # ≈ 32 bytes a row with LF: 2,000 rows lie below the bound, 2,100 above it.
        # The bound counts bytes: with CRLF, 2,000 rows are under 64 Ki characters
        # as a text-mode read gives them, but not under 64 KiB, and are read in place.
        for n, read_in_place in ((2_000, eol == "\r\n"), (2_100, True)):
            path = tmp_path / f"r{n}.csv"
            values = self.returns_file(path, n, eol, header)
            assert (path.stat().st_size >= ingest._TEXT_READ_BYTES) == read_in_place
            assert (len(path.read_text()) < ingest._TEXT_READ_BYTES) == (n == 2_000)
            opens.clear()
            from_path = ingest.read_returns_csv(path)
            assert opens == ([path] if read_in_place else [])
            from_text = ingest.read_returns_csv(path.read_text())
            assert np.array_equal(from_path.values, values)
            for got, want in ((from_path.times, from_text.times),
                              (from_path.values, from_text.values)):
                assert got.tobytes() == want.tobytes()

    def test_large_file_is_read_in_place(self, tmp_path, opens):
        path = tmp_path / "ticks.csv"
        _tick_file(path, 45_000, seed=5)  # ≈ 2 MB
        ingest.parse_ticks(path)
        assert opens == [path]


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


def _returns_file(path, n, seed):
    """``n`` returns at full precision, under the header, written to ``path``."""
    values = np.random.default_rng(seed).standard_t(3, n)
    path.write_text(ingest.returns_to_csv(
        ingest.ReturnSeries(5, 300 * np.arange(1, n + 1, dtype=np.int64), values)))


def _damaged(field, value):
    """A copy of an entry's rows with ``value`` in row 9 of ``field``."""
    def damage(rows):
        rows = rows.copy()
        rows[field][9] = value
        return rows
    return damage


# each makes an entry's rows break a check of the read
_SHARED_DAMAGES = {
    "dtype": lambda r: r.astype([(name, np.float64) for name in r.dtype.names]),
    "byte_order": lambda r: r.astype(r.dtype.newbyteorder()),
    "ndim": lambda r: r.reshape(-1, 2),
    "missing": lambda r: r[list(r.dtype.names[:-1])],
}
_TICK_DAMAGES = {"price": _damaged("p", -1.0), "amount": _damaged("a", -1.0),
                 **_SHARED_DAMAGES}
_RETURNS_DAMAGES = {"value": _damaged("v", np.nan), **_SHARED_DAMAGES}


@dataclass(frozen=True)
class _CacheKind:
    """What `TestTickCache` needs of one kind of cached file."""

    parse: str  # names in ingest, looked up at each call: a test may patch them
    loop: str  # the line loop of the parse
    dtype: np.dtype  # the rows of an entry
    write: Callable  # (path, n, seed): a generated file of n rows
    header: str  # the first line of a file, before its rows
    third: str  # the third field of a row that `write_values` writes
    column: str  # the result's field that `write_values` sets
    pad: int  # rows added before a test's own, so that a file is cached
    error: type  # what a malformed row raises
    damages: dict  # name: entry rows -> rows that break a check of the read


# 5,000 rows of 10.5 bring a file of either kind above _TEXT_READ_BYTES
_TICK_CACHE = _CacheKind("parse_ticks", "_parse_tick_lines", ingest._TICK_ROW, _tick_file,
                         "", "1", "prices", 5_000, ingest.TickParseError, _TICK_DAMAGES)
_RETURNS_CACHE = _CacheKind("read_returns_csv", "_read_return_lines", ingest._RETURN_ROW,
                            _returns_file, "timestamp,value,flag\n", "ok", "values", 5_000,
                            ValueError, _RETURNS_DAMAGES)


class TestTickCache:
    """`parse_ticks` on a path read in place: its rows are cached by the
    file's contents.  `TestReturnsCache` runs every test on `read_returns_csv`
    too."""

    kind = _TICK_CACHE

    def pytest_generate_tests(self, metafunc):
        if "damage" in metafunc.fixturenames:
            metafunc.parametrize("damage", ["truncated", "garbage", "npz", *self.kind.damages])

    @pytest.fixture
    def entries(self, tick_cache_home):
        folder = tick_cache_home / "mfvol" / "parsed"
        return lambda: sorted(folder.glob("*")) if folder.exists() else []

    @pytest.fixture
    def reads(self, monkeypatch):
        """What np.loadtxt reads and what the line loop is called on ("loop")."""
        calls = []
        loadtxt, loop = np.loadtxt, getattr(ingest, self.kind.loop)
        monkeypatch.setattr(np, "loadtxt",
                            lambda src, *a, **kw: calls.append(src) or loadtxt(src, *a, **kw))
        monkeypatch.setattr(ingest, self.kind.loop,
                            lambda text: calls.append("loop") or loop(text))
        return calls

    @pytest.fixture
    def keys(self, monkeypatch):
        """Entry names by file, as the reads make them."""
        names, key = {}, ingest._content_key

        def record(path, how):
            names[path] = key(path, how) + ".npy"
            return names[path][:-len(".npy")]

        monkeypatch.setattr(ingest, "_content_key", record)
        return names

    def parse(self, path):
        return getattr(ingest, self.kind.parse)(path)

    def reference(self, path):
        """The line loop's result on the file's text."""
        return getattr(ingest, self.kind.loop)(path.read_text(encoding="utf-8"))

    def write(self, path, n, seed):
        """A generated file of ``n`` rows, plus the kind's padding rows."""
        self.kind.write(path, n + self.kind.pad, seed)
        assert path.stat().st_size >= ingest._TEXT_READ_BYTES

    def write_values(self, path, tail):
        """A file whose rows carry ``tail`` after the kind's padding rows of 10.5."""
        values = [10.5] * self.kind.pad + list(tail)
        path.write_text(self.kind.header + "".join(
            f"{60 * i},{v},{self.kind.third}\n" for i, v in enumerate(values, start=1)))
        assert path.stat().st_size >= ingest._TEXT_READ_BYTES

    def tail(self, result):
        return getattr(result, self.kind.column)[self.kind.pad:].tolist()

    @staticmethod
    def assert_same(got, want):
        assert type(got) is type(want)
        for name, b in vars(want).items():
            a = getattr(got, name)
            if isinstance(b, np.ndarray):
                assert a.dtype == b.dtype and np.array_equal(a, b)
            else:
                assert a == b

    @pytest.mark.parametrize("shuffle", [False, True])
    def test_hit_is_the_parse_bit_for_bit(self, tmp_path, entries, reads, shuffle):
        path = tmp_path / "data.csv"
        self.write(path, 2_000, seed=7)
        head = 1 if self.kind.header else 0
        if shuffle:  # out of order: an entry keeps the file's order, and a read sorts
            lines = path.read_text().splitlines(keepends=True)
            rows = lines[head:]
            np.random.default_rng(1).shuffle(rows)
            path.write_text("".join(lines[:head] + rows))
        in_file = [int(line.split(",")[0]) for line in path.read_text().splitlines()[head:]]
        assert (in_file != sorted(in_file)) is shuffle
        want = self.reference(path)
        reads.clear()
        self.assert_same(self.parse(path), want)
        assert reads == [path] and len(entries()) == 1
        reads.clear()
        self.assert_same(self.parse(path), want)
        assert reads == []  # a hit reads neither by np.loadtxt nor by the line loop

    def test_pipe_is_parsed_and_not_cached(self, tmp_path, entries, read_fifo):
        path = tmp_path / "data.csv"
        self.write(path, 20_000, seed=5)
        got = read_fifo(path.read_text(), getattr(ingest, self.kind.parse))
        assert entries() == []
        self.assert_same(got, self.parse(path))

    def test_edited_file_of_the_same_size_and_mtime_misses(self, tmp_path, entries):
        path = tmp_path / "data.csv"
        self.write_values(path, [10.5, 11.5])
        stat = path.stat()
        assert self.tail(self.parse(path)) == [10.5, 11.5]
        self.write_values(path, [10.5, 12.5])
        os.utime(path, ns=(stat.st_atime_ns, stat.st_mtime_ns))
        assert path.stat().st_size == stat.st_size
        assert self.tail(self.parse(path)) == [10.5, 12.5]
        assert len(entries()) == 2

    @pytest.mark.parametrize("change", ["mfvol_version", "numpy_version", "python_version",
                                        "module_bytes"])
    def test_other_parsing_code_misses(self, tmp_path, entries, monkeypatch, change):
        path = tmp_path / "data.csv"
        self.write_values(path, [10.5])
        self.parse(path)
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
        self.parse(path)
        assert len(entries()) == 2

    def test_file_written_while_parsed_is_not_cached(self, tmp_path, entries, monkeypatch):
        path = tmp_path / "data.csv"
        self.write_values(path, [10.5])
        loadtxt = np.loadtxt

        def read_then_edit(*args, **kwargs):
            rows = loadtxt(*args, **kwargs)
            self.write_values(path, [12.5])
            return rows

        monkeypatch.setattr(np, "loadtxt", read_then_edit)
        assert self.tail(self.parse(path)) == [10.5]
        assert entries() == []

    def test_bad_entry_is_parsed_again_and_rewritten(self, tmp_path, entries, reads, damage):
        path = tmp_path / "data.csv"
        self.write(path, 500, seed=8)
        want = self.parse(path)
        (entry,) = entries()
        rows = ingest._read_entry(entry, self.kind.dtype)
        if damage == "truncated":
            entry.write_bytes(entry.read_bytes()[:len(entry.read_bytes()) // 2])
        elif damage == "garbage":
            entry.write_bytes(b"not a cache entry")
        elif damage == "npz":  # np.load would give an NpzFile
            with open(entry, "wb") as fh:
                np.savez(fh, rows=rows)
        else:
            with open(entry, "wb") as fh:
                np.save(fh, self.kind.damages[damage](rows))
        reads.clear()
        self.assert_same(self.parse(path), want)
        assert reads == [path] and entries() == [entry]
        got = ingest._read_entry(entry, self.kind.dtype)
        assert got.dtype == rows.dtype and np.array_equal(got, rows)

    @pytest.mark.parametrize("where", ["file_as_cache_home", "file_as_cache_dir",
                                       "no_home"])
    def test_unusable_cache_still_parses(self, tmp_path, tick_cache_home, monkeypatch,
                                         where):
        if where == "file_as_cache_home":
            monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "file"))
            (tmp_path / "file").write_text("")
        elif where == "file_as_cache_dir":
            (tick_cache_home / "mfvol").mkdir()
            (tick_cache_home / "mfvol" / "parsed").write_text("")
        else:
            monkeypatch.delenv("XDG_CACHE_HOME")
            monkeypatch.delenv("HOME", raising=False)
            assert ingest._cache_dir() is None
        path = tmp_path / "data.csv"
        self.write(path, 200, seed=9)
        for _ in range(2):
            self.assert_same(self.parse(path), self.reference(path))

    @pytest.mark.parametrize("xdg_cache_home", [None, "relative/cache"])
    def test_cache_folder_under_home_without_an_absolute_xdg_cache_home(
            self, tmp_path, monkeypatch, keys, xdg_cache_home):
        # the XDG spec ignores a relative path
        home = tmp_path / "home"
        monkeypatch.setenv("HOME", str(home))
        monkeypatch.chdir(tmp_path)
        if xdg_cache_home is None:
            monkeypatch.delenv("XDG_CACHE_HOME")
        else:
            monkeypatch.setenv("XDG_CACHE_HOME", xdg_cache_home)
        path = tmp_path / "data.csv"
        self.write(path, 100, seed=12)
        self.parse(path)
        folder = home / ".cache" / "mfvol" / "parsed"
        assert ingest._cache_dir() == folder
        assert [e.name for e in folder.iterdir()] == [keys[path]]
        assert not (tmp_path / "relative").exists()

    @pytest.mark.parametrize("flaw", ["group_writable", "world_readable", "other_owner"])
    def test_folder_open_to_others_is_not_used(self, tmp_path, entries, reads, monkeypatch,
                                               flaw):
        path = tmp_path / "data.csv"
        self.write(path, 200, seed=9)
        want = self.parse(path)
        (entry,) = entries()
        before = entry.stat().st_mtime_ns
        folder = entry.parent
        if flaw == "other_owner":
            uid = os.getuid()
            monkeypatch.setattr(os, "getuid", lambda: uid + 1)
        else:
            folder.chmod(0o720 if flaw == "group_writable" else 0o704)
        other = tmp_path / "other.csv"
        self.write(other, 100, seed=10)
        reads.clear()
        self.assert_same(self.parse(path), want)
        self.parse(other)
        assert reads == [path, other]  # no entry is read, and none is written
        assert entries() == [entry] and entry.stat().st_mtime_ns == before

    def test_keeps_the_most_recently_used_entries(self, tmp_path, entries, keys):
        paths = [tmp_path / f"data{k}.csv" for k in range(ingest.TICK_CACHE_ENTRIES + 2)]
        for k, path in enumerate(paths):
            self.write(path, 1, seed=k)
        n = ingest.TICK_CACHE_ENTRIES
        for path in [*paths[:n], paths[0], *paths[n:]]:  # the hit on paths[0] is a use
            self.parse(path)
        assert {e.name for e in entries()} == {keys[p] for p in [paths[0], *paths[3:]]}

    def test_entries_fit_in_the_byte_bound(self, tmp_path, entries, keys, monkeypatch):
        paths = [tmp_path / f"data{k}.csv" for k in range(3)]
        for k, (n, path) in enumerate(zip([100, 100, 300], paths)):
            self.write(path, n, seed=20 + k)
        # 250 rows above the padding
        monkeypatch.setattr(ingest, "TICK_CACHE_BYTES",
                            self.kind.dtype.itemsize * (self.kind.pad + 250))
        self.parse(paths[0])
        self.parse(paths[2])  # 300 rows: not stored, and nothing is dropped
        assert [e.name for e in entries()] == [keys[paths[0]]]
        self.parse(paths[1])  # two entries and their headers would not fit
        assert [e.name for e in entries()] == [keys[paths[1]]]

    # np.loadtxt fails on abc, and reads nan, which the check then rejects
    @pytest.mark.parametrize("bad", ["abc", "nan"])
    def test_malformed_file_raises_and_is_not_cached(self, tmp_path, entries, bad):
        path = tmp_path / "data.csv"
        self.write_values(path, ["10.0", "11.0", bad])
        line = (1 if self.kind.header else 0) + self.kind.pad + 3
        for _ in range(2):
            with pytest.raises(self.kind.error if bad == "abc" else ValueError,
                               match=f"^line {line}: "):
                self.parse(path)
        assert entries() == []

    @pytest.mark.parametrize("odd", ["   ", "1_000"])
    def test_file_only_the_line_loop_reads_is_not_cached(self, tmp_path, entries, reads,
                                                          odd):
        path = tmp_path / "data.csv"
        self.write_values(path, ["10.0", "11.0"])
        with open(path, "a") as fh:  # a whitespace-only line, or a number np.loadtxt refuses
            fh.write(f"{odd}\n" if odd.isspace() else f"{odd}000,12.0,{self.kind.third}\n")
        want = self.reference(path)
        reads.clear()
        for _ in range(2):
            self.assert_same(self.parse(path), want)
        assert reads.count("loop") == 2 and entries() == []

    def near_the_bound(self, path, size):
        """A file of ``size`` bytes, all of its values 10.5."""
        rows = [self.kind.header]
        total = len(rows[0])
        while total < size - 40:
            rows.append(f"{60 * len(rows)},10.5,{self.kind.third}\n")
            total += len(rows[-1])
        rows[-1] = rows[-1].replace("10.5", "10.5" + "0" * (size - total))
        path.write_text("".join(rows))
        assert path.stat().st_size == size

    def test_only_files_from_the_bound_up_are_cached(self, tmp_path, entries, keys):
        small, large = tmp_path / "small.csv", tmp_path / "large.csv"
        self.near_the_bound(small, ingest._TEXT_READ_BYTES - 1)
        self.near_the_bound(large, ingest._TEXT_READ_BYTES)
        self.assert_same(self.parse(small), self.reference(small))
        assert keys == {} and entries() == []
        self.assert_same(self.parse(large), self.reference(large))
        assert list(keys) == [large] and len(entries()) == 1

    def test_a_str_is_text_and_is_not_cached(self, tmp_path, entries):
        small, large = tmp_path / "small.csv", tmp_path / "large.csv"
        self.kind.write(small, 100, seed=11)  # no padding rows: under the bound
        self.write(large, 100, seed=11)
        for path in (small, large):
            with pytest.raises(self.kind.error, match="^line 1: "):
                self.parse(str(path))
        assert entries() == []

    def test_hit_memory_is_about_the_arrays(self, tmp_path):
        path = tmp_path / "data.csv"
        self.write(path, 45_000, seed=5)  # ≈ 2 MB of ticks
        self.parse(path)
        result, peak = TestPathReadMemory.peak(getattr(ingest, self.kind.parse), path)
        assert len(result) == 45_000 + self.kind.pad
        assert peak < 1.5 * path.stat().st_size


class TestReturnsCache(TestTickCache):
    """`read_returns_csv` behind the same cache."""

    kind = _RETURNS_CACHE

    @pytest.mark.parametrize("shuffle", [False, True])
    def test_hit_is_the_parse_bit_for_bit(self, tmp_path, entries, reads, shuffle):
        if not shuffle:
            super().test_hit_is_the_parse_bit_for_bit(tmp_path, entries, reads, shuffle)
            return
        # returns out of time order are no series: each read raises, and nothing is cached
        path = tmp_path / "data.csv"
        self.write(path, 2_000, seed=7)
        header, *rows = path.read_text().splitlines(keepends=True)
        np.random.default_rng(1).shuffle(rows)
        path.write_text("".join([header, *rows]))
        reads.clear()
        for _ in range(2):
            with pytest.raises(ValueError, match=r"^line \d+: timestamp \d+ does not exceed"):
                self.parse(path)
        assert reads == [path, "loop"] * 2 and entries() == []

    def test_entries_of_the_same_bytes_stay_apart(self, tmp_path, entries, reads, keys,
                                                  monkeypatch):
        # three fields a row: a tick file, and a returns file without a flag
        path = tmp_path / "both.csv"
        path.write_text("".join(f"{60 * i},10.5,1\n" for i in range(1, 8_000)))
        assert path.stat().st_size >= ingest._TEXT_READ_BYTES
        ticks = ingest.parse_ticks(path)
        tick_entry = keys.pop(path)
        returns = ingest.read_returns_csv(path)
        assert {e.name for e in entries()} == {tick_entry, keys[path]}
        assert len(entries()) == 2
        monkeypatch.setattr(ingest, "_parse_tick_lines", None)
        reads.clear()
        for _ in range(2):  # hits, whichever kind is read first
            self.assert_same(ingest.read_returns_csv(path), returns)
            self.assert_same(ingest.parse_ticks(path), ticks)
        assert reads == []
