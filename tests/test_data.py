"""CSV parsing, feature extraction, and windowing."""

from datetime import datetime

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fxppo.data import (
    _TS_FORMATS,
    _TS_LAYOUTS,
    N_FEATURES,
    WINDOW_LEN,
    EmptyInput,
    MalformedRow,
    NonMonotonicTimestamp,
    SeriesTooShort,
    TooFewFeatures,
    build_windows,
    compute_features,
    compute_returns,
    parse_candles,
    window_end_indices,
)
from fxppo.data import _parse_timestamp as parse_timestamp


def make_csv(rows):
    return "time,open,high,low,close\n" + "\n".join(rows) + "\n"


def synth_rows(n, start=1.0, step=0.001):
    rows = []
    for i in range(n):
        c = start + step * i
        rows.append(
            f"2017-01-02T{i // 60:02d}:{i % 60:02d},{c - 0.0002},{c + 0.0004},{c - 0.0005},{c}"
        )
    return rows


class TestParsing:
    def test_single_valid_row(self):
        text = make_csv(["2017-01-02T00:00,1.0465,1.0472,1.0460,1.0470"])
        series = parse_candles(text)
        assert len(series) == 1
        assert series.close[0] == pytest.approx(1.0470)
        assert series.open[0] == pytest.approx(1.0465)

    def test_alternate_timestamp_format(self):
        text = make_csv(["2017.01.02 00:00,1.0465,1.0472,1.0460,1.0470"])
        series = parse_candles(text)
        assert len(series) == 1

    def test_empty_input(self):
        with pytest.raises(EmptyInput):
            parse_candles("")

    def test_header_only(self):
        with pytest.raises(EmptyInput):
            parse_candles("time,open,high,low,close\n")

    def test_high_below_low_rejected(self):
        text = make_csv(["2017-01-02T00:00,1.0465,1.0460,1.0472,1.0470"])
        with pytest.raises(MalformedRow) as exc:
            parse_candles(text)
        assert exc.value.line == 2

    def test_non_numeric_field(self):
        text = make_csv(["2017-01-02T00:00,abc,1.0472,1.0460,1.0470"])
        with pytest.raises(MalformedRow):
            parse_candles(text)

    def test_missing_column(self):
        text = make_csv(["2017-01-02T00:00,1.0465,1.0472,1.0460"])
        with pytest.raises(MalformedRow):
            parse_candles(text)

    def test_nonpositive_price(self):
        text = make_csv(["2017-01-02T00:00,1.0465,1.0472,-1.0,1.0470"])
        with pytest.raises(MalformedRow):
            parse_candles(text)

    def test_equal_timestamps_rejected(self):
        rows = [
            "2017-01-02T00:00,1.0465,1.0472,1.0460,1.0470",
            "2017-01-02T00:00,1.0470,1.0475,1.0465,1.0471",
        ]
        with pytest.raises(NonMonotonicTimestamp) as exc:
            parse_candles(make_csv(rows))
        assert exc.value.line == 3

    def test_decreasing_timestamps_rejected(self):
        rows = [
            "2017-01-02T00:01,1.0465,1.0472,1.0460,1.0470",
            "2017-01-02T00:00,1.0470,1.0475,1.0465,1.0471",
        ]
        with pytest.raises(NonMonotonicTimestamp):
            parse_candles(make_csv(rows))

    def test_blank_lines_skipped(self):
        text = (
            "time,open,high,low,close\n\n"
            "2017-01-02T00:00,1.0465,1.0472,1.0460,1.0470\n\n"
        )
        series = parse_candles(text)
        assert len(series) == 1


def strptime_timestamp(text):
    """The reference parser: `strptime` with each of the layouts in turn."""
    text = text.strip()
    for fmt in _TS_FORMATS:
        try:
            return datetime.strptime(text, fmt)
        except ValueError:
            continue
    raise ValueError(f"unparseable timestamp {text!r}")


def outcome(parse, text):
    try:
        return parse(text)
    except ValueError as exc:
        return str(exc)


# Decimal digits of other scripts: Arabic-Indic, Devanagari, fullwidth.
DIGIT_ZEROS = ("\u0660", "\u0966", "\uff10")


def mostly(usual, rare):
    """A draw from ``usual``, or from ``rare`` as one choice in ten."""
    return st.sampled_from([usual] * 9 + [rare]).flatmap(lambda s: s)


@st.composite
def timestamp_field(draw, usual, rare, width=2):
    """One field, ``width`` digits or unpadded or space-padded, sometimes
    in the decimal digits of another script."""
    value = draw(mostly(usual, rare))
    text = draw(mostly(st.just(f"{value:0{width}d}"), st.sampled_from([str(value), f"{value:2d}"])))
    zero = draw(mostly(st.just("0"), st.sampled_from(DIGIT_ZEROS)))
    return "".join(chr(ord(zero) + int(c)) if c.isdigit() else c for c in text)


@st.composite
def timestamp_texts(draw):
    """Strings near the accepted layouts: out-of-range and single-digit
    fields, 29 February of any year, runs of whitespace, a lower-case t,
    other digits, other separators and trailing text."""
    whitespace = st.sampled_from(["  ", "\t", " \t ", "\n"])
    year = draw(timestamp_field(st.sampled_from([2016, 2017, 1900, 2000]),
                                st.integers(0, 20000), width=4))
    sep = draw(mostly(st.sampled_from(["-", "."]), st.sampled_from(["/", "", ":"])))
    text = (year + sep + draw(timestamp_field(st.integers(1, 12), st.sampled_from([0, 13, 20])))
            + draw(mostly(st.just(sep), st.sampled_from(["-", "."])))
            + draw(timestamp_field(st.sampled_from([1, 5, 9, 28, 29, 30, 31]),
                                   st.sampled_from([0, 32, 40]))))
    if draw(st.booleans()):
        text += draw(mostly(st.sampled_from(["T", " "]), st.sampled_from(["t", "x", ""]) | whitespace))
        text += draw(timestamp_field(st.integers(0, 23), st.sampled_from([24, 25, 30])))
        text += ":" + draw(timestamp_field(st.integers(0, 59), st.sampled_from([60, 61, 99])))
        if draw(st.booleans()):
            text += ":" + draw(timestamp_field(st.integers(0, 59), st.sampled_from([60, 61, 62])))
    text += draw(mostly(st.just(""), st.sampled_from(["Z", " x", ":00", ".5", "0"]) | whitespace))
    return draw(mostly(st.just(""), whitespace)) + text


ACCEPTED = ["2017-1-2 3:4", "2017-01- 2T05:06:07", "2017.01.02\t \t05:06", "2017-01-02t05:06",
            "\u0662\u0660\u0661\u0667-01-02 0\u0665:0\u0663", "2016-02-29"]
REJECTED = ["2017-13-01 00:00", "2017-01-02 24:00", "2017-01-02 00:60", "2017-01-02 00:00:60",
            "2017-01-02 00:00:61", "2017-02-29", "2017-01-02 00:00Z", "2017/01/02"]


def with_examples(texts):
    """Hypothesis's @example for each of ``texts``."""
    def decorate(test):
        for text in texts:
            test = example(text)(test)
        return test
    return decorate


class TestTimestamps:
    @given(timestamp_texts())
    @with_examples(ACCEPTED + REJECTED)
    @settings(max_examples=1000, deadline=None)
    def test_matches_strptime(self, text):
        expect = outcome(strptime_timestamp, text)
        if text in ACCEPTED + REJECTED:
            assert isinstance(expect, datetime) == (text in ACCEPTED)
        # a string fits one layout at most, so the order tried cannot matter
        for k in range(len(_TS_LAYOUTS)):
            layouts = _TS_LAYOUTS[k:] + _TS_LAYOUTS[:k]
            got = outcome(lambda t: parse_timestamp(t, layouts)[0], text)
            assert got == expect

    def test_layout_may_change_between_rows(self):
        stamps = [
            "2017-01-02 00:00", "2017-01-02 01:00", "2017.01.02 02:00:30",
            "2017-01-02T03:00", "2017-01-02T04:00:01", "2017-01-02 05:00:00",
            "2017.01.02 06:00", "2017-01-03", "2017-01-03 01:00",
        ]
        series = parse_candles(make_csv([f"{s},1.0,1.0,1.0,1.0" for s in stamps]))
        assert series.timestamps == [strptime_timestamp(s) for s in stamps]

    @pytest.mark.parametrize("bad", ["2017-01-02 25:00", "2017-01-02 03:00 UTC", "2017.1.2.3"])
    def test_unparseable_row_after_a_layout_is_found(self, bad):
        rows = [f"2017-01-02 0{i}:00,1.0,1.0,1.0,1.0" for i in range(3)]
        rows.append(f"{bad},1.0,1.0,1.0,1.0")
        with pytest.raises(MalformedRow) as exc:
            parse_candles(make_csv(rows))
        assert exc.value.line == 5
        assert str(exc.value) == f"line 5: unparseable timestamp {bad!r}"
        with pytest.raises(ValueError) as oracle:
            strptime_timestamp(bad)
        assert exc.value.reason == str(oracle.value)


class TestFeatures:
    def test_hand_computed_row(self):
        # prev candle: c=1.0, h=1.0, l=1.0; current: c=1.10, h=1.05 is
        # impossible (h >= c), so pick values that satisfy OHLC ordering.
        text = make_csv(
            [
                "2017-01-02T00:00,1.0,1.0,1.0,1.0",
                "2017-01-02T00:01,1.0,1.10,0.99,1.10",
            ]
        )
        series = parse_candles(text)
        feats = compute_features(series)
        assert feats.shape == (1, N_FEATURES)
        assert feats[0, 0] == pytest.approx(0.10)          # close change
        assert feats[0, 1] == pytest.approx(0.10)          # high change
        assert feats[0, 2] == pytest.approx(-0.01)         # low change
        assert feats[0, 3] == pytest.approx(0.10)          # high vs prev close
        assert feats[0, 4] == pytest.approx(0.10)          # close vs prev low

    def test_mixed_denominators(self):
        # x4 and x5 divide by the previous close, x2 by previous high,
        # x3 by previous low.
        text = make_csv(
            [
                "2017-01-02T00:00,1.0,2.0,0.5,1.0",
                "2017-01-02T00:01,1.0,2.1,0.45,1.01",
            ]
        )
        series = parse_candles(text)
        f = compute_features(series)[0]
        assert f[0] == pytest.approx(0.01)
        assert f[1] == pytest.approx((2.1 - 2.0) / 2.0)
        assert f[2] == pytest.approx((0.45 - 0.5) / 0.5)
        assert f[3] == pytest.approx((2.1 - 1.0) / 1.0)
        assert f[4] == pytest.approx((1.01 - 0.5) / 1.0)

    def test_returns_values(self):
        text = make_csv(
            [
                "2017-01-02T00:00,1.0,1.0,1.0,1.0",
                "2017-01-02T00:01,1.0,1.01,0.99,1.01",
                "2017-01-02T00:02,1.0,1.01,0.50,0.505",
            ]
        )
        series = parse_candles(text)
        rets = compute_returns(series)
        assert rets[0] == pytest.approx(0.01)
        assert rets[1] == pytest.approx(-0.5)

    def test_returns_match_first_feature(self):
        series = parse_candles(make_csv(synth_rows(40)))
        feats = compute_features(series)
        rets = compute_returns(series)
        assert np.array_equal(rets, feats[:, 0])

    def test_too_short_series(self):
        series = parse_candles(make_csv(synth_rows(1)))
        with pytest.raises(SeriesTooShort):
            compute_features(series)


class TestWindows:
    def test_exact_window(self):
        feats = np.arange(WINDOW_LEN * N_FEATURES, dtype=np.float64).reshape(
            WINDOW_LEN, N_FEATURES
        )
        w = build_windows(feats)
        assert w.shape == (1, WINDOW_LEN * N_FEATURES)
        # step-major flattening: first 5 values are the oldest step
        assert np.array_equal(w[0, :N_FEATURES], feats[0])
        assert np.array_equal(w[0, -N_FEATURES:], feats[-1])

    def test_window_counts(self):
        for n, expect in [(16, 1), (17, 2), (100, 85)]:
            feats = np.zeros((n, N_FEATURES))
            assert build_windows(feats).shape[0] == expect

    def test_too_few_rows(self):
        with pytest.raises(TooFewFeatures):
            build_windows(np.zeros((WINDOW_LEN - 1, N_FEATURES)))

    def test_end_indices(self):
        # 18 feature rows give 3 windows ending at rows 15, 16, 17
        idx = window_end_indices(3)
        assert idx.tolist() == [15, 16, 17]

    @given(st.integers(min_value=16, max_value=60), st.integers(0, 2**31 - 1))
    @settings(max_examples=25, deadline=None)
    def test_windows_are_lossless_views(self, n, seed):
        feats = np.random.default_rng(seed).normal(size=(n, N_FEATURES))
        w = build_windows(feats)
        ends = window_end_indices(w.shape[0])
        assert ends[-1] == n - 1
        for row, end in zip(w, ends):
            expect = feats[end - WINDOW_LEN + 1 : end + 1].reshape(-1)
            assert np.array_equal(row, expect)

