"""OHLC candle ingestion and feature engineering.

A candle series turns into five relative-change features per step (close,
high and low changes plus the high/close reach over the previous close),
a step-return series, and sliding 16-step windows flattened to 80 values.
Feature ``x1`` and the step return are the same quantity by construction.

All stages are pure functions of their inputs; parsing rejects malformed
rows instead of repairing them.
"""

import re
from dataclasses import dataclass, field
from datetime import datetime

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

WINDOW_LEN = 16
N_FEATURES = 5

# Timestamp layouts seen in hourly OHLC exports.
_TS_FORMATS = (
    "%Y-%m-%dT%H:%M:%S",
    "%Y-%m-%dT%H:%M",
    "%Y-%m-%d %H:%M:%S",
    "%Y-%m-%d %H:%M",
    "%Y.%m.%d %H:%M:%S",
    "%Y.%m.%d %H:%M",
    "%Y-%m-%d",
)

# The field patterns of CPython's `_strptime.TimeRE`, so that a layout's
# regex accepts what `datetime.strptime` accepts: single-digit fields, a
# space-padded day, and any decimal digits, which `int` reads.
_TS_FIELDS = {
    "Y": r"(\d\d\d\d)",
    "m": r"(1[0-2]|0[1-9]|[1-9])",
    "d": r"(3[0-1]|[1-2]\d|0[1-9]|[1-9]| [1-9])",
    "H": r"(2[0-3]|[0-1]\d|\d)",
    "M": r"([0-5]\d|\d)",
    "S": r"(6[0-1]|[0-5]\d|\d)",
}


def _layout_regex(fmt):
    """The regex `strptime` compiles for ``fmt``: runs of whitespace match
    any run of whitespace, then each field its pattern above, case ignored.
    Its groups are the fields in the order `datetime` takes them."""
    pattern = re.sub(r"\s+", r"\\s+", fmt.replace(".", r"\."))
    return re.compile(re.sub("%(.)", lambda m: _TS_FIELDS[m[1]], pattern), re.IGNORECASE)


_TS_LAYOUTS = tuple(_layout_regex(fmt) for fmt in _TS_FORMATS)


class DataError(ValueError):
    """A candle file or series the pipeline cannot use; a row's message
    starts with its 1-based line number, ``line <n>: ``."""


@dataclass
class CandleSeries:
    timestamps: list = field(default_factory=list)
    open: np.ndarray = None
    high: np.ndarray = None
    low: np.ndarray = None
    close: np.ndarray = None

    def __len__(self):
        return len(self.timestamps)


def _parse_timestamp(text, layouts=_TS_LAYOUTS):
    """(datetime, layout) of the first of ``layouts`` that the whole of
    ``text``, stripped, matches with a valid date and time; the datetime
    `strptime` gives for that layout. Raises ValueError when none does."""
    text = text.strip()
    for layout in layouts:
        found = layout.match(text)
        if found is not None and found.end() == len(text):
            try:
                return datetime(*map(int, found.groups())), layout
            except ValueError:
                continue
    raise ValueError(f"unparseable timestamp {text!r}")


def parse_candles(raw_text):
    """Parse a CSV document (header row required) into a CandleSeries.

    Columns are time, open, high, low, close; any further columns (a
    volume, say) are ignored.

    Timestamps may take any of the `_TS_FORMATS` layouts, row by row. No
    string fits two layouts, so trying first the layout of the row before
    changes no result, only the cost of a row.

    Raises DataError, naming the row's 1-based line number for a
    malformed row or a timestamp that does not increase; OHLC ordering and
    positivity are enforced per row.
    """
    lines = raw_text.splitlines()
    # skip blank lines but keep real line numbers for error messages
    rows = [(i + 1, line) for i, line in enumerate(lines) if line.strip()]
    if len(rows) <= 1:
        raise DataError("no candle rows found (header plus at least one row required)")

    timestamps = []
    opens, highs, lows, closes = [], [], [], []
    last_ts = None
    layouts = _TS_LAYOUTS
    for lineno, line in rows[1:]:
        cells = line.split(",")
        if len(cells) < 5:
            raise DataError(f"line {lineno}: expected at least 5 columns, got {len(cells)}")
        try:
            ts, layout = _parse_timestamp(cells[0], layouts)
            o = float(cells[1])
            h = float(cells[2])
            lo = float(cells[3])
            c = float(cells[4])
        except ValueError as exc:
            raise DataError(f"line {lineno}: {exc}") from exc
        if layout is not layouts[0]:
            layouts = (layout, *_TS_LAYOUTS)
        if not (o > 0 and h > 0 and lo > 0 and c > 0):
            raise DataError(f"line {lineno}: prices must be strictly positive")
        if not (lo <= o <= h and lo <= c <= h):
            raise DataError(f"line {lineno}: OHLC ordering violated: o={o} h={h} l={lo} c={c}")
        if last_ts is not None and ts <= last_ts:
            raise DataError(f"line {lineno}: timestamp not strictly increasing")
        last_ts = ts
        timestamps.append(ts)
        opens.append(o)
        highs.append(h)
        lows.append(lo)
        closes.append(c)

    return CandleSeries(
        timestamps=timestamps,
        open=np.asarray(opens, dtype=np.float64),
        high=np.asarray(highs, dtype=np.float64),
        low=np.asarray(lows, dtype=np.float64),
        close=np.asarray(closes, dtype=np.float64),
    )


def compute_features(series):
    """Five relative-change features per step, shape (len(series)-1, 5).

    Row t (for candles t and t+1 of the series) holds:

        x1 = (c_t - c_{t-1}) / c_{t-1}
        x2 = (h_t - h_{t-1}) / h_{t-1}
        x3 = (l_t - l_{t-1}) / l_{t-1}
        x4 = (h_t - c_{t-1}) / c_{t-1}
        x5 = (c_t - l_{t-1}) / c_{t-1}

    x4 and x5 are deliberately denominated in the previous close.
    """
    if len(series) < 2:
        raise DataError("need at least 2 candles to compute features")
    c_prev, c_now = series.close[:-1], series.close[1:]
    h_prev, h_now = series.high[:-1], series.high[1:]
    l_prev, l_now = series.low[:-1], series.low[1:]
    feats = np.empty((len(series) - 1, N_FEATURES), dtype=np.float64)
    feats[:, 0] = (c_now - c_prev) / c_prev
    feats[:, 1] = (h_now - h_prev) / h_prev
    feats[:, 2] = (l_now - l_prev) / l_prev
    feats[:, 3] = (h_now - c_prev) / c_prev
    feats[:, 4] = (c_now - l_prev) / c_prev
    return feats


def compute_returns(series):
    """Step returns z_t = (c_t - c_{t-1}) / c_{t-1}, length len(series)-1."""
    if len(series) < 2:
        raise DataError("need at least 2 candles to compute returns")
    c_prev, c_now = series.close[:-1], series.close[1:]
    return (c_now - c_prev) / c_prev


def build_windows(features):
    """Sliding windows over the feature rows, flattened step-major.

    Window k covers feature steps [k, k + WINDOW_LEN) with the oldest step
    first; output shape is (n - WINDOW_LEN + 1, WINDOW_LEN * 5).
    """
    features = np.asarray(features, dtype=np.float64)
    n = features.shape[0]
    if n < WINDOW_LEN:
        raise DataError(f"need at least {WINDOW_LEN} feature rows, got {n}")
    # window k is the WINDOW_LEN * width consecutive values from row k on
    width = features.shape[1]
    return sliding_window_view(features.ravel(), WINDOW_LEN * width)[::width].copy()


def window_end_indices(n_windows):
    """Feature-stream index of the newest step covered by each window."""
    return np.arange(n_windows) + WINDOW_LEN - 1

