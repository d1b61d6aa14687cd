"""OHLC candle ingestion and feature engineering.

A candle series turns into five relative-change features per step (close,
high and low changes plus the high/close reach over the previous close),
a step-return series, and sliding 16-step windows flattened to 80 values.
Feature ``x1`` and the step return are the same quantity by construction.

All stages are pure functions of their inputs; parsing rejects malformed
rows instead of repairing them.
"""

from dataclasses import dataclass, field
from datetime import datetime

import numpy as np

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


class DataError(ValueError):
    """Base class for candle ingestion failures."""


class EmptyInput(DataError):
    pass


class MalformedRow(DataError):
    def __init__(self, line, reason):
        super().__init__(f"line {line}: {reason}")
        self.line = line
        self.reason = reason


class NonMonotonicTimestamp(DataError):
    def __init__(self, line):
        super().__init__(f"line {line}: timestamp not strictly increasing")
        self.line = line


class SeriesTooShort(DataError):
    pass


class TooFewFeatures(DataError):
    pass


@dataclass
class CandleSeries:
    timestamps: list = field(default_factory=list)
    open: np.ndarray = None
    high: np.ndarray = None
    low: np.ndarray = None
    close: np.ndarray = None

    def __len__(self):
        return len(self.timestamps)


def _parse_timestamp(text):
    text = text.strip()
    for fmt in _TS_FORMATS:
        try:
            return datetime.strptime(text, fmt)
        except ValueError:
            continue
    raise ValueError(f"unparseable timestamp {text!r}")


def parse_candles(raw_text):
    """Parse a CSV document (header row required) into a CandleSeries.

    Columns are time, open, high, low, close; any further columns (a
    volume, say) are ignored.

    Raises MalformedRow / NonMonotonicTimestamp with 1-based line numbers;
    OHLC ordering and positivity are enforced per row.
    """
    lines = raw_text.splitlines()
    # skip blank lines but keep real line numbers for error messages
    rows = [(i + 1, line) for i, line in enumerate(lines) if line.strip()]
    if len(rows) <= 1:
        raise EmptyInput("no candle rows found (header plus at least one row required)")

    timestamps = []
    opens, highs, lows, closes = [], [], [], []
    last_ts = None
    for lineno, line in rows[1:]:
        cells = line.split(",")
        if len(cells) < 5:
            raise MalformedRow(lineno, f"expected at least 5 columns, got {len(cells)}")
        try:
            ts = _parse_timestamp(cells[0])
            o = float(cells[1])
            h = float(cells[2])
            lo = float(cells[3])
            c = float(cells[4])
        except ValueError as exc:
            raise MalformedRow(lineno, str(exc)) from exc
        if not (o > 0 and h > 0 and lo > 0 and c > 0):
            raise MalformedRow(lineno, "prices must be strictly positive")
        if not (lo <= o <= h and lo <= c <= h):
            raise MalformedRow(lineno, f"OHLC ordering violated: o={o} h={h} l={lo} c={c}")
        if last_ts is not None and ts <= last_ts:
            raise NonMonotonicTimestamp(lineno)
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
        raise SeriesTooShort("need at least 2 candles to compute features")
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
        raise SeriesTooShort("need at least 2 candles to compute returns")
    c_prev, c_now = series.close[:-1], series.close[1:]
    return (c_now - c_prev) / c_prev


def build_windows(features, window_len=WINDOW_LEN):
    """Sliding windows over the feature rows, flattened step-major.

    Window k covers feature steps [k, k + window_len) with the oldest step
    first; output shape is (n - window_len + 1, window_len * 5).
    """
    features = np.asarray(features, dtype=np.float64)
    n = features.shape[0]
    if n < window_len:
        raise TooFewFeatures(f"need at least {window_len} feature rows, got {n}")
    n_windows = n - window_len + 1
    out = np.empty((n_windows, window_len * features.shape[1]), dtype=np.float64)
    for k in range(n_windows):
        out[k] = features[k : k + window_len].reshape(-1)
    return out


def window_end_indices(n_windows, window_len=WINDOW_LEN):
    """Feature-stream index of the newest step covered by each window."""
    return np.arange(n_windows) + window_len - 1

