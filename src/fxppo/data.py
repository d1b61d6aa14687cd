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


@dataclass(frozen=True)
class CsvFormat:
    """Column mapping for candle CSV files.

    Columns are addressed by position; exports that append a volume column
    (or anything else) simply leave those indices unmapped.
    """

    delimiter: str = ","
    timestamp_col: int = 0
    open_col: int = 1
    high_col: int = 2
    low_col: int = 3
    close_col: int = 4


@dataclass
class CandleSeries:
    timestamps: list = field(default_factory=list)
    open: np.ndarray = None
    high: np.ndarray = None
    low: np.ndarray = None
    close: np.ndarray = None
    source_id: str = ""

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


def parse_candles(raw_text, fmt=None, source_id=""):
    """Parse a CSV document (header row required) into a CandleSeries.

    Raises MalformedRow / NonMonotonicTimestamp with 1-based line numbers;
    OHLC ordering and positivity are enforced per row.
    """
    fmt = fmt or CsvFormat()
    lines = raw_text.splitlines()
    # skip blank lines but keep real line numbers for error messages
    rows = [(i + 1, line) for i, line in enumerate(lines) if line.strip()]
    if len(rows) <= 1:
        raise EmptyInput("no candle rows found (header plus at least one row required)")
    needed = max(fmt.timestamp_col, fmt.open_col, fmt.high_col, fmt.low_col, fmt.close_col)

    timestamps = []
    opens, highs, lows, closes = [], [], [], []
    last_ts = None
    for lineno, line in rows[1:]:
        cells = line.split(fmt.delimiter)
        if len(cells) <= needed:
            raise MalformedRow(lineno, f"expected at least {needed + 1} columns, got {len(cells)}")
        try:
            ts = _parse_timestamp(cells[fmt.timestamp_col])
            o = float(cells[fmt.open_col])
            h = float(cells[fmt.high_col])
            lo = float(cells[fmt.low_col])
            c = float(cells[fmt.close_col])
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
        source_id=source_id,
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

