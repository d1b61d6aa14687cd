"""Seeded synthetic EUR/USD-like hourly candles.

Prices follow a multiplicative random walk whose drift and volatility
switch between a few regimes (a Markov chain with long dwell times), so
that the windows the labeler clusters have real structure to find.
Timestamps are real calendar hours that skip weekends, as an FX export
would, so any number of candles keeps strictly increasing, parseable
timestamps.

Everything is a pure function of the seed: the same seed writes the same
bytes. Prices are written with ``repr`` so the close prices the benchmark
keeps in memory are exactly the ones the program parses back.
"""

from datetime import datetime, timedelta

import numpy as np

START = datetime(2017, 1, 2)  # a Monday

# (drift per hour, volatility per hour, high/low reach scale)
REGIMES = (
    (0.0, 0.0006, 0.0003),  # calm range
    (0.0004, 0.0012, 0.0006),  # steady uptrend
    (-0.0004, 0.0012, 0.0006),  # steady downtrend
    (0.0, 0.0030, 0.0015),  # volatile chop
)
MEAN_DWELL_HOURS = 48


def trading_hours(n, start=START):
    """The first ``n`` weekday hours from ``start`` onward."""
    out = []
    t = start
    step = timedelta(hours=1)
    while len(out) < n:
        if t.weekday() < 5:
            out.append(t)
        t += step
    return out


def candles(n, seed, first_close=1.1):
    """Returns (times, open, high, low, close) lists for ``n`` candles."""
    rng = np.random.default_rng(seed)
    switch = 1.0 / MEAN_DWELL_HOURS
    regime = int(rng.integers(len(REGIMES)))
    eps = rng.standard_normal(n)
    reach = np.abs(rng.standard_normal((n, 2)))
    flips = rng.random(n)
    picks = rng.integers(len(REGIMES) - 1, size=n)
    opens, highs, lows, closes = [], [], [], []
    prev = first_close
    for i in range(n):
        if flips[i] < switch:
            # move to one of the other regimes, uniformly
            regime = (regime + 1 + int(picks[i])) % len(REGIMES)
        drift, vol, hl = REGIMES[regime]
        c = prev * (1.0 + drift + vol * float(eps[i]))
        high = max(prev, c) * (1.0 + hl * float(reach[i, 0]))
        low = min(prev, c) * (1.0 - hl * float(reach[i, 1]))
        opens.append(prev)
        highs.append(high)
        lows.append(low)
        closes.append(c)
        prev = c
    return trading_hours(n), opens, highs, lows, closes


def write_csv(path, times, opens, highs, lows, closes):
    rows = ["time,open,high,low,close"]
    for t, o, h, lo, c in zip(times, opens, highs, lows, closes):
        rows.append(f"{t:%Y-%m-%d %H:%M},{o!r},{h!r},{lo!r},{c!r}")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(rows) + "\n")


def write_split(train_path, test_path, n_train, n_test, seed):
    """Writes one continuous series cut into a training and a test CSV.

    The test range starts the hour after the training range ends.
    Returns the test split's close prices, which the backtest oracle
    turns into step returns on its own.
    """
    times, o, h, lo, c = candles(n_train + n_test, seed)
    write_csv(train_path, times[:n_train], o[:n_train], h[:n_train],
              lo[:n_train], c[:n_train])
    write_csv(test_path, times[n_train:], o[n_train:], h[n_train:],
              lo[n_train:], c[n_train:])
    return c[n_train:]
