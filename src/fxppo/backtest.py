"""Policy evaluation on held-out data plus the reported metrics.

A backtest walks the evaluation range in sequential, non-overlapping
episodes, always taking the greedy action, and never updates the
network. Metrics follow the reporting conventions used throughout:
total return is the plain sum of per-step rewards, the Sharpe ratio is
mean over population standard deviation of those rewards, and relative
improvement is (new - original) / |original| * 100.
"""

import os

import numpy as np

from .checkpoint import write_artifact
from .env import ACTION_VALUES, position_rewards, step_returns

# The mean of n equal values can be off by a few ulps (numpy's pairwise
# summation), which leaves that much spurious spread in a constant stream.
DEGENERATE_ULPS = 8


# The most rows one policy call of the backtest holds. glibc reuses the
# memory of calls of this size from its heap, while it returned each
# 600-row call's memory and faulted it back in (about 1 480 minor page
# faults a call, and a row cost about 25% more, measured while the LSTM
# allocated 12 KiB a row per call; `act` now keeps 1 KiB a row of it).
CALL_ROWS = 256


class BacktestError(Exception):
    pass


class BacktestReport:
    """Reward stream plus identifying info for one (seed, checkpoint)."""

    def __init__(self, rewards, seed, data_range=None, checkpoint_hash=""):
        self.rewards = np.asarray(rewards, dtype=np.float64)
        self.seed = seed
        self.data_range = data_range or (0, len(self.rewards))
        self.checkpoint_hash = checkpoint_hash
        # cumulative left-to-right so the terminal value IS the total
        self.equity_curve = np.cumsum(self.rewards)
        self.total_return = (
            float(self.equity_curve[-1]) if self.rewards.size else 0.0
        )

    @property
    def steps(self):
        return int(self.rewards.size)

    @property
    def sharpe(self):
        """Sharpe of the reward stream; NaN when undefined (constant or
        too-short streams) so reports can still be written."""
        try:
            return sharpe_ratio(self.rewards)
        except BacktestError:
            return float("nan")


def run_backtest(net, windows, returns, env_config, seed=0, checkpoint_hash=""):
    """Greedy episode-by-episode replay over the whole range, each episode
    paid out with `position_rewards` from a flat start."""
    z = step_returns(returns, windows)
    length = env_config.episode_length
    actions = greedy_episodes(net, np.asarray(windows), len(z), length)
    rewards = np.empty(len(z))
    for s in range(0, len(z), length):
        e = min(s + length, len(z))
        rewards[s:e] = position_rewards(
            np.take(ACTION_VALUES, actions[s:e]), z[s:e], env_config.spread_cost
        )
    return BacktestReport(rewards, seed, (0, len(windows)), checkpoint_hash)


def greedy_episodes(net, windows, steps, length):
    """Greedy actions on windows[:steps], in consecutive episodes of
    `length` steps that each start from zero state.

    Actions never change the next observation, so up to `rows` =
    min(length, CALL_ROWS) episodes at a time run as the lanes of one
    policy pass, each lane row with the bits it has in a call of its own
    episode. A pass steps its lanes in chunks of ceil(rows / lanes) steps,
    so an `act` call holds about `rows` rows, gathered for that call
    alone, however long the split. The ragged last episode drops out of
    its pass where it ends.
    """
    rows = min(length, CALL_ROWS)
    # a whole number of episodes, lane-major: lane k's step t is row k * length + t
    actions = np.empty(-(-steps // length) * length, dtype=np.int64)
    for first in range(0, steps, rows * length):
        count = min(steps - first, rows * length)
        lanes = -(-count // length)
        ragged = count - (lanes - 1) * length
        starts = first + length * np.arange(lanes)
        out = actions[first : first + lanes * length].reshape(lanes, length)
        h = c = np.zeros((lanes, net.hidden_size))
        span = length if lanes > 1 else ragged
        cuts = sorted({*range(0, span, -(-rows // lanes)), ragged, span})
        for s, e in zip(cuts, cuts[1:]):
            live = lanes if s < ragged else lanes - 1
            obs = windows[np.arange(s, e)[:, None] + starts[:live]]
            a, _, _, h, c = net.act(
                obs.reshape(-1, windows.shape[1]), h[:live], c[:live], s == 0, mode="greedy"
            )
            out[:live, s:e] = a.reshape(e - s, live).T
    return actions[:steps]


def sharpe_ratio(rewards):
    """Mean divided by population standard deviation (divisor n).

    The stream is first scaled by the power of two that brings max|r|
    into [0.5, 1). That scaling is exact, so the ratio keeps its bits,
    but the squared deviations of tiny rewards no longer underflow. A
    stream whose standard deviation is within a few ulps of max|r| is
    constant up to rounding and has no Sharpe ratio.
    """
    r = np.asarray(rewards, dtype=np.float64)
    if r.size < 2:
        raise BacktestError(f"need at least 2 rewards, got {r.size}")
    _, exponent = np.frexp(np.max(np.abs(r)))
    r = np.ldexp(r, -exponent)
    std = r.std(ddof=0)
    if std <= DEGENERATE_ULPS * np.finfo(np.float64).eps:
        raise BacktestError("constant reward stream has no Sharpe ratio")
    return float(r.mean() / std)


def ppi(value_new, value_original):
    """Percentage improvement of value_new over value_original."""
    if value_original == 0:
        raise BacktestError("cannot compute improvement over a zero baseline")
    return (value_new - value_original) / abs(value_original) * 100.0


class SeedAggregate:
    def __init__(self, reports):
        if not reports:
            raise BacktestError("no backtest reports to aggregate")
        self.per_seed = list(reports)
        n = len(self.per_seed)
        self.mean_total_return = sum(r.total_return for r in self.per_seed) / n
        self.mean_sharpe = sum(r.sharpe for r in self.per_seed) / n


def emit_report(aggregate, out_dir, baseline_summary=None):
    """Writes equity.csv and summary.txt under out_dir.

    baseline_summary, when given, is a previously written summary file;
    its mean metrics become the denominators of an improvement block.
    Returns (equity_path, summary_path).
    """
    equity_path = os.path.join(out_dir, "equity.csv")
    summary_path = os.path.join(out_dir, "summary.txt")

    lines = ["step,seed,cumulative_return"]
    for report in aggregate.per_seed:
        for i, value in enumerate(report.equity_curve):
            lines.append(f"{i},{report.seed},{float(value)!r}")
    write_artifact(equity_path, "\n".join(lines) + "\n")

    out = []
    for report in aggregate.per_seed:
        out.append(f"seed: {report.seed}")
        out.append(f"total_return_pct: {report.total_return * 100.0!r}")
        out.append(f"sharpe: {report.sharpe!r}")
        out.append(f"steps: {report.steps}")
        out.append(f"data_range: {report.data_range[0]}..{report.data_range[1]}")
        out.append(f"checkpoint_hash: {report.checkpoint_hash}")
        out.append("")
    out.append(f"mean_total_return_pct: {aggregate.mean_total_return * 100.0!r}")
    out.append(f"mean_sharpe: {aggregate.mean_sharpe!r}")

    if baseline_summary is not None:
        base = parse_summary(baseline_summary)
        out.append("")
        out.append("[ppi]")
        out.append("metric,baseline,model,ppi_pct")
        pairs = [
            ("total_return_pct", base["mean_total_return_pct"],
             aggregate.mean_total_return * 100.0),
            ("sharpe", base["mean_sharpe"], aggregate.mean_sharpe),
        ]
        for name, b, m in pairs:
            try:
                improvement = repr(ppi(m, b))
            except BacktestError:
                improvement = "undefined"
            out.append(f"{name},{b!r},{m!r},{improvement}")
    write_artifact(summary_path, "\n".join(out) + "\n")
    return equity_path, summary_path


def parse_summary(path):
    """The two mean lines of a summary file, {mean_total_return_pct,
    mean_sharpe}; a missing or malformed one raises BacktestError."""
    result = {}
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            key, _, value = line.strip().partition(": ")
            if key in ("mean_total_return_pct", "mean_sharpe"):
                try:
                    result[key] = float(value)
                except ValueError as exc:
                    raise BacktestError(f"{path}: {exc}") from exc
    for key in ("mean_total_return_pct", "mean_sharpe"):
        if key not in result:
            raise BacktestError(f"{path}: no {key} line; not a summary file")
    return result
