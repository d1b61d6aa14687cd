"""Correctness oracles, run on a workload's outputs after the timed phase.

Each check compares the program's files against arithmetic done here, or
against a property the method must have; none compares against a stored
copy of earlier output. A check returns ``(ok, detail)``.
"""

import csv
import math

import numpy as np

from fxppo.agent import (
    RolloutBuffer,
    collect_rollout,
    load_policy,
)
from fxppo.checkpoint import load_container
from fxppo.env import EnvConfig, TradingEnv
from fxppo.nn import log_softmax, softmax

WINDOW_LEN = 16
N_CLUSTERS = 12
ACTIONS = (-1, 0, 1)


def _rows(path):
    with open(path, encoding="utf-8", newline="") as fh:
        return list(csv.reader(fh))


def _read_rewards(path):
    rows = _rows(path)
    if rows[0] != ["step", "reward"]:
        raise ValueError(f"{path}: unexpected header {rows[0]}")
    return [float(r[1]) for r in rows[1:]]


def _summary(path):
    """key -> list of values, in file order, of a ``key: value`` summary."""
    out = {}
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            key, sep, value = line.strip().partition(": ")
            if sep:
                out.setdefault(key, []).append(value)
    return out


def left_to_right_sum(values):
    total = 0.0
    for v in values:
        total += v
    return total


def step_returns(closes):
    """z_i = (c_{i+1} - c_i) / c_i, the step return of candles i, i+1."""
    return [(closes[i + 1] - closes[i]) / closes[i]
            for i in range(len(closes) - 1)]


def n_windows(n_candles):
    return n_candles - 1 - WINDOW_LEN + 1


# --------------------------------------------------------------------- train


def train_log_rows(run, iters, rollout):
    """One log row per PPO iteration, with timestep = rollout * k."""
    rows = _rows(run["train_log"])
    steps = [int(r[0]) for r in rows[1:]]
    want = [rollout * k for k in range(1, iters + 1)]
    return steps == want, f"timesteps {steps[:3]}... vs {want[:3]}..."


def train_log_values(run):
    """Finite values, entropy in (0, ln 3], clip fraction in [0, 1].

    The log keeps 10 significant digits, so a mean entropy within half a
    unit of the 10th digit of ln 3 may be written just above it.
    """
    rows = _rows(run["train_log"])
    header = rows[0]
    values = np.array([[float(v) for v in r] for r in rows[1:]])
    if values.size == 0 or not np.all(np.isfinite(values)):
        return False, "empty or non-finite log values"
    entropy = values[:, header.index("entropy")]
    clip = values[:, header.index("clip_fraction")]
    ln3 = math.log(3.0) * (1.0 + 1e-9)
    ok = bool(np.all(entropy > 0) and np.all(entropy <= ln3)
              and np.all(clip >= 0) and np.all(clip <= 1))
    return ok, f"entropy [{entropy.min()}, {entropy.max()}], clip [{clip.min()}, {clip.max()}]"


def train_checkpoint_counters(final, iters, rollout, epochs, minibatch):
    """steps_done and the Adam step count follow from the schedule."""
    meta, _ = load_container(final)
    want_steps = iters * rollout
    want_adam = iters * epochs * math.ceil(rollout / minibatch)
    ok = meta["steps_done"] == want_steps and meta["adam_step"] == want_adam
    return ok, (f"steps_done {meta['steps_done']} (want {want_steps}), "
                f"adam_step {meta['adam_step']} (want {want_adam})")


def train_exact_replay(run, final, rollout, minibatch, env_config):
    """A fresh rollout of the final policy, replayed per minibatch slice
    from its stored (h, c), gives ratios of exactly 1 and equal values."""
    net, _ = load_policy(final)
    windows = np.load(run["train_windows"])
    returns = np.load(run["train_returns"])
    labels = np.array([int(r[1]) for r in _rows(run["labels_train"])[1:]])
    env = TradingEnv(windows, returns, EnvConfig(**env_config))
    buffer = RolloutBuffer(rollout, net.input_size, net.hidden_size)
    h, c = net.initial_state()
    collect_rollout(net, env, labels, buffer, np.random.default_rng(0),
                    [h, c, True])
    for s in range(0, rollout, minibatch):
        e = min(s + minibatch, rollout)
        logits, _, values, _, _ = net.forward_sequence(
            buffer.obs[s:e], buffer.hprev[s], buffer.cprev[s],
            buffer.resets[s:e], want_aux=False,
        )
        lp = log_softmax(logits)[np.arange(e - s), buffer.actions[s:e]]
        ratio = np.exp(lp - buffer.log_probs[s:e])
        if not (np.all(ratio == 1.0) and np.array_equal(values, buffer.values[s:e])):
            return False, f"slice {s}:{e} replays with max |ratio-1| {np.max(np.abs(ratio - 1))}"
    return True, f"{math.ceil(rollout / minibatch)} slices replay exactly"


# ------------------------------------------------------------------ backtest


def backtest_coverage(run, seeds, n_test_candles):
    """Each seed replays every test window but the last, which has no
    next return."""
    want = n_windows(n_test_candles) - 1
    got = {s: len(_read_rewards(run["rewards"][s])) for s in seeds}
    return all(v == want for v in got.values()), f"steps {got}, want {want}"


def backtest_reward_accounting(run, seeds, closes, spread, episode_length):
    """Every reward is a*z - spread*|a - previous a| for some a in
    {-1, 0, 1}, with the position reset to 0 at each episode start.

    Tracks the set of positions consistent with the stream so far, so an
    ambiguous step cannot mislead a later one.
    """
    z = step_returns(closes)
    for seed in seeds:
        positions = {0}
        for j, r in enumerate(_read_rewards(run["rewards"][seed])):
            if j % episode_length == 0:
                positions = {0}
            zj = z[j + WINDOW_LEN]
            positions = {a for a in ACTIONS for p in positions
                         if a * zj - spread * abs(a - p) == r}
            if not positions:
                return False, f"seed {seed} step {j}: reward {r!r} fits no action"
    return True, f"{len(seeds)} seeds account exactly"


def _greedy_actions(net, windows, n_steps, episode_length):
    actions = []
    for s in range(0, n_steps, episode_length):
        e = min(s + episode_length, n_steps)
        h, c = net.initial_state()
        resets = np.zeros(e - s, dtype=np.uint8)
        resets[0] = 1
        logits, _, _, _, _ = net.forward_sequence(windows[s:e], h, c, resets,
                                                  want_aux=False)
        actions += [ACTIONS[int(np.argmax(p))] for p in softmax(logits)]
    return actions


def backtest_greedy_replay(run, seeds, closes, spread, episode_length):
    """Greedy actions from one forward_sequence per episode reproduce each
    seed's reward stream bit for bit."""
    windows = np.load(run["test_windows"])
    z = step_returns(closes)
    used = {}
    for seed in seeds:
        rewards = _read_rewards(run["rewards"][seed])
        net, _ = load_policy(run["final"][seed])
        actions = _greedy_actions(net, windows, len(rewards), episode_length)
        position = 0
        for j, a in enumerate(actions):
            if j % episode_length == 0:
                position = 0
            if a * z[j + WINDOW_LEN] - spread * abs(a - position) != rewards[j]:
                return False, f"seed {seed} differs first at step {j}"
            position = a
        used[seed] = {a: actions.count(a) for a in ACTIONS}
    return True, f"{len(seeds)} seeds replay bit for bit; actions {used}"


def backtest_totals(run, seeds):
    """Total return is the left-to-right sum of the stream, in the summary
    and at the end of the equity curve."""
    summary = _summary(run["summary"])
    last_equity = {}
    for row in _rows(run["equity"])[1:]:
        last_equity[int(row[1])] = float(row[2])
    for seed, pct in zip(seeds, summary["total_return_pct"]):
        total = left_to_right_sum(_read_rewards(run["rewards"][seed]))
        if float(pct) != total * 100.0 or last_equity[seed] != total:
            return False, f"seed {seed}: summary {pct}, equity {last_equity[seed]!r}, sum {total!r}"
    return True, "totals are left-to-right sums"


def sharpe(rewards):
    """Mean over population standard deviation; NaN for a constant stream,
    which has none."""
    n = len(rewards)
    mean = math.fsum(rewards) / n
    std = math.sqrt(math.fsum((r - mean) ** 2 for r in rewards) / n)
    return mean / std if std > 0 else math.nan


def _close(got, want, rel_tol):
    if math.isnan(want):
        return math.isnan(got)
    return math.isclose(got, want, rel_tol=rel_tol, abs_tol=1e-15)


def backtest_sharpe(run, seeds):
    """Each seed's Sharpe ratio in the summary, recomputed here."""
    summary = _summary(run["summary"])
    for seed, reported in zip(seeds, summary["sharpe"]):
        want = sharpe(_read_rewards(run["rewards"][seed]))
        if not _close(float(reported), want, 1e-9):
            return False, f"seed {seed}: sharpe {reported} vs {want!r}"
    return True, "per-seed Sharpe ratios match"


def backtest_seed_means(run, seeds):
    """The summary means are arithmetic means over seeds."""
    summary = _summary(run["summary"])
    pairs = (("mean_total_return_pct", "total_return_pct"),
             ("mean_sharpe", "sharpe"))
    for mean_key, key in pairs:
        per_seed = [float(v) for v in summary[key]]
        want = math.fsum(per_seed) / len(per_seed)
        got = float(summary[mean_key][0])
        if len(per_seed) != len(seeds) or not _close(got, want, 1e-12):
            return False, f"{mean_key} {got!r} vs mean {want!r}"
    return True, "summary means are per-seed means"


# --------------------------------------------------------------------- label


def _labels(path):
    rows = _rows(path)
    if rows[0] != ["window_end_index", "label"]:
        raise ValueError(f"{path}: unexpected header {rows[0]}")
    return (np.array([int(r[0]) for r in rows[1:]], dtype=np.int64),
            np.array([int(r[1]) for r in rows[1:]], dtype=np.int64))


def label_rows(run, n_train_candles, n_test_candles):
    """Row counts, window_end_index = k + 15, labels in [0, 12), and all 12
    clusters used on the training split."""
    for split, n in (("train", n_train_candles), ("test", n_test_candles)):
        idx, labels = _labels(run[f"labels_{split}"])
        want = n_windows(n)
        if len(idx) != want:
            return False, f"{split}: {len(idx)} rows, want {want}"
        if not np.array_equal(idx, np.arange(want) + WINDOW_LEN - 1):
            return False, f"{split}: window_end_index is not k + {WINDOW_LEN - 1}"
        if labels.min() < 0 or labels.max() >= N_CLUSTERS:
            return False, f"{split}: label outside [0, {N_CLUSTERS})"
        if split == "train" and len(np.unique(labels)) != N_CLUSTERS:
            return False, f"train: only {len(np.unique(labels))} clusters used"
    return True, "row counts, indices and label range hold"


def encode(ae_path, windows):
    """Encoder forward pass from the saved blocks: ReLU on every layer but
    the last, which is linear."""
    _, blocks = load_container(ae_path)
    n_enc = sum(1 for name in blocks if name.startswith("enc") and name.endswith(".w"))
    x = windows
    for i in range(n_enc):
        x = x @ blocks[f"enc{i}.w"] + blocks[f"enc{i}.b"]
        if i < n_enc - 1:
            x = np.maximum(x, 0.0)
    return x


def _centroids(run):
    _, blocks = load_container(run["kmeans"])
    return blocks["centroids"]


def label_nearest_centroid(run):
    """Re-encoded, every window of both splits sits on its nearest centroid
    (up to rounding in the distance sums)."""
    centroids = _centroids(run)
    for split in ("train", "test"):
        codes = encode(run["ae"], np.load(run[f"{split}_windows"]))
        _, labels = _labels(run[f"labels_{split}"])
        if len(labels) != len(codes):
            return False, f"{split}: {len(labels)} labels for {len(codes)} windows"
        d2 = ((codes[:, None, :] - centroids[None, :, :]) ** 2).sum(axis=2)
        own = d2[np.arange(len(labels)), labels]
        best = d2.min(axis=1)
        bad = np.flatnonzero(own > best * (1 + 1e-9) + 1e-15)
        if bad.size:
            return False, f"{split}: {bad.size} windows not on their nearest centroid, first {bad[0]}"
    return True, "every window is on its nearest centroid"


def label_centroid_means(run):
    """Each centroid is the mean of the training codes labelled with it."""
    centroids = _centroids(run)
    codes = encode(run["ae"], np.load(run["train_windows"]))
    _, labels = _labels(run["labels_train"])
    for j, centroid in enumerate(centroids):
        members = codes[labels == j]
        if len(members) == 0:
            return False, f"cluster {j} has no members"
        mean = members.mean(axis=0)
        if not np.allclose(centroid, mean, rtol=1e-9, atol=1e-12):
            return False, f"cluster {j}: centroid off its mean by {np.max(np.abs(centroid - mean))}"
    return True, f"{len(centroids)} centroids are their members' means"


def run_checks(checks):
    """Runs ``(name, fn, args)`` triples; a check that raises fails."""
    results = []
    for name, fn, args in checks:
        try:
            ok, detail = fn(*args)
        except (OSError, ValueError, KeyError, IndexError) as exc:
            ok, detail = False, f"{type(exc).__name__}: {exc}"
        results.append((name, bool(ok), detail))
    return results
