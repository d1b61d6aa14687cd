"""Recurrent actor-critic trained with clipped-surrogate policy gradients.

The network is an LSTM trunk feeding three dense layers, then three
heads: a 3-way trade policy, a 12-way cluster-label predictor (the
auxiliary task), and a scalar value estimate. Training alternates
fixed-length rollouts in the trading simulator with several epochs of
minibatch updates on the collected data.

Exact-replay discipline: every product on the policy path gives a row
the same bits however many rows its call holds (`fxppo.kernels`). The
LSTM's input and recurrent products and the three trunk layers are
gemms, a one-row call padded to two rows, and the heads make one
vector-matrix call per row. The rollout records the LSTM state entering
each step. Rollouts call `act` one row at a time and updates replay
32-row slices from their stored state, into which no gradient flows back
(the BPTT stops at a slice's first row); because each row's bits do not
depend on its neighbours, both give the same logits bit for bit, which
makes the probability ratio exactly 1 on the first pass after a rollout.
The backtest steps many episodes together as the lanes of one call, each
step's recurrent product one gemm over the lanes, and each lane row
again has the bits of a one-row call.
"""

import os
from dataclasses import asdict, dataclass

import numpy as np

from .checkpoint import is_count, is_number, load_checked, save_container, write_artifact
from .env import ACTION_VALUES, TradingEnv
from .nn import (
    Adam,
    DenseLayer,
    LSTMLayer,
    Net,
    NonFiniteValue,
    block_shapes,
    clear_caches,
    clip_grad_norm,
    collect_grads,
    log_softmax,
    softmax,
    split_flat,
)


class AgentError(Exception):
    pass


class EmptyBuffer(AgentError):
    pass


class LabelOutOfRange(AgentError):
    pass


N_ACTIONS = 3
N_CLUSTERS = 12


@dataclass
class PPOConfig:
    clip_epsilon: float = 0.2
    discount: float = 0.99
    gae_lambda: float = 0.95
    aux_loss_weight: float = 0.5
    value_loss_weight: float = 0.5
    entropy_coefficient: float = 0.01
    epochs_per_update: int = 4
    minibatch_size: int = 32
    rollout_length: int = 600
    total_timesteps: int = 1_000_000
    learning_rate: float = 0.0000879678
    max_grad_norm: float = 0.5
    checkpoint_every: int = 50

    def __post_init__(self):
        if not 0 < self.clip_epsilon < 1:
            raise ValueError("clip_epsilon must be in (0, 1)")
        if not 0 < self.discount <= 1:
            raise ValueError("discount must be in (0, 1]")
        if not 0 <= self.gae_lambda <= 1:
            raise ValueError("gae_lambda must be in [0, 1]")
        for name in ("aux_loss_weight", "value_loss_weight", "entropy_coefficient"):
            if not (is_number(getattr(self, name)) and getattr(self, name) >= 0):
                raise ValueError(f"{name} must be >= 0")
        for name in ("epochs_per_update", "minibatch_size", "rollout_length",
                     "total_timesteps", "checkpoint_every"):
            if not is_count(getattr(self, name)):
                raise ValueError(f"{name} must be a positive integer")
        if self.total_timesteps < self.rollout_length:
            raise ValueError("total_timesteps must be at least rollout_length, one rollout")
        # NaN passes, and fails training as a numeric failure
        for name in ("learning_rate", "max_grad_norm"):
            if not is_number(getattr(self, name)) or getattr(self, name) <= 0:
                raise ValueError(f"{name} must be > 0")


def _layer_table(input_size, hidden_size, trunk):
    t1, t2, t3 = trunk
    return [
        ("lstm", LSTMLayer, (input_size, hidden_size)),
        ("fc1", DenseLayer, (hidden_size, t1, "relu")),
        ("fc2", DenseLayer, (t1, t2, "relu")),
        ("fc3", DenseLayer, (t2, t3, "relu")),
        ("policy", DenseLayer, (t3, N_ACTIONS, "identity")),
        ("aux", DenseLayer, (t3, N_CLUSTERS, "identity")),
        ("value", DenseLayer, (t3, 1, "identity")),
    ]


class PolicyNetwork(Net):
    """LSTM(80->128) -> dense 32/64/64 (ReLU) -> policy/aux/value heads,
    declared by `_layer_table`.

    The default sizes are the production architecture; tests shrink
    them to keep finite-difference sweeps cheap.
    """

    def __init__(self, input_size=80, hidden_size=128, trunk=(32, 64, 64), rng=None):
        self.input_size = input_size
        self.hidden_size = hidden_size
        self.trunk_sizes = tuple(trunk)
        super().__init__(_layer_table(input_size, hidden_size, self.trunk_sizes), rng)

    def initial_state(self):
        return self.lstm.initial_state()

    def forward_sequence(self, obs, h0, c0, resets, want_aux=True, keep=True):
        """Shared trunk plus heads over a (T, 80) slice from (H,) state, or
        over N lanes from (N, H) state and (T * N, 80) time-major rows
        (`LSTMLayer.forward`).

        Returns (policy_logits, aux_logits or None, values, hT, cT), one
        row per input row. Row-independent products throughout: gemms
        for the LSTM and the trunk (``rows="gemm"``), one vector-matrix
        call per row for the heads (``rows=True``), so results are
        independent of how the sequence is sliced or laid out in lanes.
        ``keep`` false runs the LSTM without what its backward pass reads,
        for a pass that only acts.
        """
        hs, hT, cT = self.lstm.forward(obs, h0, c0, resets, keep)
        y = self.fc1.forward(hs, rows="gemm")
        y = self.fc2.forward(y, rows="gemm")
        y = self.fc3.forward(y, rows="gemm")
        policy_logits = self.policy.forward(y, rows=True)
        aux_logits = self.aux.forward(y, rows=True) if want_aux else None
        values = self.value.forward(y, rows=True)[:, 0]
        return policy_logits, aux_logits, values, hT, cT

    def backward_sequence(self, d_policy_logits, d_aux_logits, d_values):
        """Accumulates parameter gradients for the last forward_sequence."""
        dy = self.policy.backward(d_policy_logits)
        if d_aux_logits is not None:
            dy = dy + self.aux.backward(d_aux_logits)
        dy = dy + self.value.backward(d_values[:, None])
        dy = self.fc3.backward(dy)
        dy = self.fc2.backward(dy)
        dy = self.fc1.backward(dy)
        self.lstm.backward(dy)

    def act(self, observations, h, c, reset, rng=None, mode="sample"):
        """Policy evaluation over a (T, 80) run from one episode, or over N
        episodes stepped together: (N, H) state and (T * N, 80) rows,
        time-major, the lane count taken from the state's shape.

        Returns (actions, log_probs, values, hT, cT), one entry per row
        in the first three. `reset` nonzero discards every lane's incoming
        recurrent state before its first row, marking an episode start.
        No backward pass follows: the LSTM runs without its per-row gates
        and states, and no layer keeps the run's rows afterwards.
        """
        obs = np.asarray(observations, dtype=np.float64)
        resets = np.zeros(obs.shape[0], dtype=np.uint8)
        resets[: 1 if np.ndim(h) == 1 else len(h)] = 1 if reset else 0
        logits, _, values, hT, cT = self.forward_sequence(
            obs, h, c, resets, want_aux=False, keep=False
        )
        clear_caches(self.layers)
        probs = softmax(logits)
        if not np.all(np.isfinite(probs)):
            raise NonFiniteValue("policy probabilities are not finite")
        if mode == "greedy":
            actions = np.argmax(probs, axis=1)
        elif mode == "sample":
            # first index whose cumulative probability exceeds u, else the last
            below = rng.random(obs.shape[0])[:, None] < np.cumsum(probs, axis=1)
            actions = np.where(below.any(axis=1), below.argmax(axis=1), N_ACTIONS - 1)
        else:
            raise ValueError(f"unknown act mode {mode!r}")
        log_probs = log_softmax(logits)[np.arange(obs.shape[0]), actions]
        return actions, log_probs, values, hT, cT


class RolloutBuffer:
    """Fixed-length per-step records from one collection phase."""

    def __init__(self, length, obs_size=80, hidden_size=128):
        self.length = length
        self.obs = np.zeros((length, obs_size))
        self.actions = np.zeros(length, dtype=np.int64)
        self.log_probs = np.zeros(length)
        self.rewards = np.zeros(length)
        self.values = np.zeros(length)
        self.labels = np.zeros(length, dtype=np.int64)
        self.dones = np.zeros(length, dtype=np.uint8)
        self.resets = np.zeros(length, dtype=np.uint8)
        self.hprev = np.zeros((length, hidden_size))
        self.cprev = np.zeros((length, hidden_size))
        self.pos = 0

    def add(self, obs, action, log_prob, reward, value, label, done, reset, h, c):
        t = self.pos
        self.obs[t] = obs
        self.actions[t] = action
        self.log_probs[t] = log_prob
        self.rewards[t] = reward
        self.values[t] = value
        self.labels[t] = label
        self.dones[t] = done
        self.resets[t] = reset
        self.hprev[t] = h
        self.cprev[t] = c
        self.pos += 1

    @property
    def full(self):
        return self.pos == self.length


def compute_gae(rewards, values, dones, bootstrap_value, discount, gae_lambda):
    """Backward recursion for advantage estimates.

    dones[t] set means the episode ended at step t: no value bootstraps
    across that boundary and the recursion restarts behind it. Returns
    (advantages, return_targets) with targets = advantages + values.
    """
    rewards = np.asarray(rewards, dtype=np.float64)
    values = np.asarray(values, dtype=np.float64)
    dones = np.asarray(dones)
    T = rewards.shape[0]
    if T == 0:
        raise EmptyBuffer("cannot compute advantages over zero steps")
    advantages = np.zeros(T)
    last = 0.0
    for t in range(T - 1, -1, -1):
        nonterminal = 0.0 if dones[t] else 1.0
        next_value = bootstrap_value if t == T - 1 else values[t + 1]
        delta = rewards[t] + discount * next_value * nonterminal - values[t]
        last = delta + discount * gae_lambda * nonterminal * last
        advantages[t] = last
    return advantages, advantages + values


def normalize_advantages(advantages):
    adv = np.asarray(advantages, dtype=np.float64)
    return (adv - adv.mean()) / (adv.std() + 1e-8)


def ppo_clip_objective(log_prob_new, log_prob_old, advantage, clip_epsilon):
    """Per-sample clipped surrogate, min(r A, clip(r) A) with
    r = exp(log_prob_new - log_prob_old). The training loss negates the
    batch mean of this value."""
    lpn = np.asarray(log_prob_new, dtype=np.float64)
    lpo = np.asarray(log_prob_old, dtype=np.float64)
    adv = np.asarray(advantage, dtype=np.float64)
    if not (
        np.all(np.isfinite(lpn)) and np.all(np.isfinite(lpo)) and np.all(np.isfinite(adv))
    ):
        raise NonFiniteValue("clip objective inputs are not finite")
    ratio = np.exp(lpn - lpo)
    clipped = np.clip(ratio, 1.0 - clip_epsilon, 1.0 + clip_epsilon)
    return np.minimum(ratio * adv, clipped * adv)


def auxiliary_loss(aux_distribution, cluster_labels):
    """Mean negative log-probability assigned to the true cluster."""
    probs = np.atleast_2d(np.asarray(aux_distribution, dtype=np.float64))
    labels = np.atleast_1d(np.asarray(cluster_labels))
    if np.any(labels < 0) or np.any(labels >= probs.shape[1]):
        raise LabelOutOfRange(
            f"labels must lie in [0, {probs.shape[1]}), got "
            f"[{labels.min()}, {labels.max()}]"
        )
    picked = probs[np.arange(labels.shape[0]), labels]
    return float(np.mean(-np.log(picked)))


def value_loss(value_estimates, return_targets):
    est = np.asarray(value_estimates, dtype=np.float64)
    tgt = np.asarray(return_targets, dtype=np.float64)
    if est.shape != tgt.shape:
        raise ValueError(f"shape mismatch {est.shape} vs {tgt.shape}")
    return float(np.mean((est - tgt) ** 2))


class UpdateStats:
    def __init__(self, policy_loss, value_loss, aux_loss, entropy, clip_fraction):
        self.policy_loss = policy_loss
        self.value_loss = value_loss
        self.aux_loss = aux_loss
        self.entropy = entropy
        self.clip_fraction = clip_fraction


def _segment_bounds(total, size):
    return [(s, min(s + size, total)) for s in range(0, total, size)]


def minibatch_pass(
    net, obs, h0, c0, resets, actions, log_probs_old, advantages,
    returns_target, labels, config,
):
    """Forward and backward one contiguous rollout slice.

    The total loss is
        -clip_objective + value_w * value_mse + aux_w * aux_ce
        - entropy_coef * policy_entropy
    with the auxiliary term skipped entirely when its weight is zero so
    the aux head receives no gradient at all. Returns (total, policy,
    value, aux, entropy, clip_fraction), and ``net.grads`` holds
    d(total)/d(params) on return.
    """
    n = obs.shape[0]
    eps = config.clip_epsilon
    use_aux = config.aux_loss_weight > 0.0
    logits, aux_logits, values, _, _ = net.forward_sequence(
        obs, h0, c0, resets, want_aux=use_aux
    )
    log_probs = log_softmax(logits)
    probs = softmax(logits)
    idx = np.arange(n)
    lpn = log_probs[idx, actions]
    obj = ppo_clip_objective(lpn, log_probs_old, advantages, eps)
    policy_loss_val = -float(np.mean(obj))

    ratio = np.exp(lpn - log_probs_old)
    entropy = -np.sum(probs * log_probs, axis=1)
    entropy_val = float(np.mean(entropy))
    v_loss_val = value_loss(values, returns_target)

    if use_aux:
        aux_p = softmax(aux_logits)
        aux_loss_val = auxiliary_loss(aux_p, labels)
    else:
        aux_loss_val = 0.0

    total = (
        policy_loss_val
        + config.value_loss_weight * v_loss_val
        + config.aux_loss_weight * aux_loss_val
        - config.entropy_coefficient * entropy_val
    )
    if not np.isfinite(total):
        raise NonFiniteValue("non-finite minibatch loss")
    clip_fraction = float(np.mean(np.abs(ratio - 1.0) > eps))

    clipped = np.clip(ratio, 1.0 - eps, 1.0 + eps)
    unclipped_active = ratio * advantages <= clipped * advantages
    onehot = np.zeros((n, N_ACTIONS))
    onehot[idx, actions] = 1.0
    # d/dlogits of -mean(min(rA, clip(r)A)); only the unclipped
    # branch carries gradient
    coef = np.where(unclipped_active, ratio * advantages, 0.0) / n
    d_logits = -coef[:, None] * (onehot - probs)
    if config.entropy_coefficient > 0.0:
        d_logits += config.entropy_coefficient * probs * (log_probs + entropy[:, None]) / n
    d_values = config.value_loss_weight * 2.0 * (values - returns_target) / n
    if use_aux:
        aux_onehot = np.zeros((n, N_CLUSTERS))
        aux_onehot[idx, labels] = 1.0
        d_aux = config.aux_loss_weight * (aux_p - aux_onehot) / n
    else:
        d_aux = None
    net.grads.fill(0.0)
    net.backward_sequence(d_logits, d_aux, d_values)

    return total, policy_loss_val, v_loss_val, aux_loss_val, entropy_val, clip_fraction


def update(net, optimizer, buffer, advantages, returns_target, config, rng):
    """Several epochs of minibatch updates over one rollout.

    Minibatches are contiguous rollout slices replayed from their stored
    LSTM entry state; the slice order is shuffled each epoch. Gradients
    are global-norm clipped before each Adam step.
    """
    if not buffer.full:
        raise EmptyBuffer("rollout buffer is not full")
    grads = collect_grads(net.layers)
    bounds = _segment_bounds(buffer.length, config.minibatch_size)

    sums = np.zeros(4)
    clip_hits = 0.0
    n_batches = 0
    for _ in range(config.epochs_per_update):
        order = rng.permutation(len(bounds))
        for seg in order:
            s, e = bounds[seg]
            _, p_l, v_l, a_l, ent, clip_frac = minibatch_pass(
                net,
                buffer.obs[s:e],
                buffer.hprev[s],
                buffer.cprev[s],
                buffer.resets[s:e],
                buffer.actions[s:e],
                buffer.log_probs[s:e],
                advantages[s:e],
                returns_target[s:e],
                buffer.labels[s:e],
                config,
            )
            clip_grad_norm(grads, config.max_grad_norm)
            optimizer.step(net.grads)
            sums += (p_l, v_l, a_l, ent)
            clip_hits += clip_frac
            n_batches += 1

    avg = sums / n_batches
    return UpdateStats(avg[0], avg[1], avg[2], avg[3], clip_hits / n_batches)


LOG_HEADER = "timestep,mean_reward,policy_loss,value_loss,aux_loss,entropy,clip_fraction"


def collect_rollout(net, env, labels, buffer, rng, state):
    """Fills the buffer from its first row by acting in the environment;
    every field of every row is written, so a buffer refilled this way
    holds what a fresh one would.

    `state` carries (h, c, need_reset) across rollouts so the recurrent
    state and episode schedule persist. Returns the bootstrap value for
    the step after the final one (0 when that step ended an episode).
    """
    h, c, need_reset = state
    buffer.pos = 0
    while not buffer.full:
        reset = 1 if need_reset else 0
        if need_reset:
            start = int(rng.integers(0, env.max_start_index() + 1))
            obs = env.reset(start)
            need_reset = False
        else:
            obs = env.windows[env.cursor]
        window_index = env.cursor
        actions, log_probs, values, hT, cT = net.act(
            obs[None], h, c, reset, rng, mode="sample"
        )
        action = int(actions[0])
        result = env.step(ACTION_VALUES[action])
        buffer.add(
            obs, action, log_probs[0], result.reward, values[0],
            labels[window_index], result.done, reset, h, c,
        )
        h, c = hT, cT
        if result.done:
            need_reset = True

    if buffer.dones[-1]:
        bootstrap = 0.0
    else:
        _, _, values, _, _ = net.act(
            env.windows[env.cursor][None], h, c, 0, mode="greedy"
        )
        bootstrap = float(values[0])
    state[0], state[1], state[2] = h, c, need_reset
    return bootstrap


def train(
    windows,
    returns,
    labels,
    env_config,
    config,
    seed,
    checkpoint_dir=None,
    log_path=None,
):
    """Full training loop: rollouts alternating with updates.

    Runs while another whole rollout still fits into total_timesteps.
    Returns (net, log_rows) where each log row mirrors LOG_HEADER. After
    each update the whole log is rewritten as ``<log_path>.partial``,
    which is renamed to ``log_path`` when the loop ends; final.bin comes last.
    """
    labels = np.asarray(labels, dtype=np.int64)
    if labels.shape[0] != np.asarray(windows).shape[0]:
        raise ValueError("need one cluster label per window")
    windows = np.asarray(windows, dtype=np.float64)
    rng = np.random.default_rng(seed)
    net = PolicyNetwork(input_size=windows.shape[1], rng=rng)
    optimizer = Adam(net.params, config.learning_rate)
    env = TradingEnv(windows, returns, env_config)

    h, c = net.initial_state()
    state = [h, c, True]
    buffer = RolloutBuffer(config.rollout_length, net.input_size, net.hidden_size)
    log_rows = []
    steps_done = 0
    n_updates = 0
    while steps_done + config.rollout_length <= config.total_timesteps:
        bootstrap = collect_rollout(net, env, labels, buffer, rng, state)
        advantages, returns_target = compute_gae(
            buffer.rewards, buffer.values, buffer.dones, bootstrap,
            config.discount, config.gae_lambda,
        )
        norm_adv = normalize_advantages(advantages)
        stats = update(net, optimizer, buffer, norm_adv, returns_target, config, rng)
        steps_done += config.rollout_length
        n_updates += 1
        log_rows.append(
            f"{steps_done},{np.mean(buffer.rewards):.10g},"
            f"{stats.policy_loss:.10g},{stats.value_loss:.10g},"
            f"{stats.aux_loss:.10g},{stats.entropy:.10g},"
            f"{stats.clip_fraction:.10g}"
        )
        if log_path:
            write_artifact(f"{log_path}.partial", "\n".join([LOG_HEADER, *log_rows, ""]))
        if checkpoint_dir and n_updates % config.checkpoint_every == 0:
            save_policy(
                f"{checkpoint_dir}/checkpoint_{steps_done}.bin",
                net, optimizer, config, seed, steps_done,
            )
    if log_path:
        os.replace(f"{log_path}.partial", log_path)
    if checkpoint_dir:
        save_policy(f"{checkpoint_dir}/final.bin", net, optimizer, config, seed, steps_done)
    return net, log_rows


def save_policy(path, net, optimizer, config, seed, steps_done):
    blocks = dict(net.param_blocks())
    if optimizer is not None:
        # flat moments over `net.params`, stored as one block per parameter
        like = list(blocks.values())
        moments = zip(list(blocks), split_flat(optimizer.m, like), split_flat(optimizer.v, like))
        for name, marr, varr in moments:
            blocks[f"adam.m.{name}"] = marr
            blocks[f"adam.v.{name}"] = varr
        adam_step = optimizer.step_count
    else:
        adam_step = 0
    meta = {
        "kind": "policy",
        "seed": seed,
        "steps_done": steps_done,
        "adam_step": adam_step,
        "input_size": net.input_size,
        "hidden_size": net.hidden_size,
        "trunk": list(net.trunk_sizes),
        "config": asdict(config) if config else None,
    }
    save_container(path, meta, blocks)


def _policy_shapes(meta):
    sizes = [meta["input_size"], meta["hidden_size"], *meta["trunk"]]
    if len(sizes) != 5 or not all(is_count(n) for n in sizes):
        raise ValueError(
            "input_size, hidden_size and the three trunk sizes must be positive integers"
        )
    return block_shapes(_layer_table(sizes[0], sizes[1], sizes[2:]))


def load_policy(path):
    """Returns (net, meta), through `checkpoint.load_checked`, which reads
    only the parameter blocks: the Adam moments stored next to them, two
    thirds of the file, are passed over with a seek, though their lengths
    are checked (training cannot resume from a checkpoint yet). The blocks
    are copied into the net's arena, so the load holds the parameters
    twice at most, and the gradients once."""
    meta, blocks = load_checked(path, "policy", _policy_shapes)
    net = PolicyNetwork(meta["input_size"], meta["hidden_size"], tuple(meta["trunk"]))
    net.load_param_blocks(blocks)
    return net, meta
