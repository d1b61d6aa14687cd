"""Policy network, advantage estimation, and the update loop."""

import struct
import tempfile
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from conftest import TextbookAdam, reachable_arrays
from fxppo import agent
from fxppo.agent import (
    EmptyBuffer,
    LabelOutOfRange,
    PPOConfig,
    PolicyNetwork,
    RolloutBuffer,
    auxiliary_loss,
    collect_rollout,
    compute_gae,
    load_policy,
    minibatch_pass,
    normalize_advantages,
    ppo_clip_objective,
    save_policy,
    train,
    update,
    value_loss,
)
from fxppo.checkpoint import CheckpointError, load_checked, load_container, save_container
from fxppo.env import EnvConfig, TradingEnv
from fxppo.nn import Adam, collect_grads, log_softmax, softmax


def tiny_net(seed=0, obs=6, hidden=5, trunk=(4, 4, 4)):
    return PolicyNetwork(obs, hidden, trunk, np.random.default_rng(seed))


def make_market(n_steps=200, seed=0, obs=6):
    rng = np.random.default_rng(seed)
    returns = rng.normal(scale=0.004, size=n_steps)
    window_len = 16
    n_windows = n_steps - window_len + 1
    windows = rng.normal(size=(n_windows, obs))
    labels = rng.integers(0, 12, size=n_windows)
    return windows, returns, labels


def fill_buffer(net, env, labels, seed=1, length=48):
    buffer = RolloutBuffer(length, net.input_size, net.hidden_size)
    rng = np.random.default_rng(seed)
    h, c = net.initial_state()
    state = [h, c, True]
    bootstrap = collect_rollout(net, env, labels, buffer, rng, state)
    return buffer, bootstrap, rng


class TestPolicyNetwork:
    def test_default_architecture(self):
        net = PolicyNetwork(rng=np.random.default_rng(0))
        assert net.lstm.input_size == 80 and net.lstm.hidden_size == 128
        assert [l.out_size for l in (net.fc1, net.fc2, net.fc3)] == [32, 64, 64]
        assert net.policy.out_size == 3
        assert net.aux.out_size == 12
        assert net.value.out_size == 1

    def test_heads_are_distributions(self):
        net = tiny_net(3)
        obs = np.random.default_rng(1).normal(size=(7, 6))
        h, c = net.initial_state()
        logits, aux_logits, values, _, _ = net.forward_sequence(
            obs, h, c, np.zeros(7, dtype=np.uint8)
        )
        p = softmax(logits)
        q = softmax(aux_logits)
        assert np.all(np.abs(p.sum(axis=1) - 1.0) < 1e-12)
        assert np.all(np.abs(q.sum(axis=1) - 1.0) < 1e-12)
        assert values.shape == (7,)

    def test_equal_logits_give_uniform_policy(self):
        net = tiny_net(0)
        for layer in net.layers:
            for p in layer.params():
                p[:] = 0.0
        h, c = net.initial_state()
        logits, aux_logits, _, _, _ = net.forward_sequence(
            np.ones((1, 6)), h, c, np.ones(1, dtype=np.uint8)
        )
        p = softmax(logits)[0]
        aux = softmax(aux_logits)[0]
        assert np.all(np.abs(p - 1.0 / 3.0) < 1e-12)
        assert np.all(np.abs(aux - 1.0 / 12.0) < 1e-12)

    def test_greedy_picks_argmax(self):
        net = tiny_net(0)
        for layer in net.layers:
            for p in layer.params():
                p[:] = 0.0
        net.policy.b[:] = np.log([0.2, 0.5, 0.3])
        h, c = net.initial_state()
        actions, log_probs, _, _, _ = net.act(np.zeros((1, 6)), h, c, 1, mode="greedy")
        assert actions[0] == 1
        assert log_probs[0] == pytest.approx(np.log(0.5), abs=1e-12)

    def test_sampling_frequencies(self):
        net = tiny_net(0)
        for layer in net.layers:
            for p in layer.params():
                p[:] = 0.0
        net.policy.b[:] = np.log([0.2, 0.5, 0.3])
        h, c = net.initial_state()
        rng = np.random.default_rng(99)
        counts = np.zeros(3)
        n = 30_000
        for _ in range(n):
            a, _, _, _, _ = net.act(np.zeros((1, 6)), h, c, 1, rng)
            counts[a[0]] += 1
        freqs = counts / n
        assert np.all(np.abs(freqs - [0.2, 0.5, 0.3]) < 0.02)

    def test_state_threading_changes_output(self):
        net = tiny_net(5)
        h, c = net.initial_state()
        obs = np.ones(6)
        a1 = net.act(obs[None], h, c, 1, mode="greedy")
        h2, c2 = a1[3], a1[4]
        logits_fresh, _, _, _, _ = net.forward_sequence(
            obs[None], h, c, np.ones(1, dtype=np.uint8)
        )
        logits_carried, _, _, _, _ = net.forward_sequence(
            obs[None], h2, c2, np.zeros(1, dtype=np.uint8)
        )
        assert not np.array_equal(logits_fresh, logits_carried)

    @pytest.mark.parametrize("mode", ["greedy", "sample"])
    @pytest.mark.parametrize("reset", [0, 1])
    def test_run_matches_one_row_calls(self, mode, reset):
        net = tiny_net(4)
        net.policy.w *= 20.0  # sharpen so the greedy action moves
        rng = np.random.default_rng(2)
        obs = rng.normal(size=(40, 6))
        h0, c0 = rng.normal(size=5), rng.normal(size=5)
        run = net.act(obs, h0, c0, reset, np.random.default_rng(7), mode)
        step_rng = np.random.default_rng(7)
        h, c = h0, c0
        rows = []
        for t in range(obs.shape[0]):
            a, lp, v, h, c = net.act(
                obs[t : t + 1], h, c, reset if t == 0 else 0, step_rng, mode
            )
            rows.append((a[0], lp[0], v[0]))
        actions, log_probs, values = (np.array(col) for col in zip(*rows))
        assert len(set(actions)) > 1
        assert np.array_equal(run[0], actions)
        assert np.array_equal(run[1], log_probs)
        assert np.array_equal(run[2], values)
        assert np.array_equal(run[3], h) and np.array_equal(run[4], c)

    @pytest.mark.parametrize("reset", [0, 1])
    def test_lanes_match_one_lane_calls(self, reset):
        # lane n of a 3-lane call is the rows obs[n::3]
        net = tiny_net(9)
        net.policy.w *= 20.0
        rng = np.random.default_rng(4)
        obs = rng.normal(size=(3 * 20, 6))
        h0, c0 = rng.normal(size=(3, 5)), rng.normal(size=(3, 5))
        lanes = net.act(obs, h0, c0, reset, mode="greedy")
        assert lanes[3].shape == lanes[4].shape == (3, 5)
        for n in range(3):
            alone = net.act(obs[n::3], h0[n], c0[n], reset, mode="greedy")
            for got, want in zip(lanes[:3], alone[:3]):
                assert np.array_equal(got[n::3], want)
            assert np.array_equal(lanes[3][n], alone[3])
            assert np.array_equal(lanes[4][n], alone[4])

    def test_act_keeps_no_rows(self):
        # the rollout's one-row calls and the backtest's calls of many
        # episodes as lanes leave no layer holding their rows
        net = tiny_net(8)
        obs = np.random.default_rng(3).normal(size=(3 * 257, 6))
        for rows, h in ((257, np.zeros(5)), (3 * 257, np.zeros((3, 5)))):
            net.act(obs[:rows], h, h, 1, mode="greedy")
            held = [a.shape for a in reachable_arrays(net) if a.shape[:1] == (rows,)]
            assert held == []

    def test_save_load_round_trip(self, tmp_path):
        net = tiny_net(7)
        opt = Adam(net.params, 1e-3)
        path = tmp_path / "policy.bin"
        cfg = PPOConfig(rollout_length=48, total_timesteps=48)
        save_policy(path, net, opt, cfg, seed=30, steps_done=48)
        net2, meta = load_policy(path)
        assert meta["seed"] == 30 and meta["steps_done"] == 48
        for name, arr in net.param_blocks().items():
            assert np.array_equal(arr, net2.param_blocks()[name])


def policy_container(trunk=(4, 4, 4)):
    """Bytes of a saved tiny policy, Adam moments included."""
    net = tiny_net(7, trunk=trunk)
    with tempfile.TemporaryDirectory() as d:
        path = Path(d, "policy.bin")
        save_policy(path, net, Adam(net.params, 1e-3), PPOConfig(),
                    seed=30, steps_done=0)
        return path.read_bytes()


POLICY = policy_container()
META_END = 16 + struct.unpack("<I", POLICY[12:16])[0]


def change(marker, offset, new):
    """(position, xor mask) that turns the byte `offset` into `marker` into `new`."""
    pos = POLICY.index(marker) + offset
    return pos, POLICY[pos] ^ ord(new)


class TestLoadPolicy:
    def test_round_trip_distinct_trunk_sizes(self, tmp_path):
        path = tmp_path / "policy.bin"
        path.write_bytes(policy_container(trunk=(3, 4, 5)))
        net, meta = load_policy(path)
        assert net.trunk_sizes == (3, 4, 5) and meta["trunk"] == [3, 4, 5]
        for name, arr in tiny_net(7, trunk=(3, 4, 5)).param_blocks().items():
            assert np.array_equal(arr, net.param_blocks()[name])

    @pytest.mark.parametrize("key, value", [
        ("kind", "autoencoder"),
        ("hidden_size", 9e9),
        ("hidden_size", 9_000_000_000),
        ("hidden_size", 6),
        ("hidden_size", 0),
        ("hidden_size", True),
        ("input_size", "6"),
        ("trunk", [4, 4]),
        ("trunk", 4),
    ])
    def test_meta_that_does_not_fit_the_blocks(self, tmp_path, key, value):
        src, path = tmp_path / "policy.bin", tmp_path / "bad.bin"
        src.write_bytes(POLICY)
        meta, blocks = load_container(src)
        save_container(path, {**meta, key: value}, blocks)
        with pytest.raises(CheckpointError):
            load_policy(path)

    def test_missing_block(self, tmp_path):
        src, path = tmp_path / "policy.bin", tmp_path / "bad.bin"
        src.write_bytes(POLICY)
        meta, blocks = load_container(src)
        del blocks["value.b"]
        save_container(path, meta, blocks)
        with pytest.raises(CheckpointError, match="value.b"):
            load_policy(path)

    @given(
        st.one_of(st.integers(0, META_END + 256), st.integers(0, len(POLICY) - 1)),
        st.integers(1, 255),
    )
    @example(*change(b'"input_size"', 3, "X"))
    @example(*change(b"fc1.w", 4, "x"))
    @example(*change(b'"hidden_size": 5', 15, "6"))
    @example(*change(b'"hidden_size": 5', 14, "-"))
    @example(*change(b'"kind": "policy"', 9, "P"))
    @settings(max_examples=300, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_single_byte_change_loads_or_raises_checkpoint_error(self, tmp_path, pos, mask):
        data = bytearray(POLICY)
        data[pos] ^= mask
        path = tmp_path / "policy.bin"
        path.write_bytes(bytes(data))
        try:
            load_policy(path)
        except CheckpointError:
            pass


def production_checkpoint(path):
    """A saved policy at the production sizes (118 448 parameters), Adam
    moments included; returns its parameter blocks."""
    net = PolicyNetwork(rng=np.random.default_rng(5))
    opt = Adam(net.params, 1e-3)
    net.grads[:] = np.random.default_rng(6).normal(size=net.grads.shape)
    opt.step(net.grads)
    save_policy(path, net, opt, PPOConfig(), seed=30, steps_done=600)
    assert net.params.size == 118_448
    return {name: a.copy() for name, a in net.param_blocks().items()}


class TestLoadPolicyMemory:
    def test_production_load_reads_only_the_parameters(self, tmp_path):
        # the Adam moments, two thirds of the file, are skipped and the net
        # is built in its arena: the load peaks at the parameter blocks
        # read plus the net's parameters and gradients (2.7 MiB)
        path = tmp_path / "final.bin"
        want = production_checkpoint(path)
        _, blocks = load_checked(path, "policy", agent._policy_shapes)
        assert list(blocks) == list(want)
        del blocks
        tracemalloc.start()
        try:
            net, meta = load_policy(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 3 * 2**20
        assert meta["adam_step"] == 1
        for name, a in net.param_blocks().items():
            assert np.array_equal(a, want[name])

    def test_cut_or_padded_around_skipped_moments(self, tmp_path):
        path = tmp_path / "policy.bin"
        moments = POLICY.index(b"adam.m.fc1.w")
        for data, match in ((POLICY[: moments + 40], "truncated"), (POLICY[:-3], "truncated"),
                            (POLICY + b"\x00", "1 trailing"), (POLICY + POLICY[-8:], "8 trailing")):
            path.write_bytes(data)
            with pytest.raises(CheckpointError, match=match):
                load_policy(path)
        path.write_bytes(POLICY)
        load_policy(path)


class TestGAE:
    def test_all_zero(self):
        adv, ret = compute_gae(
            np.zeros(8), np.zeros(8), np.zeros(8, dtype=np.uint8), 0.0, 0.99, 0.95
        )
        assert np.all(adv == 0.0) and np.all(ret == 0.0)

    def test_single_step_identity(self):
        adv, ret = compute_gae([1.0], [0.0], [0], 0.0, 1.0, 1.0)
        assert adv[0] == 1.0
        assert ret[0] == 1.0

    def test_direct_summation_oracle(self):
        rng = np.random.default_rng(12)
        T = 5
        rewards = rng.normal(size=T)
        values = rng.normal(size=T)
        dones = np.array([0, 0, 1, 0, 0], dtype=np.uint8)
        bootstrap = rng.normal()
        gamma, lam = 0.99, 0.95

        def delta(t):
            nonterminal = 0.0 if dones[t] else 1.0
            nv = bootstrap if t == T - 1 else values[t + 1]
            return rewards[t] + gamma * nv * nonterminal - values[t]

        expect = np.zeros(T)
        for t in range(T):
            acc = 0.0
            scale = 1.0
            for l in range(t, T):
                acc += scale * delta(l)
                if dones[l]:
                    break
                scale *= gamma * lam
            expect[t] = acc

        adv, ret = compute_gae(rewards, values, dones, bootstrap, gamma, lam)
        assert np.allclose(adv, expect, atol=1e-12)
        assert np.allclose(ret, expect + values, atol=1e-12)

    def test_empty_buffer(self):
        with pytest.raises(EmptyBuffer):
            compute_gae([], [], [], 0.0, 0.99, 0.95)

    def test_normalization(self):
        adv = np.random.default_rng(3).normal(size=100) * 7 + 2
        norm = normalize_advantages(adv)
        assert abs(norm.mean()) <= 1e-10
        assert abs(norm.std() - 1.0) <= 1e-6


class TestLossPieces:
    def test_clip_objective_cases(self):
        # r = 1.3 with positive advantage clips at 1.2
        val = ppo_clip_objective(np.log(1.3), 0.0, 1.0, 0.2)
        assert val == pytest.approx(1.2, abs=1e-12)
        # r = 0.5 with negative advantage clips at 0.8
        val = ppo_clip_objective(np.log(0.5), 0.0, -1.0, 0.2)
        assert val == pytest.approx(-0.8, abs=1e-12)
        assert ppo_clip_objective(0.37, 0.0, 0.0, 0.2) == 0.0

    def test_aux_loss_cases(self):
        p = np.zeros((1, 12))
        p[0, 4] = 1.0
        assert auxiliary_loss(p, [4]) == pytest.approx(0.0, abs=1e-12)
        uniform = np.full((1, 12), 1.0 / 12.0)
        assert auxiliary_loss(uniform, [7]) == pytest.approx(np.log(12), abs=1e-12)
        half = np.full((1, 12), 0.5 / 11.0)
        half[0, 2] = 0.5
        assert auxiliary_loss(half, [2]) == pytest.approx(np.log(2), abs=1e-12)

    def test_aux_label_out_of_range(self):
        with pytest.raises(LabelOutOfRange):
            auxiliary_loss(np.full((1, 12), 1 / 12), [12])

    def test_value_loss_cases(self):
        assert value_loss([1.0, 2.0], [1.0, 2.0]) == 0.0
        assert value_loss([0.0, 0.0], [1.0, 1.0]) == 1.0
        rng = np.random.default_rng(8)
        a, b = rng.normal(size=100), rng.normal(size=100)
        direct = sum((x - y) ** 2 for x, y in zip(a, b)) / 100
        assert value_loss(a, b) == pytest.approx(direct, rel=1e-12)


class TestRatioIdentity:
    def test_replay_reproduces_rollout_exactly(self):
        net = tiny_net(11)
        windows, returns, labels = make_market(seed=4)
        env = TradingEnv(windows, returns, EnvConfig(episode_length=20))
        buffer, bootstrap, _ = fill_buffer(net, env, labels, length=48)
        adv, _ = compute_gae(
            buffer.rewards, buffer.values, buffer.dones, bootstrap, 0.99, 0.95
        )
        for s, e in [(0, 16), (16, 32), (32, 48)]:
            logits, _, values, _, _ = net.forward_sequence(
                buffer.obs[s:e], buffer.hprev[s], buffer.cprev[s],
                buffer.resets[s:e],
            )
            lpn = log_softmax(logits)[np.arange(e - s), buffer.actions[s:e]]
            # bitwise: the replayed log-probs equal the rollout's
            assert np.array_equal(lpn, buffer.log_probs[s:e])
            assert np.array_equal(values, buffer.values[s:e])
            ratio = np.exp(lpn - buffer.log_probs[s:e])
            assert np.all(np.abs(ratio - 1.0) <= 1e-10)
            obj = ppo_clip_objective(lpn, buffer.log_probs[s:e], adv[s:e], 0.2)
            assert np.array_equal(obj, adv[s:e])


def test_refilled_buffer_holds_what_a_fresh_one_would():
    # train refills one RolloutBuffer each iteration; the second rollout
    # must record what it would record in a buffer of its own
    net = tiny_net(12)
    windows, returns, labels = make_market(seed=5)
    runs = []
    for refill in (True, False):
        env = TradingEnv(windows, returns, EnvConfig(episode_length=20))
        buffer = RolloutBuffer(48, net.input_size, net.hidden_size)
        rng = np.random.default_rng(2)
        state = [*net.initial_state(), True]
        collect_rollout(net, env, labels, buffer, rng, state)
        if not refill:
            buffer = RolloutBuffer(48, net.input_size, net.hidden_size)
        bootstrap = collect_rollout(net, env, labels, buffer, rng, state)
        runs.append((bootstrap, {k: np.copy(v) for k, v in vars(buffer).items()}))
    (boot_a, a), (boot_b, b) = runs
    assert boot_a == boot_b and a.keys() == b.keys()
    for name in a:
        assert np.array_equal(a[name], b[name]), name


def composite_loss_value(net, batch, config):
    return minibatch_pass(net, *batch, config)[0]


class TestCompositeGradient:
    def test_matches_finite_differences(self):
        net = tiny_net(21)
        windows, returns, labels = make_market(seed=9)
        env = TradingEnv(windows, returns, EnvConfig(episode_length=10))
        buffer, bootstrap, _ = fill_buffer(net, env, labels, length=4)
        adv, ret = compute_gae(
            buffer.rewards, buffer.values, buffer.dones, bootstrap, 0.99, 0.95
        )
        adv = normalize_advantages(adv)
        config = PPOConfig(rollout_length=4, minibatch_size=4)
        batch = (
            buffer.obs, buffer.hprev[0], buffer.cprev[0], buffer.resets,
            buffer.actions, buffer.log_probs, adv, ret, buffer.labels,
        )
        # nudge parameters off the rollout point so the clip min() has a
        # unique active branch everywhere
        nudge = np.random.default_rng(77)
        for p in net.param_blocks().values():
            p += nudge.normal(scale=1e-3, size=p.shape)

        minibatch_pass(net, *batch, config)
        analytic = [g.copy() for g in collect_grads(net.layers)]
        params = list(net.param_blocks().values())
        h = 1e-5
        worst = 0.0
        for p, g in zip(params, analytic):
            flat = p.reshape(-1)
            gflat = g.reshape(-1)
            probe = np.linspace(0, flat.size - 1, min(flat.size, 12)).astype(int)
            for i in probe:
                orig = flat[i]
                flat[i] = orig + h
                up = composite_loss_value(net, batch, config)
                flat[i] = orig - h
                down = composite_loss_value(net, batch, config)
                flat[i] = orig
                numeric = (up - down) / (2 * h)
                denom = max(abs(numeric) + abs(gflat[i]), 1e-6)
                worst = max(worst, abs(numeric - gflat[i]) / denom)
        assert worst <= 1e-4


class TestUpdate:
    def setup_pieces(self, aux_weight=0.5, seed=31):
        net = tiny_net(seed)
        windows, returns, labels = make_market(seed=seed)
        env = TradingEnv(windows, returns, EnvConfig(episode_length=20))
        buffer, bootstrap, rng = fill_buffer(net, env, labels, length=48)
        adv, ret = compute_gae(
            buffer.rewards, buffer.values, buffer.dones, bootstrap, 0.99, 0.95
        )
        config = PPOConfig(
            rollout_length=48, minibatch_size=16, aux_loss_weight=aux_weight,
            learning_rate=1e-3,
        )
        return net, buffer, normalize_advantages(adv), ret, config, rng

    def test_flat_adam_matches_per_array_reference(self, tmp_path):
        """`update` steps the net's flat arena with one Adam; the textbook
        Adam stepping every layer's own arrays on the same gradients ends
        on the same bits, and `save_policy` writes the flat moments as that
        optimizer's per-parameter blocks."""

        class PerArrayAdam(TextbookAdam):
            def __init__(self, layers, lr):
                super().__init__([p for layer in layers for p in layer.params()], lr)
                self.layers = layers

            def step(self, grads):
                super().step(collect_grads(self.layers))

        net, buffer, adv, ret, config, _ = self.setup_pieces()
        ref, *_ = self.setup_pieces()
        opt = Adam(net.params, config.learning_rate)
        ref_opt = PerArrayAdam(ref.layers, config.learning_rate)
        for k in range(3):
            update(net, opt, buffer, adv, ret, config, np.random.default_rng(k))
            update(ref, ref_opt, buffer, adv, ret, config, np.random.default_rng(k))
        assert opt.step_count == ref_opt.step_count == 36
        assert all(m.any() for m in ref_opt.m)
        path = tmp_path / "policy.bin"
        save_policy(path, net, opt, config, seed=30, steps_done=48)
        _, blocks = load_container(path)
        names = list(ref.param_blocks())
        assert list(blocks) == [
            *names, *(f"adam.{mv}.{n}" for n in names for mv in ("m", "v"))
        ]
        for k, (name, want) in enumerate(ref.param_blocks().items()):
            assert np.array_equal(net.param_blocks()[name], want)
            assert np.array_equal(blocks[name], want)
            assert np.array_equal(blocks[f"adam.m.{name}"], ref_opt.m[k])
            assert np.array_equal(blocks[f"adam.v.{name}"], ref_opt.v[k])

    def test_update_is_deterministic(self):
        results = []
        for _ in range(2):
            net, buffer, adv, ret, config, _ = self.setup_pieces()
            opt = Adam(net.params, config.learning_rate)
            update(net, opt, buffer, adv, ret, config, np.random.default_rng(5))
            results.append({k: v.copy() for k, v in net.param_blocks().items()})
        for name in results[0]:
            assert np.array_equal(results[0][name], results[1][name])

    def test_aux_weight_zero_freezes_aux_head(self):
        net, buffer, adv, ret, config, _ = self.setup_pieces(aux_weight=0.0)
        before_w = net.aux.w.copy()
        before_b = net.aux.b.copy()
        other_before = net.policy.w.copy()
        opt = Adam(net.params, config.learning_rate)
        stats = update(net, opt, buffer, adv, ret, config, np.random.default_rng(5))
        assert np.array_equal(net.aux.w, before_w)
        assert np.array_equal(net.aux.b, before_b)
        assert not np.array_equal(net.policy.w, other_before)
        assert stats.aux_loss == 0.0

    def test_aux_weight_positive_moves_aux_head(self):
        net, buffer, adv, ret, config, _ = self.setup_pieces(aux_weight=0.5)
        before = net.aux.w.copy()
        opt = Adam(net.params, config.learning_rate)
        stats = update(net, opt, buffer, adv, ret, config, np.random.default_rng(5))
        assert not np.array_equal(net.aux.w, before)
        assert stats.aux_loss > 0.0

    def test_total_loss_is_sum_of_components(self):
        net, buffer, adv, ret, config, _ = self.setup_pieces()
        batch = (
            buffer.obs[:16], buffer.hprev[0], buffer.cprev[0],
            buffer.resets[:16], buffer.actions[:16], buffer.log_probs[:16],
            adv[:16], ret[:16], buffer.labels[:16],
        )
        total, p_l, v_l, a_l, ent, _ = minibatch_pass(net, *batch, config)
        # recompute every piece from scratch via the standalone oracles
        logits, aux_logits, values, _, _ = net.forward_sequence(
            buffer.obs[:16], buffer.hprev[0], buffer.cprev[0], buffer.resets[:16]
        )
        lp = log_softmax(logits)
        lpn = lp[np.arange(16), buffer.actions[:16]]
        expect_p = -np.mean(
            ppo_clip_objective(lpn, buffer.log_probs[:16], adv[:16], 0.2)
        )
        expect_v = value_loss(values, ret[:16])
        expect_a = auxiliary_loss(softmax(aux_logits), buffer.labels[:16])
        expect_ent = float(np.mean(-np.sum(softmax(logits) * lp, axis=1)))
        assert p_l == pytest.approx(expect_p, rel=1e-12)
        assert v_l == pytest.approx(expect_v, rel=1e-12)
        assert a_l == pytest.approx(expect_a, rel=1e-12)
        assert ent == pytest.approx(expect_ent, rel=1e-12)
        assert total == pytest.approx(
            expect_p + 0.5 * expect_v + 0.5 * expect_a - 0.01 * expect_ent,
            rel=1e-12,
        )

    def test_entropy_bounds(self):
        net, buffer, adv, ret, config, _ = self.setup_pieces()
        opt = Adam(net.params, config.learning_rate)
        stats = update(net, opt, buffer, adv, ret, config, np.random.default_rng(5))
        assert 0.0 <= stats.entropy <= np.log(3) + 1e-12


class TestTrain:
    def run_train(self, total, seed=30, rollout=40):
        windows, returns, labels = make_market(n_steps=120, seed=2)
        env_cfg = EnvConfig(episode_length=20)
        config = PPOConfig(
            rollout_length=rollout, total_timesteps=total, minibatch_size=20,
            learning_rate=1e-3, epochs_per_update=2,
        )
        return train(windows, returns, labels, env_cfg, config, seed)

    def test_exactly_one_update(self):
        _, log_rows = self.run_train(total=40)
        assert len(log_rows) == 1

    def test_floor_semantics(self):
        _, log_rows = self.run_train(total=99)
        assert len(log_rows) == 2

    def test_training_is_deterministic(self):
        _, rows1 = self.run_train(total=120)
        _, rows2 = self.run_train(total=120)
        assert rows1 == rows2

    def test_different_seeds_differ(self):
        _, rows1 = self.run_train(total=80, seed=30)
        _, rows2 = self.run_train(total=80, seed=50)
        assert rows1 != rows2

    def test_log_column_count(self):
        _, rows = self.run_train(total=40)
        assert all(len(r.split(",")) == 7 for r in rows)

    def test_checkpoints_written(self, tmp_path):
        windows, returns, labels = make_market(n_steps=120, seed=2)
        config = PPOConfig(
            rollout_length=40, total_timesteps=80, minibatch_size=20,
            learning_rate=1e-3, epochs_per_update=1, checkpoint_every=1,
        )
        log_path = tmp_path / "train.csv"
        net, rows = train(
            windows, returns, labels, EnvConfig(episode_length=20), config,
            seed=30, checkpoint_dir=str(tmp_path), log_path=str(log_path),
        )
        assert (tmp_path / "final.bin").exists()
        assert (tmp_path / "checkpoint_40.bin").exists()
        assert (tmp_path / "checkpoint_80.bin").exists()
        logged = log_path.read_text().strip().split("\n")
        assert logged[0].startswith("timestep,")
        assert logged[1:] == rows
        final, meta = load_policy(tmp_path / "final.bin")
        for name, arr in net.param_blocks().items():
            assert np.array_equal(arr, final.param_blocks()[name])
