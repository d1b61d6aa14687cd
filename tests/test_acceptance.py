"""Top-level acceptance checks for the whole pipeline.

Each test covers exactly one numbered criterion, prints a PASS/FAIL line
(repeated uncaptured in the terminal summary via conftest), and enforces
its own wall-clock budget. Budgets exclude first-call set-up, which a
module fixture triggers up front.
"""

import json
import math
import time
from contextlib import contextmanager
from pathlib import Path

import numpy as np
import pytest

import conftest
from fxppo.agent import (
    AUX_COLUMNS,
    N_ACTIONS,
    PPOConfig,
    PolicyNetwork,
    RolloutBuffer,
    collect_rollout,
    compute_gae,
    minibatch_pass,
    normalize_advantages,
    ppo_clip_objective,
    train,
    update,
)
from fxppo.backtest import BacktestReport, parse_summary, ppi, run_backtest, sharpe_ratio
from fxppo.cli import LABELS_HEADER, REWARDS_HEADER, _read_table
from fxppo.cli import main as cli_main
from fxppo.config import load_config
from fxppo.data import (
    build_windows,
    compute_features,
    parse_candles,
)
from fxppo.env import ACTION_VALUES, EnvConfig, TradingEnv
from fxppo.labeler import (
    AutoencoderConfig,
    _kmeans_pp_init,
    kmeans_assign,
    kmeans_fit,
    label_dataset,
    train_autoencoder,
)
from fxppo.nn import (
    Adam,
    DenseLayer,
    LSTMLayer,
    log_softmax,
    mse_loss,
    split_flat,
)


@contextmanager
def criterion(num, desc, budget_s):
    t0 = time.perf_counter()
    try:
        yield
    except BaseException:
        conftest.ACCEPTANCE_RESULTS.append((num, desc, "FAIL", ""))
        print(f"criterion {num:2d}: FAIL  {desc}")
        raise
    elapsed = time.perf_counter() - t0
    detail = f"  [{elapsed:.2f}s / {budget_s:.0f}s]"
    if elapsed > budget_s:
        conftest.ACCEPTANCE_RESULTS.append((num, desc, "FAIL", detail))
        print(f"criterion {num:2d}: FAIL  {desc}{detail}")
        raise AssertionError(f"{desc}: {elapsed:.2f}s exceeded {budget_s}s budget")
    conftest.ACCEPTANCE_RESULTS.append((num, desc, "PASS", detail))
    print(f"criterion {num:2d}: PASS  {desc}{detail}")


@pytest.fixture(scope="module", autouse=True)
def _warm_kernels():
    # run every hot path once so criterion budgets measure the algorithms,
    # not first-call set-up
    rng = np.random.default_rng(0)
    windows = rng.normal(size=(40, 8))
    returns = rng.normal(scale=0.003, size=55)
    labels = rng.integers(0, 12, size=40)
    net = PolicyNetwork(8, 5, (4, 4, 4), rng)
    env = TradingEnv(windows, returns, EnvConfig(episode_length=10))
    buffer = RolloutBuffer(8, 8, 5)
    h, c = net.initial_state()
    bootstrap = collect_rollout(net, env, labels, buffer, rng, [h, c, True])
    adv, ret = compute_gae(
        buffer.rewards, buffer.values, buffer.dones, bootstrap, 0.99, 0.95
    )
    cfg = PPOConfig(rollout_length=8, minibatch_size=4)
    minibatch_pass(
        net, buffer.obs, buffer.hprev[0], buffer.cprev[0], buffer.resets,
        buffer.actions, buffer.log_probs, normalize_advantages(adv), ret,
        buffer.labels, cfg,
    )
    train_autoencoder(
        rng.normal(size=(30, 8)),
        AutoencoderConfig(hidden_sizes=(6, 5), latent_size=3,
                          batch_size=8, max_epochs=1, patience=1),
        seed=0,
    )
    kmeans_fit(rng.normal(size=(30, 3)), k=3, seed=0)


def rel_err(numeric, analytic):
    return abs(numeric - analytic) / max(abs(numeric) + abs(analytic), 1e-6)


def write_walk_csv(path, n, seed, start_minute=0, scale=0.002):
    rng = np.random.default_rng(seed)
    rows = ["time,open,high,low,close"]
    prev = 1.05
    for i in range(n):
        t = start_minute + i
        c = prev * (1.0 + rng.normal(scale=scale))
        rows.append(
            f"2017-01-{2 + t // 1440:02d}T{(t // 60) % 24:02d}:{t % 60:02d},"
            f"{prev!r},{max(prev, c) * 1.0001!r},{min(prev, c) * 0.9999!r},{c!r}"
        )
        prev = c
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(rows) + "\n")


def prep_series(csv_text):
    features = compute_features(parse_candles(csv_text))
    return build_windows(features), features[:, 0]


class TestCriterion01FormulaExactness:
    def make_fixture(self):
        # 20 hand-picked candles with enough variety that every feature
        # denominator differs
        rng = np.random.default_rng(42)
        candles = []
        c = 1.05
        for i in range(20):
            o = c
            c = round(c * (1.0 + float(rng.uniform(-0.01, 0.01))), 6)
            hi = round(max(o, c) * 1.002, 6)
            lo = round(min(o, c) * 0.998, 6)
            candles.append((o, hi, lo, c))
        return candles

    def test_formulas_match_hand_arithmetic(self, tmp_path):
        with criterion(1, "formula exactness vs hand arithmetic", 1.0):
            candles = self.make_fixture()
            rows = ["time,open,high,low,close"] + [
                f"2017-01-02T00:{i:02d},{o!r},{h!r},{l!r},{c!r}"
                for i, (o, h, l, c) in enumerate(candles)
            ]
            series = parse_candles("\n".join(rows) + "\n")
            feats = compute_features(series)
            assert feats.shape == (19, 5)
            for t in range(1, 20):
                (o0, h0, l0, c0), (o1, h1, l1, c1) = candles[t - 1], candles[t]
                expected = [
                    (c1 - c0) / c0,
                    (h1 - h0) / h0,
                    (l1 - l0) / l0,
                    (h1 - c0) / c0,
                    (c1 - l0) / c0,
                ]
                for j in range(5):
                    assert abs(feats[t - 1, j] - expected[j]) <= 1e-12

            # reward stream: stepping simulator vs the independent
            # `simulate` arithmetic replay, exact equality
            train_csv = tmp_path / "t.csv"
            test_csv = tmp_path / "e.csv"
            write_walk_csv(train_csv, 60, seed=3, start_minute=0)
            write_walk_csv(test_csv, 60, seed=4, start_minute=100)
            cfg_path = tmp_path / "config.json"
            cfg_path.write_text(json.dumps({
                "train_csv": str(train_csv), "test_csv": str(test_csv),
                "out_root": str(tmp_path / "out"),
                "env": {"spread_cost": 0.0003},
            }))
            assert cli_main(["preprocess", "--config", str(cfg_path)]) == 0

            split_dir = Path(load_config(str(cfg_path)).run_dir("preprocess", "test"))
            windows = np.load(split_dir / "windows.npy")
            returns = np.load(split_dir / "returns.npy")
            # the step returns preprocess stored, against z_i = (c_{i+1} - c_i) / c_i
            # of the close column as written
            closes = [float(line.split(",")[4])
                      for line in test_csv.read_text().strip().split("\n")[1:]]
            zs = [(c1 - c0) / c0 for c0, c1 in zip(closes, closes[1:])]
            assert returns.tolist() == zs
            actions = [1, -1, 0, 1, 1, -1, 0, 0, 1, -1, 1, 0, -1, -1, 1]
            env = TradingEnv(
                windows, returns,
                EnvConfig(episode_length=len(actions), spread_cost=0.0003),
            )
            env.reset(0)
            env_rewards = [env.step(a).reward for a in actions]

            actions_path = tmp_path / "actions.csv"
            actions_path.write_text(
                "action\n" + "\n".join(str(a) for a in actions) + "\n"
            )
            sim_path = tmp_path / "sim.csv"
            code = cli_main([
                "simulate", "--config", str(cfg_path), "--actions",
                str(actions_path), "--split", "test", "--out", str(sim_path),
            ])
            assert code == 0
            sim = [
                float(line.split(",")[1])
                for line in sim_path.read_text().strip().split("\n")[1:]
            ]
            assert sim == env_rewards  # exact, not approximate

            # risk-adjusted metric vs hand arithmetic
            rewards = [0.011, -0.007, 0.003, 0.0, 0.005, -0.002]
            mean = sum(rewards) / len(rewards)
            var = sum((r - mean) ** 2 for r in rewards) / len(rewards)
            assert abs(sharpe_ratio(rewards) - mean / math.sqrt(var)) <= 1e-12

            # total return is the plain left-to-right sum
            report = BacktestReport(rewards, seed=0)
            assert report.total_return == conftest.left_to_right_sum(rewards)

            # improvement percentage vs hand arithmetic
            assert abs(ppi(42.0, 2.0) - 2000.0) <= 1e-12
            assert abs(ppi(-1.0, 4.0) - (-125.0)) <= 1e-12
            assert abs(ppi(3.3, -1.1) - (4.4 / 1.1) * 100.0) <= 1e-12


class TestCriterion02PublishedImprovementValues:
    def test_published_improvement_values(self):
        with criterion(2, "improvement metric reproduces published values", 1.0):
            assert abs(ppi(14.86, -25.2) - 158.8) <= 0.5
            assert abs(ppi(0.249, -2.618) - 109.2) <= 0.5


class TestCriterion03GradientFidelity:
    H = 1e-5
    TOL = 1e-4

    def check_entries(self, arr, grad, loss_fn, limit=None):
        flat = arr.reshape(-1)
        gflat = grad.reshape(-1)
        idx = range(flat.size)
        if limit is not None and flat.size > limit:
            idx = np.linspace(0, flat.size - 1, limit).astype(int)
        worst = 0.0
        for i in idx:
            orig = flat[i]
            flat[i] = orig + self.H
            up = loss_fn()
            flat[i] = orig - self.H
            down = loss_fn()
            flat[i] = orig
            worst = max(worst, rel_err((up - down) / (2 * self.H), gflat[i]))
        return worst

    def dense_instance(self, rng):
        nin = int(rng.integers(2, 6))
        nout = int(rng.integers(2, 6))
        b = int(rng.integers(1, 5))
        act = ["identity", "relu"][int(rng.integers(0, 2))]
        layer = DenseLayer(nin, nout, act, rng)
        # keep ReLU inputs away from the kink, where FD is undefined
        x = rng.normal(size=(b, nin)) + 0.1
        u = rng.normal(size=(b, nout))

        def loss():
            return float(np.sum(layer.forward(x) * u))

        y = layer.forward(x)
        dx = layer.backward(u)
        worst = max(
            self.check_entries(layer.w, layer.dw, loss),
            self.check_entries(layer.b, layer.db, loss),
            self.check_entries(x, dx, loss),
        )
        assert y.shape == (b, nout)
        return worst

    def lstm_instance(self, rng):
        nin = int(rng.integers(2, 4))
        nh = int(rng.integers(2, 5))
        T = int(rng.integers(2, 5))
        layer = LSTMLayer(nin, nh, rng)
        x = rng.normal(size=(T, nin))
        h0 = rng.normal(size=nh) * 0.5
        c0 = rng.normal(size=nh) * 0.5
        resets = (rng.random(T) < 0.25).astype(np.uint8)
        u = rng.normal(size=(T, nh))

        def loss():
            hs, _, _ = layer.forward(x, h0, c0, resets)
            return float(np.sum(hs * u))

        layer.forward(x, h0, c0, resets)
        layer.backward(u)
        worst = 0.0
        for arr, grad in ((layer.wx, layer.dwx), (layer.wh, layer.dwh), (layer.b, layer.db)):
            worst = max(worst, self.check_entries(arr, grad, loss))
        return worst

    def mse_instance(self, rng):
        n = int(rng.integers(2, 10))
        est = rng.normal(size=n)
        tgt = rng.normal(size=n)
        _, dest = mse_loss(est, tgt)

        def loss():
            return mse_loss(est, tgt)[0]

        return self.check_entries(est, dest, loss)

    def composite_instance(self, rng_seed):
        rng = np.random.default_rng(rng_seed)
        obs = 5
        net = PolicyNetwork(obs, 4, (4, 4, 4), rng)
        T = 6
        windows = rng.normal(size=(40, obs))
        returns = rng.normal(scale=0.004, size=55)
        labels = rng.integers(0, 12, size=40)
        env = TradingEnv(windows, returns, EnvConfig(episode_length=8))
        buffer = RolloutBuffer(T, obs, 4)
        h, c = net.initial_state()
        bootstrap = collect_rollout(net, env, labels, buffer, rng, [h, c, True])
        adv, ret = compute_gae(
            buffer.rewards, buffer.values, buffer.dones, bootstrap, 0.99, 0.95
        )
        config = PPOConfig(rollout_length=T, minibatch_size=T)
        batch = (
            buffer.obs, buffer.hprev[0], buffer.cprev[0], buffer.resets,
            buffer.actions, buffer.log_probs, normalize_advantages(adv), ret,
            buffer.labels,
        )
        # step off the rollout point so the clip min() picks one branch
        for p in net.param_blocks().values():
            p += rng.normal(scale=1e-3, size=p.shape)

        def loss():
            return minibatch_pass(net, *batch, config)[0]

        minibatch_pass(net, *batch, config)
        # each loss() call runs the backward pass again, so copy first
        params = list(net.param_blocks().values())
        analytic = [g.copy() for g in split_flat(net.grads, params)]
        worst = 0.0
        for p, g in zip(params, analytic):
            worst = max(worst, self.check_entries(p, g, loss, limit=8))
        return worst

    def test_analytic_gradients_match_finite_differences(self):
        with criterion(3, "analytic gradients vs central differences", 60.0):
            rng = np.random.default_rng(2024)
            instances = 0
            worst = 0.0
            for _ in range(50):
                worst = max(worst, self.dense_instance(rng))
                instances += 1
            for _ in range(25):
                worst = max(worst, self.lstm_instance(rng))
                instances += 1
            for _ in range(15):
                worst = max(worst, self.mse_instance(rng))
                instances += 1
            for i in range(15):
                worst = max(worst, self.composite_instance(3000 + i))
                instances += 1
            assert instances >= 100
            assert worst <= self.TOL, f"worst relative error {worst:.3g}"


class TestCriterion04RatioIdentity:
    def test_fresh_replay_gives_unit_ratios(self):
        with criterion(4, "unit policy ratios right after rollout", 10.0):
            rng = np.random.default_rng(7)
            windows = rng.normal(size=(160, 80))
            returns = rng.normal(scale=0.004, size=175)
            labels = rng.integers(0, 12, size=160)
            net = PolicyNetwork(80, 128, (32, 64, 64), np.random.default_rng(1))
            env = TradingEnv(windows, returns, EnvConfig(episode_length=25))
            buffer = RolloutBuffer(96, 80, 128)
            h, c = net.initial_state()
            bootstrap = collect_rollout(net, env, labels, buffer, rng, [h, c, True])
            adv, _ = compute_gae(
                buffer.rewards, buffer.values, buffer.dones, bootstrap, 0.99, 0.95
            )
            for s in range(0, 96, 32):
                e = s + 32
                logits, _, values, _, _ = net.forward_sequence(
                    buffer.obs[s:e], buffer.hprev[s], buffer.cprev[s],
                    buffer.resets[s:e],
                )
                lpn = log_softmax(logits)[np.arange(32), buffer.actions[s:e]]
                ratio = np.exp(lpn - buffer.log_probs[s:e])
                assert np.all(np.abs(ratio - 1.0) <= 1e-10)
                obj = ppo_clip_objective(lpn, buffer.log_probs[s:e], adv[s:e], 0.2)
                assert np.array_equal(obj, adv[s:e])
                assert np.array_equal(values, buffer.values[s:e])


def lloyd_with_history(points, init, max_iters=300, tol=1e-8):
    """Independent vectorized Lloyd mirroring the library's protocol,
    recording inertia after every assignment."""
    cents = init.copy()
    k = cents.shape[0]
    n = points.shape[0]
    prev = None
    history = []
    labels = None
    for _ in range(max_iters):
        d2 = ((points[:, None, :] - cents[None, :, :]) ** 2).sum(axis=2)
        labels = d2.argmin(axis=1)
        history.append(float(d2[np.arange(n), labels].sum()))
        if prev is not None and np.array_equal(labels, prev):
            break
        prev = labels
        counts = np.bincount(labels, minlength=k)
        new = np.empty_like(cents)
        for j in range(k):
            new[j] = points[labels == j].mean(axis=0) if counts[j] else cents[j]
        if np.any(counts == 0):
            dists = ((points - new[labels]) ** 2).sum(axis=1)
            for j in np.flatnonzero(counts == 0):
                idx = int(np.argmax(dists))
                new[j] = points[idx]
                dists[idx] = -1.0
        shift = np.max(np.abs(new - cents))
        cents = new
        if shift < tol:
            d2 = ((points[:, None, :] - cents[None, :, :]) ** 2).sum(axis=2)
            labels = d2.argmin(axis=1)
            history.append(float(d2[np.arange(n), labels].sum()))
            break
    return cents, labels, history


class TestCriterion05KMeansOracle:
    def test_fifty_datasets_match_reference(self):
        with criterion(5, "clustering matches brute-force reference", 30.0):
            meta_rng = np.random.default_rng(909)
            for trial in range(50):
                k = int(meta_rng.integers(2, 13))
                n = int(meta_rng.integers(max(2 * k, 20), 201))
                pts = meta_rng.normal(size=(n, 12))
                if trial % 2:  # half the datasets get real cluster structure
                    shift = meta_rng.normal(scale=4.0, size=(k, 12))
                    pts += shift[meta_rng.integers(0, k, size=n)]
                seed = int(meta_rng.integers(100_000))
                init = _kmeans_pp_init(pts, k, np.random.default_rng(seed))
                ref_cents, ref_labels, history = lloyd_with_history(pts, init)
                model = kmeans_fit(pts, k=k, seed=seed)
                assert np.allclose(model.centroids, ref_cents, atol=1e-8)
                assert np.array_equal(kmeans_assign(model, pts), ref_labels)
                for a, b in zip(history, history[1:]):
                    assert b <= a * (1 + 1e-12) + 1e-12


class TestCriterion06LabelDeterminism:
    def test_byte_identical_label_runs(self, tmp_path):
        with criterion(6, "labeling reruns byte-identical, 12 live clusters", 300.0):
            train_csv = tmp_path / "train.csv"
            test_csv = tmp_path / "test.csv"
            # 5016 candles -> 5015 feature rows -> 5000 windows
            write_walk_csv(train_csv, 5016, seed=11, start_minute=0)
            write_walk_csv(test_csv, 80, seed=12, start_minute=6000)
            cfg_path = tmp_path / "config.json"
            cfg_path.write_text(json.dumps({
                "train_csv": str(train_csv), "test_csv": str(test_csv),
                "out_root": str(tmp_path / "out"),
                "labeler": {"max_epochs": 8, "patience": 8,
                            "learning_rate": 1e-3},
            }))
            assert cli_main(["preprocess", "--config", str(cfg_path)]) == 0
            assert cli_main(["label", "--config", str(cfg_path)]) == 0

            label_dir = Path(load_config(str(cfg_path)).run_dir("label"))
            first = {
                name: (label_dir / name).read_bytes()
                for name in ("labels_train.csv", "labels_test.csv")
            }
            assert cli_main(["label", "--config", str(cfg_path)]) == 0
            for name, blob in first.items():
                assert (label_dir / name).read_bytes() == blob

            _, labels = _read_table(label_dir / "labels_train.csv", LABELS_HEADER, int, int)
            assert len(labels) == 5000
            assert min(labels) >= 0 and max(labels) <= 11
            assert len(set(labels)) == 12  # every cluster non-empty


class TestCriterion07Conservation:
    def test_opposite_policies_cancel_exactly(self):
        rng = np.random.default_rng(55)
        windows = rng.normal(size=(140, 80))
        returns = rng.normal(scale=0.005, size=155)
        with criterion(7, "reward conservation for fixed policies", 1.0):
            cfg = EnvConfig(episode_length=120, spread_cost=0.0)
            totals = {}
            streams = {}
            for name, action in (("buy", 1), ("hold", 0), ("sell", -1)):
                env = TradingEnv(windows, returns, cfg)
                env.reset(0)
                rewards = []
                done = False
                while not done:
                    result = env.step(action)
                    rewards.append(result.reward)
                    done = result.done
                streams[name] = rewards
                totals[name] = conftest.left_to_right_sum(rewards)
            assert totals["hold"] == 0.0
            assert totals["buy"] + totals["sell"] == 0.0
            z_sum = conftest.left_to_right_sum(
                float(returns[16 + i]) for i in range(len(streams["buy"]))
            )
            assert totals["buy"] == z_sum


def sawtooth_close(t, period=40, amplitude=0.005, base=1.05):
    p = t % period
    q = period // 4
    if p < q:
        tri = p / q
    elif p < 3 * q:
        tri = 2.0 - p / q
    else:
        tri = p / q - 4.0
    return base * (1.0 + amplitude * tri)


def sawtooth_csv(n, t0=0):
    rows = ["time,open,high,low,close"]
    prev = sawtooth_close(t0 - 1)
    for i in range(n):
        t = t0 + i
        c = sawtooth_close(t)
        hi = max(prev, c) * 1.0001
        lo = min(prev, c) * 0.9999
        rows.append(
            f"2017-01-{2 + t // 1440:02d}T{(t // 60) % 24:02d}:{t % 60:02d},"
            f"{prev!r},{hi!r},{lo!r},{c!r}"
        )
        prev = c
    return "\n".join(rows) + "\n"


def random_policy_total(windows, returns, env_config, seed):
    env = TradingEnv(windows, returns, env_config)
    rng = np.random.default_rng(seed)
    total = 0.0
    start = 0
    while start <= env.max_start_index():
        env.reset(start)
        done = False
        while not done:
            result = env.step(ACTION_VALUES[int(rng.integers(0, 3))])
            total += float(result.reward)
            done = result.done
        start = env.cursor
    return total


class TestCriterion08SawtoothMarket:
    def test_learns_a_periodic_market(self):
        with criterion(8, "policy beats random on a periodic market", 900.0):
            train_w, train_z = prep_series(sawtooth_csv(4000, 0))
            test_w, test_z = prep_series(sawtooth_csv(1300, 4000))

            ae, _ = train_autoencoder(
                train_w,
                AutoencoderConfig(max_epochs=15, patience=5, learning_rate=1e-3),
                seed=30,
            )
            km = kmeans_fit(ae.encode(train_w), k=12, seed=30)
            labels = label_dataset(ae, km, train_w)

            env_cfg = EnvConfig(episode_length=600)
            ppo = PPOConfig(
                total_timesteps=20000, rollout_length=600, learning_rate=1e-3
            )
            seeds = (30, 50, 70, 99)
            totals = []
            for seed in seeds:
                net, _ = train(train_w, train_z, labels, env_cfg, ppo, seed)
                report = run_backtest(net, test_w, test_z, env_cfg, seed=seed)
                totals.append(report.total_return)
            rand = [
                random_policy_total(test_w, test_z, env_cfg, s) for s in seeds
            ]
            rand_mean = sum(rand) / len(rand)
            rand_std = float(np.std(np.asarray(rand), ddof=0))
            mean = sum(totals) / len(totals)
            print(f"    policy totals {[f'{t:+.4f}' for t in totals]}")
            print(f"    random totals {[f'{t:+.4f}' for t in rand]}")
            assert sum(t > 0 for t in totals) >= 3
            assert mean > rand_mean + 2.0 * rand_std


class TestCriterion09AblationSeparation:
    def test_zero_weight_freezes_auxiliary_head(self, tmp_path):
        with criterion(9, "zero-weight ablation freezes auxiliary head", 60.0):
            rng = np.random.default_rng(13)
            windows = rng.normal(size=(700, 80))
            returns = rng.normal(scale=0.004, size=715)
            labels = rng.integers(0, 12, size=700)
            env_cfg = EnvConfig(episode_length=200)
            config = PPOConfig(
                rollout_length=600, total_timesteps=1200, aux_loss_weight=0.0,
                learning_rate=1e-3,
            )

            # update-level: auxiliary parameters bitwise frozen
            net = PolicyNetwork(80, 128, (32, 64, 64), np.random.default_rng(2))
            aux_w = net.heads.w[:, AUX_COLUMNS].copy()
            aux_b = net.heads.b[AUX_COLUMNS].copy()
            optimizer = Adam(net.params, config.learning_rate)
            env = TradingEnv(windows, returns, env_cfg)
            h, c = net.initial_state()
            state = [h, c, True]
            for _ in range(2):
                buffer = RolloutBuffer(600, 80, 128)
                bootstrap = collect_rollout(net, env, labels, buffer, rng, state)
                adv, ret = compute_gae(
                    buffer.rewards, buffer.values, buffer.dones, bootstrap,
                    config.discount, config.gae_lambda,
                )
                stats = update(
                    net, optimizer, buffer, normalize_advantages(adv), ret,
                    config, rng,
                )
                assert stats.aux_loss == 0.0
            assert np.array_equal(net.heads.w[:, AUX_COLUMNS], aux_w)
            assert np.array_equal(net.heads.b[AUX_COLUMNS], aux_b)
            assert not np.array_equal(  # sanity: the rest did move
                net.heads.w[:, :N_ACTIONS], PolicyNetwork(
                    80, 128, (32, 64, 64), np.random.default_rng(2)
                ).heads.w[:, :N_ACTIONS],
            )

            # loop-level: the logged auxiliary column is identically zero
            log_path = tmp_path / "train_log.csv"
            train(windows, returns, labels, env_cfg, config, seed=30,
                  log_path=str(log_path))
            rows = log_path.read_text().strip().split("\n")
            assert len(rows) == 3  # header + 1200/600 updates
            for row in rows[1:]:
                assert row.split(",")[4] == "0"


class TestCriterion10MultiSeedProtocol:
    def test_aggregate_means_are_arithmetic_means(self, tmp_path):
        train_csv = tmp_path / "train.csv"
        test_csv = tmp_path / "test.csv"
        write_walk_csv(train_csv, 420, seed=21, start_minute=0)
        write_walk_csv(test_csv, 280, seed=22, start_minute=500)
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(json.dumps({
            "train_csv": str(train_csv), "test_csv": str(test_csv),
            "seeds": [30, 50, 70, 99],
            "out_root": str(tmp_path / "out"),
            "labeler": {"max_epochs": 3, "patience": 3},
            "env": {"episode_length": 50},
            "ppo": {"rollout_length": 60, "total_timesteps": 120,
                    "minibatch_size": 32, "learning_rate": 1e-3,
                    "epochs_per_update": 2},
        }))
        assert cli_main(["preprocess", "--config", str(cfg_path)]) == 0
        assert cli_main(["label", "--config", str(cfg_path)]) == 0
        assert cli_main(["train", "--config", str(cfg_path)]) == 0

        with criterion(10, "aggregate equals arithmetic per-seed means", 10.0):
            assert cli_main(["backtest", "--config", str(cfg_path)]) == 0
            config = load_config(str(cfg_path))
            summary = parse_summary(config.run_dir("backtest", "summary.txt"))
            per_seed = [
                BacktestReport(_read_table(
                    config.run_dir("backtest", s, "rewards.csv"), REWARDS_HEADER, int, float
                )[1], s)
                for s in config.seeds
            ]
            assert [r.seed for r in per_seed] == [30, 50, 70, 99]

            mean_ret = sum(r.total_return * 100.0 for r in per_seed) / len(per_seed)
            assert abs(summary["mean_total_return_pct"] - mean_ret) <= 1e-12

            sharpes = [r.sharpe for r in per_seed]
            if all(math.isfinite(s) for s in sharpes):
                mean_sharpe = sum(sharpes) / len(sharpes)
                assert abs(summary["mean_sharpe"] - mean_sharpe) <= 1e-12
            else:
                # a seed that never trades has no defined risk ratio; the
                # aggregate must reflect that rather than hide it
                assert math.isnan(summary["mean_sharpe"])
