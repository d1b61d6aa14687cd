"""Backtest replay, metrics, and report round-trips."""

import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from fxppo import backtest
from fxppo.agent import PolicyNetwork
from fxppo.backtest import (
    BacktestReport,
    DegenerateReturns,
    EmptyInput,
    SeedAggregate,
    TooFewSamples,
    ZeroBaseline,
    emit_report,
    parse_summary,
    ppi,
    run_backtest,
    sharpe_ratio,
)
from fxppo.env import ACTION_VALUES, EnvConfig, TradingEnv, position_rewards, step_returns


def make_market(n_steps=120, seed=0, obs=6):
    rng = np.random.default_rng(seed)
    returns = rng.normal(scale=0.004, size=n_steps)
    windows = rng.normal(size=(n_steps - 15, obs))
    return windows, returns


def biased_net(log_probs, obs=6):
    """Zero everywhere except a policy bias, so the policy is constant."""
    net = PolicyNetwork(obs, 5, (4, 4, 4))
    net.policy.b[:] = log_probs
    return net


def stepwise_backtest(net, windows, returns, env_config):
    """Reference replay: one single-row policy call per step."""
    env = TradingEnv(windows, returns, env_config)
    rewards = []
    actions = []
    start = 0
    while start <= env.max_start_index():
        obs = env.reset(start)
        h, c = net.initial_state()
        reset = 1
        done = False
        while not done:
            action, _, _, h, c = net.act(obs[None], h, c, reset, mode="greedy")
            reset = 0
            result = env.step(ACTION_VALUES[action[0]])
            actions.append(int(action[0]))
            rewards.append(result.reward)
            obs = result.observation
            done = result.done
        start = env.cursor
    return rewards, actions


def per_episode_backtest(net, windows, returns, env_config):
    """Reference replay: one one-lane greedy `act` call per episode, paid
    out with `position_rewards`."""
    z = step_returns(returns, windows)
    length = env_config.episode_length
    rewards = np.empty(len(z))
    for s in range(0, len(z), length):
        e = min(s + length, len(z))
        actions, _, _, _, _ = net.act(windows[s:e], *net.initial_state(), 1, mode="greedy")
        rewards[s:e] = position_rewards(
            np.take(ACTION_VALUES, actions), z[s:e], env_config.spread_cost
        )
    return rewards


class TestRunBacktest:
    @pytest.mark.parametrize("steps, length, call_rows", [
        (0, 25, 256),  # no step
        (25, 25, 256),  # one episode
        (50, 25, 256),  # two
        (53, 25, 256),  # a ragged last episode
        (23, 7, 256),  # lanes that do not divide the episode length
        (53, 5, 256),  # more episodes than one pass holds, then a ragged one
        (3, 1, 256),  # one-step episodes
        (53, 25, 4),  # calls shorter than an episode
        (130, 7, 3),  # passes of 3 lanes, one step a call
    ])
    def test_lanes_match_per_episode_calls(self, steps, length, call_rows, monkeypatch):
        monkeypatch.setattr(backtest, "CALL_ROWS", call_rows)
        windows, returns = make_market(n_steps=steps + 16, seed=steps)
        net = PolicyNetwork(6, 5, (4, 4, 4), np.random.default_rng(11))
        net.policy.w *= 20.0  # sharpen so the greedy action moves
        cfg = EnvConfig(episode_length=length, spread_cost=0.0003)
        report = run_backtest(net, windows, returns, cfg)
        expected = per_episode_backtest(net, windows, returns, cfg)
        assert report.steps == steps
        assert np.array_equal(report.rewards, expected)

    def test_peak_memory_does_not_grow_with_the_split(self):
        # 80 inputs per window, as the policy takes: a copy of the split's
        # windows, or of its LSTM rows, would cost hundreds of bytes a step
        net = PolicyNetwork(80, 5, (4, 4, 4), np.random.default_rng(2))
        cfg = EnvConfig(episode_length=25)

        def peak(episodes):
            windows, returns = make_market(n_steps=25 * episodes + 16, seed=1, obs=80)
            run_backtest(net, windows, returns, cfg)
            tracemalloc.start()
            try:
                run_backtest(net, windows, returns, cfg)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        assert peak(40) - peak(4) <= 64 * 25 * (40 - 4)

    def test_matches_stepwise_reference(self):
        windows, returns = make_market(n_steps=120, seed=4)
        net = PolicyNetwork(6, 5, (4, 4, 4), np.random.default_rng(11))
        net.policy.w *= 20.0  # sharpen so the greedy action moves
        cfg = EnvConfig(episode_length=25, spread_cost=0.0003)
        expected, actions = stepwise_backtest(net, windows, returns, cfg)
        assert len(expected) % 25 != 0  # the data cuts the last episode short
        assert len(set(actions)) > 1
        report = run_backtest(net, windows, returns, cfg)
        assert report.rewards.tolist() == expected

    def test_hold_returns_zero(self):
        windows, returns = make_market()
        net = biased_net(np.log([0.1, 0.8, 0.1]))
        report = run_backtest(net, windows, returns, EnvConfig(episode_length=30))
        assert report.total_return == 0.0
        assert np.all(report.rewards == 0.0)

    def test_always_buy_matches_return_sum(self):
        windows, returns = make_market()
        net = biased_net(np.log([0.1, 0.1, 0.8]))
        report = run_backtest(net, windows, returns, EnvConfig(episode_length=30))
        oracle = 0.0
        for z in returns[16 : 16 + report.steps]:
            oracle += z
        assert report.total_return == oracle

    def test_full_coverage_non_overlapping(self):
        windows, returns = make_market(n_steps=100)
        net = biased_net(np.log([0.1, 0.1, 0.8]))
        report = run_backtest(net, windows, returns, EnvConfig(episode_length=30))
        # every startable window is stepped on exactly once
        assert report.steps == 100 - 15 - 1

    def test_deterministic(self):
        windows, returns = make_market()
        net = PolicyNetwork(6, 5, (4, 4, 4), np.random.default_rng(3))
        r1 = run_backtest(net, windows, returns, EnvConfig(episode_length=25))
        r2 = run_backtest(net, windows, returns, EnvConfig(episode_length=25))
        assert np.array_equal(r1.rewards, r2.rewards)

    def test_one_window_split_has_no_steps(self, tmp_path):
        windows, returns = make_market()
        net = PolicyNetwork(6, 5, (4, 4, 4), np.random.default_rng(3))
        report = run_backtest(net, windows[:1], returns[:16], EnvConfig(episode_length=25))
        assert report.rewards.shape == (0,)
        assert report.data_range == (0, 1)
        _, summary_path = emit_report(SeedAggregate([report]), str(tmp_path))
        assert "steps: 0" in Path(summary_path).read_text().splitlines()

    def test_equity_terminal_equals_total(self):
        windows, returns = make_market()
        net = PolicyNetwork(6, 5, (4, 4, 4), np.random.default_rng(5))
        report = run_backtest(net, windows, returns, EnvConfig(episode_length=25))
        assert report.equity_curve[-1] == report.total_return
        assert report.equity_curve.shape == report.rewards.shape


class TestSharpe:
    def test_symmetric_mean_zero(self):
        assert sharpe_ratio([0.01, -0.01]) == 0.0

    def test_constant_degenerate(self):
        with pytest.raises(DegenerateReturns):
            sharpe_ratio([0.5, 0.5, 0.5])

    def test_too_few(self):
        with pytest.raises(TooFewSamples):
            sharpe_ratio([0.1])

    def test_hand_value(self):
        val = sharpe_ratio([0.02, 0.00, 0.01])
        assert val == pytest.approx(np.sqrt(1.5), abs=1e-12)
        assert val == pytest.approx(1.224744871391589, abs=1e-12)

    @given(
        st.lists(st.floats(-0.05, 0.05), min_size=3, max_size=50),
        st.floats(0.1, 100.0),
    )
    # a constant stream whose mean rounds off by an ulp or two
    @example([0.013] * 10, 3.7)
    # squared deviations of tiny rewards underflow into subnormals
    @example([1e-160, 0.0, 0.0], 3.7)
    @settings(max_examples=40, deadline=None)
    def test_scale_invariance(self, rewards, scale):
        r = np.asarray(rewards)
        # A subnormal keeps fewer mantissa bits, so r * scale rounds it
        # non-proportionally (0.5 * 5e-324 == 0.0): the two streams are no
        # longer multiples of each other and need not share a ratio.
        tiny = np.finfo(np.float64).tiny
        for stream in (r, r * scale):
            assume(not np.any((stream != 0) & (np.abs(stream) < tiny)))
        if np.all(r == r[0]):
            for stream in (r, r * scale):
                with pytest.raises(DegenerateReturns):
                    sharpe_ratio(stream)
            return
        base = sharpe_ratio(r)
        scaled = sharpe_ratio(r * scale)
        assert scaled == pytest.approx(base, abs=1e-12, rel=1e-12)


class TestPpi:
    def test_identity(self):
        assert ppi(3.7, 3.7) == 0.0
        assert ppi(-2.0, -2.0) == 0.0

    def test_negative_baseline_recovery(self):
        assert ppi(14.86, -25.2) == pytest.approx(158.97, abs=0.5)
        assert ppi(0.249, -2.618) == pytest.approx(109.51, abs=0.5)

    def test_zero_baseline(self):
        with pytest.raises(ZeroBaseline):
            ppi(1.0, 0.0)

    def test_doubling_positive(self):
        assert ppi(2.0, 1.0) == pytest.approx(100.0, abs=1e-12)

    @given(st.floats(-50, 50), st.floats(0.01, 50))
    @settings(max_examples=40, deadline=None)
    def test_antisymmetry_around_baseline(self, a, b):
        assert ppi(a, b) == pytest.approx(-ppi(2 * b - a, b), abs=1e-9)


class TestAggregate:
    def test_empty(self):
        with pytest.raises(EmptyInput):
            SeedAggregate([])

    def test_singleton(self):
        report = BacktestReport([0.01, -0.02, 0.03], seed=30)
        agg = SeedAggregate([report])
        assert agg.mean_total_return == report.total_return
        assert agg.mean_sharpe == report.sharpe

    def test_hand_means(self):
        reports = [
            BacktestReport([float(v), 0.0], seed=s)
            for v, s in zip([1, 2, 3, 4], [30, 50, 70, 99])
        ]
        agg = SeedAggregate(reports)
        assert agg.mean_total_return == pytest.approx(2.5, abs=0)

    def test_arithmetic_mean_exact(self):
        rng = np.random.default_rng(9)
        reports = [
            BacktestReport(rng.normal(scale=0.01, size=40), seed=s)
            for s in (30, 50, 70, 99)
        ]
        agg = SeedAggregate(reports)
        oracle_total = (
            sum(r.total_return for r in reports) / 4
        )
        oracle_sharpe = sum(r.sharpe for r in reports) / 4
        assert abs(agg.mean_total_return - oracle_total) <= 1e-12
        assert abs(agg.mean_sharpe - oracle_sharpe) <= 1e-12


class TestEmitReport:
    def make_aggregate(self, seed=11):
        rng = np.random.default_rng(seed)
        reports = [
            BacktestReport(
                rng.normal(scale=0.01, size=30), seed=s,
                data_range=(0, 30), checkpoint_hash=f"h{s}",
            )
            for s in (30, 50, 70, 99)
        ]
        return SeedAggregate(reports)

    def test_files_written_and_parse_back(self, tmp_path):
        agg = self.make_aggregate()
        equity_path, summary_path = emit_report(agg, str(tmp_path))
        lines = Path(equity_path).read_text().strip().split("\n")
        assert lines[0] == "step,seed,cumulative_return"
        assert len(lines) == 1 + 4 * 30

        parsed = parse_summary(summary_path)
        assert parsed["mean_total_return_pct"] == pytest.approx(
            agg.mean_total_return * 100.0, abs=0
        )
        assert parsed["mean_sharpe"] == pytest.approx(agg.mean_sharpe, abs=0)
        assert set(parsed) == {"mean_total_return_pct", "mean_sharpe"}
        text = Path(summary_path).read_text().splitlines()
        assert [line for line in text if line.startswith("seed: ")] == [
            f"seed: {s}" for s in (30, 50, 70, 99)]
        recomputed = sum(r.total_return * 100.0 for r in agg.per_seed) / 4
        assert recomputed == pytest.approx(
            parsed["mean_total_return_pct"], rel=1e-12
        )

    def test_empty_curves_header_only(self, tmp_path):
        agg = SeedAggregate([BacktestReport([], seed=30)])
        equity_path, _ = emit_report(agg, str(tmp_path))
        assert Path(equity_path).read_text() == "step,seed,cumulative_return\n"

    def test_ppi_block_against_baseline(self, tmp_path):
        base_dir = tmp_path / "base"
        new_dir = tmp_path / "new"
        base = SeedAggregate(
            [BacktestReport([-0.126, -0.126], seed=s) for s in (30, 50)]
        )
        emit_report(base, str(base_dir))
        agg = SeedAggregate(
            [BacktestReport([0.0743, 0.0743], seed=s) for s in (30, 50)]
        )
        _, summary_path = emit_report(
            agg, str(new_dir), baseline_summary=str(base_dir / "summary.txt")
        )
        text = Path(summary_path).read_text()
        assert "[ppi]" in text
        assert "metric,baseline,model,ppi_pct" in text
        row = [l for l in text.split("\n") if l.startswith("total_return_pct,")][0]
        got = float(row.split(",")[3])
        assert got == pytest.approx(ppi(14.86, -25.2), rel=1e-9)
