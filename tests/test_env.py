"""Trading simulator stepping, rewards, and conservation properties."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import left_to_right_sum
from fxppo.data import WINDOW_LEN, build_windows
from fxppo.env import (
    ACTION_VALUES,
    EnvConfig,
    EnvError,
    EpisodeFinished,
    OutOfData,
    TradingEnv,
    position_rewards,
    step_returns,
)


def make_env(n_steps=100, seed=0, **cfg):
    rng = np.random.default_rng(seed)
    returns = rng.normal(scale=0.005, size=n_steps)
    features = np.column_stack([returns] + [rng.normal(size=n_steps)] * 4)
    windows = build_windows(features)
    return TradingEnv(windows, returns, EnvConfig(**cfg)), returns, windows


class TestReset:
    def test_first_observation_is_first_window(self):
        env, _, windows = make_env()
        obs = env.reset(0)
        assert np.array_equal(obs, windows[0])

    def test_reset_beyond_end(self):
        env, _, _ = make_env()
        with pytest.raises(OutOfData):
            env.reset(env.n_windows)

    def test_last_startable_index(self):
        env, _, windows = make_env()
        idx = env.max_start_index()
        obs = env.reset(idx)
        assert np.array_equal(obs, windows[idx])
        result = env.step(1)
        assert result.done

    def test_reset_deterministic(self):
        env, _, _ = make_env()
        a = env.reset(3)
        b = env.reset(3)
        assert np.array_equal(a, b)

    def test_step_before_reset(self):
        env, _, _ = make_env()
        with pytest.raises(EpisodeFinished):
            env.step(1)


class TestStep:
    def test_hold_earns_zero(self):
        env, _, _ = make_env()
        env.reset(0)
        assert env.step(0).reward == 0.0

    def test_buy_earns_next_return(self):
        env, returns, _ = make_env()
        env.reset(0)
        result = env.step(1)
        assert result.reward == returns[WINDOW_LEN]
        assert result.z == returns[WINDOW_LEN]

    def test_sell_earns_negated_return(self):
        env, returns, _ = make_env()
        env.reset(0)
        assert env.step(-1).reward == -returns[WINDOW_LEN]

    def test_known_values(self):
        returns = np.zeros(20)
        returns[16] = 0.004
        windows = np.zeros((5, WINDOW_LEN * 5))
        env = TradingEnv(windows, returns)
        env.reset(0)
        assert env.step(1).reward == pytest.approx(0.004, abs=0)
        env.reset(0)
        assert env.step(-1).reward == pytest.approx(-0.004, abs=0)

    def test_observation_advances(self):
        env, _, windows = make_env()
        env.reset(0)
        result = env.step(1)
        assert np.array_equal(result.observation, windows[1])

    def test_episode_length_terminates(self):
        env, _, _ = make_env(n_steps=100, episode_length=5)
        env.reset(0)
        for i in range(5):
            result = env.step(1)
        assert result.done
        with pytest.raises(EpisodeFinished):
            env.step(1)

    def test_data_exhaustion_terminates(self):
        env, _, _ = make_env(n_steps=20, episode_length=600)
        env.reset(0)
        steps = 0
        done = False
        while not done:
            done = env.step(1).done
            steps += 1
        # 20 return rows, windows end at rows 15..19, next-return steps
        # exist for cursors 0..3
        assert steps == 4

    @given(
        st.integers(18, 80),
        st.integers(1, 30),
        st.integers(0, 70),
    )
    @settings(max_examples=60, deadline=None)
    def test_episode_ends_after_steps_left(self, n_steps, episode_length, start):
        env, _, _ = make_env(n_steps=n_steps, episode_length=episode_length)
        start = min(start, env.max_start_index())
        env.reset(start)
        expected = env.steps_left()
        assert expected >= 1
        steps = 0
        done = False
        while not done:
            done = env.step(1).done
            steps += 1
            assert env.steps_left() == expected - steps
        assert steps == expected

    def test_invalid_action(self):
        env, _, _ = make_env()
        env.reset(0)
        with pytest.raises(ValueError):
            env.step(2)

    def test_spread_charged_on_position_change(self):
        env, returns, _ = make_env(spread_cost=0.001)
        env.reset(0)
        r1 = env.step(1)
        assert r1.reward == pytest.approx(returns[WINDOW_LEN] - 0.001)
        r2 = env.step(1)
        assert r2.reward == pytest.approx(returns[WINDOW_LEN + 1])
        r3 = env.step(-1)
        assert r3.reward == pytest.approx(-returns[WINDOW_LEN + 2] - 0.002)


class TestEpisodeReturn:
    def test_always_buy_equals_return_sum(self):
        env, returns, _ = make_env(n_steps=200)
        env.reset(0)
        rewards = []
        done = False
        while not done:
            result = env.step(1)
            rewards.append(result.reward)
            done = result.done
        total = left_to_right_sum(rewards)
        oracle = 0.0
        for z in returns[WINDOW_LEN : WINDOW_LEN + len(rewards)]:
            oracle += z
        assert total == oracle


class TestConservation:
    def run_policy(self, env, action, start=0):
        env.reset(start)
        rewards = []
        done = False
        while not done:
            result = env.step(action)
            rewards.append(result.reward)
            done = result.done
        return rewards

    def test_buy_plus_sell_is_zero(self):
        env, _, _ = make_env(n_steps=300)
        buy = self.run_policy(env, 1)
        sell = self.run_policy(env, -1)
        assert len(buy) == len(sell)
        assert left_to_right_sum(buy) + left_to_right_sum(sell) == 0.0

    def test_hold_total_zero(self):
        env, _, _ = make_env(n_steps=300)
        hold = self.run_policy(env, 0)
        assert left_to_right_sum(hold) == 0.0

    @given(st.integers(0, 2**31 - 1), st.integers(40, 120))
    @settings(max_examples=20, deadline=None)
    def test_conservation_property(self, seed, n_steps):
        env, _, _ = make_env(n_steps=n_steps, seed=seed)
        buy = self.run_policy(env, 1)
        sell = self.run_policy(env, -1)
        assert left_to_right_sum(buy) + left_to_right_sum(sell) == 0.0
        assert all(b == -s for b, s in zip(buy, sell))

    def test_episode_never_exceeds_length(self):
        env, _, _ = make_env(n_steps=500, episode_length=7)
        for start in range(0, env.max_start_index(), 13):
            rewards = self.run_policy(env, 1, start)
            assert len(rewards) <= 7


class TestPositionRewards:
    @given(
        st.lists(st.sampled_from(ACTION_VALUES), min_size=1, max_size=40),
        st.integers(0, 80),
        st.floats(1e-6, 1e-2),
        st.integers(0, 2**31 - 1),
    )
    @settings(max_examples=80, deadline=None)
    def test_matches_stepping_bit_for_bit(self, actions, start, spread, seed):
        env, returns, windows = make_env(
            n_steps=100, seed=seed, episode_length=len(actions), spread_cost=spread,
        )
        start = min(start, env.max_start_index() + 1 - len(actions))
        env.reset(start)
        stepped = np.array([env.step(a).reward for a in actions])
        z = step_returns(returns, windows)
        paid = position_rewards(actions, z[start : start + len(actions)], spread)
        assert paid.tobytes() == stepped.tobytes()

    def test_empty_episode(self):
        assert position_rewards([], np.empty(0), 0.001).shape == (0,)

    def test_misaligned_arrays_rejected(self):
        _, returns, windows = make_env(n_steps=40)
        with pytest.raises(EnvError, match="does not align"):
            step_returns(returns[:-5], windows)
        with pytest.raises(EnvError, match="does not align"):
            TradingEnv(windows, returns[:-5])

