"""Trading rewards over precomputed feature windows.

Acting on window i holds a position in {-1, 0, +1} (sell, stay out, buy)
and earns position times z[i] (`step_returns`), the return realized after
the window's newest candle, less an optional spread on each change of
position. `position_rewards` pays out a whole episode that starts flat;
`TradingEnv` steps the same arithmetic one action at a time, for the
rollout and as the reference the array path is tested against.
Episodes are fixed-length unless the data runs out first.
"""

from collections import namedtuple
from dataclasses import dataclass

import numpy as np

from .checkpoint import is_count, is_number
from .data import WINDOW_LEN

ACTION_VALUES = (-1, 0, 1)


class EnvError(Exception):
    pass


class OutOfData(EnvError):
    pass


class EpisodeFinished(EnvError):
    pass


@dataclass
class EnvConfig:
    """Simulator knobs."""

    episode_length: int = 600
    spread_cost: float = 0.0

    def __post_init__(self):
        if not is_count(self.episode_length):
            raise ValueError("episode_length must be a positive integer")
        if not (is_number(self.spread_cost) and self.spread_cost >= 0):
            raise ValueError("spread_cost must be >= 0")


def step_returns(returns, windows):
    """z[i], the return that acting on windows[i] earns: the one realized
    after the window's newest row. `returns` is the close-return stream the
    windows were built from, so `len(returns) == len(windows) + WINDOW_LEN - 1`."""
    windows = np.asarray(windows)
    if windows.ndim != 2:
        raise EnvError("windows must be 2-D")
    expected = windows.shape[0] + WINDOW_LEN - 1
    if len(returns) != expected:
        raise EnvError(
            f"returns length {len(returns)} does not align with "
            f"{windows.shape[0]} windows (expected {expected})"
        )
    return np.asarray(returns, dtype=np.float64)[WINDOW_LEN:]


def position_rewards(actions, z, spread):
    """Rewards of an episode that starts flat and holds actions[i] in
    {-1, 0, 1} against z[i], less spread per unit change of position."""
    a = np.asarray(actions, dtype=np.int64)
    return a * z - spread * np.abs(np.diff(a, prepend=0))


StepResult = namedtuple("StepResult", ["observation", "reward", "done", "z"])


class TradingEnv:
    """Steps through aligned (windows, returns) arrays (see `step_returns`)."""

    def __init__(self, windows, returns, config=None):
        self.config = config or EnvConfig()
        self.windows = np.asarray(windows, dtype=np.float64)
        self.z = step_returns(returns, self.windows)
        self.n_windows = self.windows.shape[0]
        self.cursor = None
        self.steps_in_episode = 0
        self.position = 0
        self.done = True

    def max_start_index(self):
        """Largest start index that still allows one step."""
        return len(self.z) - 1

    def steps_left(self):
        """Steps left in this episode before its length or the data runs out."""
        return min(
            self.config.episode_length - self.steps_in_episode,
            self.max_start_index() + 1 - self.cursor,
        )

    def reset(self, start_index=0):
        start_index = int(start_index)
        if start_index < 0 or start_index > self.max_start_index():
            raise OutOfData(
                f"start index {start_index} outside [0, {self.max_start_index()}]"
            )
        self.cursor = start_index
        self.steps_in_episode = 0
        self.position = 0
        self.done = False
        return self.windows[start_index]

    def step(self, action):
        if self.done or self.cursor is None:
            raise EpisodeFinished("reset the environment before stepping")
        action = int(action)
        if action not in ACTION_VALUES:
            raise ValueError(f"action must be one of {ACTION_VALUES}, got {action}")
        z = float(self.z[self.cursor])
        reward = action * z - self.config.spread_cost * abs(action - self.position)
        self.position = action
        self.steps_in_episode += 1
        self.cursor += 1
        self.done = self.steps_left() <= 0
        obs = self.windows[self.cursor] if self.cursor < self.n_windows else None
        return StepResult(obs, reward, self.done, z)
