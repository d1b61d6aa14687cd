"""Run configuration: one JSON file drives the whole pipeline.

Defaults merged with the file, then with `--set key=value` overrides
(flags win). A stage writes under `<out_root>/<stage>/<key>/`; the key
hashes the settings `STAGES` lists for it plus its upstream stage's key,
so a setting re-keys only the stages that read it and those downstream.
"""

import hashlib
import json
import os
from dataclasses import asdict, dataclass

from .agent import N_CLUSTERS, PPOConfig
from .checkpoint import is_count, is_number, write_artifact
from .env import EnvConfig
from .labeler import AutoencoderConfig

OUT_ROOT_ENV = "FXPPO_OUT"
DEFAULT_SEEDS = (30, 50, 70, 99)

# stage -> (its upstream stage, the settings it reads); backtest's summary covers the seeds
STAGES = {
    "preprocess": (None, ("train_csv", "test_csv")),
    "label": ("preprocess", ("labeler", "kmeans", "axt_seed")),
    "train": ("label", ("env", "ppo")),
    "backtest": ("train", ("seeds",)),
    "simulate": ("preprocess", ("env",)),
    "tune": ("preprocess", ("tune", "axt_seed")),
}


class ConfigError(Exception):
    pass


@dataclass
class KMeansConfig:
    k: int = 12
    max_iters: int = 300
    tol: float = 1e-8

    def __post_init__(self):
        if not is_count(self.k) or self.k > N_CLUSTERS:
            raise ValueError(
                f"k must be an integer in [1, {N_CLUSTERS}], the auxiliary head's size"
            )
        if not is_count(self.max_iters):
            raise ValueError("max_iters must be a positive integer")
        if not (is_number(self.tol) and self.tol >= 0):
            raise ValueError("tol must be >= 0")


@dataclass
class TuneSpec:
    """Random-search space; learning rate is sampled log-uniformly."""

    trials: int = 10
    objective: str = "ae_reconstruction_mse"
    seed: int = 0
    ae_epochs: int = 5
    batch_size: tuple = (16, 64)
    learning_rate: tuple = (1e-5, 1e-2)
    latent_size: tuple = (4, 16)
    k: tuple = (4, N_CLUSTERS)

    def __post_init__(self):
        for name in ("trials", "ae_epochs"):
            if not is_count(getattr(self, name)):
                raise ValueError(f"{name} must be a positive integer")
        if not is_count(self.seed, 0):
            raise ValueError("seed must be a non-negative integer")
        if self.objective not in ("ae_reconstruction_mse", "kmeans_silhouette"):
            raise ValueError(f"unknown objective {self.objective!r}")
        for name in ("batch_size", "learning_rate", "latent_size", "k"):
            lo, hi = getattr(self, name)
            if not (is_number(lo) and is_number(hi) and 0 < lo < hi):
                raise ValueError(f"{name} range must be positive and non-degenerate")
            if name != "learning_rate" and not (is_count(lo) and is_count(hi)):
                raise ValueError(f"{name} range must hold integers")
            setattr(self, name, (lo, hi))
        if self.k[1] > N_CLUSTERS:
            raise ValueError(f"k range must end at {N_CLUSTERS} at most, the auxiliary head's size")


@dataclass
class RunConfig:
    """The whole run. The five sections arrive as dicts (or None for all
    defaults) and are replaced by their config objects."""

    train_csv: str
    test_csv: str
    seeds: list = None
    axt_seed: int = 30
    out_root: str = None
    labeler: dict = None
    kmeans: dict = None
    env: dict = None
    ppo: dict = None
    tune: dict = None

    def __post_init__(self):
        self.seeds = list(self.seeds) if self.seeds is not None else list(DEFAULT_SEEDS)
        if not self.seeds:
            raise ConfigError("seed list must be non-empty")
        if not all(is_count(seed, 0) for seed in [self.axt_seed, *self.seeds]):
            raise ConfigError("seeds and axt_seed must be non-negative integers")
        if len(set(self.seeds)) != len(self.seeds):
            raise ConfigError("seed list entries must be unique")
        self.out_root = self.out_root or os.environ.get(OUT_ROOT_ENV, "out")
        if not all(isinstance(p, str) for p in (self.train_csv, self.test_csv, self.out_root)):
            raise ConfigError("train_csv, test_csv and out_root must be strings")
        for name, cls in (("labeler", AutoencoderConfig), ("kmeans", KMeansConfig),
                          ("env", EnvConfig), ("ppo", PPOConfig), ("tune", TuneSpec)):
            try:
                setattr(self, name, cls(**(getattr(self, name) or {})))
            except (TypeError, ValueError) as exc:
                raise ConfigError(f"{name}: {exc}") from exc

    @classmethod
    def from_dict(cls, d):
        try:
            return cls(**d)
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"bad config: {exc}") from exc

    def stage_config(self, stage):
        """Everything the key of ``stage`` covers, as effective_config.json holds it."""
        upstream, names = STAGES[stage]
        settings = asdict(self)
        d = {name: settings[name] for name in names}
        if upstream:
            d["upstream"] = f"{upstream}/{self.stage_key(upstream)}"
        return d

    def stage_key(self, stage):
        canonical = json.dumps(self.stage_config(stage), sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(canonical.encode()).hexdigest()[:12]

    def run_dir(self, stage, *parts):
        return os.path.join(self.out_root, stage, self.stage_key(stage), *map(str, parts))


def load_config(path, overrides=()):
    try:
        with open(path, encoding="utf-8") as fh:
            data = json.load(fh)
    except FileNotFoundError as exc:
        raise ConfigError(f"config file not found: {path}") from exc
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:  # JSON text is UTF-8
        raise ConfigError(f"config file {path} is not valid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise ConfigError(f"config file {path} must hold a JSON object")
    for item in overrides:
        key, _, value = item.partition("=")
        if not _:
            raise ConfigError(f"override {item!r} is not key=value")
        apply_override(data, key, value)
    return RunConfig.from_dict(data)


def apply_override(data, dotted_key, raw_value):
    """Sets a possibly nested key; values parse as JSON, else strings."""
    try:
        value = json.loads(raw_value)
    except json.JSONDecodeError:
        value = raw_value
    node = data
    keys = dotted_key.split(".")
    for key in keys[:-1]:
        node = node.setdefault(key, {})
        if not isinstance(node, dict):
            raise ConfigError(f"cannot descend into {dotted_key!r}")
    node[keys[-1]] = value


def write_effective_config(config, stage, *parts):
    """Writes the dict that keys ``stage`` into its directory, or the
    subdirectory ``parts`` of it."""
    text = json.dumps(config.stage_config(stage), indent=2, sort_keys=True) + "\n"
    write_artifact(config.run_dir(stage, *parts, "effective_config.json"), text)


def validate_split(train_series, test_series):
    """The evaluation range must strictly follow the training range."""
    if train_series.timestamps[-1] >= test_series.timestamps[0]:
        raise ConfigError(
            "training data must end before evaluation data begins: "
            f"train ends {train_series.timestamps[-1]}, "
            f"test starts {test_series.timestamps[0]}"
        )
