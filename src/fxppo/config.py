"""Run configuration: one JSON file drives the whole pipeline.

Defaults merged with the file, then with `--set key=value` overrides
(flags win). The sha256 hash of the effective config keys every output
directory, so runs with different settings can never collide.
"""

import hashlib
import json
import os
from dataclasses import asdict, dataclass

from .agent import PPOConfig
from .data import N_FEATURES, WINDOW_LEN
from .env import EnvConfig
from .labeler import AutoencoderConfig

OUT_ROOT_ENV = "FXPPO_OUT"
DEFAULT_SEEDS = (30, 50, 70, 99)


class ConfigError(Exception):
    pass


@dataclass
class KMeansConfig:
    k: int = 12
    max_iters: int = 300
    tol: float = 1e-8


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
    k: tuple = (4, 16)

    def __post_init__(self):
        if self.trials < 1:
            raise ConfigError("tune.trials must be >= 1")
        if self.objective not in ("ae_reconstruction_mse", "kmeans_silhouette"):
            raise ConfigError(f"unknown tune objective {self.objective!r}")
        for name in ("batch_size", "learning_rate", "latent_size", "k"):
            lo, hi = getattr(self, name)
            if not lo < hi:
                raise ConfigError(f"tune.{name} range must be non-degenerate")
            setattr(self, name, (lo, hi))


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
        if len(set(self.seeds)) != len(self.seeds):
            raise ConfigError("seed list entries must be unique")
        self.out_root = self.out_root or os.environ.get(OUT_ROOT_ENV, "out")
        self.labeler = AutoencoderConfig(**(self.labeler or {}))
        self.kmeans = KMeansConfig(**(self.kmeans or {}))
        self.env = EnvConfig(**(self.env or {}))
        self.ppo = PPOConfig(**(self.ppo or {}))
        self.tune = TuneSpec(**(self.tune or {}))
        # preprocess always writes WINDOW_LEN-step windows of N_FEATURES each
        for name, value, fixed in (
            ("env.window_len", self.env.window_len, WINDOW_LEN),
            ("labeler.input_size", self.labeler.input_size, WINDOW_LEN * N_FEATURES),
        ):
            if value != fixed:
                raise ConfigError(f"{name} must be {fixed}, the window preprocess writes")

    @classmethod
    def from_dict(cls, d):
        try:
            return cls(**d)
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"bad config: {exc}") from exc

    def config_hash(self):
        """Stable digest of everything that affects results (the output
        root itself is excluded so moving outputs does not rekey them)."""
        d = asdict(self)
        d.pop("out_root")
        canonical = json.dumps(d, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(canonical.encode()).hexdigest()[:12]

    def run_dir(self, *parts):
        return os.path.join(self.out_root, self.config_hash(), *map(str, parts))


def load_config(path, overrides=()):
    try:
        with open(path, encoding="utf-8") as fh:
            data = json.load(fh)
    except FileNotFoundError as exc:
        raise ConfigError(f"config file not found: {path}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config file {path} is not valid JSON: {exc}") from exc
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


def write_effective_config(config, directory):
    os.makedirs(directory, exist_ok=True)
    path = os.path.join(directory, "effective_config.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(asdict(config), fh, indent=2, sort_keys=True)
        fh.write("\n")
    return path


def validate_split(train_series, test_series):
    """The evaluation range must strictly follow the training range."""
    if train_series.timestamps[-1] >= test_series.timestamps[0]:
        raise ConfigError(
            "training data must end before evaluation data begins: "
            f"train ends {train_series.timestamps[-1]}, "
            f"test starts {test_series.timestamps[0]}"
        )
