"""Pipeline driver: preprocess -> label -> train -> backtest.

Every stage reads one JSON config and writes under
out_root/<config-hash>/<stage>/, so differently configured runs never
share files. Exit codes: 0 success, 1 usage, 2 data problem, 3 numeric
failure.
"""

import argparse
import json
import math
import multiprocessing
import os
import sys
from concurrent.futures import ProcessPoolExecutor

import numpy as np

from .agent import load_policy
from .agent import train as train_agent
from .backtest import (
    BacktestError,
    BacktestReport,
    MissingCheckpoint,
    SeedAggregate,
    emit_report,
    run_backtest,
)
from .checkpoint import CheckpointError, file_sha256, write_artifact
from .config import (
    ConfigError,
    load_config,
    validate_split,
    write_effective_config,
)
from .data import (
    DataError,
    build_windows,
    compute_features,
    compute_returns,
    parse_candles,
    window_end_indices,
)
from .labeler import (
    AutoencoderConfig,
    DivergedLoss,
    LabelerError,
    kmeans_assign,
    kmeans_fit,
    label_dataset,
    read_labels_csv,
    save_autoencoder,
    save_kmeans,
    silhouette_score,
    train_autoencoder,
    write_labels_csv,
)
from .nn import NonFiniteValue

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_NUMERIC = 3

SPLITS = ("train", "test")


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        raise SystemExit(EXIT_USAGE)


def _read_text(path):
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except FileNotFoundError as exc:
        raise ConfigError(f"input file not found: {path}") from exc


def _load_array(path, what):
    if not os.path.exists(path):
        raise ConfigError(f"{what} missing at {path}; run the earlier stage first")
    try:
        return np.load(path)
    except (ValueError, EOFError) as exc:
        raise ConfigError(f"{what} at {path} is not a readable array: {exc}") from exc


def _split_dir(config, split):
    return config.run_dir("preprocess", split)


def cmd_preprocess(config, args):
    series = {}
    for split in SPLITS:
        path = config.train_csv if split == "train" else config.test_csv
        series[split] = parse_candles(_read_text(path))
    validate_split(series["train"], series["test"])

    manifest = {}
    for split in SPLITS:
        out_dir = _split_dir(config, split)
        features = compute_features(series[split])
        returns = compute_returns(series[split])
        windows = build_windows(features)
        files = {}
        for name, arr in (
            ("features", features),
            ("returns", returns),
            ("windows", windows),
        ):
            digest = write_artifact(os.path.join(out_dir, f"{name}.npy"), arr)
            files[name] = {"rows": int(arr.shape[0]), "sha256": digest}
        manifest[split] = {"candles": len(series[split]), "files": files}

    stage_dir = config.run_dir("preprocess")
    text = json.dumps(manifest, indent=2, sort_keys=True) + "\n"
    write_artifact(os.path.join(stage_dir, "manifest.json"), text)
    write_effective_config(config, stage_dir)
    print(f"preprocess: wrote artifacts under {stage_dir}")
    return EXIT_OK


def cmd_label(config, args):
    train_windows = _load_array(
        os.path.join(_split_dir(config, "train"), "windows.npy"), "training windows"
    )
    test_windows = _load_array(
        os.path.join(_split_dir(config, "test"), "windows.npy"), "test windows"
    )
    out_dir = config.run_dir("label")

    ae, history = train_autoencoder(train_windows, config.labeler, config.axt_seed)
    codes = ae.encode(train_windows)
    km = kmeans_fit(
        codes,
        k=config.kmeans.k,
        seed=config.axt_seed,
        max_iters=config.kmeans.max_iters,
        tol=config.kmeans.tol,
    )
    save_autoencoder(os.path.join(out_dir, "ae.bin"), ae)
    save_kmeans(os.path.join(out_dir, "kmeans.bin"), km)
    for split, windows, labels in (
        ("train", train_windows, kmeans_assign(km, codes)),
        ("test", test_windows, label_dataset(ae, km, test_windows)),
    ):
        write_labels_csv(
            os.path.join(out_dir, f"labels_{split}.csv"),
            window_end_indices(windows.shape[0]),
            labels,
        )
    write_effective_config(config, out_dir)
    print(
        f"label: ae epochs={len(history)} kmeans iters={km.n_iter} "
        f"inertia={km.inertia:.6g}; wrote {out_dir}"
    )
    return EXIT_OK


def _load_labels_for(config, split, n_windows):
    path = os.path.join(config.run_dir("label"), f"labels_{split}.csv")
    if not os.path.exists(path):
        raise ConfigError(f"labels missing at {path}; run the label stage first")
    _, labels = read_labels_csv(path)
    if labels.shape[0] != n_windows:
        raise ConfigError(
            f"label file {path} covers {labels.shape[0]} windows, "
            f"expected {n_windows}"
        )
    return labels


def _run_seeds(stage, fn, config, seeds, parallel, *args):
    """Yields the line fn(config, seed, *args) returns for every seed, in
    seed order.

    Seeds run in this process, or with ``parallel`` in spawned worker
    processes, at most one per CPU this process may run on. A worker hands
    back a failure as its exit code (see ``_guarded``), because not every
    exception survives pickling; a seed whose worker died or raised
    anything else fails too.
    """
    if not parallel or len(seeds) < 2:
        for seed in seeds:
            yield fn(config, seed, *args)
        return
    failed = []
    affinity = getattr(os, "sched_getaffinity", None)
    cpus = len(affinity(0)) if affinity else (os.cpu_count() or 1)
    with ProcessPoolExecutor(
        min(len(seeds), cpus),
        mp_context=multiprocessing.get_context("spawn"),
    ) as pool:
        futures = [pool.submit(_guarded, fn, config, seed, *args) for seed in seeds]
        for seed, future in zip(seeds, futures):
            try:
                result = future.result()
            except Exception as exc:  # BrokenProcessPool included
                print(f"fxppo: seed {seed}: {exc!r}", file=sys.stderr)
                result = EXIT_DATA
            if isinstance(result, int):
                failed.append(seed)
            else:
                yield result
    if failed:
        raise ConfigError(f"{stage} failed for seeds {failed}")


def _train_one_seed(config, seed, force):
    split_dir = _split_dir(config, "train")
    windows = _load_array(os.path.join(split_dir, "windows.npy"), "training windows")
    returns = _load_array(os.path.join(split_dir, "returns.npy"), "training returns")
    labels = _load_labels_for(config, "train", windows.shape[0])
    out_dir = config.run_dir("train", seed)
    final = os.path.join(out_dir, "final.bin")
    if os.path.exists(final) and not force:
        raise ConfigError(f"{final} already exists; pass --force to overwrite")
    write_effective_config(config, out_dir)
    _, log_rows = train_agent(
        windows, returns, labels, config.env, config.ppo, seed,
        checkpoint_dir=out_dir,
        log_path=os.path.join(out_dir, "train_log.csv"),
    )
    return f"train: seed {seed} finished {len(log_rows)} updates -> {out_dir}"


def cmd_train(config, args):
    seeds = [args.seed] if args.seed is not None else list(config.seeds)
    for line in _run_seeds(
        "train", _train_one_seed, config, seeds, args.parallel_seeds, args.force
    ):
        print(line)
    return EXIT_OK


def _write_rewards(path, rewards):
    """Writes the reward stream; returns its sha256."""
    rows = "".join(f"{i},{float(r)!r}\n" for i, r in enumerate(rewards))
    return write_artifact(path, "step,reward\n" + rows)


def _read_rewards(path):
    rows = _read_text(path).strip().split("\n")
    try:
        return np.array([float(r.split(",")[1]) for r in rows[1:]], dtype=np.float64)
    except (IndexError, ValueError) as exc:
        raise ConfigError(f"{path}: malformed reward row: {exc}") from exc


def _backtest_one_seed(config, seed):
    checkpoint = os.path.join(config.run_dir("train", seed), "final.bin")
    if not os.path.exists(checkpoint):
        raise MissingCheckpoint(seed)
    split_dir = _split_dir(config, "test")
    windows = _load_array(os.path.join(split_dir, "windows.npy"), "test windows")
    returns = _load_array(os.path.join(split_dir, "returns.npy"), "test returns")
    net, _ = load_policy(checkpoint)
    report = run_backtest(
        net, windows, returns, config.env, seed=seed,
        checkpoint_hash=file_sha256(checkpoint),
    )
    seed_dir = config.run_dir("backtest", seed)
    rewards_sha256 = _write_rewards(os.path.join(seed_dir, "rewards.csv"), report.rewards)
    meta = {"seed": seed, "checkpoint_hash": report.checkpoint_hash,
            "data_range": list(report.data_range), "steps": len(report.rewards),
            "rewards_sha256": rewards_sha256}
    write_artifact(os.path.join(seed_dir, "meta.json"), json.dumps(meta) + "\n")
    return f"backtest: seed {seed} done"


def cmd_backtest(config, args):
    if args.seed is not None:
        print(_backtest_one_seed(config, args.seed))
        return EXIT_OK
    for _ in _run_seeds(
        "backtest", _backtest_one_seed, config, list(config.seeds), args.parallel_seeds
    ):
        pass
    write_effective_config(config, config.run_dir("backtest"))
    equity_path, summary_path = _emit_summary(config, args.baseline)
    print(f"backtest: wrote {equity_path} and {summary_path}")
    return EXIT_OK


def _read_actions(path):
    text = _read_text(path).strip().split("\n")
    if not text or text[0] != "action":
        raise DataError(f"{path}: expected a single 'action' header column")
    actions = []
    for i, row in enumerate(text[1:], start=2):
        try:
            a = int(row)
        except ValueError as exc:
            raise DataError(f"{path} line {i}: not an integer action") from exc
        if a not in (-1, 0, 1):
            raise DataError(f"{path} line {i}: action must be -1, 0, or 1")
        actions.append(a)
    return actions


def cmd_simulate(config, args):
    """Direct arithmetic replay of an action file, independent of the
    stepping simulator, for cross-checking reward streams."""
    if args.start < 0:
        raise DataError(f"--start must be >= 0, got {args.start}")
    split_dir = _split_dir(config, args.split)
    returns = _load_array(os.path.join(split_dir, "returns.npy"), "returns")
    actions = _read_actions(args.actions)
    window_len = config.env.window_len
    offset = window_len if config.env.reward_timing == "next_return" else window_len - 1
    spread = config.env.spread_cost

    rewards = []
    position = 0
    for i, action in enumerate(actions):
        zi = args.start + offset + i
        if zi >= returns.shape[0]:
            raise DataError(
                f"action {i} needs return index {zi}, beyond {returns.shape[0]}"
            )
        z = float(returns[zi])
        rewards.append(action * z - spread * abs(action - position))
        position = action
    out = args.out or os.path.join(config.run_dir("simulate"), "rewards.csv")
    _write_rewards(out, rewards)
    print(f"simulate: wrote {len(rewards)} rewards to {out}")
    return EXIT_OK


def cmd_tune(config, args):
    spec = config.tune
    split_dir = _split_dir(config, "train")
    windows = _load_array(os.path.join(split_dir, "windows.npy"), "training windows")
    out_dir = config.run_dir("tune")
    rng = np.random.default_rng(spec.seed)

    rows = ["trial,batch_size,learning_rate,latent_size,k,objective"]
    best = None
    minimize = spec.objective == "ae_reconstruction_mse"
    for trial in range(spec.trials):
        batch = int(rng.integers(spec.batch_size[0], spec.batch_size[1] + 1))
        lr = math.exp(
            rng.uniform(
                math.log(spec.learning_rate[0]), math.log(spec.learning_rate[1])
            )
        )
        latent = int(rng.integers(spec.latent_size[0], spec.latent_size[1] + 1))
        k = int(rng.integers(spec.k[0], spec.k[1] + 1))

        ae_cfg = AutoencoderConfig(
            learning_rate=lr, batch_size=batch, latent_size=latent,
            max_epochs=spec.ae_epochs, patience=spec.ae_epochs,
        )
        ae, _ = train_autoencoder(windows, ae_cfg, config.axt_seed)
        save_autoencoder(os.path.join(out_dir, f"trial_{trial}_ae.bin"), ae)
        if minimize:
            objective = ae.reconstruction_mse(windows)
        else:
            sample = windows[: min(windows.shape[0], 400)]
            codes = ae.encode(sample)
            km = kmeans_fit(codes, k=k, seed=config.axt_seed)
            save_kmeans(os.path.join(out_dir, f"trial_{trial}_kmeans.bin"), km)
            objective = silhouette_score(codes, label_dataset(ae, km, sample))
        rows.append(f"{trial},{batch},{lr!r},{latent},{k},{objective!r}")
        better = (
            best is None
            or (minimize and objective < best["objective"])
            or (not minimize and objective > best["objective"])
        )
        if better:
            best = {
                "trial": trial, "batch_size": batch, "learning_rate": lr,
                "latent_size": latent, "k": k, "objective": objective,
            }

    write_artifact(os.path.join(out_dir, "trials.csv"), "\n".join(rows) + "\n")
    text = json.dumps(best, indent=2, sort_keys=True) + "\n"
    write_artifact(os.path.join(out_dir, "best.json"), text)
    write_effective_config(config, out_dir)
    print(
        f"tune: {spec.trials} trials, best objective {best['objective']!r} "
        f"(trial {best['trial']}) -> {out_dir}"
    )
    return EXIT_OK


def _emit_summary(config, baseline):
    """Writes equity.csv and summary.txt from every seed's stored stream
    and prints the summary; returns both paths."""
    reports = []
    for seed in config.seeds:
        seed_dir = config.run_dir("backtest", seed)
        rewards_path = os.path.join(seed_dir, "rewards.csv")
        if not os.path.exists(rewards_path):
            raise ConfigError(f"rewards missing at {rewards_path}; run backtest first")
        meta_path = os.path.join(seed_dir, "meta.json")
        try:
            meta = json.loads(_read_text(meta_path))
            data_range, checkpoint_hash = tuple(meta["data_range"]), meta["checkpoint_hash"]
            steps, rewards_sha256 = meta["steps"], meta["rewards_sha256"]
        except (json.JSONDecodeError, KeyError, TypeError) as exc:
            raise ConfigError(f"{meta_path} is not a backtest meta file: {exc!r}") from exc
        rewards = _read_rewards(rewards_path)
        if len(rewards) != steps:
            raise ConfigError(f"{rewards_path} has {len(rewards)} steps, {meta_path} records {steps}")
        if file_sha256(rewards_path) != rewards_sha256:
            raise ConfigError(f"{rewards_path} does not match the sha256 in {meta_path}")
        reports.append(BacktestReport(rewards, seed, data_range, checkpoint_hash))
    paths = emit_report(
        SeedAggregate(reports), config.run_dir("backtest"),
        baseline_summary=baseline,
    )
    print(_read_text(paths[1]), end="")
    return paths


def cmd_report(config, args):
    _emit_summary(config, args.baseline)
    return EXIT_OK


def build_parser():
    parser = _Parser(prog="fxppo", description=__doc__)
    parser.add_argument(
        "--version", action="store_true", help="print version"
    )
    sub = parser.add_subparsers(dest="command")

    def add(name, func, **extra_flags):
        p = sub.add_parser(name)
        p.add_argument("--config", required=True)
        p.add_argument(
            "--set", action="append", default=[], metavar="KEY=VALUE",
            help="override a config entry (repeatable)",
        )
        p.set_defaults(func=func)
        for flag, kwargs in extra_flags.items():
            p.add_argument(flag, **kwargs)
        return p

    add("preprocess", cmd_preprocess)
    add("label", cmd_label)
    per_seed = {
        "--seed": {"type": int, "default": None},
        "--parallel-seeds": {"action": "store_true"},
    }
    add("train", cmd_train, **per_seed, **{"--force": {"action": "store_true"}})
    add("backtest", cmd_backtest, **per_seed, **{"--baseline": {"default": None}})
    add(
        "simulate", cmd_simulate,
        **{
            "--actions": {"required": True},
            "--split": {"choices": SPLITS, "default": "test"},
            "--start": {"type": int, "default": 0},
            "--out": {"default": None},
        },
    )
    add("tune", cmd_tune)
    add("report", cmd_report, **{"--baseline": {"default": None}})
    return parser


def _guarded(fn, *args):
    """fn(*args), with a pipeline failure reported on stderr and returned
    as its exit code."""
    try:
        return fn(*args)
    except (NonFiniteValue, DivergedLoss) as exc:
        print(f"fxppo: numeric failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except (ConfigError, DataError, CheckpointError, LabelerError,
            BacktestError, OSError) as exc:
        print(f"fxppo: {exc}", file=sys.stderr)
        return EXIT_DATA


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "version", False) and args.command is None:
        from . import __version__

        print(f"fxppo {__version__}")
        return EXIT_OK
    if args.command is None:
        parser.print_usage(sys.stderr)
        return EXIT_USAGE
    return _guarded(lambda: args.func(load_config(args.config, args.set), args))


if __name__ == "__main__":
    sys.exit(main())
