"""Pipeline driver: preprocess -> label -> train -> backtest.

Every stage reads one JSON config and writes under
out_root/<stage>/<key>/, where the key covers only the settings that
stage and the stages upstream of it read (`config.STAGES`), so a run
that changes a training setting reuses the windows and labels.
Exit codes: 0 success, 1 usage, 2 data problem, 3 numeric failure.
"""

import argparse
import contextlib
import functools
import json
import math
import multiprocessing
import os
import sys
import traceback
from concurrent.futures import ProcessPoolExecutor, ThreadPoolExecutor

import numpy as np

from .agent import N_CLUSTERS, load_policy
from .agent import train as train_agent
from .backtest import (
    BacktestError,
    BacktestReport,
    SeedAggregate,
    emit_report,
    run_backtest,
)
from .checkpoint import file_sha256, write_artifact
from .config import (
    ConfigError,
    load_config,
    validate_split,
    write_effective_config,
)
from .data import (
    N_FEATURES,
    WINDOW_LEN,
    DataError,
    build_windows,
    compute_features,
    compute_returns,
    parse_candles,
    window_end_indices,
)
from .env import ACTION_VALUES, EnvError, position_rewards, step_returns
from .labeler import (
    AutoencoderConfig,
    DivergedLoss,
    LabelerError,
    kmeans_assign,
    kmeans_fit,
    label_dataset,
    save_autoencoder,
    save_kmeans,
    silhouette_score,
    train_autoencoder,
)
from .nn import NonFiniteValue

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_NUMERIC = 3

SPLITS = ("train", "test")
LABELS_HEADER = "window_end_index,label"
REWARDS_HEADER = "step,reward"


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _read_text(path):
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except FileNotFoundError as exc:
        raise ConfigError(f"input file not found: {path}") from exc
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{path} is not UTF-8 text: {exc}") from exc


def _read_table(path, header, *parsers):
    """The columns of the CSV file at ``path``, one list per parser. The
    first line must be ``header`` and every other line one field per
    parser, which parses it; anything else raises ConfigError naming the
    file and the line."""
    first, *lines = _read_text(path).strip().split("\n")
    if first != header:
        raise ConfigError(f"{path} line 1: expected the header {header!r}")
    columns = [[] for _ in parsers]
    for lineno, line in enumerate(lines, start=2):
        fields = line.split(",")
        if len(fields) != len(parsers):
            raise ConfigError(f"{path} line {lineno}: expected {len(parsers)} fields")
        try:
            for column, parse, field in zip(columns, parsers, fields):
                column.append(parse(field))
        except ValueError as exc:
            raise ConfigError(f"{path} line {lineno}: {exc}") from exc
    return columns


def _write_table(path, header, rows):
    """Writes rows of Python ints and floats as a CSV file under
    ``header``, each value by repr so floats read back exactly; returns
    its sha256."""
    text = "".join(",".join(map(repr, row)) + "\n" for row in rows)
    return write_artifact(path, f"{header}\n{text}")


def _load_array(path, what):
    if not os.path.exists(path):
        raise ConfigError(f"{what} missing at {path}; run the earlier stage first")
    try:
        return np.load(path)
    except (ValueError, EOFError) as exc:
        raise ConfigError(f"{what} at {path} is not a readable array: {exc}") from exc


def _load_windows(config, split):
    """A split's windows.npy, checked to hold one row of WINDOW_LEN *
    N_FEATURES values per window."""
    path = config.run_dir("preprocess", split, "windows.npy")
    windows = _load_array(path, f"{split} windows")
    width = WINDOW_LEN * N_FEATURES
    if windows.ndim != 2 or windows.shape[1] != width:
        raise ConfigError(f"{path} holds an array of shape {windows.shape}, not (n, {width})")
    return windows


def _load_split(config, split):
    """(windows, returns, z) of a split, with z from `step_returns`; arrays
    that do not align name the split's returns.npy."""
    windows = _load_windows(config, split)
    path = config.run_dir("preprocess", split, "returns.npy")
    returns = _load_array(path, f"{split} returns")
    try:
        return windows, returns, step_returns(returns, windows)
    except EnvError as exc:
        raise ConfigError(f"{path}: {exc}") from exc


def cmd_preprocess(config, args):
    series = {}
    for split in SPLITS:
        path = config.train_csv if split == "train" else config.test_csv
        series[split] = parse_candles(_read_text(path))
    validate_split(series["train"], series["test"])

    manifest = {}
    for split in SPLITS:
        files = {}
        for name, arr in (
            ("returns", compute_returns(series[split])),
            ("windows", build_windows(compute_features(series[split]))),
        ):
            digest = write_artifact(config.run_dir("preprocess", split, f"{name}.npy"), arr)
            files[name] = {"rows": int(arr.shape[0]), "sha256": digest}
        manifest[split] = {"candles": len(series[split]), "files": files}

    text = json.dumps(manifest, indent=2, sort_keys=True) + "\n"
    write_artifact(config.run_dir("preprocess", "manifest.json"), text)
    write_effective_config(config, "preprocess")
    print(f"preprocess: wrote artifacts under {config.run_dir('preprocess')}")
    return EXIT_OK


def cmd_label(config, args):
    train_windows = _load_windows(config, "train")
    test_windows = _load_windows(config, "test")
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
    for split, labels in (
        ("train", kmeans_assign(km, codes)),
        ("test", label_dataset(ae, km, test_windows)),
    ):
        _write_table(
            os.path.join(out_dir, f"labels_{split}.csv"), LABELS_HEADER,
            zip(window_end_indices(len(labels)).tolist(), labels.tolist()),
        )
    write_effective_config(config, "label")
    print(
        f"label: ae epochs={len(history)} kmeans iters={km.n_iter} "
        f"inertia={km.inertia:.6g}; wrote {out_dir}"
    )
    return EXIT_OK


def _load_labels(config, n_windows):
    """The training windows' cluster labels, each checked to label the
    window its line says, in order, with a class of the auxiliary head."""
    path = config.run_dir("label", "labels_train.csv")
    if not os.path.exists(path):
        raise ConfigError(f"labels missing at {path}; run the label stage first")
    ends, labels = _read_table(path, LABELS_HEADER, int, int)
    if len(labels) != n_windows:
        raise ConfigError(f"label file {path} covers {len(labels)} windows, expected {n_windows}")
    expected = window_end_indices(n_windows).tolist()
    for lineno, (end, want, label) in enumerate(zip(ends, expected, labels), start=2):
        if end != want or not 0 <= label < N_CLUSTERS:
            raise ConfigError(
                f"{path} line {lineno}: expected window_end_index {want} "
                f"and a label in [0, {N_CLUSTERS}), got {end},{label}"
            )
    return np.array(labels, dtype=np.int64)


def _cpus():
    """The number of CPUs this process may run on: its CPU affinity, else
    the machine's count (a cgroup CPU quota is not read)."""
    affinity = getattr(os, "sched_getaffinity", None)
    return len(affinity(0)) if affinity else (os.cpu_count() or 1)


def _seeds(config, args):
    """The seeds a command runs: ``--seed``, which follows the rule for a
    config seed, else the config's."""
    if args.seed is None:
        return list(config.seeds)
    if args.seed < 0:
        raise ConfigError(f"--seed must be a non-negative integer, got {args.seed}")
    return [args.seed]


def _spawn_pool(workers):
    return ProcessPoolExecutor(workers, mp_context=multiprocessing.get_context("spawn"))


def _run_seeds(stage, fn, config, seeds, pool, done, *shared):
    """Runs fn(config, seed, *shared) for every seed and passes what it
    returns to ``done``, in seed order. Returns EXIT_OK, or the exit code
    of the first failed seed in seed order once every seed has run.

    ``shared`` is what every seed gets besides its seed: the inputs all
    seeds read, loaded and checked once by the caller, and any flags.
    Seeds run one after another here, or on ``pool`` (`_spawn_pool`,
    ThreadPoolExecutor) with at most one worker per CPU this process may
    run on. Every seed runs whatever the others do. `_guarded` reports a
    failure as it happens and hands back its exit code, as not every
    exception survives pickling; any other exception, or a worker that
    died, counts as a data problem.
    """
    parallel = pool is not None and len(seeds) > 1
    failed = {}
    with pool(min(len(seeds), _cpus())) if parallel else contextlib.nullcontext() as workers:
        if workers:
            calls = [workers.submit(_guarded, fn, config, s, *shared).result for s in seeds]
        else:
            calls = [functools.partial(_guarded, fn, config, s, *shared) for s in seeds]
        for seed, call in zip(seeds, calls):
            try:
                result = call()
            except Exception as exc:  # BrokenProcessPool included
                print(f"fxppo: seed {seed}: {exc!r}", file=sys.stderr)
                traceback.print_exception(exc, file=sys.stderr)
                result = EXIT_DATA
            if isinstance(result, int):
                failed[seed] = result
            else:
                done(result)
    if failed:
        print(f"fxppo: {stage} failed for seeds {list(failed)}", file=sys.stderr)
        return next(iter(failed.values()))
    return EXIT_OK


def _train_one_seed(config, seed, windows, returns, labels, force):
    out_dir = config.run_dir("train", seed)
    final = os.path.join(out_dir, "final.bin")
    if os.path.exists(final) and not force:
        raise ConfigError(f"{final} already exists; pass --force to overwrite")
    write_effective_config(config, "train", seed)
    _, log_rows = train_agent(
        windows, returns, labels, config.env, config.ppo, seed,
        checkpoint_dir=out_dir,
        log_path=os.path.join(out_dir, "train_log.csv"),
    )
    return f"train: seed {seed} finished {len(log_rows)} updates -> {out_dir}"


def cmd_train(config, args):
    seeds = _seeds(config, args)
    windows, returns, _ = _load_split(config, "train")
    labels = _load_labels(config, windows.shape[0])
    pool = _spawn_pool if args.parallel_seeds else None
    shared = (windows, returns, labels, args.force)
    return _run_seeds("train", _train_one_seed, config, seeds, pool, print, *shared)


def _backtest_one_seed(config, seed, windows, returns):
    checkpoint = config.run_dir("train", seed, "final.bin")
    if not os.path.exists(checkpoint):
        raise BacktestError(f"no checkpoint found for seed {seed}")
    net, _ = load_policy(checkpoint)
    if net.input_size != windows.shape[1]:
        raise ConfigError(
            f"{checkpoint}: the policy takes windows of {net.input_size} values, "
            f"the test split's have {windows.shape[1]}"
        )
    report = run_backtest(
        net, windows, returns, config.env, seed=seed,
        checkpoint_hash=file_sha256(checkpoint),
    )
    seed_dir = config.run_dir("backtest", seed)
    rewards_sha256 = _write_table(
        os.path.join(seed_dir, "rewards.csv"), REWARDS_HEADER, enumerate(report.rewards.tolist())
    )
    meta = {"seed": seed, "checkpoint_hash": report.checkpoint_hash,
            "data_range": list(report.data_range), "steps": len(report.rewards),
            "rewards_sha256": rewards_sha256}
    write_artifact(os.path.join(seed_dir, "meta.json"), json.dumps(meta) + "\n")
    return report


def cmd_backtest(config, args):
    """Backtests ``--seed``, or every config seed on threads. A seed has
    its own network and arrays, so its files have the bytes of a run on
    its own. The summary is made from the reports the seeds return;
    `fxppo report` makes the same bytes from their files."""
    seeds = _seeds(config, args)
    windows, returns, _ = _load_split(config, "test")
    reports = []
    code = _run_seeds("backtest", _backtest_one_seed, config, seeds, ThreadPoolExecutor,
                      reports.append, windows, returns)
    if code:
        return code
    write_effective_config(config, "backtest")
    if args.seed is None:
        equity_path, summary_path = _emit_summary(config, reports, args.baseline)
        print(f"backtest: wrote {equity_path} and {summary_path}")
    else:
        print(f"backtest: seed {args.seed} done")
    return EXIT_OK


def cmd_simulate(config, args):
    """Pays out an action file from --start with `position_rewards`, the
    backtest's arithmetic, for cross-checking reward streams."""
    if args.start < 0:
        raise DataError(f"--start must be >= 0, got {args.start}")
    out = args.out or config.run_dir("simulate", "rewards.csv")
    if os.path.isdir(out):
        raise DataError(f"--out {out} is a directory; name the rewards file to write")
    _, _, z = _load_split(config, args.split)
    (actions,) = _read_table(args.actions, "action", int)
    for lineno, action in enumerate(actions, start=2):
        if action not in ACTION_VALUES:
            raise ConfigError(f"{args.actions} line {lineno}: action must be -1, 0 or 1")
    end = args.start + len(actions)
    if end > len(z):
        raise DataError(
            f"{len(actions)} actions from --start {args.start} need {end} steps; "
            f"the {args.split} split has {len(z)}"
        )
    rewards = position_rewards(actions, z[args.start : end], config.env.spread_cost)
    _write_table(out, REWARDS_HEADER, enumerate(rewards.tolist()))
    print(f"simulate: wrote {len(rewards)} rewards to {out}")
    return EXIT_OK


def cmd_tune(config, args):
    spec = config.tune
    windows = _load_windows(config, "train")
    out_dir = config.run_dir("tune")
    rng = np.random.default_rng(spec.seed)

    rows = []
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
        rows.append((trial, batch, lr, latent, k, objective))
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

    header = "trial,batch_size,learning_rate,latent_size,k,objective"
    _write_table(os.path.join(out_dir, "trials.csv"), header, rows)
    text = json.dumps(best, indent=2, sort_keys=True) + "\n"
    write_artifact(os.path.join(out_dir, "best.json"), text)
    write_effective_config(config, "tune")
    print(
        f"tune: {spec.trials} trials, best objective {best['objective']!r} "
        f"(trial {best['trial']}) -> {out_dir}"
    )
    return EXIT_OK


def _stored_reports(config):
    """Every config seed's BacktestReport, read back from its rewards.csv
    and checked against its meta.json."""
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
        step_column, rewards = _read_table(rewards_path, REWARDS_HEADER, int, float)
        for i, step in enumerate(step_column):
            if step != i:
                raise ConfigError(f"{rewards_path} line {i + 2}: step {step}, expected {i}")
        if len(rewards) != steps:
            raise ConfigError(f"{rewards_path} has {len(rewards)} steps, {meta_path} records {steps}")
        if file_sha256(rewards_path) != rewards_sha256:
            raise ConfigError(f"{rewards_path} does not match the sha256 in {meta_path}")
        reports.append(BacktestReport(rewards, seed, data_range, checkpoint_hash))
    return reports


def _emit_summary(config, reports, baseline):
    """Writes equity.csv and summary.txt from the seeds' reports, in seed
    order, and prints the summary; returns both paths."""
    paths = emit_report(
        SeedAggregate(reports), config.run_dir("backtest"),
        baseline_summary=baseline,
    )
    print(_read_text(paths[1]), end="")
    return paths


def cmd_report(config, args):
    _emit_summary(config, _stored_reports(config), args.baseline)
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
    seed = {"--seed": {"type": int, "default": None}}
    add(
        "train", cmd_train, **seed,
        **{"--parallel-seeds": {"action": "store_true"}, "--force": {"action": "store_true"}},
    )
    add("backtest", cmd_backtest, **seed, **{"--baseline": {"default": None}})
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


def _check_input_files(args):
    """Every input-file flag given names a file; a missing file or a
    directory exits 2 naming its flag, before the command does any work."""
    for flag in ("--config", "--actions", "--baseline"):
        path = getattr(args, flag[2:], None)
        if path is not None and not os.path.isfile(path):
            what = "is a directory" if os.path.isdir(path) else "does not exist"
            raise ConfigError(f"{flag} {path} {what}; name an existing file")


def _run(args):
    _check_input_files(args)
    return args.func(load_config(args.config, args.set), args)


def _guarded(fn, *args):
    """fn(*args), with a pipeline failure reported on stderr and returned
    as its exit code."""
    try:
        return fn(*args)
    except (NonFiniteValue, DivergedLoss) as exc:
        print(f"fxppo: numeric failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except (ConfigError, DataError, LabelerError, BacktestError, OSError) as exc:
        print(f"fxppo: {exc}", file=sys.stderr)
        return EXIT_DATA


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "seed", None) is not None and getattr(args, "baseline", None) is not None:
        parser.error("--baseline compares the all-seeds summary; it cannot go with --seed")
    if getattr(args, "version", False) and args.command is None:
        from . import __version__

        print(f"fxppo {__version__}")
        return EXIT_OK
    if args.command is None:
        parser.print_usage(sys.stderr)
        return EXIT_USAGE
    return _guarded(_run, args)


if __name__ == "__main__":
    sys.exit(main())
