"""The three workloads: what each sets up, times and checks.

Every stage runs in-process through ``fxppo.cli.main``, the entry point a
user runs. A workload writes its synthetic CSVs and runs the earlier
stages it needs (set-up), then repeats its timed stage in whole rounds of
identical work until the run's time is used, then checks the last
round's outputs.
"""

import contextlib
import hashlib
import json
import os
import resource
import statistics
import time
from dataclasses import dataclass

from fxppo import cli
from fxppo.config import load_config

import checks
import synth

AXT_SEED = 30
ROLLOUT = 600
MINIBATCH = 32
EPISODE_LENGTH = 600
SPREAD = 0.0001  # about one pip on EUR/USD, as a share of the price


@dataclass(frozen=True)
class Sizes:
    train_candles: int
    test_candles: int
    ae_epochs: int  # patience equals epochs, so every epoch runs
    kmeans_max_iters: int
    ppo_iters: int  # PPO iterations in one `fxppo train`
    ppo_epochs: int
    seeds: tuple  # training seeds; backtest replays each
    setup_reps: int


@dataclass(frozen=True)
class Workload:
    name: str  # also the timed `fxppo` stage
    setup_stages: tuple
    item: str  # what one unit of items_per_s is
    sizes: Sizes
    tiny: Sizes  # for the benchmark's own tests

    def items(self, sizes):
        if self.name == "train":
            return sizes.ppo_iters * ROLLOUT * len(sizes.seeds)
        if self.name == "backtest":
            return len(sizes.seeds) * (checks.n_windows(sizes.test_candles) - 1)
        return checks.n_windows(sizes.train_candles)


WORKLOADS = {
    # The PPO update (LSTM BPTT, row-wise dense backward, Adam) is about
    # 90% of a train round; the rollout the rest. Set-up labels the data
    # with a short autoencoder fit and k-means capped at a fixed
    # iteration count, so set-up does the same work for every seed.
    "train": Workload(
        "train", ("preprocess", "label"), "environment step trained",
        Sizes(3000, 500, 1, 10, ppo_iters=2, ppo_epochs=4, seeds=(30,),
              setup_reps=3),
        Sizes(400, 140, 1, 10, ppo_iters=2, ppo_epochs=1, seeds=(30,),
              setup_reps=1),
    ),
    # Forward-only at T=1 over a long test split, two seeds, spread > 0.
    # The checkpoints come from one short PPO iteration per seed.
    "backtest": Workload(
        "backtest", ("preprocess", "label", "train"), "test step replayed",
        Sizes(3000, 8000, 1, 10, ppo_iters=1, ppo_epochs=1, seeds=(30, 50),
              setup_reps=3),
        Sizes(400, 300, 1, 10, ppo_iters=1, ppo_epochs=1, seeds=(30, 50),
              setup_reps=1),
    ),
    # Autoencoder epochs (batched gemm, Adam on ~20k parameters), then
    # k-means run to convergence, then both splits labelled. k-means
    # iterations to convergence vary with the data, so the epochs are
    # many enough that the autoencoder dominates a round.
    "label": Workload(
        "label", ("preprocess",), "training window labelled",
        Sizes(3000, 4000, 40, 300, ppo_iters=1, ppo_epochs=1, seeds=(30,),
              setup_reps=5),
        Sizes(400, 140, 2, 300, ppo_iters=1, ppo_epochs=1, seeds=(30,),
              setup_reps=1),
    ),
}


def run_cli(argv, log):
    """One `fxppo ...` call in-process; returns its exit code."""
    with contextlib.redirect_stdout(log):
        try:
            return cli.main(argv)
        except SystemExit as exc:
            return exc.code


class StageFailed(RuntimeError):
    pass


def config_dict(directory, sizes):
    return {
        "train_csv": os.path.join(directory, "train.csv"),
        "test_csv": os.path.join(directory, "test.csv"),
        "seeds": list(sizes.seeds),
        "axt_seed": AXT_SEED,
        "out_root": os.path.join(directory, "out"),
        "labeler": {"max_epochs": sizes.ae_epochs, "patience": sizes.ae_epochs},
        "kmeans": {"k": checks.N_CLUSTERS, "max_iters": sizes.kmeans_max_iters},
        "env": {"episode_length": EPISODE_LENGTH, "spread_cost": SPREAD},
        "ppo": {
            "total_timesteps": sizes.ppo_iters * ROLLOUT,
            "rollout_length": ROLLOUT,
            "minibatch_size": MINIBATCH,
            "epochs_per_update": sizes.ppo_epochs,
        },
    }


def set_up(workload, sizes, directory, seed, log):
    """Writes the inputs and runs the earlier stages into ``directory``.
    Returns (config path, test-split close prices)."""
    os.makedirs(directory)
    closes = synth.write_split(
        os.path.join(directory, "train.csv"), os.path.join(directory, "test.csv"),
        sizes.train_candles, sizes.test_candles, seed,
    )
    config_path = os.path.join(directory, "config.json")
    with open(config_path, "w", encoding="utf-8") as fh:
        json.dump(config_dict(directory, sizes), fh, indent=1)
    for stage in workload.setup_stages:
        code = run_cli([stage, "--config", config_path], log)
        if code != 0:
            raise StageFailed(f"set-up stage {stage} exited with {code}")
    return config_path, closes


def stage_argv(workload, config_path):
    argv = [workload.name, "--config", config_path]
    return argv + ["--force"] if workload.name == "train" else argv


def artifacts(workload, sizes, config_path):
    """Paths of the files the checks read, keyed by role."""
    config = load_config(config_path)
    pre = config.run_dir("preprocess")
    label = config.run_dir("label")
    run = {
        "train_windows": os.path.join(pre, "train", "windows.npy"),
        "train_returns": os.path.join(pre, "train", "returns.npy"),
        "test_windows": os.path.join(pre, "test", "windows.npy"),
        "labels_train": os.path.join(label, "labels_train.csv"),
        "labels_test": os.path.join(label, "labels_test.csv"),
        "ae": os.path.join(label, "ae.bin"),
        "kmeans": os.path.join(label, "kmeans.bin"),
        "final": {s: os.path.join(config.run_dir("train", s), "final.bin")
                  for s in sizes.seeds},
        "train_log": os.path.join(config.run_dir("train", sizes.seeds[0]),
                                  "train_log.csv"),
        "rewards": {s: os.path.join(config.run_dir("backtest", s), "rewards.csv")
                    for s in sizes.seeds},
        "summary": os.path.join(config.run_dir("backtest"), "summary.txt"),
        "equity": os.path.join(config.run_dir("backtest"), "equity.csv"),
    }
    return run


def fingerprinted(workload, run):
    """The stage's outputs whose bytes must repeat exactly."""
    if workload.name == "train":
        return {f"{s}/final.bin": p for s, p in run["final"].items()} | {
            "train_log.csv": run["train_log"]}
    if workload.name == "backtest":
        return {f"{s}/rewards.csv": p for s, p in run["rewards"].items()}
    return {"labels_train.csv": run["labels_train"],
            "labels_test.csv": run["labels_test"]}


def sha256(path):
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def fingerprints(workload, run):
    out = {}
    for name, path in fingerprinted(workload, run).items():
        out[name] = sha256(path) if os.path.exists(path) else "missing"
    return out


def oracle_checks(workload, sizes, run, closes):
    """The correctness checks of one workload, as (name, fn, args)."""
    if workload.name == "train":
        final = run["final"][sizes.seeds[0]]
        env = {"episode_length": EPISODE_LENGTH, "spread_cost": SPREAD}
        return [
            ("train.log_rows", checks.train_log_rows, (run, sizes.ppo_iters, ROLLOUT)),
            ("train.log_values", checks.train_log_values, (run,)),
            ("train.checkpoint_counters", checks.train_checkpoint_counters,
             (final, sizes.ppo_iters, ROLLOUT, sizes.ppo_epochs, MINIBATCH)),
            ("train.exact_replay", checks.train_exact_replay,
             (run, final, ROLLOUT, MINIBATCH, env)),
        ]
    if workload.name == "backtest":
        seeds = sizes.seeds
        return [
            ("backtest.coverage", checks.backtest_coverage, (run, seeds, sizes.test_candles)),
            ("backtest.reward_accounting", checks.backtest_reward_accounting,
             (run, seeds, closes, SPREAD, EPISODE_LENGTH)),
            ("backtest.greedy_replay", checks.backtest_greedy_replay,
             (run, seeds, closes, SPREAD, EPISODE_LENGTH)),
            ("backtest.totals", checks.backtest_totals, (run, seeds)),
            ("backtest.sharpe", checks.backtest_sharpe, (run, seeds)),
            ("backtest.seed_means", checks.backtest_seed_means, (run, seeds)),
        ]
    return [
        ("label.rows", checks.label_rows, (run, sizes.train_candles, sizes.test_candles)),
        ("label.nearest_centroid", checks.label_nearest_centroid, (run,)),
        ("label.centroid_means", checks.label_centroid_means, (run,)),
    ]


@dataclass
class Result:
    setup_s: float
    setup_reps: list  # seconds of each set-up
    import_s: float
    peak_rss_mb: float
    items: int  # per round
    rates: list  # items_per_s of each untraced round
    traced_rates: list
    failed_rounds: int
    fingerprints: list  # one {file: sha256} per round
    checks: list  # (name, ok, detail)
    run: dict  # artifact paths of the last round
    closes: list  # test-split close prices

    @property
    def rounds(self):
        return len(self.fingerprints)


@contextlib.contextmanager
def _traced(tracer, modules, kind):
    if tracer is None:
        yield
        return
    tracer.install(modules)
    try:
        with tracer.phase(kind):
            yield
    finally:
        tracer.uninstall()


def run_workload(workload, sizes, workdir, seed, seconds, import_s=0.0,
                 tracer=None, modules=()):
    """Set-up, timed rounds, then checks.

    With a tracer, every set-up and every other round run traced; the
    rounds between them run untraced, so the tracing overhead can be read
    off the same run.
    """
    os.makedirs(workdir, exist_ok=True)
    with open(os.path.join(workdir, "stages.log"), "w", encoding="utf-8") as log:
        reps = []
        for i in range(sizes.setup_reps):
            with _traced(tracer, modules, "setup"):
                t0 = time.perf_counter()
                config_path, closes = set_up(
                    workload, sizes, os.path.join(workdir, f"setup{i}"), seed, log)
                reps.append(time.perf_counter() - t0)

        items = workload.items(sizes)
        argv = stage_argv(workload, config_path)
        run = artifacts(workload, sizes, config_path)
        rates, traced_rates, prints = [], [], []
        failed = 0
        start = time.perf_counter()
        while True:
            traced = tracer is not None and len(prints) % 2 == 1
            with _traced(tracer if traced else None, modules, "round"):
                t0 = time.perf_counter()
                code = run_cli(argv, log)
                dt = time.perf_counter() - t0
            if not prints:
                # set-up plus one run of the stage, as a user's process
                # would hold it: before the benchmark hashes any output or
                # repeats the stage in the same process
                peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            (traced_rates if traced else rates).append(items / dt)
            failed += code != 0
            prints.append(fingerprints(workload, run))
            if (time.perf_counter() - start >= seconds
                    and (tracer is None or traced_rates)):
                break

    results = checks.run_checks(oracle_checks(workload, sizes, run, closes))
    results.append(("fingerprints.rounds_agree",
                    all(p == prints[0] for p in prints),
                    f"{len(prints)} rounds, {len(set(map(repr, prints)))} distinct"))
    return Result(
        setup_s=import_s + statistics.median(reps), setup_reps=reps,
        import_s=import_s, peak_rss_mb=peak_rss_mb, items=items, rates=rates,
        traced_rates=traced_rates, failed_rounds=failed, fingerprints=prints,
        checks=results, run=run, closes=closes,
    )


def source_digest(root, paths):
    """sha256 over the given files, in order: keys the fingerprint store."""
    h = hashlib.sha256()
    for path in paths:
        h.update(os.path.relpath(path, root).encode())
        with open(path, "rb") as fh:
            h.update(fh.read())
    return h.hexdigest()[:16]


def compare_with_store(store_path, key, prints):
    """Checks this run's fingerprints against an earlier run with the same
    key (same program and benchmark sources, workload and seed), then
    records them. Returns (ok, detail)."""
    store = {}
    if os.path.exists(store_path):
        with open(store_path, encoding="utf-8") as fh:
            store = json.load(fh)
    earlier = store.get(key)
    if earlier is None:
        store[key] = prints
        tmp = f"{store_path}.{os.getpid()}.tmp"
        with open(tmp, "w", encoding="utf-8") as fh:
            json.dump(store, fh, indent=1, sort_keys=True)
        os.replace(tmp, store_path)
        return True, "first run with this key"
    return earlier == prints, "agrees with an earlier run" if earlier == prints else (
        f"differs from an earlier run: {earlier} vs {prints}")
