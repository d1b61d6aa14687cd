"""Config handling and the pipeline subcommands end to end."""

import argparse
import dataclasses
import hashlib
import io
import json
import os
import subprocess
import sys
import threading
import tracemalloc
from concurrent.futures import Future
from concurrent.futures.process import BrokenProcessPool
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fxppo
from fxppo import cli
from fxppo.agent import PolicyNetwork, save_policy
from fxppo.backtest import BacktestReport, MissingCheckpoint, parse_summary
from fxppo.cli import (
    EXIT_DATA,
    EXIT_NUMERIC,
    EXIT_OK,
    EXIT_USAGE,
    LABELS_HEADER,
    REWARDS_HEADER,
    main,
)
from fxppo.config import (
    STAGES,
    ConfigError,
    RunConfig,
    apply_override,
    load_config,
    validate_split,
    write_effective_config,
)
from fxppo.data import parse_candles
from fxppo.nn import Adam


def run_cli(argv):
    try:
        return main(argv)
    except SystemExit as exc:
        return exc.code


def write_csv(path, n, start_hour=0, seed=0, base=1.05):
    rng = np.random.default_rng(seed)
    rows = ["time,open,high,low,close"]
    c_prev = base
    for i in range(n):
        t = start_hour * 60 + i
        c = c_prev * (1.0 + rng.normal(scale=0.002))
        high = max(c_prev, c) * 1.001
        low = min(c_prev, c) * 0.999
        rows.append(
            f"2017-01-{2 + t // 1440:02d}T{(t // 60) % 24:02d}:{t % 60:02d},"
            f"{c_prev:.5f},{high:.5f},{low:.5f},{c:.5f}"
        )
        c_prev = c
    path.write_text("\n".join(rows) + "\n")


def write_workspace(tmp_path):
    """Two small CSV splits and a config that runs every stage in seconds."""
    train_csv = tmp_path / "train.csv"
    test_csv = tmp_path / "test.csv"
    write_csv(train_csv, 400, start_hour=0, seed=1)
    write_csv(test_csv, 140, start_hour=10, seed=2)
    config = {
        "train_csv": str(train_csv),
        "test_csv": str(test_csv),
        "seeds": [30, 50],
        "axt_seed": 30,
        "out_root": str(tmp_path / "out"),
        "labeler": {"max_epochs": 3, "patience": 3},
        "env": {"episode_length": 40},
        "ppo": {
            "rollout_length": 64,
            "total_timesteps": 128,
            "minibatch_size": 32,
            "learning_rate": 1e-3,
            "epochs_per_update": 2,
        },
        "tune": {"trials": 2, "ae_epochs": 2, "seed": 7},
    }
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(config))
    return tmp_path, str(config_path), config


@pytest.fixture
def workspace(tmp_path):
    return write_workspace(tmp_path)


def stage_dirs(config):
    """Each stage's directory under out_root."""
    return {stage: os.path.relpath(config.run_dir(stage), config.out_root) for stage in STAGES}


ALL_STAGES = {"preprocess", "label", "train", "backtest", "simulate", "tune"}
# top-level setting -> the stages whose directory it keys
DOWNSTREAM = {
    "train_csv": ALL_STAGES,
    "test_csv": ALL_STAGES,
    "labeler": {"label", "train", "backtest"},
    "kmeans": {"label", "train", "backtest"},
    "axt_seed": {"label", "train", "backtest", "tune"},
    "env": {"train", "backtest", "simulate"},
    "ppo": {"train", "backtest"},
    "seeds": {"backtest"},
    "tune": {"tune"},
    "out_root": set(),
}
# every settable value, with a valid value other than its default
OTHER_VALUES = {
    "train_csv": "c.csv", "test_csv": "d.csv", "seeds": [1], "axt_seed": 7,
    "out_root": "elsewhere",
    "labeler.hidden_sizes": [8], "labeler.latent_size": 5, "labeler.learning_rate": 0.01,
    "labeler.batch_size": 16, "labeler.max_epochs": 3, "labeler.patience": 2,
    "labeler.holdout_fraction": 0.2,
    "kmeans.k": 5, "kmeans.max_iters": 10, "kmeans.tol": 0.001,
    "env.episode_length": 10, "env.spread_cost": 0.001,
    "ppo.clip_epsilon": 0.1, "ppo.discount": 0.9, "ppo.gae_lambda": 0.9,
    "ppo.aux_loss_weight": 0, "ppo.value_loss_weight": 1, "ppo.entropy_coefficient": 0,
    "ppo.epochs_per_update": 1, "ppo.minibatch_size": 8, "ppo.rollout_length": 16,
    "ppo.total_timesteps": 1200, "ppo.learning_rate": 0.01, "ppo.max_grad_norm": 1,
    "ppo.checkpoint_every": 2,
    "tune.trials": 2, "tune.objective": "kmeans_silhouette", "tune.seed": 1,
    "tune.ae_epochs": 1, "tune.batch_size": [8, 9], "tune.learning_rate": [0.001, 0.01],
    "tune.latent_size": [2, 3], "tune.k": [2, 3],
}


def settable_values():
    """Dotted name of every settable config value."""
    config = RunConfig("a", "b")
    names = []
    for field in dataclasses.fields(config):
        section = getattr(config, field.name)
        if dataclasses.is_dataclass(section):
            names += [f"{field.name}.{f.name}" for f in dataclasses.fields(section)]
        else:
            names.append(field.name)
    return names


def with_value(name, value):
    """A config dict with one dotted value set."""
    d = {"train_csv": "a.csv", "test_csv": "b.csv"}
    apply_override(d, name, json.dumps(value))
    return d


class TestConfig:
    def test_load_and_hash_stable(self, workspace):
        _, config_path, _ = workspace
        assert stage_dirs(load_config(config_path)) == stage_dirs(load_config(config_path))

    def test_hash_changes_with_settings(self, workspace):
        _, config_path, _ = workspace
        c1 = load_config(config_path)
        c2 = load_config(config_path, ["ppo.learning_rate=0.01"])
        assert c1.run_dir("train") != c2.run_dir("train")
        assert c1.run_dir("label") == c2.run_dir("label")
        assert c2.ppo.learning_rate == 0.01

    def test_out_root_not_in_hash(self, workspace):
        _, config_path, _ = workspace
        c1 = load_config(config_path)
        c2 = load_config(config_path, ["out_root=elsewhere"])
        assert stage_dirs(c1) == stage_dirs(c2)

    def test_every_setting_rekeys_exactly_its_downstream_stages(self):
        assert sorted(OTHER_VALUES) == sorted(settable_values())
        assert len(OTHER_VALUES) == 38
        base = stage_dirs(RunConfig.from_dict(with_value("seeds", [30, 50, 70, 99])))
        for name, value in OTHER_VALUES.items():
            changed = stage_dirs(RunConfig.from_dict(with_value(name, value)))
            rekeyed = {stage for stage in base if changed[stage] != base[stage]}
            assert rekeyed == DOWNSTREAM[name.split(".")[0]], name

    def test_effective_config_is_the_hashed_dict(self, workspace):
        _, config_path, _ = workspace
        config = load_config(config_path)
        upstream = {"label": "preprocess", "train": "label", "backtest": "train",
                    "simulate": "preprocess", "tune": "preprocess"}
        for stage in STAGES:
            write_effective_config(config, stage)
            written = json.loads(Path(config.run_dir(stage, "effective_config.json")).read_text())
            canonical = json.dumps(written, sort_keys=True, separators=(",", ":"))
            assert hashlib.sha256(canonical.encode()).hexdigest()[:12] == config.stage_key(stage)
            if stage in upstream:
                up = upstream[stage]
                assert written["upstream"] == f"{up}/{config.stage_key(up)}"

    def test_nested_override_types(self, workspace):
        _, config_path, _ = workspace
        c = load_config(config_path, ["env.spread_cost=0.001", "seeds=[30]"])
        assert c.env.spread_cost == 0.001
        assert c.seeds == [30]

    def test_duplicate_seeds_rejected(self):
        with pytest.raises(ConfigError):
            RunConfig("a.csv", "b.csv", seeds=[30, 30])

    def test_empty_seeds_rejected(self):
        with pytest.raises(ConfigError):
            RunConfig("a.csv", "b.csv", seeds=[])

    def test_unknown_key_rejected(self, workspace):
        tmp_path, _, config = workspace
        config["bogus"] = 1
        p = tmp_path / "bad.json"
        p.write_text(json.dumps(config))
        with pytest.raises(ConfigError):
            load_config(str(p))

    def test_non_utf8_config_names_the_file(self, tmp_path, capsys):
        p = tmp_path / "latin1.json"
        p.write_bytes('{"train_csv": "caf\u00e9.csv"}'.encode("latin-1"))
        with pytest.raises(ConfigError, match="latin1.json"):
            load_config(str(p))
        assert run_cli(["preprocess", "--config", str(p)]) == EXIT_DATA
        err = capsys.readouterr().err
        assert str(p) in err and "Traceback" not in err

    @pytest.mark.parametrize("override", ["seeds=[1]", "ppo.learning_rate=0.1"])
    def test_top_level_array_with_override_names_the_file(self, tmp_path, capsys, override):
        p = tmp_path / "array.json"
        p.write_text('[{"train_csv": "a.csv", "test_csv": "b.csv"}]')
        with pytest.raises(ConfigError, match="array.json"):
            load_config(str(p), [override])
        assert run_cli(["preprocess", "--config", str(p), "--set", override]) == EXIT_DATA
        err = capsys.readouterr().err
        assert str(p) in err and "Traceback" not in err

    def test_split_order_enforced(self):
        a = parse_candles("time,open,high,low,close\n2017-01-02T00:00,1,1,1,1\n")
        b = parse_candles("time,open,high,low,close\n2017-01-01T00:00,1,1,1,1\n")
        with pytest.raises(ConfigError):
            validate_split(a, b)

    def test_hash_values_pinned(self):
        # output directories are keyed by these digests; a change re-keys
        # every existing run of that stage
        shared = {"preprocess": "0506190c364b", "label": "5c6a310518a8",
                  "simulate": "30e0c0693dd1"}
        assert {s: RunConfig("a", "b").stage_key(s) for s in STAGES} == {
            **shared, "train": "c6bc5e562e42", "backtest": "d6fc02eb1bec",
            "tune": "c1d87658dd9d"}
        c = RunConfig("a", "b", ppo={"learning_rate": 0.001}, tune={"k": [2, 8]})
        assert {s: c.stage_key(s) for s in STAGES} == {
            **shared, "train": "c51871b1a325", "backtest": "efc5c761b0ee",
            "tune": "47a793f5b6a8"}

    def test_env_var_out_root(self, monkeypatch):
        monkeypatch.setenv("FXPPO_OUT", "/tmp/custom_out")
        c = RunConfig("a.csv", "b.csv")
        assert c.out_root == "/tmp/custom_out"


class TestUsage:
    def test_no_command(self):
        assert run_cli([]) == EXIT_USAGE

    def test_unknown_command(self):
        assert run_cli(["frobnicate"]) == EXIT_USAGE

    def test_missing_config_flag(self):
        assert run_cli(["preprocess"]) == EXIT_USAGE

    def test_missing_config_file(self, tmp_path):
        assert run_cli(["preprocess", "--config", str(tmp_path / "no.json")]) == EXIT_DATA

    def test_version(self, capsys):
        assert run_cli(["--version"]) == EXIT_OK
        assert "fxppo" in capsys.readouterr().out


class TestPreprocess:
    def test_artifacts_and_manifest(self, workspace):
        tmp_path, config_path, raw = workspace
        assert run_cli(["preprocess", "--config", config_path]) == EXIT_OK
        config = load_config(config_path)
        manifest = json.loads(
            Path(config.run_dir("preprocess"), "manifest.json").read_text()
        )
        assert manifest["train"]["candles"] == 400
        assert sorted(manifest["train"]["files"]) == ["returns", "windows"]
        assert manifest["train"]["files"]["returns"]["rows"] == 399
        assert manifest["train"]["files"]["windows"]["rows"] == 399 - 15
        windows = np.load(
            os.path.join(config.run_dir("preprocess", "train"), "windows.npy")
        )
        assert windows.shape == (384, 80)

    def test_rerun_identical_hashes(self, workspace):
        _, config_path, _ = workspace
        run_cli(["preprocess", "--config", config_path])
        config = load_config(config_path)
        m1 = Path(config.run_dir("preprocess"), "manifest.json").read_text()
        run_cli(["preprocess", "--config", config_path])
        m2 = Path(config.run_dir("preprocess"), "manifest.json").read_text()
        assert m1 == m2

    def test_missing_input_file(self, workspace):
        tmp_path, config_path, raw = workspace
        raw = dict(raw, train_csv=str(tmp_path / "absent.csv"))
        p = tmp_path / "c2.json"
        p.write_text(json.dumps(raw))
        assert run_cli(["preprocess", "--config", str(p)]) == EXIT_DATA

    def test_overlapping_split_rejected(self, workspace):
        tmp_path, config_path, raw = workspace
        # same file for both splits: test cannot follow train
        raw = dict(raw, test_csv=raw["train_csv"])
        p = tmp_path / "c3.json"
        p.write_text(json.dumps(raw))
        assert run_cli(["preprocess", "--config", str(p)]) == EXIT_DATA


class TestLabel:
    def test_requires_preprocess(self, workspace):
        _, config_path, _ = workspace
        assert run_cli(["label", "--config", config_path]) == EXIT_DATA

    def test_labels_written_and_reruns_identical(self, workspace):
        _, config_path, _ = workspace
        run_cli(["preprocess", "--config", config_path])
        assert run_cli(["label", "--config", config_path]) == EXIT_OK
        config = load_config(config_path)
        label_dir = config.run_dir("label")
        train_bytes = Path(label_dir, "labels_train.csv").read_bytes()
        test_bytes = Path(label_dir, "labels_test.csv").read_bytes()
        assert run_cli(["label", "--config", config_path]) == EXIT_OK
        assert Path(label_dir, "labels_train.csv").read_bytes() == train_bytes
        assert Path(label_dir, "labels_test.csv").read_bytes() == test_bytes

        rows = train_bytes.decode().strip().split("\n")
        assert rows[0] == "window_end_index,label"
        labels = [int(r.split(",")[1]) for r in rows[1:]]
        assert len(labels) == 384
        assert all(0 <= l <= 11 for l in labels)

    def test_label_bytes_independent_of_blas_threads(self, workspace):
        # Each autoencoder layer is one gemm over the whole split; its
        # bits, the codes and so the labels, must not depend on the
        # OpenBLAS thread count.
        _, config_path, _ = workspace
        assert run_cli(["preprocess", "--config", config_path]) == EXIT_OK
        out = Path(load_config(config_path).run_dir("label"))
        names = ["labels_train.csv", "labels_test.csv", "ae.bin", "kmeans.bin"]
        src = os.path.dirname(os.path.dirname(fxppo.__file__))
        runs = []
        for threads in ("1", "2"):
            env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, PYTHONPATH=src)
            subprocess.run([sys.executable, "-m", "fxppo.cli", "label", "--config", config_path],
                           env=env, check=True, capture_output=True, timeout=600)
            runs.append({name: (out / name).read_bytes() for name in names})
        assert runs[0] == runs[1]


@pytest.fixture
def prepared(workspace):
    tmp_path, config_path, raw = workspace
    run_cli(["preprocess", "--config", config_path])
    run_cli(["label", "--config", config_path])
    return tmp_path, config_path, raw


class TestTrain:
    def test_single_seed_run(self, prepared):
        _, config_path, _ = prepared
        assert run_cli(["train", "--config", config_path, "--seed", "30"]) == EXIT_OK
        config = load_config(config_path)
        out = config.run_dir("train", 30)
        assert os.path.exists(os.path.join(out, "final.bin"))
        log = Path(out, "train_log.csv").read_text().strip().split("\n")
        assert log[0].startswith("timestep,")
        assert len(log) == 3  # header + 128/64 updates

    def test_refuses_overwrite_without_force(self, prepared):
        _, config_path, _ = prepared
        run_cli(["train", "--config", config_path, "--seed", "30"])
        assert run_cli(["train", "--config", config_path, "--seed", "30"]) == EXIT_DATA
        assert (
            run_cli(["train", "--config", config_path, "--seed", "30", "--force"])
            == EXIT_OK
        )

    def test_interrupted_final_write_leaves_no_checkpoint(
        self, prepared, cut_writes, monkeypatch
    ):
        _, config_path, _ = prepared
        argv = ["train", "--config", config_path, "--seed", "30"]
        cut_writes("final.bin", KeyboardInterrupt)
        with pytest.raises(KeyboardInterrupt):
            run_cli(argv)
        out = Path(load_config(config_path).run_dir("train", 30))
        assert not (out / "final.bin").exists()
        assert not list(out.glob("*.tmp"))
        monkeypatch.undo()
        # no finished seed, so no --force needed
        assert run_cli(argv) == EXIT_OK
        names = ("final.bin", "train_log.csv")
        resumed = {name: (out / name).read_bytes() for name in names}
        assert run_cli(argv + ["--force"]) == EXIT_OK
        assert {name: (out / name).read_bytes() for name in names} == resumed

    @pytest.mark.parametrize("minibatch", [32, 600])
    def test_train_bytes_independent_of_blas_threads(self, workspace, minibatch):
        # One gemm over the 600 rows of a rollout gives different bits
        # under one and two OpenBLAS threads; the weight gradients, summed
        # over 64-row blocks, must not.
        _, config_path, _ = workspace
        override = [
            "--set", "ppo.rollout_length=600", "--set", "ppo.total_timesteps=600",
            "--set", f"ppo.minibatch_size={minibatch}",
        ]
        for stage in ("preprocess", "label"):
            assert run_cli([stage, "--config", config_path] + override) == EXIT_OK
        out = Path(load_config(config_path, override[1::2]).run_dir("train", 30))
        src = os.path.dirname(os.path.dirname(fxppo.__file__))
        runs = []
        for threads in ("1", "2"):
            env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, PYTHONPATH=src)
            argv = ["train", "--config", config_path, "--seed", "30", "--force"]
            subprocess.run([sys.executable, "-m", "fxppo.cli"] + argv + override,
                           env=env, check=True, capture_output=True, timeout=600)
            runs.append({name: (out / name).read_bytes()
                         for name in ("final.bin", "train_log.csv")})
        assert runs[0] == runs[1]

    def test_later_settings_reuse_earlier_stages(self, prepared):
        _, config_path, _ = prepared
        config = load_config(config_path)
        earlier = [p for stage in ("preprocess", "label")
                   for p in sorted(Path(config.run_dir(stage)).rglob("*")) if p.is_file()]

        def snapshot():
            return [(p, p.stat().st_mtime_ns, p.read_bytes()) for p in earlier]

        before = snapshot()
        for argv in (["train", "--seed", "30", "--set", "ppo.learning_rate=3e-4"],
                     ["tune", "--set", "tune.trials=3"]):
            assert run_cli(argv[:1] + ["--config", config_path] + argv[1:]) == EXIT_OK, argv
        assert snapshot() == before
        assert not os.path.exists(config.run_dir("train", 30))

    def test_numeric_failure_exit_code(self, prepared):
        # the override keys train only, so it reuses the prepared labels
        _, config_path, _ = prepared
        override = ["--set", "ppo.learning_rate=NaN"]
        code = run_cli(
            ["train", "--config", config_path, "--seed", "99"] + override
        )
        assert code == EXIT_NUMERIC


class TestBacktestCli:
    def test_missing_checkpoint(self, prepared, capsys):
        _, config_path, _ = prepared
        capsys.readouterr()
        assert run_cli(["backtest", "--config", config_path]) == EXIT_DATA
        assert "no checkpoint found for seed 30" in capsys.readouterr().err

    def test_full_flow_and_aggregate(self, prepared):
        _, config_path, _ = prepared
        run_cli(["train", "--config", config_path])
        assert run_cli(["backtest", "--config", config_path]) == EXIT_OK
        config = load_config(config_path)
        summary_path = config.run_dir("backtest", "summary.txt")
        seed_lines = [line for line in Path(summary_path).read_text().splitlines()
                      if line.startswith("seed: ")]
        assert seed_lines == ["seed: 30", "seed: 50"]
        totals = [
            BacktestReport(cli._read_table(
                config.run_dir("backtest", s, "rewards.csv"), REWARDS_HEADER, int, float
            )[1], s).total_return for s in (30, 50)
        ]
        mean = sum(t * 100.0 for t in totals) / 2
        assert abs(mean - parse_summary(summary_path)["mean_total_return_pct"]) <= 1e-12

    def test_backtest_bytes_independent_of_blas_threads(self, prepared):
        # The backtest steps every episode of the test split as a lane of
        # one LSTM pass; its products must stay one gemv per lane row, whose
        # bits do not depend on the OpenBLAS thread count, as a gemm's do.
        # The two seeds run on two threads, which share the BLAS library.
        _, config_path, _ = prepared
        assert run_cli(["train", "--config", config_path]) == EXIT_OK
        config = load_config(config_path)
        out = Path(config.run_dir("backtest"))
        names = ["30/rewards.csv", "30/meta.json", "50/rewards.csv", "50/meta.json",
                 "equity.csv", "summary.txt"]
        src = os.path.dirname(os.path.dirname(fxppo.__file__))
        runs = []
        for threads in ("1", "2"):
            env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, PYTHONPATH=src)
            subprocess.run([sys.executable, "-m", "fxppo.cli", "backtest", "--config", config_path],
                           env=env, check=True, capture_output=True, timeout=600)
            runs.append({name: (out / name).read_bytes() for name in names})
        assert runs[0] == runs[1]

    def test_seed_peak_memory(self, tmp_path):
        # one seed of a long split holds its net (parameters and gradients,
        # 1.8 MiB), its split-long rewards and one cache-free policy call
        # of at most about CALL_ROWS rows: 2.8 MiB at its peak, while the
        # checkpoint's parameter blocks are copied into the net
        config = RunConfig("a.csv", "b.csv", seeds=[30], out_root=str(tmp_path),
                           env={"episode_length": 600, "spread_cost": 1e-4})
        net = PolicyNetwork(rng=np.random.default_rng(0))
        save_policy(config.run_dir("train", 30, "final.bin"), net, Adam(net.params, 1e-3),
                    None, 30, 0)
        del net
        rng = np.random.default_rng(1)
        windows = rng.normal(scale=2e-3, size=(8000, 80))
        returns = rng.normal(scale=1e-3, size=8000 + 15)
        tracemalloc.start()
        try:
            report = cli._backtest_one_seed(config, 30, windows, returns)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert report.steps == 8000 - 1
        assert peak < 4.5 * 2**20

    def test_seed_with_baseline_is_a_usage_error(self, prepared, capsys):
        _, config_path, _ = prepared
        assert run_cli(["train", "--config", config_path, "--seed", "30"]) == EXIT_OK
        capsys.readouterr()
        argv = ["backtest", "--config", config_path, "--seed", "30", "--baseline", "absent.txt"]
        assert run_cli(argv) == EXIT_USAGE
        assert "--baseline" in capsys.readouterr().err
        assert not os.path.exists(load_config(config_path).run_dir("backtest", 30))

    def test_seed_run_writes_effective_config(self, prepared):
        _, config_path, _ = prepared
        assert run_cli(["train", "--config", config_path, "--seed", "30"]) == EXIT_OK
        assert run_cli(["backtest", "--config", config_path, "--seed", "30"]) == EXIT_OK
        config = load_config(config_path)
        written = Path(config.run_dir("backtest", "effective_config.json")).read_text()
        assert json.loads(written) == config.stage_config("backtest")

    def test_autoencoder_as_checkpoint(self, prepared, capsys):
        _, config_path, _ = prepared
        run_cli(["train", "--config", config_path, "--seed", "30"])
        config = load_config(config_path)
        final = Path(config.run_dir("train", 30), "final.bin")
        final.write_bytes(Path(config.run_dir("label"), "ae.bin").read_bytes())
        capsys.readouterr()
        assert run_cli(["backtest", "--config", config_path, "--seed", "30"]) == EXIT_DATA
        assert f"{final}: not a policy checkpoint" in capsys.readouterr().err

    def test_policy_for_other_windows(self, prepared, capsys):
        _, config_path, _ = prepared
        final = Path(load_config(config_path).run_dir("train", 30), "final.bin")
        net = PolicyNetwork(input_size=6, hidden_size=4, trunk=(3, 3, 3))
        save_policy(str(final), net, None, None, 30, 0)
        capsys.readouterr()
        assert run_cli(["backtest", "--config", config_path, "--seed", "30"]) == EXIT_DATA
        err = capsys.readouterr().err
        assert f"{final}: the policy takes windows of 6 values" in err
        assert "Traceback" not in err

    def test_truncated_checkpoint(self, prepared):
        _, config_path, _ = prepared
        run_cli(["train", "--config", config_path, "--seed", "30"])
        final = os.path.join(load_config(config_path).run_dir("train", 30), "final.bin")
        with open(final, "r+b") as fh:
            fh.truncate(10)
        code = run_cli(["backtest", "--config", config_path, "--seed", "30"])
        assert code == EXIT_DATA

    def test_threaded_backtest_matches_one_seed_runs(self, prepared, monkeypatch):
        # four threads on however many cores, switching often: each seed's
        # files still have the bytes of a run of its own
        _, config_path, _ = prepared
        seeds = [30, 50, 70, 99]
        argv = ["--config", config_path, "--set", f"seeds={seeds}"]
        assert run_cli(["train"] + argv) == EXIT_OK
        config = load_config(config_path, [f"seeds={seeds}"])
        seed_dirs = [Path(config.run_dir("backtest", s)) for s in seeds]
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(4)), raising=False)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            assert run_cli(["backtest"] + argv) == EXIT_OK
        finally:
            sys.setswitchinterval(interval)
        threaded = {p: p.read_bytes() for d in seed_dirs for p in sorted(d.iterdir())}
        assert len(threaded) == 8  # rewards.csv and meta.json per seed
        for seed in seeds:
            assert run_cli(["backtest"] + argv + ["--seed", str(seed)]) == EXIT_OK
        assert {p: p.read_bytes() for p in threaded} == threaded

    def test_backtest_threads_sized_by_cpus(self, prepared, monkeypatch):
        _, config_path, _ = prepared
        assert run_cli(["train", "--config", config_path]) == EXIT_OK
        sizes = []

        class Recording(cli.ThreadPoolExecutor):
            def __init__(self, max_workers):
                sizes.append(max_workers)
                super().__init__(max_workers)

        monkeypatch.setattr(cli, "ThreadPoolExecutor", Recording)
        # the CPUs this process may run on count, not the machine's
        monkeypatch.setattr(os, "cpu_count", lambda: 64)
        for cpus in (8, 1):
            monkeypatch.setattr(os, "sched_getaffinity", lambda pid, n=cpus: set(range(n)),
                                raising=False)
            assert run_cli(["backtest", "--config", config_path]) == EXIT_OK
        assert sizes == [2, 1]

    def test_first_failed_seed_in_seed_order_decides(self, tmp_path, monkeypatch, capsys):
        # Seed 50 fails first and seed 30 later, with a numeric failure:
        # seed 30 decides the exit code, seed 70 still runs and the stage
        # writes nothing of its own.
        started, seed_50_failing = [], threading.Event()

        def one_seed(config, seed, windows, returns):
            started.append(seed)
            if seed == 30:
                seed_50_failing.wait(5)
                raise cli.NonFiniteValue("seed 30 diverged")
            if seed == 50:
                seed_50_failing.set()
                raise MissingCheckpoint(seed)
            return f"backtest: seed {seed} done"

        monkeypatch.setattr(cli, "_load_split", lambda config, split: (None, None, None))
        monkeypatch.setattr(cli, "_backtest_one_seed", one_seed)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
        config = RunConfig("a.csv", "b.csv", seeds=(30, 50, 70), out_root=str(tmp_path))
        args = cli.build_parser().parse_args(["backtest", "--config", "unused.json"])
        assert cli._guarded(cli.cmd_backtest, config, args) == EXIT_NUMERIC
        err = capsys.readouterr().err
        assert "seed 30 diverged" in err and "no checkpoint found for seed 50" in err
        assert "backtest failed for seeds [30, 50]" in err
        assert sorted(started) == [30, 50, 70]
        assert list(tmp_path.iterdir()) == []

    def test_missing_baseline_exits_before_any_seed(self, prepared, capsys):
        tmp_path, config_path, _ = prepared
        assert run_cli(["train", "--config", config_path]) == EXIT_OK
        assert run_cli(["backtest", "--config", config_path]) == EXIT_OK
        out = Path(load_config(config_path).run_dir("backtest"))
        files = sorted(p for p in out.rglob("*") if p.is_file())

        def snapshot():
            return [(p, p.stat().st_mtime_ns, p.read_bytes()) for p in files]

        before = snapshot()
        for baseline in (tmp_path / "absent.txt", tmp_path):
            capsys.readouterr()
            argv = ["backtest", "--config", config_path, "--baseline", str(baseline)]
            assert run_cli(argv) == EXIT_DATA
            assert f"--baseline {baseline}" in capsys.readouterr().err
        assert snapshot() == before

    def test_parallel_seeds_keep_overrides(self, workspace, monkeypatch):
        _, config_path, _ = workspace
        # the workers find fxppo on this process's sys.path, not the environment's
        monkeypatch.delenv("PYTHONPATH", raising=False)
        override = ["--set", "ppo.learning_rate=0.002"]
        for stage in ("preprocess", "label", "train", "backtest"):
            argv = [stage, "--config", config_path] + override
            if stage == "train":
                argv.append("--parallel-seeds")
            assert run_cli(argv) == EXIT_OK, stage
        config = load_config(config_path, ["ppo.learning_rate=0.002"])
        assert config.run_dir("train") != load_config(config_path).run_dir("train")
        for seed in (30, 50):
            assert os.path.exists(os.path.join(config.run_dir("train", seed), "final.bin"))
            assert os.path.exists(os.path.join(config.run_dir("backtest", seed), "rewards.csv"))
        assert os.path.exists(os.path.join(config.run_dir("backtest"), "summary.txt"))

    def test_parallel_seeds_name_the_failed_seed(self, prepared, capfd):
        # seed 50 has no checkpoint: seed 30 runs to the end on its thread
        # and its files are whole, but the stage writes no summary
        _, config_path, _ = prepared
        assert run_cli(["train", "--config", config_path, "--seed", "30"]) == EXIT_OK
        capfd.readouterr()
        assert run_cli(["backtest", "--config", config_path]) == EXIT_DATA
        err = capfd.readouterr().err
        assert err.count("no checkpoint found for seed 50") == 1
        assert "backtest failed for seeds [50]" in err
        config = load_config(config_path)
        seed_dir = Path(config.run_dir("backtest", 30))
        meta = json.loads((seed_dir / "meta.json").read_text())
        rewards = seed_dir / "rewards.csv"
        assert hashlib.sha256(rewards.read_bytes()).hexdigest() == meta["rewards_sha256"]
        assert os.listdir(config.run_dir("backtest")) == ["30"]

    SEED_OUTPUTS = (
        ("train", 30, "final.bin"), ("train", 30, "train_log.csv"),
        ("train", 50, "final.bin"), ("train", 50, "train_log.csv"),
        ("backtest", 30, "rewards.csv"), ("backtest", 50, "rewards.csv"),
        ("backtest", "equity.csv"), ("backtest", "summary.txt"),
    )

    def test_parallel_seeds_match_sequential(self, prepared, capsys):
        tmp_path, config_path, _ = prepared
        capsys.readouterr()
        outputs = []
        for mode in ("sequential", "parallel"):
            root = str(tmp_path / mode)
            argv = ["--config", config_path, "--set", f"out_root={root}"]
            flag = ["--parallel-seeds"] if mode == "parallel" else []
            for stage in ("preprocess", "label", "train", "backtest"):
                argv_stage = [stage] + argv + (flag if stage == "train" else [])
                assert run_cli(argv_stage) == EXIT_OK, (mode, stage)
            stdout = capsys.readouterr().out.replace(root, "<root>")
            config = load_config(config_path, [f"out_root={root}"])
            files = {rel: Path(config.run_dir(*rel)).read_bytes() for rel in self.SEED_OUTPUTS}
            outputs.append((stdout, files))
            leftovers = [p for p in Path(root).rglob("*") if p.suffix in (".tmp", ".partial")]
            assert not leftovers, mode
        assert outputs[0] == outputs[1]

    @staticmethod
    def stand_in_pool(monkeypatch, raising=None):
        """Replaces the process pool with one that runs each submitted call
        at once, in this process, and records each pool's size and start
        method. A seed in ``raising`` gets a future holding that exception,
        as a worker that died or raised would leave."""
        pools = []
        raising = raising or {}

        class StandIn:
            def __init__(self, max_workers, mp_context):
                pools.append((max_workers, mp_context.get_start_method()))

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def submit(self, fn, *args):
                future = Future()
                seed = args[2]
                if seed in raising:
                    future.set_exception(raising[seed])
                else:
                    future.set_result(fn(*args))
                return future

        monkeypatch.setattr(cli, "ProcessPoolExecutor", StandIn)
        return pools

    @staticmethod
    def one_seed(config, seed):
        if seed == 70:
            raise MissingCheckpoint(seed)
        return f"seed {seed}"

    def run_seeds(self, config, seeds):
        """(exit code, lines) of `_run_seeds` on the spawn pool."""
        lines = []
        code = cli._run_seeds("stage", self.one_seed, config, seeds, cli._spawn_pool, lines.append)
        return code, lines

    def test_pool_size_capped_by_cpus(self, monkeypatch, capsys):
        pools = self.stand_in_pool(monkeypatch)
        config = RunConfig("a.csv", "b.csv")
        # the CPUs this process may run on count, not the machine's
        monkeypatch.setattr(os, "cpu_count", lambda: 64)
        for cpus, seeds in ((8, [30, 50]), (2, [30, 50, 99]), (1, [30, 50]), (8, [30])):
            monkeypatch.setattr(os, "sched_getaffinity", lambda pid, n=cpus: set(range(n)),
                                raising=False)
            assert self.run_seeds(config, seeds) == (EXIT_OK, [f"seed {s}" for s in seeds])
        assert pools == [(2, "spawn"), (2, "spawn"), (1, "spawn")]
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 3)
        self.run_seeds(config, [30, 50, 99, 1])
        assert pools[-1] == (3, "spawn")
        capsys.readouterr()
        assert self.run_seeds(config, [30, 70, 99]) == (EXIT_DATA, ["seed 30", "seed 99"])
        assert "stage failed for seeds [70]" in capsys.readouterr().err

    def test_pool_failures_name_the_seed(self, monkeypatch, capsys):
        # a killed worker breaks the pool and fails every pending seed; an
        # exception _guarded does not map comes back as it was raised
        broken = BrokenProcessPool("a process terminated abruptly")
        self.stand_in_pool(monkeypatch, {50: broken, 99: RuntimeError("boom")})
        config = RunConfig("a.csv", "b.csv")
        assert self.run_seeds(config, [30, 50, 99]) == (EXIT_DATA, ["seed 30"])
        err = capsys.readouterr().err
        assert "seed 50: BrokenProcessPool" in err
        assert "seed 99: RuntimeError('boom')" in err
        assert "stage failed for seeds [50, 99]" in err

    def test_pool_failure_exits_with_data_code(self, prepared, monkeypatch, capsys):
        # a killed worker counts as a data problem; the other seed fails
        # on its NaN learning rate, and the first in seed order decides
        _, config_path, _ = prepared
        argv = ["train", "--config", config_path, "--parallel-seeds",
                "--set", "ppo.learning_rate=NaN"]
        for killed, code in ((30, EXIT_DATA), (50, EXIT_NUMERIC)):
            self.stand_in_pool(monkeypatch, {killed: BrokenProcessPool("killed")})
            capsys.readouterr()
            assert run_cli(argv) == code, killed
            err = capsys.readouterr().err
            assert f"seed {killed}: BrokenProcessPool('killed')" in err
            assert "numeric failure" in err and "train failed for seeds [30, 50]" in err

    def test_report_before_backtest_names_rewards(self, prepared, capsys):
        _, config_path, _ = prepared
        assert run_cli(["train", "--config", config_path, "--seed", "30"]) == EXIT_OK
        capsys.readouterr()
        assert run_cli(["report", "--config", config_path]) == EXIT_DATA
        err = capsys.readouterr().err
        seed_dir = load_config(config_path).run_dir("backtest", 30)
        rewards = os.path.join(seed_dir, "rewards.csv")
        assert f"rewards missing at {rewards}; run backtest first" in err
        assert "checkpoint" not in err

    def test_report_reemits(self, prepared, capsys):
        _, config_path, _ = prepared
        run_cli(["train", "--config", config_path])
        run_cli(["backtest", "--config", config_path])
        capsys.readouterr()
        assert run_cli(["report", "--config", config_path]) == EXIT_OK
        assert "mean_total_return_pct" in capsys.readouterr().out

    def test_report_rewrites_the_backtest_summary(self, prepared):
        # backtest writes the summary from its reports in memory, report
        # from the files the seeds wrote: the bytes are the same
        tmp_path, config_path, _ = prepared
        assert run_cli(["train", "--config", config_path]) == EXIT_OK
        out = Path(load_config(config_path).run_dir("backtest"))
        baseline = tmp_path / "baseline.txt"
        baseline.write_text("mean_total_return_pct: 1.5\nmean_sharpe: -0.25\n")
        for extra in ([], ["--baseline", str(baseline)]):
            argv = ["--config", config_path] + extra
            assert run_cli(["backtest"] + argv) == EXIT_OK
            written = {name: (out / name).read_bytes() for name in ("equity.csv", "summary.txt")}
            assert (b"[ppi]" in written["summary.txt"]) == bool(extra)
            for name in written:
                (out / name).unlink()
            assert run_cli(["report"] + argv) == EXIT_OK
            assert {name: (out / name).read_bytes() for name in written} == written

    def test_report_checks_the_step_column(self, prepared, capsys):
        _, config_path, _ = prepared
        run_cli(["train", "--config", config_path])
        run_cli(["backtest", "--config", config_path])
        seed_dir = Path(load_config(config_path).run_dir("backtest", 30))
        rewards = seed_dir / "rewards.csv"
        rewards.write_text(rewards.read_text().replace("\n0,", "\n1,", 1))
        meta = json.loads((seed_dir / "meta.json").read_text())
        meta["rewards_sha256"] = hashlib.sha256(rewards.read_bytes()).hexdigest()
        (seed_dir / "meta.json").write_text(json.dumps(meta))
        capsys.readouterr()
        assert run_cli(["report", "--config", config_path]) == EXIT_DATA
        assert f"{rewards} line 2: step 1, expected 0" in capsys.readouterr().err


class TestSeedRunners:
    """One rule for the seeds of train, train --parallel-seeds and backtest:
    the inputs all seeds read are checked once before any seed starts,
    every seed runs, and the first failed seed in seed order gives the
    exit code."""

    @pytest.mark.parametrize("command", ["train", "train --parallel-seeds", "backtest"])
    def test_numeric_failure_exits_3_on_every_runner(self, prepared, capfd, command):
        _, config_path, _ = prepared
        argv = command.split() + ["--config", config_path]
        if command == "backtest":
            net = PolicyNetwork()
            net.params[:] = np.nan
            for seed in (30, 50):
                final = Path(load_config(config_path).run_dir("train", seed, "final.bin"))
                final.parent.mkdir(parents=True)
                save_policy(str(final), net, None, None, seed, 0)
        else:
            argv += ["--set", "ppo.learning_rate=NaN"]
        capfd.readouterr()
        assert run_cli(argv) == EXIT_NUMERIC
        err = capfd.readouterr().err
        assert err.count("numeric failure") == 2
        assert f"{argv[0]} failed for seeds [30, 50]" in err

    @pytest.mark.parametrize("pool", [None, cli.ThreadPoolExecutor], ids=["in-process", "threads"])
    def test_unexpected_error_fails_its_seed_alone(self, capsys, pool):
        def one_seed(config, seed):
            if seed == 50:
                raise RuntimeError("boom")
            return f"seed {seed}"

        lines = []
        config = RunConfig("a.csv", "b.csv")
        code = cli._run_seeds("stage", one_seed, config, [30, 50, 70], pool, lines.append)
        assert (code, lines) == (EXIT_DATA, ["seed 30", "seed 70"])
        err = capsys.readouterr().err
        assert "seed 50: RuntimeError('boom')" in err and "Traceback" in err
        assert "stage failed for seeds [50]" in err

    def test_malformed_labels_fail_the_pool_once(self, prepared, capfd, monkeypatch):
        _, config_path, _ = prepared
        config = load_config(config_path)
        path = Path(config.run_dir("label", "labels_train.csv"))
        path.write_text(path.read_text() + "not,a,row\n")
        pools = []

        class Recording(cli.ProcessPoolExecutor):
            def __init__(self, *args, **kwargs):
                pools.append(args)
                super().__init__(*args, **kwargs)

        monkeypatch.setattr(cli, "ProcessPoolExecutor", Recording)
        capfd.readouterr()
        assert run_cli(["train", "--config", config_path, "--parallel-seeds"]) == EXIT_DATA
        assert capfd.readouterr().err.count(str(path)) == 1
        assert pools == []
        assert not os.path.exists(config.run_dir("train"))

    @pytest.mark.parametrize("flags", [[], ["--parallel-seeds"]], ids=["in-process", "pool"])
    def test_finished_seed_fails_alone(self, prepared, capfd, flags):
        _, config_path, _ = prepared
        assert run_cli(["train", "--config", config_path, "--seed", "50"]) == EXIT_OK
        config = load_config(config_path)
        final_50 = Path(config.run_dir("train", 50, "final.bin"))
        finished = final_50.read_bytes()
        capfd.readouterr()
        # without --force seed 50 is refused, and seed 30 trains all the same
        assert run_cli(["train", "--config", config_path] + flags) == EXIT_DATA
        out, err = capfd.readouterr()
        assert err.count("50/final.bin already exists") == 1
        assert "train failed for seeds [50]" in err
        assert out.startswith("train: seed 30 finished 2 updates")
        assert os.path.exists(config.run_dir("train", 30, "final.bin"))
        assert final_50.read_bytes() == finished


class TestWindowGeometry:
    @pytest.mark.parametrize(
        "override, stage",
        [
            ("env.window_len=8", "train"),
            ("env.window_len=8", "simulate"),
            ("labeler.input_size=40", "label"),
        ],
    )
    def test_rejected_by_every_stage(self, workspace, capsys, override, stage):
        # the window is fixed by preprocess and no longer a setting: these
        # keys are unknown
        tmp_path, config_path, _ = workspace
        actions = tmp_path / "actions.csv"
        actions.write_text("action\n1\n-1\n")
        extra = {"simulate": ["--actions", str(actions)]}
        stages = ["preprocess", "label", "train", "simulate"]
        for earlier in stages[: stages.index(stage)]:
            run_cli([earlier, "--config", config_path, "--set", override])
        capsys.readouterr()
        argv = [stage, "--config", config_path, "--set", override] + extra.get(stage, [])
        assert run_cli(argv) == EXIT_DATA
        section, _, key = override.split("=")[0].partition(".")
        err = capsys.readouterr().err
        assert f"{section}: " in err and f"unexpected keyword argument '{key}'" in err


class TestUnusableValues:
    @pytest.mark.parametrize(
        "override, stage, names",
        [
            ("ppo.minibatch_size=0", "train", "ppo: minibatch_size"),
            ("ppo.rollout_length=0", "train", "ppo: rollout_length"),
            ("ppo.checkpoint_every=0", "train", "ppo: checkpoint_every"),
            ("ppo.epochs_per_update=0", "train", "ppo: epochs_per_update"),
            ("ppo.learning_rate=-1", "train", "ppo: learning_rate"),
            ("ppo.total_timesteps=32", "train", "ppo: total_timesteps"),
            ("kmeans.k=0", "label", "kmeans: k must"),
            ("kmeans.k=13", "train", "kmeans: k must"),
            ("kmeans.max_iters=0", "label", "kmeans: max_iters"),
            ("labeler.batch_size=0", "label", "labeler: batch_size"),
            ("labeler.holdout_fraction=2", "label", "labeler: holdout_fraction"),
            ("seeds=[1.5]", "train", "seeds"),
            ("tune.k=[4,13]", "tune", "tune: k range must end at 12"),
        ],
    )
    def test_exit_2_names_the_value(self, prepared, capsys, override, stage, names):
        _, config_path, _ = prepared
        capsys.readouterr()
        assert run_cli([stage, "--config", config_path, "--set", override]) == EXIT_DATA
        err = capsys.readouterr().err
        assert names in err and "Traceback" not in err

    @pytest.mark.parametrize("stage", ["train", "backtest"])
    def test_negative_seed_flag_exits_2_before_any_work(self, prepared, capsys, stage):
        _, config_path, _ = prepared
        capsys.readouterr()
        assert run_cli([stage, "--config", config_path, "--seed", "-1"]) == EXIT_DATA
        err = capsys.readouterr().err
        assert "--seed" in err and "Traceback" not in err
        config = load_config(config_path)
        assert not os.path.exists(config.run_dir("train", -1))
        assert not os.path.exists(config.run_dir("backtest", -1))

    @given(st.sampled_from(sorted(OTHER_VALUES)),
           st.sampled_from([0, -1, 0.5, "x", True, None]))
    @settings(max_examples=200, deadline=None)
    def test_one_odd_value_loads_or_raises_config_error(self, name, value):
        try:
            RunConfig.from_dict(with_value(name, value))
        except ConfigError:
            pass


def five_rows_short(npy_bytes):
    """The same array saved again without its last five rows: a valid .npy."""
    out = io.BytesIO()
    np.save(out, np.load(io.BytesIO(npy_bytes))[:-5])
    return out.getvalue()


def flattened(npy_bytes):
    """The same array saved again as one 1-D row of values."""
    out = io.BytesIO()
    np.save(out, np.load(io.BytesIO(npy_bytes)).ravel())
    return out.getvalue()


def label_rows(fn):
    """A damage that rewrites each (window_end_index, label) row of a
    label file to fn(window_end_index, label)."""

    def damage(csv_bytes):
        header, *rows = csv_bytes.decode().strip().split("\n")
        pairs = (fn(*map(int, row.split(","))) for row in rows)
        return (header + "\n" + "".join(f"{a},{b}\n" for a, b in pairs)).encode()

    return damage


def stages_before(command):
    """The stages that write what `command` reads, in run order; report
    reads backtest's files."""
    upstream = "backtest" if command == "report" else STAGES[command][0]
    return stages_before(upstream) + [upstream] if upstream else []


class TestMalformedInputs:
    # file under the run directory, how it is damaged, the command that
    # reads it ({path} is the damaged file, {actions} a valid action file)
    CASES = {
        "empty npy": ("preprocess/train/windows.npy", lambda b: b"", "label"),
        "truncated npy": ("preprocess/train/windows.npy", lambda b: b[:200], "label"),
        "cut labels": (
            "label/labels_train.csv", lambda b: b[: b.index(b",", 300)], "train --seed 30"
        ),
        "cut meta": ("backtest/30/meta.json", lambda b: b[:20], "report"),
        "cut rewards": (
            "backtest/30/rewards.csv", lambda b: b"\n".join(b.split(b"\n")[:51]) + b"\n",
            "report",
        ),
        "meta without the stream's length and hash": (
            "backtest/30/meta.json",
            lambda b: json.dumps({k: v for k, v in json.loads(b).items()
                                  if k not in ("steps", "rewards_sha256")}).encode(),
            "report",
        ),
        "bad reward row": (
            "backtest/30/rewards.csv", lambda b: b"step,reward\n0,0.5\n1,\n", "report"
        ),
        "baseline without means": (
            "baseline.txt", lambda b: b"seed: 30\nsteps: 3\n", "report --baseline {path}"
        ),
        "misaligned training returns": (
            "preprocess/train/returns.npy", five_rows_short, "train --seed 30"
        ),
        "misaligned test returns": (
            "preprocess/test/returns.npy", five_rows_short, "backtest --seed 30"
        ),
        "misaligned simulate returns": (
            "preprocess/test/returns.npy", five_rows_short, "simulate --actions {actions}"
        ),
        "1-D training windows for label": ("preprocess/train/windows.npy", flattened, "label"),
        "1-D training windows for tune": ("preprocess/train/windows.npy", flattened, "tune"),
        "label beyond the auxiliary head": (
            "label/labels_train.csv", label_rows(lambda end, label: (end, 12)), "train --seed 30"
        ),
        "shifted label index": (
            "label/labels_train.csv", label_rows(lambda end, label: (end + 1, label)),
            "train --seed 30",
        ),
    }

    @pytest.mark.parametrize("case", CASES)
    def test_exit_2_names_the_file(self, workspace, capsys, case):
        tmp_path, config_path, _ = workspace
        rel, damage, command = self.CASES[case]
        for earlier in stages_before(command.split()[0]):
            assert run_cli([earlier, "--config", config_path]) == EXIT_OK, earlier
        stage, _, rest = rel.partition("/")
        path = Path(load_config(config_path).run_dir(stage, rest)) if rest else tmp_path / rel
        path.write_bytes(damage(path.read_bytes() if path.exists() else b""))
        actions = tmp_path / "actions.csv"
        actions.write_text("action\n1\n")
        capsys.readouterr()
        argv = command.format(path=path, actions=actions).split()
        assert run_cli(argv[:1] + ["--config", config_path] + argv[1:]) == EXIT_DATA
        assert str(path) in capsys.readouterr().err


class TestTables:
    def test_label_csv_round_trip(self, tmp_path):
        path = tmp_path / "labels.csv"
        ends, labels = [15, 16, 17], [3, 0, 11]
        cli._write_table(path, LABELS_HEADER, zip(ends, labels))
        assert path.read_text() == "window_end_index,label\n15,3\n16,0\n17,11\n"
        assert cli._read_table(path, LABELS_HEADER, int, int) == [ends, labels]

    def test_floats_read_back_exactly(self, tmp_path):
        path = tmp_path / "rewards.csv"
        rewards = [0.1, 1 / 3, -0.0, 5e-324, -1.7976931348623157e308]
        cli._write_table(path, REWARDS_HEADER, enumerate(rewards))
        steps, back = cli._read_table(path, REWARDS_HEADER, int, float)
        assert steps == [0, 1, 2, 3, 4]
        assert list(map(repr, back)) == list(map(repr, rewards))
        cli._write_table(path, REWARDS_HEADER, [])
        assert cli._read_table(path, REWARDS_HEADER, int, float) == [[], []]

    @pytest.mark.parametrize(
        "text, line",
        [
            ("", 1),
            ("step,value\n0,0.5\n", 1),
            ("step,reward\n0,0.5\n1\n", 3),
            ("step,reward\n0,0.5,7\n", 2),
            ("step,reward\n0,0.5\n1,x\n", 3),
            ("step,reward\n0,0.5\n\n2,0.5\n", 3),
        ],
    )
    def test_malformed_table_names_the_line(self, tmp_path, text, line):
        path = tmp_path / "rewards.csv"
        path.write_text(text)
        with pytest.raises(ConfigError) as info:
            cli._read_table(path, REWARDS_HEADER, int, float)
        assert str(info.value).startswith(f"{path} line {line}: ")

    def test_binary_file_is_a_config_error(self, tmp_path):
        path = tmp_path / "rewards.csv"
        path.write_bytes(b"step,reward\n0,\xff\n")
        with pytest.raises(ConfigError, match="is not UTF-8 text"):
            cli._read_table(path, REWARDS_HEADER, int, float)


class TestSimulate:
    def test_matches_env_replay(self, prepared, tmp_path):
        _, config_path, _ = prepared
        actions = [1, 1, -1, 0, 1, -1, -1, 0, 0, 1]
        actions_path = tmp_path / "actions.csv"
        actions_path.write_text("action\n" + "\n".join(map(str, actions)) + "\n")
        out_path = tmp_path / "sim_rewards.csv"
        code = run_cli(
            [
                "simulate", "--config", config_path, "--actions",
                str(actions_path), "--split", "test", "--out", str(out_path),
            ]
        )
        assert code == EXIT_OK
        rows = out_path.read_text().strip().split("\n")
        assert rows[0] == "step,reward"
        sim = [float(r.split(",")[1]) for r in rows[1:]]

        from fxppo.env import EnvConfig, TradingEnv

        config = load_config(config_path)
        split_dir = config.run_dir("preprocess", "test")
        windows = np.load(os.path.join(split_dir, "windows.npy"))
        returns = np.load(os.path.join(split_dir, "returns.npy"))
        env = TradingEnv(windows, returns, EnvConfig(episode_length=len(actions)))
        env.reset(0)
        expected = [env.step(a).reward for a in actions]
        assert sim == expected

    def test_negative_start_rejected(self, prepared, tmp_path, capsys):
        _, config_path, _ = prepared
        actions_path = tmp_path / "actions.csv"
        actions_path.write_text("action\n1\n1\n-1\n0\n")
        out_path = tmp_path / "sim_rewards.csv"
        code = run_cli([
            "simulate", "--config", config_path, "--actions", str(actions_path),
            "--start", "-20", "--out", str(out_path),
        ])
        assert code == EXIT_DATA
        assert "--start must be >= 0, got -20" in capsys.readouterr().err
        assert not out_path.exists()

    def test_actions_beyond_the_split(self, prepared, tmp_path, capsys):
        _, config_path, _ = prepared
        split_dir = load_config(config_path).run_dir("preprocess", "test")
        steps = np.load(os.path.join(split_dir, "windows.npy")).shape[0] - 1
        actions_path = tmp_path / "actions.csv"
        out_path = tmp_path / "sim_rewards.csv"
        argv = ["simulate", "--config", config_path, "--actions", str(actions_path),
                "--out", str(out_path)]
        actions_path.write_text("action\n" + "1\n" * (steps + 1))
        assert run_cli(argv) == EXIT_DATA
        assert f"need {steps + 1} steps; the test split has {steps}" in capsys.readouterr().err
        assert not out_path.exists()
        actions_path.write_text("action\n" + "1\n" * steps)
        assert run_cli(argv) == EXIT_OK
        assert len(out_path.read_text().strip().split("\n")) == steps + 1

    def test_out_naming_a_directory(self, prepared, tmp_path, capsys):
        _, config_path, _ = prepared
        actions_path = tmp_path / "actions.csv"
        actions_path.write_text("action\n1\n-1\n")
        out_dir = tmp_path / "sim"
        out_dir.mkdir()
        code = run_cli(["simulate", "--config", config_path, "--actions", str(actions_path),
                        "--out", str(out_dir)])
        assert code == EXIT_DATA
        assert f"--out {out_dir} is a directory" in capsys.readouterr().err
        assert list(tmp_path.glob("*.tmp")) == [] and list(out_dir.iterdir()) == []

    def test_bad_action_file(self, prepared, tmp_path):
        _, config_path, _ = prepared
        p = tmp_path / "bad.csv"
        p.write_text("action\n5\n")
        code = run_cli(
            ["simulate", "--config", config_path, "--actions", str(p)]
        )
        assert code == EXIT_DATA


class TestTune:
    def test_trials_logged_and_deterministic(self, prepared):
        _, config_path, _ = prepared
        assert run_cli(["tune", "--config", config_path]) == EXIT_OK
        config = load_config(config_path)
        tune_dir = config.run_dir("tune")
        t1 = Path(tune_dir, "trials.csv").read_text()
        assert run_cli(["tune", "--config", config_path]) == EXIT_OK
        t2 = Path(tune_dir, "trials.csv").read_text()
        assert t1 == t2
        best = json.loads(Path(tune_dir, "best.json").read_text())
        assert best["trial"] in (0, 1)

    def test_objective_recomputable_from_checkpoint(self, prepared):
        _, config_path, _ = prepared
        run_cli(["tune", "--config", config_path])
        config = load_config(config_path)
        tune_dir = config.run_dir("tune")
        rows = Path(tune_dir, "trials.csv").read_text().strip().split("\n")
        windows = np.load(
            os.path.join(config.run_dir("preprocess", "train"), "windows.npy")
        )
        from fxppo.labeler import load_autoencoder

        for row in rows[1:]:
            trial, _, _, _, _, objective = row.split(",")
            ae = load_autoencoder(os.path.join(tune_dir, f"trial_{trial}_ae.bin"))
            assert ae.reconstruction_mse(windows) == float(objective)


def parser_options():
    """(command, flag) for every option `cli.build_parser` declares, with
    command None for the top-level ones; help aside."""
    parser = cli.build_parser()
    (subparsers,) = (a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    parsers = {None: parser, **subparsers.choices}
    return [(command, action.option_strings[-1])
            for command, p in parsers.items() for action in p._actions
            if action.option_strings and not isinstance(action, argparse._HelpAction)]


MISSING, DIRECTORY = "<missing file>", "<directory>"
# Options that take a path; a bad one names its flag on stderr.
PATH_FLAGS = {"--config", "--baseline", "--actions", "--out"}
# Every flag with the values it must refuse. A new flag fails
# `TestEveryFlag` until it has an entry here.
BAD_FLAG_VALUES = {
    "--version": [["--version=1"]],
    "--config": [["--config", MISSING], ["--config", DIRECTORY]],
    "--set": [["--set", "no_equals_sign"], ["--set", "ppo.no_such_key=1"]],
    "--seed": [["--seed", "x"], ["--seed", "-1"]],
    "--parallel-seeds": [["--parallel-seeds=1"]],
    "--force": [["--force=1"]],
    "--baseline": [["--baseline", MISSING], ["--baseline", DIRECTORY]],
    "--actions": [["--actions", MISSING], ["--actions", DIRECTORY]],
    "--split": [["--split", "validation"]],
    "--start": [["--start", "x"], ["--start", "-1"]],
    "--out": [["--out", DIRECTORY]],
}


class TestEveryFlag:
    """Each flag on its own: one bad value in a command that otherwise
    succeeds exits 1 or 2, says why on stderr without a traceback and
    leaves no temporary file behind."""

    @pytest.fixture(scope="class")
    def finished_run(self, tmp_path_factory):
        """A workspace in which every subcommand has run and succeeded with
        the arguments of its base command, {flag: tokens} per command."""
        tmp_path, config_path, _ = write_workspace(tmp_path_factory.mktemp("flags"))
        actions = tmp_path / "actions.csv"
        actions.write_text("action\n1\n-1\n0\n")
        (tmp_path / "a_directory").mkdir()
        base = {None: {}}
        for command in ("preprocess", "label", "train", "backtest", "simulate", "tune", "report"):
            base[command] = {"--config": ["--config", config_path]}
        base["train"]["--force"] = ["--force"]
        base["simulate"]["--actions"] = ["--actions", str(actions)]
        for command in base:
            if command is not None:
                argv = [command, *(t for tokens in base[command].values() for t in tokens)]
                assert run_cli(argv) == EXIT_OK, argv
        return tmp_path, base

    def test_every_flag_has_bad_values(self):
        assert {flag for _, flag in parser_options()} == set(BAD_FLAG_VALUES)

    @pytest.mark.parametrize("command, flag", parser_options())
    def test_bad_value_exits_cleanly(self, finished_run, capsys, command, flag):
        assert flag in BAD_FLAG_VALUES, f"{flag} has no bad values to try"
        tmp_path, base = finished_run
        stand_ins = {MISSING: str(tmp_path / "no_such_file"),
                     DIRECTORY: str(tmp_path / "a_directory")}
        for bad in BAD_FLAG_VALUES[flag]:
            argv = [] if command is None else [command]
            argv += [t for f, tokens in base[command].items() if f != flag for t in tokens]
            argv += [stand_ins.get(t, t) for t in bad]
            capsys.readouterr()
            code = run_cli(argv)
            err = capsys.readouterr().err
            assert code in (EXIT_USAGE, EXIT_DATA), (argv, code)
            assert err.strip() and "Traceback" not in err, (argv, err)
            assert flag in err or flag not in PATH_FLAGS, (argv, err)
            assert list(tmp_path.rglob("*.tmp")) == [], argv
