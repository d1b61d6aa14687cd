"""Config handling and the pipeline subcommands end to end."""

import json
import os
import subprocess
import sys
from concurrent.futures import Future
from concurrent.futures.process import BrokenProcessPool
from pathlib import Path

import numpy as np
import pytest

import fxppo
from fxppo import cli
from fxppo.backtest import MissingCheckpoint, parse_summary
from fxppo.cli import EXIT_DATA, EXIT_NUMERIC, EXIT_OK, EXIT_USAGE, main
from fxppo.config import ConfigError, RunConfig, load_config, validate_split
from fxppo.data import parse_candles


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


@pytest.fixture
def workspace(tmp_path):
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


class TestConfig:
    def test_load_and_hash_stable(self, workspace):
        _, config_path, _ = workspace
        c1 = load_config(config_path)
        c2 = load_config(config_path)
        assert c1.config_hash() == c2.config_hash()

    def test_hash_changes_with_settings(self, workspace):
        _, config_path, _ = workspace
        c1 = load_config(config_path)
        c2 = load_config(config_path, ["ppo.learning_rate=0.01"])
        assert c1.config_hash() != c2.config_hash()
        assert c2.ppo.learning_rate == 0.01

    def test_out_root_not_in_hash(self, workspace):
        _, config_path, _ = workspace
        c1 = load_config(config_path)
        c2 = load_config(config_path, ["out_root=elsewhere"])
        assert c1.config_hash() == c2.config_hash()

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

    def test_split_order_enforced(self):
        a = parse_candles("time,open,high,low,close\n2017-01-02T00:00,1,1,1,1\n")
        b = parse_candles("time,open,high,low,close\n2017-01-01T00:00,1,1,1,1\n")
        with pytest.raises(ConfigError):
            validate_split(a, b)

    def test_hash_values_pinned(self):
        # output directories are keyed by these digests; a change re-keys
        # every existing run
        assert RunConfig("a", "b").config_hash() == "6ee35c2b4388"
        c = RunConfig("a", "b", ppo={"learning_rate": 0.001}, tune={"k": [2, 8]})
        assert c.config_hash() == "cb5ff601eb0e"

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
        assert manifest["train"]["files"]["features"]["rows"] == 399
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

    def test_numeric_failure_exit_code(self, prepared):
        # the override changes the config hash, so every stage must see it
        _, config_path, _ = prepared
        override = ["--set", "ppo.learning_rate=NaN"]
        assert run_cli(["preprocess", "--config", config_path] + override) == EXIT_OK
        assert run_cli(["label", "--config", config_path] + override) == EXIT_OK
        code = run_cli(
            ["train", "--config", config_path, "--seed", "99"] + override
        )
        assert code == EXIT_NUMERIC


class TestBacktestCli:
    def test_missing_checkpoint(self, prepared):
        _, config_path, _ = prepared
        assert run_cli(["backtest", "--config", config_path]) == EXIT_DATA

    def test_full_flow_and_aggregate(self, prepared):
        _, config_path, _ = prepared
        run_cli(["train", "--config", config_path])
        assert run_cli(["backtest", "--config", config_path]) == EXIT_OK
        config = load_config(config_path)
        summary = parse_summary(
            os.path.join(config.run_dir("backtest"), "summary.txt")
        )
        assert [p["seed"] for p in summary["per_seed"]] == [30, 50]
        mean = sum(p["total_return_pct"] for p in summary["per_seed"]) / 2
        assert abs(mean - summary["mean_total_return_pct"]) <= 1e-12

    def test_truncated_checkpoint(self, prepared):
        _, config_path, _ = prepared
        run_cli(["train", "--config", config_path, "--seed", "30"])
        final = os.path.join(load_config(config_path).run_dir("train", 30), "final.bin")
        with open(final, "r+b") as fh:
            fh.truncate(10)
        code = run_cli(["backtest", "--config", config_path, "--seed", "30"])
        assert code == EXIT_DATA

    def test_parallel_seeds_keep_overrides(self, workspace, monkeypatch):
        _, config_path, _ = workspace
        # the workers find fxppo on this process's sys.path, not the environment's
        monkeypatch.delenv("PYTHONPATH", raising=False)
        override = ["--set", "ppo.learning_rate=0.002"]
        for stage in ("preprocess", "label", "train", "backtest"):
            argv = [stage, "--config", config_path] + override
            if stage in ("train", "backtest"):
                argv.append("--parallel-seeds")
            assert run_cli(argv) == EXIT_OK, stage
        config = load_config(config_path, ["ppo.learning_rate=0.002"])
        assert config.config_hash() != load_config(config_path).config_hash()
        for seed in (30, 50):
            assert os.path.exists(os.path.join(config.run_dir("train", seed), "final.bin"))
            assert os.path.exists(os.path.join(config.run_dir("backtest", seed), "rewards.csv"))
        assert os.path.exists(os.path.join(config.run_dir("backtest"), "summary.txt"))

    def test_parallel_seeds_name_the_failed_seed(self, prepared, capfd):
        _, config_path, _ = prepared
        assert run_cli(["train", "--config", config_path, "--seed", "30"]) == EXIT_OK
        code = run_cli(["backtest", "--config", config_path, "--parallel-seeds"])
        assert code == EXIT_DATA
        err = capfd.readouterr().err
        assert "no checkpoint found for seed 50" in err
        assert "backtest failed for seeds [50]" in err

    SEED_OUTPUTS = (
        "train/30/final.bin", "train/30/train_log.csv",
        "train/50/final.bin", "train/50/train_log.csv",
        "backtest/30/rewards.csv", "backtest/50/rewards.csv",
        "backtest/equity.csv", "backtest/summary.txt",
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
                argv_stage = [stage] + argv + (flag if stage in ("train", "backtest") else [])
                assert run_cli(argv_stage) == EXIT_OK, (mode, stage)
            stdout = capsys.readouterr().out.replace(root, "<root>")
            config = load_config(config_path, [f"out_root={root}"])
            out = Path(config.run_dir())
            files = {rel: (out / rel).read_bytes() for rel in self.SEED_OUTPUTS}
            outputs.append((stdout, files))
            leftovers = [p for p in out.rglob("*") if p.suffix in (".tmp", ".partial")]
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

    def test_pool_size_capped_by_cpus(self, monkeypatch):
        pools = self.stand_in_pool(monkeypatch)
        config = RunConfig("a.csv", "b.csv")
        # the CPUs this process may run on count, not the machine's
        monkeypatch.setattr(os, "cpu_count", lambda: 64)
        for cpus, seeds in ((8, [30, 50]), (2, [30, 50, 99]), (1, [30, 50]), (8, [30])):
            monkeypatch.setattr(os, "sched_getaffinity", lambda pid, n=cpus: set(range(n)),
                                raising=False)
            lines = list(cli._run_seeds("stage", self.one_seed, config, seeds, True))
            assert lines == [f"seed {s}" for s in seeds]
        assert pools == [(2, "spawn"), (2, "spawn"), (1, "spawn")]
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 3)
        list(cli._run_seeds("stage", self.one_seed, config, [30, 50, 99, 1], True))
        assert pools[-1] == (3, "spawn")
        with pytest.raises(ConfigError, match=r"stage failed for seeds \[70\]"):
            list(cli._run_seeds("stage", self.one_seed, config, [30, 70, 99], True))

    def test_pool_failures_name_the_seed(self, monkeypatch, capsys):
        # a killed worker breaks the pool and fails every pending seed; an
        # exception _guarded does not map comes back as it was raised
        broken = BrokenProcessPool("a process terminated abruptly")
        self.stand_in_pool(monkeypatch, {50: broken, 99: RuntimeError("boom")})
        config = RunConfig("a.csv", "b.csv")
        lines = []
        with pytest.raises(ConfigError, match=r"stage failed for seeds \[50, 99\]"):
            for line in cli._run_seeds("stage", self.one_seed, config, [30, 50, 99], True):
                lines.append(line)
        assert lines == ["seed 30"]
        err = capsys.readouterr().err
        assert "seed 50: BrokenProcessPool" in err
        assert "seed 99: RuntimeError('boom')" in err

    def test_pool_failure_exits_with_data_code(self, prepared, monkeypatch, capsys):
        _, config_path, _ = prepared
        self.stand_in_pool(monkeypatch, {50: BrokenProcessPool("killed")})
        code = run_cli(["train", "--config", config_path, "--parallel-seeds"])
        assert code == EXIT_DATA
        assert "train failed for seeds [50]" in capsys.readouterr().err

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
        # preprocess always writes 16-step, 80-value windows
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
        assert override.split("=")[0] + " must be" in capsys.readouterr().err


class TestMalformedInputs:
    STAGES = ["preprocess", "label", "train", "backtest"]
    # file under the run directory, how it is damaged, the command that
    # reads it ({path} is the damaged file)
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
    }

    @pytest.mark.parametrize("case", CASES)
    def test_exit_2_names_the_file(self, workspace, capsys, case):
        _, config_path, _ = workspace
        rel, damage, command = self.CASES[case]
        stage = command.split()[0]
        for earlier in self.STAGES[: self.STAGES.index(stage) if stage in self.STAGES else None]:
            assert run_cli([earlier, "--config", config_path]) == EXIT_OK, earlier
        path = Path(load_config(config_path).run_dir(), rel)
        path.write_bytes(damage(path.read_bytes() if path.exists() else b""))
        capsys.readouterr()
        argv = command.format(path=path).split()
        assert run_cli(argv[:1] + ["--config", config_path] + argv[1:]) == EXIT_DATA
        assert str(path) in capsys.readouterr().err


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
