"""Fast tests of the benchmark itself: every workload at tiny sizes, and
each oracle rejecting a corrupted output.

Run from the repository root:

    python3 -m pytest perfbench/tests -q
"""

import json
import math
import os
import subprocess
import sys
import types

import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
sys.path[:0] = [BENCH, os.path.join(ROOT, "src")]

import checks  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

# a data seed on which both tiny backtest policies trade, so that every
# reward stream has nonzero rewards to corrupt
SEED = 0


def tiny_run(name, tmp_path, tracer=None):
    w = workloads.WORKLOADS[name]
    return workloads.run_workload(
        w, w.tiny, str(tmp_path / name), SEED, seconds=0, tracer=tracer,
        modules=tracing.package_modules("fxppo") if tracer is not None else (),
    )


def failed_checks(name, result):
    w = workloads.WORKLOADS[name]
    found = checks.run_checks(workloads.oracle_checks(
        w, w.tiny, result.run, result.closes))
    return {check for check, ok, _ in found if not ok}


@pytest.fixture(scope="module")
def runs(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("runs")
    return {name: tiny_run(name, tmp) for name in workloads.WORKLOADS}


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_tiny_workload_passes_every_check(runs, name):
    result = runs[name]
    assert result.rounds == 1 and result.failed_rounds == 0
    assert result.rates[0] > 0 and result.setup_s > 0 and result.peak_rss_mb > 0
    assert [c for c in result.checks if not c[1]] == []
    assert "missing" not in result.fingerprints[0].values()


def test_flipped_reward_sign_is_rejected(runs):
    result = runs["backtest"]
    path = result.run["rewards"][30]
    with open(path, encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    j = next(i for i, line in enumerate(lines[1:], 1)
             if float(line.split(",")[1]) != 0.0)
    step, reward = lines[j].split(",")
    lines[j] = f"{step},{-float(reward)!r}"
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")
    bad = failed_checks("backtest", result)
    assert {"backtest.reward_accounting", "backtest.greedy_replay"} <= bad


def test_swapped_labels_are_rejected(runs):
    result = runs["label"]
    path = result.run["labels_train"]
    with open(path, encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    labels = [line.split(",")[1] for line in lines[1:]]
    i = 1
    j = next(k for k in range(2, len(lines)) if labels[k - 1] != labels[0])
    (a_idx, a_lab), (b_idx, b_lab) = lines[i].split(","), lines[j].split(",")
    lines[i], lines[j] = f"{a_idx},{b_lab}", f"{b_idx},{a_lab}"
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")
    assert "label.nearest_centroid" in failed_checks("label", result)


def test_dropped_log_row_is_rejected(runs):
    result = runs["train"]
    path = result.run["train_log"]
    with open(path, encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    del lines[1]
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")
    assert "train.log_rows" in failed_checks("train", result)


def test_traced_run_counts_work_exactly(tmp_path):
    tracer = tracing.Tracer()
    result = tiny_run("train", tmp_path, tracer)
    assert all(ok for _, ok, _ in result.checks)
    metrics = tracer.metrics()
    assert set(metrics) == set(tracing.METRICS)
    value = {name: m["value"] for name, m in metrics.items()}
    sizes = workloads.WORKLOADS["train"].tiny
    steps = sizes.ppo_iters * workloads.ROLLOUT
    # one act per step, plus at most one bootstrap per rollout; each step
    # is replayed once per epoch
    acts = value["agent.act.calls"]
    assert steps <= acts <= steps + sizes.ppo_iters
    assert value["kernels.lstm_seq_forward.rows"] == acts + steps * sizes.ppo_epochs
    windows = checks.n_windows(sizes.train_candles)
    ae_batches = math.ceil((windows - round(0.1 * windows)) / workloads.MINIBATCH)
    ppo_batches = math.ceil(workloads.ROLLOUT / workloads.MINIBATCH)
    assert value["nn.Adam.step.calls"] == (
        sizes.ae_epochs * ae_batches + sizes.ppo_iters * sizes.ppo_epochs * ppo_batches)
    assert value["labeler.ae_epochs"] == sizes.ae_epochs
    assert value["data.candles"] == sizes.train_candles + sizes.test_candles
    assert value["cli.self_s"] > 0


def test_span_self_times_add_up():
    tracer = tracing.Tracer()
    module = types.ModuleType("fxppo.fake")

    def outer():
        # looked up on the module, where the wrapper sits
        return module.inner() + module.inner()

    def inner():
        return 1

    outer.__module__ = inner.__module__ = "fxppo.fake"
    module.outer, module.inner = outer, inner
    tracer.install([module])
    with tracer.phase("round"):
        module.outer()
    tracer.uninstall()
    assert module.outer is outer
    names, modules = tracer.layer_table()
    assert names["fake.inner"]["calls"] == 2
    total = names["fake.outer"]["s"]
    assert modules["fake"] == pytest.approx(total, rel=1e-9)


def test_exits_nonzero_without_the_program(tmp_path):
    """In a directory that holds only the benchmark, it fails without a
    result line."""
    dest = tmp_path / "perfbench"
    dest.mkdir()
    for f in os.listdir(BENCH):
        if f.endswith(".py"):
            (dest / f).write_bytes(open(os.path.join(BENCH, f), "rb").read())
    out = subprocess.run(
        [sys.executable, str(dest / "run.py"), "--workload", "label",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, timeout=60, cwd=tmp_path,
    )
    assert out.returncode != 0
    for line in out.stdout.splitlines():
        with pytest.raises(json.JSONDecodeError):
            json.loads(line)
