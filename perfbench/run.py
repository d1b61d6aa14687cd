"""Benchmark of the fxppo pipeline: the train, backtest and label stages.

Run from the repository root:

    python3 perfbench/run.py --workload train --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20

One workload runs in this process: synthetic data from --seed, set-up,
rounds of the timed stage for --seconds, then the correctness checks. The
last line of standard output is a JSON object with ``correct``,
``attempted`` and ``failed`` (timed rounds) and ``metrics``: the
end-to-end metrics with --trace 0, the per-layer metrics with --trace 1.
``--workload all`` runs every workload in a child process of its own and
prints each one's lines.
"""

import os
import sys
import time

T_START = time.perf_counter()
# Every hot path is single-threaded; pin BLAS before numpy loads.
os.environ["OPENBLAS_NUM_THREADS"] = "1"
os.environ["OMP_NUM_THREADS"] = "1"
# numpy advises transparent huge pages for large arrays; whether the kernel
# grants them depends on the host's free memory, and that moved peak RSS
# between two levels 6% apart from run to run.
os.environ["NUMPY_MADVISE_HUGEPAGE"] = "0"

import argparse  # noqa: E402
import json  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench_out")
NAMES = ("train", "backtest", "label")


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=NAMES + ("all",))
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def import_program():
    """Imports fxppo from this checkout's src/ and nowhere else."""
    if not os.path.isdir(os.path.join(SRC, "fxppo")):
        sys.exit(f"perfbench: no fxppo sources under {SRC}")
    sys.path.insert(0, SRC)
    sys.path.insert(0, HERE)
    import fxppo
    from fxppo import cli  # noqa: F401  (loads every module of the pipeline)

    if os.path.dirname(os.path.abspath(fxppo.__file__)) != os.path.join(SRC, "fxppo"):
        sys.exit(f"perfbench: fxppo imported from {fxppo.__file__}, not {SRC}")


def source_files():
    files = []
    for directory in (os.path.join(SRC, "fxppo"), HERE):
        files += sorted(os.path.join(directory, f) for f in os.listdir(directory)
                        if f.endswith(".py"))
    return files


def run_one(args):
    import_program()
    import_s = time.perf_counter() - T_START
    import workloads
    from tracing import Tracer, package_modules

    workload = workloads.WORKLOADS[args.workload]
    sizes = workload.sizes
    workdir = os.path.join(OUT, "work", f"{args.workload}-{os.getpid()}")
    tracer = Tracer() if args.trace else None
    try:
        result = workloads.run_workload(
            workload, sizes, workdir, args.seed, args.seconds, import_s,
            tracer=tracer, modules=package_modules("fxppo") if tracer is not None else (),
        )
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    key = "|".join([args.workload, str(args.seed),
                    workloads.source_digest(ROOT, source_files())])
    ok, detail = workloads.compare_with_store(
        os.path.join(OUT, "fingerprints.json"), key, result.fingerprints[-1])
    result.checks.append(("fingerprints.runs_agree", ok, detail))

    print(f"workload {args.workload}, seed {args.seed}: {result.rounds} rounds of "
          f"{result.items} items ({workload.item}), set-up repeats "
          + ", ".join(f"{s:.3f}" for s in result.setup_reps)
          + f" s after {result.import_s:.3f} s of imports")
    print("round items_per_s: " + ", ".join(f"{r:.1f}" for r in result.rates))
    for name, sha in sorted(result.fingerprints[-1].items()):
        print(f"fingerprint {name} {sha}")
    for name, passed, detail in result.checks:
        print(f"check {name}: {'ok' if passed else 'FAILED'} ({detail})")
    n_failed = sum(1 for _, passed, _ in result.checks if not passed)
    print(f"checks: {len(result.checks)} attempted, {n_failed} failed")

    if tracer is None:
        metrics = {
            "setup_s": {"value": result.setup_s, "unit": "s"},
            "items_per_s": {"value": statistics.median(result.rates), "unit": "1/s"},
            "peak_rss_mb": {"value": result.peak_rss_mb, "unit": "MiB"},
        }
    else:
        metrics = tracer.metrics()
        trace_dir = os.path.join(OUT, "trace", args.workload)
        tracer.write(trace_dir)
        untraced = statistics.median(result.rates)
        traced = statistics.median(result.traced_rates)
        print(f"trace overhead: items_per_s {traced:.6g} traced vs {untraced:.6g} "
              f"untraced ({(untraced / traced - 1) * 100:.1f}% slower); "
              f"spans in {trace_dir}")
    for name, m in metrics.items():
        print(f"{name} {m['value']:.6g} {m['unit']}")
    print(json.dumps({
        "correct": n_failed == 0,
        "attempted": result.rounds,
        "failed": result.failed_rounds,
        "metrics": metrics,
    }))
    return 0


def run_all(args):
    """Each workload in a fresh process; returns nonzero if any failed."""
    worst = 0
    for name in NAMES:
        argv = [sys.executable, os.path.abspath(__file__), "--workload", name,
                "--seed", str(args.seed), "--seconds", str(args.seconds),
                "--trace", str(args.trace)]
        print(f"== {name}", flush=True)
        worst = max(worst, subprocess.run(argv, check=False).returncode)
    return worst


def main(argv=None):
    args = parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
