"""Benchmark of `tin`: one workload per run, each in fresh worker processes.

  python3 perfbench/run.py --workload train_tin --seed 1 --seconds 20 --trace 0

Workloads: train_tin, train_tcn, referee (see README.md). With --trace 0
the last line of stdout is a JSON object with the end-to-end metrics; with
--trace 1 it holds the per-layer metrics of a traced run and the tracing
overhead. Each run also writes perfbench/out/<workload>-seed<n>-trace<t>.json
with the environment it ran on, the check results, the set-up samples and
the quantiles of the latency samples.

BLAS and OpenMP run one thread in every worker, so that the two vCPUs of a
small machine do not make the figures depend on what else runs there.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("train_tin", "train_tcn", "referee")
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
BLAS_THREADS = "1"
SETUP_REPEATS = 5        # set-up-only processes, on top of the measuring one
MIN_ROUNDS = 100         # p90 needs at least ten samples beyond it
TRACE_MIN_ROUNDS = 20
WORKER_TIMEOUT_S = 170


def worker(workload: str, seed: int, seconds: float, min_rounds: int, trace: int,
           phase: str = "full") -> tuple:
    """Run one worker process; returns (its result, seconds from spawn to set-up done)."""
    env = dict(os.environ, **{k: BLAS_THREADS for k in THREAD_VARS})
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--min-rounds", str(min_rounds), "--trace", str(trace),
           "--phase", phase]
    spawned = time.perf_counter()
    proc = subprocess.run(cmd, env=env, cwd=ROOT, capture_output=True, text=True,
                          timeout=WORKER_TIMEOUT_S)
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"worker {phase} {workload} exited with {proc.returncode}")
    result = json.loads(lines[-1])
    # perf_counter is CLOCK_MONOTONIC, shared by every process on the machine.
    return result, result["ready"] - spawned


def metric(value, unit: str) -> dict:
    return {"value": value, "unit": unit}


UNITS = {"_s": "s", "_ms": "ms", "_us": "us", "_mb": "MB"}


def unit_of(name: str) -> str:
    for suffix, unit in UNITS.items():
        if name.endswith(suffix):
            return unit
    return "count"


def run_untraced(args) -> tuple:
    setups = [worker(args.workload, args.seed, 0, 0, 0, "setup")[1]
              for _ in range(SETUP_REPEATS)]
    main_run, setup_s = worker(args.workload, args.seed, args.seconds, MIN_ROUNDS, 0)
    setups.append(setup_s)
    metrics = {
        "setup_s": metric(statistics.median(setups), "s"),
        "run_s": metric(main_run["run_s"], "s"),
        "step_ms_p50": metric(main_run["step"]["p50_ms"], "ms"),
        "step_ms_p90": metric(main_run["step"]["p90_ms"], "ms"),
        "infer_ms_p50": metric(main_run["infer"]["p50_ms"], "ms"),
        "peak_rss_mb": metric(main_run["peak_rss_mb"], "MB"),
    }
    return metrics, [main_run], {"setup_samples_s": setups}


def run_traced(args) -> tuple:
    reference, _ = worker(args.workload, args.seed, 0, 0, 0)
    traced, _ = worker(args.workload, args.seed, args.seconds, TRACE_MIN_ROUNDS, 1)
    layers = dict(traced.pop("per_layer"))
    layers["trace.overhead_s"] = traced["run_s"] - reference["run_s"]
    metrics = {name: metric(value, unit_of(name)) for name, value in layers.items()}
    return metrics, [reference, traced], {}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args(argv)
    if args.seconds < 1:
        ap.error("--seconds must be at least 1")
    if not (ROOT / "src" / "tin" / "__init__.py").is_file():
        print(f"run.py: no tin sources under {ROOT / 'src'}; run it from a checkout of the repo",
              file=sys.stderr)
        return 2

    metrics, runs, extra = (run_traced if args.trace else run_untraced)(args)
    attempted = sum(r["attempted"] for r in runs)
    failed = sum(r["failed"] for r in runs)
    env = runs[-1]["env"]
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "env": env, "metrics": metrics, "runs": runs, **extra}
    out_dir = HERE / "out"
    out_dir.mkdir(exist_ok=True)
    out_path = out_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out_path.write_text(json.dumps(record, indent=2))

    for r in runs:
        for line in r["checks"]:
            print(line)
    print(f"env: python {env['python']}, numpy {env['numpy']}, {env['blas']['name']} "
          f"{env['blas']['version']}, nproc {env['nproc']}, "
          f"BLAS threads {env['threads']['OPENBLAS_NUM_THREADS']}, commit {env['git_commit']}")
    print(f"record: {out_path.relative_to(ROOT)}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
