#!/usr/bin/env python3
"""Benchmark of latentexplain: one workload per run, end-to-end or traced.

    python3 bench/run.py --workload explain --seed 1 --seconds 10 --trace 0

Run from the root of a checkout. Missing checkpoints and corpora are built
first (see prepare.py), outside every timed region. Each untraced run starts
several fresh worker processes to time set-up and keeps the last one for the
timed closed loop; a traced run starts one worker with the span tracer.
The last line of stdout is the JSON result.
"""

from __future__ import annotations

import argparse
import json
import os
import select
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
# one BLAS thread per process: more threads than this burn CPU on 2 cores without speed-up
BLAS_THREADS = "1"
BLAS_ENV = {k: BLAS_THREADS for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}
# fresh set-ups per untraced run; setup_s is their median
SETUPS = {"explain": 7, "sweep-latent": 3, "sweep-waveform": 3, "train": 3}
TAIL_BEYOND = 10   # samples beyond the reported tail percentile
TAIL_MIN_UNITS = 40
RUN_LIMIT_S = 170.0


def tail(lat_ms: list) -> tuple:
    """(value, note): the highest percentile with TAIL_BEYOND samples beyond it."""
    n = len(lat_ms)
    if n < TAIL_MIN_UNITS:
        return statistics.median(lat_ms), f"no tail: {n} units < {TAIL_MIN_UNITS}, median repeated"
    s = sorted(lat_ms)
    return s[n - TAIL_BEYOND - 1], f"p{100.0 * (n - TAIL_BEYOND) / n:.2f} of {n} units"


def start_worker(run_dir: Path, role: str, trace: int, seconds: int, tag: int, env: dict):
    return subprocess.Popen(
        [sys.executable, str(HERE / "worker.py"), str(run_dir), role, str(trace), str(seconds),
         str(tag)],
        stdout=subprocess.PIPE, env=env, cwd=str(ROOT), text=True,
    )


def stop(proc, deadline: float) -> int:
    try:
        return proc.wait(timeout=max(0.1, deadline - time.perf_counter()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        return -9


def wait_ready(proc, deadline: float) -> bool:
    ready, _, _ = select.select([proc.stdout], [], [], max(0.1, deadline - time.perf_counter()))
    return bool(ready) and proc.stdout.readline().strip() == "READY"


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True,
                   choices=["explain", "sweep-latent", "sweep-waveform", "train"])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = p.parse_args(argv)
    if not (ROOT / "src" / "latentexplain" / "__init__.py").is_file():
        print(f"no latentexplain sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    os.environ.update(BLAS_ENV)
    env = dict(os.environ)
    sys.path[:0] = [str(ROOT / "src")]
    import prepare
    prepare.ensure_built(env)
    import spans
    import workloads

    deadline = time.perf_counter() + RUN_LIMIT_S
    run_dir = prepare.OUT_DIR / "runs" / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    spec = workloads.make_inputs(args.workload, args.seed, run_dir)
    (run_dir / "inputs.json").write_text(json.dumps(spec))

    n = 1 if args.trace else SETUPS[args.workload]
    setups = []
    for k in range(n):
        role = "timed" if k == n - 1 else "setup"
        t0 = time.perf_counter()
        proc = start_worker(run_dir, role, args.trace, args.seconds, k, env)
        ok = wait_ready(proc, deadline)
        setups.append(time.perf_counter() - t0)
        code = stop(proc, deadline)
        if not ok or code != 0:
            print(f"worker {k} ({role}) failed: exit {code}", file=sys.stderr)
            return 1
    result = json.loads((run_dir / "result.json").read_text())

    lat_ms = [x * 1e3 for x in result["latencies_s"]]
    clips_per_s = result["clips"] / result["wall_s"]
    p50 = statistics.median(lat_ms)
    tail_ms, tail_note = tail(lat_ms)
    print(f"workload {args.workload} seed {args.seed}: {result['units']} units, "
          f"{result['clips']} clips in {result['wall_s']:.3f} s, BLAS threads {BLAS_THREADS}")
    print(f"latency p50 {p50:.3f} ms, tail {tail_ms:.3f} ms ({tail_note})")
    for line in result["failures"]:
        print(f"CHECK FAILED: {line}")
    for line in result["errors"]:
        print(f"UNIT FAILED: {line}")
    if args.trace:
        print(f"traced clips_per_s {clips_per_s:.4f}")
        metrics = {name: {"value": result["layers"][name], "unit": unit}
                   for name, unit, _better in spans.metric_specs()}
    else:
        print("set-up samples (s): " + ", ".join(f"{s:.4f}" for s in setups))
        metrics = {
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "clips_per_s": {"value": clips_per_s, "unit": "1/s"},
            "latency_p50_ms": {"value": p50, "unit": "ms"},
            "latency_tail_ms": {"value": tail_ms, "unit": "ms"},
            "peak_rss_mb": {"value": result["peak_rss_mb"], "unit": "MB"},
        }
    print(json.dumps({"correct": not result["failures"], "attempted": result["units"],
                      "failed": result["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
