"""Benchmark of jordan-flow.

usage: python3 perfbench/run.py --workload {tables,flows,classify} --seed N --seconds S --trace {0,1}

Run from the root of a source checkout; jordanflow is imported from src.
Every process gets one BLAS/OpenMP thread.  With --trace 0 the last line of
standard output is one JSON object with the end-to-end metrics setup_s,
wall_s and peak_rss_mb; with --trace 1 it holds the per-layer
metrics instead.  Both also give the operations attempted and failed and
whether every output passed its check.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("tables", "flows", "classify")
COLD_STARTS = 3        # setup_s is the median over this many cold interpreters
DEADLINE_S = 170.0     # every child is killed after this long
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _env() -> dict:
    env = dict(os.environ)
    for var in THREAD_VARS:
        env[var] = "1"
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return env


def _run_worker(cmd: list[str], deadline: float) -> tuple[float, str]:
    """Start a worker; return the seconds until it printed READY, and its later output."""
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=_env(), stdout=subprocess.PIPE, text=True)
    killer = threading.Timer(max(deadline - time.monotonic(), 0.0), proc.kill)
    killer.start()
    try:
        ready = proc.stdout.readline()
        setup_s = time.perf_counter() - t0
        rest = proc.stdout.read()
        code = proc.wait()
    finally:
        killer.cancel()
        if proc.poll() is None:
            proc.kill()
        proc.wait()
        proc.stdout.close()
    if ready.strip() != "READY" or code != 0:
        raise RuntimeError(f"worker {' '.join(cmd[2:])} exited {code}")
    return setup_s, rest


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=40)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (ROOT / "src" / "jordanflow" / "__init__.py").is_file():
        print(f"error: no jordanflow sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    deadline = time.monotonic() + DEADLINE_S
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
    try:
        setups = [] if args.trace else [
            _run_worker(cmd + ["--setup-only"], deadline)[0] for _ in range(COLD_STARTS - 1)]
        setup_s, out = _run_worker(cmd, deadline)
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    setups.append(setup_s)
    result = json.loads(out.strip().splitlines()[-1])
    for line in result["errors"] + result["problems"]:
        print(f"{args.workload}: {line}", file=sys.stderr)

    if args.trace:
        metrics = {name: {"value": value, "unit": unit}
                   for name, (value, unit, _) in result["layer"].items()}
    else:
        units = {"wall_s": "s", "peak_rss_mb": "MB"}
        metrics = {"setup_s": {"value": statistics.median(setups), "unit": "s"}}
        metrics.update({name: {"value": value, "unit": units[name]}
                        for name, value in result["metrics"].items()})
    (HERE / "out").mkdir(exist_ok=True)
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "setups_s": setups, **result}
    with open(HERE / "out" / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json", "w") as f:
        json.dump(record, f, indent=1)
    print(json.dumps({"correct": result["correct"], "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
