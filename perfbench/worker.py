"""One benchmark process: set up a workload, run whole rounds for the given time, check them.

run.py starts it from the root of a checkout, with src on PYTHONPATH and one
BLAS/OpenMP thread.  It prints READY as soon as set-up is done (run.py times
the cold start up to that line).  Unless --setup-only is given it then runs
rounds until the next one would end after --seconds, checks every output
against the oracle, and prints one JSON line with the run's figures.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import resource
import statistics
import sys
import time
import traceback

import spans

MAX_PROBLEMS = 20


def _peak_rss_mb(children: bool) -> float:
    who = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0  # Linux reports KiB


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    import jordanflow

    tracer = spans.Tracer() if args.trace else None
    if tracer is not None:
        tracer.install()
    import workloads

    workload = workloads.WORKLOADS[args.workload](args.seed, tracer)
    t0 = time.perf_counter()
    if tracer is not None:
        tracer.active = True
    with tracer.span("catalog.build") if tracer is not None else contextlib.nullcontext():
        jordanflow.names()
    workload.setup()
    setup_s = time.perf_counter() - t0
    if tracer is not None:
        tracer.active = False
    print("READY", flush=True)
    if args.setup_only:
        return 0

    start = time.perf_counter()
    round_durations, round_walls, item_times, round0_times = [], [], [], []
    attempted = failed = 0
    problems: list[str] = []
    errors: list[str] = []
    r = 0
    while True:
        began = time.perf_counter()
        items = workload.make_round(r)
        outputs = []
        first = last = None
        for item in items:
            if tracer is not None:
                tracer.round, tracer.item, tracer.active = r, attempted, True
            t = time.perf_counter()
            try:
                out, err = workload.run_item(item), None
            except Exception:  # a failed operation is counted, and the run goes on
                out, err = None, traceback.format_exc(limit=3)
            last = time.perf_counter()
            if tracer is not None:
                tracer.active = False
            first = t if first is None else first
            item_times.append(last - t)
            if r == 0:
                round0_times.append(last - t)
            attempted += 1
            outputs.append((item, out, err))
        round_walls.append(last - first)
        for item, out, err in outputs:
            if err is not None:
                failed += 1
                errors.append(f"{item.label}: {err}")
            else:
                problems.extend(f"{item.label}: {p}" for p in workload.check_item(item, out))
        round_durations.append(time.perf_counter() - began)
        r += 1
        if time.perf_counter() - start + statistics.median(round_durations) > args.seconds:
            break

    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "rounds": r,
        "problems": problems[:MAX_PROBLEMS],
        "errors": errors[:MAX_PROBLEMS],
        "setup_in_process_s": setup_s,
        "round_walls_s": round_walls,
        # Reported, not gated: see "End-to-end metrics" in README.md.
        "item_s_p50": statistics.median(item_times),
        "metrics": {
            "wall_s": statistics.fmean(round_walls),
            "peak_rss_mb": _peak_rss_mb(children=args.workload == "tables"),
        },
    }
    if tracer is not None:
        # Set-up and the first round: the same work on every run of a seed, so
        # counts repeat exactly.
        window = tracer.records({spans.SETUP, 0})
        layer = spans.layer_metrics(window, setup_s + sum(round0_times))
        layer["traced.item_s_p50"] = (statistics.median(round0_times), "s", "lower")
        result["layer"] = layer
        workloads.OUT.mkdir(exist_ok=True)
        tracer.dump(workloads.OUT / f"trace-{args.workload}-seed{args.seed}.jsonl")
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
