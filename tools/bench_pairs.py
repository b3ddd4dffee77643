"""Benchmark a change against its parent in alternating pairs and write a BENCH_<k>.json.

usage: python3 tools/bench_pairs.py --parent REV --out BENCH_7.json

It runs tables, flows and classify on seed 0, ten pairs each, and flows on
seed 1, three pairs, each run as long as perfbench/run.py's default.  The
parent is exported with `git archive` into a temporary directory; the
change is this checkout as it stands.  Every pair runs perfbench/run.py once on each side
with the same settings, and the side that runs first alternates from pair
to pair.  For each end-to-end metric the record holds every run, each
side's median and quartiles, the change's relative difference in the
median, and the pairs in which the change was better (ties count for
neither).  Each metric is also judged by the acceptance rule (`judge`):
`gain_shown` when the change is better in at least 9 of 10 pairs and its
median beats the parent's by more than the parent's q3 - q1, and
`within_bound` when its median is no worse than the parent's by more than
the metric's bound in BENCHMARK.json.  It also makes one traced run per
side and workload and keeps the per-layer counts, which come from set-up
and the first round only.  The machine the runs were made on is recorded
too.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = (("tables", 0, 10), ("flows", 0, 10), ("classify", 0, 10), ("flows", 1, 3))   # name, seed, pairs
GAIN_PAIR_SHARE = 0.9   # a claimed gain must show in at least 9 of 10 pairs


def _git(*args: str) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, check=True, capture_output=True,
                          text=True).stdout.strip()


def _export(rev: str, dest: Path) -> None:
    archive = subprocess.run(["git", "archive", rev], cwd=ROOT, check=True, capture_output=True).stdout
    subprocess.run(["tar", "-x", "-C", str(dest)], input=archive, check=True)


def _run(root: Path, workload: str, seed: int, trace: int) -> dict:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--trace", str(trace)]
    out = subprocess.run(cmd, cwd=root, check=True, capture_output=True, text=True).stdout
    return json.loads(out.strip().splitlines()[-1])


def _quartiles(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3}


def judge(parent: list[float], change: list[float], bound: float | None, better: str = "lower") -> dict:
    """The acceptance rule on one metric's paired runs (parent[i] and change[i] are pair i).

    gain_shown: the change is better in at least GAIN_PAIR_SHARE of the pairs
    (ties count for neither), and its median is better than the parent's by
    more than the parent's q3 - q1.  within_bound: the change's median is worse
    than the parent's by at most the relative bound (None when there is no bound).
    """
    if len(parent) != len(change) or len(parent) < 2:
        raise ValueError("judge needs at least two pairs of runs")
    sign = 1.0 if better == "lower" else -1.0   # sign * (parent - change) > 0 when the change is better
    wins = sum(sign * (p - c) > 0 for p, c in zip(parent, change))
    base = _quartiles(parent)
    gain = sign * (base["median"] - statistics.median(change))
    return {
        "gain_shown": wins >= math.ceil(GAIN_PAIR_SHARE * len(parent)) and gain > base["q3"] - base["q1"],
        "within_bound": None if bound is None else -gain <= bound * base["median"],
    }


def _machine() -> dict:
    model = ""
    try:
        with open("/proc/cpuinfo") as handle:
            model = next((line.split(":", 1)[1].strip() for line in handle
                          if line.startswith("model name")), "")
    except OSError:
        pass
    return {"cpu": model or platform.processor(), "cpus": os.cpu_count(),
            "machine": platform.machine(), "system": platform.platform(),
            "python": platform.python_version()}


def _compare(workload: str, seed: int, pairs: int, sides: dict[str, Path]) -> dict:
    runs: dict[str, list[dict]] = {"parent": [], "change": []}
    for i in range(pairs):
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        for side in order:
            runs[side].append(_run(sides[side], workload, seed, 0))
            print(f"{workload} seed {seed} pair {i + 1}/{pairs} {side}: "
                  f"{ {k: round(v['value'], 3) for k, v in runs[side][-1]['metrics'].items()} }",
                  file=sys.stderr, flush=True)
    declared = {m["name"]: m for m in json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]}
    metrics = {}
    for name, first in runs["parent"][0]["metrics"].items():
        values = {side: [r["metrics"][name]["value"] for r in runs[side]] for side in runs}
        parent, change = (_quartiles(values[s]) if pairs > 1 else {"median": values[s][0]}
                          for s in ("parent", "change"))
        metrics[name] = {
            "unit": first["unit"],
            "parent": {**parent, "runs": values["parent"]},
            "change": {**change, "runs": values["change"]},
            "delta_pct": 100.0 * (change["median"] / parent["median"] - 1.0),
            "change_better_pairs": sum(c < p for p, c in zip(values["parent"], values["change"])),
            "pairs": pairs,
        }
        if pairs > 1:
            rule = declared.get(name, {})
            metrics[name].update(judge(values["parent"], values["change"], rule.get("bound"),
                                       rule.get("better", "lower")))
    return {
        "workload": workload, "seed": seed, "metrics": metrics,
        "correct": all(r["correct"] for side in runs.values() for r in side),
        "attempted": {side: [r["attempted"] for r in runs[side]] for side in runs},
        "failed": {side: [r["failed"] for r in runs[side]] for side in runs},
    }


def _traced_counts(workload: str, seed: int, sides: dict[str, Path]) -> dict:
    counts = {}
    for side, root in sides.items():
        layer = _run(root, workload, seed, 1)["metrics"]   # counts come from set-up and round 0
        counts[side] = {name: m["value"] for name, m in layer.items() if m["unit"] == "count"}
    return counts


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True, help="git revision of the parent commit")
    parser.add_argument("--out", required=True, type=Path)
    args = parser.parse_args()

    record = {
        "parent": _git("rev-parse", args.parent),
        "change": _git("rev-parse", "HEAD")
        + (" + working tree" if _git("status", "--porcelain", "--untracked-files=no") else ""),
        "command": " ".join(["python3", "tools/bench_pairs.py", *sys.argv[1:]]),
        "machine": _machine(),
        "workloads": [],
    }
    with tempfile.TemporaryDirectory() as tmp:
        sides = {"parent": Path(tmp), "change": ROOT}
        _export(args.parent, sides["parent"])
        for name, seed, pairs in WORKLOADS:
            entry = _compare(name, seed, pairs, sides)
            entry["traced_counts"] = _traced_counts(name, seed, sides)
            record["workloads"].append(entry)
            args.out.write_text(json.dumps(record, indent=1) + "\n")   # keep what is done so far
    return 0


if __name__ == "__main__":
    sys.exit(main())
