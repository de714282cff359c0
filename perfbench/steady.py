"""Steadiness check: run workloads over several seeds, print each spread.

Run from the repository root::

    python3 perfbench/steady.py --seeds 1-10 --save .bench_out/set-a.json
    python3 perfbench/steady.py --seeds 11-20 --against .bench_out/set-a.json

For every workload and end-to-end metric it prints the median, the first
and third quartiles (``statistics.quantiles(values, n=4)``), the spread
``(q3 - q1) / median`` and the metric's bound from ``BENCHMARK.json``.
A spread is marked ``ok`` below a third of its bound (``setup_s`` is
judged only by its median shift).  ``--against`` adds each median's
change from a saved set, signed so that positive is worse; the share of
failed operations must match the saved set exactly.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from typing import Dict, List

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _seeds(text: str) -> List[int]:
    if "-" in text:
        low, high = text.split("-")
        return list(range(int(low), int(high) + 1))
    return [int(part) for part in text.split(",")]


def _run(command: List[str], workload: str, seed: int, seconds: int) -> Dict:
    completed = subprocess.run(
        command + ["--workload", workload, "--seed", str(seed),
                   "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=600, check=False)
    lines = completed.stdout.strip().splitlines()
    if completed.returncode != 0 or not lines:
        raise SystemExit("%s seed %d failed (exit %d):\n%s%s" % (
            workload, seed, completed.returncode, completed.stdout, completed.stderr))
    return json.loads(lines[-1])


def main(argv: List[str]) -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)
    workloads = [entry["name"] for entry in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", action="append", choices=workloads)
    parser.add_argument("--seeds", default="1-10", help="e.g. 1-10 or 3,5,8")
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--save", help="write the raw results to this JSON file")
    parser.add_argument("--against", help="compare medians with a saved set")
    args = parser.parse_args(argv)
    bounds = {metric["name"]: metric for metric in spec["end_to_end"]}
    baseline = {}
    if args.against:
        with open(args.against, encoding="utf-8") as handle:
            baseline = json.load(handle)
    results: Dict[str, List[Dict]] = {}
    for workload in args.workload or workloads:
        results[workload] = []
        for seed in _seeds(args.seeds):
            start = time.monotonic()
            result = _run(spec["command"], workload, seed, args.seconds)
            results[workload].append(result)
            print("%s seed %d (%.0f s): %s" % (
                workload, seed, time.monotonic() - start,
                json.dumps({name: round(metric["value"], 4)
                            for name, metric in result["metrics"].items()})),
                  file=sys.stderr, flush=True)
    if args.save:
        with open(args.save, "w", encoding="utf-8") as handle:
            json.dump(results, handle, indent=1)
    worst = 0.0
    for workload, runs in results.items():
        attempted = sum(run["attempted"] for run in runs)
        failed = sum(run["failed"] for run in runs)
        print("\n%s: %d runs, %d of %d operations failed" % (
            workload, len(runs), failed, attempted))
        if workload in baseline:
            old = baseline[workload]
            old_share = sum(r["failed"] for r in old) / sum(r["attempted"] for r in old)
            print("  failed share %.6f, saved set %.6f" % (failed / attempted, old_share))
        print("  %-22s %12s %12s %12s %7s %6s %8s" % (
            "metric", "median", "q1", "q3", "spread", "bound", "shift"))
        for name, metric in bounds.items():
            values = [run["metrics"][name]["value"] for run in runs]
            q1, median, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / median
            shift = ""
            if workload in baseline:
                old_median = statistics.median(
                    run["metrics"][name]["value"] for run in baseline[workload])
                change = (median - old_median) / old_median
                if metric["better"] == "higher":
                    change = -change
                shift = "%+.4f" % change
            judged = name != "setup_s"
            if judged:
                worst = max(worst, spread / metric["bound"])
            flag = ("ok" if spread < metric["bound"] / 3 else "WIDE") if judged else "-"
            print("  %-22s %12.5g %12.5g %12.5g %7.4f %6.3f %8s %s" % (
                name, median, q1, q3, spread, metric["bound"], shift, flag))
    print("\nlargest spread / bound (setup_s excluded): %.3f" % worst)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
