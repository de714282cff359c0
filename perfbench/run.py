"""End-to-end benchmark of the pub/sub service: one run of one workload.

Run from the repository root::

    python3 perfbench/run.py --workload auction-line --seed 1 --seconds 20 --trace 0

Workloads are ``auction-line``, ``churn-adaptive`` and ``wire-fanout``
(see ``perfbench/README.md``).  The program is imported from ``src/``
of the checkout the script sits in.  Human-readable notes go first; the
last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics`` (the end-to-end metrics, or
the per-layer metrics with ``--trace 1``).  A failed correctness check
exits with status 1 after printing the result.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")


def main(argv: list) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        help="auction-line, churn-adaptive or wire-fanout")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print("error: no program to benchmark: %s/repro is missing" % SRC,
              file=sys.stderr)
        return 2
    # All threads of the run share one CPU: the host-speed probe then
    # measures the core that does the work, and no hand-off between the
    # server's threads crosses cores.  This sets only this process's
    # affinity; where it cannot be set the run goes on unpinned.
    try:
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    except (AttributeError, OSError) as error:
        print("note: running on all CPUs (%s)" % error, file=sys.stderr)
    sys.path[:0] = [SRC, HERE]
    import workloads

    if args.workload not in workloads.SPECS:
        parser.error("unknown workload %r" % args.workload)
    outcome = workloads.run(args.workload, args.seed, args.seconds, bool(args.trace))
    for note in outcome.notes:
        print(note)
    for problem in outcome.problems:
        print("CHECK FAILED: %s" % problem)
    for name, (value, unit) in {**outcome.metrics, **outcome.layers}.items():
        print("%-40s %14.6g %s" % (name, value, unit))
    print(json.dumps(outcome.result()))
    return 0 if not outcome.problems else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
