"""The repository benchmark: one command per workload.

    python3 perfbench/run.py --workload grid --seed 53 --seconds 45 --trace 0

Workloads (see README.md beside this file for why each exists):

* ``grid``       a Table-6 slice through ``run_grid(jobs=2)``;
* ``storm_cold`` distinct requests against a ``repro-bench serve``
                 process, every one a cache miss.

``--seed`` derives every input (default 53; 97 is the held-out seed
later performance claims must also hold on).  ``--trace 0`` reports
the end-to-end metrics; ``--trace 1`` reports the per-layer metrics,
measured by timing wrappers around the program's public functions plus
the program's own counters, and writes the spans to
``.perfbench/<workload>-<seed>.trace.json``.

The last line of standard output is one JSON object: ``correct``,
``attempted``, ``failed`` and ``metrics`` (name -> value and unit).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

DEFAULT_SEED = 53  # the held-out seed, 97, is given on the command line
WORKLOADS = ("grid", "storm_cold")


def main(argv: list) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=45.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"perfbench: no program source at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)

    import common
    import spans

    if args.workload == "grid":
        import grid as module
    else:
        import storms as module
    t0 = time.perf_counter()
    outcome = getattr(module, args.workload)(args.seed, args.seconds,
                                             bool(args.trace))

    for line in outcome.notes + outcome.messages:
        print(f"{args.workload} seed={args.seed}: {line}")
    if args.trace:
        values, units = outcome.layers, dict(common.PER_LAYER)
        if spans.ACTIVE is not None:
            spans.write_chrome_trace(
                os.path.join(ROOT, ".perfbench",
                             f"{args.workload}-{args.seed}.trace.json"),
                spans.ACTIVE.spans)
    else:
        values, units = outcome.end_to_end(), dict(common.END_TO_END)
    print(f"{args.workload} seed={args.seed}: run took "
          f"{time.perf_counter() - t0:.1f} s")
    print(json.dumps({
        "correct": outcome.failed == 0 and not outcome.messages,
        "attempted": max(1, outcome.attempted),
        "failed": outcome.failed,
        "metrics": {name: {"value": values[name], "unit": units[name]}
                    for name in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
