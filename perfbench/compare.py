#!/usr/bin/env python3
"""Compare saved benchmark runs of two commits, refusing mixed hosts.

    python3 perfbench/compare.py --base A1.txt A2.txt ... --head B1.txt ...

Each file is the saved stdout of one `perfbench/run.py` run: its last two
lines are the `host: {...}` description and the JSON result. Every file
must come from the same host (nproc, CPU model, SIMD backend, build type
and compiler) and the same kind of run (end-to-end or per-layer metrics);
otherwise the comparison is refused with exit code 2. Prints, per metric,
each side's median and quartiles and the change of the medians.
"""

import argparse
import json
import statistics
import sys


def load(path):
    with open(path, encoding="utf-8") as f:
        lines = [line for line in f.read().splitlines() if line.strip()]
    if len(lines) < 2 or not lines[-2].startswith("host: "):
        raise ValueError("%s: no host line before the result" % path)
    return json.loads(lines[-2][len("host: "):]), json.loads(lines[-1])


def summary(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", nargs="+", required=True)
    parser.add_argument("--head", nargs="+", required=True)
    args = parser.parse_args()

    runs = {side: [load(p) for p in paths]
            for side, paths in (("base", args.base), ("head", args.head))}
    hosts = {json.dumps(host, sort_keys=True)
             for side in runs.values() for host, _ in side}
    if len(hosts) != 1:
        print("compare: refusing to compare runs from different hosts:",
              file=sys.stderr)
        for host in sorted(hosts):
            print("  " + host, file=sys.stderr)
        return 2
    names = {tuple(result["metrics"]) for side in runs.values()
             for _, result in side}
    if len(names) != 1:
        print("compare: runs report different metric sets", file=sys.stderr)
        return 2

    print("host: " + hosts.pop())
    for side, results in runs.items():
        failed = sum(result["failed"] for _, result in results)
        print("%s: %d run(s), %d failed operation(s)" %
              (side, len(results), failed))
    print("%-32s %8s %26s %26s %9s" %
          ("metric", "unit", "base q1/median/q3", "head q1/median/q3",
           "change"))
    for name in next(iter(names)):
        unit = runs["base"][0][1]["metrics"][name]["unit"]
        sides = [summary([result["metrics"][name]["value"]
                          for _, result in runs[side]])
                 for side in ("base", "head")]
        change = ("%+8.2f%%" % (100.0 * (sides[1][1] / sides[0][1] - 1.0))
                  if sides[0][1] else "       -")
        print("%-32s %8s %26s %26s %9s" % (
            name, unit, "/".join("%.4g" % v for v in sides[0]),
            "/".join("%.4g" % v for v in sides[1]), change))
    return 0


if __name__ == "__main__":
    sys.exit(main())
