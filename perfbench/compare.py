"""Compare benchmark records from ``.perfbench_out/``.

    python3 perfbench/compare.py BASE.json [BASE.json ...] -- NEW.json [...]

Prints, per end-to-end metric, the median of each side, the change,
and the spread of the base side (interquartile range over median).
Records of one workload only are compared, and only when every record
carries the same machine fingerprint (cores, CPU model, python, numpy):
a 1-core number is never set against a 2-core one.  When the base side
is untraced and the new side traced, the change is the tracing
overhead.  Exit code 2 means the records were refused.
"""

from __future__ import annotations

import json
import statistics
import sys

from common import END_TO_END


def load(paths):
    return [json.loads(open(path).read()) for path in paths]


def refusal(records) -> str:
    workloads = {record["workload"] for record in records}
    if len(workloads) != 1:
        return f"records of different workloads: {sorted(workloads)}"
    settings = {(record["seconds"], record["scale"]) for record in records}
    if len(settings) != 1:
        return f"records of different --seconds/--scale: {sorted(settings)}"
    prints = {json.dumps(record["fingerprint"], sort_keys=True)
              for record in records}
    if len(prints) != 1:
        return "records come from different machines:\n  " + "\n  ".join(
            sorted(prints))
    return ""


def spread(values) -> float:
    if len(values) < 2:
        return float("nan")
    q1, _q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def main(argv) -> int:
    if "--" not in argv:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    cut = argv.index("--")
    base, new = load(argv[:cut]), load(argv[cut + 1:])
    if not base or not new:
        print("compare: each side needs at least one record", file=sys.stderr)
        return 2
    reason = refusal(base + new)
    if reason:
        print(f"compare: refused: {reason}", file=sys.stderr)
        return 2
    traces = ({r["trace"] for r in base}, {r["trace"] for r in new})
    label = ("tracing overhead" if traces == ({0}, {1}) else "change")
    print(f"{base[0]['workload']}: {len(base)} base vs {len(new)} new "
          f"record(s); column 'change' is the {label}")
    print(f"  {'metric':14s} {'base':>14s} {'new':>14s} {'change':>9s} "
          f"{'base spread':>12s}")
    for name, (unit, better) in END_TO_END.items():
        b = statistics.median(r["end_to_end"][name] for r in base)
        n = statistics.median(r["end_to_end"][name] for r in new)
        change = (n - b) / b
        print(f"  {name:14s} {b:14.4f} {n:14.4f} {100 * change:+8.2f}% "
              f"{spread([r['end_to_end'][name] for r in base]):12.4f}  "
              f"{unit}, {better} is better")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
