"""The repository's benchmark of record.

Run from the root of a checkout::

    python3 perfbench/run.py --workload soa-100k --seed 1 --seconds 20 --trace 0

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` runs the
same workload with span recording and the engines' stage profilers on
and prints the per-layer metrics.  Every run prints a readable report,
writes its full record to ``.perfbench_out/`` and ends with one JSON
line: ``{"correct", "attempted", "failed", "metrics"}``.  A failed
output check makes the exit code 1; a checkout without ``src/repro``
makes it 2.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
import traceback
from pathlib import Path

START = time.perf_counter()

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUTDIR = ROOT / ".perfbench_out"

WORKLOADS = ("soa-100k", "sharded2-100k", "service-sweep")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=20,
                        help="sizes the service request stream "
                             "(the swarm horizon is fixed)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", type=float, default=1.0,
                        help="shrink peers and requests (smoke tests)")
    return parser.parse_args(argv)


def import_program():
    """Import ``repro`` from this checkout's ``src``, never from elsewhere."""
    sys.path.insert(0, str(SRC))
    import repro

    location = Path(repro.__file__).resolve()
    if SRC.resolve() not in location.parents:
        raise RuntimeError(f"imported repro from {location}, not from {SRC}")


def calibrate_span_cost() -> float:
    """Seconds one recorded span costs (``trace.span_cost_estimate_s``)."""
    from spans import SpanRecorder

    recorder = SpanRecorder(enabled=True)
    count = 2000
    start = time.perf_counter()
    with recorder.span("calibrate"):
        for _ in range(count):
            with recorder.span("x"):
                pass
    return (time.perf_counter() - start) / count


def trace_summary(run, root_index: int) -> dict:
    from spans import coverage, nesting_errors, self_times, totals_by_name

    spans = run.recorder.records
    errors = nesting_errors(spans)
    run.check(not errors, "; ".join(errors[:3]))
    selfs = self_times(spans)
    run.check(min(selfs) >= -1e-9, "a span has negative self time")
    root = spans[root_index]
    cover = coverage(spans, root_index)
    run.per_layer["trace.spans"] = len(spans)
    run.per_layer["trace.coverage"] = cover
    run.per_layer["trace.unattributed_s"] = selfs[root_index]
    run.per_layer["trace.span_cost_estimate_s"] = (
        len(spans) * calibrate_span_cost()
    )
    return {
        "wall_s": root["end"] - root["start"],
        "coverage": cover,
        "unattributed_s": selfs[root_index],
        "by_name": totals_by_name(spans),
    }


def tracing_overhead(run, record) -> None:
    """Traced minus untraced wall time, when this seed has an untraced record.

    The whole cost of tracing (spans and the engines' stage profilers)
    is only visible against an untraced run of the same workload and
    seed; without one on this machine the overhead is not reported.
    """
    from compare import refusal

    path = OUTDIR / f"{run.workload}-seed{run.seed}-trace0.json"
    if not path.is_file():
        return
    untraced = json.loads(path.read_text())
    if refusal([untraced, record]) or "wall_s" not in untraced:
        return
    overhead = record["wall_s"] - untraced["wall_s"]
    record["tracing_overhead_s"] = overhead
    run.note("tracing_overhead_s", overhead, "s",
             f"traced minus untraced wall time, seed {run.seed} "
             f"(one pair; {path.name})")


def print_report(run, record) -> None:
    from common import END_TO_END, PER_LAYER

    fp = record["fingerprint"]
    print(f"perfbench {run.workload} seed={run.seed} trace={int(run.trace)} "
          f"scale={run.scale:g}")
    print(f"machine: {fp['cores']} cores ({fp['usable_cores']} usable), "
          f"{fp['cpu_model']}, python {fp['python']}, numpy {fp['numpy']}")
    print("workload figures:")
    for name, (value, unit, note) in run.report.items():
        print(f"  {name:28s} {value:14.4f} {unit:10s} {note}")
    if run.trace:
        print("per-layer metrics:")
        for name, (unit, _better) in PER_LAYER.items():
            print(f"  {name:32s} {run.per_layer[name]:16.6f} {unit}")
        summary = record["trace_summary"]
        print(f"trace: {len(run.recorder.records)} spans cover "
              f"{100 * summary['coverage']:.2f}% of {summary['wall_s']:.3f} s; "
              f"unattributed {summary['unattributed_s']:.4f} s")
        for name, row in sorted(summary["by_name"].items(),
                                key=lambda item: -item[1]["self_s"]):
            print(f"  span {name:26s} x{row['count']:<6d} "
                  f"total {row['total_s']:10.4f} s  self {row['self_s']:10.4f} s")
    print("end-to-end metrics:" + ("" if not run.trace else
                                   " (traced run; compare untraced runs only)"))
    for name, (unit, _better) in END_TO_END.items():
        print(f"  {name:28s} {run.end_to_end[name]:14.6f} {unit}")
    print(f"operations: {run.attempted} attempted, {run.failed} failed")
    for failure in run.failures:
        print(f"FAILED CHECK: {failure}")


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program source at {SRC}/repro", file=sys.stderr)
        return 2
    from common import END_TO_END, PER_LAYER, Run, fingerprint

    OUTDIR.mkdir(exist_ok=True)
    run = Run(args.workload, args.seed, args.seconds, args.scale,
              bool(args.trace), str(OUTDIR))
    with run.span("workload") as root:
        root.start = START
        with run.span("import"):
            import_program()
            import repro.api  # noqa: F401
            import repro.sim.swarm  # noqa: F401
        if args.workload == "soa-100k":
            from sim_workloads import run_soa
            run_soa(run)
        elif args.workload == "sharded2-100k":
            from sim_workloads import run_sharded
            run_sharded(run)
        else:
            from service_workload import run_service
            run_service(run, str(SRC))
    for name, value in run.end_to_end.items():
        run.check(value > 0, f"end-to-end metric {name} is {value}")

    record = {
        "workload": run.workload, "seed": run.seed, "seconds": run.seconds,
        "scale": run.scale, "trace": int(run.trace),
        "fingerprint": fingerprint(),
        "end_to_end": run.end_to_end,
        "per_layer": run.per_layer if run.trace else None,
        "report": {name: {"value": v, "unit": u, "note": n}
                   for name, (v, u, n) in run.report.items()},
        "samples": run.samples,
        "wall_s": root.seconds,
        "attempted": run.attempted, "failed": run.failed,
        "failures": run.failures,
    }
    stem = f"{run.workload}-seed{run.seed}-trace{int(run.trace)}"
    if run.trace:
        record["trace_summary"] = trace_summary(run, root.index)
        tracing_overhead(run, record)
        spans_path = OUTDIR / f"{stem}.spans.json"
        spans_path.write_text(json.dumps(run.recorder.records))
        record["spans_file"] = str(spans_path.relative_to(ROOT))
    record["correct"] = run.correct
    (OUTDIR / f"{stem}.json").write_text(json.dumps(record, indent=1))

    print_report(run, record)
    catalogue = PER_LAYER if run.trace else END_TO_END
    values = run.per_layer if run.trace else run.end_to_end
    print(json.dumps({
        "correct": run.correct,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {
            name: {"value": values[name], "unit": unit}
            for name, (unit, _better) in catalogue.items()
        },
    }))
    return 0 if run.correct else 1


if __name__ == "__main__":
    try:
        sys.exit(main())
    except SystemExit:
        raise
    except BaseException:
        traceback.print_exc()
        sys.exit(1)
