"""Shared pieces of the benchmark: metric catalogue, run state, helpers.

The metric catalogue here is the benchmark's contract: ``END_TO_END``
is what an untraced run prints and ``PER_LAYER`` what a traced run
prints.  ``BENCHMARK.json`` at the repository root lists the same
names, units and directions (``test_perfbench.py`` checks they agree).
"""

from __future__ import annotations

import math
import os
import platform
import resource
import statistics
from typing import Dict, List, Optional, Sequence

from spans import SpanRecorder

#: name -> (unit, better).  Every workload reports every metric: an
#: "operation" is one protocol round of the whole swarm on the swarm
#: workloads and one ``POST /solve`` on the service workload.
END_TO_END = {
    "setup_s": ("s", "lower"),
    "ops_per_s": ("ops/s", "higher"),
    "op_p50_ms": ("ms", "lower"),
    "op_tail_ms": ("ms", "lower"),
    "work_s": ("s", "lower"),
    "peak_rss_mb": ("MB", "lower"),
}

#: name -> (unit, better).  A layer a workload does not exercise reports
#: 0 — the measured amount of work it did there.
PER_LAYER = {
    "sim.completions": ("downloads", "higher"),
    "sim.peer_rounds": ("count", "higher"),
    "sim.events": ("count", "lower"),
    "soa.construct_s": ("s", "lower"),
    "soa.setup_s": ("s", "lower"),
    "soa.round_s.p50": ("s", "lower"),
    "soa.round_s.max": ("s", "lower"),
    "soa.stage.store_s": ("s", "lower"),
    "soa.stage.interest_s": ("s", "lower"),
    "soa.stage.selection_s": ("s", "lower"),
    "soa.stage.exchange_s": ("s", "lower"),
    "soa.stage.seeds_s": ("s", "lower"),
    "soa.stage.bookkeeping_s": ("s", "lower"),
    "soa.unattributed_share": ("ratio", "lower"),
    "sharded.start_s": ("s", "lower"),
    "sharded.step_s.p50": ("s", "lower"),
    "sharded.coord.comms_s": ("s", "lower"),
    "sharded.coord.bookkeeping_s": ("s", "lower"),
    "sharded.shard_compute_s.max": ("s", "lower"),
    "sharded.shard_compute_s.sum": ("s", "lower"),
    "sharded.critical_path_share": ("ratio", "higher"),
    "shm.bytes_broadcast_per_round": ("B", "lower"),
    "shm.bytes_migrated_per_round": ("B", "lower"),
    "checkpoint.snapshot_s": ("s", "lower"),
    "checkpoint.write_s": ("s", "lower"),
    "checkpoint.read_s": ("s", "lower"),
    "checkpoint.resume_s": ("s", "lower"),
    "checkpoint.bytes": ("B", "lower"),
    "checkpoint.bytes_per_peer": ("B", "lower"),
    "service.http_overhead_ms.p50": ("ms", "lower"),
    "service.hit_ms.p50": ("ms", "lower"),
    "service.hit_count": ("count", "higher"),
    "service.miss_count": ("count", "lower"),
    "service.coalesced_count": ("count", "higher"),
    "cache.kernel_hits": ("count", "higher"),
    "cache.kernel_misses": ("count", "lower"),
    "cache.sparse_hits": ("count", "higher"),
    "cache.sparse_misses": ("count", "lower"),
    "cache.evictions": ("count", "lower"),
    "cache.bytes": ("B", "lower"),
    "core.exact_solve_ms.p50": ("ms", "lower"),
    "core.batch_solve_ms.p50": ("ms", "lower"),
    "core.meanfield_solve_ms.p50": ("ms", "lower"),
    "trace.spans": ("count", "lower"),
    "trace.coverage": ("ratio", "higher"),
    "trace.unattributed_s": ("s", "lower"),
    "trace.span_cost_estimate_s": ("s", "lower"),
}


class Run:
    """State of one benchmark run: spans, operation counts, results.

    ``end_to_end`` and ``per_layer`` hold the catalogue metrics;
    ``report`` holds the workload's own figures under their everyday
    names (``rounds_per_s``, ``completions``, ``query_p99_ms`` ...) as
    ``name -> (value, unit, note)`` for the human-readable report.
    """

    def __init__(self, workload: str, seed: int, seconds: int,
                 scale: float, trace: bool, outdir: str) -> None:
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.scale = scale
        self.trace = trace
        self.outdir = outdir
        self.recorder = SpanRecorder(enabled=trace)
        self.attempted = 0
        self.failed = 0
        self.failures: List[str] = []
        self.end_to_end: Dict[str, float] = {}
        self.per_layer: Dict[str, float] = {name: 0.0 for name in PER_LAYER}
        self.report: Dict[str, tuple] = {}
        #: Raw per-operation timings kept in the record, not printed.
        self.samples: Dict[str, list] = {}

    def span(self, name: str, parent: Optional[int] = None):
        return self.recorder.span(name, parent)

    def op(self, ok: bool = True, why: str = "") -> None:
        """Count one attempted operation; a failed one also fails the run."""
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.failures.append(why)

    def check(self, condition: bool, message: str) -> None:
        """An output check (outside every timed section)."""
        if not condition:
            self.failures.append(message)

    def note(self, name: str, value: float, unit: str, note: str = "") -> None:
        self.report[name] = (value, unit, note)

    @property
    def correct(self) -> bool:
        return not self.failures


def percentile(samples: Sequence[float], q: float) -> float:
    """Nearest-rank percentile (``q`` in [0, 1]) of ``samples``."""
    ordered = sorted(samples)
    if not ordered:
        raise ValueError("percentile of no samples")
    rank = max(1, math.ceil(q * len(ordered)))
    return ordered[rank - 1]


def tail_percentile(count: int) -> float:
    """p99, or the highest of p95/p90/p50 with at least 10 samples beyond."""
    for q in (0.99, 0.95, 0.90, 0.50):
        if count - math.ceil(q * count) >= 10:
            return q
    return 1.0


def median(samples: Sequence[float]) -> float:
    """The middle sample, or the mean of the middle two."""
    return statistics.median(samples)


def fingerprint() -> dict:
    """The machine a result came from; results are compared only within one."""
    import numpy

    cpu_model = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    cpu_model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    try:
        usable = len(os.sched_getaffinity(0))
    except AttributeError:
        usable = os.cpu_count()
    return {
        "cores": os.cpu_count(),
        "usable_cores": usable,
        "cpu_model": cpu_model,
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
    }


def own_peak_rss_mb() -> float:
    """This process's peak resident set size (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def process_peak_rss_mb(pid: int) -> float:
    """Peak resident set size of another live process, from /proc."""
    with open(f"/proc/{pid}/status") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"/proc/{pid}/status has no VmHWM line")


def pid_alive(pid: int) -> bool:
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    except PermissionError:
        return True
    return True
