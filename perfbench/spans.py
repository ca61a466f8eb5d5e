"""In-memory span recorder for the benchmark's traced mode.

Every timed section of a workload is a span: ``with run.span(name) as s``
measures ``s.seconds`` in both modes, so the untraced run times exactly
the code the traced run times.  With recording on, each span is also
kept in memory as ``(name, start, end, parent, thread)`` and the whole
list is written out when the run ends; with recording off a span costs
two ``perf_counter`` calls and nothing else.

Parents default to the innermost open span of the calling thread; a
span opened on a helper thread names its parent explicitly.
"""

from __future__ import annotations

import threading
import time
from typing import Dict, List, Optional

__all__ = [
    "SpanRecorder",
    "nesting_errors",
    "self_times",
    "totals_by_name",
    "coverage",
]


class Span:
    """One timed section; ``seconds`` is valid after the block exits."""

    __slots__ = ("recorder", "name", "parent", "index", "start", "end")

    def __init__(self, recorder: "SpanRecorder", name: str,
                 parent: Optional[int]) -> None:
        self.recorder = recorder
        self.name = name
        self.parent = parent
        self.index: Optional[int] = None
        self.start = 0.0
        self.end = 0.0

    def __enter__(self) -> "Span":
        recorder = self.recorder
        if recorder.enabled:
            stack = recorder._stack()
            if self.parent is None and stack:
                self.parent = stack[-1]
            self.index = recorder._open(self)
            stack.append(self.index)
        self.start = time.perf_counter()
        return self

    def __exit__(self, *exc) -> None:
        self.end = time.perf_counter()
        recorder = self.recorder
        if recorder.enabled:
            recorder._stack().pop()
            recorder._close(self)

    @property
    def seconds(self) -> float:
        return self.end - self.start


class SpanRecorder:
    """Collects spans in memory when ``enabled``; times them always."""

    def __init__(self, enabled: bool) -> None:
        self.enabled = enabled
        self.records: List[dict] = []
        self._lock = threading.Lock()
        self._local = threading.local()

    def span(self, name: str, parent: Optional[int] = None) -> Span:
        return Span(self, name, parent)

    def current(self) -> Optional[int]:
        """Index of the calling thread's innermost open span."""
        stack = self._stack()
        return stack[-1] if stack else None

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _open(self, span: Span) -> int:
        with self._lock:
            self.records.append({
                "name": span.name, "start": None, "end": None,
                "parent": span.parent, "thread": threading.get_ident(),
            })
            return len(self.records) - 1

    def _close(self, span: Span) -> None:
        record = self.records[span.index]
        record["start"] = span.start
        record["end"] = span.end


def _children(spans: List[dict]) -> Dict[int, List[int]]:
    children: Dict[int, List[int]] = {}
    for index, span in enumerate(spans):
        if span["parent"] is not None:
            children.setdefault(span["parent"], []).append(index)
    return children


def _union_length(intervals) -> float:
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def nesting_errors(spans: List[dict]) -> List[str]:
    """Spans that are unclosed or stick out of their parent."""
    errors = []
    for index, span in enumerate(spans):
        if span["start"] is None or span["end"] is None:
            errors.append(f"span {index} ({span['name']}) never closed")
            continue
        if span["end"] < span["start"]:
            errors.append(f"span {index} ({span['name']}) ends before it starts")
        parent = span["parent"]
        if parent is None:
            continue
        outer = spans[parent]
        if outer["start"] is None or not (
            outer["start"] <= span["start"] and span["end"] <= outer["end"]
        ):
            errors.append(
                f"span {index} ({span['name']}) is not inside its parent "
                f"{parent} ({outer['name']})"
            )
    return errors


def self_times(spans: List[dict]) -> List[float]:
    """Each span's duration minus the part its children cover.

    Children on different threads may overlap; the covered part is the
    union of their intervals, so a self time is never negative.
    """
    children = _children(spans)
    result = []
    for index, span in enumerate(spans):
        covered = _union_length(
            (spans[c]["start"], spans[c]["end"]) for c in children.get(index, ())
        )
        result.append(span["end"] - span["start"] - covered)
    return result


def coverage(spans: List[dict], index: int) -> float:
    """Share of span ``index``'s wall time covered by its children."""
    span = spans[index]
    duration = span["end"] - span["start"]
    if duration <= 0:
        return 1.0
    return 1.0 - self_times(spans)[index] / duration


def totals_by_name(spans: List[dict]) -> Dict[str, dict]:
    """Per span name: count, total wall seconds and total self seconds."""
    selfs = self_times(spans)
    table: Dict[str, dict] = {}
    for span, own in zip(spans, selfs):
        row = table.setdefault(
            span["name"], {"count": 0, "total_s": 0.0, "self_s": 0.0}
        )
        row["count"] += 1
        row["total_s"] += span["end"] - span["start"]
        row["self_s"] += own
    return table
