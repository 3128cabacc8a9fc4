"""Hierarchical spans and Chrome trace-event export.

A span is one timed interval with an identity in the run's tree:
run → iteration → stage → subsystem (and, across processes,
task → run → …).  The recorder keeps an explicit open-span stack per
thread, so parentage is structural — a span opened while another is
open is its child — and the whole run serializes to the Chrome
trace-event JSON that ``chrome://tracing`` and Perfetto load directly
(``"X"`` complete events on ``pid``/``tid`` lanes, ``"M"`` metadata
events naming the lanes).

Timestamps are **epoch microseconds** as floats (``time.time_ns() /
1000``), not ``perf_counter``: pool workers have their own monotonic
origins, and an epoch base is what lets a worker's spans land on the
parent's timeline without clock translation.  The fraction keeps
sub-µs precision, so summing many µs-scale subsystem spans (the host
profile does) loses nothing to whole-µs truncation.  Workers ship
their finished span lists back through the executor (see
``repro.bench.executor``); span ids are unique per ``(pid,
recorder)``, so merged traces key spans by ``(pid, id)``.

:func:`validate_span_tree` is the well-formedness check the tests and
the CI schema gate use: per ``(pid, tid)`` lane, spans must nest
strictly (no partial overlap), every ``parent_id`` must resolve to an
enclosing span, and tree-level categories (iteration/stage/subsystem)
must not float as orphan roots.
"""

from __future__ import annotations

import os
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field

__all__ = [
    "Span",
    "SpanRecorder",
    "now_us",
    "to_chrome_trace",
    "validate_span_tree",
]

#: categories that only make sense *inside* a parent span
_NESTED_CATEGORIES = frozenset({"iteration", "stage", "subsystem"})


def now_us() -> float:
    """Epoch microseconds (cross-process comparable, sub-µs precision)."""
    return time.time_ns() / 1000


# Span ids are allocated from one process-global counter, not per
# recorder: a reused pool worker builds a fresh recorder per task, and
# per-recorder ids would collide within the worker's pid when the
# parent merges several of its task payloads.
_id_lock = threading.Lock()
_id_counter = 0


def _alloc_id() -> int:
    global _id_counter
    with _id_lock:
        sid = _id_counter
        _id_counter += 1
    return sid


@dataclass(frozen=True)
class Span:
    """One closed interval in the run tree (picklable)."""

    id: int
    parent_id: int | None
    name: str
    category: str
    start_us: float
    dur_us: float
    pid: int
    tid: int
    args: tuple[tuple[str, object], ...] = ()

    @property
    def end_us(self) -> float:
        return self.start_us + self.dur_us


class _OpenSpan:
    """Mutable handle yielded while a span is on the stack."""

    __slots__ = ("id", "name", "category", "start_us", "args")

    def __init__(self, id: int, name: str, category: str,
                 start_us: float, args: dict) -> None:
        self.id = id
        self.name = name
        self.category = category
        self.start_us = start_us
        self.args = args


@dataclass
class SpanRecorder:
    """Collects spans; parentage comes from the per-thread open stack."""

    spans: list[Span] = field(default_factory=list)
    _local: threading.local = field(
        default_factory=threading.local, repr=False)

    def _stack(self) -> list[_OpenSpan]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def span(self, name: str, category: str = "span", **args):
        """Open a child span of whatever is currently on the stack."""
        stack = self._stack()
        open_span = _OpenSpan(
            _alloc_id(), name, category, now_us(), args)
        parent = stack[-1].id if stack else None
        stack.append(open_span)
        try:
            yield open_span
        finally:
            stack.pop()
            end = now_us()
            self.spans.append(Span(
                id=open_span.id,
                parent_id=parent,
                name=open_span.name,
                category=open_span.category,
                start_us=open_span.start_us,
                dur_us=max(end - open_span.start_us, 0.0),
                pid=os.getpid(),
                tid=threading.get_native_id(),
                args=tuple(sorted(open_span.args.items())),
            ))

    def extend(self, spans: list[Span]) -> None:
        """Merge finished spans shipped back from a worker process."""
        self.spans.extend(spans)

    def drain(self) -> list[Span]:
        """Return and clear the finished spans (worker hand-off)."""
        out, self.spans = self.spans, []
        return out


# ----------------------------------------------------------------------
# Validation: the well-formedness contract the tests and CI pin down
# ----------------------------------------------------------------------
def validate_span_tree(spans: list[Span]) -> list[str]:
    """Structural problems in a span list ([] when well-formed).

    Checks, per ``(pid, tid)`` lane: strict nesting (a span either
    contains or is disjoint from every other — no partial overlap);
    globally: ``parent_id`` resolves within the same pid, parents
    contain their children, and iteration/stage/subsystem spans have a
    parent (no orphan tree levels).
    """
    problems: list[str] = []
    by_key = {(s.pid, s.id): s for s in spans}
    if len(by_key) != len(spans):
        problems.append("duplicate (pid, id) span keys")

    lanes: dict[tuple[int, int], list[Span]] = {}
    for s in spans:
        lanes.setdefault((s.pid, s.tid), []).append(s)
    for (pid, tid), lane in sorted(lanes.items()):
        lane.sort(key=lambda s: (s.start_us, -s.dur_us, s.id))
        stack: list[Span] = []
        for s in lane:
            while stack and s.start_us >= stack[-1].end_us:
                stack.pop()
            if stack and s.end_us > stack[-1].end_us:
                problems.append(
                    f"pid {pid} tid {tid}: span {s.name!r} "
                    f"[{s.start_us}, {s.end_us}) partially overlaps "
                    f"{stack[-1].name!r} [{stack[-1].start_us}, "
                    f"{stack[-1].end_us})"
                )
            stack.append(s)

    for s in spans:
        if s.parent_id is None:
            if s.category in _NESTED_CATEGORIES:
                problems.append(
                    f"orphan {s.category} span {s.name!r} (no parent)")
            continue
        parent = by_key.get((s.pid, s.parent_id))
        if parent is None:
            problems.append(
                f"span {s.name!r} references missing parent "
                f"{s.parent_id} in pid {s.pid}"
            )
            continue
        if not (parent.start_us <= s.start_us
                and s.end_us <= parent.end_us):
            problems.append(
                f"span {s.name!r} [{s.start_us}, {s.end_us}) escapes "
                f"parent {parent.name!r} [{parent.start_us}, "
                f"{parent.end_us})"
            )
    return problems


# ----------------------------------------------------------------------
# Chrome trace-event export (chrome://tracing and Perfetto both load it)
# ----------------------------------------------------------------------
def to_chrome_trace(
    spans: list[Span],
    *,
    run_id: str = "",
    parent_pid: int | None = None,
) -> dict:
    """Chrome trace-event JSON for one run's (merged) span list."""
    events: list[dict] = []
    pids = sorted({s.pid for s in spans})
    tids = sorted({(s.pid, s.tid) for s in spans})
    for pid in pids:
        role = "parent" if pid == parent_pid else "worker"
        events.append({
            "ph": "M", "name": "process_name", "pid": pid, "tid": 0,
            "args": {"name": f"amst {role} (pid {pid})"},
        })
    for pid, tid in tids:
        events.append({
            "ph": "M", "name": "thread_name", "pid": pid, "tid": tid,
            "args": {"name": f"tid {tid}"},
        })
    for s in sorted(spans, key=lambda s: (s.pid, s.tid, s.start_us, s.id)):
        args = dict(s.args)
        args["span_id"] = s.id
        if s.parent_id is not None:
            args["parent_id"] = s.parent_id
        events.append({
            "ph": "X", "name": s.name, "cat": s.category or "span",
            "ts": s.start_us, "dur": s.dur_us,
            "pid": s.pid, "tid": s.tid, "args": args,
        })
    return {
        "traceEvents": events,
        "displayTimeUnit": "ms",
        "otherData": {"run_id": run_id},
    }
