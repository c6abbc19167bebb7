"""Lightweight span tracing for engine runs and sweeps.

A *span* is one timed phase of a run -- trace acquisition, a protocol's
replay pass, the audit battery, an observer's ``on_run_end`` work --
recorded with a monotonic start, a duration, the recording process and
thread, and free-form tags.  Spans nest: each one knows its
slash-joined ancestry path (``run/trace-acquire``), so a flat span list
reconstructs the phase tree without object references, survives
``dataclasses.asdict`` / JSON round-trips, and crosses process
boundaries (sweep workers ship their spans home inside
:class:`~repro.obs.telemetry.TaskTelemetry`).

The recorder is :class:`Tracer`: ``with tracer.span("replay",
protocol="BCS") as sp: ...`` times the block and appends one
:class:`Span`; the context target is the live span, so code can stamp
tags discovered mid-phase (``sp.tags["source"] = "disk"``).  Engines
open spans only when a run's observer stack carries a tracer (see
:class:`repro.engine.observers.TimingObserver`), so untraced runs pay
nothing.

Two exports render a span list:

* :func:`write_chrome_trace` -- Chrome trace-event JSON (``ph: "X"``
  complete events), loadable in Perfetto / ``chrome://tracing``; pids
  and tids map to track groups, so a parallel sweep's workers appear
  as separate process tracks.
* :func:`phase_table` -- a text flamegraph: phases aggregated by path,
  indented by depth, with call counts, total and self time.

Timestamps are ``time.monotonic()`` seconds.  On Linux that clock is
system-wide (CLOCK_MONOTONIC), so spans recorded by concurrent worker
processes of one sweep land on one consistent timeline.  A sweep's
exports write every worker span as it was recorded, shifted by
nothing: on platforms where the monotonic clock is per-process,
cross-process alignment is approximate but per-process nesting stays
exact.

This module is dependency-free (stdlib only) and imports nothing from
the rest of the package, so any layer -- engines, cache, sweep
supervisor -- can use it without import cycles.
"""

from __future__ import annotations

import json
import os
import threading
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field
from typing import Any, Iterable, Iterator, Optional, Sequence, Union

__all__ = [
    "Span",
    "Tracer",
    "chrome_trace_events",
    "phase_table",
    "write_chrome_trace",
]


@dataclass(slots=True)
class Span:
    """One completed timed phase."""

    #: Leaf name of the phase (``"trace-acquire"``).
    name: str
    #: Slash-joined ancestry, root first (``"run/trace-acquire"``).
    path: str
    #: ``time.monotonic()`` at entry, seconds.
    start_s: float
    duration_s: float
    pid: int
    #: ``threading.get_ident()`` of the recording thread.
    tid: int
    #: Nesting depth (root spans are 0).
    depth: int
    tags: dict[str, Any] = field(default_factory=dict)

    def as_dict(self) -> dict[str, Any]:
        """Plain-JSON form (telemetry / journal emission)."""
        return asdict(self)


class Tracer:
    """Thread-safe span recorder.

    Each thread keeps its own nesting stack (spans opened on different
    threads never adopt each other as parents); the finished-span list
    is shared and append-locked.  A tracer may record several engine
    runs back to back -- spans carry absolute timestamps, so one trace
    file can hold a whole serial sweep.
    """

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._lock = threading.Lock()
        self._local = threading.local()

    def __len__(self) -> int:
        return len(self.spans)

    def _stack(self) -> list[str]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def span(self, name: str, **tags: Any) -> Iterator[Span]:
        """Time the enclosed block as one span named *name*.

        Yields the live :class:`Span` so the block can add tags; the
        duration is stamped and the span appended on exit (exceptions
        included -- a failed phase still shows up, with its true
        duration).
        """
        stack = self._stack()
        path = "/".join(stack + [name])
        sp = Span(
            name=name,
            path=path,
            start_s=time.monotonic(),
            duration_s=0.0,
            pid=os.getpid(),
            tid=threading.get_ident(),
            depth=len(stack),
            tags=dict(tags),
        )
        stack.append(name)
        try:
            yield sp
        finally:
            sp.duration_s = time.monotonic() - sp.start_s
            stack.pop()
            with self._lock:
                self.spans.append(sp)

    def as_dicts(self) -> list[dict[str, Any]]:
        """Every finished span as a plain dict, recording order."""
        with self._lock:
            return [sp.as_dict() for sp in self.spans]

    def clear(self) -> None:
        """Drop recorded spans (open spans are unaffected)."""
        with self._lock:
            self.spans.clear()


SpanLike = Union[Span, dict]


def _span_dict(span: SpanLike) -> dict[str, Any]:
    return span.as_dict() if isinstance(span, Span) else span


def chrome_trace_events(spans: Iterable[SpanLike]) -> list[dict[str, Any]]:
    """Chrome trace-event dicts (``ph: "X"`` complete events).

    Timestamps convert to microseconds on the span's own monotonic
    timeline; pid/tid pass through so viewers group spans by recording
    process and thread, and nesting falls out of the time containment.
    """
    events = []
    for span in spans:
        d = _span_dict(span)
        events.append(
            {
                "name": d["name"],
                "cat": "repro",
                "ph": "X",
                "ts": round(d["start_s"] * 1e6, 3),
                "dur": round(d["duration_s"] * 1e6, 3),
                "pid": d["pid"],
                "tid": d["tid"],
                "args": dict(d.get("tags") or {}),
            }
        )
    return events


def write_chrome_trace(path, spans: Iterable[SpanLike]) -> None:
    """Write *spans* as a Chrome trace-event JSON object to *path*.

    The file is the ``{"traceEvents": [...]}`` object form, which both
    Perfetto and ``chrome://tracing`` load directly.
    """
    parent = os.path.dirname(os.fspath(path))
    if parent:
        os.makedirs(parent, exist_ok=True)
    payload = {
        "traceEvents": chrome_trace_events(spans),
        "displayTimeUnit": "ms",
    }
    with open(path, "w") as fh:
        json.dump(payload, fh)
        fh.write("\n")


def phase_table(spans: Iterable[SpanLike]) -> str:
    """Text flamegraph: spans aggregated by path, indented by depth.

    One row per distinct path with call count, total time, and *self*
    time (total minus the time spent in child phases), ordered
    depth-first so the indentation reads as the phase tree.  Spans
    from several processes/threads aggregate together -- the table
    answers "where did the time go", not "when".
    """
    totals: dict[str, float] = {}
    counts: dict[str, int] = {}
    order: list[str] = []
    for span in spans:
        d = _span_dict(span)
        path = d["path"]
        if path not in totals:
            totals[path] = 0.0
            counts[path] = 0
            order.append(path)
        totals[path] += d["duration_s"]
        counts[path] += 1
    if not totals:
        return "(no spans recorded)"

    children: dict[str, float] = {}
    for path, total in totals.items():
        parent = path.rsplit("/", 1)[0] if "/" in path else None
        if parent is not None:
            children[parent] = children.get(parent, 0.0) + total

    # Depth-first order: sort paths so each parent precedes its
    # children and siblings keep first-recorded order.
    first_seen = {path: i for i, path in enumerate(order)}
    ordered = sorted(
        totals,
        key=lambda p: [
            first_seen["/".join(p.split("/")[: i + 1])]
            for i in range(p.count("/") + 1)
        ],
    )
    grand = sum(t for p, t in totals.items() if "/" not in p) or 1.0
    width = max(len("  " * p.count("/") + p.rsplit("/", 1)[-1]) for p in ordered)
    width = max(width, len("phase"))
    lines = [
        f"{'phase':<{width}} {'calls':>6} {'total_ms':>10} "
        f"{'self_ms':>10} {'%':>6}"
    ]
    for path in ordered:
        depth = path.count("/")
        label = "  " * depth + path.rsplit("/", 1)[-1]
        total = totals[path]
        self_s = max(0.0, total - children.get(path, 0.0))
        lines.append(
            f"{label:<{width}} {counts[path]:>6} {1e3 * total:>10.3f} "
            f"{1e3 * self_s:>10.3f} {100 * total / grand:>5.1f}%"
        )
    return "\n".join(lines)
