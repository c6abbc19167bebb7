"""Structured run telemetry for the sweep engine.

Every sweep task -- one ``(t_switch, seed)`` pair -- produces one
:class:`TaskTelemetry` record: how long the task took, where its trace
came from (memory cache, disk cache, fresh generation), how big the
trace was, which worker process ran it, and the checkpoint counters of
every protocol evaluated on it.  The records ride back from the shard
workers with the run outcomes and are reassembled in deterministic
(point, seed) order, so two identical sweeps produce identically
ordered telemetry (the wall times differ, the structure does not).

The records are journaled -- nested under ``telemetry`` in the sweep
journal's ``task`` lines (:class:`~repro.experiments.resilience.SweepJournal`),
one JSON line per task -- because JSONL appends cleanly (a crashed
sweep keeps the records written so far), streams through standard
tooling (``jq``, ``pandas``), and needs no schema migration when
fields are added.

:func:`summarize` aggregates a record list into the operational
headline numbers: total busy time, worker utilization (busy time over
worker capacity), and the cache-tier breakdown that tells whether a sweep
was generation-bound or replay-bound.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field
from typing import Any, Collection, Sequence

#: Where a task's trace came from (``TaskTelemetry.trace_source``).
TRACE_SOURCES = ("memory", "disk", "generated", "uncached")


@dataclass(slots=True)
class TaskTelemetry:
    """Operational record of one (t_switch, seed) sweep task."""

    t_switch: float
    seed: int
    #: Wall-clock seconds the whole task took (trace fetch + replays +
    #: audit when enabled).
    wall_time_s: float
    #: "memory" / "disk" (cache tiers), "generated" (cache miss) or
    #: "uncached" (cache bypassed entirely).
    trace_source: str
    #: Convenience flag: True iff the trace came out of a cache tier.
    cache_hit: bool
    #: Size of the replayed trace.
    n_events: int
    n_sends: int
    #: Worker process that ran the task (the parent pid on serial runs).
    pid: int
    #: Per-protocol checkpoint counters:
    #: name -> {n_total, n_basic, n_forced, n_replaced}.
    counters: dict[str, dict[str, int]] = field(default_factory=dict)
    #: Audit violations found on this task (0 when audit is off).
    n_violations: int = 0
    #: Dispatch attempts the supervisor needed for this task (1 = first
    #: try succeeded; >1 means timeouts/crashes forced retries).
    attempts: int = 1
    #: Cache health delta this task observed: disk entries evicted as
    #: corrupt (damaged or an older trace format) while serving this
    #: task's trace (0 when the cache is off or healthy).
    cache_corrupt_evictions: int = 0
    #: Phase spans recorded by a :class:`~repro.obs.tracing.Tracer`
    #: during this task (plain span dicts; empty unless tracing is on).
    spans: list[dict[str, Any]] = field(default_factory=list)

    def as_json_dict(self) -> dict[str, Any]:
        """Plain-JSON form (one telemetry JSONL line)."""
        return asdict(self)

    @classmethod
    def from_json_dict(cls, payload: dict[str, Any]) -> "TaskTelemetry":
        """Inverse of :meth:`as_json_dict`; keys this class does not
        define (fields of older or newer writers) are ignored."""
        names = cls.__dataclass_fields__
        return cls(**{k: v for k, v in payload.items() if k in names})


@dataclass(slots=True)
class TelemetrySummary:
    """Aggregate view of one sweep's telemetry records."""

    n_tasks: int
    #: Sum of the wall times of the tasks this run executed (total busy
    #: time across workers; journal-resumed tasks are not counted).
    total_task_wall_s: float
    #: Wall time of the whole sweep as seen by the caller.
    sweep_wall_s: float
    #: Pool width the sweep ran with (1 = serial).
    workers: int
    #: total busy / (sweep wall x workers); 1.0 = perfectly packed workers.
    utilization: float
    #: trace_source -> task count.
    trace_sources: dict[str, int] = field(default_factory=dict)
    #: pid -> busy seconds of executed tasks (worker load balance).
    busy_by_pid: dict[int, float] = field(default_factory=dict)
    n_violations: int = 0
    #: Re-dispatches across successful tasks (sum of attempts - 1).
    n_retries: int = 0
    #: Tasks quarantined after exhausting their retries (grid holes).
    n_quarantined: int = 0
    #: Tasks served from a resume journal instead of executed.
    n_resumed: int = 0
    #: Cache health across the sweep's tasks (sum of the per-task
    #: corrupt-eviction deltas).
    cache_corrupt_evictions: int = 0

    def __str__(self) -> str:
        src = " ".join(
            f"{name}={self.trace_sources.get(name, 0)}"
            for name in TRACE_SOURCES
            if self.trace_sources.get(name)
        )
        resilience = ""
        if self.n_retries or self.n_quarantined or self.n_resumed:
            resilience = (
                f"; retries: {self.n_retries}, "
                f"quarantined: {self.n_quarantined}, "
                f"resumed: {self.n_resumed}"
            )
        cache_health = ""
        if self.cache_corrupt_evictions:
            cache_health = (
                f"; cache health: "
                f"corrupt_evictions={self.cache_corrupt_evictions}"
            )
        return (
            f"{self.n_tasks} tasks in {self.sweep_wall_s:.2f}s wall "
            f"({self.total_task_wall_s:.2f}s busy, {self.workers} worker(s), "
            f"{100 * self.utilization:.0f}% utilization); "
            f"trace sources: {src or 'none'}; "
            f"violations: {self.n_violations}"
            f"{resilience}"
            f"{cache_health}"
        )


def summarize(
    records: Sequence[TaskTelemetry],
    sweep_wall_s: float = 0.0,
    workers: int = 1,
    n_quarantined: int = 0,
    resumed: Collection[tuple[float, int]] = (),
) -> TelemetrySummary:
    """Aggregate *records* into a :class:`TelemetrySummary`.

    ``workers`` counts execution lanes, so serial runs pass 1 (the
    sweep configs' ``workers=0`` convention is normalised by callers).
    ``n_quarantined`` and the ``(t_switch, seed)`` cells in *resumed*
    come from the sweep supervisor -- quarantined tasks have no
    telemetry record to count from, and a resumed cell's record holds
    the wall time of the run that journaled it, so it counts towards
    the task and source tallies but not towards busy time.
    """
    workers = max(1, workers)
    executed = [r for r in records if (r.t_switch, r.seed) not in resumed]
    total = sum(r.wall_time_s for r in executed)
    sources: dict[str, int] = {}
    for r in records:
        sources[r.trace_source] = sources.get(r.trace_source, 0) + 1
    busy: dict[int, float] = {}
    for r in executed:
        busy[r.pid] = busy.get(r.pid, 0.0) + r.wall_time_s
    utilization = (
        total / (sweep_wall_s * workers) if sweep_wall_s > 0 else 0.0
    )
    return TelemetrySummary(
        n_tasks=len(records),
        total_task_wall_s=total,
        sweep_wall_s=sweep_wall_s,
        workers=workers,
        utilization=utilization,
        trace_sources=sources,
        busy_by_pid=busy,
        n_violations=sum(r.n_violations for r in records),
        n_retries=sum(max(0, r.attempts - 1) for r in records),
        n_quarantined=n_quarantined,
        n_resumed=len(resumed),
        cache_corrupt_evictions=sum(
            r.cache_corrupt_evictions for r in records
        ),
    )


def read_jsonl(path) -> list[dict[str, Any]]:
    """Parse a JSONL file (a sweep journal) back into dicts."""
    out = []
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if line:
                out.append(json.loads(line))
    return out


def telemetry_table(records: Sequence[TaskTelemetry]) -> str:
    """Fixed-width per-task table for terminal reports."""
    header = (
        f"{'t_switch':>9} {'seed':>5} {'wall_s':>8} {'source':>9} "
        f"{'events':>8} {'sends':>7} {'viol':>5}  counters"
    )
    lines = [header]
    for r in records:
        counters = " ".join(
            f"{name}={c.get('n_total', 0)}" for name, c in r.counters.items()
        )
        if r.cache_corrupt_evictions:
            # Cache-health incidents are rare; flag them in-row so an
            # operator reading the table sees them without jq.
            counters += (
                f"  [cache: corrupt_evictions={r.cache_corrupt_evictions}]"
            )
        lines.append(
            f"{r.t_switch:>9g} {r.seed:>5} {r.wall_time_s:>8.3f} "
            f"{r.trace_source:>9} {r.n_events:>8} {r.n_sends:>7} "
            f"{r.n_violations:>5}  {counters}"
        )
    return "\n".join(lines)


def tail_summary(records: Sequence[dict]) -> str:
    """Live summary of a sweep journal.

    Backs ``repro tail``: *records* are the parsed lines of a journal
    (:class:`~repro.experiments.resilience.SweepJournal`) -- ``task``
    lines with their telemetry nested under ``telemetry``, progress
    ``heartbeat`` lines and the closing ``summary`` line -- and the
    result is a short multi-line status report.
    """
    tasks = [r["telemetry"] for r in records if r.get("kind") == "task"]
    heartbeats = [r for r in records if r.get("kind") == "heartbeat"]
    summaries = [r["telemetry"] for r in records if r.get("kind") == "summary"]

    lines = [
        f"{len(records)} records: {len(tasks)} task(s), "
        f"{len(heartbeats)} heartbeat(s)"
    ]
    if tasks:
        wall = [float(r.get("wall_time_s", 0.0)) for r in tasks]
        hits = sum(1 for r in tasks if r.get("cache_hit"))
        retries = sum(max(0, int(r.get("attempts", 1)) - 1) for r in tasks)
        lines.append(
            f"tasks: mean wall {sum(wall) / len(wall):.3f}s, "
            f"cache hits {hits}/{len(tasks)}, retries {retries}, "
            f"violations {sum(int(r.get('n_violations', 0)) for r in tasks)}"
        )
        totals: dict[str, list[int]] = {}
        for r in tasks:
            for name, c in (r.get("counters") or {}).items():
                totals.setdefault(name, []).append(int(c.get("n_total", 0)))
        if totals:
            lines.append(
                "N_tot means: "
                + " ".join(
                    f"{name}={sum(v) / len(v):.1f}"
                    for name, v in sorted(totals.items())
                )
            )
    if heartbeats:
        hb = heartbeats[-1]
        eta = hb.get("eta_s")
        lines.append(
            f"last heartbeat: {hb.get('done', '?')}/{hb.get('total', '?')} "
            f"tasks, rate {hb.get('rate_per_s', 0.0):.2f}/s"
            + (f", eta {eta:.0f}s" if isinstance(eta, (int, float)) else "")
        )
    if summaries:
        s = summaries[-1]
        lines.append(
            f"summary: {s.get('n_tasks', '?')} tasks in "
            f"{s.get('sweep_wall_s', 0.0):.2f}s wall, "
            f"{s.get('n_retries', 0)} retries, "
            f"{s.get('n_quarantined', 0)} quarantined"
        )
    return "\n".join(lines)
