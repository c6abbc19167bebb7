"""Uniform run observers: telemetry, audit and metrics as attachments.

Before the engine layer existed, per-run telemetry and the invariant
audit were wired by hand at each call site (the sweep task body built
its own :class:`~repro.obs.telemetry.TaskTelemetry`, the audit grid
re-plumbed :func:`~repro.obs.audit.audit_trace`).  Observers make both
a property of *any* engine run instead: attach them to a
:class:`~repro.engine.spec.RunSpec` and every engine honours them
through the same four callbacks.

Lifecycle (driven by :func:`repro.engine.engines.execute`):

1. :meth:`RunObserver.on_run_start` -- the plan is final, nothing ran.
2. :meth:`RunObserver.on_trace` -- the run's trace is known (replay
   engines: fetched/generated before the pass; online engines: the
   emitted trace, after the simulation).
3. :meth:`RunObserver.on_outcome` -- once per protocol, in spec order.
4. :meth:`RunObserver.on_run_end` -- the assembled
   :class:`~repro.engine.engines.RunResult`; observers may append
   violations or stamp derived records here.

Observers must not mutate protocol instances or the trace; they are
read-only taps.  All built-ins tolerate any engine kind.

Failure isolation: an exception raised in :meth:`~RunObserver.on_run_start`
propagates (nothing has run; failing fast is safe -- the reuse guards
below rely on it), but an observer that raises from ``on_trace`` /
``on_outcome`` / ``on_run_end`` cannot corrupt the run: the engine
records the failure on :attr:`RunResult.observer_errors
<repro.engine.engines.RunResult.observer_errors>` and carries on.

Reuse across runs: each built-in declares its policy explicitly.
:class:`MetricsObserver` (and :class:`TimingObserver`'s tracer)
*accumulate-safe*: metrics reset per run on ``on_run_start``, spans are
absolutely timestamped so several runs coexist in one trace.
:class:`TelemetryObserver` is *single-run*: its record labels one
(t_switch, seed) grid cell, so attaching the same instance to a second
run raises :class:`ObserverReuseError` instead of silently relabelling
or mixing counters.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Optional

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.core.trace import Trace
    from repro.engine.engines import ProtocolOutcome, RunResult
    from repro.engine.spec import ExecutionPlan


class ObserverReuseError(RuntimeError):
    """A single-run observer instance was attached to a second run."""


@dataclass(slots=True)
class ObserverError:
    """One observer callback failure the engine absorbed mid-run."""

    #: Class name of the raising observer.
    observer: str
    #: Which callback raised ("on_trace" / "on_outcome" / "on_run_end").
    callback: str
    #: ``repr`` of the exception.
    error: str

    def __str__(self) -> str:
        return f"{self.observer}.{self.callback} raised {self.error}"


class RunObserver:
    """Base observer: all callbacks default to no-ops."""

    def on_run_start(self, plan: "ExecutionPlan") -> None:
        """The plan was validated; execution is about to begin."""

    def on_trace(self, plan: "ExecutionPlan", trace: "Trace", source: str) -> None:
        """The run's trace is known (*source* is a
        :data:`repro.obs.telemetry.TRACE_SOURCES` tier, ``"provided"``
        for pre-built traces, or ``"online"`` for emitted ones)."""

    def on_outcome(self, plan: "ExecutionPlan", outcome: "ProtocolOutcome") -> None:
        """One protocol finished (called in spec order)."""

    def on_run_end(self, plan: "ExecutionPlan", result: "RunResult") -> None:
        """The whole run finished; *result* is fully assembled."""


class MetricsObserver(RunObserver):
    """Collects every protocol's run metrics as one name-keyed dict.

    The per-protocol counter dicts match the shape the sweep's
    telemetry records carry (``n_total`` / ``n_basic`` / ``n_forced`` /
    ``n_replaced``), so consumers can diff them across runs directly.

    Reuse: **per-run reset**.  ``on_run_start`` clears both dicts, so
    an instance attached to several runs always reports the *latest*
    run -- never a silent union of two runs' protocol sets.
    """

    def __init__(self) -> None:
        self.metrics: dict[str, Any] = {}
        self.counters: dict[str, dict[str, int]] = {}

    def on_run_start(self, plan) -> None:
        self.metrics.clear()
        self.counters.clear()

    def on_outcome(self, plan, outcome) -> None:
        if outcome.metrics is not None:
            self.metrics[outcome.name] = outcome.metrics
            s = outcome.metrics.stats
            self.counters[outcome.name] = {
                "n_total": s.n_total,
                "n_basic": s.n_basic,
                "n_forced": s.n_forced,
                "n_replaced": s.n_replaced,
            }


class TelemetryObserver(MetricsObserver):
    """Builds the task's :class:`~repro.obs.telemetry.TaskTelemetry`.

    The sweep runner attaches one per (point, seed) task; ``record`` is
    available after the run.  ``t_switch``/``seed`` label the record's
    grid cell (engine runs outside a sweep may leave them at their
    defaults).

    Reuse: **single-run**.  The record labels one grid cell, so a
    second ``on_run_start`` on the same instance raises
    :class:`ObserverReuseError` (attach a fresh observer per run) --
    the alternative is two runs' counters silently landing under one
    (t_switch, seed) label.
    """

    def __init__(self, t_switch: float = 0.0, seed: Optional[int] = None):
        super().__init__()
        self.t_switch = t_switch
        self.seed = seed
        self.record = None
        self._started: Optional[float] = None
        self._trace = None
        self._trace_source = "provided"
        self._cache_before: Optional[int] = None
        self._cache = None

    def on_run_start(self, plan) -> None:
        if self._started is not None:
            raise ObserverReuseError(
                "this TelemetryObserver already observed a run; its record "
                "labels one (t_switch, seed) cell -- attach a fresh "
                "instance per run"
            )
        super().on_run_start(plan)
        if plan.spec.use_cache:
            # Snapshot the shared cache's health counter so the record
            # carries the corrupt evictions *this task* caused, not the
            # process's lifetime total.
            from repro.workload.cache import shared_cache

            self._cache = shared_cache(plan.spec.cache_dir)
            self._cache_before = self._cache.corrupt_evictions
        self._started = time.perf_counter()
        if self.seed is None:
            self.seed = plan.spec.seed

    def on_trace(self, plan, trace, source) -> None:
        self._trace = trace
        self._trace_source = source

    def on_run_end(self, plan, result) -> None:
        from repro.obs.telemetry import TaskTelemetry

        wall = time.perf_counter() - (self._started or time.perf_counter())
        trace = self._trace
        corrupt = 0
        if self._cache is not None and self._cache_before is not None:
            corrupt = self._cache.corrupt_evictions - self._cache_before
        self.record = TaskTelemetry(
            t_switch=self.t_switch,
            seed=self.seed if self.seed is not None else -1,
            wall_time_s=wall,
            trace_source=self._trace_source,
            cache_hit=self._trace_source in ("memory", "disk"),
            n_events=len(trace) if trace is not None else 0,
            n_sends=trace.n_sends if trace is not None else 0,
            pid=os.getpid(),
            counters=dict(self.counters),
            n_violations=len(result.violations),
            cache_corrupt_evictions=max(0, corrupt),
        )


class AuditObserver(RunObserver):
    """Arms the invariant audit of :mod:`repro.obs.audit` on the run.

    At run end :func:`~repro.obs.audit.audit_run` checks the instances
    the run produced: their counter vs log consistency and index
    monotonicity, their counters against one reference replay
    (``engine-divergence``), and the recovery-line orphan oracle.
    Every breach lands on ``violations`` *and* on the
    :class:`~repro.engine.engines.RunResult`.  ``t_switch`` stamps the
    grid coordinate into each violation for sweep reports.

    Online runs only get the post-run structural checks of their
    protocol instances (the replay oracle needs a replayable schedule).

    Reuse: **accumulating**.  ``violations`` collects every audited
    run's breaches; each :class:`RunResult` gets only its own.
    """

    def __init__(self, t_switch: Optional[float] = None):
        self.t_switch = t_switch
        self.violations: list = []

    def on_run_end(self, plan, result) -> None:
        from repro.obs.audit import audit_run

        found = audit_run(plan, result, self.t_switch)
        self.violations.extend(found)
        result.violations.extend(found)


class TimingObserver(RunObserver):
    """Arms span tracing (:mod:`repro.obs.tracing`) on the run.

    The observer carries a :class:`~repro.obs.tracing.Tracer`; engines
    look for it on the observer stack (the ``tracer`` attribute) and,
    when present, record every phase of the run as nested spans: the
    whole run, trace acquisition (tagged with its cache tier), each
    protocol's replay / fused pass / online simulation, and each
    observer's ``on_run_end`` work (which is where the audit battery
    and telemetry assembly live).  Without a TimingObserver attached,
    the engines' span hooks are no-ops.

    Reuse: **accumulating**.  Spans carry absolute monotonic
    timestamps, so one instance can trace a whole serial sweep into a
    single timeline; ``clear()`` the tracer (or attach a fresh
    observer) to start over.
    """

    def __init__(self, tracer=None):
        if tracer is None:
            from repro.obs.tracing import Tracer

            tracer = Tracer()
        #: The tracer engines record into (duck-typed discovery).
        self.tracer = tracer

    @property
    def spans(self):
        """Spans recorded so far (:class:`~repro.obs.tracing.Span`)."""
        return self.tracer.spans

    def as_dicts(self) -> list[dict[str, Any]]:
        """Recorded spans as plain dicts (telemetry / JSON emission)."""
        return self.tracer.as_dicts()

    def phase_table(self) -> str:
        """Text flamegraph of the recorded spans."""
        from repro.obs.tracing import phase_table

        return phase_table(self.tracer.spans)

    def write_chrome_trace(self, path) -> None:
        """Export the recorded spans as Chrome trace-event JSON."""
        from repro.obs.tracing import write_chrome_trace

        write_chrome_trace(path, self.tracer.spans)
