"""Sweep execution.

One *task* = one ``(t_switch, seed)`` pair, executed through the
unified engine layer (:mod:`repro.engine`): a counters-only
:class:`~repro.engine.spec.RunSpec` on the sweep's replay engine,
which fetches that pair's trace (from the content-addressed cache,
else generates it) and drives every protocol over it in a single pass
(the paper's common-random-numbers comparison -- all protocols see
identical schedules).  A *point* aggregates the tasks of one
``t_switch`` value; a *sweep* runs all points of a figure.  Only a
grid that fits in the trace cache's memory tier keeps its traces
there; a larger one reads each trace once per pass and lets it go
(:func:`_keeps_traces`).

Parallelism is (point, seed)-granular: a figure with 7 points and 3
seeds exposes 21 independent tasks, so parallel sweeps scale past the
number of points and the slowest point no longer serializes its seeds.
``SweepConfig.workers = 0`` runs the grid serially in this process;
``workers = N`` hands it to the sharded sweep service
(:mod:`repro.experiments.sharded`), which spawns N local shard workers
and leases them cells over a wire protocol with heartbeat liveness and
exactly-once journaling.  Results are reassembled deterministically --
points in config order, runs seed-major then protocol -- so the output
is bit-identical to the serial path.

Protocol instances run in counters-only mode
(``log_checkpoints = False``): figure curves need nothing but counts,
and skipping the checkpoint log makes the replay several times faster
(see docs/simulation-model.md, "Performance architecture").

Every task also emits a :class:`repro.obs.telemetry.TaskTelemetry`
record (wall time, trace cache tier, event counts, worker pid,
per-protocol checkpoint counters), and ``SweepConfig.audit`` arms the
invariant audit of :mod:`repro.obs.audit` on each task -- see
docs/simulation-model.md, "Auditing & telemetry".

Execution is supervised by :mod:`repro.experiments.resilience`: tasks
run under per-task deadlines with retry/backoff, lost or hung shard
workers are replaced and their cells re-dispatched, completed tasks can
be journaled for crash-safe resumption, and SIGINT/SIGTERM drain the
sweep into a partial result instead of losing it -- see
docs/resilience.md.
"""

from __future__ import annotations

import csv
import time
from dataclasses import dataclass, field
from typing import Sequence

from repro.analysis.stats import SampleSummary, summarize
from repro.engine import (
    AuditObserver,
    RunSpec,
    TelemetryObserver,
    TimingObserver,
    execute,
)
from repro.experiments.config import SweepConfig
from repro.obs.telemetry import TaskTelemetry, TelemetrySummary
from repro.obs.telemetry import summarize as summarize_telemetry
from repro.workload.cache import DEFAULT_MAX_ENTRIES


@dataclass(slots=True)
class RunOutcome:
    """Counts of one (seed, protocol) run at one point."""

    seed: int
    protocol: str
    n_total: int
    n_basic: int
    n_forced: int
    n_replaced: int
    n_sends: int
    piggyback_ints: int

    def as_row(self, t_switch: float) -> dict:
        """This run as one CSV row dict (see ``CSV_FIELDS``)."""
        return {
            "t_switch": t_switch,
            "seed": self.seed,
            "protocol": self.protocol,
            "n_total": self.n_total,
            "n_basic": self.n_basic,
            "n_forced": self.n_forced,
            "n_replaced": self.n_replaced,
            "n_sends": self.n_sends,
            "piggyback_ints": self.piggyback_ints,
        }


#: Column order of :meth:`SweepResult.to_csv` rows.
CSV_FIELDS = (
    "t_switch",
    "seed",
    "protocol",
    "n_total",
    "n_basic",
    "n_forced",
    "n_replaced",
    "n_sends",
    "piggyback_ints",
)


@dataclass(slots=True)
class PointResult:
    """All runs at one ``t_switch`` value."""

    t_switch: float
    runs: list[RunOutcome] = field(default_factory=list)
    #: One telemetry record per seed, in ``seeds`` order.
    telemetry: list[TaskTelemetry] = field(default_factory=list)

    def totals(self, protocol: str) -> list[int]:
        """N_tot of every run of *protocol* at this point."""
        return [r.n_total for r in self.runs if r.protocol == protocol]

    def summary(self, protocol: str) -> SampleSummary:
        """Multi-seed summary statistics for *protocol*."""
        return summarize([float(v) for v in self.totals(protocol)])

    def mean_total(self, protocol: str) -> float:
        """Mean N_tot over the seeds for *protocol*."""
        return self.summary(protocol).mean


@dataclass(slots=True)
class SweepResult:
    """A full figure sweep."""

    config: SweepConfig
    points: list[PointResult] = field(default_factory=list)
    #: Audit violations across the grid, (point, seed)-ordered;
    #: populated only when ``config.audit`` is set.
    violations: list = field(default_factory=list)
    #: Wall time of the whole sweep as seen by :func:`run_sweep`.
    sweep_wall_s: float = 0.0
    #: Quarantined tasks (terminal :class:`TaskError` records); each is
    #: an explicit hole in the grid rather than an aborted sweep.
    errors: list = field(default_factory=list)
    #: ``(t_switch, seed)`` cells served from a resume journal instead
    #: of re-executed.
    resumed_cells: frozenset = frozenset()
    #: Re-dispatches (retries) that happened across the sweep.
    task_retries: int = 0
    #: True when the sweep was drained early by SIGINT/SIGTERM; the
    #: points cover only the tasks that finished (plus resumed ones).
    interrupted: bool = False

    @property
    def telemetry(self) -> list[TaskTelemetry]:
        """All task telemetry records, (point, seed)-ordered."""
        return [rec for point in self.points for rec in point.telemetry]

    @property
    def resumed_tasks(self) -> int:
        """Tasks served from a resume journal instead of re-executed."""
        return len(self.resumed_cells)

    @property
    def n_holes(self) -> int:
        """Grid cells with no outcome (quarantined or not reached)."""
        expected = len(self.config.t_switch_values) * len(self.config.seeds)
        return expected - sum(len(p.telemetry) for p in self.points)

    @property
    def complete(self) -> bool:
        """True iff every (point, seed) cell produced a result."""
        return self.n_holes == 0 and not self.interrupted

    def telemetry_summary(self) -> TelemetrySummary:
        """Aggregate telemetry (busy time, utilization, cache tiers).

        Busy time and utilization count only the cells this run
        executed: a resumed cell's record carries the wall time of the
        run that journaled it."""
        return summarize_telemetry(
            self.telemetry,
            sweep_wall_s=self.sweep_wall_s,
            workers=max(1, self.config.workers),
            n_quarantined=len(self.errors),
            resumed=self.resumed_cells,
        )

    def curve(self, protocol: str) -> list[tuple[float, float]]:
        """(t_switch, mean N_tot) series for one protocol."""
        return [(p.t_switch, p.mean_total(protocol)) for p in self.points]

    def protocols(self) -> Sequence[str]:
        """Protocol names this sweep evaluated."""
        return self.config.protocols

    def to_csv(self, path) -> None:
        """Write every run's raw counts as CSV (one row per
        (t_switch, seed, protocol)) for downstream plotting."""
        with open(path, "w", newline="") as fh:
            writer = csv.DictWriter(fh, fieldnames=list(CSV_FIELDS))
            writer.writeheader()
            for point in self.points:
                for run in point.runs:
                    writer.writerow(run.as_row(point.t_switch))


def _evaluate_task(
    config: SweepConfig, t_switch: float, seed: int
) -> tuple[float, int, list[RunOutcome], TaskTelemetry, list]:
    """Worker body: one (point, seed) cell of the validated *config*,
    all protocols, one replay pass over one trace -- routed through the
    execution engine (:mod:`repro.engine`) with the task's telemetry
    and -- in audit mode -- the invariant audit attached as observers.
    ``config.engine`` picks the replay strategy; results are
    bit-identical either way.

    A ``trace_spans`` or ``trace_path`` config attaches a
    :class:`~repro.engine.TimingObserver` and ships its phase spans
    home on the telemetry record.  A grid larger than the trace
    cache's memory tier leaves the trace out of it
    (:func:`_keeps_traces`)."""
    telemetry_obs = TelemetryObserver(t_switch=t_switch, seed=seed)
    # The audit observer goes first so the telemetry record sees the
    # final violation count on run end.
    observers = (telemetry_obs,)
    if config.audit:
        observers = (AuditObserver(t_switch=t_switch),) + observers
    timing = None
    # A trace-file destination implies span recording.
    if config.trace_spans or config.trace_path:
        # First in the stack: the engine discovers the tracer before
        # any phase opens, and other observers' on_run_end work is
        # itself timed under observer:* spans.
        timing = TimingObserver()
        observers = (timing,) + observers
    result = execute(
        RunSpec(
            protocols=config.protocols,
            workload=config.base.with_(t_switch=t_switch, seed=seed),
            engine=config.engine,
            counters_only=True,  # counters are all a sweep needs
            audit=config.audit,
            seed=seed,
            use_cache=config.use_cache,
            cache_dir=config.cache_dir,
            keep_trace=_keeps_traces(config),
            observers=observers,
        )
    )
    if timing is not None:
        telemetry_obs.record.spans = timing.tracer.as_dicts()
    runs = [
        RunOutcome(
            seed=seed,
            protocol=o.name,
            n_total=o.metrics.stats.n_total,
            n_basic=o.metrics.stats.n_basic,
            n_forced=o.metrics.stats.n_forced,
            n_replaced=o.metrics.stats.n_replaced,
            n_sends=o.metrics.n_sends,
            piggyback_ints=o.metrics.piggyback_ints_total,
        )
        for o in result.outcomes
    ]
    return t_switch, seed, runs, telemetry_obs.record, list(result.violations)


def _assemble(
    config: SweepConfig,
    outcomes: Sequence[tuple[float, int, list[RunOutcome], TaskTelemetry, list]],
) -> SweepResult:
    """Deterministic reassembly: points follow ``t_switch_values``
    order and each point's runs are seed-major in ``seeds`` order,
    regardless of task completion order.  Telemetry and audit
    violations follow the same (point, seed) order.  ``None`` outcomes
    (quarantined tasks, interrupted sweeps) are holes: the cell is
    simply absent from the point."""
    by_key = {
        (t, seed): (runs, telemetry, violations)
        for t, seed, runs, telemetry, violations in (
            o for o in outcomes if o is not None
        )
    }
    result = SweepResult(config=config)
    for t in config.t_switch_values:
        point = PointResult(t_switch=t)
        for seed in config.seeds:
            cell = by_key.get((t, seed))
            if cell is None:
                continue  # explicit hole
            runs, telemetry, violations = cell
            point.runs.extend(runs)
            point.telemetry.append(telemetry)
            result.violations.extend(violations)
        result.points.append(point)
    return result


def _keeps_traces(config: SweepConfig) -> bool:
    """Whether the sweep's cells keep their traces in the trace
    cache's memory tier: only when the whole grid fits in it.

    A sweep reads each cell once per pass, and an LRU never hits during
    a cyclic scan longer than its capacity: a larger grid would only
    hold the last traces (and their lowerings) alive.  Such a sweep
    still reads the memory tier and uses the disk tier."""
    n_cells = len(config.t_switch_values) * len(config.seeds)
    return n_cells <= DEFAULT_MAX_ENTRIES


def _export(config: SweepConfig, result: SweepResult, spans: list) -> None:
    """Write ``--prom`` / ``--otlp`` from the sweep's task records.

    The metrics are :func:`repro.obs.export.sweep_registry` over this
    process's registry and the records of the cells this run executed
    (journal-resumed cells were counted by the run that executed
    them).  An unset ``run_id`` is derived from the config hash.
    Exporters are side channels: a failed write warns, it never takes
    the finished sweep down with it."""
    import warnings

    from repro.experiments.resilience import sweep_config_hash
    from repro.obs import export
    from repro.obs.metrics import registry

    run_id = config.run_id or "sweep-" + sweep_config_hash(config)[:12]
    executed = [
        r for r in result.telemetry
        if (r.t_switch, r.seed) not in result.resumed_cells
    ]
    merged = export.sweep_registry(registry(), executed, run_id)
    try:
        if config.prom_path:
            export.write_prometheus(config.prom_path, merged)
        if config.otlp_path:
            export.write_otlp(
                config.otlp_path,
                registry=merged,
                spans=[
                    {**s, "tags": {**(s.get("tags") or {}), "run_id": run_id}}
                    for s in spans
                ],
                resource={"service.name": "repro", "run_id": run_id},
            )
    except OSError as exc:
        warnings.warn(f"sweep export failed: {exc!r}", RuntimeWarning)


def run_sweep(config: SweepConfig) -> SweepResult:
    """Run the whole sweep: serially when ``workers == 0``, else on
    ``workers`` local shard workers fanning out over (point, seed)
    tasks.

    Execution goes through the resilience supervisor
    (:func:`repro.experiments.resilience.execute`): per-task deadlines
    and retries, worker respawn and the hung-cell watchdog,
    journaling/resumption and graceful signal draining all apply
    according to the config's knobs.  A task
    that exhausts its retries becomes a hole in the result (see
    :attr:`SweepResult.errors`), never an aborted sweep.

    Telemetry is collected for every task and journaled with it when
    ``config.journal_path`` is set.  In audit mode the result
    additionally carries every invariant violation found.

    ``prom_path`` / ``otlp_path`` are written once, after the last
    cell, by :func:`_export`.  They observe; results are bit-identical
    with them on or off."""
    from repro.experiments.resilience import execute

    config.validate()
    started = time.perf_counter()
    report = execute(config)
    result = _assemble(config, report.outcomes)
    result.errors = report.errors
    result.resumed_cells = frozenset(report.resumed_cells)
    result.task_retries = report.retries
    result.interrupted = report.interrupted
    result.sweep_wall_s = time.perf_counter() - started
    spans = [s for rec in result.telemetry for s in rec.spans]
    if config.trace_path:
        from repro.obs.tracing import write_chrome_trace

        # Worker spans rode home on the telemetry records; merged they
        # form the sweep's full timeline (pids keep workers apart).
        write_chrome_trace(config.trace_path, spans)
    if config.prom_path or config.otlp_path:
        _export(config, result, spans)
    return result
