"""Sweep execution.

One *task* = one ``(t_switch, seed)`` pair, executed through the
unified engine layer (:mod:`repro.engine`): a counters-only
:class:`~repro.engine.spec.RunSpec` on the fused replay engine, which
fetches that pair's trace (from the content-addressed cache, else
generates it) and drives every protocol over it in a single pass (the
paper's common-random-numbers comparison -- all protocols see
identical schedules).  A *point* aggregates the tasks of one
``t_switch`` value; a *sweep* runs all points of a figure.

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
from typing import Optional, Sequence

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
from repro.workload.config import WorkloadConfig


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
    base: WorkloadConfig,
    t_switch: float,
    seed: int,
    protocols: Sequence[str],
    use_cache: bool,
    cache_dir: Optional[str],
    audit: bool = False,
    trace_spans: bool = False,
    engine: str = "fused",
    run_id: Optional[str] = None,
) -> tuple[float, int, list[RunOutcome], TaskTelemetry, list]:
    """Worker body: one (point, seed) pair, all protocols, one replay
    pass over one trace -- routed through the execution engine
    (:mod:`repro.engine`) with the task's telemetry and -- in audit
    mode -- the invariant audit attached as observers.  ``engine``
    picks the replay strategy (fused / vectorized / auto); results are
    bit-identical either way.

    ``trace_spans`` attaches a :class:`~repro.engine.TimingObserver`
    and ships its phase spans home on the telemetry record."""
    cfg = base.with_(t_switch=t_switch, seed=seed)
    telemetry_obs = TelemetryObserver(t_switch=t_switch, seed=seed)
    # The audit observer goes first so the telemetry record sees the
    # final violation count on run end.
    observers = (telemetry_obs,)
    if audit:
        observers = (AuditObserver(t_switch=t_switch),) + observers
    timing = None
    if trace_spans:
        # First in the stack: the engine discovers the tracer before
        # any phase opens, and other observers' on_run_end work is
        # itself timed under observer:* spans.
        timing = TimingObserver()
        observers = (timing,) + observers
    result = execute(
        RunSpec(
            protocols=tuple(protocols),
            workload=cfg,
            engine=engine,
            counters_only=True,  # counters are all a sweep needs
            audit=audit,
            seed=seed,
            use_cache=use_cache,
            cache_dir=cache_dir,
            observers=observers,
            run_id=run_id,
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


def _tasks(config: SweepConfig) -> list[tuple]:
    """The sweep's (point, seed) task grid, point-major."""
    # A trace-file destination implies span recording.
    trace_spans = bool(config.trace_spans or config.trace_path)
    return [
        (
            config.base,
            t,
            seed,
            tuple(config.protocols),
            config.use_cache,
            config.cache_dir,
            config.audit,
            trace_spans,
            config.engine,
            config.run_id,
        )
        for t in config.t_switch_values
        for seed in config.seeds
    ]


def run_point(config: SweepConfig, t_switch: float) -> PointResult:
    """Evaluate a single ``t_switch`` point of *config* (serially)."""
    config.validate()
    point = PointResult(t_switch=t_switch)
    for seed in config.seeds:
        _, _, runs, telemetry, _ = _evaluate_task(
            config.base,
            t_switch,
            seed,
            tuple(config.protocols),
            config.use_cache,
            config.cache_dir,
            config.audit,
            engine=config.engine,
        )
        point.runs.extend(runs)
        point.telemetry.append(telemetry)
    return point


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

    When any fleet-observability knob is set (``prom_path`` /
    ``prom_gateway`` / ``otlp_path``) a
    :class:`repro.obs.fleet.FleetPlane` rides the sweep: shard workers
    ship metric deltas back, the merged registry refreshes the
    Prometheus targets while the sweep runs, and one OTLP-JSON
    artifact (metrics + skew-aligned spans) lands at the end.  The
    plane observes; results are bit-identical with it on or off."""
    from repro.experiments.resilience import execute, sweep_config_hash

    config.validate()
    plane = None
    if config.fleet_enabled:
        from repro.obs.fleet import FleetPlane

        if not config.run_id:
            config.run_id = "sweep-" + sweep_config_hash(config)[:12]
        plane = FleetPlane(
            config.run_id,
            prom_path=config.prom_path,
            prom_gateway=config.prom_gateway,
            otlp_path=config.otlp_path,
            refresh_s=config.obs_refresh_s,
        )
        plane.start()
    started = time.perf_counter()
    tasks = _tasks(config)
    try:
        report = execute(config, tasks, fleet=plane.aggregator if plane else None)
    except BaseException:
        if plane is not None:
            plane.stop_refresh()
        raise
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
        # With the fleet plane on they are additionally clock-skew
        # aligned onto the coordinator's monotonic timeline.
        write_chrome_trace(
            config.trace_path,
            plane.aggregator.align(spans) if plane is not None else spans,
        )
    if plane is not None:
        # finalize aligns internally -- hand it the raw spans.
        plane.finalize(spans=spans)
    return result
