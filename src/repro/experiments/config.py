"""Sweep configuration."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence

from repro.workload.config import WorkloadConfig
from repro.workload.scenarios import T_SWITCH_SWEEP

#: Protocol names evaluated by default (the paper's three).
DEFAULT_PROTOCOLS = ("TP", "BCS", "QBC")


@dataclass(slots=True)
class SweepConfig:
    """One ``N_tot`` vs ``T_switch`` sweep (= one paper figure).

    Parameters
    ----------
    base:
        Workload parameters shared by every point (``t_switch`` and
        ``seed`` are overridden per point/run).
    t_switch_values:
        The x-axis (paper: log-spaced 100..10000).
    protocols:
        Names resolved through the engine registry
        (:func:`repro.engine.resolve_protocols`); sweeps run on a
        replay engine, so every name must satisfy the chosen
        ``engine``'s capability gate.
    engine:
        Replay engine per (point, seed) task: ``"auto"`` (default) or
        ``"fused"`` (one shared pass -- the batch kernels when every
        protocol ships them, as for the paper's TP/BCS/QBC, the
        per-event loop otherwise; the two plan alike on a sweep's
        replayable set), or ``"vectorized"`` (batch kernels; every
        protocol must declare ``vectorizable``).  Results are
        bit-identical across the three; this only trades execution
        strategy.
    workload:
        Workload-model spec ``NAME[:key=value,...]`` (e.g.
        ``"zipf:alpha=1.1"``) resolved through the workload registry
        (:mod:`repro.workload.registry`).  :meth:`validate` folds the
        parsed name and coerced parameters into ``base`` --
        ``base.workload`` / ``base.workload_params`` -- so the model
        rides every execution path (serial, sharded) identically.
        ``None`` (default) leaves ``base`` alone (the paper model
        unless ``base`` already names another).  Unknown names raise
        :class:`~repro.workload.registry.UnknownWorkloadError` with
        did-you-mean suggestions, like unknown protocols.
    seeds:
        One run per seed per point; results are averaged and the
        within-4% agreement is checked.
    workers:
        Number of local shard worker processes for the sweep.  ``0``
        (default) runs the grid serially in this process; ``N >= 1``
        routes it through the sharded dispatch service
        (:mod:`repro.experiments.sharded`), which spawns N workers and
        leases them (point, seed) cells over a serialized connection
        boundary, with heartbeat liveness, lease revocation,
        reassignment on worker loss and a hung-cell watchdog.  Results
        are value-identical to the serial path.
    use_cache:
        Serve traces from the content-addressed cache
        (:mod:`repro.workload.cache`) instead of regenerating them.
    cache_dir:
        Directory of the persistent on-disk trace store; None = memory
        tier only (or the ``REPRO_TRACE_CACHE_DIR`` environment
        variable when set).
    audit:
        Run the invariant audit (:mod:`repro.obs.audit`) on every
        (point, seed) task: the run's own engine checked against a
        reference replay (``engine-divergence``), counter/log
        consistency, index monotonicity and the recovery-line orphan
        oracle.  Violations are collected into
        :attr:`~repro.experiments.runner.SweepResult.violations`.
        Costs roughly one extra annotated reference replay per
        protocol per task; off by default.
    task_timeout_s:
        Per-(point, seed) task deadline in seconds; a task that
        exceeds it is aborted (worker-side alarm, plus the
        coordinator's hung-cell watchdog on parallel runs) and retried.
        None disables the deadline.
    max_task_retries:
        How many times a failed task (timeout, worker crash, corrupt
        cache, protocol error) is re-dispatched before being
        quarantined.  A quarantined task becomes an explicit hole in
        the :class:`~repro.experiments.runner.SweepResult` (recorded in
        ``SweepResult.errors``) instead of aborting the whole grid.
    retry_backoff_s:
        Base delay before a retry; attempt ``k`` waits
        ``retry_backoff_s * 2**(k-1)`` seconds, scaled by up to
        :data:`~repro.experiments.resilience.RETRY_JITTER` of random
        jitter so retries of many tasks don't stampede.
    journal_path:
        Append-only JSONL ledger of completed tasks (fsynced per
        entry).  A sweep that crashes or is interrupted keeps every
        finished (point, seed) cell on disk for resumption.
    resume_from:
        Path of a journal written by an earlier run of *the same*
        sweep; completed cells found there (verified against this
        config's hash) are loaded instead of re-executed, so only
        missing tasks run.  Usually the same path as ``journal_path``.
    progress:
        Live status line (done/total, rate, ETA, cache hits, retries)
        on stderr while the sweep runs.  ``None`` (default) defers to
        the ``REPRO_PROGRESS`` environment variable, else to whether
        stderr is a TTY; True/False force it.  With a journal, progress
        also appends ``heartbeat`` lines and one closing ``summary``
        line to it (read by ``repro tail`` / ``repro dash``).
        Display-only: results are identical either way.
    trace_spans:
        Attach a :class:`~repro.engine.TimingObserver` to every task so
        its engine phases (trace acquisition, fused pass, observers)
        are recorded as spans riding the task's telemetry record.
    trace_path:
        When set, the spans of every task are merged and written there
        as Chrome trace-event JSON (loadable in Perfetto /
        ``chrome://tracing``) after the sweep.  Implies
        ``trace_spans``.
    shard_listen:
        ``"host:port"`` the coordinator listens on for *external*
        shard workers (``repro shard-worker``), in addition to the
        ``workers`` spawned locally.  ``None`` (default) binds an
        ephemeral loopback port reachable only by the spawned workers.
        Setting it turns the sweep into a service other machines'
        workers can join (with ``workers=0`` it is listen-only); the
        connection is authenticated with the ``REPRO_SHARD_AUTHKEY``
        hex key.
    shard_size:
        Cells per shard lease.  ``None`` (default) balances the grid
        at roughly four leases per worker so reassignment after a
        worker loss stays cheap.
    shard_heartbeat_s:
        Interval at which a shard worker pumps heartbeat frames to the
        coordinator.
    shard_lease_timeout_s:
        Liveness deadline: a leased worker silent for this long has
        its lease revoked and its incomplete cells reassigned (as
        ``worker-lost`` retries).  Must exceed ``shard_heartbeat_s``.
    run_id:
        Label stamped on every exported metric series and OTLP span
        (``run_id="..."``) so several sweeps can share one
        Prometheus/OTLP sink.  ``None`` derives ``sweep-<config-hash>``
        when the exports are written; the config itself is left as
        given.
    prom_path:
        Prometheus textfile written once, at sweep end, from the
        coordinator's registry plus the series every executed cell
        carried home (point a node-exporter textfile collector at it).
    otlp_path:
        OTLP-JSON destination for the same metrics *and* every task's
        spans, written once at sweep end: a file path, or an
        ``http(s)://`` endpoint to POST to.
    """

    base: WorkloadConfig = field(default_factory=WorkloadConfig)
    t_switch_values: Sequence[float] = T_SWITCH_SWEEP
    protocols: Sequence[str] = DEFAULT_PROTOCOLS
    engine: str = "auto"
    workload: Optional[str] = None
    seeds: Sequence[int] = (0, 1, 2)
    workers: int = 0
    use_cache: bool = True
    cache_dir: Optional[str] = None
    audit: bool = False
    task_timeout_s: Optional[float] = None
    max_task_retries: int = 2
    retry_backoff_s: float = 0.05
    journal_path: Optional[str] = None
    resume_from: Optional[str] = None
    progress: Optional[bool] = None
    trace_spans: bool = False
    trace_path: Optional[str] = None
    shard_listen: Optional[str] = None
    shard_size: Optional[int] = None
    shard_heartbeat_s: float = 1.0
    shard_lease_timeout_s: float = 10.0
    run_id: Optional[str] = None
    prom_path: Optional[str] = None
    otlp_path: Optional[str] = None

    def validate(self) -> "SweepConfig":
        """Check the sweep parameters; returns self (chainable).

        Protocol names resolve through the engine registry
        (:func:`repro.engine.resolve_protocols`), so an unknown name
        raises the same :class:`~repro.engine.errors.UnknownProtocolError`
        (and a coordinated baseline the same
        :class:`~repro.engine.errors.CapabilityError`) as the CLI and
        the plan layer -- all are ``ValueError`` subclasses, so older
        callers keep working.
        """
        from repro.engine import resolve_protocols

        # The grid axes and the protocol set are tuples from here on,
        # whatever sequence the caller passed.
        self.t_switch_values = tuple(self.t_switch_values)
        self.protocols = tuple(self.protocols)
        self.seeds = tuple(self.seeds)
        if self.workload is not None:
            from repro.workload.registry import resolve_workload_spec

            name, params = resolve_workload_spec(self.workload)
            if (name, params) != (self.base.workload,
                                  self.base.workload_params):
                # Fold the spec into the base config once (idempotent:
                # re-validation sees the values already applied), so
                # the journal hash, the cells and the shard hello all
                # carry the resolved model.
                self.base = self.base.with_(
                    workload=name, workload_params=params
                )
        self.base.validate()
        if not self.t_switch_values:
            raise ValueError("need at least one t_switch value")
        if any(t <= 0 for t in self.t_switch_values):
            raise ValueError("t_switch values must be positive")
        # Sweeps run on a replay engine; require its gate up front so a
        # bad protocol/engine pairing fails here, not mid-grid.
        if self.engine not in ("auto", "fused", "vectorized"):
            raise ValueError(
                f"sweep engine must be 'auto', 'fused' or 'vectorized', "
                f"got {self.engine!r}"
            )
        resolve_protocols(
            self.protocols,
            require=(
                "vectorizable" if self.engine == "vectorized" else "replayable"
            ),
        )
        if not self.seeds:
            raise ValueError("need at least one seed")
        if self.workers < 0:
            raise ValueError("workers must be >= 0")
        if self.task_timeout_s is not None and self.task_timeout_s <= 0:
            raise ValueError("task_timeout_s must be positive (or None)")
        if self.max_task_retries < 0:
            raise ValueError("max_task_retries must be >= 0")
        if self.retry_backoff_s < 0:
            raise ValueError("retry_backoff_s must be >= 0")
        if self.shard_listen is not None:
            from repro.experiments.sharded import parse_address

            parse_address(self.shard_listen)  # raises ValueError if bad
        if self.shard_size is not None and self.shard_size < 1:
            raise ValueError("shard_size must be >= 1 (or None)")
        if self.shard_heartbeat_s <= 0:
            raise ValueError("shard_heartbeat_s must be positive")
        if self.shard_lease_timeout_s <= self.shard_heartbeat_s:
            raise ValueError(
                "shard_lease_timeout_s must exceed shard_heartbeat_s "
                "(a worker must get several heartbeats per deadline)"
            )
        return self
