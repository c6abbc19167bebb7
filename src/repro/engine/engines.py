"""The two execution engines behind one interface.

Every way this repository evaluates a protocol -- reference replay,
fused single-pass replay, vectorized numpy kernels, online
discrete-event simulation (CIC protocols in the loop *and* the
coordinated baselines) -- is an :class:`Engine` driving a validated
:class:`~repro.engine.spec.ExecutionPlan`:

* :class:`ReplayEngine` -- the three replay kinds, which differ only
  in the pass they run over the shared schedule: ``reference`` (one
  :func:`repro.core.replay.replay` per protocol, the semantic
  baseline), ``fused`` (one compiled-trace pass,
  :func:`repro.core.replay.replay_fused`) and ``vectorized`` (numpy
  kernels over the trace's array columns,
  :func:`repro.core.replay.replay_vectorized`, for protocols that
  declare ``vectorizable``).  All three are bit-identical.
* :class:`OnlineEngine` -- :func:`repro.workload.driver.run_online`
  for replayable protocols that need checkpoint latency / GC
  modelling, :func:`repro.core.online.run_coordinated` for the
  coordinated baselines.

:meth:`Engine.run` is a template: observers are notified uniformly
(run start, trace known, each outcome, run end), trace acquisition is
shared (pre-built trace, content-addressed cache with tier detection,
or fresh generation), and the result shape
(:class:`RunResult` of :class:`ProtocolOutcome`) is identical across
engines.  :func:`execute` is the one-call entry point: spec in,
result out.

The hot loops stay in :mod:`repro.core.replay` untouched; this layer
adds dispatch and bookkeeping only, so fused throughput through the
engine matches the raw call (benchmarked in
``benchmarks/bench_engine.py``).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from functools import partial
from typing import Optional, Union

from repro.core.online import CoordinatedResult, run_coordinated
from repro.core.replay import replay, replay_fused, replay_vectorized
from repro.engine.errors import PlanError
from repro.engine.observers import ObserverError
from repro.engine.spec import ExecutionPlan, RunSpec, plan as _plan
# repro.obs.metrics is a dependency-free leaf (the repro.obs package
# resolves lazily), so this import cannot cycle back into the engine.
from repro.obs.metrics import registry as _metrics_registry
from repro.workload import driver as _driver
from repro.workload.cache import shared_cache


@dataclass(slots=True)
class ProtocolOutcome:
    """One protocol's result within a run."""

    name: str
    #: The driven instance; None for coordinated baselines (the online
    #: DES wraps its own bookkeeper around the scheme).
    protocol: Optional[object]
    #: Replay-style run metrics; None for coordinated baselines.
    metrics: Optional[object]
    #: The full online result (trace, system, GC counters) when this
    #: protocol ran embedded in the simulation.
    online: Optional[object] = None
    #: The coordinated-baseline result when this entry is one.
    coordinated: Optional[CoordinatedResult] = None

    @property
    def n_total(self) -> int:
        """The run's N_tot regardless of how the protocol was driven."""
        if self.metrics is not None:
            return self.metrics.n_total
        if self.coordinated is not None:
            return self.coordinated.n_total
        raise ValueError(f"outcome of {self.name!r} carries no counts")


@dataclass(slots=True)
class RunResult:
    """The uniform outcome every engine produces."""

    engine_kind: str
    outcomes: list[ProtocolOutcome]
    #: The run's schedule.  Replay engines: the replayed trace.  Online
    #: engine: the trace emitted by the (first) online run; None when
    #: only coordinated baselines ran.
    trace: Optional[object] = None
    #: Where the trace came from: a cache tier ("memory"/"disk"/
    #: "generated"), "uncached", "provided", or "online".
    trace_source: str = "provided"
    seed: Optional[int] = None
    wall_time_s: float = 0.0
    #: Audit violations collected by attached AuditObservers.
    violations: list = field(default_factory=list)
    #: Observer callbacks that raised mid-run and were absorbed
    #: (:class:`~repro.engine.observers.ObserverError`); the run's
    #: outcomes are complete and correct regardless.
    observer_errors: list = field(default_factory=list)

    def outcome(self, name: str) -> ProtocolOutcome:
        """The outcome of protocol *name* (raises KeyError if absent)."""
        for o in self.outcomes:
            if o.name == name:
                return o
        raise KeyError(name)

    @property
    def metrics(self) -> dict[str, object]:
        """name -> ProtocolRunMetrics for every replayed/online entry."""
        return {
            o.name: o.metrics for o in self.outcomes if o.metrics is not None
        }


def _resolve_seed(spec: RunSpec) -> Optional[int]:
    """The seed stamped into metrics/telemetry, by precedence."""
    if spec.seed is not None:
        return spec.seed
    if spec.workload is not None:
        return spec.workload.seed
    if spec.trace is not None:
        return spec.trace.meta.get("seed")
    return None


def _acquire_trace(spec: RunSpec):
    """(trace, source tier) for a replay run -- pre-built, cached, or
    freshly generated."""
    if spec.trace is not None:
        return spec.trace, "provided"
    if spec.use_cache:
        cache = shared_cache(spec.cache_dir)
        before = (cache.hits, cache.disk_hits)
        trace = cache.get_or_generate(spec.workload, keep=spec.keep_trace)
        if cache.hits > before[0]:
            return trace, "memory"
        if cache.disk_hits > before[1]:
            return trace, "disk"
        return trace, "generated"
    # Through the module so monkeypatched generators are observed.
    return _driver.generate_trace(spec.workload), "uncached"


class _NullSpan:
    """Context-manager stand-in when no tracer is attached: accepts
    tag writes, times nothing, costs one allocation."""

    __slots__ = ("tags",)

    def __init__(self):
        self.tags: dict = {}

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False


def _find_tracer(observers):
    """The first observer-carried tracer (duck-typed: any observer
    exposing a ``tracer`` with a ``span`` context manager -- see
    :class:`~repro.engine.observers.TimingObserver`)."""
    for obs in observers:
        tracer = getattr(obs, "tracer", None)
        if tracer is not None and callable(getattr(tracer, "span", None)):
            return tracer
    return None


class Engine:
    """Common interface: a validated plan in, a :class:`RunResult` out.

    ``run`` is a template method -- timing, span tracing, observer
    fan-out and result assembly live here; subclasses implement
    ``_execute`` and call ``_notify`` (``on_trace`` / ``on_outcome``)
    as the run unfolds.

    Observer failure isolation: ``on_run_start`` exceptions propagate
    (nothing ran yet; the single-run reuse guards depend on failing
    fast), but mid-run callbacks (``on_trace`` / ``on_outcome``) and
    ``on_run_end`` are absorbed into
    :attr:`RunResult.observer_errors` -- a broken dashboard tap must
    not cost a finished run its result.
    """

    #: The :attr:`ExecutionPlan.engine_kind` this engine accepts.
    kind: str = "abstract"

    def run(self, target: Union[ExecutionPlan, RunSpec]) -> RunResult:
        """Execute *target* (a plan, or a spec planned on the spot)."""
        p = _plan(target) if isinstance(target, RunSpec) else target
        if p.engine_kind != self.kind:
            raise PlanError(
                f"plan selected the {p.engine_kind!r} engine; "
                f"this is the {self.kind!r} engine"
            )
        self._plan = p
        self._tracer = _find_tracer(p.observers)
        self._observer_errors: list[ObserverError] = []
        started = time.perf_counter()
        with self._span("run", engine=self.kind):
            for obs in p.observers:
                obs.on_run_start(p)
            result = self._execute(p)
            result.wall_time_s = time.perf_counter() - started
            result.observer_errors.extend(self._observer_errors)
            for obs in p.observers:
                with self._span(f"observer:{type(obs).__name__}"):
                    try:
                        obs.on_run_end(p, result)
                    except Exception as exc:
                        result.observer_errors.append(
                            ObserverError(
                                type(obs).__name__, "on_run_end", repr(exc)
                            )
                        )
        reg = _metrics_registry()
        reg.counter("repro_engine_runs_total", kind=self.kind).inc()
        reg.histogram("repro_engine_run_seconds", kind=self.kind).observe(
            result.wall_time_s
        )
        reg.counter("repro_engine_outcomes_total", kind=self.kind).inc(
            len(result.outcomes)
        )
        if result.observer_errors:
            reg.counter("repro_observer_errors_total").inc(
                len(result.observer_errors)
            )
        return result

    # -- subclass protocol -------------------------------------------------
    def _execute(self, p: ExecutionPlan) -> RunResult:
        raise NotImplementedError

    def _span(self, name: str, **tags):
        """A tracing span when the run carries a tracer, else a no-op."""
        if self._tracer is None:
            return _NullSpan()
        return self._tracer.span(name, **tags)

    def _notify(self, callback: str, *args) -> None:
        """Fan a mid-run *callback* (``on_trace`` / ``on_outcome``) out
        to every observer, absorbing failures."""
        for obs in self._plan.observers:
            try:
                getattr(obs, callback)(self._plan, *args)
            except Exception as exc:
                self._observer_errors.append(
                    ObserverError(type(obs).__name__, callback, repr(exc))
                )


#: Replay kind -> the pass driving all of a run's instances at once.
#: The reference kind has no shared pass: it replays each instance
#: alone (one ``replay`` span per protocol).
_PASSES = {
    "reference": None,
    "fused": replay_fused,
    "vectorized": replay_vectorized,
}


class ReplayEngine(Engine):
    """Every replay kind: acquire the trace, build fresh instances, run
    the kind's pass, wrap the outcomes.

    * ``reference`` -- one :func:`~repro.core.replay.replay` per
      protocol, the semantic baseline the audit compares against;
    * ``fused`` -- all instances over one compiled trace in a single
      pass (:func:`~repro.core.replay.replay_fused`);
    * ``vectorized`` -- all instances as batch kernels over the
      trace's array columns
      (:func:`~repro.core.replay.replay_vectorized`); the plan layer
      guarantees every entry declared ``vectorizable``.
    """

    def __init__(self, kind: str):
        if kind not in _PASSES:
            raise PlanError(
                f"no replay engine of kind {kind!r}; known: {sorted(_PASSES)}"
            )
        self.kind = kind

    def _execute(self, p: ExecutionPlan) -> RunResult:
        with self._span("trace-acquire") as sp:
            trace, source = _acquire_trace(p.spec)
            sp.tags["source"] = source
        self._notify("on_trace", trace, source)
        seed = _resolve_seed(p.spec)

        def fresh(entry):
            # Building the instances is replay work: it runs inside
            # the pass's span.
            instance = entry.make(trace.n_hosts, trace.n_mss)
            if p.spec.counters_only:
                instance.log_checkpoints = False
            return instance

        if self.kind == "reference":
            results = []
            for entry in p.entries:
                with self._span("replay", protocol=entry.name):
                    results.append(replay(trace, fresh(entry), seed=seed))
        else:
            with self._span(f"{self.kind}-pass", protocols=len(p.entries)):
                instances = [fresh(entry) for entry in p.entries]
                results = _PASSES[self.kind](trace, instances, seed=seed)
        outcomes = []
        for entry, rr in zip(p.entries, results):
            outcome = ProtocolOutcome(
                name=entry.name, protocol=rr.protocol, metrics=rr.metrics
            )
            self._notify("on_outcome", outcome)
            outcomes.append(outcome)
        return RunResult(
            engine_kind=self.kind,
            outcomes=outcomes,
            trace=trace,
            trace_source=source,
            seed=seed,
        )


class OnlineEngine(Engine):
    """Protocol-in-the-loop simulation, one run per entry.

    Replayable entries go through
    :func:`~repro.workload.driver.run_online` (honouring
    ``ckpt_latency`` / ``gc_interval``); coordinated entries through
    :func:`~repro.core.online.run_coordinated` with the spec's
    ``snapshot_interval``.  Each entry simulates its own run -- unlike
    replay there is no shared schedule once checkpoint latency or
    control messages perturb timing.
    """

    kind = "online"

    def _execute(self, p: ExecutionPlan) -> RunResult:
        spec = p.spec
        cfg = spec.workload
        seed = _resolve_seed(spec)
        outcomes = []
        first_trace = None
        for entry in p.entries:
            if entry.capabilities.coordinated:
                with self._span("coordinated-run", protocol=entry.name):
                    res = run_coordinated(
                        cfg, entry.scheme, spec.snapshot_interval
                    )
                outcome = ProtocolOutcome(
                    name=entry.name,
                    protocol=None,
                    metrics=None,
                    coordinated=res,
                )
            else:
                instance = entry.make(cfg.n_hosts, cfg.n_mss)
                with self._span("online-run", protocol=entry.name):
                    res = _driver.run_online(
                        cfg,
                        instance,
                        ckpt_latency=spec.ckpt_latency,
                        gc_interval=spec.gc_interval,
                    )
                if first_trace is None:
                    first_trace = res.trace
                    self._notify("on_trace", res.trace, "online")
                outcome = ProtocolOutcome(
                    name=entry.name,
                    protocol=instance,
                    metrics=res.metrics,
                    online=res,
                )
            self._notify("on_outcome", outcome)
            outcomes.append(outcome)
        return RunResult(
            engine_kind=self.kind,
            outcomes=outcomes,
            trace=first_trace,
            trace_source="online",
            seed=seed,
        )


#: kind -> engine factory, the dispatch table of :func:`engine_for`.
ENGINES = {
    **{kind: partial(ReplayEngine, kind) for kind in _PASSES},
    OnlineEngine.kind: OnlineEngine,
}


def engine_for(kind: str) -> Engine:
    """A fresh engine instance for a concrete *kind*."""
    try:
        return ENGINES[kind]()
    except KeyError:
        raise PlanError(
            f"no engine of kind {kind!r}; known: {sorted(ENGINES)}"
        ) from None


def execute(spec: Union[RunSpec, ExecutionPlan]) -> RunResult:
    """Plan (if needed) and run *spec* on the engine it selects."""
    p = _plan(spec) if isinstance(spec, RunSpec) else spec
    return engine_for(p.engine_kind).run(p)
