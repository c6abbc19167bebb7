"""Run specification and planning.

A :class:`RunSpec` states *what* to evaluate -- which protocols, over
which workload or pre-built trace, with which execution preferences and
observers.  :func:`plan` resolves it against the capability-aware
registry into an :class:`ExecutionPlan` that names a concrete engine
and carries fully resolved protocol entries.  All validation happens
here, *before* anything runs: unknown names, capability mismatches and
incoherent specs fail fast with the typed errors of
:mod:`repro.engine.errors`, identically from every consumer (CLI,
sweep config, library code).

Engine selection
----------------

``engine="auto"`` (the default) picks the cheapest sound engine:

* any coordinated protocol in the set -> the **online** DES (the only
  engine that can drive coordination rounds);
* otherwise, if every protocol ships batch kernels -> the
  **vectorized** replay (fused contract, no per-event dispatch);
* otherwise -> the **fused** single-pass replay, the per-event loop.

``engine="fused"`` asks for one shared replay pass over the trace, and
plans exactly like ``auto`` on a replayable set: the batch kernels
when every protocol ships them (the plan and the result then report
``"vectorized"``), the per-event loop otherwise.  Every replayable
protocol shipped here has kernels; one built without them -- most
plugins, or a factory passed through
:func:`repro.testing.without_kernels` -- keeps its whole set on the
loop.

The **reference** per-protocol replay runs only when named.  Naming
``reference``, ``vectorized`` or ``online`` turns the same conditions
into hard :class:`~repro.engine.errors.CapabilityError` checks.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping, Optional, Sequence, Tuple

from repro.engine.errors import CapabilityError, PlanError
from repro.engine.observers import RunObserver
from repro.engine.registry import (
    ProtocolFactory,
    ResolvedProtocol,
    resolve_protocols,
)

#: The engine kinds :func:`plan` can select.
ENGINE_KINDS = ("auto", "reference", "fused", "vectorized", "online")


@dataclass(frozen=True)
class RunSpec:
    """One declarative run request.

    Exactly one of *workload* / *trace* supplies the schedule: replay
    engines accept either (a workload is resolved through the trace
    cache / generator), the online engine needs a workload (it *emits*
    the trace, it cannot consume one).
    """

    #: Protocol names; ``None`` selects every protocol the chosen
    #: engine can drive.
    protocols: Optional[Sequence[str]] = None
    #: Workload to generate (or fetch) the schedule from.
    workload: Optional["WorkloadConfig"] = None  # noqa: F821
    #: Pre-built trace to replay (replay engines only).
    trace: Optional["Trace"] = None  # noqa: F821
    #: Engine preference: one of :data:`ENGINE_KINDS` (``"fused"``
    #: plans the kernels when every protocol ships them; module doc).
    engine: str = "auto"
    #: Skip checkpoint logs; every protocol must declare
    #: ``supports_counters_only`` and the engine must be a replay one.
    counters_only: bool = False
    #: Arm the invariant audit (attaches an AuditObserver when the
    #: observer stack has none).
    audit: bool = False
    #: Seed stamped into metrics/telemetry (defaults to the workload's).
    seed: Optional[int] = None
    #: Serve workload traces from the content-addressed cache.
    use_cache: bool = False
    #: Disk tier of the trace cache (None: REPRO_TRACE_CACHE_DIR / memory).
    cache_dir: Optional[str] = None
    #: Keep the cached trace in the cache's memory tier.  A sweep whose
    #: grid outgrows the tier passes False (repro.workload.cache).
    keep_trace: bool = True
    #: Observer stack, notified in order (see repro.engine.observers).
    observers: Tuple[RunObserver, ...] = ()
    #: Factory overrides (name -> factory), trumping the registry.
    factories: Optional[Mapping[str, ProtocolFactory]] = None
    #: Online engine: per-checkpoint pause (Section 5.1 scenario).
    ckpt_latency: float = 0.0
    #: Online engine: stable-storage GC period (None disables).
    gc_interval: Optional[float] = None
    #: Online engine: coordinated snapshot round period.
    snapshot_interval: float = 500.0

    def __post_init__(self):
        if self.engine not in ENGINE_KINDS:
            raise PlanError(
                f"unknown engine {self.engine!r}; expected one of {ENGINE_KINDS}"
            )
        object.__setattr__(self, "observers", tuple(self.observers))
        if self.protocols is not None:
            object.__setattr__(self, "protocols", tuple(self.protocols))


@dataclass(frozen=True)
class ExecutionPlan:
    """A validated spec bound to a concrete engine.

    Produced only by :func:`plan`; engines trust it (no re-validation
    in the hot path).
    """

    spec: RunSpec
    #: "reference" | "fused" | "vectorized" | "online" -- never "auto".
    engine_kind: str
    entries: Tuple[ResolvedProtocol, ...]
    observers: Tuple[RunObserver, ...] = field(default_factory=tuple)

    @property
    def protocol_names(self) -> Tuple[str, ...]:
        return tuple(e.name for e in self.entries)


def _select_engine(spec: RunSpec, entries) -> str:
    """Resolve ``engine="auto"`` to a concrete kind (see module doc)."""
    if spec.trace is None and any(
        e.capabilities.coordinated or not e.capabilities.replayable
        for e in entries
    ):
        return "online"
    # A pre-built trace can only be replayed; a non-replayable entry
    # then fails the fit check with the standard CapabilityError.
    if all(e.capabilities.vectorizable for e in entries):
        return "vectorized"
    return "fused"


def _check_engine_fit(kind: str, entries) -> None:
    """Every entry must support the chosen engine kind."""
    for e in entries:
        caps = e.capabilities
        if kind in ("reference", "fused", "vectorized") and not caps.replayable:
            raise CapabilityError(
                e.name,
                "replayable",
                "coordinated baselines inject control messages that "
                "perturb the schedule; run them on the online engine"
                if caps.coordinated
                else "this protocol must run embedded in the online "
                "simulation",
                engine=kind,
            )
        if kind == "vectorized" and not caps.vectorizable:
            raise CapabilityError(
                e.name,
                "vectorizable",
                "this protocol ships no batch kernels; use the fused "
                "replay engine",
                engine=kind,
            )


def plan(spec: RunSpec) -> ExecutionPlan:
    """Resolve and validate *spec* into an :class:`ExecutionPlan`.

    Raises
    ------
    UnknownProtocolError
        A requested protocol name is not registered.
    CapabilityError
        A protocol cannot run on the requested (or required) engine,
        or lacks the counters-only contract the spec demands.
    PlanError
        The spec itself is incoherent: no schedule source, both
        sources at once, an online run from a pre-built trace, an
        audited online run, ...
    """
    if spec.workload is None and spec.trace is None:
        raise PlanError("spec needs a workload or a pre-built trace")
    if spec.workload is not None and spec.trace is not None:
        raise PlanError(
            "spec has both a workload and a pre-built trace; pick one "
            "schedule source"
        )
    if spec.workload is not None:
        # Resolve the workload model at plan time, so an unknown name
        # or bad parameter fails here with the registry's did-you-mean
        # errors (ValueErrors, like every engine error) instead of
        # mid-run in a worker process.
        from repro.workload.registry import check_workload

        check_workload(
            spec.workload.workload, spec.workload.workload_params
        )

    # protocols=None means "everything the chosen engine can drive":
    # all protocols for the online engine, the vectorizable/replayable
    # set otherwise (auto included, so the default never drags a
    # coordinated baseline into a replay comparison).
    default_gate = {
        "online": None,
        "vectorized": "vectorizable",
    }.get(spec.engine, "replayable")
    entries = resolve_protocols(
        spec.protocols,
        require=default_gate if spec.protocols is None else None,
        factories=spec.factories,
    )
    if not entries:
        raise PlanError("spec resolved to zero protocols")

    kind = spec.engine
    if kind == "auto":
        kind = _select_engine(spec, entries)
    elif kind == "fused" and all(
        e.capabilities.vectorizable for e in entries
    ):
        # One shared pass: the kernels are that pass whenever every
        # protocol ships them (bit-identical to the loop).
        kind = "vectorized"
    _check_engine_fit(kind, entries)

    if kind == "online":
        if spec.trace is not None:
            raise PlanError(
                "the online engine emits its own trace; it cannot replay "
                "a pre-built one -- use the reference or fused engine"
            )
        if spec.counters_only:
            raise CapabilityError(
                next(iter(entries)).name,
                "counters_only",
                "online runs keep full checkpoint logs (GC and recovery "
                "lines need them); counters-only is a replay-engine mode",
                engine=kind,
            )
        if spec.audit:
            raise PlanError(
                "audit replays the consistency oracle over a replayable "
                "schedule; online runs only get post-run structural "
                "checks -- attach an AuditObserver explicitly if that "
                "is what you want"
            )

    if spec.counters_only:
        for e in entries:
            if not e.capabilities.counters_only:
                raise CapabilityError(
                    e.name,
                    "counters_only",
                    "this protocol derives state from its checkpoint log "
                    "and cannot skip it",
                    engine=kind,
                )

    observers = tuple(spec.observers)
    if spec.audit:
        from repro.engine.observers import AuditObserver

        if not any(isinstance(o, AuditObserver) for o in observers):
            observers = observers + (AuditObserver(),)

    return ExecutionPlan(
        spec=spec, engine_kind=kind, entries=entries, observers=observers
    )
