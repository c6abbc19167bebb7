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

#: Version tag of the :meth:`RunSpec.to_wire` dict format (bumped on
#: breaking shape changes; :meth:`RunSpec.from_wire` refuses others).
#: v2: the workload dict carries the registry fields ``workload`` /
#: ``workload_params`` (name + params travel, never a materialized
#: schedule), so a v1 peer must not silently drop them.
SPEC_WIRE_VERSION = 2


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
    #: Fleet-observability run label: stamped into the engine's span
    #: tags and metric labels when set, so one sweep's series are
    #: separable across processes.  ``None`` (the default) keeps the
    #: series names exactly as they were -- no label churn for runs
    #: that never asked for the fleet plane.
    run_id: Optional[str] = None

    def __post_init__(self):
        if self.engine not in ENGINE_KINDS:
            raise PlanError(
                f"unknown engine {self.engine!r}; expected one of {ENGINE_KINDS}"
            )
        object.__setattr__(self, "observers", tuple(self.observers))
        if self.protocols is not None:
            object.__setattr__(self, "protocols", tuple(self.protocols))

    # -- serialization across a process / network boundary -------------
    def to_wire(self) -> dict:
        """Plain-dict form of this spec for a serialized boundary.

        The sharded sweep service ships specs to worker processes as
        version-tagged frames; only the *declarative* fields travel.
        Process-local state cannot: a pre-built trace (regenerate or
        cache it on the far side), observers (attach them worker-side)
        and factory overrides (plain callables don't name themselves)
        all raise :class:`~repro.engine.errors.PlanError`.

        The result is JSON-compatible as long as ``workload.extra``
        is, so it survives json/pickle round-trips identically.
        """
        if self.trace is not None:
            raise PlanError(
                "a pre-built trace does not serialize with the spec; "
                "send the workload and let the far side hit the trace "
                "cache (or regenerate)"
            )
        if self.observers:
            raise PlanError(
                "observers are process-local; attach them on the "
                "executing side, not through the wire"
            )
        if self.factories:
            raise PlanError(
                "factory overrides are process-local callables and do "
                "not serialize; register the protocol on the far side"
            )
        from dataclasses import asdict

        return {
            "version": SPEC_WIRE_VERSION,
            "protocols": (
                list(self.protocols) if self.protocols is not None else None
            ),
            "workload": (
                asdict(self.workload) if self.workload is not None else None
            ),
            "engine": self.engine,
            "counters_only": bool(self.counters_only),
            "audit": bool(self.audit),
            "seed": self.seed,
            "use_cache": bool(self.use_cache),
            "cache_dir": self.cache_dir,
            "ckpt_latency": self.ckpt_latency,
            "gc_interval": self.gc_interval,
            "snapshot_interval": self.snapshot_interval,
            # Optional additive field (absent-tolerant on decode), so
            # it rides wire v2 without a version bump.
            "run_id": self.run_id,
        }

    @classmethod
    def from_wire(cls, wire: Mapping) -> "RunSpec":
        """Rebuild a spec from :meth:`to_wire` output.

        Raises :class:`~repro.engine.errors.PlanError` on an unknown
        wire version or a malformed payload, so a coordinator/worker
        version skew fails loudly instead of mis-running a sweep.
        """
        version = wire.get("version")
        if version != SPEC_WIRE_VERSION:
            raise PlanError(
                f"cannot decode spec wire version {version!r} "
                f"(this side speaks {SPEC_WIRE_VERSION})"
            )
        workload = wire.get("workload")
        if workload is not None:
            from repro.workload.config import WorkloadConfig

            try:
                workload = WorkloadConfig(**workload)
            except TypeError as exc:
                raise PlanError(f"malformed workload on the wire: {exc}")
        protocols = wire.get("protocols")
        return cls(
            protocols=tuple(protocols) if protocols is not None else None,
            workload=workload,
            engine=wire.get("engine", "auto"),
            counters_only=bool(wire.get("counters_only", False)),
            audit=bool(wire.get("audit", False)),
            seed=wire.get("seed"),
            use_cache=bool(wire.get("use_cache", False)),
            cache_dir=wire.get("cache_dir"),
            ckpt_latency=wire.get("ckpt_latency", 0.0),
            gc_interval=wire.get("gc_interval"),
            snapshot_interval=wire.get("snapshot_interval", 500.0),
            run_id=wire.get("run_id"),
        )


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
