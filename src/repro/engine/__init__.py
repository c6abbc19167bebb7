"""Unified execution engine: one pipeline for every way a protocol runs.

The entry point consumers use::

    from repro.engine import RunSpec, execute

    result = execute(RunSpec(protocols=["TP", "BCS"], workload=cfg))

A :class:`~repro.engine.spec.RunSpec` is resolved against the
capability-aware registry (:mod:`repro.engine.registry`) into an
:class:`~repro.engine.spec.ExecutionPlan`, then run by
:func:`~repro.engine.engines.execute` -- the one run path, which
drives the replay passes or the online simulation the plan picked --
with a uniform observer stack (:mod:`repro.engine.observers`) and
typed failure modes (:mod:`repro.engine.errors`).

This package is the *only* sanctioned call site of the low-level run
primitives (``replay`` / ``replay_fused`` / ``run_online`` /
``run_coordinated``) outside their home modules and direct unit tests
-- enforced by ``tests/test_import_contracts.py``.  Conversely,
``repro.protocols`` never imports this package: protocols declare
capabilities, the planner and :func:`execute` interpret them.
"""

from repro.engine.engines import ProtocolOutcome, RunResult, execute
from repro.engine.errors import (
    CapabilityError,
    EngineError,
    PlanError,
    PluginCollisionError,
    PluginError,
    PluginLoadError,
    PluginProtocolError,
    UnknownProtocolError,
)
from repro.engine.plugins import (
    ProtocolOrigin,
    discover_plugins,
    plugin_errors,
    protocol_origin,
)
from repro.engine.observers import (
    AuditObserver,
    MetricsObserver,
    ObserverError,
    ObserverReuseError,
    RunObserver,
    TelemetryObserver,
    TimingObserver,
)
from repro.engine.registry import (
    Capabilities,
    ResolvedProtocol,
    known_names,
    known_protocols,
    register_coordinated,
    resolve_protocols,
)
from repro.engine.spec import (
    ENGINE_KINDS,
    ExecutionPlan,
    RunSpec,
    plan,
)

__all__ = [
    "ENGINE_KINDS",
    "AuditObserver",
    "Capabilities",
    "CapabilityError",
    "EngineError",
    "ExecutionPlan",
    "MetricsObserver",
    "ObserverError",
    "ObserverReuseError",
    "PlanError",
    "PluginCollisionError",
    "PluginError",
    "PluginLoadError",
    "PluginProtocolError",
    "ProtocolOrigin",
    "ProtocolOutcome",
    "ResolvedProtocol",
    "RunObserver",
    "RunResult",
    "RunSpec",
    "TelemetryObserver",
    "TimingObserver",
    "UnknownProtocolError",
    "discover_plugins",
    "execute",
    "known_names",
    "known_protocols",
    "plan",
    "plugin_errors",
    "protocol_origin",
    "register_coordinated",
    "resolve_protocols",
]

# Discover third-party protocol plugins as soon as the engine exists:
# entry points of the "repro.protocols" group and drop-in modules in
# the repro_protocols namespace package register themselves here, so
# `import repro` already sees the full protocol universe.  A broken
# plugin warns (and shows in `repro protocols`); it never breaks the
# import.  Runs after every public name above is bound, so plugins may
# import repro.engine freely.
from repro.engine.plugins import ensure_discovered as _ensure_discovered

_ensure_discovered()
