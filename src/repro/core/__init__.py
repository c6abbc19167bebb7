"""Core analysis machinery: the paper's contribution.

* :mod:`repro.core.trace` -- protocol-independent event traces of a
  mobile computation (sends/receives/cell switches/disconnections).
* :mod:`repro.core.replay` -- deterministic trace-driven evaluation of a
  checkpointing protocol; the paper's common-random-numbers comparison.
* :mod:`repro.core.compiled` -- structure-of-arrays trace lowering that
  feeds the fused multi-protocol replay engine.
* :mod:`repro.core.online` -- in-simulation protocol execution, needed
  for non-negligible checkpoint latency and coordinated baselines.
* :mod:`repro.core.consistency` -- happens-before, orphan detection and
  recovery-line construction/verification.
* :mod:`repro.core.recovery` -- failure injection, rollback and the
  undone-computation metric (the paper's stated future work).
* :mod:`repro.core.dependency` -- checkpoint dependency graphs and
  Z-path/Z-cycle analysis (networkx).
* :mod:`repro.core.metrics` -- N_tot and friends.
* :mod:`repro.core.recovery_online` -- recovery *execution* planning
  (control messages, fetches, latency on the mobile architecture).
* :mod:`repro.core.failures` -- Poisson crash injection with live
  protocol rollback inside a running simulation.
* :mod:`repro.core.trace_io` -- compact trace serialization (npz).
"""

from repro.core.consistency import (
    CausalOrder,
    build_recovery_line,
    find_orphans,
    is_consistent,
    max_consistent_index,
)
from repro.core.metrics import CheckpointStats, ProtocolRunMetrics
from repro.core.failures import FailureRunResult, run_with_failures
from repro.core.recovery import (
    RecoveryOutcome,
    minimal_rollback,
    protocol_line_rollback,
)
from repro.core.compiled import CompiledTrace, compile_trace
from repro.core.recovery_online import RecoveryPlan, plan_recovery
from repro.core.replay import ReplayResult, replay, replay_fused
from repro.core.trace import EventType, Trace, TraceEvent
from repro.core.trace_io import load_trace, save_trace

__all__ = [
    "CausalOrder",
    "CheckpointStats",
    "CompiledTrace",
    "EventType",
    "ProtocolRunMetrics",
    "ReplayResult",
    "Trace",
    "TraceEvent",
    "FailureRunResult",
    "RecoveryOutcome",
    "RecoveryPlan",
    "build_recovery_line",
    "compile_trace",
    "find_orphans",
    "is_consistent",
    "load_trace",
    "max_consistent_index",
    "minimal_rollback",
    "plan_recovery",
    "protocol_line_rollback",
    "replay",
    "replay_fused",
    "run_with_failures",
    "save_trace",
]
