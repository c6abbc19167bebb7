"""Observability: auditing, telemetry, span tracing and metrics.

* :mod:`repro.obs.audit` -- the consistency-oracle audit
  (:class:`AuditViolation`, :func:`audit_trace`,
  :func:`run_audit_grid`) that proves the fast replay/sweep paths
  still produce paper-correct checkpoints.
* :mod:`repro.obs.telemetry` -- per-(point, seed) run telemetry
  (:class:`TaskTelemetry`), aggregation and the ``repro tail``
  summary of a sweep journal.
* :mod:`repro.obs.tracing` -- nested span tracing of engine phases
  (:class:`Tracer`, :class:`Span`), Chrome trace-event export and the
  text phase table.
* :mod:`repro.obs.metrics` -- process-local counters / gauges /
  histograms (:class:`MetricsRegistry`), JSON and Prometheus dumps.
* :mod:`repro.obs.export` -- Prometheus textfile and OTLP-JSON
  exporters (:func:`write_prometheus`, :func:`write_otlp`) and the
  end-of-sweep merge they render (:func:`sweep_registry`).
* :mod:`repro.obs.dash` -- the live TTY sweep dashboard and the
  rotation-aware JSONL follower (:func:`render_dashboard`,
  :class:`JsonlFollower`).

This package resolves its re-exports lazily (PEP 562): the
dependency-free leaves (:mod:`~repro.obs.tracing`,
:mod:`~repro.obs.metrics`) stay importable from low layers (the trace
cache, the engines) without dragging in :mod:`~repro.obs.audit`'s
engine dependency -- importing ``repro.obs.metrics`` must never import
``repro.engine``.
"""

from typing import TYPE_CHECKING

#: attribute -> home submodule, resolved on first access.
_EXPORTS = {
    # audit
    "AuditGridResult": "audit",
    "AuditViolation": "audit",
    "BROKEN_RECOVERY_LINE": "audit",
    "COUNTER_MISMATCH": "audit",
    "ENGINE_DIVERGENCE": "audit",
    "INDEX_MONOTONICITY": "audit",
    "ORPHAN_MESSAGE": "audit",
    "audit_trace": "audit",
    "check_protocol_invariants": "audit",
    "run_audit_grid": "audit",
    # telemetry
    "TaskTelemetry": "telemetry",
    "TelemetrySummary": "telemetry",
    "read_jsonl": "telemetry",
    "summarize": "telemetry",
    "tail_summary": "telemetry",
    "telemetry_table": "telemetry",
    # tracing
    "Span": "tracing",
    "Tracer": "tracing",
    "chrome_trace_events": "tracing",
    "phase_table": "tracing",
    "write_chrome_trace": "tracing",
    # metrics
    "MetricsRegistry": "metrics",
    "registry": "metrics",
    # export
    "otlp_metrics": "export",
    "otlp_payload": "export",
    "otlp_spans": "export",
    "sweep_registry": "export",
    "write_otlp": "export",
    "write_prometheus": "export",
    # dash
    "JsonlFollower": "dash",
    "render_dashboard": "dash",
    "run_dashboard": "dash",
    "sparkline": "dash",
}

__all__ = sorted(_EXPORTS)

if TYPE_CHECKING:  # pragma: no cover - static-analysis convenience
    from repro.obs.audit import (  # noqa: F401
        BROKEN_RECOVERY_LINE,
        COUNTER_MISMATCH,
        ENGINE_DIVERGENCE,
        INDEX_MONOTONICITY,
        ORPHAN_MESSAGE,
        AuditGridResult,
        AuditViolation,
        audit_trace,
        check_protocol_invariants,
        run_audit_grid,
    )
    from repro.obs.dash import (  # noqa: F401
        JsonlFollower,
        render_dashboard,
        run_dashboard,
        sparkline,
    )
    from repro.obs.export import (  # noqa: F401
        otlp_metrics,
        otlp_payload,
        otlp_spans,
        sweep_registry,
        write_otlp,
        write_prometheus,
    )
    from repro.obs.metrics import MetricsRegistry, registry  # noqa: F401
    from repro.obs.telemetry import (  # noqa: F401
        TaskTelemetry,
        TelemetrySummary,
        read_jsonl,
        summarize,
        tail_summary,
        telemetry_table,
    )
    from repro.obs.tracing import (  # noqa: F401
        Span,
        Tracer,
        chrome_trace_events,
        phase_table,
        write_chrome_trace,
    )


def __getattr__(name):
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module 'repro.obs' has no attribute {name!r}")
    import importlib

    value = getattr(importlib.import_module(f"repro.obs.{module}"), name)
    globals()[name] = value  # cache: next access skips __getattr__
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
