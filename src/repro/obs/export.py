"""Metric/span exporters: Prometheus textfile, OTLP-JSON.

Stdlib-only implementations of the two export dialects an operator is
likely to already run collectors for:

* **Prometheus** -- :func:`write_prometheus` renders a registry with
  :meth:`~repro.obs.metrics.MetricsRegistry.to_prometheus` and writes
  it atomically (temp file + ``os.replace``) so the node-exporter
  textfile collector never scrapes a torn file.
* **OTLP-JSON** -- :func:`otlp_metrics` / :func:`otlp_spans` build the
  OpenTelemetry protocol JSON encoding (``resourceMetrics`` /
  ``resourceSpans``) from a registry and a list of span dicts, and
  :func:`write_otlp` delivers the payload to a file or POSTs it to an
  ``http(s)://`` endpoint (an OTLP/HTTP collector's ``/v1/metrics`` --
  the payload bundles both sections, which file-based tooling and the
  collector's JSON receiver both accept).

A sweep exports once, at its end: :func:`sweep_registry` merges the
coordinator's registry with the per-cell series that shard workers
shipped on their task records (see
:attr:`~repro.obs.telemetry.TaskTelemetry.metrics`), and the two
writers render that one registry.

Monotonic span timestamps are anchored to the wall clock once per
export (``time.time_ns() - monotonic_ns``), so span times are honest
unix-nanos without any per-span wall-clock reads on the hot path.
"""

from __future__ import annotations

import hashlib
import json
import os
import time
import urllib.request
from typing import Any, Iterable, Optional

from repro.obs.metrics import MetricsRegistry

__all__ = [
    "sweep_registry",
    "write_prometheus",
    "otlp_metrics",
    "otlp_spans",
    "otlp_payload",
    "write_otlp",
]


# -- the sweep's registry -----------------------------------------------
def _absorb(target: MetricsRegistry, entry: dict, extra: dict) -> None:
    """Add one :meth:`~repro.obs.metrics.MetricsRegistry.snapshot`
    entry into *target*, with *extra* labels where the entry has none.

    Counters and histograms add up (several cells of one process
    land on one series); a gauge keeps the last value written."""
    labels = dict(entry["labels"])
    for key, value in extra.items():
        labels.setdefault(key, value)
    name, kind = entry["name"], entry["kind"]
    if kind == "counter":
        target.counter(name, **labels).inc(entry["value"])
    elif kind == "gauge":
        target.gauge(name, **labels).set(entry["value"])
    else:
        hist = target.histogram(
            name, buckets=tuple(entry["buckets"]), **labels
        )
        hist.counts = [a + b for a, b in zip(hist.counts, entry["counts"])]
        hist.sum += entry["sum"]
        hist.count += entry["count"]


def sweep_registry(
    local: MetricsRegistry, records: Iterable[Any], run_id: str
) -> MetricsRegistry:
    """One fresh registry holding a whole sweep's series.

    *local* (the coordinator's process registry) enters labelled
    ``worker_id="coordinator"``; each of *records* (the
    :class:`~repro.obs.telemetry.TaskTelemetry` of the cells this run
    executed) adds its ``metrics`` under ``pid="<worker pid>"``.  Every
    series carries ``run_id``.  Serial cells carry no ``metrics``:
    their series are already in *local*.  Neither input is modified.
    """
    merged = MetricsRegistry()
    for entry in local.snapshot()["series"]:
        _absorb(merged, entry, {"worker_id": "coordinator", "run_id": run_id})
    for rec in records:
        for entry in rec.metrics:
            _absorb(merged, entry, {"pid": rec.pid, "run_id": run_id})
    return merged


# -- Prometheus ---------------------------------------------------------
def write_prometheus(path, registry: MetricsRegistry) -> str:
    """Atomically write *registry*'s text exposition to *path*.

    Returns the rendered exposition.  Atomic rename keeps textfile
    collectors (and humans mid-``cat``) from ever seeing a torn write.
    """
    text = registry.to_prometheus()
    path = os.fspath(path)
    parent = os.path.dirname(path)
    if parent:
        os.makedirs(parent, exist_ok=True)
    tmp = path + ".tmp"
    with open(tmp, "w") as fh:
        fh.write(text)
    os.replace(tmp, path)
    return text


# -- OTLP-JSON ----------------------------------------------------------
def _otlp_attributes(labels: dict) -> list[dict]:
    return [
        {"key": str(k), "value": {"stringValue": str(v)}}
        for k, v in sorted(labels.items())
    ]


def _wall_anchor_ns() -> int:
    """unix-nanos at monotonic zero: ``wall = mono_s * 1e9 + anchor``."""
    return time.time_ns() - int(time.monotonic() * 1e9)


def otlp_metrics(
    registry: MetricsRegistry,
    resource: Optional[dict] = None,
    now_ns: Optional[int] = None,
) -> dict:
    """The registry as an OTLP-JSON ``resourceMetrics`` section."""
    now = time.time_ns() if now_ns is None else now_ns
    snap = registry.snapshot()
    by_name: dict[tuple[str, str], list[dict]] = {}
    for entry in snap["series"]:
        by_name.setdefault((entry["name"], entry["kind"]), []).append(entry)

    metrics = []
    for (name, kind), entries in sorted(by_name.items()):
        if kind == "counter":
            points = [
                {
                    "asDouble": e["value"],
                    "timeUnixNano": str(now),
                    "attributes": _otlp_attributes(dict(e["labels"])),
                }
                for e in entries
            ]
            metrics.append(
                {
                    "name": name,
                    "sum": {
                        "aggregationTemporality": 2,  # CUMULATIVE
                        "isMonotonic": True,
                        "dataPoints": points,
                    },
                }
            )
        elif kind == "gauge":
            points = [
                {
                    "asDouble": e["value"],
                    "timeUnixNano": str(now),
                    "attributes": _otlp_attributes(dict(e["labels"])),
                }
                for e in entries
            ]
            metrics.append({"name": name, "gauge": {"dataPoints": points}})
        else:
            points = [
                {
                    "count": str(e["count"]),
                    "sum": e["sum"],
                    "bucketCounts": [str(n) for n in e["counts"]],
                    "explicitBounds": list(e["buckets"]),
                    "timeUnixNano": str(now),
                    "attributes": _otlp_attributes(dict(e["labels"])),
                }
                for e in entries
            ]
            metrics.append(
                {
                    "name": name,
                    "histogram": {
                        "aggregationTemporality": 2,
                        "dataPoints": points,
                    },
                }
            )
    return {
        "resourceMetrics": [
            {
                "resource": {
                    "attributes": _otlp_attributes(resource or {})
                },
                "scopeMetrics": [
                    {"scope": {"name": "repro.obs"}, "metrics": metrics}
                ],
            }
        ]
    }


def _span_id(span: dict, index: int) -> str:
    basis = (
        f'{span.get("pid")}|{span.get("tid")}|{span.get("path")}'
        f'|{span.get("start_s")}|{span.get("duration_s")}|{index}'
    )
    return hashlib.sha256(basis.encode()).hexdigest()[:16]


def otlp_spans(
    spans: Iterable[dict],
    resource: Optional[dict] = None,
    trace_id: Optional[str] = None,
    anchor_ns: Optional[int] = None,
) -> dict:
    """Span dicts (see :meth:`repro.obs.tracing.Span.as_dict`) as an
    OTLP-JSON ``resourceSpans`` section.

    Parent linkage is rebuilt per ``(pid, tid)`` from span depth and
    time containment -- the same nesting the tracer recorded.  All
    spans share one ``traceId`` (one export = one trace), derived from
    *resource* unless given.
    """
    anchor = _wall_anchor_ns() if anchor_ns is None else anchor_ns
    if trace_id is None:
        basis = json.dumps(resource or {}, sort_keys=True)
        trace_id = hashlib.sha256(basis.encode()).hexdigest()[:32]

    spans = list(spans)
    # (pid, tid) -> stack of (depth, span_id) for parent resolution;
    # within a thread the tracer emits spans in completion order, so
    # sort by start to rebuild the nesting deterministically.
    order = sorted(
        range(len(spans)),
        key=lambda i: (
            spans[i].get("pid") or 0,
            spans[i].get("tid") or 0,
            spans[i].get("start_s") or 0.0,
            spans[i].get("depth") or 0,
        ),
    )
    ids = [_span_id(spans[i], i) for i in range(len(spans))]
    parents: dict[int, str] = {}
    stacks: dict[tuple, list[tuple[int, str, float]]] = {}
    for i in order:
        span = spans[i]
        key = (span.get("pid"), span.get("tid"))
        depth = span.get("depth") or 0
        start = span.get("start_s") or 0.0
        stack = stacks.setdefault(key, [])
        while stack and (
            stack[-1][0] >= depth or stack[-1][2] <= start
        ):
            stack.pop()
        if stack:
            parents[i] = stack[-1][1]
        end = start + (span.get("duration_s") or 0.0)
        stack.append((depth, ids[i], end))

    out = []
    for i, span in enumerate(spans):
        start_s = span.get("start_s") or 0.0
        end_s = start_s + (span.get("duration_s") or 0.0)
        rec = {
            "traceId": trace_id,
            "spanId": ids[i],
            "name": span.get("name") or span.get("path") or "span",
            "kind": 1,  # SPAN_KIND_INTERNAL
            "startTimeUnixNano": str(anchor + int(start_s * 1e9)),
            "endTimeUnixNano": str(anchor + int(end_s * 1e9)),
            "attributes": _otlp_attributes(
                {
                    "path": span.get("path"),
                    "pid": span.get("pid"),
                    "tid": span.get("tid"),
                    **(span.get("tags") or {}),
                }
            ),
        }
        if i in parents:
            rec["parentSpanId"] = parents[i]
        out.append(rec)
    return {
        "resourceSpans": [
            {
                "resource": {
                    "attributes": _otlp_attributes(resource or {})
                },
                "scopeSpans": [
                    {"scope": {"name": "repro.obs"}, "spans": out}
                ],
            }
        ]
    }


def otlp_payload(
    registry: Optional[MetricsRegistry] = None,
    spans: Optional[Iterable[dict]] = None,
    resource: Optional[dict] = None,
) -> dict:
    """One OTLP-JSON document bundling metrics and spans."""
    payload: dict[str, Any] = {}
    if registry is not None:
        payload.update(otlp_metrics(registry, resource=resource))
    if spans is not None:
        payload.update(otlp_spans(spans, resource=resource))
    return payload


def write_otlp(
    dest,
    registry: Optional[MetricsRegistry] = None,
    spans: Optional[Iterable[dict]] = None,
    resource: Optional[dict] = None,
    timeout_s: float = 5.0,
) -> dict:
    """Deliver an OTLP-JSON payload to *dest* and return it.

    *dest* starting with ``http://``/``https://`` is POSTed as
    ``application/json``; anything else is treated as a file path and
    written atomically.
    """
    payload = otlp_payload(registry, spans, resource)
    dest = os.fspath(dest)
    body = json.dumps(payload, sort_keys=True)
    if dest.startswith(("http://", "https://")):
        req = urllib.request.Request(
            dest,
            data=body.encode(),
            method="POST",
            headers={"Content-Type": "application/json"},
        )
        with urllib.request.urlopen(req, timeout=timeout_s):
            pass
    else:
        parent = os.path.dirname(dest)
        if parent:
            os.makedirs(parent, exist_ok=True)
        tmp = dest + ".tmp"
        with open(tmp, "w") as fh:
            fh.write(body + "\n")
        os.replace(tmp, dest)
    return payload
