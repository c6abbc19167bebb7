"""Exporters: the sweep registry merge, Prometheus textfile, OTLP-JSON."""

import http.server
import json
import threading

from repro.obs.export import (
    otlp_metrics,
    otlp_payload,
    otlp_spans,
    sweep_registry,
    write_otlp,
    write_prometheus,
)
from repro.obs.metrics import MetricsRegistry


def _registry():
    reg = MetricsRegistry()
    reg.counter("repro_runs_total", kind="fused").inc(3)
    reg.gauge("repro_workers_alive").set(2)
    reg.histogram("repro_run_seconds", buckets=(0.1, 1.0)).observe(0.5)
    return reg


# ----------------------------------------------------------------------
# Prometheus
# ----------------------------------------------------------------------
def test_write_prometheus_is_atomic_and_returns_text(tmp_path):
    path = tmp_path / "nested" / "fleet.prom"
    text = write_prometheus(path, _registry())
    assert path.read_text() == text
    assert 'repro_runs_total{kind="fused"} 3' in text
    assert not path.with_suffix(".prom.tmp").exists()


def test_sweep_registry_labels_coordinator_and_worker_pids():
    from repro.obs.telemetry import TaskTelemetry

    local = MetricsRegistry()
    local.counter("repro_sweep_tasks_total", status="done").inc(2)
    worker = MetricsRegistry()
    worker.counter("repro_engine_runs_total", kind="vectorized").inc()
    worker.histogram("repro_run_seconds", buckets=(0.1, 1.0)).observe(0.5)

    def record(seed, pid):
        return TaskTelemetry(
            t_switch=100.0, seed=seed, wall_time_s=0.1,
            trace_source="generated", cache_hit=False, n_events=1,
            n_sends=0, pid=pid, metrics=worker.snapshot()["series"],
        )

    serial = TaskTelemetry(
        t_switch=800.0, seed=0, wall_time_s=0.1, trace_source="generated",
        cache_hit=False, n_events=1, n_sends=0, pid=7,
    )
    merged = sweep_registry(
        local, [record(0, 11), record(1, 11), record(2, 12), serial], "r"
    )
    assert merged.counter(
        "repro_sweep_tasks_total",
        status="done", worker_id="coordinator", run_id="r",
    ).value == 2
    # Two cells of pid 11 add up; a record without series adds nothing.
    for pid, runs in (("11", 2), ("12", 1)):
        assert merged.counter(
            "repro_engine_runs_total", kind="vectorized", pid=pid, run_id="r"
        ).value == runs
    hist = merged.histogram(
        "repro_run_seconds", buckets=(0.1, 1.0), pid="11", run_id="r"
    )
    assert (hist.count, hist.sum, hist.counts) == (2, 1.0, [0, 2, 0])
    assert 'pid="7"' not in merged.to_prometheus()
    # Rendering must not mutate the inputs.
    assert "worker_id" not in str(local.as_dict())
    assert "pid" not in str(worker.as_dict())


# ----------------------------------------------------------------------
# OTLP metrics
# ----------------------------------------------------------------------
def test_otlp_metrics_encodes_all_three_kinds():
    doc = otlp_metrics(_registry(), resource={"service.name": "repro"})
    (rm,) = doc["resourceMetrics"]
    assert rm["resource"]["attributes"] == [
        {"key": "service.name", "value": {"stringValue": "repro"}}
    ]
    metrics = {m["name"]: m for m in rm["scopeMetrics"][0]["metrics"]}

    runs = metrics["repro_runs_total"]["sum"]
    assert runs["isMonotonic"] is True
    assert runs["aggregationTemporality"] == 2
    (pt,) = runs["dataPoints"]
    assert pt["asDouble"] == 3
    assert {"key": "kind", "value": {"stringValue": "fused"}} in pt[
        "attributes"
    ]

    (gpt,) = metrics["repro_workers_alive"]["gauge"]["dataPoints"]
    assert gpt["asDouble"] == 2

    (hpt,) = metrics["repro_run_seconds"]["histogram"]["dataPoints"]
    # OTLP wants counts as strings, bounds as numbers, and one more
    # count slot than bounds (the +Inf bucket).
    assert hpt["bucketCounts"] == ["0", "1", "0"]
    assert hpt["explicitBounds"] == [0.1, 1.0]
    assert hpt["count"] == "1" and hpt["sum"] == 0.5


# ----------------------------------------------------------------------
# OTLP spans
# ----------------------------------------------------------------------
def _span(path, start, dur, depth, pid=1, tid=1, tags=None):
    name = path.rsplit("/", 1)[-1]
    return {
        "name": name, "path": path, "pid": pid, "tid": tid,
        "start_s": start, "duration_s": dur, "depth": depth,
        "tags": tags or {},
    }


def test_otlp_spans_rebuild_parent_linkage():
    spans = [
        _span("run", 0.0, 10.0, 0),
        _span("run/trace-acquire", 1.0, 2.0, 1),
        _span("run/fused-pass", 4.0, 3.0, 1),
        _span("run", 0.5, 9.0, 0, pid=2),  # other process: no parent
    ]
    doc = otlp_spans(spans, anchor_ns=0)
    out = doc["resourceSpans"][0]["scopeSpans"][0]["spans"]
    by_path = {}
    for rec in out:
        attrs = {a["key"]: a["value"]["stringValue"] for a in rec["attributes"]}
        by_path[(attrs["path"], attrs["pid"])] = rec

    root = by_path[("run", "1")]
    assert "parentSpanId" not in root
    assert by_path[("run/trace-acquire", "1")]["parentSpanId"] == root["spanId"]
    assert by_path[("run/fused-pass", "1")]["parentSpanId"] == root["spanId"]
    assert "parentSpanId" not in by_path[("run", "2")]
    # One export, one trace.
    assert len({rec["traceId"] for rec in out}) == 1
    # Nanosecond timestamps from the anchor.
    assert by_path[("run/fused-pass", "1")]["startTimeUnixNano"] == str(
        int(4.0 * 1e9)
    )


def test_otlp_span_ids_are_unique_and_stable():
    spans = [_span("run", 0.0, 1.0, 0), _span("run", 0.0, 1.0, 0)]
    a = otlp_spans(spans, anchor_ns=0)
    b = otlp_spans(spans, anchor_ns=0)
    ids_a = [
        s["spanId"] for s in a["resourceSpans"][0]["scopeSpans"][0]["spans"]
    ]
    ids_b = [
        s["spanId"] for s in b["resourceSpans"][0]["scopeSpans"][0]["spans"]
    ]
    assert len(set(ids_a)) == 2  # identical spans still get distinct ids
    assert ids_a == ids_b  # ...deterministically


# ----------------------------------------------------------------------
# Delivery
# ----------------------------------------------------------------------
def test_write_otlp_file_is_valid_json(tmp_path):
    dest = tmp_path / "otlp.json"
    payload = write_otlp(
        dest,
        registry=_registry(),
        spans=[_span("run", 0.0, 1.0, 0)],
        resource={"service.name": "repro"},
    )
    on_disk = json.loads(dest.read_text())
    assert on_disk == json.loads(json.dumps(payload))
    assert "resourceMetrics" in on_disk and "resourceSpans" in on_disk


def test_write_otlp_posts_to_http_endpoint():
    seen = {}

    class Handler(http.server.BaseHTTPRequestHandler):
        def do_POST(self):
            length = int(self.headers["Content-Length"])
            seen["body"] = json.loads(self.rfile.read(length))
            seen["ctype"] = self.headers["Content-Type"]
            self.send_response(200)
            self.end_headers()

        def log_message(self, *args):
            pass

    server = http.server.HTTPServer(("127.0.0.1", 0), Handler)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        write_otlp(
            f"http://127.0.0.1:{server.server_port}/v1/metrics",
            registry=_registry(),
        )
    finally:
        server.shutdown()
        thread.join(timeout=5)
    assert seen["ctype"] == "application/json"
    assert "resourceMetrics" in seen["body"]


def test_otlp_payload_sections_are_opt_in():
    assert otlp_payload() == {}
    only_spans = otlp_payload(spans=[_span("run", 0.0, 1.0, 0)])
    assert set(only_spans) == {"resourceSpans"}
