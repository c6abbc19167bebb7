"""Metrics registry: instruments, labels, JSON and Prometheus exposition."""

import pytest

from repro.obs.metrics import (
    DEFAULT_BUCKETS,
    Histogram,
    MetricsRegistry,
    registry,
)


def test_counter_increments_and_rejects_negative():
    reg = MetricsRegistry()
    c = reg.counter("repro_runs_total")
    c.inc()
    c.inc(2.5)
    assert c.value == 3.5
    with pytest.raises(ValueError):
        c.inc(-1)


def test_gauge_moves_both_ways():
    reg = MetricsRegistry()
    g = reg.gauge("repro_pool_width")
    g.set(4)
    g.inc()
    g.dec(2)
    assert g.value == 3


def test_get_or_create_returns_the_same_series():
    reg = MetricsRegistry()
    assert reg.counter("x", kind="fused") is reg.counter("x", kind="fused")
    # A different label set is a different series under the same name.
    assert reg.counter("x", kind="fused") is not reg.counter(
        "x", kind="online"
    )


def test_label_order_does_not_split_series():
    reg = MetricsRegistry()
    a = reg.counter("x", a="1", b="2")
    b = reg.counter("x", b="2", a="1")
    assert a is b


def test_type_conflict_raises():
    reg = MetricsRegistry()
    reg.counter("repro_thing")
    with pytest.raises(ValueError, match="is a counter"):
        reg.gauge("repro_thing")


def test_histogram_buckets_cumulative_with_inf():
    h = Histogram(buckets=(0.1, 1.0))
    for v in (0.05, 0.5, 0.5, 5.0):
        h.observe(v)
    assert h.count == 4
    assert h.sum == pytest.approx(6.05)
    cumulative = dict(h.cumulative())
    assert cumulative["+Inf"] == 4
    assert cumulative["1"] == 3  # 0.05 + two 0.5s


def test_default_buckets_are_sorted():
    assert list(DEFAULT_BUCKETS) == sorted(DEFAULT_BUCKETS)


def test_as_dict_keys_series_by_name_and_labels():
    reg = MetricsRegistry()
    reg.counter("runs", kind="fused").inc(2)
    reg.histogram("secs", buckets=(1.0,)).observe(0.5)
    d = reg.as_dict()
    assert d['runs{kind="fused"}'] == {"kind": "counter", "value": 2.0}
    assert d["secs"]["kind"] == "histogram"
    assert d["secs"]["count"] == 1
    assert d["secs"]["buckets"]["+Inf"] == 1


def test_prometheus_exposition_format():
    reg = MetricsRegistry()
    reg.counter("repro_runs_total", kind="fused").inc(3)
    reg.histogram("repro_run_seconds", buckets=(0.5, 1.0)).observe(0.7)
    text = reg.to_prometheus()
    assert "# TYPE repro_runs_total counter" in text
    assert 'repro_runs_total{kind="fused"} 3' in text
    assert "# TYPE repro_run_seconds histogram" in text
    assert 'repro_run_seconds_bucket{le="0.5"} 0' in text
    assert 'repro_run_seconds_bucket{le="1"} 1' in text
    assert 'repro_run_seconds_bucket{le="+Inf"} 1' in text
    assert "repro_run_seconds_sum 0.7" in text
    assert "repro_run_seconds_count 1" in text


def test_reset_drops_series_and_type_registrations():
    reg = MetricsRegistry()
    reg.counter("x").inc()
    reg.reset()
    assert reg.as_dict() == {}
    reg.gauge("x")  # no type conflict after reset


def test_module_registry_is_process_local_singleton():
    assert registry() is registry()


def test_engine_runs_populate_the_default_registry():
    from repro.engine import RunSpec, execute
    from repro.testing import loop_factories
    from repro.workload import WorkloadConfig

    before = registry().counter("repro_engine_runs_total", kind="fused").value
    execute(
        RunSpec(
            protocols=("TP",),
            workload=WorkloadConfig(sim_time=200.0),
            engine="fused",
            factories=loop_factories(("TP",)),
            use_cache=False,
        )
    )
    after = registry().counter("repro_engine_runs_total", kind="fused").value
    assert after == before + 1
    h = registry().histogram("repro_engine_run_seconds", kind="fused")
    assert h.count >= 1


def test_cache_events_populate_the_default_registry(tmp_path):
    from pathlib import Path

    from repro.workload import WorkloadConfig
    from repro.workload import cache as cache_mod

    def _events(event):
        return registry().counter(
            "repro_trace_cache_events_total", event=event
        ).value

    before = {e: _events(e) for e in ("miss", "hit", "disk_hit")}
    cache = cache_mod.TraceCache(disk_dir=tmp_path)
    cfg = WorkloadConfig(sim_time=200.0, seed=11)
    cache.get_or_generate(cfg)  # miss
    cache.get_or_generate(cfg)  # memory hit
    cache._memory.clear()
    cache.get_or_generate(cfg)  # disk hit
    assert _events("miss") == before["miss"] + 1
    assert _events("hit") == before["hit"] + 1
    assert _events("disk_hit") == before["disk_hit"] + 1
    cache_mod._shared.pop(str(Path(str(tmp_path)).resolve()), None)


def test_prometheus_escapes_label_values():
    # Backslash, double quote and newline are the three characters the
    # exposition format requires escaping in label values.
    reg = MetricsRegistry()
    reg.counter(
        "repro_paths_total", path='C:\\tmp\\"x"', note="line1\nline2"
    ).inc()
    text = reg.to_prometheus()
    line = next(
        ln for ln in text.splitlines() if ln.startswith("repro_paths_total")
    )
    assert "\n" not in line  # the newline must be escaped, not literal
    assert 'path="C:\\\\tmp\\\\\\"x\\""' in line
    assert 'note="line1\\nline2"' in line


def test_snapshot_round_trips_every_instrument_kind():
    reg = MetricsRegistry()
    reg.counter("c_total", kind="fused").inc(2)
    reg.gauge("g").set(7)
    reg.histogram("h_seconds", buckets=(0.1, 1.0)).observe(0.5)
    snap = reg.snapshot()
    by_name = {e["name"]: e for e in snap["series"]}
    assert by_name["c_total"]["value"] == 2
    assert by_name["c_total"]["labels"] == [["kind", "fused"]]
    assert by_name["g"]["value"] == 7
    h = by_name["h_seconds"]
    # Finite bounds only (OTLP explicitBounds convention); counts carry
    # one extra slot for the +Inf bucket.
    assert h["buckets"] == [0.1, 1.0]
    assert h["counts"] == [0, 1, 0]
    assert h["count"] == 1 and h["sum"] == 0.5
