"""Observer lifecycle and built-in observer behaviour."""

import json

import pytest

from repro.engine import (
    AuditObserver,
    MetricsObserver,
    ObserverReuseError,
    RunObserver,
    RunSpec,
    StreamObserver,
    TelemetryObserver,
    TimingObserver,
    execute,
)
from repro.testing import loop_factories
from repro.workload import WorkloadConfig, generate_trace


def cfg(**kw):
    defaults = dict(sim_time=500.0, p_switch=0.8, seed=0)
    defaults.update(kw)
    return WorkloadConfig(**defaults)


class Recorder(RunObserver):
    def __init__(self):
        self.calls = []

    def on_run_start(self, plan):
        self.calls.append(("start", plan.engine_kind))

    def on_trace(self, plan, trace, source):
        self.calls.append(("trace", source))

    def on_outcome(self, plan, outcome):
        self.calls.append(("outcome", outcome.name))

    def on_run_end(self, plan, result):
        self.calls.append(("end", result.engine_kind))


def test_lifecycle_order_replay_engines():
    rec = Recorder()
    execute(
        RunSpec(protocols=("TP", "BCS"), workload=cfg(), observers=(rec,))
    )
    assert rec.calls == [
        ("start", "vectorized"),
        ("trace", "uncached"),
        ("outcome", "TP"),
        ("outcome", "BCS"),
        ("end", "vectorized"),
    ]


def test_lifecycle_online_engine_emits_trace_once():
    rec = Recorder()
    execute(
        RunSpec(
            protocols=("BCS", "QBC", "CL"),
            workload=cfg(),
            engine="online",
            snapshot_interval=100.0,
            observers=(rec,),
        )
    )
    assert rec.calls[0] == ("start", "online")
    assert rec.calls.count(("trace", "online")) == 1
    assert [c for c in rec.calls if c[0] == "outcome"] == [
        ("outcome", "BCS"),
        ("outcome", "QBC"),
        ("outcome", "CL"),
    ]
    assert rec.calls[-1] == ("end", "online")


def test_metrics_observer_collects_counters():
    obs = MetricsObserver()
    result = execute(
        RunSpec(protocols=("TP", "BCS"), workload=cfg(), observers=(obs,))
    )
    assert set(obs.metrics) == {"TP", "BCS"}
    for name in ("TP", "BCS"):
        c = obs.counters[name]
        assert set(c) == {"n_total", "n_basic", "n_forced", "n_replaced"}
        assert c["n_total"] == result.outcome(name).n_total


def test_metrics_observer_skips_coordinated_outcomes():
    obs = MetricsObserver()
    execute(
        RunSpec(
            protocols=("CL",),
            workload=cfg(),
            engine="online",
            snapshot_interval=100.0,
            observers=(obs,),
        )
    )
    assert obs.metrics == {} and obs.counters == {}


def test_telemetry_observer_builds_task_record(tmp_path):
    obs = TelemetryObserver(t_switch=321.0, seed=5)
    execute(
        RunSpec(
            protocols=("BCS",),
            workload=cfg(seed=5),
            counters_only=True,
            observers=(obs,),
            use_cache=True,
            cache_dir=str(tmp_path),
        )
    )
    rec = obs.record
    assert rec is not None
    assert rec.t_switch == 321.0 and rec.seed == 5
    assert rec.trace_source == "generated" and rec.cache_hit is False
    assert rec.n_events > 0 and rec.n_sends > 0
    assert rec.wall_time_s > 0.0
    assert rec.counters["BCS"]["n_total"] > 0
    assert rec.n_violations == 0

    from repro.workload import cache as cache_mod
    from pathlib import Path

    cache_mod._shared.pop(str(Path(str(tmp_path)).resolve()), None)


def test_telemetry_observer_on_provided_trace():
    trace = generate_trace(cfg())
    obs = TelemetryObserver()
    execute(RunSpec(protocols=("BCS",), trace=trace, observers=(obs,)))
    assert obs.record.trace_source == "provided"
    assert obs.record.n_events == len(trace)


def test_audit_observer_lands_violations_on_result():
    from repro.protocols import BCSProtocol

    class LyingBCS(BCSProtocol):
        """Counters diverge from the checkpoint log -> audit must fire."""

        name = "LyingBCS"

        def take(self, host, index, reason, now):
            super().take(host, index, reason, now)
            self.n_forced += 1  # double-count

    audit = AuditObserver(t_switch=42.0)
    result = execute(
        RunSpec(
            protocols=("Lying",),
            workload=cfg(),
            factories={"Lying": LyingBCS},
            observers=(audit,),
        )
    )
    assert audit.violations
    assert result.violations == audit.violations
    assert all(v.t_switch == 42.0 for v in audit.violations)


def test_reused_audit_observer_lands_only_this_runs_violations():
    from repro.protocols import BCSProtocol

    class LyingBCS(BCSProtocol):
        def on_cell_switch(self, host, now, new_cell):
            super().on_cell_switch(host, now, new_cell)
            self.n_forced += 1

    trace = generate_trace(cfg())
    audit = AuditObserver()
    lying = execute(
        RunSpec(
            protocols=("Lying",),
            trace=trace,
            factories={"Lying": LyingBCS},
            observers=(audit,),
        )
    )
    clean = execute(
        RunSpec(protocols=("BCS",), trace=trace, observers=(audit,))
    )
    assert lying.violations
    assert clean.violations == []
    assert audit.violations == lying.violations


def test_online_trace_fires_after_simulation_with_online_source():
    """The online engine emits the trace its first replayable run
    produced -- so on_trace necessarily fires after that simulation,
    with source="online", and the coordinated-only entries before it
    never emit one."""
    rec = Recorder()
    execute(
        RunSpec(
            protocols=("CL", "BCS"),
            workload=cfg(),
            engine="online",
            snapshot_interval=100.0,
            observers=(rec,),
        )
    )
    trace_at = rec.calls.index(("trace", "online"))
    # CL (coordinated) completed before the trace existed; BCS's
    # outcome lands after its own simulation emitted the trace.
    assert rec.calls.index(("outcome", "CL")) < trace_at
    assert trace_at < rec.calls.index(("outcome", "BCS"))


class Exploding(RunObserver):
    """Raises from every mid/post-run callback."""

    def on_trace(self, plan, trace, source):
        raise RuntimeError("trace tap broke")

    def on_outcome(self, plan, outcome):
        raise RuntimeError("outcome tap broke")

    def on_run_end(self, plan, result):
        raise RuntimeError("end tap broke")


def test_raising_observer_does_not_corrupt_counters_only_fused_run():
    exploding = Exploding()
    healthy = MetricsObserver()
    result = execute(
        RunSpec(
            protocols=("TP", "BCS"),
            workload=cfg(),
            counters_only=True,
            observers=(exploding, healthy),
        )
    )
    # The run's outcomes are complete and correct...
    assert [o.name for o in result.outcomes] == ["TP", "BCS"]
    assert all(o.n_total >= 0 for o in result.outcomes)
    # ...the healthy observer downstream still saw everything...
    assert set(healthy.counters) == {"TP", "BCS"}
    # ...and every absorbed failure is on the record: one on_trace, one
    # on_outcome per protocol, one on_run_end.
    callbacks = sorted(e.callback for e in result.observer_errors)
    assert callbacks == [
        "on_outcome", "on_outcome", "on_run_end", "on_trace",
    ]
    assert all(e.observer == "Exploding" for e in result.observer_errors)
    assert "on_run_end" in str(result.observer_errors[-1])


def test_raising_on_run_start_propagates():
    class BadStart(RunObserver):
        def on_run_start(self, plan):
            raise RuntimeError("fail fast")

    with pytest.raises(RuntimeError, match="fail fast"):
        execute(
            RunSpec(
                protocols=("TP",), workload=cfg(), observers=(BadStart(),)
            )
        )


def test_telemetry_observer_refuses_reuse():
    obs = TelemetryObserver(t_switch=100.0, seed=0)
    spec = RunSpec(protocols=("TP",), workload=cfg(), observers=(obs,))
    execute(spec)
    with pytest.raises(ObserverReuseError):
        execute(spec)


def test_metrics_observer_resets_per_run():
    obs = MetricsObserver()
    execute(RunSpec(protocols=("TP", "BCS"), workload=cfg(), observers=(obs,)))
    assert set(obs.counters) == {"TP", "BCS"}
    execute(RunSpec(protocols=("QBC",), workload=cfg(), observers=(obs,)))
    # The latest run only -- never a union of both runs' protocol sets.
    assert set(obs.counters) == {"QBC"}


def test_timing_observer_records_fused_phases():
    timing = TimingObserver()
    execute(
        RunSpec(
            protocols=("TP", "BCS"),
            workload=cfg(),
            engine="fused",
            factories=loop_factories(("TP", "BCS")),
            observers=(timing,),
        )
    )
    by_name = {}
    for sp in timing.spans:
        by_name.setdefault(sp.name, []).append(sp)
    assert set(by_name) >= {"run", "trace-acquire", "fused-pass"}
    assert by_name["trace-acquire"][0].tags["source"] == "uncached"
    assert by_name["trace-acquire"][0].path == "run/trace-acquire"
    # Observer on_run_end work is itself timed.
    assert "observer:TimingObserver" in {sp.name for sp in timing.spans}
    assert "run" in timing.phase_table()


def test_timing_observer_records_reference_replay_per_protocol():
    timing = TimingObserver()
    execute(
        RunSpec(
            protocols=("TP", "BCS"),
            workload=cfg(),
            engine="reference",
            observers=(timing,),
        )
    )
    replays = [sp for sp in timing.spans if sp.name == "replay"]
    assert [sp.tags["protocol"] for sp in replays] == ["TP", "BCS"]


def test_timing_observer_records_online_and_coordinated_runs():
    timing = TimingObserver()
    execute(
        RunSpec(
            protocols=("CL", "BCS"),
            workload=cfg(),
            engine="online",
            snapshot_interval=100.0,
            observers=(timing,),
        )
    )
    names = {sp.name: sp for sp in timing.spans}
    assert names["coordinated-run"].tags["protocol"] == "CL"
    assert names["online-run"].tags["protocol"] == "BCS"


def test_timing_observer_accumulates_across_runs(tmp_path):
    timing = TimingObserver()
    for seed in (0, 1):
        execute(
            RunSpec(
                protocols=("TP",), workload=cfg(seed=seed), observers=(timing,)
            )
        )
    assert sum(1 for sp in timing.spans if sp.name == "run") == 2
    out = tmp_path / "trace.json"
    timing.write_chrome_trace(out)
    assert json.loads(out.read_text())["traceEvents"]


def test_untraced_runs_record_no_spans():
    result = execute(RunSpec(protocols=("TP",), workload=cfg()))
    assert result.observer_errors == []  # engine ran span-free and clean


def test_stream_observer_writes_outcome_and_run_lines(tmp_path):
    path = tmp_path / "stream.jsonl"
    stream = StreamObserver(path, labels={"t_switch": 500.0})
    execute(
        RunSpec(protocols=("TP", "BCS"), workload=cfg(), observers=(stream,))
    )
    stream.close()
    lines = [json.loads(l) for l in path.read_text().splitlines()]
    assert [l["kind"] for l in lines] == ["outcome", "outcome", "run"]
    assert [l.get("protocol") for l in lines[:2]] == ["TP", "BCS"]
    assert all(l["t_switch"] == 500.0 for l in lines)  # labels merged
    assert all("ts" in l for l in lines)
    assert lines[0]["n_total"] >= 0 and lines[0]["engine"] == "vectorized"
    assert lines[-1]["n_outcomes"] == 2
    assert stream.lines_written == 3


def test_stream_observer_file_like_target_not_closed():
    import io

    buf = io.StringIO()
    stream = StreamObserver(buf)
    execute(
        RunSpec(
            protocols=("CL",),
            workload=cfg(),
            engine="online",
            snapshot_interval=100.0,
            observers=(stream,),
        )
    )
    stream.close()
    assert not buf.closed  # caller-owned sink stays open
    lines = [json.loads(l) for l in buf.getvalue().splitlines()]
    # Coordinated outcomes still report their N_tot.
    assert lines[0]["kind"] == "outcome" and "n_total" in lines[0]


def test_stream_observer_append_safe_across_runs(tmp_path):
    path = tmp_path / "stream.jsonl"
    for seed in (0, 1):
        stream = StreamObserver(path, labels={"seed_label": seed})
        execute(
            RunSpec(
                protocols=("TP",), workload=cfg(seed=seed), observers=(stream,)
            )
        )
        stream.close()
    lines = [json.loads(l) for l in path.read_text().splitlines()]
    assert len(lines) == 4  # (outcome + run) x 2, appended not clobbered
    assert {l["seed_label"] for l in lines} == {0, 1}


def test_audit_before_telemetry_counts_violations():
    """The sweep convention: AuditObserver first, so the telemetry
    record sees the final violation tally."""
    from repro.protocols import BCSProtocol

    class LyingBCS(BCSProtocol):
        name = "LyingBCS"

        def take(self, host, index, reason, now):
            super().take(host, index, reason, now)
            self.n_forced += 1

    telemetry = TelemetryObserver()
    execute(
        RunSpec(
            protocols=("Lying",),
            workload=cfg(),
            factories={"Lying": LyingBCS},
            observers=(AuditObserver(), telemetry),
        )
    )
    assert telemetry.record.n_violations > 0
