"""Tests for run telemetry (repro.obs.telemetry) and its wiring
through the sweep runner, the figure entry point and the CLI."""

import json
import os

from repro import cli
from repro.experiments import SweepConfig, run_figure, run_sweep, validate_audit
from repro.obs.telemetry import (
    TaskTelemetry,
    read_jsonl,
    summarize,
    tail_summary,
    telemetry_table,
    write_jsonl,
)
from repro.workload import WorkloadConfig
from repro.workload.cache import shared_cache


def sweep_config(**overrides):
    kw = dict(
        base=WorkloadConfig(p_switch=0.8, sim_time=250.0),
        t_switch_values=(100.0, 800.0),
        seeds=(0, 1),
        workers=0,
        use_cache=False,
    )
    kw.update(overrides)
    return SweepConfig(**kw)


# ---------------------------------------------------------------------------
# per-task records out of the sweep runner
# ---------------------------------------------------------------------------


def test_every_task_reports_telemetry_in_point_seed_order():
    cfg = sweep_config()
    result = run_sweep(cfg)
    records = result.telemetry
    assert [(r.t_switch, r.seed) for r in records] == [
        (t, s) for t in cfg.t_switch_values for s in cfg.seeds
    ]
    for r in records:
        assert r.wall_time_s > 0
        assert r.pid == os.getpid()  # serial run: everything in-process
        assert r.n_events > 0 and r.n_sends > 0
        assert r.n_violations == 0


def test_telemetry_counters_match_the_run_outcomes():
    result = run_sweep(sweep_config())
    for point in result.points:
        by_seed = {r.seed: r for r in point.telemetry}
        for run in point.runs:
            counters = by_seed[run.seed].counters[run.protocol]
            assert counters["n_total"] == run.n_total
            assert counters["n_basic"] == run.n_basic
            assert counters["n_forced"] == run.n_forced
            assert counters["n_replaced"] == run.n_replaced


def test_trace_source_reflects_cache_tier(tmp_path, monkeypatch):
    from repro.workload import cache as cache_mod

    cfg = sweep_config(use_cache=True, cache_dir=str(tmp_path))
    cold = run_sweep(cfg)
    assert {r.trace_source for r in cold.telemetry} == {"generated"}
    assert not any(r.cache_hit for r in cold.telemetry)

    warm = run_sweep(cfg)
    assert {r.trace_source for r in warm.telemetry} == {"memory"}
    assert all(r.cache_hit for r in warm.telemetry)

    # A fresh process keeps only the disk tier.
    monkeypatch.setattr(cache_mod, "_shared", {})
    disk = run_sweep(cfg)
    assert {r.trace_source for r in disk.telemetry} == {"disk"}
    assert all(r.cache_hit for r in disk.telemetry)


def test_uncached_sweep_marks_every_task_uncached():
    result = run_sweep(sweep_config(use_cache=False))
    assert {r.trace_source for r in result.telemetry} == {"uncached"}


def test_parallel_sweep_telemetry_rides_the_pool(tmp_path):
    shared_cache(str(tmp_path))  # pre-warm dir creation
    cfg = sweep_config(workers=2, use_cache=True, cache_dir=str(tmp_path))
    result = run_sweep(cfg)
    records = result.telemetry
    assert len(records) == 4
    assert all(r.pid != 0 for r in records)
    summary = result.telemetry_summary()
    assert summary.workers == 2
    assert summary.n_tasks == 4


# ---------------------------------------------------------------------------
# aggregation
# ---------------------------------------------------------------------------


def fake_record(**overrides):
    kw = dict(
        t_switch=100.0, seed=0, wall_time_s=1.0, trace_source="generated",
        cache_hit=False, n_events=10, n_sends=4, pid=1,
        counters={"BCS": {"n_total": 3, "n_basic": 2, "n_forced": 1,
                          "n_replaced": 0}},
    )
    kw.update(overrides)
    return TaskTelemetry(**kw)


def test_summarize_computes_utilization_and_balance():
    records = [
        fake_record(pid=1, wall_time_s=1.0),
        fake_record(seed=1, pid=2, wall_time_s=3.0, trace_source="memory",
                    cache_hit=True),
    ]
    summary = summarize(records, sweep_wall_s=2.0, workers=2)
    assert summary.n_tasks == 2
    assert summary.total_task_wall_s == 4.0
    assert summary.utilization == 4.0 / (2.0 * 2)
    assert summary.trace_sources == {"generated": 1, "memory": 1}
    assert summary.busy_by_pid == {1: 1.0, 2: 3.0}
    text = str(summary)
    assert "2 tasks" in text and "100% utilization" in text


def test_summarize_serial_normalises_worker_count():
    summary = summarize([fake_record()], sweep_wall_s=2.0, workers=0)
    assert summary.workers == 1
    assert summary.utilization == 0.5


# ---------------------------------------------------------------------------
# JSONL emission
# ---------------------------------------------------------------------------


def test_jsonl_round_trip_with_summary(tmp_path):
    path = tmp_path / "telemetry.jsonl"
    records = [fake_record(), fake_record(seed=1, pid=2)]
    write_jsonl(records, path, summary=summarize(records, 1.0, 1))
    lines = read_jsonl(path)
    assert len(lines) == 3
    assert "kind" not in lines[0] and "kind" not in lines[1]
    assert lines[0] == records[0].as_json_dict()
    summary_line = lines[-1]
    assert summary_line["kind"] == "summary"
    assert summary_line["n_tasks"] == 2
    assert summary_line["busy_by_pid"] == {"1": 1.0, "2": 1.0}


def test_run_sweep_writes_telemetry_jsonl(tmp_path):
    path = tmp_path / "obs" / "sweep.jsonl"
    cfg = sweep_config(telemetry_path=str(path))
    run_sweep(cfg)  # creates the parent directory itself
    lines = read_jsonl(path)
    assert len(lines) == 4 + 1  # 4 tasks + summary
    for line in lines[:-1]:
        assert set(line) >= {
            "t_switch", "seed", "wall_time_s", "trace_source", "counters"
        }
        json.dumps(line)  # stays plain-JSON serialisable
    assert lines[-1]["kind"] == "summary"


def test_telemetry_table_lists_every_task():
    table = telemetry_table([fake_record(), fake_record(seed=1)])
    rows = table.splitlines()
    assert len(rows) == 3  # header + 2 tasks
    assert "t_switch" in rows[0]
    assert "BCS=3" in rows[1]


# ---------------------------------------------------------------------------
# cache health in telemetry
# ---------------------------------------------------------------------------


def test_corrupt_cache_entry_surfaces_in_telemetry(tmp_path, monkeypatch):
    from repro.workload import cache as cache_mod

    cfg = sweep_config(
        t_switch_values=(100.0,), seeds=(0,),
        use_cache=True, cache_dir=str(tmp_path),
    )
    run_sweep(cfg)  # warm: writes the disk entry
    (entry,) = tmp_path.glob("*.npz")
    data = entry.read_bytes()
    entry.write_bytes(data[: len(data) // 2])  # torn write

    monkeypatch.setattr(cache_mod, "_shared", {})  # force a disk read
    result = run_sweep(cfg)
    (record,) = result.telemetry
    assert record.cache_corrupt_evictions == 1
    assert record.trace_source == "generated"  # evicted, then regenerated
    table = telemetry_table(result.telemetry)
    assert "[cache: corrupt_evictions=1]" in table


def test_legacy_cache_entry_surfaces_in_telemetry(tmp_path, monkeypatch):
    import numpy as np

    from repro.workload import cache as cache_mod

    cfg = sweep_config(
        t_switch_values=(100.0,), seeds=(0,),
        use_cache=True, cache_dir=str(tmp_path),
    )
    run_sweep(cfg)
    (entry,) = tmp_path.glob("*.npz")
    with np.load(entry) as data:
        arrays = {k: data[k] for k in data.files if k != "digest"}
    np.savez_compressed(entry, **arrays)  # pre-checksum legacy file

    monkeypatch.setattr(cache_mod, "_shared", {})
    result = run_sweep(cfg)
    (record,) = result.telemetry
    # An entry that cannot be verified surfaces as a corrupt eviction.
    assert record.cache_corrupt_evictions == 1
    assert record.trace_source == "generated"  # evicted, then regenerated
    assert not hasattr(record, "cache_legacy_upgrades")
    summary = summarize(result.telemetry, sweep_wall_s=1.0, workers=1)
    assert summary.cache_corrupt_evictions == 1
    assert "cache health: corrupt_evictions=1" in str(summary)


def test_summary_hides_cache_health_when_clean():
    summary = summarize([fake_record()], sweep_wall_s=1.0, workers=1)
    assert summary.cache_corrupt_evictions == 0
    assert "cache health" not in str(summary)


def test_telemetry_table_flags_cache_health_per_row():
    clean = fake_record()
    dirty = fake_record(seed=1, cache_corrupt_evictions=2)
    rows = telemetry_table([clean, dirty]).splitlines()
    assert "[cache:" not in rows[1]
    assert "[cache: corrupt_evictions=2]" in rows[2]


# ---------------------------------------------------------------------------
# tail_summary (backs `repro tail`)
# ---------------------------------------------------------------------------


def test_tail_summary_classifies_mixed_streams():
    records = [
        fake_record().as_json_dict(),
        fake_record(seed=1, cache_hit=True,
                    trace_source="memory").as_json_dict(),
        {"kind": "outcome", "protocol": "BCS", "n_total": 4,
         "t_switch": 100.0, "seed": 0},
        {"kind": "outcome", "protocol": "BCS", "n_total": 6,
         "t_switch": 100.0, "seed": 1},
        {"kind": "heartbeat", "done": 2, "total": 4,
         "rate_per_s": 0.5, "eta_s": 4.0},
        {"kind": "summary", "n_tasks": 2, "sweep_wall_s": 3.5,
         "n_retries": 1, "n_quarantined": 0},
    ]
    text = tail_summary(records)
    assert "6 records: 2 task(s), 2 outcome(s), 1 heartbeat(s)" in text
    assert "cache hits 1/2" in text
    assert "N_tot means: BCS=3.0" in text
    assert "outcomes N_tot means: BCS=5.0" in text
    assert "last heartbeat: 2/4 tasks, rate 0.50/s, eta 4s" in text
    assert "summary: 2 tasks in 3.50s wall, 1 retries, 0 quarantined" in text


def test_tail_summary_handles_empty_and_partial_streams():
    assert "0 records" in tail_summary([])
    # A heartbeat-only stream (e.g. tailing mid-sweep before any task
    # telemetry lands) must not trip on missing task fields.
    text = tail_summary([{"kind": "heartbeat", "done": 1, "total": 8,
                          "rate_per_s": 1.25, "eta_s": None}])
    assert text.splitlines()[-1] == (
        "last heartbeat: 1/8 tasks, rate 1.25/s"  # no eta suffix
    )


# ---------------------------------------------------------------------------
# figure + CLI integration
# ---------------------------------------------------------------------------


def test_run_figure_audit_and_telemetry(tmp_path):
    path = tmp_path / "fig.jsonl"
    result = run_figure(
        1,
        sim_time=300.0,
        seeds=(0,),
        t_switch_values=(100.0, 800.0),
        use_cache=False,
        audit=True,
        telemetry_path=str(path),
    )
    assert result.violations == []
    assert len(result.telemetry) == 2
    report = validate_audit(result)
    assert report.ok, str(report)
    assert path.exists()


def test_cli_audit_smoke(tmp_path, capsys):
    path = tmp_path / "audit.jsonl"
    code = cli.main([
        "audit", "--sim-time", "300", "--sweep", "100", "800",
        "--seeds", "0", "--no-cache", "--telemetry", str(path),
    ])
    out = capsys.readouterr().out
    assert code == 0
    assert "zero violations across 2 runs" in out
    assert f"telemetry written to {path}" in out
    lines = read_jsonl(path)
    assert len(lines) == 3 and lines[-1]["kind"] == "summary"
