"""Dashboard: sparklines, rendering, and the rotation-proof follower."""

import io
import json
import os

from repro.obs.dash import (
    JsonlFollower,
    render_dashboard,
    run_dashboard,
    sparkline,
)


# ----------------------------------------------------------------------
# sparkline
# ----------------------------------------------------------------------
def test_sparkline_spans_min_to_max():
    line = sparkline([0, 1, 2, 3])
    assert line[0] == "▁" and line[-1] == "█"
    assert len(line) == 4


def test_sparkline_flat_series_and_width_cap():
    assert sparkline([5, 5, 5]) == "▁▁▁"
    assert sparkline([]) == ""
    assert len(sparkline(range(100), width=10)) == 10


# ----------------------------------------------------------------------
# render_dashboard
# ----------------------------------------------------------------------
def _heartbeat(done, total, **extra):
    return {"kind": "heartbeat", "done": done, "total": total, **extra}


def _task(pid, wall, counters=None, **extra):
    return {"kind": "task", "telemetry": {
        "pid": pid, "wall_time_s": wall, "seed": 0, "t_switch": 50.0,
        "counters": counters or {}, **extra,
    }}


def test_render_progress_from_latest_heartbeat():
    text = render_dashboard([
        _heartbeat(1, 4, rate_per_s=0.5),
        _heartbeat(3, 4, rate_per_s=2.0, workers_alive=2, retries=1),
    ])
    assert "3/4 cells (75%)" in text
    assert "workers 2" in text
    assert "retries 1" in text
    assert "throughput" in text


def test_render_per_worker_and_cache_tiers():
    text = render_dashboard([
        _task(100, 2.0, trace_source="uncached"),
        _task(100, 2.0, trace_source="memory", cache_hit=True),
        _task(200, 1.0, trace_source="memory", cache_hit=True),
    ])
    assert "100" in text and "200" in text
    assert "cache tiers" in text
    assert "memory 67%" in text


def test_render_forced_rate_sparklines_from_task_counters():
    counters = {"TP": {"n_forced": 9, "n_total": 10}}
    text = render_dashboard([_task(1, 1.0, counters=counters)])
    assert "forced-checkpoint rate" in text
    assert "TP" in text and "last 0.900" in text


def test_render_empty_is_calm():
    assert "(no records yet)" in render_dashboard([])


# ----------------------------------------------------------------------
# JsonlFollower: incremental reads, truncation, rotation
# ----------------------------------------------------------------------
def _write(path, records, mode="a"):
    with open(path, mode) as fh:
        for rec in records:
            fh.write(json.dumps(rec) + "\n")


def test_follower_reads_incrementally(tmp_path):
    path = tmp_path / "s.jsonl"
    _write(path, [{"a": 1}])
    f = JsonlFollower(path)
    assert f.poll() is True
    assert f.records == [{"a": 1}]
    assert f.poll() is False  # nothing new
    _write(path, [{"a": 2}])
    assert f.poll() is True
    assert f.records == [{"a": 1}, {"a": 2}]
    f.close()


def test_follower_buffers_torn_lines(tmp_path):
    path = tmp_path / "s.jsonl"
    with open(path, "w") as fh:
        fh.write('{"a": 1}\n{"a": ')  # writer caught mid-record
    f = JsonlFollower(path)
    f.poll()
    assert f.records == [{"a": 1}]
    with open(path, "a") as fh:
        fh.write("2}\n")
    assert f.poll() is True
    assert f.records == [{"a": 1}, {"a": 2}]
    f.close()


def test_follower_recovers_from_truncation(tmp_path):
    # A `> file` truncation mid-follow must not stall at a stale offset.
    path = tmp_path / "s.jsonl"
    _write(path, [{"a": 1}, {"a": 2}])
    f = JsonlFollower(path)
    f.poll()
    assert len(f.records) == 2
    _write(path, [{"b": 1}], mode="w")  # truncate + rewrite
    assert f.poll() is True
    assert f.records == [{"b": 1}]
    assert f.resets == 1
    f.close()


def test_follower_recovers_from_rotation(tmp_path):
    # logrotate-style: the file is renamed away and a new one appears
    # under the old path (new inode).
    path = tmp_path / "s.jsonl"
    _write(path, [{"a": 1}])
    f = JsonlFollower(path)
    f.poll()
    os.rename(path, tmp_path / "s.jsonl.1")
    _write(path, [{"fresh": True}], mode="w")
    changed = f.poll() or f.poll()  # reopen, then read
    assert changed is True
    assert f.records == [{"fresh": True}]
    f.close()


def test_follower_tolerates_missing_file(tmp_path):
    path = tmp_path / "later.jsonl"
    f = JsonlFollower(path)
    assert f.poll() is False  # not created yet: no crash, no records
    _write(path, [{"a": 1}])
    assert f.poll() is True
    assert f.records == [{"a": 1}]
    f.close()


# ----------------------------------------------------------------------
# run_dashboard
# ----------------------------------------------------------------------
def test_run_dashboard_once_renders_single_frame(tmp_path):
    path = tmp_path / "s.jsonl"
    _write(path, [_task(1, 1.0)])
    out = io.StringIO()
    assert run_dashboard(path, once=True, stream=out) == 0
    frame = out.getvalue()
    assert "repro sweep dashboard" in frame
    assert "\x1b[2J" not in frame  # --once must not clear the screen


def test_run_dashboard_follow_bounded_by_max_frames(tmp_path):
    path = tmp_path / "s.jsonl"
    _write(path, [_heartbeat(1, 2)])
    out = io.StringIO()
    code = run_dashboard(
        path, interval_s=0.01, stream=out, max_frames=2
    )
    assert code == 0
    assert out.getvalue().count("\x1b[2J") == 2


# ----------------------------------------------------------------------
# tail and dash over a real sharded sweep journal
# ----------------------------------------------------------------------
def test_tail_and_dash_count_every_cell_of_a_sharded_journal(tmp_path):
    from repro.experiments import SweepConfig, run_sweep
    from repro.obs.telemetry import read_jsonl, tail_summary
    from repro.workload import WorkloadConfig

    path = tmp_path / "sweep.jsonl"
    result = run_sweep(SweepConfig(
        base=WorkloadConfig(p_switch=0.8, sim_time=200.0),
        t_switch_values=(100.0, 800.0),
        seeds=(0, 1),
        workers=2,
        use_cache=False,
        journal_path=str(path),
        progress=True,
    ))
    assert result.complete
    records = read_jsonl(path)
    tasks = [r["telemetry"] for r in records if r["kind"] == "task"]
    assert len(tasks) == 4
    pids = {r["pid"] for r in tasks}
    assert os.getpid() not in pids  # cells ran on the shard workers

    text = tail_summary(records)
    assert "4 task(s)" in text
    assert "summary: 4 tasks" in text
    for protocol in ("TP", "BCS", "QBC"):
        assert f"{protocol}=" in text

    frame = render_dashboard(records)
    assert "4/4 cells (100%)" in frame
    rows = {
        line.split()[0]: int(line.split()[1])
        for line in frame.splitlines()
        if line.split() and line.split()[0] in {str(p) for p in pids}
    }
    assert sum(rows.values()) == 4 and len(rows) == len(pids)
    for protocol in ("TP", "BCS", "QBC"):
        assert any(line.startswith(protocol) for line in frame.splitlines())
