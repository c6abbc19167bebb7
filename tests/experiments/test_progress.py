"""ProgressReporter: ETA math, rendering, heartbeats and sweep wiring."""

import io
import json

import pytest

from repro.experiments.config import SweepConfig
from repro.experiments.progress import (
    PROGRESS_ENV,
    ProgressReporter,
    progress_enabled,
)
from repro.experiments.runner import run_sweep
from repro.obs.telemetry import TaskTelemetry
from repro.workload.config import WorkloadConfig


def record(wall=0.1, cache_hit=False, **kw):
    defaults = dict(
        t_switch=100.0,
        seed=0,
        wall_time_s=wall,
        trace_source="memory" if cache_hit else "generated",
        cache_hit=cache_hit,
        n_events=10,
        n_sends=5,
        pid=1,
    )
    defaults.update(kw)
    return TaskTelemetry(**defaults)


def sweep_config(**kw):
    defaults = dict(
        base=WorkloadConfig(n_hosts=4, n_mss=2, sim_time=300.0),
        t_switch_values=(80.0, 200.0),
        seeds=(0, 1),
        protocols=("TP", "BCS"),
        use_cache=False,
        progress=False,
    )
    defaults.update(kw)
    return SweepConfig(**defaults)


# ----------------------------------------------------------------------
# enablement precedence: flag > env > TTY
# ----------------------------------------------------------------------
def test_explicit_flag_wins_over_env(monkeypatch):
    monkeypatch.setenv(PROGRESS_ENV, "1")
    assert progress_enabled(False, io.StringIO()) is False
    monkeypatch.setenv(PROGRESS_ENV, "0")
    assert progress_enabled(True, io.StringIO()) is True


def test_env_wins_over_tty(monkeypatch):
    stream = io.StringIO()  # not a TTY
    monkeypatch.setenv(PROGRESS_ENV, "1")
    assert progress_enabled(None, stream) is True
    for falsy in ("0", "false", "no", "off", ""):
        monkeypatch.setenv(PROGRESS_ENV, falsy)
        assert progress_enabled(None, stream) is False


def test_tty_detection_is_the_fallback(monkeypatch):
    monkeypatch.delenv(PROGRESS_ENV, raising=False)

    class Tty(io.StringIO):
        def isatty(self):
            return True

    assert progress_enabled(None, Tty()) is True
    assert progress_enabled(None, io.StringIO()) is False


# ----------------------------------------------------------------------
# rate / ETA arithmetic (against a fake clock)
# ----------------------------------------------------------------------
def test_rate_and_eta_math(monkeypatch):
    now = [100.0]
    monkeypatch.setattr(
        "repro.experiments.progress.time.monotonic", lambda: now[0]
    )
    reporter = ProgressReporter(total=10, enabled=False)
    now[0] += 5.0
    for _ in range(4):
        reporter.task_done(record())
    assert reporter.rate_per_s() == pytest.approx(0.8)  # 4 tasks / 5 s
    assert reporter.eta_s() == pytest.approx(6 / 0.8)  # 6 left


def test_resumed_tasks_do_not_inflate_the_rate(monkeypatch):
    now = [0.0]
    monkeypatch.setattr(
        "repro.experiments.progress.time.monotonic", lambda: now[0]
    )
    reporter = ProgressReporter(total=4, enabled=False)
    reporter.task_done(resumed=True)
    reporter.task_done(resumed=True)
    now[0] = 2.0
    reporter.task_done(record())
    # Only the executed task counts: 1 task / 2 s, one cell remains.
    assert reporter.rate_per_s() == pytest.approx(0.5)
    assert reporter.eta_s() == pytest.approx(2.0)
    assert reporter.done == 3 and reporter.resumed == 2


def test_eta_none_before_any_execution():
    reporter = ProgressReporter(total=5, enabled=False)
    assert reporter.eta_s() is None
    reporter.task_done(record())
    assert reporter.eta_s() is not None


def test_status_line_contents():
    reporter = ProgressReporter(total=4, enabled=False, label="sweep")
    reporter.task_done(record(cache_hit=True))
    reporter.task_done(record())
    reporter.task_retry()
    reporter.task_quarantined()
    line = reporter.status_line()
    assert "sweep 3/4" in line
    assert "tasks/s" in line
    assert "cache 1/2" in line
    assert "retries 1" in line
    assert "quarantined 1" in line


def test_plain_line_rendering_on_non_tty():
    stream = io.StringIO()
    reporter = ProgressReporter(total=2, stream=stream, enabled=True)
    reporter.task_done(record())
    reporter.task_done(record())  # total reached -> forced render
    reporter.close()
    out = stream.getvalue()
    assert "2/2" in out
    assert "\r" not in out  # non-TTY: plain lines, no carriage returns


def test_heartbeat_records(tmp_path, monkeypatch):
    now = [0.0]
    monkeypatch.setattr(
        "repro.experiments.progress.time.monotonic", lambda: now[0]
    )
    path = tmp_path / "hb.jsonl"
    reporter = ProgressReporter(
        total=3, enabled=False, heartbeat_path=path, heartbeat_every_s=1.0
    )
    reporter.task_done(record())
    now[0] = 1.5  # past the cadence
    reporter.task_done(record())
    reporter.close()  # final heartbeat
    records = [json.loads(l) for l in path.read_text().splitlines()]
    assert len(records) == 2
    assert all(r["kind"] == "heartbeat" for r in records)
    last = records[-1]
    assert last["done"] == 2 and last["total"] == 3
    assert last["rate_per_s"] > 0
    assert last["eta_s"] is not None


def test_close_is_idempotent(tmp_path):
    reporter = ProgressReporter(
        total=1, enabled=False, heartbeat_path=tmp_path / "hb.jsonl"
    )
    reporter.task_done(record())
    reporter.close()
    reporter.close()
    lines = (tmp_path / "hb.jsonl").read_text().splitlines()
    assert len(lines) == 1


# ----------------------------------------------------------------------
# sweep integration
# ----------------------------------------------------------------------
def test_sweep_emits_progress_lines_to_stderr(capsys):
    result = run_sweep(sweep_config(progress=True))
    assert result.complete
    err = capsys.readouterr().err
    assert "4/4" in err and "tasks/s" in err


def test_sweep_respects_progress_env(monkeypatch, capsys):
    monkeypatch.setenv(PROGRESS_ENV, "1")
    run_sweep(sweep_config(progress=None))
    assert "tasks/s" in capsys.readouterr().err
    monkeypatch.setenv(PROGRESS_ENV, "0")
    run_sweep(sweep_config(progress=None))
    assert capsys.readouterr().err == ""


def test_sweep_writes_heartbeats(tmp_path):
    path = tmp_path / "hb.jsonl"
    run_sweep(sweep_config(heartbeat_path=str(path)))
    records = [json.loads(l) for l in path.read_text().splitlines()]
    assert records and records[-1]["done"] == 4 and records[-1]["total"] == 4


def test_sweep_trace_path_writes_merged_chrome_trace(tmp_path):
    path = tmp_path / "trace.json"
    result = run_sweep(sweep_config(trace_path=str(path)))
    # trace_path implies span recording on every task...
    assert all(rec.spans for rec in result.telemetry)
    names = {s["name"] for rec in result.telemetry for s in rec.spans}
    assert names >= {"run", "trace-acquire", "vectorized-pass"}
    # ...and the merged timeline lands as trace-event JSON.
    payload = json.loads(path.read_text())
    assert len(payload["traceEvents"]) == sum(
        len(rec.spans) for rec in result.telemetry
    )


def test_sweep_stream_path_feeds_outcome_lines(tmp_path):
    path = tmp_path / "stream.jsonl"
    result = run_sweep(sweep_config(stream_path=str(path)))
    lines = [json.loads(l) for l in path.read_text().splitlines()]
    outcomes = [l for l in lines if l["kind"] == "outcome"]
    # 4 tasks x 2 protocols, each labelled with its grid cell.
    assert len(outcomes) == 8
    assert {(l["t_switch"], l["seed"]) for l in outcomes} == {
        (t, s) for t in (80.0, 200.0) for s in (0, 1)
    }
    # The streamed counts match the assembled result exactly.
    by_cell = {
        (l["t_switch"], l["seed"], l["protocol"]): l["n_total"]
        for l in outcomes
    }
    for point in result.points:
        for run in point.runs:
            assert by_cell[(point.t_switch, run.seed, run.protocol)] == (
                run.n_total
            )


def test_observability_does_not_change_results(tmp_path):
    plain = run_sweep(sweep_config())
    observed = run_sweep(
        sweep_config(
            trace_path=str(tmp_path / "t.json"),
            stream_path=str(tmp_path / "s.jsonl"),
            heartbeat_path=str(tmp_path / "h.jsonl"),
        )
    )

    def rows(result):
        return [
            (p.t_switch, r.seed, r.protocol, r.n_total, r.n_basic,
             r.n_forced, r.n_replaced, r.n_sends, r.piggyback_ints)
            for p in result.points
            for r in p.runs
        ]

    assert rows(plain) == rows(observed)
