"""ProgressReporter: ETA math, rendering, journaled heartbeats and
sweep wiring."""

import io
import json

import pytest

from repro.experiments.config import SweepConfig
from repro.experiments.progress import (
    PROGRESS_ENV,
    ProgressReporter,
    progress_enabled,
)
from repro.experiments.resilience import SweepJournal
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


def _journal_lines(path):
    return [json.loads(l) for l in path.read_text().splitlines()]


def test_heartbeat_records(tmp_path, monkeypatch):
    now = [0.0]
    monkeypatch.setattr(
        "repro.experiments.progress.time.monotonic", lambda: now[0]
    )
    path = tmp_path / "sweep.jsonl"
    journal = SweepJournal(path, "hash").open()
    reporter = ProgressReporter(
        total=3, stream=io.StringIO(), enabled=True, journal=journal,
        heartbeat_every_s=1.0,
    )
    reporter.task_done(record())
    now[0] = 1.5  # past the cadence
    reporter.task_done(record())
    reporter.close()  # final heartbeat
    journal.close()
    header, *records = _journal_lines(path)
    assert header["kind"] == "header"
    assert len(records) == 2
    assert all(r["kind"] == "heartbeat" for r in records)
    last = records[-1]
    assert last["done"] == 2 and last["total"] == 3
    assert last["rate_per_s"] > 0
    assert last["eta_s"] is not None


def test_close_is_idempotent(tmp_path):
    path = tmp_path / "sweep.jsonl"
    journal = SweepJournal(path, "hash").open()
    reporter = ProgressReporter(
        total=1, stream=io.StringIO(), enabled=True, journal=journal
    )
    reporter.task_done(record())
    reporter.close()
    reporter.close()
    journal.close()
    assert [r["kind"] for r in _journal_lines(path)] == [
        "header", "heartbeat"
    ]


def test_progress_off_journals_no_heartbeats(tmp_path):
    journal = SweepJournal(tmp_path / "sweep.jsonl", "hash").open()
    reporter = ProgressReporter(total=1, enabled=False, journal=journal)
    assert reporter.journal is None  # the journal stays a bare ledger
    reporter.task_done(record())
    reporter.close()
    journal.close()


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
    path = tmp_path / "sweep.jsonl"
    run_sweep(sweep_config(journal_path=str(path), progress=True))
    records = _journal_lines(path)
    heartbeats = [r for r in records if r["kind"] == "heartbeat"]
    assert heartbeats[-1]["done"] == 4 and heartbeats[-1]["total"] == 4
    # The final heartbeat comes right before the closing summary.
    assert [r["kind"] for r in records[-2:]] == ["heartbeat", "summary"]


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


def test_observability_does_not_change_results(tmp_path):
    plain = run_sweep(sweep_config())
    observed = run_sweep(
        sweep_config(
            trace_path=str(tmp_path / "t.json"),
            journal_path=str(tmp_path / "j.jsonl"),
            progress=True,
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


def test_resume_over_journaled_heartbeats_runs_only_missing_cells(
    tmp_path, monkeypatch
):
    from repro.experiments import runner as runner_mod

    path = tmp_path / "sweep.jsonl"
    full = run_sweep(sweep_config(journal_path=str(path), progress=True))
    header, *rest = path.read_text().splitlines(keepends=True)
    heartbeat = next(l for l in rest if '"kind": "heartbeat"' in l)
    tasks = [l for l in rest if '"kind": "task"' in l]
    dropped = json.loads(tasks[1])
    # A crash after three cells, with heartbeats between the task lines
    # and the summary of an earlier run at the end.
    kept = [header]
    for line in tasks[:1] + tasks[2:]:
        kept += [line, heartbeat]
    kept.append(rest[-1])
    assert json.loads(rest[-1])["kind"] == "summary"
    path.write_text("".join(kept))

    real = runner_mod._evaluate_task
    executed = []

    def tracking(*args):
        executed.append((args[1], args[2]))
        return real(*args)

    monkeypatch.setattr(runner_mod, "_evaluate_task", tracking)
    resumed = run_sweep(sweep_config(
        journal_path=str(path), resume_from=str(path), progress=True
    ))
    assert executed == [(dropped["t_switch"], dropped["seed"])]
    assert resumed.resumed_tasks == 3 and resumed.complete
    assert [[(r.protocol, r.n_total) for r in p.runs] for p in resumed.points] == [
        [(r.protocol, r.n_total) for r in p.runs] for p in full.points
    ]
    lines = [json.loads(l) for l in path.read_text().splitlines()]
    assert sum(l["kind"] == "task" for l in lines) == 4
    assert sum(l["kind"] == "summary" for l in lines) == 2
    assert lines[-1]["telemetry"]["n_resumed"] == 3
