"""Tests for the fault-tolerant sweep execution layer
(repro.experiments.resilience): supervision, retry/quarantine, the
sweep journal, resumption and graceful draining.

Everything here exercises the serial supervisor (deterministic,
in-process, monkeypatchable); the parallel paths -- worker kills,
respawn, the hung-cell watchdog -- live in test_chaos.py and the
test_sharded*.py suites.
"""

import json
import os
import signal
import time

import pytest

from repro.experiments import SweepConfig, run_sweep
from repro.experiments import runner as runner_mod
from repro.experiments.resilience import (
    JournalConfigMismatch,
    JournalExists,
    SweepJournal,
    TaskError,
    sweep_config_hash,
)
from repro.workload import WorkloadConfig


def sweep_config(**overrides):
    kw = dict(
        base=WorkloadConfig(p_switch=0.8, sim_time=200.0),
        t_switch_values=(100.0, 800.0),
        seeds=(0, 1),
        workers=0,
        retry_backoff_s=0.001,
    )
    kw.update(overrides)
    return SweepConfig(**kw)


def _values(result):
    return [[r for r in p.runs] for p in result.points]


# ----------------------------------------------------------------------
# config hashing
# ----------------------------------------------------------------------
def test_config_hash_is_stable():
    assert sweep_config_hash(sweep_config()) == sweep_config_hash(
        sweep_config()
    )


@pytest.mark.parametrize(
    "change",
    [
        {"seeds": (0, 1, 2)},
        {"t_switch_values": (100.0, 900.0)},
        {"protocols": ("TP", "BCS")},
        {"audit": True},
        {"base": WorkloadConfig(p_switch=0.8, sim_time=201.0)},
    ],
)
def test_result_determining_fields_change_hash(change):
    assert sweep_config_hash(sweep_config(**change)) != sweep_config_hash(
        sweep_config()
    )


@pytest.mark.parametrize(
    "change",
    [
        {"workers": 4},
        {"use_cache": False},
        {"cache_dir": "/tmp/elsewhere"},
        {"task_timeout_s": 5.0},
        {"max_task_retries": 9},
        {"journal_path": "/tmp/j.jsonl"},
        {"progress": True},
    ],
)
def test_execution_knobs_do_not_change_hash(change):
    """A journal stays resumable across pool width, cache and retry
    policy changes -- only result-determining fields key it."""
    assert sweep_config_hash(sweep_config(**change)) == sweep_config_hash(
        sweep_config()
    )


# ----------------------------------------------------------------------
# the journal
# ----------------------------------------------------------------------
def test_journal_roundtrip(tmp_path):
    path = str(tmp_path / "sweep.jsonl")
    cfg = sweep_config(journal_path=path)
    result = run_sweep(cfg)
    assert result.complete

    entries = SweepJournal.load(path, sweep_config_hash(cfg))
    assert set(entries) == {
        (t, s) for t in cfg.t_switch_values for s in cfg.seeds
    }
    # Journal entries reconstruct the exact run outcomes.
    for point in result.points:
        for seed in cfg.seeds:
            t, s, runs, telemetry, violations = entries[
                (point.t_switch, seed)
            ]
            expected = [r for r in point.runs if r.seed == seed]
            assert runs == expected
            assert violations == []


def test_journal_header_mismatch_refuses(tmp_path):
    path = str(tmp_path / "sweep.jsonl")
    run_sweep(sweep_config(journal_path=path))
    other = sweep_config(seeds=(5, 6))
    with pytest.raises(JournalConfigMismatch):
        SweepJournal.load(path, sweep_config_hash(other))
    with pytest.raises(JournalConfigMismatch):
        SweepJournal(path, sweep_config_hash(other)).open()


def test_journal_rejects_non_journal_file(tmp_path):
    path = tmp_path / "not-a-journal.jsonl"
    path.write_text('{"some": "line"}\n')
    with pytest.raises(JournalConfigMismatch, match="missing header"):
        SweepJournal.load(str(path), "whatever")


def test_torn_trailing_line_is_ignored(tmp_path):
    path = str(tmp_path / "sweep.jsonl")
    cfg = sweep_config(journal_path=path)
    run_sweep(cfg)
    with open(path) as fh:
        lines = fh.readlines()
    # Simulate a crash mid-append: tear the last entry in half.
    with open(path, "w") as fh:
        fh.writelines(lines[:-1])
        fh.write(lines[-1][: len(lines[-1]) // 2])
    entries = SweepJournal.load(path, sweep_config_hash(cfg))
    assert len(entries) == len(lines) - 2  # header + torn line excluded


def test_journal_lines_are_json_with_kinds(tmp_path):
    path = str(tmp_path / "sweep.jsonl")
    run_sweep(sweep_config(journal_path=path))
    with open(path) as fh:
        objs = [json.loads(line) for line in fh]
    assert objs[0]["kind"] == "header"
    assert objs[0]["version"] == 1
    assert all(o["kind"] == "task" for o in objs[1:])
    assert {"t_switch", "seed", "runs", "telemetry", "attempts"} <= set(
        objs[1]
    )


# ----------------------------------------------------------------------
# resumption
# ----------------------------------------------------------------------
def test_resume_skips_completed_tasks(tmp_path, monkeypatch):
    path = str(tmp_path / "sweep.jsonl")
    cfg = sweep_config(journal_path=path, use_cache=False)
    full = run_sweep(cfg)

    calls = []
    monkeypatch.setattr(
        runner_mod,
        "_evaluate_task",
        lambda *a, **k: calls.append(a) or (_ for _ in ()).throw(
            AssertionError("no task should execute on a full resume")
        ),
    )
    resumed = run_sweep(sweep_config(
        journal_path=path, resume_from=path, use_cache=False
    ))
    assert calls == []
    assert resumed.resumed_tasks == len(cfg.t_switch_values) * len(cfg.seeds)
    assert _values(resumed) == _values(full)
    assert resumed.telemetry_summary().n_resumed == resumed.resumed_tasks


def test_resume_runs_only_missing_cells(tmp_path, monkeypatch):
    path = str(tmp_path / "sweep.jsonl")
    cfg = sweep_config(journal_path=path, use_cache=False)
    full = run_sweep(cfg)

    # Drop one cell from the journal to simulate a crash before it.
    with open(path) as fh:
        lines = fh.readlines()
    dropped = json.loads(lines[-1])
    with open(path, "w") as fh:
        fh.writelines(lines[:-1])

    real = runner_mod._evaluate_task
    executed = []

    def tracking(*args):
        executed.append((args[1], args[2]))
        return real(*args)

    monkeypatch.setattr(runner_mod, "_evaluate_task", tracking)
    resumed = run_sweep(sweep_config(
        journal_path=path, resume_from=path, use_cache=False
    ))
    assert executed == [(dropped["t_switch"], dropped["seed"])]
    assert resumed.complete
    assert _values(resumed) == _values(full)
    # The journal is whole again after the resume appended the cell.
    entries = SweepJournal.load(path, sweep_config_hash(cfg))
    assert len(entries) == len(cfg.t_switch_values) * len(cfg.seeds)


def test_full_resume_counts_no_busy_time(tmp_path):
    path = str(tmp_path / "sweep.jsonl")
    run_sweep(sweep_config(journal_path=path, use_cache=False))
    resumed = run_sweep(sweep_config(resume_from=path, use_cache=False))
    summary = resumed.telemetry_summary()
    # Every cell came from the journal: nothing ran, nothing was busy.
    assert summary.n_resumed == summary.n_tasks == 4
    assert summary.total_task_wall_s == 0.0
    assert summary.busy_by_pid == {}
    assert summary.utilization == 0.0


def test_half_resume_counts_only_executed_cells(tmp_path):
    path = str(tmp_path / "sweep.jsonl")
    run_sweep(sweep_config(journal_path=path, use_cache=False))
    with open(path) as fh:
        lines = fh.readlines()
    with open(path, "w") as fh:
        fh.writelines(lines[:3])  # header + the first two cells
    resumed = run_sweep(sweep_config(resume_from=path, use_cache=False))
    assert resumed.complete and resumed.resumed_tasks == 2
    summary = resumed.telemetry_summary()
    executed = [
        r for r in resumed.telemetry
        if (r.t_switch, r.seed) not in resumed.resumed_cells
    ]
    assert len(executed) == 2
    assert summary.total_task_wall_s == sum(r.wall_time_s for r in executed)
    assert sum(summary.busy_by_pid.values()) == pytest.approx(
        summary.total_task_wall_s
    )
    assert 0.0 < summary.utilization <= 1.0


def test_journal_lines_with_unknown_telemetry_keys_resume(
    tmp_path, monkeypatch
):
    """A journal written by an older version carries telemetry fields
    this version no longer defines (``cache_legacy_upgrades``); its
    cells must still resume rather than silently re-run."""
    path = str(tmp_path / "sweep.jsonl")
    cfg = sweep_config(journal_path=path, use_cache=False)
    full = run_sweep(cfg)
    with open(path) as fh:
        header, *tasks = fh.readlines()
    with open(path, "w") as fh:
        fh.write(header)
        for line in tasks:
            obj = json.loads(line)
            obj["telemetry"]["cache_legacy_upgrades"] = 0
            fh.write(json.dumps(obj) + "\n")

    entries = SweepJournal.load(path, sweep_config_hash(cfg))
    assert len(entries) == len(tasks) == 4
    monkeypatch.setattr(
        runner_mod,
        "_evaluate_task",
        lambda *a, **k: (_ for _ in ()).throw(
            AssertionError("no task should execute on a full resume")
        ),
    )
    resumed = run_sweep(sweep_config(resume_from=path, use_cache=False))
    assert resumed.resumed_tasks == 4
    assert _values(resumed) == _values(full)


def test_resume_from_missing_file_runs_everything(tmp_path):
    cfg = sweep_config(resume_from=str(tmp_path / "absent.jsonl"))
    result = run_sweep(cfg)
    assert result.complete and result.resumed_tasks == 0


def test_rerun_over_existing_journal_without_resume_raises(tmp_path):
    """A second run at the same journal path must resume it, not run
    and journal every cell again."""
    path = str(tmp_path / "sweep.jsonl")
    run_sweep(sweep_config(journal_path=path))
    with pytest.raises(JournalExists, match="--resume"):
        run_sweep(sweep_config(journal_path=path))
    with open(path) as fh:
        kinds = [json.loads(line)["kind"] for line in fh]
    assert kinds.count("task") == 4  # the 2 x 2 grid, once
    resumed = run_sweep(sweep_config(journal_path=path, resume_from=path))
    assert resumed.resumed_tasks == 4


def test_resume_with_wrong_config_raises(tmp_path):
    path = str(tmp_path / "sweep.jsonl")
    run_sweep(sweep_config(journal_path=path))
    with pytest.raises(JournalConfigMismatch):
        run_sweep(sweep_config(seeds=(0, 1, 2), resume_from=path))


# ----------------------------------------------------------------------
# retry and quarantine
# ----------------------------------------------------------------------
class _FlakyTask:
    """Fail the first *n* attempts of one (t_switch, seed) cell."""

    def __init__(self, real, cell, n, exc=RuntimeError("injected")):
        self.real, self.cell, self.remaining, self.exc = real, cell, n, exc
        self.calls = []

    def __call__(self, *args):
        key = (args[1], args[2])
        self.calls.append(key)
        if key == self.cell and self.remaining > 0:
            self.remaining -= 1
            raise self.exc
        return self.real(*args)


def test_transient_failure_is_retried(monkeypatch):
    cfg = sweep_config(use_cache=False, max_task_retries=2)
    baseline = run_sweep(cfg)
    flaky = _FlakyTask(runner_mod._evaluate_task, (800.0, 1), n=2)
    monkeypatch.setattr(runner_mod, "_evaluate_task", flaky)
    result = run_sweep(cfg)
    assert result.complete
    assert result.task_retries == 2
    assert _values(result) == _values(baseline)
    (record,) = [
        r for r in result.telemetry if (r.t_switch, r.seed) == (800.0, 1)
    ]
    assert record.attempts == 3
    assert result.telemetry_summary().n_retries == 2


def test_poisoned_task_is_quarantined_not_fatal(monkeypatch):
    cfg = sweep_config(use_cache=False, max_task_retries=1)
    flaky = _FlakyTask(
        runner_mod._evaluate_task, (100.0, 0), n=99,
        exc=ValueError("always broken"),
    )
    monkeypatch.setattr(runner_mod, "_evaluate_task", flaky)
    result = run_sweep(cfg)
    # The rest of the grid survives; the poisoned cell is a hole.
    assert result.n_holes == 1
    assert not result.complete
    (error,) = result.errors
    assert error.kind == "protocol-error"
    assert (error.t_switch, error.seed) == (100.0, 0)
    assert error.attempts == 2  # first try + one retry
    assert "always broken" in error.detail
    # Point 100.0 still aggregates its surviving seed.
    point = result.points[0]
    assert [r.seed for r in point.runs] == [1] * len(cfg.protocols)
    assert result.telemetry_summary().n_quarantined == 1


def test_quarantined_cell_absent_from_journal(tmp_path, monkeypatch):
    path = str(tmp_path / "sweep.jsonl")
    cfg = sweep_config(
        journal_path=path, use_cache=False, max_task_retries=0
    )
    flaky = _FlakyTask(runner_mod._evaluate_task, (100.0, 0), n=99)
    monkeypatch.setattr(runner_mod, "_evaluate_task", flaky)
    run_sweep(cfg)
    entries = SweepJournal.load(path, sweep_config_hash(cfg))
    assert (100.0, 0) not in entries
    assert len(entries) == 3
    # ...so a later resume re-runs exactly the quarantined cell.
    monkeypatch.setattr(runner_mod, "_evaluate_task", flaky.real)
    healed = run_sweep(sweep_config(
        journal_path=path, resume_from=path, use_cache=False
    ))
    assert healed.complete and healed.resumed_tasks == 3


@pytest.mark.skipif(
    not hasattr(signal, "SIGALRM"), reason="needs POSIX alarms"
)
def test_serial_task_timeout_quarantines_hung_task(monkeypatch):
    real = runner_mod._evaluate_task

    def sluggish(*args):
        if (args[1], args[2]) == (800.0, 1):
            time.sleep(5.0)
        return real(*args)

    monkeypatch.setattr(runner_mod, "_evaluate_task", sluggish)
    cfg = sweep_config(
        use_cache=False, task_timeout_s=0.2, max_task_retries=0
    )
    started = time.perf_counter()
    result = run_sweep(cfg)
    assert time.perf_counter() - started < 4.0  # the sleep was cut short
    (error,) = result.errors
    assert error.kind == "timeout"
    assert (error.t_switch, error.seed) == (800.0, 1)


def test_system_exit_in_task_is_quarantined_not_fatal(monkeypatch):
    """A task raising SystemExit must be classified (worker-crash) and
    quarantined like any failure, never exit the supervisor."""
    cfg = sweep_config(use_cache=False, max_task_retries=0)
    flaky = _FlakyTask(
        runner_mod._evaluate_task, (100.0, 0), n=99, exc=SystemExit(3)
    )
    monkeypatch.setattr(runner_mod, "_evaluate_task", flaky)
    result = run_sweep(cfg)
    assert result.n_holes == 1
    (error,) = result.errors
    assert error.kind == "worker-crash"
    assert (error.t_switch, error.seed) == (100.0, 0)


def test_task_error_serialization():
    error = TaskError(
        kind="timeout", t_switch=100.0, seed=3, attempts=2, detail="boom"
    )
    assert error.as_json_dict() == {
        "kind": "timeout", "t_switch": 100.0, "seed": 3,
        "attempts": 2, "detail": "boom",
    }
    text = str(error)
    assert "timeout" in text and "seed=3" in text and "boom" in text


# ----------------------------------------------------------------------
# graceful draining
# ----------------------------------------------------------------------
@pytest.mark.skipif(
    not hasattr(signal, "SIGALRM"), reason="needs POSIX signals"
)
def test_sigint_drains_to_partial_result(tmp_path, monkeypatch):
    path = str(tmp_path / "sweep.jsonl")
    real = runner_mod._evaluate_task
    fired = []

    def interrupting(*args):
        outcome = real(*args)
        if len(fired) == 1:  # after the second task completes
            os.kill(os.getpid(), signal.SIGINT)
        fired.append(args)
        return outcome

    monkeypatch.setattr(runner_mod, "_evaluate_task", interrupting)
    cfg = sweep_config(journal_path=path, use_cache=False)
    result = run_sweep(cfg)
    assert result.interrupted
    assert not result.complete
    done = sum(len(p.telemetry) for p in result.points)
    assert done == 2  # the two finished tasks survived the drain
    # The journal kept them, so a resume finishes the job.
    monkeypatch.setattr(runner_mod, "_evaluate_task", real)
    finished = run_sweep(sweep_config(
        journal_path=path, resume_from=path, use_cache=False
    ))
    assert finished.complete
    assert finished.resumed_tasks == 2


@pytest.mark.skipif(
    not hasattr(signal, "SIGALRM"), reason="needs POSIX signals"
)
def test_drained_failure_with_retries_left_is_a_hole_not_an_error(
    monkeypatch,
):
    """A task that fails while a drain is in progress (and still has
    retries left) must stay a plain resumable hole, matching the pooled
    path -- not be misreported as a quarantined error."""
    real = runner_mod._evaluate_task

    def interrupt_then_fail(*args):
        if (args[1], args[2]) == (100.0, 1):
            os.kill(os.getpid(), signal.SIGINT)
            raise RuntimeError("transient failure during the drain")
        return real(*args)

    monkeypatch.setattr(runner_mod, "_evaluate_task", interrupt_then_fail)
    cfg = sweep_config(use_cache=False, max_task_retries=5)
    result = run_sweep(cfg)
    assert result.interrupted
    assert result.errors == []  # not quarantined: retries were left
    assert sum(len(p.telemetry) for p in result.points) == 1
    assert result.n_holes == 3


# ----------------------------------------------------------------------
# validation of the new knobs
# ----------------------------------------------------------------------
@pytest.mark.parametrize(
    "bad",
    [
        {"task_timeout_s": 0.0},
        {"task_timeout_s": -1.0},
        {"max_task_retries": -1},
        {"retry_backoff_s": -0.1},
        {"shard_lease_timeout_s": 1.0},  # == the default heartbeat
    ],
)
def test_resilience_knobs_are_validated(bad):
    with pytest.raises(ValueError):
        sweep_config(**bad).validate()


# ----------------------------------------------------------------------
# the journal's advisory lock (single-writer contract)
# ----------------------------------------------------------------------
def test_journal_lock_refuses_second_opener(tmp_path):
    """Two simultaneous openers of one journal would interleave appends
    and corrupt exactly-once resume; the second must be refused with a
    typed, actionable error."""
    from repro.experiments.resilience import JournalLocked

    path = str(tmp_path / "sweep.jsonl")
    h = sweep_config_hash(sweep_config())
    first = SweepJournal(path, h).open()
    try:
        with pytest.raises(JournalLocked) as exc:
            SweepJournal(path, h).open()
        # The remediation is in the message, not just the type.
        assert "another live sweep" in str(exc.value)
        assert "--journal" in str(exc.value)
        # The first opener keeps working after the refused attempt.
        assert first._fh is not None
    finally:
        first.close()
    # The lock releases on close: a fresh opener succeeds.
    SweepJournal(path, h).open().close()


def test_journal_lock_is_exported():
    import repro.experiments as experiments

    from repro.experiments.resilience import JournalLocked

    assert experiments.JournalLocked is JournalLocked
