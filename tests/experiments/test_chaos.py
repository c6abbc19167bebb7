"""Chaos tests: the sweep engine under injected faults.

These kill real shard worker processes mid-sweep, hang tasks past
their deadline and corrupt on-disk cache entries, then assert the final
``SweepResult`` is value-identical to a fault-free run -- the
acceptance bar for the resilience layer.  Every parallel sweep here
(``workers=2``) runs through the sharded coordinator.  Fault injection
uses the ``REPRO_CHAOS_DIR`` flag-file hook consumed by the worker loop
(:func:`repro.experiments.sharded._worker_chaos`); each flag strikes
exactly one attempt, so the retry path must heal the sweep.
"""

import json
import signal
import time

import pytest

from repro.experiments import SweepConfig, run_sweep
from repro.experiments import sharded
from repro.experiments.resilience import (
    CHAOS_DIR_ENV,
    SweepJournal,
    sweep_config_hash,
)
from repro.obs.metrics import registry
from repro.workload import WorkloadConfig

pytestmark = pytest.mark.timeout(300)

GRID = dict(t_switch_values=(100.0, 800.0), seeds=(0, 1))


def sweep_config(**overrides):
    kw = dict(
        base=WorkloadConfig(p_switch=0.8, sim_time=200.0),
        workers=2,
        retry_backoff_s=0.01,
        **GRID,
    )
    kw.update(overrides)
    return SweepConfig(**kw)


def _values(result):
    return [[r for r in p.runs] for p in result.points]


# ----------------------------------------------------------------------
# the acceptance chaos test
# ----------------------------------------------------------------------
def test_killed_workers_and_corrupt_cache_still_converge(
    tmp_path, monkeypatch
):
    """Workers killed mid-sweep + one corrupted cache entry: the sweep
    completes with results value-identical to a fault-free run."""
    cache_dir = tmp_path / "cache"
    chaos_dir = tmp_path / "chaos"
    chaos_dir.mkdir()

    # Fault-free baseline (serial) -- also populates the disk cache.
    baseline = run_sweep(sweep_config(workers=0, cache_dir=str(cache_dir)))
    assert baseline.complete

    # Corrupt one cache entry in place (truncation).
    entries = sorted(cache_dir.glob("*.npz"))
    assert entries
    data = entries[0].read_bytes()
    entries[0].write_bytes(data[: len(data) // 2])

    # Arm worker kills for two different cells.
    (chaos_dir / "kill-100-0").touch()
    (chaos_dir / "kill-800-1").touch()
    monkeypatch.setenv(CHAOS_DIR_ENV, str(chaos_dir))

    result = run_sweep(sweep_config(
        cache_dir=str(cache_dir), max_task_retries=3
    ))
    assert result.complete
    assert not result.errors
    assert result.task_retries >= 2  # both killed cells were re-dispatched
    assert _values(result) == _values(baseline)
    # All flags were consumed: the faults really fired.
    assert not list(chaos_dir.iterdir())


def test_journal_resume_reexecutes_only_missing_cells(tmp_path, monkeypatch):
    """A journaled sweep with a quarantined cell resumes by running
    exactly the missing (point, seed) tasks."""
    journal = str(tmp_path / "sweep.jsonl")
    chaos_dir = tmp_path / "chaos"
    chaos_dir.mkdir()
    cache_dir = str(tmp_path / "cache")

    baseline = run_sweep(sweep_config(workers=0, cache_dir=cache_dir))

    # First run: zero retries, so one task-local fault on cell (800, 0)
    # quarantines it and leaves exactly one hole.  (A kill- flag would
    # take the worker's whole lease down with it -- worker-loss blast
    # radius is covered by the test above.)
    (chaos_dir / "fail-800-0").touch()
    monkeypatch.setenv(CHAOS_DIR_ENV, str(chaos_dir))
    first = run_sweep(sweep_config(
        cache_dir=cache_dir, journal_path=journal, max_task_retries=0
    ))
    assert first.n_holes == 1
    (error,) = first.errors
    assert error.kind == "protocol-error"
    assert (error.t_switch, error.seed) == (800.0, 0)

    cfg = sweep_config(cache_dir=cache_dir)
    journaled = SweepJournal.load(journal, sweep_config_hash(cfg))
    assert (800.0, 0) not in journaled
    assert len(journaled) == 3

    # Resume: only the missing cell may execute.  The chaos flag was
    # consumed, so its retry-free re-run now succeeds.
    monkeypatch.delenv(CHAOS_DIR_ENV)
    resumed = run_sweep(sweep_config(
        cache_dir=cache_dir, journal_path=journal, resume_from=journal
    ))
    assert resumed.complete
    assert resumed.resumed_tasks == 3
    assert _values(resumed) == _values(baseline)
    # The journal's new entries are exactly the previously missing cell.
    with open(journal) as fh:
        tasks = [
            obj
            for obj in (json.loads(line) for line in fh)
            if obj.get("kind") == "task"
        ]
    appended = tasks[len(journaled):]
    assert [(t["t_switch"], t["seed"]) for t in appended] == [(800.0, 0)]


@pytest.mark.skipif(
    not hasattr(signal, "SIGALRM"), reason="needs POSIX alarms in workers"
)
def test_hung_worker_times_out_and_recovers(tmp_path, monkeypatch):
    """A worker hanging outside the task's alarm (its heartbeat pump
    still beating) is stopped by the coordinator's hung-cell watchdog;
    the cell is retried as a timeout on a respawned worker and the
    sweep still converges."""
    chaos_dir = tmp_path / "chaos"
    chaos_dir.mkdir()
    cache_dir = str(tmp_path / "cache")
    baseline = run_sweep(sweep_config(workers=0, cache_dir=cache_dir))

    (chaos_dir / "hang-100-1").touch()
    monkeypatch.setenv(CHAOS_DIR_ENV, str(chaos_dir))
    registry().reset()
    started = time.perf_counter()
    result = run_sweep(sweep_config(
        cache_dir=cache_dir, task_timeout_s=1.0, max_task_retries=2
    ))
    assert time.perf_counter() - started < 120.0
    assert result.complete
    assert result.task_retries >= 1
    assert _values(result) == _values(baseline)
    assert registry().counter("repro_sweep_watchdog_kills_total").value >= 1
    assert registry().counter("repro_shard_worker_respawns_total").value >= 1
    (record,) = [
        r for r in result.telemetry if (r.t_switch, r.seed) == (100.0, 1)
    ]
    assert record.attempts >= 2


def test_backlog_deeper_than_watchdog_budget_is_not_killed(
    tmp_path, monkeypatch
):
    """Regression: the watchdog clock must start when a cell is granted
    or when the worker reports its previous cell, never when a whole
    shard is leased.  Timed per lease (or per submission), any backlog
    deeper than the watchdog budget reads as a fleet of hung workers:
    every worker is stopped repeatedly and healthy cells burn their
    retries into quarantine."""
    chaos_dir = tmp_path / "chaos"
    chaos_dir.mkdir()
    cache_dir = str(tmp_path / "cache")
    grid = dict(t_switch_values=(100.0,), seeds=tuple(range(8)))
    baseline = run_sweep(sweep_config(workers=0, cache_dir=cache_dir, **grid))

    # Every task dawdles 1s inside a 2s deadline; with two workers and
    # a zeroed grace the per-worker backlog (~4s+) far exceeds the 3s
    # watchdog budget, so lease-time deadlines would all blow.  Leases
    # of four cells make each worker's whole backlog one lease.
    for seed in grid["seeds"]:
        (chaos_dir / f"slow-100-{seed}").touch()
    monkeypatch.setenv(CHAOS_DIR_ENV, str(chaos_dir))
    monkeypatch.setattr(sharded, "_WATCHDOG_GRACE_S", 0.0)

    result = run_sweep(sweep_config(
        cache_dir=cache_dir, task_timeout_s=2.0, shard_size=4, **grid
    ))
    assert result.complete
    assert not result.errors
    assert result.task_retries == 0  # no spurious watchdog kills
    assert _values(result) == _values(baseline)
    assert not list(chaos_dir.iterdir())  # every slow- flag really fired
