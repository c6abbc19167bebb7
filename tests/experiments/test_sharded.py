"""Tests for the sharded sweep service (repro.experiments.sharded):
frame layer, address parsing, config validation, and fault-free
end-to-end dispatch (value identity, journaling, resume, metrics).

Whole-worker fault injection lives in test_sharded_chaos.py.
"""

import json
import multiprocessing
import socket
import threading

import pytest

from repro.experiments import SweepConfig, SweepJournal, run_sweep
from repro.experiments import runner as runner_mod
from repro.experiments.resilience import sweep_config_hash
from repro.experiments.sharded import (
    AUTHKEY_ENV,
    PROTOCOL_VERSION,
    FrameError,
    VersionMismatch,
    parse_address,
    recv_frame,
    send_frame,
    worker_main,
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
        shard_heartbeat_s=0.2,
        shard_lease_timeout_s=2.0,
        **GRID,
    )
    kw.update(overrides)
    return SweepConfig(**kw)


def _values(result):
    return [[r for r in p.runs] for p in result.points]


# ----------------------------------------------------------------------
# the frame layer
# ----------------------------------------------------------------------
def test_frame_roundtrip():
    a, b = multiprocessing.Pipe()
    try:
        send_frame(a, {"kind": "heartbeat", "shard_id": 7})
        msg = recv_frame(b)
        assert msg == {"kind": "heartbeat", "shard_id": 7}
    finally:
        a.close()
        b.close()


def test_frame_rejects_version_skew():
    import struct

    a, b = multiprocessing.Pipe()
    try:
        import pickle

        payload = pickle.dumps({"kind": "hello"})
        a.send_bytes(
            struct.pack("!II", PROTOCOL_VERSION + 1, len(payload)) + payload
        )
        with pytest.raises(
            VersionMismatch, match=f"protocol v{PROTOCOL_VERSION + 1}"
        ):
            recv_frame(b)
    finally:
        a.close()
        b.close()


def test_frame_rejects_torn_payload():
    import pickle
    import struct

    a, b = multiprocessing.Pipe()
    try:
        payload = pickle.dumps({"kind": "hello"})
        # Header promises more bytes than the frame carries.
        a.send_bytes(
            struct.pack("!II", PROTOCOL_VERSION, len(payload) + 10) + payload
        )
        with pytest.raises(FrameError, match="torn frame"):
            recv_frame(b)
        a.send_bytes(b"\x00")
        with pytest.raises(FrameError, match="short frame"):
            recv_frame(b)
    finally:
        a.close()
        b.close()


def test_frame_rejects_untagged_payload():
    a, b = multiprocessing.Pipe()
    try:
        send_frame(a, {"no-kind": True})
        with pytest.raises(FrameError, match="tagged message"):
            recv_frame(b)
    finally:
        a.close()
        b.close()


# ----------------------------------------------------------------------
# addresses and config validation
# ----------------------------------------------------------------------
def test_parse_address():
    assert parse_address("127.0.0.1:9000") == ("127.0.0.1", 9000)
    assert parse_address("host.example:0") == ("host.example", 0)


@pytest.mark.parametrize(
    "bad", ["no-port", ":9000", "h:notaport", "h:99999", "h:-1"]
)
def test_parse_address_rejects(bad):
    with pytest.raises(ValueError):
        parse_address(bad)


@pytest.mark.parametrize(
    "bad",
    [
        {"workers": -1},
        {"shard_listen": "no-port"},
        {"shard_size": 0},
        {"shard_heartbeat_s": 0.0},
        {"shard_heartbeat_s": 2.0, "shard_lease_timeout_s": 1.0},
    ],
)
def test_shard_knobs_are_validated(bad):
    with pytest.raises(ValueError):
        sweep_config(**bad).validate()


# ----------------------------------------------------------------------
# fault-free end-to-end dispatch
# ----------------------------------------------------------------------
def test_sharded_sweep_is_value_identical_to_serial():
    serial = run_sweep(sweep_config(workers=0))
    registry().reset()
    # A fast pump so even this short grid observes heartbeat traffic.
    sharded = run_sweep(sweep_config(shard_heartbeat_s=0.02))
    assert _values(sharded) == _values(serial)
    assert sharded.complete
    assert sharded.errors == []
    # The grid went out as leases, and workers pumped liveness.
    assert registry().counter("repro_shard_leases_granted_total").value >= 1
    assert registry().counter("repro_shard_heartbeats_total").value >= 1


def test_sharded_sweep_journals_each_cell_exactly_once(tmp_path):
    path = str(tmp_path / "sweep.jsonl")
    cfg = sweep_config(journal_path=path)
    result = run_sweep(cfg)
    assert result.complete
    with open(path) as fh:
        lines = [json.loads(l) for l in fh if l.strip()]
    tasks = [l for l in lines if l["kind"] == "task"]
    cells = [(l["t_switch"], l["seed"]) for l in tasks]
    assert sorted(cells) == sorted(
        (t, s) for t in GRID["t_switch_values"] for s in GRID["seeds"]
    )
    assert len(cells) == len(set(cells))  # exactly once


def test_sharded_resume_runs_only_missing_cells(tmp_path):
    path = str(tmp_path / "sweep.jsonl")
    cfg = sweep_config(journal_path=path)
    run_sweep(cfg)
    # Drop one cell from the ledger; the resumed sharded run must
    # re-execute just that one.
    with open(path) as fh:
        lines = fh.readlines()
    kept = [
        l
        for l in lines
        if '"kind": "header"' in l or '"t_switch": 100.0' in l
    ]
    with open(path, "w") as fh:
        fh.writelines(kept)
    resumed = run_sweep(
        sweep_config(journal_path=path, resume_from=path)
    )
    assert resumed.complete
    assert resumed.resumed_tasks == 2  # the two t=100 cells survived
    entries = SweepJournal.load(path, sweep_config_hash(cfg))
    assert len(entries) == 4  # ledger healed, no duplicates


def test_late_results_from_revoked_lease_are_fenced():
    """Coordinator-level lease fencing, deterministically: a result
    arriving after its lease was revoked is accepted at most once
    (first-wins) and any further copy is dropped as a duplicate."""
    import random
    from types import SimpleNamespace

    from repro.experiments.progress import ProgressReporter
    from repro.experiments.resilience import ExecutionReport, _TaskSpec
    from repro.experiments.sharded import _Coordinator, _WorkerState

    registry().reset()
    cfg = sweep_config(shard_size=1)
    specs = [_TaskSpec(0, 100.0, 0), _TaskSpec(1, 800.0, 0)]
    report = ExecutionReport(outcomes=[None, None])
    coord = _Coordinator(
        cfg,
        specs,
        report,
        None,  # no journal
        SimpleNamespace(triggered=False),
        random.Random(0),
        ProgressReporter(total=2, enabled=False),
    )
    a, b = multiprocessing.Pipe()
    try:
        worker = _WorkerState(worker_id=0, conn=a)
        coord.workers[0] = worker
        assert coord._grant(worker)  # leases cell (100.0, 0)
        lease = worker.lease
        assert [s.index for s in lease.specs] == [0]
        coord._revoke(lease, "heartbeat-timeout")

        telemetry = SimpleNamespace(attempts=0, cache_hit=False)
        late = {
            "kind": "outcome",
            "shard_id": lease.shard_id,
            "cell": (100.0, 0),
            "outcome": (100.0, 0, [], telemetry, []),
        }
        coord._handle(worker, dict(late), now=0.0)
        # First-wins: the late result still lands (stale, not lost) ...
        assert report.outcomes[0] is not None
        assert registry().counter("repro_shard_stale_results_total").value == 1
        # ... and a second copy is dropped, never recorded twice.
        coord._handle(worker, dict(late), now=0.0)
        assert (
            registry().counter("repro_shard_duplicates_dropped_total").value
            == 1
        )
        assert coord.open_cells == 1  # decremented exactly once
    finally:
        a.close()
        b.close()


def test_sharded_external_only_with_no_worker_quarantines(monkeypatch):
    """A listen-only service (workers=0) that never sees a worker must
    degrade to explicit worker-lost holes, not hang."""
    cfg = sweep_config(
        workers=0,
        shard_listen="127.0.0.1:0",
        shard_lease_timeout_s=0.5,
        shard_heartbeat_s=0.1,
    )
    result = run_sweep(cfg)
    assert result.n_holes == 4
    assert all(e.kind == "worker-lost" for e in result.errors)


@pytest.mark.parametrize("retries", [0, 1])
def test_system_exit_on_shard_worker_is_a_task_error(monkeypatch, retries):
    """A task raising SystemExit on a shard worker is reported as a
    ``worker-crash`` task error -- retried while the budget lasts, then
    quarantined -- and the worker's serve loop survives it: the one
    worker of this sweep goes on to finish every other cell and exits
    cleanly on the coordinator's shutdown."""
    real = runner_mod._evaluate_task
    # With a retry budget the cell fails once; without, every time.
    exits_left = [1 if retries else 99]

    def exiting(base, t_switch, seed, *rest, **kw):
        if (t_switch, seed) == (800.0, 1) and exits_left[0] > 0:
            exits_left[0] -= 1
            raise SystemExit(2)
        return real(base, t_switch, seed, *rest, **kw)

    monkeypatch.setattr(runner_mod, "_evaluate_task", exiting)
    monkeypatch.setenv(AUTHKEY_ENV, "ab" * 16)
    with socket.socket() as probe:
        probe.bind(("127.0.0.1", 0))
        port = probe.getsockname()[1]
    codes = []
    # An in-process worker thread, so the patched task body is the one
    # it runs; workers=0 makes the coordinator listen-only.
    worker = threading.Thread(
        target=lambda: codes.append(
            worker_main(("127.0.0.1", port), bytes.fromhex("ab" * 16))
        ),
        daemon=True,
    )
    worker.start()
    result = run_sweep(sweep_config(
        workers=0,
        shard_listen=f"127.0.0.1:{port}",
        max_task_retries=retries,
    ))
    worker.join(timeout=30)
    assert codes == [0]  # drained by the coordinator, never crashed
    done = {(p.t_switch, r.seed) for p in result.points for r in p.runs}
    if retries:
        assert result.complete
        assert result.task_retries == 1
        (record,) = [
            r for r in result.telemetry if (r.t_switch, r.seed) == (800.0, 1)
        ]
        assert record.attempts == 2
    else:
        assert result.n_holes == 1
        (error,) = result.errors
        assert error.kind == "worker-crash"
        assert (error.t_switch, error.seed) == (800.0, 1)
        assert "SystemExit" in error.detail
        assert done == {(100.0, 0), (100.0, 1), (800.0, 0)}


@pytest.mark.parametrize("n_seeds, kept", [(4, 16), (5, 0)])
def test_hello_carries_the_memory_tier_rule(
    tmp_path, monkeypatch, n_seeds, kept
):
    """A shard worker keeps its cells' traces in the memory tier only
    when the hello frame says the sweep's grid fits there."""
    from repro.workload import cache as cache_mod

    monkeypatch.setattr(cache_mod, "_shared", {})
    monkeypatch.setenv(AUTHKEY_ENV, "ab" * 16)
    with socket.socket() as probe:
        probe.bind(("127.0.0.1", 0))
        port = probe.getsockname()[1]
    codes = []
    # An in-process worker thread shares this process's trace cache.
    worker = threading.Thread(
        target=lambda: codes.append(
            worker_main(("127.0.0.1", port), bytes.fromhex("ab" * 16))
        ),
        daemon=True,
    )
    worker.start()
    result = run_sweep(sweep_config(
        workers=0,
        shard_listen=f"127.0.0.1:{port}",
        base=WorkloadConfig(p_switch=0.8, sim_time=100.0),
        t_switch_values=(100.0, 200.0, 400.0, 800.0),
        seeds=tuple(range(n_seeds)),
        cache_dir=str(tmp_path),
    ))
    worker.join(timeout=30)
    assert codes == [0]
    assert result.complete
    assert len(cache_mod.shared_cache(str(tmp_path))) == kept


def test_parallel_sweep_telemetry_counts_every_lane(tmp_path, monkeypatch):
    """``workers=2`` is the lane count the telemetry summary divides
    busy time by, and both worker processes report busy time."""
    from repro.experiments.resilience import CHAOS_DIR_ENV

    # One second per cell: neither worker can drain the grid before
    # the other has registered.
    chaos_dir = tmp_path / "chaos"
    chaos_dir.mkdir()
    for t in GRID["t_switch_values"]:
        for seed in GRID["seeds"]:
            (chaos_dir / f"slow-{t:g}-{seed}").touch()
    monkeypatch.setenv(CHAOS_DIR_ENV, str(chaos_dir))
    result = run_sweep(sweep_config(workers=2, shard_size=1))
    assert result.complete
    summary = result.telemetry_summary()
    assert summary.workers == 2
    assert len(summary.busy_by_pid) == 2
