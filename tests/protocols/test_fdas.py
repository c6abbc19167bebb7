"""Scripted-scenario tests for FDAS (fixed-dependency-after-send)."""

import pytest

from repro.protocols import BCSProtocol, FDASProtocol


def test_initial_state():
    p = FDASProtocol(3)
    assert p.lc == [0, 0, 0]
    assert p.sent_since_ckpt == [False, False, False]
    assert p.piggyback_ints == 1
    assert all(c.reason == "initial" for c in p.checkpoints)


def test_receive_only_interval_absorbs_clock_without_checkpoint():
    """The FDAS relaxation: no send since the last checkpoint means a
    higher piggybacked clock is adopted silently."""
    p = FDASProtocol(2)
    p.lc[0] = 3
    pg = p.on_send(0, 1, now=1.0)
    p.on_receive(1, pg, src=0, now=2.0)
    assert p.lc[1] == 3
    assert p.n_forced == 0  # where BCS would have forced


def test_higher_clock_after_send_forces_checkpoint():
    p = FDASProtocol(2)
    p.lc[0] = 3
    pg = p.on_send(0, 1, now=1.0)
    p.on_send(1, 0, now=1.5)  # host 1's interval now has a fixed dependency
    p.on_receive(1, pg, src=0, now=2.0)
    assert p.lc[1] == 3
    assert p.n_forced == 1
    forced = p.checkpoints[-1]
    assert forced.host == 1 and forced.index == 3 and forced.reason == "forced"
    # the forced checkpoint opens a fresh (not-yet-sent) interval
    assert p.sent_since_ckpt[1] is False


def test_checkpoint_resets_the_send_flag():
    p = FDASProtocol(2)
    p.on_send(0, 1, now=1.0)
    assert p.sent_since_ckpt[0] is True
    p.on_cell_switch(0, now=2.0, new_cell=1)
    assert p.sent_since_ckpt[0] is False
    assert p.lc[0] == 1 and p.n_basic == 1


def test_equal_or_lower_clock_never_checkpoints():
    p = FDASProtocol(2)
    p.on_send(1, 0, now=0.5)
    p.on_receive(1, 0, src=0, now=1.0)  # equal
    p.lc[1] = 5
    p.on_receive(1, 2, src=0, now=2.0)  # lower
    assert p.n_forced == 0 and p.lc[1] == 5


def test_forced_count_never_exceeds_bcs_on_shared_workloads():
    """FDAS only ever *skips* checkpoints BCS would take; on a shared
    schedule its forced count is bounded by BCS's."""
    from repro.engine import RunSpec, execute
    from repro.workload import WorkloadConfig

    for seed in (1, 7, 42):
        cfg = WorkloadConfig(
            n_hosts=8, n_mss=3, sim_time=2000.0, seed=seed
        ).validate()
        result = execute(RunSpec(protocols=("BCS", "FDAS"), workload=cfg))
        forced = {
            o.name: o.protocol.counter_signature()["n_forced"]
            for o in result.outcomes
        }
        assert forced["FDAS"] <= forced["BCS"], seed


def test_no_recovery_line_is_promised():
    """FDAS is RDT-only: adopting a clock without checkpointing breaks
    the equal-index line rule, so no on-the-fly line is exposed."""
    p = FDASProtocol(2)
    with pytest.raises(NotImplementedError):
        p.recovery_line_indices()


def test_clock_invariant_flags_regression():
    p = FDASProtocol(2)
    p.on_cell_switch(0, now=1.0, new_cell=1)
    assert p.invariant_violations() == []
    p.lc[0] = 0  # behind the latest checkpoint index: a protocol bug
    assert any("lc 0 <" in v for v in p.invariant_violations())


def test_rollback_restores_clock_and_send_flag():
    p = FDASProtocol(2)
    p.on_send(0, 1, now=1.0)
    p.on_cell_switch(0, now=2.0, new_cell=1)
    p.on_send(0, 1, now=3.0)
    p.lc[0] = 4
    p.rollback_to({0: 1}, now=5.0)
    assert p.lc[0] == 1
    assert p.sent_since_ckpt[0] is False


def test_registered_and_fusable_but_not_vectorizable():
    from repro.engine import resolve_protocols

    (entry,) = resolve_protocols(["FDAS"], require="replayable")
    assert entry.capabilities.replayable
    assert not entry.capabilities.vectorizable
