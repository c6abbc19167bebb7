"""Unit tests for trace replay (repro.core.replay)."""

import pytest

from repro.core.replay import replay, replay_fused
from repro.core.trace import EventType, build_trace
from repro.protocols import BCSProtocol, QBCProtocol, TwoPhaseProtocol
from repro.workload import WorkloadConfig, generate_trace, run_online

S, R, C, D, RC = (
    EventType.SEND,
    EventType.RECEIVE,
    EventType.CELL_SWITCH,
    EventType.DISCONNECT,
    EventType.RECONNECT,
)


def small_trace():
    # h0 switches (sn->1), sends to h1 (forces under BCS), h1 disconnects.
    return build_trace(
        2,
        2,
        [
            (1.0, C, 0, -1, 0, 1),
            (2.0, S, 0, 10, 1),
            (3.0, R, 1, 10, 0),
            (4.0, D, 1),
            (5.0, RC, 1, -1, -1, 0),
        ],
    )


def test_replay_bcs_counts():
    res = replay(small_trace(), BCSProtocol(2))
    assert res.metrics.stats.n_basic == 2  # switch + disconnect
    assert res.metrics.stats.n_forced == 1
    assert res.n_total == 3
    assert res.metrics.n_sends == 1
    assert res.metrics.n_receives == 1


def test_replay_piggyback_total_scales_with_protocol():
    bcs = replay(small_trace(), BCSProtocol(2))
    tp = replay(small_trace(), TwoPhaseProtocol(2))
    assert bcs.metrics.piggyback_ints_total == 1
    assert tp.metrics.piggyback_ints_total == 4  # 2 vectors x 2 hosts


def test_replay_host_count_mismatch_rejected():
    with pytest.raises(ValueError, match="sized for"):
        replay(small_trace(), BCSProtocol(5))


def test_replay_unreplayable_protocol_rejected():
    p = BCSProtocol(2)
    p.replayable = False
    with pytest.raises(ValueError, match="not replayable"):
        replay(small_trace(), p)


def test_replay_unsent_message_raises():
    from repro.core.trace import Trace, TraceEvent

    bad = Trace(
        2,
        2,
        events=[TraceEvent(time=1.0, etype=R, host=1, msg_id=99, peer=0)],
    )
    with pytest.raises(ValueError, match="never sent"):
        replay(bad, BCSProtocol(2))


def test_replay_fused_gives_pointwise_comparison():
    trace = small_trace()
    results = replay_fused(
        trace, [TwoPhaseProtocol(2), BCSProtocol(2), QBCProtocol(2)]
    )
    names = [r.metrics.protocol for r in results]
    assert names == ["TP", "BCS", "QBC"]
    # basics identical across protocols: they are trace-mandated
    assert len({r.metrics.stats.n_basic for r in results}) == 1


def test_replay_deterministic():
    cfg = WorkloadConfig(sim_time=500.0, seed=3, t_switch=100.0, p_switch=0.8)
    t1, t2 = generate_trace(cfg), generate_trace(cfg)
    r1 = replay(t1, QBCProtocol(cfg.n_hosts))
    r2 = replay(t2, QBCProtocol(cfg.n_hosts))
    assert r1.n_total == r2.n_total
    assert [c.index for c in r1.protocol.checkpoints] == [
        c.index for c in r2.protocol.checkpoints
    ]


def test_replay_matches_online_execution():
    """The core design claim: replaying a generated trace produces the
    same checkpoints as running the protocol inside the simulation."""
    cfg = WorkloadConfig(sim_time=800.0, seed=11, t_switch=150.0, p_switch=0.8)
    trace = generate_trace(cfg)
    replayed = replay(trace, BCSProtocol(cfg.n_hosts))
    online = run_online(cfg, BCSProtocol(cfg.n_hosts))
    assert replayed.metrics.stats.n_basic == online.metrics.stats.n_basic
    assert replayed.metrics.stats.n_forced == online.metrics.stats.n_forced
    assert [
        (c.host, c.index, c.reason) for c in replayed.protocol.checkpoints
    ] == [(c.host, c.index, c.reason) for c in online.protocol.checkpoints]


def test_basic_count_equals_trace_triggers():
    cfg = WorkloadConfig(sim_time=600.0, seed=5, t_switch=100.0, p_switch=0.7)
    trace = generate_trace(cfg)
    res = replay(trace, BCSProtocol(cfg.n_hosts))
    assert res.metrics.stats.n_basic == trace.n_basic_triggers
