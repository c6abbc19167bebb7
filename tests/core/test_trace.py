"""Unit tests for traces (repro.core.trace)."""

import pytest

from repro.core.trace import EventType, Trace, TraceError, TraceEvent, build_trace


def ev(time, etype, host, **kw):
    return TraceEvent(time=time, etype=etype, host=host, **kw)


def test_build_trace_from_tuples_and_sorting():
    tr = build_trace(
        2,
        2,
        [
            (5.0, EventType.RECEIVE, 1, 7, 0),
            (1.0, EventType.SEND, 0, 7, 1),
        ],
    )
    assert [e.etype for e in tr] == [EventType.SEND, EventType.RECEIVE]
    assert tr.sim_time == 5.0


def test_validate_rejects_out_of_order():
    tr = Trace(
        2,
        2,
        events=[
            ev(5.0, EventType.SEND, 0, msg_id=1, peer=1),
            ev(1.0, EventType.RECEIVE, 1, msg_id=1, peer=0),
        ],
    )
    with pytest.raises(TraceError, match="out of order"):
        tr.validate()


def test_validate_rejects_receive_without_send():
    with pytest.raises(TraceError, match="never-sent"):
        build_trace(2, 2, [(1.0, EventType.RECEIVE, 1, 9, 0)])


def test_validate_rejects_double_consume():
    with pytest.raises(TraceError, match="consumed twice"):
        build_trace(
            2,
            2,
            [
                (1.0, EventType.SEND, 0, 3, 1),
                (2.0, EventType.RECEIVE, 1, 3, 0),
                (3.0, EventType.RECEIVE, 1, 3, 0),
            ],
        )


def test_validate_rejects_wrong_recipient():
    with pytest.raises(TraceError, match="received by"):
        build_trace(
            3,
            2,
            [
                (1.0, EventType.SEND, 0, 3, 1),
                (2.0, EventType.RECEIVE, 2, 3, 0),
            ],
        )


def test_validate_rejects_duplicate_send():
    with pytest.raises(TraceError, match="duplicate send"):
        build_trace(
            2,
            2,
            [(1.0, EventType.SEND, 0, 3, 1), (2.0, EventType.SEND, 0, 3, 1)],
        )


def test_validate_rejects_unknown_host_and_cell():
    with pytest.raises(TraceError, match="unknown host"):
        build_trace(2, 2, [(1.0, EventType.DISCONNECT, 5)])
    with pytest.raises(TraceError, match="unknown cell"):
        build_trace(2, 2, [(1.0, EventType.CELL_SWITCH, 0, -1, 0, 7)])


def test_validate_rejects_disconnected_activity():
    with pytest.raises(TraceError, match="disconnected host sends"):
        build_trace(
            2,
            2,
            [
                (1.0, EventType.DISCONNECT, 0),
                (2.0, EventType.SEND, 0, 3, 1),
            ],
        )
    with pytest.raises(TraceError, match="double disconnect"):
        build_trace(
            2,
            2,
            [(1.0, EventType.DISCONNECT, 0), (2.0, EventType.DISCONNECT, 0)],
        )
    with pytest.raises(TraceError, match="reconnect while connected"):
        build_trace(2, 2, [(1.0, EventType.RECONNECT, 0)])


def test_counts_and_helpers():
    tr = build_trace(
        2,
        2,
        [
            (1.0, EventType.SEND, 0, 1, 1),
            (2.0, EventType.RECEIVE, 1, 1, 0),
            (3.0, EventType.CELL_SWITCH, 0, -1, 0, 1),
            (4.0, EventType.DISCONNECT, 1),
            (5.0, EventType.SEND, 0, 2, 1),
        ],
    )
    assert tr.n_sends == 2
    assert tr.n_receives == 1
    assert tr.n_basic_triggers == 2
    assert tr.undelivered_messages() == 1
    assert len(tr.events_for(0)) == 3


def test_column_backed_counts_match_events_without_building_them():
    from repro.workload import WorkloadConfig, generate_trace

    trace = generate_trace(WorkloadConfig(sim_time=300.0, p_switch=0.8))
    counts = (trace.n_sends, trace.n_receives, trace.n_basic_triggers)
    assert "events" not in trace.__dict__
    copy = Trace(
        n_hosts=trace.n_hosts,
        n_mss=trace.n_mss,
        events=list(trace.events),
        sim_time=trace.sim_time,
    )
    assert counts == (copy.n_sends, copy.n_receives, copy.n_basic_triggers)
    assert all(c > 0 for c in counts)


def test_merged_with_shifts_times():
    a = build_trace(2, 2, [(1.0, EventType.SEND, 0, 1, 1)], sim_time=10.0)
    b = build_trace(2, 2, [(2.0, EventType.SEND, 0, 2, 1)], sim_time=10.0)
    merged = a.merged_with(b)
    assert merged.sim_time == 20.0
    assert merged.events[1].time == 12.0
    merged.validate()


def test_merged_with_rejects_different_systems():
    a = build_trace(2, 2, [])
    b = build_trace(3, 2, [])
    with pytest.raises(TraceError):
        a.merged_with(b)
