"""Unit tests for trace compilation (repro.core.compiled)."""

import pytest

from repro.core.compiled import (
    CELL_SWITCH,
    DISCONNECT,
    RECEIVE,
    RECONNECT,
    SEND,
    CompiledTrace,
    array_columns,
    compile_trace,
)
from repro.core.trace import Trace, TraceError, TraceEvent, EventType, build_trace
from repro.workload import WorkloadConfig, generate_trace

S, R, C, D, RC = (
    EventType.SEND,
    EventType.RECEIVE,
    EventType.CELL_SWITCH,
    EventType.DISCONNECT,
    EventType.RECONNECT,
)


def sample_trace():
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


def test_columns_match_events():
    trace = sample_trace()
    ct = compile_trace(trace)
    assert isinstance(ct, CompiledTrace)
    assert len(ct) == len(trace.events) == ct.n_events
    assert ct.etype == [CELL_SWITCH, SEND, RECEIVE, DISCONNECT, RECONNECT]
    assert all(isinstance(e, int) and not isinstance(e, EventType)
               for e in ct.etype)
    cols = array_columns(trace)
    assert cols.n_hosts == 2 and cols.n_mss == 2
    assert cols.etype.tolist() == ct.etype
    assert cols.time.tolist() == [1.0, 2.0, 3.0, 4.0, 5.0]
    assert cols.host.tolist() == [0, 0, 1, 1, 1]
    assert cols.cell.tolist() == [1, -1, -1, -1, 0]


def test_slot_mapping_links_send_and_receive():
    ct = compile_trace(sample_trace())
    assert ct.n_sends == 1 and ct.n_receives == 1
    assert ct.slot == [-1, 0, 0, -1, -1]  # receive carries its send's slot


def test_argv_packs_hook_arguments():
    ct = compile_trace(sample_trace())
    assert ct.argv[0] == (0, 1.0, 1)  # cell switch: (host, now, cell)
    assert ct.argv[1] == (0, 1, 2.0)  # send: (host, dst, now)
    assert ct.argv[2] == (1, 0, 3.0)  # receive: (host, src, now)
    assert ct.argv[3] == (1, 4.0)     # disconnect: (host, now)
    assert ct.argv[4] == (1, 5.0, 0)  # reconnect: (host, now, cell)


def _raw_trace(events):
    # Bypass build_trace's validation: the events-to-columns compiler
    # must catch these on its own for unvalidated traces.
    return Trace(
        n_hosts=2,
        n_mss=2,
        events=[
            TraceEvent(time=t, etype=e, host=h, msg_id=m, peer=p, cell=-1)
            for t, e, h, m, p in events
        ],
        sim_time=10.0,
    )


def test_receive_without_send_rejected():
    trace = _raw_trace([(1.0, R, 1, 99, 0)])
    for lower in (array_columns, compile_trace):
        with pytest.raises(
            TraceError,
            match="receive of msg 99 that was never sent or was already "
            "consumed",
        ):
            lower(trace)


def test_duplicate_send_rejected():
    trace = _raw_trace([(1.0, S, 0, 10, 1), (2.0, S, 0, 10, 1)])
    for lower in (array_columns, compile_trace):
        with pytest.raises(TraceError, match="duplicate send of msg 10"):
            lower(trace)


def test_double_consumed_receive_rejected():
    trace = _raw_trace(
        [(1.0, S, 0, 10, 1), (2.0, R, 1, 10, 0), (3.0, R, 1, 10, 0)]
    )
    with pytest.raises(TraceError, match="msg 10 that was never sent or was"):
        array_columns(trace)


def test_compiled_accessor_caches_per_trace():
    trace = sample_trace()
    first, cols = trace.compiled(), array_columns(trace)
    assert trace.compiled() is first and array_columns(trace) is cols
    trace.events.append(trace.events[-1])
    # Event count changed: both lowerings are rebuilt.
    assert trace.compiled() is not first and array_columns(trace) is not cols
    assert trace.compiled().n_events == len(cols) + 1


def test_generated_trace_compiles_consistently():
    trace = generate_trace(WorkloadConfig(sim_time=500.0, seed=3))
    ct = trace.compiled()
    msg_id = array_columns(trace).msg_id.tolist()
    assert ct.n_sends == trace.n_sends
    sends = [i for i, e in enumerate(ct.etype) if e == SEND]
    assert sorted(ct.slot[i] for i in sends) == list(range(ct.n_sends))
    for i, e in enumerate(ct.etype):
        if e == RECEIVE:
            slot = ct.slot[i]
            senders = [
                j for j in sends
                if ct.slot[j] == slot and msg_id[j] == msg_id[i]
            ]
            assert len(senders) == 1
