"""The events-to-columns compiler, ``repro.core.compiled.StreamingCompiler``:
staging, dtypes, validation and bit-identity.

The event-loop driver writes every trace through a ``StreamingCompiler``
as it simulates, and ``array_columns`` feeds an event-backed trace's
``TraceEvent`` list through one after the fact.  The identity checks
below compare the driver's columns with the columns of an event-backed
copy of the generated trace, and the compiler's output at small block
sizes (so feeds cross many flushes) with ``array_columns`` (the
per-event reference of both is
``tests/core/test_engine_equivalence_properties.py``).
"""

import numpy as np
import pytest

from repro.core.compiled import (
    DEFAULT_BLOCK_EVENTS,
    FLOAT_DTYPE,
    INT_DTYPE,
    SEND,
    ArrayColumns,
    StreamingCompiler,
    array_columns,
    compile_trace,
    lower_columns,
)
from repro.core.trace import EventType, Trace, TraceError
from repro.workload.config import WorkloadConfig
from repro.workload.driver import _Driver, generate_trace


_COLUMNS = ("etype", "time", "host", "msg_id", "peer", "cell", "slot")


def _event_backed(trace: Trace) -> Trace:
    """An event-backed copy of *trace* (no columns attached)."""
    return Trace(
        n_hosts=trace.n_hosts,
        n_mss=trace.n_mss,
        events=list(trace.events),
        sim_time=trace.sim_time,
        meta=trace.meta,
    )


def _feed(trace: Trace, block_events: int) -> StreamingCompiler:
    """A compiler fed every event of *trace*, not yet finished."""
    compiler = StreamingCompiler(
        trace.n_hosts, trace.n_mss, trace.sim_time, block_events=block_events
    )
    for ev in trace.events:
        compiler.feed(
            ev.time, int(ev.etype), ev.host, ev.msg_id, ev.peer, ev.cell
        )
    return compiler


def _assert_identical(cols: ArrayColumns, trace: Trace) -> None:
    ref = array_columns(trace)
    # Field-by-field, so a failure names the diverging column.
    for name in (
        "n_hosts", "n_mss", "sim_time", "n_events", "n_sends", "n_receives",
    ):
        assert getattr(cols, name) == getattr(ref, name), name
    for name in _COLUMNS:
        a, b = getattr(cols, name), getattr(ref, name)
        assert a.dtype == b.dtype, name
        np.testing.assert_array_equal(a, b, err_msg=name)
    assert lower_columns(cols) == compile_trace(trace)


def _paper_cfgs():
    yield WorkloadConfig(sim_time=300.0)
    yield WorkloadConfig(sim_time=300.0, send_to_connected_only=False)
    yield WorkloadConfig(sim_time=300.0, p_switch=0.8, heterogeneity=0.3)


@pytest.mark.parametrize("cfg", list(_paper_cfgs()), ids=lambda c: "")
def test_streamed_equals_materialized_paper(cfg):
    # The loop's columns (compiled as it simulates) equal the columns
    # compiled from the columnar generator's events, at any block size.
    cfg = cfg.validate()
    trace = _event_backed(generate_trace(cfg))
    _assert_identical(array_columns(_Driver(cfg).run()), trace)
    _assert_identical(_feed(trace, 257).finish(), trace)


@pytest.mark.parametrize(
    "workload, params",
    [
        ("zipf", {"alpha": 1.2}),
        ("hotspot", {"n_hot": 2}),
        ("bursty", {}),
        ("daynight", {"period": 50.0}),
    ],
)
def test_streamed_equals_materialized_models(workload, params):
    cfg = WorkloadConfig(
        sim_time=200.0, workload=workload, workload_params=params
    ).validate()
    trace = _event_backed(generate_trace(cfg))
    _assert_identical(array_columns(_Driver(cfg).run()), trace)
    _assert_identical(_feed(trace, 100).finish(), trace)


def test_block_boundaries_do_not_change_content():
    trace = _event_backed(generate_trace(WorkloadConfig(sim_time=200.0)))
    for block_events in (1, 7, 64, 100, 257, 1000):
        _assert_identical(_feed(trace, block_events).finish(), trace)


def test_blocks_respect_block_events():
    # Staging is bounded: every block_events feeds become one narrow
    # part per column, and the python lists hold only the remainder.
    trace = _event_backed(generate_trace(WorkloadConfig(sim_time=200.0)))
    compiler = _feed(trace, 64)
    n = len(trace)
    assert n > 64
    for name in _COLUMNS:
        parts = compiler._parts[name]
        assert len(parts) == n // 64, name
        assert all(len(part) == 64 for part in parts), name
        assert len(getattr(compiler, "_" + name)) == n % 64, name


def test_storage_dtypes_and_nbytes():
    trace = _event_backed(generate_trace(WorkloadConfig(sim_time=150.0)))
    compiler = _feed(trace, 64)
    parts = {name: compiler._parts[name][0] for name in _COLUMNS}
    # Narrow staging dtypes (the memory bound of the compiler)...
    assert parts["etype"].dtype == np.dtype("int8")
    assert parts["time"].dtype == np.dtype(FLOAT_DTYPE)
    assert parts["msg_id"].dtype == np.dtype(INT_DTYPE)
    for name in ("host", "peer", "cell", "slot"):
        assert parts[name].dtype == np.dtype("int32"), name
    # ... 1+8+4+8+4+4+4 = 33 bytes per staged event.
    flushed = len(trace) // 64 * 64
    staged = sum(p.nbytes for ps in compiler._parts.values() for p in ps)
    assert staged == 33 * flushed


def test_finish_returns_array_columns_and_keeps_no_parts():
    trace = _event_backed(generate_trace(WorkloadConfig(sim_time=150.0)))
    compiler = _feed(trace, 64)
    cols = compiler.finish()
    assert isinstance(cols, ArrayColumns)
    # Widened to the engine's pinned dtypes...
    for name in _COLUMNS:
        expected = FLOAT_DTYPE if name == "time" else INT_DTYPE
        assert getattr(cols, name).dtype == np.dtype(expected), name
    # ... and the compiler keeps nothing of what it staged.
    assert compiler._parts == {}
    for name in _COLUMNS:
        assert getattr(compiler, "_" + name) == [], name


def test_out_of_range_feed_raises_not_wraps():
    # int8/int32 staging must never silently wrap: numpy raises at the
    # block flush if a value exceeds its column's range.
    compiler = StreamingCompiler(
        n_hosts=2, n_mss=2, sim_time=10.0, block_events=1
    )
    with pytest.raises(OverflowError):
        compiler.feed(1.0, 300, 0)  # etype beyond int8


def test_array_columns_matches_compiled_lowering():
    trace = _event_backed(generate_trace(WorkloadConfig(sim_time=200.0)))
    compiler = _feed(trace, 128)
    direct = compiler.finish()
    lowered = lower_columns(direct)
    assert lowered.etype == direct.etype.tolist()
    assert lowered.slot == direct.slot.tolist()
    assert (lowered.n_events, lowered.n_sends, lowered.n_receives) == (
        compiler.n_events, compiler.n_sends, compiler.n_receives
    )
    assert direct.n_events == len(trace)


def test_empty_stream():
    cols = StreamingCompiler(n_hosts=2, n_mss=2, sim_time=1.0).finish()
    assert len(cols) == 0
    for name in _COLUMNS:
        assert getattr(cols, name).shape == (0,), name
    assert cols.etype.dtype == np.dtype(INT_DTYPE)
    assert lower_columns(cols).n_events == 0


def test_duplicate_send_raises_like_compile_trace():
    compiler = StreamingCompiler(n_hosts=2, n_mss=2, sim_time=10.0)
    compiler.feed(1.0, int(EventType.SEND), 0, msg_id=7, peer=1)
    with pytest.raises(TraceError, match="duplicate send of msg 7"):
        compiler.feed(2.0, int(EventType.SEND), 0, msg_id=7, peer=1)


def test_orphan_receive_raises_like_compile_trace():
    compiler = StreamingCompiler(n_hosts=2, n_mss=2, sim_time=10.0)
    with pytest.raises(TraceError, match="never sent or was already consumed"):
        compiler.feed(1.0, int(EventType.RECEIVE), 1, msg_id=3, peer=0)


def test_feed_after_finish_raises():
    compiler = StreamingCompiler(n_hosts=2, n_mss=2, sim_time=10.0)
    compiler.finish()
    with pytest.raises(TraceError, match="already finished"):
        compiler.feed(1.0, int(EventType.INTERNAL), 0)


def test_block_events_must_be_positive():
    with pytest.raises(ValueError, match="block_events"):
        StreamingCompiler(n_hosts=2, n_mss=2, sim_time=1.0, block_events=0)


def test_slot_assignment_matches_send_order():
    compiler = StreamingCompiler(n_hosts=3, n_mss=2, sim_time=10.0)
    compiler.feed(1.0, SEND, 0, msg_id=10, peer=1)
    compiler.feed(2.0, SEND, 1, msg_id=11, peer=2)
    compiler.feed(3.0, int(EventType.RECEIVE), 2, msg_id=11, peer=1)
    compiler.feed(4.0, int(EventType.RECEIVE), 1, msg_id=10, peer=0)
    cols = compiler.finish()
    assert cols.n_sends == 2 and cols.n_receives == 2
    assert cols.slot.tolist() == [0, 1, 1, 0]


def test_in_flight_sends_at_horizon_are_fine():
    compiler = StreamingCompiler(n_hosts=2, n_mss=2, sim_time=10.0)
    compiler.feed(1.0, SEND, 0, msg_id=1, peer=1)
    cols = compiler.finish()
    assert cols.n_sends == 1 and cols.n_receives == 0


def test_default_block_events_is_sane():
    assert DEFAULT_BLOCK_EVENTS >= 1024
