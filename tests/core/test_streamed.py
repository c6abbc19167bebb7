"""Streaming trace compilation: blocks, dtypes and bit-identity.

The driver writes every trace through a ``StreamingCompiler`` as it
simulates.  The identity checks below compare those columns with the
columns of an event-backed copy of the generated trace, which
``array_columns`` compiles from its ``TraceEvent`` list after the fact
(the per-event reference of both is
``tests/core/test_engine_equivalence_properties.py``).
"""

import numpy as np
import pytest

from repro.core.compiled import (
    FLOAT_DTYPE,
    INT_DTYPE,
    SEND,
    array_columns,
    compile_trace,
    lower_columns,
)
from repro.core.streamed import (
    DEFAULT_BLOCK_EVENTS,
    StreamingCompiler,
    StreamedTrace,
)
from repro.core.trace import EventType, Trace, TraceError
from repro.workload.config import WorkloadConfig
from repro.workload.driver import generate_streamed, generate_trace


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


def _assert_identical(streamed: StreamedTrace, trace: Trace) -> None:
    cols, ref = streamed.array_columns(), array_columns(trace)
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
    cfg = cfg.validate()
    streamed = generate_streamed(cfg, block_events=257)
    _assert_identical(streamed, _event_backed(generate_trace(cfg)))


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
    streamed = generate_streamed(cfg, block_events=100)
    _assert_identical(streamed, _event_backed(generate_trace(cfg)))


def test_block_boundaries_do_not_change_content():
    cfg = WorkloadConfig(sim_time=200.0).validate()
    reference = generate_streamed(cfg, block_events=10_000_000).array_columns()
    for block_events in (1, 7, 64, 1000):
        cols = generate_streamed(cfg, block_events=block_events).array_columns()
        for name in _COLUMNS:
            np.testing.assert_array_equal(
                getattr(cols, name), getattr(reference, name), err_msg=name
            )


def test_blocks_respect_block_events():
    cfg = WorkloadConfig(sim_time=200.0).validate()
    streamed = generate_streamed(cfg, block_events=64)
    assert len(streamed.blocks) == -(-streamed.n_events // 64)  # ceil div
    assert all(len(b) == 64 for b in streamed.blocks[:-1])
    assert sum(len(b) for b in streamed.blocks) == streamed.n_events


def test_storage_dtypes_and_nbytes():
    cfg = WorkloadConfig(sim_time=150.0).validate()
    streamed = generate_streamed(cfg)
    block = streamed.blocks[0]
    # Narrow storage dtypes (the memory-bound claim of the module)...
    assert block.etype.dtype == np.dtype("int8")
    assert block.time.dtype == np.dtype(FLOAT_DTYPE)
    assert block.msg_id.dtype == np.dtype(INT_DTYPE)
    assert block.host.dtype == np.dtype("int32")
    assert block.slot.dtype == np.dtype("int32")
    # ... 1+8+4+8+4+4+4 = 33 bytes per event.
    assert streamed.nbytes == 33 * streamed.n_events
    # ... widened back to the engine's pinned lowering dtypes.
    cols = streamed.array_columns()
    assert cols.etype.dtype == np.dtype(INT_DTYPE)
    assert cols.time.dtype == np.dtype(FLOAT_DTYPE)
    assert cols.slot.dtype == np.dtype(INT_DTYPE)


def test_out_of_range_feed_raises_not_wraps():
    # int8/int32 storage must never silently wrap: numpy raises at the
    # block flush if a value exceeds its column's range.
    compiler = StreamingCompiler(
        n_hosts=2, n_mss=2, sim_time=10.0, block_events=1
    )
    with pytest.raises(OverflowError):
        compiler.feed(1.0, 300, 0)  # etype beyond int8


def test_array_columns_matches_compiled_lowering():
    cfg = WorkloadConfig(sim_time=200.0).validate()
    streamed = generate_streamed(cfg, block_events=128)
    direct = streamed.array_columns()
    lowered = lower_columns(direct)
    assert lowered.etype == direct.etype.tolist()
    assert lowered.slot == direct.slot.tolist()
    assert (lowered.n_events, lowered.n_sends, lowered.n_receives) == (
        streamed.n_events, streamed.n_sends, streamed.n_receives
    )
    assert direct.n_events == streamed.n_events


def test_empty_stream():
    streamed = StreamingCompiler(n_hosts=2, n_mss=2, sim_time=1.0).finish()
    assert len(streamed) == 0
    assert streamed.blocks == ()
    assert streamed.array_columns().n_events == 0
    assert lower_columns(streamed.array_columns()).n_events == 0


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
    streamed = compiler.finish()
    assert streamed.n_sends == 2 and streamed.n_receives == 2
    assert streamed.blocks[0].slot.tolist() == [0, 1, 1, 0]


def test_in_flight_sends_at_horizon_are_fine():
    compiler = StreamingCompiler(n_hosts=2, n_mss=2, sim_time=10.0)
    compiler.feed(1.0, SEND, 0, msg_id=1, peer=1)
    streamed = compiler.finish()
    assert streamed.n_sends == 1 and streamed.n_receives == 0


def test_default_block_events_is_sane():
    assert DEFAULT_BLOCK_EVENTS >= 1024
