"""Property-based differential tests of the replay engines.

Random *bounded* workload configurations (hypothesis) drive the whole
pipeline -- generation, compilation, both replay engines -- and assert
the refactoring theorems the sweep engine rests on:

* compiling a trace loses nothing: every column of
  :class:`~repro.core.compiled.ArrayColumns` round-trips the event
  list, send slots are dense and receives resolve to their matching
  send's slot, and the fused engine's ``argv`` packs exactly the hook
  arguments -- on generated (column-backed) traces and on
  strategy-built (event-backed) ones;
* the fused engine is bit-identical to the reference engine: for every
  paper protocol, :func:`replay` and :func:`replay_fused` produce equal
  :meth:`counter_signature` dicts -- including in the counters-only
  mode the sweep runner actually uses;
* the vectorized engine closes the triangle: for every registered
  protocol that ships batch kernels, reference, fused and vectorized
  replay agree bit for bit on counters, checkpoint trails and recovery
  lines.
"""

import numpy as np
from hypothesis import given, settings

from repro.core.compiled import (
    DISCONNECT,
    FLOAT_DTYPE,
    INTERNAL,
    RECEIVE,
    SEND,
    array_columns,
)
from repro.core.replay import replay, replay_fused, replay_vectorized
from repro.protocols.base import registry
from repro.workload import generate_trace

# The workload strategy and figure corners are shared with the
# conformance kit -- see repro.testing.strategies.
from repro.testing.strategies import FIGURE_CORNERS, traces, workload_configs

PAPER_PROTOCOLS = ("TP", "BCS", "QBC")

#: Every registered protocol the vectorized engine may drive.
VECTORIZABLE = sorted(
    name
    for name, cls in registry.items()
    if getattr(cls, "vectorizable", False)
)


def _assert_columns_round_trip(trace):
    """The reference lowering, written out per event: every
    :class:`ArrayColumns` field against the :class:`TraceEvent` list,
    ``slot`` against a msg_id -> send-ordinal dict kept here, and the
    fused ``argv`` tuples against the events."""
    cols = array_columns(trace)
    c = trace.compiled()
    assert len(cols) == len(c) == len(trace.events)
    assert (cols.n_hosts, cols.n_mss, cols.sim_time) == (
        trace.n_hosts, trace.n_mss, trace.sim_time
    )
    assert cols.time.dtype == np.dtype(FLOAT_DTYPE)
    columns = {
        name: getattr(cols, name).tolist()
        for name in ("etype", "time", "host", "msg_id", "peer", "cell", "slot")
    }
    assert columns["etype"] == c.etype and columns["slot"] == c.slot

    ordinal_of_msg = {}
    n_receives = 0
    for i, ev in enumerate(trace.events):
        et = int(ev.etype)
        assert columns["etype"][i] == et
        assert columns["time"][i] == ev.time
        assert columns["host"][i] == ev.host
        assert columns["msg_id"][i] == ev.msg_id
        assert columns["peer"][i] == ev.peer
        assert columns["cell"][i] == ev.cell
        if et == SEND:
            # Send slots are the dense ordinals 0..n_sends-1 in order.
            ordinal_of_msg[ev.msg_id] = len(ordinal_of_msg)
            assert columns["slot"][i] == ordinal_of_msg[ev.msg_id]
            assert c.argv[i] == (ev.host, ev.peer, ev.time)
        elif et == RECEIVE:
            n_receives += 1
            assert columns["slot"][i] == ordinal_of_msg[ev.msg_id]
            assert c.argv[i] == (ev.host, ev.peer, ev.time)
        else:
            assert columns["slot"][i] == -1
            if et == DISCONNECT:
                assert c.argv[i] == (ev.host, ev.time)
            elif et == INTERNAL:
                assert c.argv[i] == ()
            else:
                assert c.argv[i] == (ev.host, ev.time, ev.cell)
    assert cols.n_sends == c.n_sends == len(ordinal_of_msg)
    assert cols.n_receives == c.n_receives == n_receives


@settings(max_examples=30, deadline=None)
@given(cfg=workload_configs())
def test_compiled_trace_round_trips_the_event_list(cfg):
    trace = generate_trace(cfg)
    assert "events" not in vars(trace)  # column-backed from the driver
    _assert_columns_round_trip(trace)


@settings(max_examples=50, deadline=None)
@given(trace=traces())
def test_event_backed_trace_compiles_to_the_event_list(trace):
    assert "_array_columns_cache" not in vars(trace)  # built from events
    _assert_columns_round_trip(trace)


@settings(max_examples=30, deadline=None)
@given(cfg=workload_configs())
def test_fused_replay_counters_match_reference_bitwise(cfg):
    trace = generate_trace(cfg)
    reference = {}
    for name in PAPER_PROTOCOLS:
        result = replay(trace, registry[name](cfg.n_hosts, cfg.n_mss))
        reference[name] = result.protocol.counter_signature()

    # Fused pass in the sweep engine's counters-only configuration.
    instances = []
    for name in PAPER_PROTOCOLS:
        protocol = registry[name](cfg.n_hosts, cfg.n_mss)
        protocol.log_checkpoints = False
        instances.append(protocol)
    replay_fused(trace, instances)
    for name, protocol in zip(PAPER_PROTOCOLS, instances):
        assert protocol.counter_signature() == reference[name], name


def _trail(protocol):
    return [
        (ck.host, ck.index, ck.reason, ck.time, ck.replaced, ck.metadata)
        for ck in protocol.checkpoints
    ]


def _recovery_line(protocol):
    try:
        return protocol.recovery_line_indices()
    except NotImplementedError:
        return None


@settings(max_examples=25, deadline=None)
@given(cfg=workload_configs())
def test_vectorized_replay_three_way_bit_identity(cfg):
    """reference ≡ fused ≡ vectorized, for every protocol with kernels:
    counters, full checkpoint trails (metadata included) and recovery
    lines all match bit for bit."""
    trace = generate_trace(cfg)
    for name in VECTORIZABLE:
        ref = replay(trace, registry[name](cfg.n_hosts, cfg.n_mss)).protocol

        fused = registry[name](cfg.n_hosts, cfg.n_mss)
        replay_fused(trace, [fused])

        vec = registry[name](cfg.n_hosts, cfg.n_mss)
        replay_vectorized(trace, [vec])

        for other in (fused, vec):
            assert other.counter_signature() == ref.counter_signature(), name
            assert _trail(other) == _trail(ref), name
            assert _recovery_line(other) == _recovery_line(ref), name


def test_vectorized_counters_only_at_figure_corners():
    """Counters-only mode -- the configuration the sweep runner uses --
    agrees three ways at the parameter corners of the paper figures."""
    for cfg in FIGURE_CORNERS:
        trace = generate_trace(cfg)
        for name in VECTORIZABLE:
            ref = replay(
                trace, registry[name](cfg.n_hosts, cfg.n_mss)
            ).protocol.counter_signature()

            fused = registry[name](cfg.n_hosts, cfg.n_mss)
            fused.log_checkpoints = False
            replay_fused(trace, [fused])

            vec = registry[name](cfg.n_hosts, cfg.n_mss)
            vec.log_checkpoints = False
            replay_vectorized(trace, [vec])

            assert fused.counter_signature() == ref, (name, cfg.t_switch)
            assert vec.counter_signature() == ref, (name, cfg.t_switch)
