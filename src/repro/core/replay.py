"""Trace-driven protocol evaluation.

Replays a :class:`~repro.core.trace.Trace` through a protocol instance:
every SEND event asks the protocol for the piggyback it would attach;
every RECEIVE event hands the *stored* piggyback of that message to the
receiver.  Because checkpoint insertion is instantaneous in the paper's
model, this reproduces exactly what the protocol would have done inside
the simulation -- while letting every protocol see the *identical*
schedule (the paper's common-random-numbers comparison) and running
several times faster than the full event simulation.

Three passes share the contract:

* :func:`replay` -- the reference implementation: one protocol, one
  pass over the raw :class:`~repro.core.trace.TraceEvent` list.
* :func:`replay_fused` -- N fresh protocol instances driven over one
  *compiled* trace (the dispatch program :mod:`repro.core.compiled`
  lowers from the trace's columns) in a single pass, with a flat
  slot-indexed piggyback store per protocol instead of a hash table.
* :func:`replay_vectorized` -- N fresh instances as batch kernels
  over the trace's array columns (:mod:`repro.core.vectorized`).

The equivalence suites assert all three produce bit-identical
checkpoint sequences for every registered protocol; the invariant
audit (:mod:`repro.obs.audit`) checks each audited engine run against
a reference replay.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from repro.core import compiled as _compiled
from repro.core import vectorized as _vectorized
from repro.core.metrics import CheckpointStats, ProtocolRunMetrics
from repro.core.trace import EventType, Trace
from repro.protocols.base import CheckpointingProtocol


@dataclass(slots=True)
class ReplayResult:
    """Outcome of one (trace, protocol) replay."""

    protocol: CheckpointingProtocol
    metrics: ProtocolRunMetrics

    @property
    def n_total(self) -> int:
        """The run's N_tot (basic + forced checkpoints)."""
        return self.metrics.n_total


def _check_replayable(trace: Trace, protocol: CheckpointingProtocol) -> None:
    """Shared entry validation of both engines."""
    if not protocol.replayable:
        raise ValueError(
            f"protocol {protocol.name} is not replayable; use repro.core.online"
        )
    if protocol.n_hosts != trace.n_hosts:
        raise ValueError(
            f"protocol sized for {protocol.n_hosts} hosts, trace has {trace.n_hosts}"
        )


def _run_metrics(
    trace: Trace,
    protocol: CheckpointingProtocol,
    n_sends: int,
    n_receives: int,
    seed: Optional[int],
) -> ProtocolRunMetrics:
    """Assemble the metrics record both engines return."""
    return ProtocolRunMetrics(
        protocol=protocol.name,
        stats=CheckpointStats.from_protocol(protocol),
        n_sends=n_sends,
        n_receives=n_receives,
        piggyback_ints_total=n_sends * protocol.piggyback_ints,
        sim_time=trace.sim_time,
        seed=seed if seed is not None else trace.meta.get("seed"),
    )


def _require_kernel(protocol: CheckpointingProtocol) -> None:
    """Reject a protocol that ships no vectorized kernel."""
    if not protocol.vectorizable:
        raise _vectorized.VectorizationError(
            f"protocol {protocol.name} has no vectorized kernel; "
            "use replay_fused"
        )


def replay(
    trace: Trace,
    protocol: CheckpointingProtocol,
    seed: Optional[int] = None,
) -> ReplayResult:
    """Run *protocol* over *trace*; returns protocol + metrics.

    The protocol instance is mutated (it accumulates its checkpoint log)
    and must be fresh.  Raises if the protocol is not replayable (the
    coordinated baselines inject control messages and need
    :mod:`repro.core.online`).
    """
    _check_replayable(trace, protocol)
    # msg_id -> (piggyback, src); entries are dropped once consumed.
    in_flight: dict[int, tuple[object, int]] = {}
    n_sends = 0
    n_receives = 0
    # Local bindings for the hot loop.
    on_send = protocol.on_send
    on_receive = protocol.on_receive
    on_cell_switch = protocol.on_cell_switch
    on_disconnect = protocol.on_disconnect
    on_reconnect = protocol.on_reconnect
    SEND, RECEIVE = EventType.SEND, EventType.RECEIVE
    CELL_SWITCH, DISCONNECT = EventType.CELL_SWITCH, EventType.DISCONNECT
    RECONNECT = EventType.RECONNECT

    for ev in trace.events:
        et = ev.etype
        if et is SEND:
            piggyback = on_send(ev.host, ev.peer, ev.time)
            in_flight[ev.msg_id] = (piggyback, ev.host)
            n_sends += 1
        elif et is RECEIVE:
            try:
                piggyback, src = in_flight.pop(ev.msg_id)
            except KeyError:
                raise ValueError(
                    f"trace receives msg {ev.msg_id} that was never sent "
                    "(validate() the trace first)"
                ) from None
            on_receive(ev.host, piggyback, src, ev.time)
            n_receives += 1
        elif et is CELL_SWITCH:
            on_cell_switch(ev.host, ev.time, ev.cell)
        elif et is DISCONNECT:
            on_disconnect(ev.host, ev.time)
        elif et is RECONNECT:
            on_reconnect(ev.host, ev.time, ev.cell)
        # INTERNAL events carry no protocol action.

    metrics = _run_metrics(trace, protocol, n_sends, n_receives, seed)
    return ReplayResult(protocol=protocol, metrics=metrics)


def replay_fused(
    trace: Trace,
    protocols: Sequence[CheckpointingProtocol],
    seed: Optional[int] = None,
) -> list[ReplayResult]:
    """Drive several fresh protocol instances over *trace* in one pass.

    Equivalent to ``[replay(trace, p, seed) for p in protocols]`` (the
    instances share no state, so interleaving cannot change any
    outcome) but decodes every event exactly once: the trace is lowered
    to its compiled structure-of-arrays form
    (:meth:`~repro.core.trace.Trace.compiled`, cached on the trace) and
    each protocol keeps a flat piggyback store indexed by the
    precomputed send slot -- no per-message hashing, no dataclass
    attribute loads, no enum comparisons in the hot loop.
    """
    for protocol in protocols:
        _check_replayable(trace, protocol)
    ct = trace.compiled()
    # One piggyback store per protocol: the "in-flight table", laid out
    # as a list indexed by the send's compile-time slot.
    stores: list[list[object]] = [[None] * ct.n_sends for _ in protocols]
    send_pairs = [(p.on_send, store) for p, store in zip(protocols, stores)]
    recv_pairs = [(p.on_receive, store) for p, store in zip(protocols, stores)]
    switch_hooks = [p.on_cell_switch for p in protocols]
    disconnect_hooks = [p.on_disconnect for p in protocols]
    reconnect_hooks = [p.on_reconnect for p in protocols]
    SEND, RECEIVE = _compiled.SEND, _compiled.RECEIVE
    CELL_SWITCH, DISCONNECT = _compiled.CELL_SWITCH, _compiled.DISCONNECT
    RECONNECT = _compiled.RECONNECT

    for et, slot, args in zip(ct.etype, ct.slot, ct.argv):
        if et == SEND:
            # args = (host, dst, now), exactly the on_send signature.
            for on_send, store in send_pairs:
                store[slot] = on_send(*args)
        elif et == RECEIVE:
            # args = (host, src, now); src is the original sender by
            # trace invariant.  Nulling the slot after consumption
            # releases the piggyback right away (like the reference
            # engine's dict pop), which keeps the allocator hot for
            # piggyback-heavy protocols like TP.
            h, src, t = args
            for on_receive, store in recv_pairs:
                on_receive(h, store[slot], src, t)
                store[slot] = None
        elif et == CELL_SWITCH:
            for hook in switch_hooks:
                hook(*args)
        elif et == DISCONNECT:
            for hook in disconnect_hooks:
                hook(*args)
        elif et == RECONNECT:
            for hook in reconnect_hooks:
                hook(*args)
        # INTERNAL events carry no protocol action.

    return [
        ReplayResult(
            protocol=p,
            metrics=_run_metrics(trace, p, ct.n_sends, ct.n_receives, seed),
        )
        for p in protocols
    ]


def replay_vectorized(
    trace: Trace,
    protocols: Sequence[CheckpointingProtocol],
    seed: Optional[int] = None,
) -> list[ReplayResult]:
    """Drive several fresh protocol instances over *trace* as batch
    kernels -- the fused contract with no per-event dispatch at all.

    Every protocol must declare ``vectorizable`` and ship a
    ``vectorized_replay`` kernel (see :mod:`repro.core.vectorized`);
    results are bit-identical to :func:`replay` / :func:`replay_fused`
    -- counters, live state and (in logging mode) the checkpoint log --
    which the equivalence suite asserts per protocol.
    """
    for protocol in protocols:
        _check_replayable(trace, protocol)
        _require_kernel(protocol)
    # A memo hit is no lowering: read it first, as Trace.compiled()
    # does, and go through the module only on a miss, so a wrapped
    # lowering (perfbench) observes real lowerings alone.
    vt = trace.cached_lowering("_vectorized_cache")
    if vt is None:
        vt = _vectorized.vectorized_trace(trace)
    # The protocols of one flavour share its trajectory for this pass.
    with _vectorized.one_pass(vt):
        for protocol in protocols:
            type(protocol).vectorized_replay(vt, protocol)

    return [
        ReplayResult(
            protocol=p,
            metrics=_run_metrics(trace, p, vt.n_sends, vt.n_receives, seed),
        )
        for p in protocols
    ]
