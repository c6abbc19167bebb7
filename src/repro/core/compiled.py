"""Compiled traces: structure-of-arrays form of a :class:`Trace`.

Replay spends most of its time decoding :class:`TraceEvent` objects --
five attribute loads and an ``IntEnum`` comparison per event, repeated
once per protocol under :func:`repro.core.replay.replay`.  Compiling a
trace lowers the event list into parallel plain-``int``/``float``
columns once, so the fused replay engine
(:func:`repro.core.replay.replay_fused`) streams tuples out of a single
``zip`` instead of touching dataclass instances.

Compilation also resolves message identity ahead of time: every SEND is
assigned a dense *slot* (its ordinal among sends) and every RECEIVE
carries the slot of its matching SEND, so replay needs no per-message
hash table -- the in-flight piggyback store becomes a flat list indexed
by slot.  The matching is validated while building the mapping
(unmatched or double-consumed receives raise :class:`TraceError`).

A compiled trace is a pure read-only view: it never mutates the source
trace, and :meth:`Trace.compiled` caches it per trace instance.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.trace import EventType, Trace, TraceError

#: Event-type codes as plain ints (hot loops compare against these
#: instead of the IntEnum members).
SEND = int(EventType.SEND)
RECEIVE = int(EventType.RECEIVE)
CELL_SWITCH = int(EventType.CELL_SWITCH)
DISCONNECT = int(EventType.DISCONNECT)
RECONNECT = int(EventType.RECONNECT)
INTERNAL = int(EventType.INTERNAL)


@dataclass(slots=True, frozen=True)
class CompiledTrace:
    """Column-oriented view of one trace.

    All columns have ``n_events`` entries and hold plain ints/floats
    (no enums, no dataclasses).  ``slot`` is the dense send ordinal for
    SEND events, the matching send's ordinal for RECEIVE events and -1
    otherwise; ``peer`` already names the original *sender* for RECEIVE
    events (the trace invariant), so replay needs no in-flight lookup
    at all.

    ``argv`` packs each event's hook arguments into one ready-made
    tuple, so the fused engine dispatches with ``hook(*args)`` instead
    of assembling arguments per protocol per event:

    * SEND / RECEIVE: ``(host, peer, time)`` -- the send hook takes it
      verbatim; the receive hook splices the piggyback in between.
    * CELL_SWITCH / RECONNECT: ``(host, time, cell)``.
    * DISCONNECT: ``(host, time)``.
    * INTERNAL: ``()`` (no protocol action).
    """

    n_hosts: int
    n_mss: int
    sim_time: float
    n_events: int
    n_sends: int
    n_receives: int
    etype: list[int]
    time: list[float]
    host: list[int]
    msg_id: list[int]
    peer: list[int]
    cell: list[int]
    slot: list[int]
    argv: list[tuple]

    def __len__(self) -> int:
        return self.n_events


#: The one integer / one float dtype every numpy column uses.  Pinned
#: explicitly (never numpy's platform default int, which is 32-bit on
#: Windows) so vectorized kernel results and on-disk compiled columns
#: are bit-identical across platforms.
INT_DTYPE = "int64"
FLOAT_DTYPE = "float64"


@dataclass(slots=True, frozen=True)
class ArrayColumns:
    """Numpy view of the compiled columns, dtype-pinned.

    The lowering the vectorized engine (:mod:`repro.core.vectorized`)
    consumes: the :class:`CompiledTrace` event columns as ``int64`` /
    ``float64`` numpy arrays (``argv`` has no array form -- batch
    kernels never dispatch per event).  Built once per trace via
    :func:`array_columns` and cached, or attached directly by the trace
    loader when a stored trace already carries native array columns.
    """

    n_hosts: int
    n_mss: int
    sim_time: float
    n_events: int
    n_sends: int
    n_receives: int
    etype: "np.ndarray"  # noqa: F821 - numpy imported lazily
    time: "np.ndarray"  # noqa: F821
    host: "np.ndarray"  # noqa: F821
    msg_id: "np.ndarray"  # noqa: F821
    peer: "np.ndarray"  # noqa: F821
    cell: "np.ndarray"  # noqa: F821
    slot: "np.ndarray"  # noqa: F821

    def __len__(self) -> int:
        return self.n_events

    @classmethod
    def from_compiled(cls, ct: CompiledTrace) -> "ArrayColumns":
        """Lower *ct*'s list columns into pinned-dtype numpy arrays."""
        import numpy as np

        return cls(
            n_hosts=ct.n_hosts,
            n_mss=ct.n_mss,
            sim_time=ct.sim_time,
            n_events=ct.n_events,
            n_sends=ct.n_sends,
            n_receives=ct.n_receives,
            etype=np.asarray(ct.etype, dtype=INT_DTYPE),
            time=np.asarray(ct.time, dtype=FLOAT_DTYPE),
            host=np.asarray(ct.host, dtype=INT_DTYPE),
            msg_id=np.asarray(ct.msg_id, dtype=INT_DTYPE),
            peer=np.asarray(ct.peer, dtype=INT_DTYPE),
            cell=np.asarray(ct.cell, dtype=INT_DTYPE),
            slot=np.asarray(ct.slot, dtype=INT_DTYPE),
        )


def array_columns(trace: Trace) -> ArrayColumns:
    """The pinned-dtype numpy columns of *trace*, cached per instance.

    Served from ``trace._array_columns_cache`` when present -- either a
    previous call here, or the v2 trace loader
    (:mod:`repro.core.trace_io`), which stores the columns natively as
    arrays so a disk cache hit feeds the vectorized engine without a
    list round-trip.  Invalidation mirrors :meth:`Trace.compiled`:
    keyed on the event count (:meth:`Trace.cached_lowering`).
    """
    arrays = trace.cached_lowering("_array_columns_cache")
    if arrays is None:
        arrays = ArrayColumns.from_compiled(trace.compiled())
        trace._array_columns_cache = (len(trace), arrays)
    return arrays


def lower_columns(cols: ArrayColumns) -> CompiledTrace:
    """The :class:`CompiledTrace` of array columns.

    The one columns-to-lists lowering (disk hits and streamed traces
    both use it): ``tolist()`` turns ``int64``/``float64`` back into
    the exact python ints/floats :func:`compile_trace` stores, and the
    ``argv`` tuples are assembled per event type from the columns.
    """
    import numpy as np

    etype = cols.etype.tolist()
    time = cols.time.tolist()
    host = cols.host.tolist()
    peer = cols.peer.tolist()
    cell = cols.cell.tolist()
    # Sends and receives are nearly every event: build all tuples in
    # their ``(host, peer, time)`` shape, then patch the others.
    argv: list[tuple] = list(zip(host, peer, time))
    others = (cols.etype != SEND) & (cols.etype != RECEIVE)
    for i in np.flatnonzero(others).tolist():
        et = etype[i]
        if et == DISCONNECT:
            argv[i] = (host[i], time[i])
        elif et == INTERNAL:
            argv[i] = ()
        else:  # CELL_SWITCH / RECONNECT
            argv[i] = (host[i], time[i], cell[i])
    return CompiledTrace(
        n_hosts=cols.n_hosts,
        n_mss=cols.n_mss,
        sim_time=cols.sim_time,
        n_events=cols.n_events,
        n_sends=cols.n_sends,
        n_receives=cols.n_receives,
        etype=etype,
        time=time,
        host=host,
        msg_id=cols.msg_id.tolist(),
        peer=peer,
        cell=cell,
        slot=cols.slot.tolist(),
        argv=argv,
    )


def compile_trace(trace: Trace) -> CompiledTrace:
    """Lower *trace* into :class:`CompiledTrace` columns.

    A trace that already holds array columns (a disk hit) is lowered
    from them by :func:`lower_columns`, without reading its events.

    Raises
    ------
    TraceError
        On a receive whose send is missing or already consumed -- the
        same conditions :meth:`Trace.validate` rejects, caught here so
        an uncompilable trace never reaches the hot loop.
    """
    arrays = trace.cached_lowering("_array_columns_cache")
    if arrays is not None:
        return lower_columns(arrays)
    n = len(trace.events)
    etype: list[int] = [0] * n
    time: list[float] = [0.0] * n
    host: list[int] = [0] * n
    msg_id: list[int] = [0] * n
    peer: list[int] = [0] * n
    cell: list[int] = [0] * n
    slot: list[int] = [-1] * n
    argv: list[tuple] = [()] * n
    open_sends: dict[int, int] = {}
    n_sends = 0
    n_receives = 0
    for i, ev in enumerate(trace.events):
        et = int(ev.etype)
        etype[i] = et
        time[i] = ev.time
        host[i] = ev.host
        msg_id[i] = ev.msg_id
        peer[i] = ev.peer
        cell[i] = ev.cell
        if et == SEND:
            if ev.msg_id in open_sends:
                raise TraceError(f"duplicate send of msg {ev.msg_id}")
            open_sends[ev.msg_id] = n_sends
            slot[i] = n_sends
            n_sends += 1
            argv[i] = (ev.host, ev.peer, ev.time)
        elif et == RECEIVE:
            try:
                slot[i] = open_sends.pop(ev.msg_id)
            except KeyError:
                raise TraceError(
                    f"receive of msg {ev.msg_id} that was never sent or "
                    "was already consumed (validate() the trace first)"
                ) from None
            n_receives += 1
            argv[i] = (ev.host, ev.peer, ev.time)
        elif et == DISCONNECT:
            argv[i] = (ev.host, ev.time)
        elif et != INTERNAL:  # CELL_SWITCH / RECONNECT
            argv[i] = (ev.host, ev.time, ev.cell)
    return CompiledTrace(
        n_hosts=trace.n_hosts,
        n_mss=trace.n_mss,
        sim_time=trace.sim_time,
        n_events=n,
        n_sends=n_sends,
        n_receives=n_receives,
        etype=etype,
        time=time,
        host=host,
        msg_id=msg_id,
        peer=peer,
        cell=cell,
        slot=slot,
        argv=argv,
    )
