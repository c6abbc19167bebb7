"""Compiled traces: the column lowerings of a :class:`Trace`.

Two lowerings share one source of truth, the trace's columns:

* :class:`ArrayColumns` -- the six event columns plus the dense send
  ``slot`` column as pinned-dtype numpy arrays.  A generated trace and
  a disk hit carry them from birth; an event-backed trace (built from
  :class:`TraceEvent` objects by tests or :func:`build_trace`) gets
  them by feeding its events through the one events-to-columns
  compiler, :class:`StreamingCompiler` (:func:`array_columns`).
* :class:`CompiledTrace` -- the fused engine's dispatch program
  (:func:`repro.core.replay.replay_fused`): per event its type code,
  its send slot and a ready-made hook-argument tuple, lowered from the
  array columns by :func:`lower_columns`.

Slots resolve message identity ahead of time: every SEND gets its
ordinal among sends and every RECEIVE carries the slot of its matching
SEND, so replay needs no per-message hash table -- the in-flight
piggyback store is a flat list indexed by slot.  The compiler
validates the matching (unmatched or double-consumed receives raise
:class:`TraceError`).

Both lowerings are read-only views cached per trace instance
(:meth:`Trace.compiled`, :func:`array_columns`); neither mutates the
source trace.
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
    """The fused engine's dispatch program over one trace.

    ``etype``, ``slot`` and ``argv`` have ``n_events`` entries of plain
    python values (no enums, no numpy scalars).  ``slot`` is the dense
    send ordinal for SEND events, the matching send's ordinal for
    RECEIVE events and -1 otherwise.

    ``argv`` packs each event's hook arguments into one ready-made
    tuple, so the fused engine dispatches with ``hook(*args)`` instead
    of assembling arguments per protocol per event:

    * SEND / RECEIVE: ``(host, peer, time)`` -- the send hook takes it
      verbatim; the receive hook splices the piggyback in between
      (``peer`` of a RECEIVE is the original sender by trace invariant).
    * CELL_SWITCH / RECONNECT: ``(host, time, cell)``.
    * DISCONNECT: ``(host, time)``.
    * INTERNAL: ``()`` (no protocol action).
    """

    n_events: int
    n_sends: int
    n_receives: int
    etype: list[int]
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
    """The compiled event columns as pinned-dtype numpy arrays.

    ``etype`` / ``time`` / ``host`` / ``msg_id`` / ``peer`` / ``cell``
    mirror the :class:`~repro.core.trace.TraceEvent` fields and
    ``slot`` is the dense send slot (see :class:`CompiledTrace`), all
    ``int64`` except ``float64`` times.  The vectorized engine
    (:mod:`repro.core.vectorized`) consumes them as they are, the trace
    loader stores them natively, and :func:`lower_columns` builds the
    fused engine's :class:`CompiledTrace` from them.
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


#: Default events per staging block: large enough that numpy conversion
#: amortizes, small enough that staging stays a few MB.
DEFAULT_BLOCK_EVENTS = 65_536

#: Column name -> (staging dtype, output dtype), in the order
#: :meth:`StreamingCompiler.finish` widens them.  Staging keeps the
#: narrowest type that holds the column losslessly (33 bytes per
#: event): event types are tiny enums, host/peer/cell ids are bounded
#: by the system size, and a slot is a send ordinal (an int32
#: overflows only past 2**31 sends, far beyond what fits in memory at
#: all); message ids stay int64 because callers may feed arbitrary
#: identities.  ``etype`` widens last, so the finish peak is the
#: 56-byte output plus its one staged byte per event.
_COLUMNS = (
    ("time", FLOAT_DTYPE, FLOAT_DTYPE),
    ("msg_id", INT_DTYPE, INT_DTYPE),
    ("host", "int32", INT_DTYPE),
    ("peer", "int32", INT_DTYPE),
    ("cell", "int32", INT_DTYPE),
    ("slot", "int32", INT_DTYPE),
    ("etype", "int8", INT_DTYPE),
)


class StreamingCompiler:
    """The events-to-columns compiler: feed events, get ``ArrayColumns``.

    Events arrive one at a time as ``(time, etype, host, msg_id, peer,
    cell)`` rows.  The compiler assigns send slots, stages the rows in
    plain python lists and converts them to narrow numpy parts every
    ``block_events`` events, so staging stays O(``block_events``)
    python values.  A duplicate send or an unmatched receive raises
    :class:`~repro.core.trace.TraceError` at feed time (so a broken
    generator fails as early as possible), and a value outside its
    staging dtype's range raises ``OverflowError`` rather than wrap.

    Usage::

        compiler = StreamingCompiler(n_hosts=10, n_mss=5, sim_time=1e5)
        for time, etype, host, msg_id, peer, cell in source:
            compiler.feed(time, etype, host, msg_id, peer, cell)
        columns = compiler.finish()
    """

    def __init__(
        self,
        n_hosts: int,
        n_mss: int,
        sim_time: float,
        block_events: int = DEFAULT_BLOCK_EVENTS,
    ):
        if block_events < 1:
            raise ValueError("block_events must be >= 1")
        self.n_hosts = n_hosts
        self.n_mss = n_mss
        self.sim_time = sim_time
        self.block_events = block_events
        self.n_events = 0
        self.n_sends = 0
        self.n_receives = 0
        self._etype: list[int] = []
        self._time: list[float] = []
        self._host: list[int] = []
        self._msg_id: list[int] = []
        self._peer: list[int] = []
        self._cell: list[int] = []
        self._slot: list[int] = []
        #: Column name -> its flushed narrow numpy parts.
        self._parts: dict[str, list] = {name: [] for name, *_ in _COLUMNS}
        self._open_sends: dict[int, int] = {}
        self._finished = False

    def __len__(self) -> int:
        return self.n_events

    def feed(
        self,
        time: float,
        etype: int,
        host: int,
        msg_id: int = -1,
        peer: int = -1,
        cell: int = -1,
    ) -> None:
        """Compile one event (field order mirrors ``TraceEvent``)."""
        if self._finished:
            raise TraceError("StreamingCompiler already finished")
        slot = -1
        if etype == SEND:
            if msg_id in self._open_sends:
                raise TraceError(f"duplicate send of msg {msg_id}")
            slot = self.n_sends
            self._open_sends[msg_id] = slot
            self.n_sends += 1
        elif etype == RECEIVE:
            try:
                slot = self._open_sends.pop(msg_id)
            except KeyError:
                raise TraceError(
                    f"receive of msg {msg_id} that was never sent or "
                    "was already consumed (validate() the trace first)"
                ) from None
            self.n_receives += 1
        self._etype.append(etype)
        self._time.append(time)
        self._host.append(host)
        self._msg_id.append(msg_id)
        self._peer.append(peer)
        self._cell.append(cell)
        self._slot.append(slot)
        self.n_events += 1
        if len(self._etype) >= self.block_events:
            self._flush()

    def _flush(self) -> None:
        """Convert the staged rows into one narrow part per column."""
        if not self._etype:
            return
        import numpy as np

        for name, staging, _ in _COLUMNS:
            staged = getattr(self, "_" + name)
            self._parts[name].append(np.asarray(staged, dtype=staging))
            staged.clear()

    def finish(self) -> ArrayColumns:
        """Flush the tail, seal the compiler and return its columns.

        Each column is widened to its pinned output dtype straight from
        its parts (exact: every staged value is an integer in range),
        and its parts are dropped before the next column is built.
        Sends still in flight at the horizon are fine (their slots
        simply have no receive); further feeds raise ``TraceError``.
        """
        import numpy as np

        self._flush()
        self._finished = True
        columns = {}
        for name, _, dtype in _COLUMNS:
            parts = self._parts.pop(name)
            columns[name] = (
                np.concatenate(parts, dtype=dtype)
                if parts
                else np.empty(0, dtype=dtype)
            )
        return ArrayColumns(
            n_hosts=self.n_hosts,
            n_mss=self.n_mss,
            sim_time=self.sim_time,
            n_events=self.n_events,
            n_sends=self.n_sends,
            n_receives=self.n_receives,
            **columns,
        )


def array_columns(trace: Trace) -> ArrayColumns:
    """The pinned-dtype numpy columns of *trace*, cached per instance.

    A generated or disk-loaded trace already holds them (see
    :meth:`Trace.from_columns`).  An event-backed trace is compiled by
    feeding its events through a :class:`StreamingCompiler`, and the
    result is cached under ``trace._array_columns_cache``, keyed on the
    event count (:meth:`Trace.cached_lowering`).

    Raises
    ------
    TraceError
        On a duplicate send, or a receive whose send is missing or
        already consumed -- the conditions :meth:`Trace.validate`
        rejects, caught here so an uncompilable trace never reaches
        the replay engines.
    """
    arrays = trace.cached_lowering("_array_columns_cache")
    if arrays is None:
        compiler = StreamingCompiler(trace.n_hosts, trace.n_mss, trace.sim_time)
        feed = compiler.feed
        for ev in trace.events:
            feed(ev.time, int(ev.etype), ev.host, ev.msg_id, ev.peer, ev.cell)
        arrays = compiler.finish()
        trace._array_columns_cache = (len(trace), arrays)
    return arrays


def lower_columns(cols: ArrayColumns) -> CompiledTrace:
    """The :class:`CompiledTrace` of array columns.

    ``tolist()`` turns ``int64``/``float64`` into exact python
    ints/floats, and the ``argv`` tuples are assembled per event type
    from the columns.
    """
    import numpy as np

    etype = cols.etype.tolist()
    host = cols.host.tolist()
    time = cols.time.tolist()
    # Sends and receives are nearly every event: build all tuples in
    # their ``(host, peer, time)`` shape, then patch the others.
    argv: list[tuple] = list(zip(host, cols.peer.tolist(), time))
    others = np.flatnonzero((cols.etype != SEND) & (cols.etype != RECEIVE))
    for i, cell in zip(others.tolist(), cols.cell[others].tolist()):
        et = etype[i]
        if et == DISCONNECT:
            argv[i] = (host[i], time[i])
        elif et == INTERNAL:
            argv[i] = ()
        else:  # CELL_SWITCH / RECONNECT
            argv[i] = (host[i], time[i], cell)
    return CompiledTrace(
        n_events=cols.n_events,
        n_sends=cols.n_sends,
        n_receives=cols.n_receives,
        etype=etype,
        slot=cols.slot.tolist(),
        argv=argv,
    )


def compile_trace(trace: Trace) -> CompiledTrace:
    """Lower *trace* into its :class:`CompiledTrace`: the
    :func:`lower_columns` of its :func:`array_columns` (which raises
    :class:`TraceError` on an unmatched send/receive pairing)."""
    return lower_columns(array_columns(trace))
