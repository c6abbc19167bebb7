"""Streaming trace compilation: SoA blocks built incrementally.

:class:`StreamingCompiler` is the one place events become columns.
The workload driver writes every trace through it, and
:func:`~repro.core.compiled.array_columns` feeds an event-backed
trace's :class:`~repro.core.trace.TraceEvent` list through it.  It
accepts events one at a time as ``(time, etype, host, msg_id, peer,
cell)`` rows, assigns send slots (validating the send/receive
matching), stages the rows in plain python lists and flushes a
:class:`CompiledBlock` of numpy columns every ``block_events`` events.
Block *storage* uses the narrowest lossless dtypes (``int8`` event
types, ``int32`` host / peer / cell / slot ids, ``int64`` message ids,
``float64`` times -- 33 bytes per event);
:meth:`StreamedTrace.array_columns` widens back to the engine's pinned
``int64``/``float64``, which is exact because every stored value is an
integer in range (numpy raises ``OverflowError`` rather than wrap if a
feed ever exceeds a column's range).  Peak *staging* memory is
O(``block_events``) python values; the total output is the compact
numpy blocks.

:func:`repro.workload.driver.generate_trace` concatenates the blocks
into the column-backed trace it returns;
:func:`repro.workload.driver.generate_streamed` returns them as they
are.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.core.compiled import (
    FLOAT_DTYPE,
    INT_DTYPE,
    RECEIVE,
    SEND,
    ArrayColumns,
)
from repro.core.trace import TraceError

if TYPE_CHECKING:  # pragma: no cover - typing only
    import numpy as np

#: Default events per flushed block: large enough that numpy conversion
#: amortizes, small enough that staging stays a few MB.
DEFAULT_BLOCK_EVENTS = 65_536

#: Column name -> (storage dtype, lowering dtype) of one block.  The
#: storage side is the narrowest type that holds the column losslessly:
#: event types are tiny enums, host/peer/cell ids are bounded by the
#: system size, and a slot is a send ordinal (an int32 overflows only
#: past 2**31 sends, far beyond what fits in memory at all); message
#: ids stay int64 because callers may feed arbitrary identities.
_COLUMNS = (
    ("etype", "int8", INT_DTYPE),
    ("time", FLOAT_DTYPE, FLOAT_DTYPE),
    ("host", "int32", INT_DTYPE),
    ("msg_id", INT_DTYPE, INT_DTYPE),
    ("peer", "int32", INT_DTYPE),
    ("cell", "int32", INT_DTYPE),
    ("slot", "int32", INT_DTYPE),
)


@dataclass(slots=True, frozen=True)
class CompiledBlock:
    """One flushed slab of compiled columns (storage dtypes; see
    :data:`_COLUMNS` for the widths and the lossless-widening rule)."""

    etype: "np.ndarray"
    time: "np.ndarray"
    host: "np.ndarray"
    msg_id: "np.ndarray"
    peer: "np.ndarray"
    cell: "np.ndarray"
    slot: "np.ndarray"

    def __len__(self) -> int:
        return int(self.etype.shape[0])

    @property
    def nbytes(self) -> int:
        return sum(getattr(self, name).nbytes for name, *_ in _COLUMNS)


@dataclass(slots=True, frozen=True)
class StreamedTrace:
    """A block-compiled trace: the flushed :class:`CompiledBlock`
    slabs plus the trace totals.  :meth:`array_columns` concatenates
    the blocks into the :class:`~repro.core.compiled.ArrayColumns`
    every other lowering starts from.
    """

    n_hosts: int
    n_mss: int
    sim_time: float
    n_events: int
    n_sends: int
    n_receives: int
    blocks: tuple[CompiledBlock, ...]

    def __len__(self) -> int:
        return self.n_events

    @property
    def nbytes(self) -> int:
        """Total bytes held by the numpy blocks."""
        return sum(block.nbytes for block in self.blocks)

    def _cat(self, name: str, dtype: str) -> "np.ndarray":
        import numpy as np

        if not self.blocks:
            return np.empty(0, dtype=dtype)
        out = np.concatenate([getattr(b, name) for b in self.blocks])
        # Widen the storage dtype back to the engine's pinned lowering
        # dtype (exact: integer values, in range by construction).
        return out.astype(dtype, copy=False)

    def array_columns(self) -> ArrayColumns:
        """The blocks concatenated into one ``ArrayColumns`` view."""
        columns = {
            name: self._cat(name, lowering)
            for name, _storage, lowering in _COLUMNS
        }
        return ArrayColumns(
            n_hosts=self.n_hosts,
            n_mss=self.n_mss,
            sim_time=self.sim_time,
            n_events=self.n_events,
            n_sends=self.n_sends,
            n_receives=self.n_receives,
            **columns,
        )


class StreamingCompiler:
    """The events-to-columns compiler: feed events, flush SoA blocks.

    A duplicate send or an unmatched receive raises
    :class:`~repro.core.trace.TraceError` at feed time (so a broken
    generator fails as early as possible).

    Usage::

        compiler = StreamingCompiler(n_hosts=10, n_mss=5, sim_time=1e5)
        for time, etype, host, msg_id, peer, cell in source:
            compiler.feed(time, etype, host, msg_id, peer, cell)
        streamed = compiler.finish()
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
        self._blocks: list[CompiledBlock] = []
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
        if not self._etype:
            return
        import numpy as np

        self._blocks.append(
            CompiledBlock(
                etype=np.asarray(self._etype, dtype="int8"),
                time=np.asarray(self._time, dtype=FLOAT_DTYPE),
                host=np.asarray(self._host, dtype="int32"),
                msg_id=np.asarray(self._msg_id, dtype=INT_DTYPE),
                peer=np.asarray(self._peer, dtype="int32"),
                cell=np.asarray(self._cell, dtype="int32"),
                slot=np.asarray(self._slot, dtype="int32"),
            )
        )
        self._etype.clear()
        self._time.clear()
        self._host.clear()
        self._msg_id.clear()
        self._peer.clear()
        self._cell.clear()
        self._slot.clear()

    def finish(self) -> StreamedTrace:
        """Flush the tail block and seal the compiler.

        Sends still in flight at the horizon are fine (their slots
        simply have no receive); further feeds raise ``TraceError``.
        """
        self._flush()
        self._finished = True
        return StreamedTrace(
            n_hosts=self.n_hosts,
            n_mss=self.n_mss,
            sim_time=self.sim_time,
            n_events=self.n_events,
            n_sends=self.n_sends,
            n_receives=self.n_receives,
            blocks=tuple(self._blocks),
        )
