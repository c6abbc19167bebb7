"""Protocol-independent execution traces.

The paper evaluates all protocols under instantaneous checkpoint
insertion, which makes the application/mobility schedule independent of
the protocol under study.  A :class:`Trace` captures that schedule once
-- as a time-ordered sequence of :class:`TraceEvent` records -- and
every protocol is then replayed over the *same* trace
(:mod:`repro.core.replay`), giving pointwise-comparable checkpoint
counts exactly like the paper's common-random-numbers simulation.

A generated or disk-loaded trace is *column-backed*
(:meth:`Trace.from_columns`): it carries the compiled columns and
builds its :class:`TraceEvent` list only when something first reads
``events``.  The compiled lowerings start from the columns, so such a
trace replayed by the fused or vectorized engine never builds one
event object.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Any, Iterable, Iterator, Optional


class EventType(enum.IntEnum):
    """Kinds of trace events a protocol can react to."""

    #: Application send operation (protocol attaches piggyback).
    SEND = 0
    #: Application receive operation consuming one message.
    RECEIVE = 1
    #: Cell switch (basic-checkpoint trigger).
    CELL_SWITCH = 2
    #: Voluntary disconnection (basic-checkpoint trigger).
    DISCONNECT = 3
    #: Reconnection (no checkpoint; ends the unreachable period).
    RECONNECT = 4
    #: Internal event (recorded only when explicitly requested).
    INTERNAL = 5


@dataclass(slots=True, frozen=True)
class TraceEvent:
    """One event of one host.

    Fields are interpreted per :class:`EventType`:

    * SEND: ``msg_id`` is the message identity, ``peer`` the destination.
    * RECEIVE: ``msg_id`` identifies the consumed message, ``peer`` the
      original sender.
    * CELL_SWITCH: ``cell`` is the new MSS id (``peer`` the old one).
    * DISCONNECT / RECONNECT / INTERNAL: only ``host`` matters
      (RECONNECT also carries the cell reconnected into).
    """

    time: float
    etype: EventType
    host: int
    msg_id: int = -1
    peer: int = -1
    cell: int = -1


class TraceError(ValueError):
    """A structurally invalid trace (unmatched receive, bad ordering...)."""


@dataclass
class Trace:
    """A validated, time-ordered event schedule.

    Parameters
    ----------
    n_hosts, n_mss:
        System dimensions the trace was generated under.
    events:
        Events sorted by time (ties keep generation order).
    sim_time:
        Horizon the generating simulation ran until.
    meta:
        Arbitrary generation parameters (seed, workload config, ...).
    """

    n_hosts: int
    n_mss: int
    events: list[TraceEvent] = field(default_factory=list)
    sim_time: float = 0.0
    meta: dict[str, Any] = field(default_factory=dict)

    @classmethod
    def from_columns(cls, columns, meta: dict[str, Any]) -> "Trace":
        """A column-backed trace over *columns* (an
        :class:`~repro.core.compiled.ArrayColumns`).

        The columns become the trace's array lowering; ``events`` is
        built from them on first access, so lowering and replay never
        pay for event objects.
        """
        trace = cls.__new__(cls)
        trace.n_hosts = columns.n_hosts
        trace.n_mss = columns.n_mss
        trace.sim_time = columns.sim_time
        trace.meta = meta
        trace._array_columns_cache = (columns.n_events, columns)
        return trace

    def __getattr__(self, name: str):
        # Reached only when normal lookup fails: the ``events`` of a
        # column-backed trace before anything read them.
        cached = self.__dict__.get("_array_columns_cache")
        if name != "events" or cached is None:
            raise AttributeError(
                f"{type(self).__name__!r} object has no attribute {name!r}"
            )
        cols = cached[1]
        self.events = events_from_columns(
            cols.time, cols.etype, cols.host, cols.msg_id, cols.peer, cols.cell
        )
        return self.events

    def __len__(self) -> int:
        events = self.__dict__.get("events")
        if events is None:
            return self._array_columns_cache[1].n_events
        return len(events)

    def __iter__(self) -> Iterator[TraceEvent]:
        return iter(self.events)

    def cached_lowering(self, attr: str):
        """The lowering cached under *attr*, or None when absent or
        stale.

        Lowerings are cached as ``(event count, value)`` and keyed on
        the count: appending events invalidates them, but in-place event
        *replacement* (which nothing in the codebase does -- traces are
        effectively frozen once generated) would go unnoticed.
        """
        cached = self.__dict__.get(attr)
        if cached is not None and cached[0] == len(self):
            return cached[1]
        return None

    # ------------------------------------------------------------------
    def compiled(self):
        """The fused engine's dispatch program for this trace, lowered
        lazily from its columns and cached on the instance (see
        :mod:`repro.core.compiled`)."""
        from repro.core.compiled import compile_trace

        compiled = self.cached_lowering("_compiled_cache")
        if compiled is None:
            compiled = compile_trace(self)
            self._compiled_cache = (len(self), compiled)
        return compiled

    # ------------------------------------------------------------------
    def validate(self) -> "Trace":
        """Check structural invariants; return self (chainable).

        Raises
        ------
        TraceError
            On non-monotone timestamps, receives without a matching
            earlier send, double-consumed messages, host ids out of
            range, or mobility state violations (e.g. a disconnected
            host sending).
        """
        last_time = float("-inf")
        sent: dict[int, TraceEvent] = {}
        consumed: set[int] = set()
        connected = [True] * self.n_hosts
        for ev in self.events:
            if ev.time < last_time:
                raise TraceError(
                    f"events out of order: {ev} after t={last_time}"
                )
            last_time = ev.time
            if not 0 <= ev.host < self.n_hosts:
                raise TraceError(f"unknown host in {ev}")
            if ev.etype is EventType.SEND:
                if not connected[ev.host]:
                    raise TraceError(f"disconnected host sends: {ev}")
                if ev.msg_id in sent:
                    raise TraceError(f"duplicate send of msg {ev.msg_id}")
                sent[ev.msg_id] = ev
            elif ev.etype is EventType.RECEIVE:
                if not connected[ev.host]:
                    raise TraceError(f"disconnected host receives: {ev}")
                origin = sent.get(ev.msg_id)
                if origin is None:
                    raise TraceError(
                        f"receive of never-sent msg {ev.msg_id}: {ev}"
                    )
                if ev.msg_id in consumed:
                    raise TraceError(f"msg {ev.msg_id} consumed twice")
                if origin.peer != ev.host:
                    raise TraceError(
                        f"msg {ev.msg_id} sent to {origin.peer} but "
                        f"received by {ev.host}"
                    )
                consumed.add(ev.msg_id)
            elif ev.etype is EventType.CELL_SWITCH:
                if not connected[ev.host]:
                    raise TraceError(f"disconnected host switches cell: {ev}")
                if not 0 <= ev.cell < self.n_mss:
                    raise TraceError(f"switch to unknown cell: {ev}")
            elif ev.etype is EventType.DISCONNECT:
                if not connected[ev.host]:
                    raise TraceError(f"double disconnect: {ev}")
                connected[ev.host] = False
            elif ev.etype is EventType.RECONNECT:
                if connected[ev.host]:
                    raise TraceError(f"reconnect while connected: {ev}")
                connected[ev.host] = True
        return self

    # ------------------------------------------------------------------
    # summary statistics
    # ------------------------------------------------------------------
    def count(self, etype: EventType) -> int:
        """Number of events of the given type (read off the array
        columns when the trace has them, so a column-backed trace
        builds no events)."""
        cols = self.cached_lowering("_array_columns_cache")
        if cols is not None:
            return int((cols.etype == etype).sum())
        return sum(1 for ev in self.events if ev.etype is etype)

    @property
    def n_sends(self) -> int:
        """Number of SEND events."""
        return self.count(EventType.SEND)

    @property
    def n_receives(self) -> int:
        """Number of RECEIVE events."""
        return self.count(EventType.RECEIVE)

    @property
    def n_basic_triggers(self) -> int:
        """Cell switches + disconnects = basic checkpoints any protocol
        in the paper will take."""
        return self.count(EventType.CELL_SWITCH) + self.count(EventType.DISCONNECT)

    def events_for(self, host: int) -> list[TraceEvent]:
        """This host's events in time order."""
        return [ev for ev in self.events if ev.host == host]

    def undelivered_messages(self) -> int:
        """Sends whose receive never happened within the horizon."""
        sent = {ev.msg_id for ev in self.events if ev.etype is EventType.SEND}
        recv = {ev.msg_id for ev in self.events if ev.etype is EventType.RECEIVE}
        return len(sent - recv)

    # ------------------------------------------------------------------
    def merged_with(self, other: "Trace") -> "Trace":
        """Concatenate two traces of the same system (``other`` shifted
        after this trace's horizon).  Useful for long-run splicing."""
        if (self.n_hosts, self.n_mss) != (other.n_hosts, other.n_mss):
            raise TraceError("cannot merge traces of different systems")
        shift = self.sim_time
        shifted = [
            TraceEvent(
                time=ev.time + shift,
                etype=ev.etype,
                host=ev.host,
                msg_id=ev.msg_id,
                peer=ev.peer,
                cell=ev.cell,
            )
            for ev in other.events
        ]
        return Trace(
            n_hosts=self.n_hosts,
            n_mss=self.n_mss,
            events=self.events + shifted,
            sim_time=self.sim_time + other.sim_time,
            meta={**other.meta, **self.meta, "merged": True},
        )


#: Event types by their integer code (a KeyError flags a bad code).
_ETYPE_BY_CODE = {int(e): e for e in EventType}


def events_from_columns(
    time, etype, host, msg_id, peer, cell
) -> list[TraceEvent]:
    """The :class:`TraceEvent` list of six parallel numpy columns.

    ``tolist()`` yields the exact python floats/ints that per-element
    ``float()``/``int()`` would, at a fraction of the cost of touching
    numpy scalars one by one.
    """
    by_code = _ETYPE_BY_CODE
    return [
        TraceEvent(t, by_code[e], h, m, p, c)
        for t, e, h, m, p, c in zip(
            time.tolist(),
            etype.tolist(),
            host.tolist(),
            msg_id.tolist(),
            peer.tolist(),
            cell.tolist(),
        )
    ]


def build_trace(
    n_hosts: int,
    n_mss: int,
    events: Iterable[tuple],
    sim_time: Optional[float] = None,
    meta: Optional[dict[str, Any]] = None,
) -> Trace:
    """Construct a validated trace from plain tuples.

    Each tuple is ``(time, etype, host[, msg_id, peer, cell])`` --
    a compact format used heavily by tests and by hypothesis strategies.
    """
    evs = []
    for item in events:
        time, etype, host, *rest = item
        msg_id = rest[0] if len(rest) > 0 else -1
        peer = rest[1] if len(rest) > 1 else -1
        cell = rest[2] if len(rest) > 2 else -1
        evs.append(
            TraceEvent(
                time=float(time),
                etype=EventType(etype),
                host=host,
                msg_id=msg_id,
                peer=peer,
                cell=cell,
            )
        )
    evs.sort(key=lambda e: e.time)
    horizon = sim_time if sim_time is not None else (evs[-1].time if evs else 0.0)
    return Trace(
        n_hosts=n_hosts,
        n_mss=n_mss,
        events=evs,
        sim_time=horizon,
        meta=dict(meta or {}),
    ).validate()
