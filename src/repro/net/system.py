"""The assembled mobile system: hosts + MSSs + channels + routing.

:class:`MobileSystem` offers the four primitives the paper's model needs
-- ``send_application``, ``switch_cell``, ``disconnect``, ``reconnect``
-- plus ``store_checkpoint`` as the single integration point between
checkpointing protocols and MSS stable storage (including the cross-MSS
base fetch after a handoff).

Latency model (paper Section 5.1): every wireless leg and every MSS-MSS
wired transfer costs ``leg_latency`` (0.01) time units.  Routing:

``src MH --wireless--> src MSS --wired--> dst MSS --wireless--> dst MH``

with the wired leg skipped when both hosts share a cell.  If the
destination moved while the message was in flight, the stale MSS
forwards it (an extra wired leg, counted by the location directory); if
it disconnected, the last MSS buffers the message and releases it at
reconnection -- together with the reliable channels this yields the
at-least-once delivery semantic assumed in Section 3 (an optional
``duplicate_prob`` exercises the *more-than-once* part; duplicates are
suppressed at the destination like a transport layer would).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Optional

from repro.des.core import Environment
from repro.des.rng import RandomStreams
from repro.net.channels import Channel
from repro.net.host import HostState, MobileHost
from repro.net.location import LocationDirectory
from repro.net.message import ControlKind, Message, MessageKind
from repro.net.mss import MobileSupportStation
from repro.storage.stable import CheckpointRecord


@dataclass(slots=True)
class NetworkParams:
    """Static configuration of the mobile system."""

    n_hosts: int = 10
    n_mss: int = 5
    #: Latency of each wireless or wired leg (paper: 0.01).
    leg_latency: float = 0.01
    #: Initial cell of each host; default spreads hosts round-robin.
    initial_placement: Optional[list[int]] = None
    #: Probability that the wired leg delivers a duplicate (default off;
    #: exercises the at-least-once semantic of Section 3).
    duplicate_prob: float = 0.0
    #: Pessimistic message logging at the source MSS (cf. the
    #: Acharya-Badrinath system): records every application message's
    #: id so in-transit messages can be replayed after a rollback
    #: instead of being lost.
    log_messages: bool = False
    #: Bytes charged per stored checkpoint in the storage model.
    checkpoint_bytes: int = 4096

    def placement(self) -> list[int]:
        if self.initial_placement is not None:
            if len(self.initial_placement) != self.n_hosts:
                raise ValueError(
                    f"initial_placement needs {self.n_hosts} entries, "
                    f"got {len(self.initial_placement)}"
                )
            bad = [m for m in self.initial_placement if not 0 <= m < self.n_mss]
            if bad:
                raise ValueError(f"placement references unknown MSS ids {bad}")
            return list(self.initial_placement)
        return [h % self.n_mss for h in range(self.n_hosts)]

    def validate(self) -> None:
        if self.n_hosts < 2:
            raise ValueError("need at least 2 hosts to exchange messages")
        if self.n_mss < 1:
            raise ValueError("need at least 1 MSS")
        if self.leg_latency < 0:
            raise ValueError("leg_latency must be >= 0")
        if not 0.0 <= self.duplicate_prob < 1.0:
            raise ValueError("duplicate_prob must be in [0, 1)")


class MobileSystem:
    """Runtime assembly of the mobile environment."""

    def __init__(
        self,
        env: Environment,
        params: NetworkParams,
        rng: Optional[RandomStreams] = None,
    ):
        params.validate()
        self.env = env
        self.params = params
        self.rng = rng or RandomStreams(0)
        placement = params.placement()
        self.stations = [MobileSupportStation(m) for m in range(params.n_mss)]
        self.hosts = [
            MobileHost(env, h, placement[h]) for h in range(params.n_hosts)
        ]
        for host in self.hosts:
            self.stations[host.mss_id].register(host.host_id)
        self.directory = LocationDirectory(params.n_hosts, placement)
        self.wireless = [
            Channel(env, params.leg_latency, name=f"wireless/cell{m}")
            for m in range(params.n_mss)
        ]
        self.wired = Channel(env, params.leg_latency, name="wired/fabric")
        #: Per-host set of delivered msg ids (duplicate suppression).
        self._delivered: list[set[int]] = [set() for _ in range(params.n_hosts)]
        #: System-local message ids: keeps traces deterministic across
        #: runs in one process (the module-level Message counter is
        #: shared by every system and by control traffic).
        self._next_msg_id = 0
        self.control_message_count = 0
        self.checkpoint_fetches = 0
        self.duplicates_suppressed = 0

    # ------------------------------------------------------------------
    # application traffic
    # ------------------------------------------------------------------
    def send_application(
        self,
        src: int,
        dst: int,
        payload: Any = None,
        piggyback: Optional[dict[str, Any]] = None,
        piggyback_ints: int = 0,
    ) -> Message:
        """Send one application message; returns the Message object.

        The *send operation* is instantaneous for the sender (paper
        model); delivery into the destination inbox happens after the
        routed legs' latencies.
        """
        if src == dst:
            raise ValueError(f"host {src} cannot send to itself")
        sender = self.hosts[src]
        if not sender.is_connected:
            raise RuntimeError(f"host {src} is disconnected and cannot send")
        msg = Message(
            src=src,
            dst=dst,
            kind=MessageKind.APPLICATION,
            payload=payload,
            piggyback=dict(piggyback or {}),
            piggyback_ints=piggyback_ints,
            msg_id=self._next_msg_id,
        )
        self._next_msg_id += 1
        msg.sent_at = self.env.now
        sender.sent_count += 1
        sender.wireless_sends += 1
        # Leg 1: wireless up to the sender's current MSS.
        up = self.wireless[sender.mss_id]
        up.transmit(msg, lambda m, mss=sender.mss_id: self._at_mss(m, mss))
        return msg

    def _at_mss(self, msg: Message, mss_id: int) -> None:
        """Message arrived (over any leg) at MSS *mss_id*: route onward."""
        assert msg.dst is not None
        if self.params.log_messages and msg.hops == 1:
            # First MSS on the path (the sender's): log pessimistically.
            self.stations[mss_id].message_log.add(msg.msg_id)
        current = self.directory.locate(msg.dst)
        if current is None:
            # Destination disconnected: buffer at its last MSS.
            home = self.directory.buffering_mss(msg.dst)
            assert home is not None
            if home == mss_id:
                self.stations[mss_id].buffer_message(msg)
            else:
                self.wired.transmit(
                    msg, lambda m, h=home: self._buffer_at(m, h)
                )
            return
        if current == mss_id:
            # Leg 3: wireless down into the destination's cell.
            self.wireless[mss_id].transmit(
                msg, lambda m, c=mss_id: self._deliver(m, c)
            )
            return
        # Leg 2: wired transfer towards the destination's current MSS.
        if msg.hops > 1:  # this MSS is not the first wired stop: a forward
            self.directory.note_forward()
            self.stations[mss_id].forwarded_messages += 1
        self.wired.transmit(msg, lambda m, c=current: self._at_mss(m, c))
        if self.params.duplicate_prob > 0.0 and self.rng.bernoulli(
            "net/duplicates", self.params.duplicate_prob
        ):
            dup = Message(
                src=msg.src,
                dst=msg.dst,
                kind=msg.kind,
                payload=msg.payload,
                piggyback=dict(msg.piggyback),
                piggyback_ints=msg.piggyback_ints,
                msg_id=msg.msg_id,  # same identity: a true duplicate
            )
            dup.sent_at = msg.sent_at
            self.wired.transmit(dup, lambda m, c=current: self._at_mss(m, c))

    def _buffer_at(self, msg: Message, mss_id: int) -> None:
        host_mss = self.directory.locate(msg.dst)  # may have reconnected
        if host_mss is not None:
            self._at_mss(msg, mss_id)
            return
        self.stations[mss_id].buffer_message(msg)

    def _deliver(self, msg: Message, cell: int) -> None:
        """Final wireless hop (in *cell*) reached the destination host."""
        assert msg.dst is not None
        host = self.hosts[msg.dst]
        if not host.is_connected:
            # Disconnected between MSS dispatch and air delivery: buffer.
            home = self.directory.buffering_mss(msg.dst)
            if home is not None:
                self.stations[home].buffer_message(msg)
            return
        if host.mss_id != cell:
            # Host switched cells during the final hop: the old MSS
            # forwards the message towards the new one.
            self._at_mss(msg, cell)
            return
        if msg.msg_id in self._delivered[msg.dst]:
            self.duplicates_suppressed += 1
            return
        self._delivered[msg.dst].add(msg.msg_id)
        host.deliver(msg)

    # ------------------------------------------------------------------
    # mobility operations
    # ------------------------------------------------------------------
    def switch_cell(self, host_id: int, new_mss: int) -> None:
        """Hand the host off to *new_mss* (paper: a 2-message protocol)."""
        host = self.hosts[host_id]
        if not host.is_connected:
            raise RuntimeError(f"host {host_id} cannot switch cells while disconnected")
        if not 0 <= new_mss < self.params.n_mss:
            raise ValueError(f"unknown MSS {new_mss}")
        if new_mss == host.mss_id:
            raise ValueError(f"host {host_id} is already in cell {new_mss}")
        old_mss = host.mss_id
        self._send_control(host_id, old_mss, ControlKind.HANDOFF_LEAVE)
        self._send_control(host_id, new_mss, ControlKind.HANDOFF_JOIN)
        self.stations[old_mss].deregister(host_id)
        self.stations[new_mss].register(host_id)
        host.mss_id = new_mss
        host.handoff_count += 1
        self.directory.moved(host_id, new_mss)

    def disconnect(self, host_id: int) -> None:
        """Voluntary disconnection (1 control message to the current MSS)."""
        host = self.hosts[host_id]
        if not host.is_connected:
            raise RuntimeError(f"host {host_id} is already disconnected")
        self._send_control(host_id, host.mss_id, ControlKind.DISCONNECT)
        self.stations[host.mss_id].deregister(host_id)
        host.state = HostState.DISCONNECTED
        host.disconnect_count += 1
        self.directory.disconnected(host_id)

    def reconnect(self, host_id: int, mss_id: Optional[int] = None) -> None:
        """Reconnect into cell *mss_id* (default: the last cell).

        Messages buffered during the disconnection are released into the
        host's inbox after one wireless leg each.
        """
        host = self.hosts[host_id]
        if host.is_connected:
            raise RuntimeError(f"host {host_id} is already connected")
        home = self.directory.buffering_mss(host_id)
        target = mss_id if mss_id is not None else home
        assert target is not None
        if not 0 <= target < self.params.n_mss:
            raise ValueError(f"unknown MSS {target}")
        host.state = HostState.ACTIVE
        host.mss_id = target
        self.stations[target].register(host_id)
        self.directory.reconnected(host_id, target)
        self._send_control(host_id, target, ControlKind.RECONNECT)
        assert home is not None
        pending = self.stations[home].drain_buffer(host_id)
        for msg in pending:
            if home != target:
                self.wired.transmit(msg, lambda m, t=target: self._at_mss(m, t))
            else:
                self.wireless[target].transmit(
                    msg, lambda m, c=target: self._deliver(m, c)
                )

    def _send_control(self, host_id: int, mss_id: int, kind: ControlKind) -> None:
        """One wireless control message from host to an MSS (accounting)."""
        msg = Message(
            src=host_id,
            dst=None,
            kind=MessageKind.CONTROL,
            control=kind,
            dst_mss=mss_id,
        )
        msg.sent_at = self.env.now
        self.control_message_count += 1
        self.hosts[host_id].wireless_sends += 1
        self.wireless[mss_id].transmit(msg, lambda m: None)

    # ------------------------------------------------------------------
    # checkpoint storage integration
    # ------------------------------------------------------------------
    def store_checkpoint(
        self,
        host_id: int,
        index: int,
        reason: str,
        metadata: Optional[dict[str, Any]] = None,
        size_bytes: Optional[int] = None,
        incremental: bool = False,
        base_index: Optional[int] = None,
    ) -> CheckpointRecord:
        """Persist a checkpoint of *host_id* at its current MSS.

        If the checkpoint is incremental and the base record lives at a
        different MSS (the host switched cells since), the base is
        fetched over the wired network first (counted; paper Section 2.2
        "transfer operation to fetch the last checkpoint").
        """
        host = self.hosts[host_id]
        mss = self.stations[host.mss_id]
        if incremental and base_index is not None:
            if mss.storage.get(host_id, base_index) is None:
                donor = self._find_record_holder(host_id, base_index)
                if donor is not None:
                    rec = donor.storage.serve_fetch(host_id, base_index)
                    assert rec is not None
                    self.checkpoint_fetches += 1
                    fetch = Message(
                        src=host_id,
                        dst=None,
                        kind=MessageKind.CONTROL,
                        control=ControlKind.CKPT_FETCH,
                        dst_mss=mss.mss_id,
                    )
                    self.wired.transmit(fetch, lambda m: None)
                    migrated = CheckpointRecord(
                        host_id=rec.host_id,
                        index=rec.index,
                        taken_at=rec.taken_at,
                        mss_id=mss.mss_id,
                        reason=rec.reason,
                        size_bytes=0,  # a copy, not new state
                        incremental=rec.incremental,
                        base_index=rec.base_index,
                        metadata=dict(rec.metadata),
                    )
                    mss.storage.store(migrated)
        record = CheckpointRecord(
            host_id=host_id,
            index=index,
            taken_at=self.env.now,
            mss_id=mss.mss_id,
            reason=reason,
            size_bytes=(
                size_bytes if size_bytes is not None else self.params.checkpoint_bytes
            ),
            incremental=incremental,
            base_index=base_index,
            metadata=dict(metadata or {}),
        )
        mss.storage.store(record)
        return record

    def _find_record_holder(
        self, host_id: int, index: int
    ) -> Optional[MobileSupportStation]:
        for station in self.stations:
            if station.storage.get(host_id, index) is not None:
                return station
        return None

    # ------------------------------------------------------------------
    def connected_hosts(self) -> list[int]:
        """Ids of currently connected hosts."""
        return [h.host_id for h in self.hosts if h.is_connected]

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"<MobileSystem hosts={self.params.n_hosts} "
            f"mss={self.params.n_mss} t={self.env.now}>"
        )
