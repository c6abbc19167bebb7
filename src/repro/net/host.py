"""Mobile-host runtime state.

A :class:`MobileHost` is a passive record manipulated by
:class:`~repro.net.system.MobileSystem`: it tracks the host's current
cell, connection state, and the FIFO inbox of application messages
awaiting an explicit *receive operation* (paper Section 5.1: on each
communication step the host performs a send with probability ``P_s``,
otherwise a receive).
"""

from __future__ import annotations

import enum
from collections import deque
from typing import TYPE_CHECKING, Callable, Optional

from repro.des.core import Environment

if TYPE_CHECKING:  # pragma: no cover
    from repro.net.message import Message


class HostState(enum.Enum):
    """Connection state of a mobile host."""

    ACTIVE = "active"
    DISCONNECTED = "disconnected"


class MobileHost:
    """State of one mobile host.

    Parameters
    ----------
    env:
        Simulation environment.
    host_id:
        Index in ``range(n_hosts)``.
    mss_id:
        Identifier of the MSS whose cell the host starts in.
    """

    __slots__ = (
        "env",
        "host_id",
        "mss_id",
        "state",
        "inbox",
        "_receiver",
        "sent_count",
        "received_count",
        "handoff_count",
        "disconnect_count",
        "wireless_sends",
    )

    def __init__(self, env: Environment, host_id: int, mss_id: int):
        self.env = env
        self.host_id = host_id
        self.mss_id = mss_id
        self.state = HostState.ACTIVE
        #: Application messages delivered over the air, awaiting an
        #: explicit receive operation.
        self.inbox: deque["Message"] = deque()
        #: The callback of a blocking receive waiting on an empty inbox.
        self._receiver: Optional[Callable[["Message"], None]] = None
        self.sent_count = 0
        self.received_count = 0
        self.handoff_count = 0
        self.disconnect_count = 0
        #: Wireless transmissions originated by this host (energy proxy).
        self.wireless_sends = 0

    @property
    def is_connected(self) -> bool:
        """True while the host is reachable in some cell."""
        return self.state is HostState.ACTIVE

    def deliver(self, msg: "Message") -> None:
        """Queue *msg*, or hand it to the waiting blocking receive."""
        self.inbox.append(msg)
        if self._receiver is not None:
            self._hand_over()

    def try_receive(self) -> Optional["Message"]:
        """Consume the oldest inbox message, or ``None`` if empty.

        This is the non-blocking receive operation used by the paper
        workload (see DESIGN.md "Model decisions").
        """
        if not self.inbox:
            return None
        self.received_count += 1
        return self.inbox.popleft()

    def receive(self, callback: Callable[["Message"], None]) -> None:
        """Blocking receive: ``callback(msg)`` runs with the next message.

        The message leaves the inbox as soon as it is there, but the
        callback runs as its own agenda entry at that time, after the
        entries already due then.  A host has at most one pending
        receive (its application loop waits on it).  Offered for the
        ``block_on_empty_receive`` workload variant.
        """
        self._receiver = callback
        if self.inbox:
            self._hand_over()

    def _hand_over(self) -> None:
        receiver, self._receiver = self._receiver, None
        msg = self.inbox.popleft()

        def consume() -> None:
            self.received_count += 1
            receiver(msg)

        self.env.call_later(0.0, consume)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"<MobileHost h{self.host_id} cell={self.mss_id} "
            f"{self.state.value} inbox={len(self.inbox)}>"
        )
