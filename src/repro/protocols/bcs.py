"""BCS: the Briatico-Ciuffoletti-Simoncini index-based protocol.

Paper Section 4.2.  Every host carries a sequence number ``sn_i``
(first checkpoint has index 0); each outgoing message piggybacks the
sender's ``sn``.  Receiving ``m`` with ``m.sn > sn_i`` forces a
checkpoint at the new index; every basic checkpoint (cell switch or
disconnection) increments ``sn_i``.  Checkpoints with equal sequence
number form a consistent global checkpoint (with the "first checkpoint
after a jump" completion rule), so a recovery line is available on the
fly with one piggybacked integer -- the protocol scales with the number
of hosts.
"""

from __future__ import annotations

from repro.protocols._vectorized import index_family_replay
from repro.protocols.base import CheckpointingProtocol, register


@register("BCS")
class BCSProtocol(CheckpointingProtocol):
    """Index-based communication-induced checkpointing."""

    vectorizable = True
    index_flavor = "bcs"

    @classmethod
    def vectorized_replay(cls, vt, instance) -> None:
        """Batch kernel: the index-family trajectory with BCS's
        unconditional basic increment (see
        :mod:`repro.protocols._vectorized`)."""
        index_family_replay(vt, instance, cls.index_flavor)

    def __init__(self, n_hosts: int, n_mss: int = 1):
        super().__init__(n_hosts, n_mss)
        #: sn_i per host; index of the host's latest checkpoint.
        self.sn = [0] * n_hosts
        for host in range(n_hosts):
            self.take(host, 0, "initial", 0.0)

    @property
    def piggyback_ints(self) -> int:
        return 1  # just the sender's sequence number

    # ------------------------------------------------------------------
    def on_send(self, host: int, dst: int, now: float) -> int:
        return self.sn[host]

    def on_receive(self, host: int, piggyback: int, src: int, now: float) -> None:
        m_sn = piggyback
        if m_sn > self.sn[host]:
            self.sn[host] = m_sn
            self.take(host, m_sn, "forced", now)

    def _basic(self, host: int, now: float) -> None:
        self.sn[host] += 1
        self.take(host, self.sn[host], "basic", now)

    def on_cell_switch(self, host: int, now: float, new_cell: int) -> None:
        self._basic(host, now)

    def on_disconnect(self, host: int, now: float) -> None:
        self._basic(host, now)

    # ------------------------------------------------------------------
    def invariant_violations(self) -> list[str]:
        """Base checks plus the index-protocol invariant: ``sn_i`` is by
        construction the index of the host's latest checkpoint."""
        problems = super().invariant_violations()
        for host, (sn, last) in enumerate(zip(self.sn, self.last_index)):
            if sn != last:
                problems.append(
                    f"host {host}: sn {sn} != latest checkpoint index {last}"
                )
        return problems

    # ------------------------------------------------------------------
    def rollback_to(self, indices: dict[int, int], now: float) -> None:
        """Restore live state to the line: ``sn_i`` is exactly the index
        of the checkpoint the host restarts from."""
        for host, index in indices.items():
            self.sn[host] = index

    # ------------------------------------------------------------------
    def recovery_line_indices(self) -> dict[int, int]:
        """Hosts agree on the line index ``L = min_i sn_i``; each host
        contributes its *first* checkpoint with index >= L (the jump
        rule).  Returns the contributed checkpoint index per host."""
        line_index = min(self.sn)
        contribution: dict[int, int] = {}
        for host in range(self.n_hosts):
            candidates = [
                c.index for c in self.checkpoints_of(host) if c.index >= line_index
            ]
            contribution[host] = min(candidates)
        return contribution
