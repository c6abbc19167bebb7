"""FDAS: Fixed-Dependency-After-Send, from the Garcia-Vieira-Buzato
taxonomy of communication-induced protocols.

The rollback-history survey of Garcia, Vieira & Buzato (PAPERS.md)
organises the index/logical-clock CIC family by *when* a higher
piggybacked clock forces a checkpoint.  BCS (Section 4.2 of the source
paper) is the eager extreme: *every* message carrying ``m.lc > lc_i``
forces one.  FDAS relaxes it with the after-send rule:

* a message with ``m.lc > lc_i`` forces a checkpoint **only if the
  host has sent a message in its current checkpoint interval** --
  otherwise the host silently adopts the higher clock
  (``lc_i := m.lc``) and keeps computing;
* once a checkpoint is taken, the interval's send flag resets, so the
  first send "fixes" the dependency structure of the interval (hence
  the name: dependencies are fixed after the first send).

The host that only consumes messages between checkpoints never pays a
forced checkpoint, which is exactly the asymmetric-traffic shape of a
mobile host feeding off infrastructure servers.  The protocol stays a
single piggybacked integer per message, like BCS/QBC.

What FDAS guarantees is *rollback-dependency trackability* (RDT):
consistent global checkpoints exist and are computable from tracked
dependencies, but the simple equal-index rule of the BCS family does
NOT hold -- a host that adopted an index without checkpointing has no
checkpoint standing at that index, and completing the line with its
*next* checkpoint would orphan the very message that raised the clock.
:meth:`recovery_line_indices` is therefore deliberately not
implemented (building RDT lines needs the dependency vectors the
replay does not carry); the conformance kit and the audit skip the
on-the-fly-line batteries for it, exactly as they do for the
uncoordinated baseline.

FDAS ships a batch kernel for the vectorized engine.  Its clock is
BCS's index (a basic increments it, a higher piggyback raises it), and
its forced checkpoints are exactly the jumps the no-send rule of
BCS-NS forces; where BCS-NS renames its last checkpoint, FDAS adopts
the clock and records nothing.
"""

from __future__ import annotations

from repro.protocols._vectorized import index_family_replay
from repro.protocols.base import CheckpointingProtocol, register


@register("FDAS")
class FDASProtocol(CheckpointingProtocol):
    """Logical-clock CIC with the fixed-dependency-after-send rule."""

    vectorizable = True
    index_flavor = "fdas"

    @classmethod
    def vectorized_replay(cls, vt, instance) -> None:
        """Batch kernel: BCS's trajectory with the no-send split, where
        a jump that forces nothing adopts the clock (see
        :mod:`repro.protocols._vectorized`)."""
        index_family_replay(vt, instance, cls.index_flavor)

    def __init__(self, n_hosts: int, n_mss: int = 1):
        super().__init__(n_hosts, n_mss)
        #: Logical clock per host; may run ahead of the host's latest
        #: checkpoint index (unlike BCS's ``sn``, which never does).
        self.lc = [0] * n_hosts
        #: True once the host sent in the current checkpoint interval.
        self.sent_since_ckpt = [False] * n_hosts
        for host in range(n_hosts):
            self.take(host, 0, "initial", 0.0)

    @property
    def piggyback_ints(self) -> int:
        return 1  # the sender's logical clock, as in BCS

    # ------------------------------------------------------------------
    def on_send(self, host: int, dst: int, now: float) -> int:
        self.sent_since_ckpt[host] = True
        return self.lc[host]

    def on_receive(self, host: int, piggyback: int, src: int, now: float) -> None:
        m_lc = piggyback
        if m_lc > self.lc[host]:
            if self.sent_since_ckpt[host]:
                # The interval already has a fixed (sent) dependency: a
                # checkpoint must separate it from the new one.
                self.lc[host] = m_lc
                self.sent_since_ckpt[host] = False
                self.take(host, m_lc, "forced", now)
            else:
                # Receive-only interval: adopt the clock, no checkpoint.
                self.lc[host] = m_lc

    def _basic(self, host: int, now: float) -> None:
        self.lc[host] += 1
        self.sent_since_ckpt[host] = False
        self.take(host, self.lc[host], "basic", now)

    def on_cell_switch(self, host: int, now: float, new_cell: int) -> None:
        self._basic(host, now)

    def on_disconnect(self, host: int, now: float) -> None:
        self._basic(host, now)

    # ------------------------------------------------------------------
    def invariant_violations(self) -> list[str]:
        """Base checks plus the FDAS clock contract: ``lc_i`` never
        falls behind the latest checkpoint index (it may run ahead of
        it after an adopted clock, never behind)."""
        problems = super().invariant_violations()
        for host, (lc, last) in enumerate(zip(self.lc, self.last_index)):
            if lc < last:
                problems.append(
                    f"host {host}: lc {lc} < latest checkpoint index {last}"
                )
        return problems

    # ------------------------------------------------------------------
    def rollback_to(self, indices: dict[int, int], now: float) -> None:
        """Restore the live clock to the restart checkpoint's index; a
        restored interval has sent nothing yet."""
        for host, index in indices.items():
            self.lc[host] = index
            self.sent_since_ckpt[host] = False
