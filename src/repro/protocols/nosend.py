"""Index-based protocols with the *no-send* skip rule (extension).

The CIC literature after BCS (Helary-Mostefaoui-Netzer-Raynal's
protocol family; the checkpoint-equivalence formalisation of the
paper's refs [6, 14]) observes that a forced checkpoint is wasted when
the receiver has **sent nothing** since its last checkpoint: that last
checkpoint cannot be the source of any orphan for the new index, so it
can simply be *renamed* to the incoming index -- a metadata update at
the MSS, no state transfer over the wireless link.

Soundness sketch (machine-checked by the property-test suite against
the independent orphan checker): let C be h_i's last checkpoint, with
no send by h_i after C.  Renaming C to index ``m.sn`` puts C in the
line at ``m.sn``.  Orphans w.r.t. (C_j, C) need a message received by
h_i *before C* and sent by h_j after its index-``m.sn`` line
checkpoint; but everything h_i received before C carried an index
``<= C``'s old index ``< m.sn``, so the sender's line checkpoint (first
with index ``>= m.sn``) covers the send.  Orphans w.r.t. (C, C_j) need
a send by h_i after C -- excluded by the rule.

Two protocols:

* :class:`NoSendBCSProtocol` ("BCS-NS") -- BCS with the skip rule on
  the receive side.
* :class:`NoSendQBCProtocol` ("QBC-NS") -- the skip rule combined with
  QBC's basic-side replacement rule; the most checkpoint-frugal of the
  index family in this repository.

Both keep the 1-integer piggyback and the same min-index recovery-line
rule.
"""

from __future__ import annotations

from repro.protocols._vectorized import index_family_replay
from repro.protocols.base import CheckpointingProtocol, register


class _NoSendMixin(CheckpointingProtocol):
    """Shared receive-side machinery for the skip rule."""

    def __init__(self, n_hosts: int, n_mss: int = 1):
        super().__init__(n_hosts, n_mss)
        self.sn = [0] * n_hosts
        #: True once the host sent a message in its current interval.
        self.sent_since_ckpt = [False] * n_hosts
        for host in range(n_hosts):
            self.take(host, 0, "initial", 0.0, metadata={"rn": -1})

    @property
    def piggyback_ints(self) -> int:
        return 1

    def on_send(self, host: int, dst: int, now: float) -> int:
        self.sent_since_ckpt[host] = True
        return self.sn[host]

    def _receive_index(self, host: int, m_sn: int, now: float) -> None:
        """Apply the index rule with the no-send skip."""
        if m_sn > self.sn[host]:
            self.sn[host] = m_sn
            if self.sent_since_ckpt[host]:
                self.take(
                    host, m_sn, "forced", now, metadata={"rn": m_sn}
                )
                self.sent_since_ckpt[host] = False
            else:
                self.rename_last(host, m_sn, now)

    def recovery_line_indices(self) -> dict[int, int]:
        line_index = min(self.sn)
        contribution: dict[int, int] = {}
        for host in range(self.n_hosts):
            candidates = [
                c.index for c in self.checkpoints_of(host) if c.index >= line_index
            ]
            contribution[host] = min(candidates)
        return contribution

    def rollback_to(self, indices: dict[int, int], now: float) -> None:
        """Restore sn (and rn where present) from the line checkpoints;
        the restored interval has no sends by definition."""
        for host, index in indices.items():
            self.sn[host] = index
            self.sent_since_ckpt[host] = False
            if hasattr(self, "rn"):
                restored_rn = -1
                for ck in self.checkpoints:
                    if ck.host == host and ck.index == index:
                        restored_rn = (ck.metadata or {}).get("rn", -1)
                self.rn[host] = min(restored_rn, index)


@register("BCS-NS")
class NoSendBCSProtocol(_NoSendMixin):
    """BCS plus the no-send skip rule on receives."""

    vectorizable = True
    index_flavor = "bcs_ns"

    @classmethod
    def vectorized_replay(cls, vt, instance) -> None:
        """Batch kernel: BCS dynamics plus the no-send forced/rename
        split (see :mod:`repro.protocols._vectorized`)."""
        index_family_replay(vt, instance, cls.index_flavor)

    def on_receive(self, host: int, piggyback: int, src: int, now: float) -> None:
        self._receive_index(host, piggyback, now)

    def _basic(self, host: int, now: float) -> None:
        self.sn[host] += 1
        self.take(host, self.sn[host], "basic", now, metadata={"rn": -1})
        self.sent_since_ckpt[host] = False

    def on_cell_switch(self, host: int, now: float, new_cell: int) -> None:
        self._basic(host, now)

    def on_disconnect(self, host: int, now: float) -> None:
        self._basic(host, now)


@register("QBC-NS")
class NoSendQBCProtocol(_NoSendMixin):
    """QBC's basic-side replacement + the no-send receive-side skip."""

    vectorizable = True
    index_flavor = "qbc_ns"

    @classmethod
    def vectorized_replay(cls, vt, instance) -> None:
        """Batch kernel: QBC dynamics plus the no-send forced/rename
        split (see :mod:`repro.protocols._vectorized`)."""
        index_family_replay(vt, instance, cls.index_flavor)

    def __init__(self, n_hosts: int, n_mss: int = 1):
        super().__init__(n_hosts, n_mss)
        self.rn = [-1] * n_hosts

    def on_receive(self, host: int, piggyback: int, src: int, now: float) -> None:
        if piggyback > self.rn[host]:
            self.rn[host] = piggyback
        self._receive_index(host, piggyback, now)
        assert self.rn[host] <= self.sn[host]

    def _basic(self, host: int, now: float) -> None:
        if self.rn[host] == self.sn[host]:
            self.sn[host] += 1
            self.take(
                host, self.sn[host], "basic", now,
                metadata={"rn": self.rn[host]},
            )
        else:
            self.take(
                host, self.sn[host], "basic", now, replaced=True,
                metadata={"rn": self.rn[host]},
            )
        self.sent_since_ckpt[host] = False

    def on_cell_switch(self, host: int, now: float, new_cell: int) -> None:
        self._basic(host, now)

    def on_disconnect(self, host: int, now: float) -> None:
        self._basic(host, now)
