"""Uncoordinated (independent) checkpointing baseline.

Paper Section 2: "processes take local checkpoints independently ...
there is the risk of a domino effect while attempting to build a
consistent global checkpoint during the rollback phase".  This baseline
exists to *demonstrate* that: it takes cheap local checkpoints (periodic
plus the mobility-mandated ones) and never coordinates, so
:mod:`repro.core.recovery` can measure the domino rollback it suffers
against the bounded rollback of the CIC protocols.

The recovery line must be discovered a posteriori (rollback-dependency
graph search in :mod:`repro.core.consistency`);
:meth:`recovery_line_indices` therefore raises.
"""

from __future__ import annotations

from repro.protocols._vectorized import unc_replay
from repro.protocols.base import CheckpointingProtocol, register


@register("UNC")
class UncoordinatedProtocol(CheckpointingProtocol):
    """Periodic independent checkpoints; no forced checkpoints at all."""

    vectorizable = True

    @classmethod
    def vectorized_replay(cls, vt, instance) -> None:
        """Batch kernel: checkpoint-to-checkpoint walk over the period
        boundaries (see :mod:`repro.protocols._vectorized`)."""
        unc_replay(vt, instance)

    def __init__(self, n_hosts: int, n_mss: int = 1, period: float = 100.0):
        if period <= 0:
            raise ValueError(f"period must be positive, got {period}")
        super().__init__(n_hosts, n_mss)
        self.period = period
        self.count = [0] * n_hosts
        self._last_ckpt_time = [0.0] * n_hosts
        for host in range(n_hosts):
            self.take(host, 0, "initial", 0.0)
            self.count[host] = 1

    @property
    def piggyback_ints(self) -> int:
        return 0  # nothing rides on messages -- that is the problem

    # ------------------------------------------------------------------
    def _checkpoint(self, host: int, reason: str, now: float) -> None:
        self.take(host, self.count[host], reason, now)
        self.count[host] += 1
        self._last_ckpt_time[host] = now

    def _maybe_periodic(self, host: int, now: float) -> None:
        # Catch up on every period boundary crossed since the last
        # checkpoint (hosts idle for long stretches take one per period
        # of *activity*, approximated at the next observable event).
        if now - self._last_ckpt_time[host] >= self.period:
            self._checkpoint(host, "basic", now)

    # ------------------------------------------------------------------
    def on_send(self, host: int, dst: int, now: float) -> None:
        self._maybe_periodic(host, now)
        return None

    def on_receive(self, host: int, piggyback, src: int, now: float) -> None:
        self._maybe_periodic(host, now)

    def on_cell_switch(self, host: int, now: float, new_cell: int) -> None:
        self._checkpoint(host, "basic", now)

    def on_disconnect(self, host: int, now: float) -> None:
        self._checkpoint(host, "basic", now)
