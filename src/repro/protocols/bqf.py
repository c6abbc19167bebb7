"""BQF: Baldoni-Quaglia-Fornara index-based checkpointing (extension).

Reference [6] of the paper ("An Index-Based Checkpointing Algorithm for
Autonomous Distributed Systems", SRDS'97) is the wired-network precursor
of QBC: processes take *autonomous* (timer-driven) basic checkpoints and
the same rn/sn equivalence rule keeps sequence numbers from diverging.

Adapted here to the mobile setting as an ablation: in addition to the
mobility-mandated basic checkpoints (cell switch / disconnection, which
an MH cannot avoid), each host also checkpoints autonomously every
``period`` time units, using QBC's replacement rule throughout.  Setting
``period = inf`` makes BQF degenerate to QBC exactly -- a property the
test suite checks.

BQF ships a batch kernel for the vectorized engine.  Its autonomous
rule is the uncoordinated baseline's periodic rule (a message event at
least one period after the host's last basic), so the kernel places
the autonomous basics by that baseline's period walk and then solves
QBC over the trace with those basics inserted; at ``period = inf`` it
shares QBC's solution.
"""

from __future__ import annotations

from repro.protocols._vectorized import bqf_replay
from repro.protocols.base import CheckpointingProtocol, register


@register("BQF")
class BQFProtocol(CheckpointingProtocol):
    """QBC equivalence rule + autonomous periodic basic checkpoints."""

    vectorizable = True
    index_flavor = "bqf"

    @classmethod
    def vectorized_replay(cls, vt, instance) -> None:
        """Batch kernel: QBC's trajectory, with the autonomous basics
        placed by UNC's period walk (see
        :mod:`repro.protocols._vectorized`)."""
        bqf_replay(vt, instance)

    def __init__(
        self, n_hosts: int, n_mss: int = 1, period: float = float("inf")
    ):
        if period <= 0:
            raise ValueError(f"period must be positive, got {period}")
        super().__init__(n_hosts, n_mss)
        self.period = period
        self.sn = [0] * n_hosts
        self.rn = [-1] * n_hosts
        self._last_ckpt_time = [0.0] * n_hosts
        for host in range(n_hosts):
            self.take(host, 0, "initial", 0.0)

    @property
    def piggyback_ints(self) -> int:
        return 1

    # ------------------------------------------------------------------
    def _basic(self, host: int, now: float) -> None:
        if self.rn[host] == self.sn[host]:
            self.sn[host] += 1
            self.take(host, self.sn[host], "basic", now)
        else:
            self.take(host, self.sn[host], "basic", now, replaced=True)
        self._last_ckpt_time[host] = now

    def _maybe_autonomous(self, host: int, now: float) -> None:
        if now - self._last_ckpt_time[host] >= self.period:
            self._basic(host, now)

    # ------------------------------------------------------------------
    def on_send(self, host: int, dst: int, now: float) -> int:
        self._maybe_autonomous(host, now)
        return self.sn[host]

    def on_receive(self, host: int, piggyback: int, src: int, now: float) -> None:
        self._maybe_autonomous(host, now)
        m_sn = piggyback
        if m_sn > self.rn[host]:
            self.rn[host] = m_sn
        if m_sn > self.sn[host]:
            self.sn[host] = m_sn
            self.take(host, m_sn, "forced", now)
        assert self.rn[host] <= self.sn[host], "BQF invariant rn <= sn violated"

    def on_cell_switch(self, host: int, now: float, new_cell: int) -> None:
        self._basic(host, now)

    def on_disconnect(self, host: int, now: float) -> None:
        self._basic(host, now)

    # ------------------------------------------------------------------
    def recovery_line_indices(self) -> dict[int, int]:
        """Same index rule as BCS/QBC."""
        line_index = min(self.sn)
        contribution: dict[int, int] = {}
        for host in range(self.n_hosts):
            candidates = [
                c.index for c in self.checkpoints_of(host) if c.index >= line_index
            ]
            contribution[host] = min(candidates)
        return contribution
