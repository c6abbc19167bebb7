"""Online execution, including the coordinated baselines.

The communication-induced protocols run online through
:func:`repro.workload.driver.run_online` (re-exported here).  This
module adds the *coordinated* checkpointing baselines the paper's
Section 2 discusses and dismisses for mobile settings:

* **Chandy-Lamport** [8]: an initiator floods a MARKER control message
  to every connected host; each takes a checkpoint on its first marker
  of the round.  Cost: one located control message per host per round
  -- points (1), (2), (3) of the paper's critique.
* **Koo-Toueg** [11]: blocking two-phase coordination restricted to the
  initiator's *dependents* (hosts from which it received messages since
  its last checkpoint): request / tentative checkpoint / ack / commit,
  3 control messages per participant, and participants must hold their
  sends until commit (reported as blocked time).
* **Prakash-Singhal** [13]: non-blocking coordination over the
  *transitive* dependency set, 2 control messages per participant.
* **Tuli-Kumar**: a min-process scheme for mobile environments from the
  follow-up literature (PAPERS.md): like Koo-Toueg it coordinates only
  the initiator's *direct* dependents, but non-blocking -- tentative
  checkpoints are made permanent lazily, so participants keep sending.
  Cost: request / reply, 2 control messages per participant, no
  blocked time.

These cannot be trace-replayed -- their control messages perturb the
schedule -- so they run embedded in the simulation.  The implementations
are deliberately scoped to what the paper's comparison needs (checkpoint
counts, control-message counts, blocking time); they are baselines, not
full recovery stacks.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Optional

from repro.protocols.base import CheckpointingProtocol
from repro.workload.config import WorkloadConfig
from repro.workload.driver import OnlineResult, _Driver, run_online

__all__ = [
    "CoordinatedResult",
    "CoordinatedScheme",
    "OnlineResult",
    "run_coordinated",
    "run_online",
]


class CoordinatedScheme(enum.Enum):
    """The coordinated baselines: the paper's Section 2 trio plus the
    Tuli-Kumar min-process scheme from the mobile follow-up work."""
    CHANDY_LAMPORT = "chandy-lamport"
    KOO_TOUEG = "koo-toueg"
    PRAKASH_SINGHAL = "prakash-singhal"
    TULI_KUMAR = "tuli-kumar"


class _CoordinatedBookkeeper(CheckpointingProtocol):
    """Counts checkpoints for a coordinated run.

    Mobility-mandated basic checkpoints (cell switch / disconnection)
    are taken exactly like in the CIC protocols; snapshot checkpoints
    are injected by the coordinator.  No piggyback rides on messages.
    """

    name = "COORD"
    replayable = False

    def __init__(self, n_hosts: int, n_mss: int = 1):
        super().__init__(n_hosts, n_mss)
        self.count = [1] * n_hosts
        for host in range(n_hosts):
            self.take(host, 0, "initial", 0.0)

    def _checkpoint(self, host: int, reason: str, now: float) -> None:
        self.take(host, self.count[host], reason, now)
        self.count[host] += 1

    def on_cell_switch(self, host: int, now: float, new_cell: int) -> None:
        self._checkpoint(host, "basic", now)

    def on_disconnect(self, host: int, now: float) -> None:
        self._checkpoint(host, "basic", now)

    def snapshot(self, host: int, now: float) -> None:
        """A coordinator-induced checkpoint (counted as forced)."""
        self._checkpoint(host, "forced", now)


@dataclass(slots=True)
class CoordinatedResult:
    """Outcome of one coordinated run."""

    scheme: CoordinatedScheme
    n_total: int
    n_basic: int
    n_snapshot: int
    rounds: int
    #: Control messages of the coordination itself (markers, requests,
    #: acks) -- NOT counting handoff/disconnect signalling.
    control_messages: int
    #: Located-host lookups performed to deliver coordination messages.
    location_lookups: int
    #: Summed time participants spent blocked (Koo-Toueg only).
    blocked_time: float
    n_sends: int
    sim_time: float


class _CoordinatedDriver(_Driver):
    """Workload driver + periodic coordinated snapshot rounds."""

    def __init__(
        self,
        config: WorkloadConfig,
        scheme: CoordinatedScheme,
        snapshot_interval: float,
        initiator: int = 0,
    ):
        if snapshot_interval <= 0:
            raise ValueError("snapshot_interval must be positive")
        bookkeeper = _CoordinatedBookkeeper(config.n_hosts, config.n_mss)
        super().__init__(config, protocol=bookkeeper)
        self.scheme = scheme
        self.snapshot_interval = snapshot_interval
        self.initiator = initiator
        self.bookkeeper = bookkeeper
        self.rounds = 0
        self.coordination_messages = 0
        self.location_lookups = 0
        self.blocked_time = 0.0
        #: received_from[i][j]: i consumed a message from j since i's
        #: last checkpoint (the dependency sets of Koo-Toueg / P-S).
        self._received_from = [
            [False] * config.n_hosts for _ in range(config.n_hosts)
        ]
        #: Round id each host last checkpointed in (marker dedup).
        self._round_done = [-1] * config.n_hosts

    # -- dependency tracking -------------------------------------------------
    def _consume(self, host: int, msg) -> None:
        self._received_from[host][msg.src] = True
        super()._consume(host, msg)

    def _snapshot_checkpoint(self, host: int, round_id: int) -> None:
        if self._round_done[host] >= round_id:
            return
        self._round_done[host] = round_id
        self.bookkeeper.snapshot(host, self.env.now)
        self._received_from[host] = [False] * self.config.n_hosts

    # -- participant selection -------------------------------------------------
    def _participants(self) -> list[int]:
        connected = set(self.system.connected_hosts())
        if self.scheme is CoordinatedScheme.CHANDY_LAMPORT:
            return sorted(connected - {self.initiator})
        direct = {
            j
            for j, flag in enumerate(self._received_from[self.initiator])
            if flag
        }
        if self.scheme in (
            CoordinatedScheme.KOO_TOUEG,
            CoordinatedScheme.TULI_KUMAR,
        ):
            return sorted(direct & connected)
        # Prakash-Singhal: transitive closure of the dependency relation.
        closure = set(direct)
        frontier = list(direct)
        while frontier:
            j = frontier.pop()
            for k, flag in enumerate(self._received_from[j]):
                if flag and k not in closure and k != self.initiator:
                    closure.add(k)
                    frontier.append(k)
        return sorted(closure & connected)

    # -- rounds ------------------------------------------------------------
    def _delivery_delay(self, host: int) -> float:
        """Marker travel time: wired hop (if cross-cell) + wireless leg."""
        self.location_lookups += 1
        lat = self.config.leg_latency
        same_cell = (
            self.system.hosts[host].mss_id
            == self.system.hosts[self.initiator].mss_id
        )
        return lat if same_cell else 2 * lat

    def _snapshot_round(self) -> None:
        round_id = self.rounds
        self.rounds += 1
        if self.system.hosts[self.initiator].is_connected:
            participants = self._participants()
            self._snapshot_checkpoint(self.initiator, round_id)
            per_participant = {
                CoordinatedScheme.CHANDY_LAMPORT: 1,  # marker
                CoordinatedScheme.KOO_TOUEG: 3,  # request, ack, commit
                CoordinatedScheme.PRAKASH_SINGHAL: 2,  # request, reply
                CoordinatedScheme.TULI_KUMAR: 2,  # request, reply
            }[self.scheme]
            for host in participants:
                delay = self._delivery_delay(host)
                self.coordination_messages += per_participant
                if self.scheme is CoordinatedScheme.KOO_TOUEG:
                    # blocked from tentative checkpoint until commit:
                    # one round trip back to the initiator.
                    self.blocked_time += 2 * delay
                self.env.call_later(
                    delay, lambda h=host, r=round_id: self._snapshot_checkpoint(h, r)
                )
        self.env.call_later(self.snapshot_interval, self._snapshot_round)

    def run_coordinated(self) -> CoordinatedResult:
        """Run the workload with periodic snapshot rounds."""
        self.env.call_later(self.snapshot_interval, self._snapshot_round)
        self.run()
        stats = self.bookkeeper
        return CoordinatedResult(
            scheme=self.scheme,
            n_total=stats.n_total,
            n_basic=stats.n_basic,
            n_snapshot=stats.n_forced,
            rounds=self.rounds,
            control_messages=self.coordination_messages,
            location_lookups=self.location_lookups,
            blocked_time=self.blocked_time,
            n_sends=self.compiler.n_sends,
            sim_time=self.config.sim_time,
        )


def run_coordinated(
    config: WorkloadConfig,
    scheme: CoordinatedScheme,
    snapshot_interval: float,
    initiator: int = 0,
) -> CoordinatedResult:
    """Run the workload under a coordinated checkpointing baseline.

    ``snapshot_interval`` sets how often the initiator opens a round.
    Returns checkpoint and control-message counts for the Section 2
    overhead comparison against the CIC protocols.
    """
    driver = _CoordinatedDriver(
        config, scheme, snapshot_interval, initiator=initiator
    )
    return driver.run_coordinated()
