"""Failure injection: crash-and-recover inside a running simulation.

Extends the online driver with a Poisson failure process: a crash
destroys a random connected host's volatile state, the system executes
the protocol's rollback -- computed and costed by
:mod:`repro.core.recovery_online` -- and the computation resumes from
the recovery line:

* the protocol's live per-host state is restored with
  ``rollback_to`` (sequence numbers, receive numbers, TP's phase and
  dependency vectors, from the metadata recorded with the line
  checkpoints);
* all pre-failure application messages become stale -- in-flight ones
  and queued inbox ones are discarded at the transport (epoch tags),
  exactly as a rolled-back computation would refuse messages from an
  undone past;
* every host pauses its application loop for the plan's recovery time
  (mobility continues -- hosts keep moving while software recovers);
* lost work is accounted as the wall-clock each host is rolled back
  plus the recovery downtime.

This closes the paper's future-work loop: failure-free overhead
(N_tot) and failure cost (lost work + recovery time) can now be traded
off in one run.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.core.recovery_online import RecoveryPlan, plan_recovery
from repro.protocols.base import CheckpointingProtocol
from repro.workload.config import WorkloadConfig
from repro.workload.driver import _Driver


@dataclass(slots=True)
class FailureEvent:
    """One crash and its recovery cost."""

    time: float
    victim: int
    recovery_time: float
    control_messages: int
    checkpoint_fetches: int
    #: Wall-clock of computation undone, summed over hosts.
    lost_work_time: float
    deferred_hosts: int


@dataclass
class FailureRunResult:
    """Outcome of a run with failure injection."""

    protocol: CheckpointingProtocol
    failures: list[FailureEvent] = field(default_factory=list)
    stale_messages_dropped: int = 0
    n_sends: int = 0
    n_receives: int = 0
    sim_time: float = 0.0

    @property
    def n_failures(self) -> int:
        """Number of crashes injected."""
        return len(self.failures)

    @property
    def total_lost_work(self) -> float:
        """Wall-clock of undone computation, summed over failures."""
        return sum(f.lost_work_time for f in self.failures)

    @property
    def total_recovery_downtime(self) -> float:
        """Summed recovery pauses across failures."""
        return sum(f.recovery_time for f in self.failures)

    @property
    def availability(self) -> float:
        """Fraction of host-time not spent recovering (downtime model:
        every host pauses for each failure's recovery time)."""
        if self.sim_time == 0:
            return 1.0
        return max(0.0, 1.0 - self.total_recovery_downtime / self.sim_time)


class _FailureDriver(_Driver):
    """Online driver + Poisson crash process."""

    def __init__(
        self,
        config: WorkloadConfig,
        protocol: CheckpointingProtocol,
        failure_mean_interval: float,
        ckpt_latency: float = 0.0,
    ):
        if failure_mean_interval <= 0:
            raise ValueError("failure_mean_interval must be positive")
        super().__init__(config, protocol=protocol, ckpt_latency=ckpt_latency)
        self.failure_mean_interval = failure_mean_interval
        self._epoch = 0
        self._epoch_of_msg: dict[int, int] = {}
        self._resume_after = [0.0] * config.n_hosts
        self.result = FailureRunResult(protocol=protocol)

    # -- epoch-tagged application traffic ---------------------------------
    def _do_send(self, host: int):
        msg = super()._do_send(host)
        if msg is not None:  # a send actually happened: tag its epoch
            self._epoch_of_msg[msg.msg_id] = self._epoch
        return msg

    def _consume(self, host: int, msg) -> None:
        if self._epoch_of_msg.get(msg.msg_id, 0) != self._epoch:
            # stale message from an undone epoch: the transport drops it
            self.result.stale_messages_dropped += 1
            return
        super()._consume(host, msg)

    # -- application pause during recovery ---------------------------------
    def _app_step(self, host: int) -> None:
        resume = self._resume_after[host]
        if self.env.now < resume:
            self.env.call_later(resume - self.env.now, lambda: self._app_step(host))
            return
        super()._app_step(host)

    # -- the crash process --------------------------------------------------
    def _schedule_failure(self) -> None:
        delay = self.rng.exponential("failures/interval", self.failure_mean_interval)
        self.env.call_later(delay, self._fail)

    def _fail(self) -> None:
        victim = self.rng.choice_index("failures/victim", self.config.n_hosts)
        if not self.system.hosts[victim].is_connected:
            # A disconnected host has no running computation to crash;
            # draw again later.
            self._schedule_failure()
            return
        now = self.env.now
        plan: RecoveryPlan = plan_recovery(self.system, self.protocol, victim)
        indices = {step.host: step.restart_index for step in plan.steps}
        if hasattr(self.protocol, "take_on_demand"):
            # TP: a host whose required checkpoint does not exist yet
            # takes it on demand (no rollback for that host).
            for h, idx in indices.items():
                if idx >= self.protocol.count[h]:
                    indices[h] = self.protocol.take_on_demand(h, now)
        lost = self._lost_work(indices, now)
        self.protocol.rollback_to(indices, now)
        self._epoch += 1
        # queued-but-unconsumed messages are part of the undone past
        for h in self.system.hosts:
            self.result.stale_messages_dropped += len(h.inbox)
            h.inbox.clear()
        until = now + plan.recovery_time
        for h in range(self.config.n_hosts):
            self._resume_after[h] = max(self._resume_after[h], until)
        self.result.failures.append(
            FailureEvent(
                time=now,
                victim=victim,
                recovery_time=plan.recovery_time,
                control_messages=plan.control_messages
                + plan.line_computation_messages,
                checkpoint_fetches=plan.checkpoint_fetches,
                lost_work_time=lost,
                deferred_hosts=len(plan.deferred_hosts),
            )
        )
        self._schedule_failure()

    def _lost_work(self, indices: dict[int, int], now: float) -> float:
        """Wall-clock rolled back, summed over hosts: now minus the time
        of each host's line checkpoint (latest record at that index)."""
        when: dict[int, float] = {}
        for ck in self.protocol.checkpoints:
            if indices.get(ck.host) == ck.index:
                when[ck.host] = ck.time
        return sum(max(0.0, now - t) for t in when.values())

    # ------------------------------------------------------------------
    def run_with_failures(self) -> FailureRunResult:
        """Run the workload with the crash process armed."""
        self._schedule_failure()
        self.run()
        self.result.n_sends = self.compiler.n_sends
        self.result.n_receives = self.compiler.n_receives
        self.result.sim_time = self.config.sim_time
        return self.result


def run_with_failures(
    config: WorkloadConfig,
    protocol: CheckpointingProtocol,
    failure_mean_interval: float,
    ckpt_latency: float = 0.0,
) -> FailureRunResult:
    """Run the workload with Poisson failures (mean inter-arrival
    ``failure_mean_interval``) and full rollback execution."""
    driver = _FailureDriver(
        config, protocol, failure_mean_interval, ckpt_latency=ckpt_latency
    )
    return driver.run_with_failures()
