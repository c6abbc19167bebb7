"""Workload driver: runs the paper's application/mobility model.

Two entry points share one engine:

* :func:`generate_trace` -- run the mobile-system simulation *without*
  any protocol and emit the protocol-independent
  :class:`~repro.core.trace.Trace` used by the replay comparison.
* :func:`run_online` -- run the same workload with a checkpointing
  protocol embedded: piggybacks ride real messages and an optional
  non-zero checkpoint latency pauses the host after every checkpoint
  (the paper's robustness check on instantaneous insertion).

Per-host loops (paper Section 5.1):

* **application**: wait Exp(``internal_mean``) (the internal event),
  then communicate -- send to a uniform random other host with
  probability ``p_send``, otherwise perform a receive operation that
  consumes the oldest inbox message (no-op when empty unless
  ``block_on_empty_receive``).
* **mobility**: on entering a cell pre-decide switch (prob
  ``p_switch``, residence Exp(T_i)) or disconnect (residence
  Exp(T_i/3), away Exp(``disconnect_mean``)); disconnected hosts pause
  their application loop and reconnect into the same cell.

Both loops consult the config's registered *workload model*
(:mod:`repro.workload.registry`) for the shaping decisions -- arrival
delays, destination choice, residence scaling.  The default ``"paper"``
model reproduces the hard-coded behaviour above bit-identically.

Every event goes straight into the run's
:class:`~repro.core.compiled.StreamingCompiler` as a ``(time, etype,
host, msg_id, peer, cell)`` row; no per-event object is built, and the
compiler's staging stays O(block) python values.  The returned trace
is column-backed (:meth:`Trace.from_columns` of the compiler's
:class:`~repro.core.compiled.ArrayColumns`), the same form a
disk-cache hit has.

For an eligible paper-model config :func:`generate_trace` does not run
the loop at all: :mod:`repro.workload.columnar` computes the same
columns in numpy passes, and hands the config back to the loop only
where the loop's scheduling order would decide the outcome.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.core.compiled import (
    CELL_SWITCH,
    DISCONNECT,
    RECEIVE,
    RECONNECT,
    SEND,
    StreamingCompiler,
)
from repro.core.metrics import CheckpointStats, ProtocolRunMetrics
from repro.core.trace import Trace
from repro.des.core import Environment
from repro.des.rng import RandomStreams
from repro.mobility.heterogeneity import residence_means
from repro.mobility.models import MoveKind, PaperMobilityModel, make_cell_chooser
from repro.net.system import MobileSystem, NetworkParams
from repro.protocols.base import CheckpointingProtocol
from repro.workload import columnar
from repro.workload.config import WorkloadConfig


@dataclass(slots=True)
class OnlineResult:
    """Outcome of an online (protocol-in-the-loop) run."""

    trace: Trace
    protocol: CheckpointingProtocol
    metrics: ProtocolRunMetrics
    system: MobileSystem
    #: Stable-storage bytes reclaimed by online GC (0 when disabled).
    gc_bytes_reclaimed: int = 0
    #: Bytes shipped over the wireless links for checkpoints (full
    #: snapshots, or dirty-page deltas under incremental checkpointing).
    bytes_shipped: int = 0


class _AllOthers:
    """Lazy ascending sequence of every host id except one.

    The destination-candidate set for ``send_to_connected_only=False``:
    ``_AllOthers(n, skip)[k]`` is ``k`` shifted past ``skip``, exactly
    the mapping :meth:`RandomStreams.choice_other` applies -- so the
    paper model's uniform draw over it stays bit-identical to the old
    direct ``choice_other`` call while costing O(1) memory per host
    (a materialized list would be O(n) per sender).
    """

    __slots__ = ("n", "skip")

    def __init__(self, n: int, skip: int):
        self.n = n
        self.skip = skip

    def __len__(self) -> int:
        return self.n - 1

    def __getitem__(self, index: int) -> int:
        if index < 0:
            index += self.n - 1
        if not 0 <= index < self.n - 1:
            raise IndexError(index)
        return index if index < self.skip else index + 1

    def __iter__(self):
        for index in range(self.n - 1):
            yield index if index < self.skip else index + 1


class _Driver:
    """One simulated run; see module docstring for the model."""

    def __init__(
        self,
        config: WorkloadConfig,
        protocol: Optional[CheckpointingProtocol] = None,
        ckpt_latency: float = 0.0,
        gc_interval: Optional[float] = None,
    ):
        config.validate()
        if ckpt_latency < 0:
            raise ValueError("ckpt_latency must be >= 0")
        if gc_interval is not None and gc_interval <= 0:
            raise ValueError("gc_interval must be positive")
        if protocol is not None and protocol.n_hosts != config.n_hosts:
            raise ValueError(
                f"protocol sized for {protocol.n_hosts} hosts, "
                f"config has {config.n_hosts}"
            )
        self.config = config
        self.protocol = protocol
        self.ckpt_latency = ckpt_latency
        self.env = Environment()
        self.rng = RandomStreams(config.seed)
        self.system = MobileSystem(
            self.env,
            NetworkParams(
                n_hosts=config.n_hosts,
                n_mss=config.n_mss,
                leg_latency=config.leg_latency,
                duplicate_prob=config.duplicate_prob,
                log_messages=config.log_messages_at_mss,
            ),
            self.rng,
        )
        self.mobility = PaperMobilityModel(
            residence_means(
                config.n_hosts,
                config.t_switch,
                config.heterogeneity,
                config.fast_factor,
            ),
            p_switch=config.p_switch,
            disconnect_mean=config.disconnect_mean,
            disconnect_residence_divisor=config.disconnect_residence_divisor,
        )
        self.chooser = make_cell_chooser(config.cell_chooser, config.n_mss)
        # Imported lazily: the registry must stay importable without
        # the driver (and vice versa).
        from repro.workload.registry import make_workload

        self.model = make_workload(config)
        self._others_cache: dict[int, _AllOthers] = {}
        #: Every emitted event lands here as one row of trace columns.
        self.compiler = StreamingCompiler(
            n_hosts=config.n_hosts,
            n_mss=config.n_mss,
            sim_time=config.sim_time,
        )
        self._feed = self.compiler.feed
        self._app_paused = [False] * config.n_hosts
        self.gc_interval = gc_interval
        self.gc_bytes_reclaimed = 0
        #: Checkpoint-transfer pause owed per host (latency + bytes/bw).
        self._pending_pause = [0.0] * config.n_hosts
        #: Incremental-checkpointing machinery (paper Section 2.2).
        self._checkpointers = None
        self._cut_ordinal = [0] * config.n_hosts
        self._last_stored_index: list[Optional[int]] = [None] * config.n_hosts
        self.bytes_shipped = 0
        if protocol is not None:
            if config.incremental_checkpointing:
                from repro.storage.incremental import (
                    HostStateModel,
                    IncrementalCheckpointer,
                )

                self._checkpointers = [
                    IncrementalCheckpointer(
                        HostStateModel(
                            h, n_pages=config.state_pages,
                            page_bytes=config.page_bytes,
                        )
                    )
                    for h in range(config.n_hosts)
                ]
            # Checkpoints persist at the current MSS's stable storage
            # (paper Section 2.2, point (a)); QBC replacements overwrite
            # the record at the same (host, index).
            protocol.storage_hook = self._on_checkpoint
            # The initial checkpoints were taken in the protocol's
            # constructor, before the hook existed: persist them now.
            for ck in protocol.checkpoints:
                self._on_checkpoint(ck.host, ck.index, ck.reason, ck.metadata or {})

    # ------------------------------------------------------------------
    # checkpoint persistence + transfer-cost accounting (online mode)
    # ------------------------------------------------------------------
    def _on_checkpoint(self, host, index, reason, metadata) -> None:
        """Every protocol checkpoint lands here: persist it at the
        current MSS and charge the host the wireless transfer cost."""
        if reason == "rename":
            # metadata-only relabel: store a fresh record at the new
            # index, ship nothing, no pause
            self.system.store_checkpoint(
                host, index, reason, metadata=dict(metadata), size_bytes=0
            )
            self._last_stored_index[host] = index
            return
        incremental = False
        base_index = None
        if self._checkpointers is not None:
            ck = self._checkpointers[host]
            shipped = ck.cut(self._cut_ordinal[host])
            self._cut_ordinal[host] += 1
            if isinstance(shipped, dict):  # full snapshot (first cut)
                size_bytes = len(shipped) * self.config.page_bytes
            else:
                size_bytes = shipped.size_pages * self.config.page_bytes
                incremental = True
                base_index = self._last_stored_index[host]
        else:
            # full checkpointing ships the host's whole modelled state
            size_bytes = self.config.state_pages * self.config.page_bytes
        self.bytes_shipped += size_bytes
        self.system.store_checkpoint(
            host,
            index,
            reason,
            metadata=dict(metadata),
            size_bytes=size_bytes,
            incremental=incremental,
            base_index=base_index,
        )
        self._last_stored_index[host] = index
        pause = self.ckpt_latency
        if self.config.wireless_bandwidth != float("inf"):
            pause += size_bytes / self.config.wireless_bandwidth
        self._pending_pause[host] += pause

    def _ckpt_pause(self, host: int) -> float:
        """Consume the transfer pause owed by *host*."""
        pause = self._pending_pause[host]
        self._pending_pause[host] = 0.0
        return pause

    # ------------------------------------------------------------------
    # application loop
    # ------------------------------------------------------------------
    def _schedule_app(self, host: int, extra: float = 0.0) -> None:
        delay = (
            self.model.arrival_delay(host, self.rng, self.env.now) + extra
        )
        self.env.call_later(delay, lambda: self._app_step(host))

    def _app_step(self, host: int) -> None:
        h = self.system.hosts[host]
        if not h.is_connected:
            self._app_paused[host] = True
            return
        if self._checkpointers is not None and self.config.dirty_pages_per_op:
            # the internal event mutates part of the host's state
            self._checkpointers[host].state.touch_random(
                self.rng.stream(f"app/pages/{host}"),
                self.config.dirty_pages_per_op,
            )
        if self.rng.bernoulli(f"app/op/{host}", self.config.p_send):
            self._do_send(host)
            self._schedule_app(host, extra=self._ckpt_pause(host))
        else:
            msg = h.try_receive()
            if msg is not None:
                self._consume(host, msg)
                self._schedule_app(host, extra=self._ckpt_pause(host))
            elif self.config.block_on_empty_receive:
                h.receive(lambda m: self._blocked_receive_done(host, m))
            else:
                # Empty inbox: the receive operation is a no-op.
                self._schedule_app(host)

    def _blocked_receive_done(self, host: int, msg) -> None:
        self._consume(host, msg)
        self._schedule_app(host, extra=self._ckpt_pause(host))

    def _do_send(self, host: int):
        """One send operation: the sent Message, or None for a no-op."""
        if self.config.send_to_connected_only:
            others = [
                h for h in self.system.connected_hosts() if h != host
            ]
            if not others:
                return None  # nobody reachable: the send is a no-op
        else:
            others = self._others_cache.get(host)
            if others is None:
                others = self._others_cache[host] = _AllOthers(
                    self.config.n_hosts, host
                )
        dst = self.model.choose_destination(
            host, others, self.rng, self.env.now
        )
        if dst is None:
            return None  # the model dropped the send: a no-op
        piggyback = {}
        pg_ints = 0
        if self.protocol is not None:
            piggyback = {"pg": self.protocol.on_send(host, dst, self.env.now)}
            pg_ints = self.protocol.piggyback_ints
        msg = self.system.send_application(
            host, dst, piggyback=piggyback, piggyback_ints=pg_ints
        )
        self._feed(self.env.now, SEND, host, msg.msg_id, dst)
        return msg

    def _consume(self, host: int, msg) -> None:
        if self.protocol is not None:
            self.protocol.on_receive(host, msg.piggyback["pg"], msg.src, self.env.now)
        self._feed(self.env.now, RECEIVE, host, msg.msg_id, msg.src)

    # ------------------------------------------------------------------
    # mobility loop
    # ------------------------------------------------------------------
    def _enter_cell(self, host: int) -> None:
        decision = self.mobility.decide(host, self.rng)
        # The workload model may stretch/shrink residence (day/night
        # modulation); the paper model's 1.0 leaves it bit-identical.
        residence = decision.residence * self.model.residence_scale(
            host, self.env.now
        )
        if decision.kind is MoveKind.SWITCH:
            self.env.call_later(residence, lambda: self._do_switch(host))
        else:
            self.env.call_later(
                residence,
                lambda: self._do_disconnect(host, decision.away_time),
            )

    def _do_switch(self, host: int) -> None:
        old = self.system.hosts[host].mss_id
        new = self.chooser.next_cell(host, old, self.rng)
        self._feed(self.env.now, CELL_SWITCH, host, -1, old, new)
        if self.protocol is not None:
            self.protocol.on_cell_switch(host, self.env.now, new)
        self.system.switch_cell(host, new)
        self._enter_cell(host)

    def _do_disconnect(self, host: int, away_time: float) -> None:
        self._feed(self.env.now, DISCONNECT, host)
        if self.protocol is not None:
            self.protocol.on_disconnect(host, self.env.now)
        self.system.disconnect(host)
        self.env.call_later(away_time, lambda: self._do_reconnect(host))

    def _do_reconnect(self, host: int) -> None:
        self.system.reconnect(host)
        cell = self.system.hosts[host].mss_id
        self._feed(self.env.now, RECONNECT, host, -1, -1, cell)
        if self.protocol is not None:
            self.protocol.on_reconnect(host, self.env.now, cell)
        if self._app_paused[host]:
            self._app_paused[host] = False
            self._schedule_app(host)
        self._enter_cell(host)

    # ------------------------------------------------------------------
    # storage garbage collection (index-based protocols only)
    # ------------------------------------------------------------------
    def _gc_tick(self) -> None:
        from repro.storage.gc import collect_garbage

        cutoff = min(self.protocol.sn)
        self.gc_bytes_reclaimed += collect_garbage(
            [s.storage for s in self.system.stations], cutoff
        )
        self.env.call_later(self.gc_interval, self._gc_tick)

    # ------------------------------------------------------------------
    def run(self) -> Trace:
        """Simulate to the horizon; return the column-backed trace."""
        for host in range(self.config.n_hosts):
            self._schedule_app(host)
            self._enter_cell(host)
        if self.gc_interval is not None:
            if self.protocol is None or not hasattr(self.protocol, "sn"):
                raise ValueError(
                    "gc_interval needs an index-based protocol (with .sn): "
                    "the recovery-line cutoff comes from min(sn)"
                )
            self.env.call_later(self.gc_interval, self._gc_tick)
        self.env.run(until=self.config.sim_time)
        return Trace.from_columns(self.compiler.finish(), self.config.meta())


def _count_path(path: str, reason: str) -> None:
    from repro.obs.metrics import registry

    registry().counter(
        "repro_trace_generate_total", path=path, reason=reason
    ).inc()


def generate_trace(config: WorkloadConfig) -> Trace:
    """Simulate the mobile system and return its event trace.

    The trace is protocol-independent (the paper's instantaneous-
    checkpoint assumption) and fully determined by ``config`` including
    its ``seed``.  Eligible paper-model configs are computed by the
    numpy passes of :mod:`repro.workload.columnar`, byte-identical to
    the event loop; the rest, and the rare config whose outcome hangs
    on an exact time tie, run the loop.  Either way the path taken is
    counted in ``repro_trace_generate_total{path, reason}``.
    """
    reason = columnar.ineligible_reason(config)
    if reason is None:
        try:
            columns = columnar.generate_columns(config)
        except columnar.Fallback as fallback:
            reason = fallback.reason
        else:
            _count_path("columnar", "eligible")
            return Trace.from_columns(columns, config.meta())
    trace = _Driver(config).run()
    _count_path("loop", reason)
    return trace


def run_online(
    config: WorkloadConfig,
    protocol: CheckpointingProtocol,
    ckpt_latency: float = 0.0,
    gc_interval: Optional[float] = None,
) -> OnlineResult:
    """Run the workload with *protocol* embedded in the simulation.

    ``ckpt_latency`` > 0 makes every checkpoint pause the host's
    application loop by that amount before the next operation -- the
    "non negligible" checkpoint-time scenario of Section 5.1.

    Checkpoints persist in the current MSS's stable storage (including
    the cross-MSS base migration after handoffs).  With ``gc_interval``
    set (index-based protocols only), obsolete records below the
    recovery-line cutoff ``min(sn)`` are reclaimed periodically; the
    reclaimed bytes are reported on the returned system's driver.
    """
    driver = _Driver(
        config, protocol=protocol, ckpt_latency=ckpt_latency,
        gc_interval=gc_interval,
    )
    trace = driver.run()
    n_sends = driver.compiler.n_sends
    metrics = ProtocolRunMetrics(
        protocol=protocol.name,
        stats=CheckpointStats.from_protocol(protocol),
        n_sends=n_sends,
        n_receives=driver.compiler.n_receives,
        piggyback_ints_total=n_sends * protocol.piggyback_ints,
        sim_time=config.sim_time,
        seed=config.seed,
    )
    return OnlineResult(
        trace=trace,
        protocol=protocol,
        metrics=metrics,
        system=driver.system,
        gc_bytes_reclaimed=driver.gc_bytes_reclaimed,
        bytes_shipped=driver.bytes_shipped,
    )
