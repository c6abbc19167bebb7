"""Protocol base class shared by replay and online execution.

A checkpointing protocol is a deterministic state machine over the five
per-host hooks below.  It never touches the network itself; the driver
(trace replay or the online simulation) invokes the hooks and carries
the returned piggyback to the matching receive.

Hook contract
-------------

* ``on_send(host, dst, now) -> piggyback`` -- called at a send
  operation; the return value rides on the message.
* ``on_receive(host, piggyback, src, now)`` -- called when the host
  *consumes* the message (the paper's "upon the receipt" processing).
* ``on_cell_switch(host, now, new_cell)`` / ``on_disconnect(host, now)``
  -- the two basic-checkpoint triggers.
* ``on_reconnect(host, now, cell)`` -- bookkeeping only.

Checkpoints are reported through :meth:`CheckpointingProtocol.take`,
which records a :class:`TakenCheckpoint` and forwards to an optional
``storage_hook`` (wired to
:meth:`repro.net.system.MobileSystem.store_checkpoint` in online mode).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Optional


@dataclass(slots=True)
class TakenCheckpoint:
    """One checkpoint taken during a run.

    Mutable only through :meth:`CheckpointingProtocol.rename_last`: the
    no-send skip rule relabels an existing checkpoint with a higher
    index (a metadata-only operation at the MSS -- no state transfer),
    so ``index`` can grow after the fact while everything else is
    fixed at take time.
    """

    host: int
    index: int
    time: float
    #: "initial", "basic" or "forced" (paper terminology).
    reason: str
    #: True when this checkpoint *replaced* its predecessor at the same
    #: index (QBC's equivalence rule).
    replaced: bool = False
    #: Protocol metadata snapshotted with the checkpoint (TP records its
    #: dependency vectors here); None when the protocol has none.
    metadata: Optional[dict[str, Any]] = None


#: Signature of the storage callback: (host, index, reason, metadata).
StorageHook = Callable[[int, int, str, dict[str, Any]], None]


class CheckpointingProtocol:
    """Common machinery: checkpoint log, counters, storage forwarding.

    Execution capabilities are *declared on the class* (and validated
    at registration time by :func:`register`): the engine layer
    (:mod:`repro.engine`) reads them to decide which engines may drive
    a protocol and rejects incompatible requests with typed errors
    instead of failing mid-run.
    """

    #: Short name used in reports ("TP", "BCS", "QBC", ...).
    name: str = "base"
    #: Whether the protocol can be evaluated by pure trace replay
    #: (communication-induced ones can; coordinated ones need online
    #: mode because their control messages perturb the schedule).
    replayable: bool = True
    #: Whether the protocol ships a batch kernel for the vectorized
    #: engine (:mod:`repro.core.vectorized`): a
    #: ``vectorized_replay(cls, vt, instance)`` classmethod that fills
    #: one fresh *instance* from one trace's ``VectorizedTrace``.
    vectorizable: bool = False
    #: Which index-family trajectory the kernel reads (a flavour of
    #: :mod:`repro.protocols._vectorized`: "bcs", "qbc", ...), so one
    #: replay pass can solve every trajectory its protocols read in one
    #: walk; None for kernels that read none.
    index_flavor: Optional[str] = None
    #: True for coordinated baselines (Chandy-Lamport, Koo-Toueg,
    #: Prakash-Singhal): they inject control messages into the
    #: schedule, so they can only run embedded in the online DES.
    coordinated: bool = False
    #: Whether the protocol tolerates counters-only mode
    #: (``log_checkpoints = False``): its decisions must not depend on
    #: reading back its own checkpoint log.
    supports_counters_only: bool = True
    #: When False, :meth:`take` maintains the counters only -- no
    #: :class:`TakenCheckpoint` records, no storage forwarding.  The
    #: sweep engine flips this off because figure curves need nothing
    #: but counts; anything that inspects the log (recovery lines,
    #: rollback, online storage) needs the default True.
    log_checkpoints: bool = True

    def __init__(self, n_hosts: int, n_mss: int = 1):
        if n_hosts < 1:
            raise ValueError(f"n_hosts must be >= 1, got {n_hosts}")
        self.n_hosts = n_hosts
        self.n_mss = n_mss
        self.checkpoints: list[TakenCheckpoint] = []
        self.n_basic = 0
        self.n_forced = 0
        self.n_replaced = 0
        #: Metadata-only relabels (no state transfer; not in N_tot).
        self.n_renamed = 0
        #: Initial checkpoints (taken in the constructor; not in N_tot).
        self.n_initial = 0
        #: Non-initial checkpoints per host, maintained incrementally so
        #: metrics aggregation never has to rescan the checkpoint log.
        self.per_host_total = [0] * n_hosts
        #: Index of each host's most recent checkpoint (kept even in
        #: counters-only mode, where rename_last cannot scan the log).
        self.last_index = [-1] * n_hosts
        self.storage_hook: Optional[StorageHook] = None

    # ------------------------------------------------------------------
    # recording
    # ------------------------------------------------------------------
    def take(
        self,
        host: int,
        index: int,
        reason: str,
        now: float,
        replaced: bool = False,
        metadata: Optional[dict[str, Any]] = None,
    ) -> Optional[TakenCheckpoint]:
        """Record (and persist, when wired) one checkpoint.

        Returns the log record, or None in counters-only mode
        (``log_checkpoints = False``).
        """
        ck = None
        if self.log_checkpoints:
            ck = TakenCheckpoint(
                host=host,
                index=index,
                time=now,
                reason=reason,
                replaced=replaced,
                metadata=metadata,
            )
            self.checkpoints.append(ck)
        self.last_index[host] = index
        if reason == "basic":
            self.n_basic += 1
            self.per_host_total[host] += 1
        elif reason == "forced":
            self.n_forced += 1
            self.per_host_total[host] += 1
        elif reason == "initial":
            self.n_initial += 1
        else:
            self.per_host_total[host] += 1
        if replaced:
            self.n_replaced += 1
        if self.log_checkpoints and self.storage_hook is not None:
            self.storage_hook(host, index, reason, dict(metadata or {}))
        return ck

    def rename_last(
        self, host: int, new_index: int, now: float
    ) -> Optional[TakenCheckpoint]:
        """Relabel *host*'s most recent checkpoint with *new_index*.

        The no-send equivalence rule (cf. Helary et al. and the
        checkpoint-equivalence formalisation of [6, 14]): when a host
        has sent nothing since its last checkpoint, that checkpoint can
        stand in the recovery line at a higher index -- the MSS just
        updates the stored index, no state crosses the wireless link.
        Does NOT count toward N_tot; tracked in ``n_renamed``.

        Returns the relabelled record (None in counters-only mode).
        """
        last = self.last_index[host]
        if last < 0:
            raise ValueError(f"host {host} has no checkpoint to rename")
        if new_index <= last:
            raise ValueError(
                f"rename must increase the index ({last} -> {new_index})"
            )
        self.last_index[host] = new_index
        self.n_renamed += 1
        renamed = None
        if self.log_checkpoints:
            for ck in reversed(self.checkpoints):
                if ck.host == host:
                    ck.index = new_index
                    renamed = ck
                    break
        if self.storage_hook is not None:
            self.storage_hook(host, new_index, "rename", {})
        return renamed

    @property
    def n_total(self) -> int:
        """The paper's N_tot: basic + forced (initial ones excluded)."""
        return self.n_basic + self.n_forced

    def checkpoints_of(self, host: int) -> list[TakenCheckpoint]:
        """This host's checkpoints in the order taken."""
        return [c for c in self.checkpoints if c.host == host]

    # ------------------------------------------------------------------
    # audit hooks (repro.obs)
    # ------------------------------------------------------------------
    def counter_signature(self) -> dict[str, Any]:
        """Every counter this run maintained, as one comparable dict.

        Two runs of the same protocol over the same trace must produce
        identical signatures regardless of engine (reference vs fused)
        or logging mode -- the audit layer compares these bit-for-bit.
        """
        return {
            "protocol": self.name,
            "n_basic": self.n_basic,
            "n_forced": self.n_forced,
            "n_initial": self.n_initial,
            "n_replaced": self.n_replaced,
            "n_renamed": self.n_renamed,
            "n_total": self.n_total,
            "per_host_total": tuple(self.per_host_total),
            "last_index": tuple(self.last_index),
        }

    def invariant_violations(self) -> list[str]:
        """Internal-consistency problems of this run (empty = sound).

        The base contract cross-checks the incremental counters against
        the checkpoint log (when one exists): per-reason counts,
        per-host totals and each host's final index must agree.
        Subclasses extend this with protocol-specific invariants (e.g.
        QBC's ``rn <= sn``); the audit layer surfaces every entry as a
        structured violation.
        """
        problems: list[str] = []
        if self.log_checkpoints:
            n_basic = n_forced = n_initial = n_replaced = 0
            per_host = [0] * self.n_hosts
            last_index = [-1] * self.n_hosts
            for ck in self.checkpoints:
                if ck.reason == "basic":
                    n_basic += 1
                elif ck.reason == "forced":
                    n_forced += 1
                elif ck.reason == "initial":
                    n_initial += 1
                if ck.reason != "initial":
                    per_host[ck.host] += 1
                if ck.replaced:
                    n_replaced += 1
                last_index[ck.host] = max(last_index[ck.host], ck.index)
            for label, counted, logged in (
                ("n_basic", self.n_basic, n_basic),
                ("n_forced", self.n_forced, n_forced),
                ("n_initial", self.n_initial, n_initial),
                ("n_replaced", self.n_replaced, n_replaced),
            ):
                if counted != logged:
                    problems.append(
                        f"{label} counter is {counted} but the log "
                        f"records {logged}"
                    )
            for host in range(self.n_hosts):
                if self.per_host_total[host] != per_host[host]:
                    problems.append(
                        f"host {host}: per_host_total {self.per_host_total[host]} "
                        f"!= {per_host[host]} logged checkpoints"
                    )
                if self.last_index[host] != last_index[host]:
                    problems.append(
                        f"host {host}: last_index {self.last_index[host]} "
                        f"!= {last_index[host]} from the log"
                    )
        else:
            # Counters-only mode keeps no log; the reason-class split
            # must still account for every per-host increment.
            if sum(self.per_host_total) != self.n_basic + self.n_forced:
                problems.append(
                    f"per_host_total sums to {sum(self.per_host_total)} "
                    f"but n_basic + n_forced = {self.n_basic + self.n_forced}"
                )
        if any(v < 0 for v in self.per_host_total):
            problems.append("negative per_host_total entry")
        return problems

    # ------------------------------------------------------------------
    # piggyback size accounting (paper's scalability argument)
    # ------------------------------------------------------------------
    @property
    def piggyback_ints(self) -> int:
        """Control integers piggybacked per application message."""
        return 0

    # ------------------------------------------------------------------
    # hooks (default: no-ops; subclasses override what they need)
    # ------------------------------------------------------------------
    def on_send(self, host: int, dst: int, now: float) -> Any:
        """Send operation at *host* towards *dst*; returns piggyback."""
        return None

    def on_receive(self, host: int, piggyback: Any, src: int, now: float) -> None:
        """Receive-operation processing of a consumed message."""

    def on_cell_switch(self, host: int, now: float, new_cell: int) -> None:
        """Basic-checkpoint trigger: the host switched cells."""

    def on_disconnect(self, host: int, now: float) -> None:
        """Basic-checkpoint trigger: voluntary disconnection."""

    def on_reconnect(self, host: int, now: float, cell: int) -> None:
        """Reconnection (no checkpoint in any of the paper's protocols)."""

    # ------------------------------------------------------------------
    def recovery_line_indices(self) -> dict[int, int]:
        """Map host -> checkpoint index forming the most recent
        consistent global checkpoint this protocol guarantees.

        Subclasses implementing an on-the-fly recovery-line rule
        override this; the base implementation raises.
        """
        raise NotImplementedError(
            f"{self.name} does not build recovery lines on the fly"
        )

    def rollback_to(self, indices: dict[int, int], now: float) -> None:
        """Restore the protocol's volatile per-host state to the
        recovery line *indices* (host -> checkpoint index).

        Used by failure injection (:mod:`repro.core.failures`): after a
        rollback every host's live protocol variables must equal what
        was recorded with its line checkpoint.  The checkpoint *log*
        stays intact -- those checkpoints were really taken and count
        toward N_tot.
        """
        raise NotImplementedError(
            f"{self.name} does not support live rollback"
        )

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"<{type(self).__name__} hosts={self.n_hosts} "
            f"basic={self.n_basic} forced={self.n_forced}>"
        )


#: Registry of replayable protocol factories, keyed by report name.
registry: dict[str, Callable[..., CheckpointingProtocol]] = {}


def validate_capabilities(cls) -> None:
    """Check that *cls*'s declared capabilities are coherent.

    Raises ``ValueError`` on an impossible combination; called at
    registration time so a mis-declared protocol fails at import, not
    mid-sweep.  The rule: ``coordinated`` excludes ``replayable``
    (control messages perturb the schedule, so no trace replay is
    faithful).
    """
    coordinated = bool(getattr(cls, "coordinated", False))
    replayable = bool(getattr(cls, "replayable", True))
    label = getattr(cls, "__name__", repr(cls))
    if coordinated and replayable:
        raise ValueError(
            f"{label}: coordinated protocols cannot be replayable "
            "(their control messages perturb the schedule)"
        )


def register(name: str):
    """Class decorator adding a protocol to :data:`registry`.

    Validates the class's declared capabilities
    (:func:`validate_capabilities`) so an incoherent declaration fails
    at import time.
    """
    if not name or not isinstance(name, str):
        raise ValueError(f"protocol registry name must be a non-empty string, got {name!r}")

    def deco(cls):
        """Register *cls* under the decorator's name."""
        validate_capabilities(cls)
        registry[name] = cls
        cls.name = name
        return cls

    return deco
