"""TP: the Acharya-Badrinath two-phase protocol.

Paper Section 4.1 -- an adaptation of Russell's protocol to mobile
systems.  Each host carries a phase flag:

* sending a message sets ``phase := SEND``;
* receiving while ``phase = SEND`` forces a checkpoint (then
  ``phase := RECV``).

This guarantees no host receives after sending within one checkpoint
interval, which is what makes every local checkpoint part of a
consistent global checkpoint.  To *build* that global checkpoint on the
fly, every message additionally piggybacks two n-vectors:

* ``CKPT_i[]`` -- transitive dependency vector over checkpoint
  intervals (``CKPT_i[i]`` is the index of i's latest checkpoint);
* ``LOC_i[]`` -- the MSS where each of those checkpoints is stored,
  enabling efficient retrieval over the wired network.

Both vectors are recorded on stable storage with each checkpoint.  The
O(n) piggyback is the protocol's scalability weakness the paper calls
out.

Model note (under-specified in the paper's pseudocode): a *basic*
checkpoint also resets ``phase := RECV``.  Russell's rule only needs a
checkpoint between the last send and the next receive, and the basic
checkpoint provides exactly that, so a forced checkpoint right after it
would be redundant.  This reading is charitable to TP; even so TP takes
far more checkpoints than the index-based protocols.
"""

from __future__ import annotations

from typing import Optional

from repro.protocols._vectorized import tp_replay
from repro.protocols.base import CheckpointingProtocol, register

_RECV = 0
_SEND = 1


@register("TP")
class TwoPhaseProtocol(CheckpointingProtocol):
    """Two-phase (send/receive) communication-induced checkpointing."""

    vectorizable = True

    @classmethod
    def vectorized_replay(cls, vt, instance) -> None:
        """Batch kernel: local phase-flag placement plus the CKPT/LOC
        matrix fixpoint in logging mode (see
        :mod:`repro.protocols._vectorized`)."""
        tp_replay(vt, instance)

    def __init__(self, n_hosts: int, n_mss: int = 1, initial_cells=None):
        super().__init__(n_hosts, n_mss)
        self.phase = [_RECV] * n_hosts
        #: Next checkpoint index per host (C_{i,x} numbering).
        self.count = [0] * n_hosts
        cells = (
            list(initial_cells)
            if initial_cells is not None
            else [h % n_mss for h in range(n_hosts)]
        )
        if len(cells) != n_hosts:
            raise ValueError("initial_cells must have one entry per host")
        self.cell = cells
        #: CKPT_i[j]: largest checkpoint index of j that i's current
        #: interval transitively depends on (-1 = no dependency yet).
        self.ckpt_vec = [[-1] * n_hosts for _ in range(n_hosts)]
        #: LOC_i[j]: MSS storing that checkpoint of j (-1 = unknown).
        self.loc_vec = [[-1] * n_hosts for _ in range(n_hosts)]
        #: Cached (tuple(CKPT_i), tuple(LOC_i)) piggyback per host;
        #: None while the live vectors have changed since the last
        #: snapshot.  Saves the two O(n) tuple builds on every send in
        #: an unchanged interval, and checkpoint metadata reuses the
        #: same immutable snapshots.
        self._snapshot: list = [None] * n_hosts
        for host in range(n_hosts):
            self._checkpoint(host, "initial", 0.0)

    @property
    def piggyback_ints(self) -> int:
        return 2 * self.n_hosts  # CKPT[] and LOC[] vectors

    # ------------------------------------------------------------------
    def _checkpoint(self, host: int, reason: str, now: float) -> None:
        index = self.count[host]
        self.count[host] += 1
        if self.log_checkpoints:
            self.ckpt_vec[host][host] = index
            self.loc_vec[host][host] = self.cell[host]
            # Snapshot the vectors once: the immutable tuples serve both
            # the checkpoint metadata and the next sends of this interval.
            snapshot = (tuple(self.ckpt_vec[host]), tuple(self.loc_vec[host]))
            self._snapshot[host] = snapshot
            self.take(
                host,
                index,
                reason,
                now,
                metadata={"ckpt_vec": snapshot[0], "loc_vec": snapshot[1]},
            )
        else:
            # Counters-only mode: TP's checkpoint *placement* depends on
            # nothing but the phase flag -- the CKPT/LOC vectors are
            # recovery-line metadata that never decides when a
            # checkpoint is taken -- so lean mode maintains no
            # dependency state at all.  The counter updates are
            # :meth:`take` inlined; TP forces a checkpoint on roughly
            # every other receive, making this its hottest
            # non-dispatch path under the fused sweep engine.
            self.last_index[host] = index
            if reason == "forced":
                self.n_forced += 1
                self.per_host_total[host] += 1
            elif reason == "basic":
                self.n_basic += 1
                self.per_host_total[host] += 1
            else:  # "initial"
                self.n_initial += 1
        self.phase[host] = _RECV

    # ------------------------------------------------------------------
    def on_send(self, host: int, dst: int, now: float) -> Optional[tuple]:
        self.phase[host] = _SEND
        if not self.log_checkpoints:
            # Counters-only mode tracks no dependency vectors, so there
            # is nothing meaningful to piggyback (see _checkpoint).
            return None
        snapshot = self._snapshot[host]
        if snapshot is None:
            snapshot = (tuple(self.ckpt_vec[host]), tuple(self.loc_vec[host]))
            self._snapshot[host] = snapshot
        return snapshot

    def on_receive(self, host: int, piggyback, src: int, now: float) -> None:
        if self.phase[host] == _SEND:
            self._checkpoint(host, "forced", now)
        if piggyback is None:  # counters-only mode: no vectors to merge
            return
        m_ckpt, m_loc = piggyback
        mine_c = self.ckpt_vec[host]
        mine_l = self.loc_vec[host]
        # No j != host guard needed: knowledge of a host's own latest
        # index originates at that host, so m_ckpt[host] can never
        # exceed mine_c[host] (equality merges are no-ops under the
        # strict comparison).
        changed = False
        for j, m in enumerate(m_ckpt):
            if m > mine_c[j]:
                mine_c[j] = m
                mine_l[j] = m_loc[j]
                changed = True
        if changed:
            self._snapshot[host] = None

    def on_cell_switch(self, host: int, now: float, new_cell: int) -> None:
        self.cell[host] = new_cell
        self._checkpoint(host, "basic", now)

    def on_disconnect(self, host: int, now: float) -> None:
        self._checkpoint(host, "basic", now)

    def on_reconnect(self, host: int, now: float, cell: int) -> None:
        self.cell[host] = cell

    # ------------------------------------------------------------------
    def recovery_line_indices(self) -> dict[int, int]:
        """TP has no single global line index.

        Its guarantee is *anchored*: each local checkpoint belongs to a
        consistent global checkpoint identified by the dependency
        vectors recorded with it (see :meth:`required_indices` and
        :func:`repro.core.consistency.tp_anchored_line`).  The set of
        every host's *latest* checkpoint is in general **not**
        consistent -- a host that sent but never checkpointed since
        leaves its messages orphaned by such a cut.
        """
        raise NotImplementedError(
            "TP builds anchored lines via required_indices(), not a "
            "global index rule"
        )

    def required_indices(self, anchor: int) -> dict[int, int]:
        """Checkpoint index each other host must contribute to the
        consistent global checkpoint containing *anchor*'s latest
        checkpoint.

        The paper's rule: if ``CKPT_a[j] = p``, the global checkpoint
        including ``CKPT_a[a]``-th of ``h_a`` must include a checkpoint
        of ``h_j`` that covers ``h_j``'s interval ``p`` -- i.e. the
        first checkpoint with index ``p + 1``.  A host ``h_j`` with no
        such checkpoint yet contributes the checkpoint it takes on
        demand at collection time (its interval ``p + 1`` is still
        open); the two-phase rule guarantees that on-demand checkpoint
        closes the line without cascading.

        Uses the vectors *recorded with* the anchor's latest checkpoint
        (events after it are not covered and must not pin anything).
        """
        latest = None
        for ck in self.checkpoints:
            if ck.host == anchor:
                latest = ck
        assert latest is not None  # every host has its initial checkpoint
        assert latest.metadata is not None
        vec = latest.metadata["ckpt_vec"]
        return {
            j: vec[j] + 1 for j in range(self.n_hosts) if j != anchor
        }

    def take_on_demand(self, host: int, now: float) -> int:
        """Checkpoint collection forces a host whose required checkpoint
        does not exist yet to take it on the spot (paper Section 4.1);
        returns the new checkpoint's index."""
        index = self.count[host]
        self._checkpoint(host, "forced", now)
        return index

    def rollback_to(self, indices: dict[int, int], now: float) -> None:
        """Restore phase and dependency vectors from the line
        checkpoints' recorded metadata.  Checkpoint numbering continues
        from the restart index (discarded indices are reused; their
        storage records are overwritten, which is what a real restart
        does)."""
        for host, index in indices.items():
            record = None
            for ck in self.checkpoints:
                if ck.host == host and ck.index == index:
                    record = ck
            if record is None:
                raise ValueError(
                    f"host {host} has no checkpoint with index {index}"
                )
            assert record.metadata is not None
            self.ckpt_vec[host] = list(record.metadata["ckpt_vec"])
            self.loc_vec[host] = list(record.metadata["loc_vec"])
            self._snapshot[host] = None
            self.count[host] = index + 1
            self.phase[host] = _RECV

    def locate(self, observer: int, target: int) -> tuple[int, int]:
        """(checkpoint index, MSS id) of *target* as recorded in
        *observer*'s dependency vectors -- the paper's retrieval use of
        ``LOC``: "if CKPT_i[j] = p and LOC_i[j] = q, a global checkpoint
        including CKPT_i[i] must include the p-th checkpoint of h_j
        located at the q-th MSS"."""
        return self.ckpt_vec[observer][target], self.loc_vec[observer][target]
