"""Batch-kernel implementations behind ``vectorized_replay``.

Each replayable protocol family gets one kernel here, built on the
segmented primitives of :mod:`repro.core.vectorized`.  A kernel
receives a :class:`~repro.core.vectorized.VectorizedTrace` plus one
fresh protocol instance, and must leave the instance in *exactly* the
state the reference per-event replay would: counters, per-host live
variables and -- when ``log_checkpoints`` is on -- the checkpoint log,
record for record.

The kernels therefore split cleanly in two:

* **solve** -- numpy passes over the whole trace (segmented cummax,
  boolean placement masks, the piggyback fixpoint where causality
  demands it);
* **materialize** -- walk the solved checkpoint placements (orders of
  magnitude fewer than events) through the instance's own
  :meth:`~repro.protocols.base.CheckpointingProtocol.take` /
  ``rename_last``, which guarantees counter/log/storage semantics
  can never drift from the base class.  In counters-only mode the
  walk is skipped and the counters are assigned from per-host
  tallies directly.

Protocols import this module, never the other way around; the engine
layer reaches the kernels only through the ``vectorized_replay``
classmethods.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass

from repro.core.compiled import DISCONNECT, ArrayColumns
from repro.core.vectorized import (
    VectorizedTrace,
    fixpoint,
    gather,
    index_trajectory,
    nosend_classification,
    per_pass,
    seg_counts,
    seg_cumsum,
    seg_cummax,
    seg_shift,
)


@dataclass(frozen=True, slots=True)
class _Rules:
    """How one index-family protocol reads the shared trajectory."""

    #: QBC's armed (``rn = sn``) basic rule; BCS's increment otherwise.
    qbc: bool
    #: The no-send rule splits jumps into forced takes and the rest.
    nosend: bool
    #: A jump that forces nothing renames the host's last checkpoint;
    #: otherwise (FDAS) the host adopts the index and records nothing.
    rename: bool
    #: Checkpoints record the ``rn`` they saw as metadata.
    rn_metadata: bool
    #: Live attribute holding each host's index.
    clock: str = "sn"


_RULES = {
    "bcs": _Rules(qbc=False, nosend=False, rename=False, rn_metadata=False),
    "qbc": _Rules(qbc=True, nosend=False, rename=False, rn_metadata=True),
    "bcs_ns": _Rules(qbc=False, nosend=True, rename=True, rn_metadata=True),
    "qbc_ns": _Rules(qbc=True, nosend=True, rename=True, rn_metadata=True),
    "fdas": _Rules(
        qbc=False, nosend=True, rename=False, rn_metadata=False, clock="lc"
    ),
    "bqf": _Rules(qbc=True, nosend=False, rename=False, rn_metadata=False),
}


# ---------------------------------------------------------------------------
# BCS / QBC / BCS-NS / QBC-NS / FDAS / BQF
# ---------------------------------------------------------------------------

def index_family_replay(vt: VectorizedTrace, inst, flavor: str) -> None:
    """Replay one index-family protocol over *vt* into *inst*.

    The family has two trajectories, BCS's and QBC's; inside a replay
    pass (:func:`~repro.core.vectorized.one_pass`) every protocol of a
    flavour reads the same one, and the no-send split of its jumps.
    """
    import numpy as np

    rules = _RULES[flavor]
    qbc = rules.qbc
    traj = per_pass(
        vt, ("trajectory", qbc), lambda: index_trajectory(vt, qbc)
    )
    basic = vt.basic

    setattr(inst, rules.clock, traj.sn_final.tolist())
    if qbc:
        inst.rn = traj.rn_final.tolist()
    if rules.nosend:
        jump_forced = per_pass(
            vt, ("nosend", qbc), lambda: nosend_classification(vt, traj)
        )
        # Final sent-since-checkpoint flag: a send after the last
        # flag-clearing event (basic trigger or forced jump).
        sp_end = vt.seg_last(vt.send.idx, vt.send, -1)
        reset_end = vt.seg_last(basic.idx, basic, -1)
        fp_end = np.full(vt.n_hosts, -1, dtype=np.int64)
        if jump_forced.any():
            np.maximum.at(
                fp_end,
                traj.jump_seg[jump_forced],
                vt.recv.idx[traj.jump_row[jump_forced]],
            )
        inst.sent_since_ckpt = (
            sp_end > np.maximum(reset_end, fp_end)
        ).tolist()
    else:
        # Without the no-send rule every jump is a forced take.
        jump_forced = np.ones(traj.jump_row.shape[0], dtype=bool)

    if inst.log_checkpoints:
        _materialize_index_family(vt, inst, traj, rules, jump_forced)
        return
    n_forced_seg = np.bincount(
        traj.jump_seg[jump_forced], minlength=vt.n_hosts
    )
    if rules.rename:
        inst.n_renamed += int((traj.n_jump_seg - n_forced_seg).sum())
    n_basic_seg = np.diff(basic.starts)
    inst.n_basic += int(n_basic_seg.sum())
    inst.n_forced += int(n_forced_seg.sum())
    if qbc:
        inst.n_replaced += int(seg_counts(~traj.armed, basic.starts).sum())
    if rules.nosend and not rules.rename:
        # An adopted index is never recorded, so the clock can run
        # ahead of the latest checkpoint: take the highest recorded
        # index (indices only grow along a host's timeline).
        last = np.asarray(inst.last_index, dtype=np.int64)
        np.maximum.at(last, vt.seg_p[basic.idx], traj.sn_after_basic)
        np.maximum.at(
            last, traj.jump_seg[jump_forced], traj.jump_index[jump_forced]
        )
    else:
        last = traj.sn_final
    per_host = n_basic_seg + n_forced_seg
    for h in range(vt.n_hosts):
        inst.per_host_total[h] += int(per_host[h])
        inst.last_index[h] = int(last[h])


def _materialize_index_family(vt, inst, traj, rules, jump_forced):
    """Apply the solved checkpoints through take()/rename_last() in
    original event order."""
    ops = []  # (original position, kind, host, index, time, *extras)

    b_pos = vt.perm[vt.basic.idx].tolist()
    b_host = vt.seg_p[vt.basic.idx].tolist()
    b_time = vt.basic.time.tolist()
    b_index = traj.sn_after_basic.tolist()
    b_armed = traj.armed.tolist()
    b_rn = traj.rn_at_basic.tolist()
    for k in range(len(b_pos)):
        md = None
        if rules.rn_metadata:
            # BCS-NS basics record the rn they ignored.
            md = {"rn": b_rn[k] if rules.qbc else -1}
        replaced = rules.qbc and not b_armed[k]
        ops.append(
            (b_pos[k], "basic", b_host[k], b_index[k], b_time[k],
             replaced, md)
        )

    rows = traj.jump_row
    j_pos = vt.perm[vt.recv.idx[rows]].tolist()
    j_host = traj.jump_seg.tolist()
    j_time = vt.recv.time[rows].tolist()
    j_index = traj.jump_index.tolist()
    j_forced = jump_forced.tolist()
    for k in range(len(j_pos)):
        if j_forced[k]:
            md = {"rn": j_index[k]} if rules.rn_metadata else None
            ops.append(
                (j_pos[k], "forced", j_host[k], j_index[k], j_time[k],
                 False, md)
            )
        elif rules.rename:
            ops.append(
                (j_pos[k], "rename", j_host[k], j_index[k], j_time[k],
                 False, None)
            )

    ops.sort(key=lambda op: op[0])
    for _, kind, host, index, time, replaced, md in ops:
        if kind == "rename":
            inst.rename_last(host, index, time)
        elif replaced or md is not None:
            inst.take(host, index, kind, time, replaced=replaced, metadata=md)
        else:
            # Same call shape as the reference hooks so take() overrides
            # with the plain four-argument signature keep working.
            inst.take(host, index, kind, time)


def bqf_replay(vt: VectorizedTrace, inst) -> None:
    """Replay BQF over *vt* into *inst*.

    BQF is QBC plus autonomous basics, taken at a message event at
    least one period after the host's last basic -- UNC's periodic
    rule, so :func:`period_walk` places them.  They become basic
    triggers inserted just before their message events, and the QBC
    trajectory of that trace is BQF's.  At the default infinite period
    there are none, and BQF shares QBC's trajectory.
    """
    import numpy as np

    if not math.isinf(inst.period):
        anchors = [
            pos
            for walk in period_walk(vt, inst.period, inst._last_ckpt_time)
            for pos, _, periodic in walk
            if periodic
        ]
        if anchors:
            vt = _with_basics_before(vt, anchors)
    index_family_replay(vt, inst, "bqf")
    last_basic = vt.seg_last(vt.basic.time, vt.basic, np.nan).tolist()
    for h, t in enumerate(last_basic):
        if not math.isnan(t):
            inst._last_ckpt_time[h] = t


def _with_basics_before(vt: VectorizedTrace, anchors) -> VectorizedTrace:
    """*vt* with a basic trigger (a DISCONNECT, which changes no cell)
    inserted just before each event at a permuted position in
    *anchors*, at the same host and time."""
    import numpy as np

    cols = vt.columns
    at = np.sort(vt.perm[np.asarray(anchors, dtype=np.int64)])

    def insert(col, values):
        return np.insert(col, at, values)

    return VectorizedTrace.from_columns(
        ArrayColumns(
            n_hosts=cols.n_hosts,
            n_mss=cols.n_mss,
            sim_time=cols.sim_time,
            n_events=cols.n_events + at.shape[0],
            n_sends=cols.n_sends,
            n_receives=cols.n_receives,
            etype=insert(cols.etype, DISCONNECT),
            time=insert(cols.time, cols.time[at]),
            host=insert(cols.host, cols.host[at]),
            msg_id=insert(cols.msg_id, -1),
            peer=insert(cols.peer, -1),
            cell=insert(cols.cell, -1),
            slot=insert(cols.slot, -1),
        )
    )


# ---------------------------------------------------------------------------
# UNC (periodic independent checkpointing)
# ---------------------------------------------------------------------------

def period_walk(vt: VectorizedTrace, period: float, t_last) -> list:
    """Where a periodic rule checkpoints over *vt*.

    Per host, in timeline order, the ``(permuted position, time,
    periodic)`` of every checkpoint: each basic trigger, and
    (``periodic``) the first message event at least *period* after
    the host's previous checkpoint.  *t_last* holds each host's last
    checkpoint time before the trace.  The walk advances
    checkpoint-to-checkpoint (bisecting the message-time list), so it
    is O(checkpoints log events), not O(events).
    """
    basic, msg = vt.basic, vt.msg
    walks = []
    for h in range(vt.n_hosts):
        b_lo, b_hi = int(basic.starts[h]), int(basic.starts[h + 1])
        m_lo, m_hi = int(msg.starts[h]), int(msg.starts[h + 1])
        b_pos = basic.idx[b_lo:b_hi].tolist()
        b_time = basic.time[b_lo:b_hi].tolist()
        m_pos = msg.idx[m_lo:m_hi].tolist()
        m_time = msg.time[m_lo:m_hi].tolist()
        last = t_last[h]
        walk = []
        ib, im = 0, 0
        nb, nm = len(b_pos), len(m_time)
        while True:
            # First message event from im that the reference predicate
            # (now - last >= period) accepts.  Bisect on last + period
            # lands within rounding of the exact boundary; the
            # predicate is monotone in the event time, so a local
            # adjustment recovers bit-exactness.
            k = bisect_left(m_time, last + period, im)
            while k > im and m_time[k - 1] - last >= period:
                k -= 1
            while k < nm and m_time[k] - last < period:
                k += 1
            bpos = b_pos[ib] if ib < nb else None
            mpos = m_pos[k] if k < nm else None
            if bpos is None and mpos is None:
                break
            if mpos is None or (bpos is not None and bpos < mpos):
                pos, last = bpos, b_time[ib]
                ib += 1
                walk.append((pos, last, False))
            else:
                pos, last = mpos, m_time[k]
                walk.append((pos, last, True))
            im = bisect_right(m_pos, pos)
        walks.append(walk)
    return walks


def unc_replay(vt: VectorizedTrace, inst) -> None:
    """Replay the uncoordinated baseline over *vt* into *inst*.

    No piggybacks, so no fixpoint: every checkpoint is one of
    :func:`period_walk`'s, numbered on from each host's count.
    """
    walks = period_walk(vt, inst.period, inst._last_ckpt_time)
    if inst.log_checkpoints:
        # Sort key is the *original* event position -- the walk
        # yields permuted (segment-major) positions.
        ops = [
            (int(vt.perm[pos]), h, inst.count[h] + k, now)
            for h, walk in enumerate(walks)
            for k, (pos, now, _) in enumerate(walk)
        ]
        ops.sort(key=lambda op: op[0])
        for _, host, index, now in ops:
            inst.take(host, index, "basic", now)
    for h, walk in enumerate(walks):
        taken = len(walk)
        if not taken:
            continue
        inst.count[h] += taken
        inst._last_ckpt_time[h] = walk[-1][1]
        if not inst.log_checkpoints:
            inst.n_basic += taken
            inst.per_host_total[h] += taken
            inst.last_index[h] = inst.count[h] - 1


# ---------------------------------------------------------------------------
# TP (two-phase)
# ---------------------------------------------------------------------------

def tp_replay(vt: VectorizedTrace, inst) -> None:
    """Replay TP over *vt* into *inst*.

    Placement is purely local (the phase flag), so it needs no
    fixpoint: a receive is forced iff its host sent after its last
    basic trigger and no earlier receive of the same send-group already
    cleared the phase -- i.e. the receive is the *first* of its host
    after that send.  Checkpoint indices are then a segmented cumsum
    over the placed checkpoints.

    Only logging mode touches the CKPT/LOC dependency vectors (exactly
    like the reference implementation, whose counters-only path
    maintains no vector state); there they are solved by the matrix
    piggyback fixpoint and recorded per checkpoint through take().
    """
    import numpy as np

    recv, send, basic = vt.recv, vt.send, vt.basic

    # -- placement ---------------------------------------------------------
    sp_r = gather(send.idx, vt.last_send_at[recv.idx], -1)
    bp_r = gather(basic.idx, vt.last_basic_at[recv.idx], -1)
    prev_sp_r = seg_shift(sp_r, recv.starts, -2)  # -2: "no previous receive"
    forced_mask = (sp_r > bp_r) & (sp_r != prev_sp_r)

    n_forced_seg = seg_counts(forced_mask, recv.starts)
    n_basic_seg = np.diff(basic.starts)
    n_ckpt_seg = n_basic_seg + n_forced_seg

    # Final live phase: a send after the last checkpoint event.  The
    # last checkpoint per segment is the later of the last basic
    # trigger and the last forced receive.
    fidx = np.flatnonzero(forced_mask)
    f_hi = np.searchsorted(fidx, recv.starts[1:])
    f_lo = np.searchsorted(fidx, recv.starts[:-1])
    last_forced = np.full(vt.n_hosts, -1, dtype=np.int64)
    has_forced = f_hi > f_lo
    if fidx.size:
        last_forced[has_forced] = recv.idx[fidx[f_hi[has_forced] - 1]]
    reset_end = vt.seg_last(basic.idx, basic, -1)
    cp_end = np.maximum(last_forced, reset_end)
    sp_end = vt.seg_last(send.idx, send, -1)
    phase_send = sp_end > cp_end

    # Final cell: last cell-change value, else the instance's initial.
    last_change_seg = vt.seg_last(
        np.arange(vt.change.idx.shape[0], dtype=np.int64), vt.change, -1
    )

    initial_cells = list(inst.cell)
    inst.cell = [
        int(vt.change_cell[c]) if c >= 0 else initial_cells[h]
        for h, c in enumerate(last_change_seg.tolist())
    ]
    inst.phase = phase_send.astype(int).tolist()
    inst.count = (n_ckpt_seg + 1).tolist()
    if inst.log_checkpoints:
        # The per-event checkpoint index (a full-domain segmented
        # cumsum) is only needed to number and materialize records.
        is_ckpt = np.zeros(vt.n_events, dtype=np.int64)
        is_ckpt[basic.idx] = 1
        is_ckpt[recv.idx[forced_mask]] = 1
        ckpt_cum = seg_cumsum(is_ckpt, vt.seg_starts)
        vecs = _tp_vectors(vt, ckpt_cum, forced_mask)
        _materialize_tp(vt, inst, vecs, initial_cells)
    else:
        inst.n_basic += int(n_basic_seg.sum())
        inst.n_forced += int(n_forced_seg.sum())
        for h in range(vt.n_hosts):
            inst.per_host_total[h] += int(n_ckpt_seg[h])
            inst.last_index[h] = int(n_ckpt_seg[h])


def _tp_vectors(vt, ckpt_cum, forced_mask):
    """Solve TP's CKPT dependency-vector fixpoint over the whole trace.

    The piggyback of send *s* by host *h* is a full n-vector: own entry
    = h's checkpoint count at *s* (placement-determined, no fixpoint
    needed), other entries = componentwise running max over the rows
    received before *s*.  One (n_sends, n_hosts) matrix fixpoint.

    Returns everything materialization needs: the converged inclusive /
    exclusive merged-row views at receives.
    """
    import numpy as np

    recv, send = vt.recv, vt.send
    r_before_send = vt.last_recv_at[send.idx]
    send_host = vt.seg_p[send.idx]
    own_at_send = ckpt_cum[send.idx]
    state = {}

    def step(pb):
        rows = pb[recv.slot]
        m_incl = seg_cummax(rows, recv.starts)
        state["m_incl"] = m_incl
        out = np.empty_like(pb)
        out[send.slot] = gather(m_incl, r_before_send, -1)
        out[send.slot, send_host] = own_at_send
        return out

    pb0 = np.full((vt.n_sends, vt.n_hosts), -1, dtype=np.int64)
    if vt.n_sends:
        pb0[send.slot, send_host] = own_at_send
    fixpoint(pb0, step, vt.n_events + 2, "tp-vectors")
    m_incl = state.get("m_incl")
    if m_incl is None:  # no receives anywhere: nothing ever merged
        m_incl = np.full((0, vt.n_hosts), -1, dtype=np.int64)
    return {
        "m_incl": m_incl,
        "m_excl": seg_shift(m_incl, recv.starts, -1),
        "forced_mask": forced_mask,
        "ckpt_cum": ckpt_cum,
    }


def _materialize_tp(vt, inst, vecs, initial_cells):
    """Build TP's checkpoint records (with CKPT/LOC metadata) and final
    live vectors, then apply them through take()."""
    import numpy as np

    n_hosts = vt.n_hosts
    recv, basic = vt.recv, vt.basic
    m_incl, m_excl = vecs["m_incl"], vecs["m_excl"]
    forced_mask, ckpt_cum = vecs["forced_mask"], vecs["ckpt_cum"]

    # Checkpoint rows: basics (inclusive merge view -- all receives
    # strictly precede the trigger) and forced receives (exclusive view
    # -- TP checkpoints *before* merging the incoming vectors).
    b_ids = basic.idx
    b_rows = gather(m_incl, vt.last_recv_at[b_ids], -1)
    f_pick = np.flatnonzero(forced_mask)
    f_ids = recv.idx[f_pick]
    f_rows = m_excl[f_pick] if f_pick.size else np.full(
        (0, n_hosts), -1, dtype=np.int64
    )

    ids = np.concatenate([b_ids, f_ids])
    rows = np.concatenate([b_rows, f_rows])
    reasons = ["basic"] * len(b_ids) + ["forced"] * len(f_ids)
    hosts = vt.seg_p[ids]
    indices = ckpt_cum[ids]
    rows[np.arange(len(ids)), hosts] = indices  # own entry: the new index

    # Per-host index -> cell-at-that-checkpoint table for LOC lookups.
    cells_at = gather(
        vt.change_cell, vt.last_change_at[ids],
        np.int64(-2),  # placeholder: no change yet -> initial cell
    )
    init = np.asarray(initial_cells, dtype=np.int64)
    cells_at = np.where(cells_at == -2, init[hosts], cells_at)
    max_count = int(indices.max(initial=0)) + 1
    cc = np.full((n_hosts, max_count), -1, dtype=np.int64)
    cc[:, 0] = init
    cc[hosts, indices] = cells_at
    loc_rows = cc[
        np.arange(n_hosts)[None, :], np.maximum(rows, 0)
    ]
    loc_rows[rows < 0] = -1

    order = np.argsort(vt.perm[ids], kind="stable")
    hosts_l = hosts[order].tolist()
    idx_l = indices[order].tolist()
    time_l = vt.time_p[ids][order].tolist()
    rows_l = rows[order].tolist()
    loc_l = loc_rows[order].tolist()
    reasons_l = [reasons[k] for k in order.tolist()]
    for k in range(len(hosts_l)):
        inst.take(
            hosts_l[k],
            idx_l[k],
            reasons_l[k],
            time_l[k],
            metadata={
                "ckpt_vec": tuple(rows_l[k]),
                "loc_vec": tuple(loc_l[k]),
            },
        )

    # Final live dependency vectors: inclusive merge over everything
    # received, own entry at the final index (cc covers every index a
    # vector entry can reference, so LOC lookups stay in the table).
    last_r = np.where(
        recv.starts[1:] > recv.starts[:-1], recv.starts[1:] - 1, -1
    )
    final_m = gather(m_incl, last_r, -1)
    own_final = np.asarray(
        [inst.count[h] - 1 for h in range(n_hosts)], dtype=np.int64
    )
    diag = np.arange(n_hosts)
    final_m[diag, diag] = own_final
    final_loc = cc[diag[None, :], np.maximum(final_m, 0)]
    final_loc[final_m < 0] = -1
    inst.ckpt_vec = [row.tolist() for row in final_m]
    inst.loc_vec = [row.tolist() for row in final_loc]
    inst._snapshot = [None] * n_hosts
