"""Vectorized replay substrate: segmented batch kernels over traces.

The fused engine (:func:`repro.core.replay.replay_fused`) already
decodes each event once, but still dispatches one Python ``hook(*args)``
per event per protocol.  This module removes the per-event dispatch
entirely: a trace is lowered to numpy columns
(:class:`~repro.core.compiled.ArrayColumns`), partitioned into
contiguous per-host event segments, and each protocol's piggyback /
checkpoint rules run as *batch kernels* -- segmented scans and boolean
masks over whole columns (see the ``vectorized_replay`` classmethods in
:mod:`repro.protocols`).

A :class:`VectorizedTrace` holds one trace: segment *h* is host *h*'s
time-ordered event stream, and one kernel invocation fills one
protocol instance.

The causality fixpoint
----------------------

Piggyback values at sends depend on the sender's state at send time,
which depends on earlier receives, which carry earlier sends'
piggybacks: the one genuinely sequential part of replay.  Kernels
resolve it by :func:`fixpoint` iteration: start every piggyback at its
lower bound, recompute all per-host state from the current piggyback
array in one batch pass, re-derive the piggybacks, repeat until the
array stops changing.  Every protocol operator here is *monotone*
(piggybacks never shrink when inputs grow) and the true execution is a
fixpoint; because a send's piggyback depends only on strictly earlier
events, that fixpoint is unique (induction over event order), so
convergence yields the reference execution bit-exactly -- the
three-way equivalence suite checks this against the reference engine
for every vectorizable protocol.

Iteration counts matter, and *what* is iterated matters more: a
fixpoint over protocol **values** (sequence numbers) needs one pass
per effective index increase -- the longest causal chain of ``+1``
steps, which grows with trace length.  The index family therefore
never iterates on values.  Instead :func:`mask_closure` runs the
fixpoint over **reachability**: which basic triggers have causally
reached each host at each point, as a bitmask or -- since a host's
basics in any causal past are a prefix of its timeline -- one count
per host, whichever is narrower.  Those sources are static (a basic's
reachability does not depend on any protocol value), so each pass
extends every causal chain by at least one whole message hop and the
iteration count is the communication graph's hop depth -- a handful
regardless of how high the indices climb.  Protocol values are then
recovered from the closure by a chronological walk over the (rare)
basic triggers plus one segmented scan; see
:func:`index_trajectory`.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Callable, Optional

from repro.core import compiled as _compiled
from repro.core.compiled import ArrayColumns, array_columns
from repro.core.trace import Trace


class VectorizationError(RuntimeError):
    """A vectorized replay is impossible (protocol ships no kernels)
    or a kernel could not complete (fixpoint cap exceeded)."""


# ---------------------------------------------------------------------------
# segmented-array primitives
# ---------------------------------------------------------------------------

def seg_cumsum(values, starts):
    """Per-segment inclusive cumulative sum (segments are the
    contiguous ``values[starts[i]:starts[i+1]]`` slices)."""
    import numpy as np

    if values.shape[0] == 0:
        return values.copy()
    total = np.cumsum(values)
    lengths = np.diff(starts)
    # starts[i] == len(values) for trailing empty segments; clip the
    # gather -- those entries repeat zero times anyway.
    first = np.minimum(starts[:-1], values.shape[0] - 1)
    base = np.repeat(total[first] - values[first], lengths)
    return total - base


def seg_scan(values, starts, ufunc):
    """Per-segment inclusive ``ufunc.accumulate`` (along axis 0 for 2-D
    values).  Segment count is small (one per host), so a per-segment
    accumulate loop beats any branch-free encoding."""
    import numpy as np  # noqa: F401 - callers pass numpy ufuncs

    out = np.empty_like(values)
    for i in range(len(starts) - 1):
        lo, hi = starts[i], starts[i + 1]
        if hi > lo:
            ufunc.accumulate(values[lo:hi], axis=0, out=out[lo:hi])
    return out


def seg_cummax(values, starts):
    """Per-segment inclusive running maximum (see :func:`seg_scan`)."""
    import numpy as np

    return seg_scan(values, starts, np.maximum)


def seg_shift(values, starts, fill):
    """Shift *values* down by one within each segment (exclusive view:
    ``out[k]`` is ``values[k-1]``, or *fill* at a segment start)."""
    import numpy as np  # noqa: F401 - dtype-agnostic, kept for symmetry

    out = values.copy()
    if values.shape[0] == 0:
        return out
    out[1:] = values[:-1]
    heads = starts[:-1]
    out[heads[heads < values.shape[0]]] = fill
    return out


def gather(arr, idx, default):
    """``arr[idx]`` with ``idx == -1`` entries mapped to *default*."""
    import numpy as np

    if arr.shape[0] == 0:
        shape = idx.shape if arr.ndim == 1 else idx.shape + arr.shape[1:]
        return np.full(shape, default, dtype=arr.dtype)
    out = arr[np.maximum(idx, 0)]
    if arr.ndim == 1:
        return np.where(idx >= 0, out, default)
    out[idx < 0] = default
    return out


def seg_counts(mask, starts):
    """Number of True entries of *mask* per segment."""
    import numpy as np

    cum = np.concatenate(([0], np.cumsum(mask, dtype=np.int64)))
    return cum[starts[1:]] - cum[starts[:-1]]


def fixpoint(initial, step: Callable, limit: int, label: str):
    """Iterate ``step`` from *initial* until the array stops changing.

    ``step`` must be monotone and bounded (every protocol operator in
    this module is); *limit* is a tripwire far above any reachable
    iteration count, raising :class:`VectorizationError` instead of
    spinning.  Returns the converged array.
    """
    import numpy as np

    current = initial
    for _ in range(limit):
        new = step(current)
        if np.array_equal(new, current):
            return current
        current = new
    raise VectorizationError(
        f"{label}: piggyback fixpoint did not converge within {limit} "
        "iterations (deeper than the event count -- this indicates a "
        "kernel bug, not a workload property)"
    )


# ---------------------------------------------------------------------------
# the partitioned trace
# ---------------------------------------------------------------------------

@dataclass(slots=True, frozen=True)
class _Subset:
    """One event class (receives, sends, ...) in segment-major order.

    ``idx`` holds positions in the *permuted* event domain, ``starts``
    the segment boundaries within these arrays (length
    ``n_hosts + 1``).
    """

    idx: "np.ndarray"  # noqa: F821 - numpy imported lazily
    starts: "np.ndarray"  # noqa: F821
    time: "np.ndarray"  # noqa: F821
    slot: Optional["np.ndarray"] = None  # noqa: F821


@dataclass(slots=True, frozen=True)
class VectorizedTrace:
    """One trace lowered to per-host segmented numpy columns.

    Events are stably permuted into segment-major order: segment *h*
    is the time-ordered event stream of host *h*, a contiguous slice
    ``[seg_starts[h], seg_starts[h+1])`` of every permuted column.
    ``perm`` maps a permuted position back to the event's position in
    the trace -- the total order checkpoint logs are materialized in.
    """

    n_hosts: int
    n_events: int
    n_sends: int
    n_receives: int
    #: The array columns this layout partitions (the trace's own, not
    #: a copy).
    columns: ArrayColumns
    #: Permuted position -> original event position.
    perm: "np.ndarray"  # noqa: F821
    #: Segment (host) id of each permuted position (sorted).
    seg_p: "np.ndarray"  # noqa: F821
    time_p: "np.ndarray"  # noqa: F821
    seg_starts: "np.ndarray"  # noqa: F821
    #: Receives / sends / basic triggers (CELL_SWITCH + DISCONNECT) /
    #: message events (SEND + RECEIVE) / cell-value changes
    #: (CELL_SWITCH + RECONNECT), each in segment-major order.
    recv: _Subset
    send: _Subset
    basic: _Subset
    msg: _Subset
    change: _Subset
    #: Cell value after each ``change`` event.
    change_cell: "np.ndarray"  # noqa: F821
    #: Index into the recv/send/basic/change subsets of the last such
    #: event in the same segment at-or-before each permuted position
    #: (-1: none; at a position of the same class, includes itself).
    last_recv_at: "np.ndarray"  # noqa: F821
    last_send_at: "np.ndarray"  # noqa: F821
    last_basic_at: "np.ndarray"  # noqa: F821
    last_change_at: "np.ndarray"  # noqa: F821
    #: Mutable cache for derived, protocol-independent artifacts
    #: (notably the :func:`mask_closure` shared by the whole index
    #: family), and the memo of a running :func:`one_pass`.
    #: Contents-mutable despite the frozen dataclass.
    scratch: dict = field(default_factory=dict)

    # -- construction ------------------------------------------------------
    @classmethod
    def from_trace(cls, trace: Trace) -> "VectorizedTrace":
        """Partition *trace* into its segment-major layout."""
        return cls.from_columns(array_columns(trace))

    @classmethod
    def from_columns(cls, cols: ArrayColumns) -> "VectorizedTrace":
        """Partition array columns into their segment-major layout."""
        import numpy as np

        n_hosts = cols.n_hosts
        perm = np.argsort(cols.host, kind="stable")
        seg_p = cols.host[perm]
        etype_p = cols.etype[perm]
        time_p = cols.time[perm]
        seg_starts = np.concatenate(
            ([0], np.cumsum(np.bincount(seg_p, minlength=n_hosts)))
        )
        ev_lengths = np.diff(seg_starts)

        is_recv = etype_p == _compiled.RECEIVE
        is_send = etype_p == _compiled.SEND
        is_basic = (etype_p == _compiled.CELL_SWITCH) | (
            etype_p == _compiled.DISCONNECT
        )
        is_msg = is_recv | is_send
        is_change = (etype_p == _compiled.CELL_SWITCH) | (
            etype_p == _compiled.RECONNECT
        )

        def subset(mask, with_slot=False):
            idx = np.flatnonzero(mask)
            counts = np.bincount(seg_p[idx], minlength=n_hosts)
            starts = np.concatenate(([0], np.cumsum(counts)))
            return _Subset(
                idx=idx,
                starts=starts,
                time=time_p[idx],
                slot=cols.slot[perm[idx]] if with_slot else None,
            )

        def last_at(mask, sub):
            cnt = seg_cumsum(mask.astype(np.int64), seg_starts)
            base = np.repeat(sub.starts[:-1], ev_lengths)
            return np.where(cnt > 0, base + cnt - 1, -1)

        recv = subset(is_recv, with_slot=True)
        send = subset(is_send, with_slot=True)
        basic = subset(is_basic)
        msg = subset(is_msg)
        change = subset(is_change)

        return cls(
            n_hosts=n_hosts,
            n_events=int(etype_p.shape[0]),
            n_sends=cols.n_sends,
            n_receives=cols.n_receives,
            columns=cols,
            perm=perm,
            seg_p=seg_p,
            time_p=time_p,
            seg_starts=seg_starts,
            recv=recv,
            send=send,
            basic=basic,
            msg=msg,
            change=change,
            change_cell=cols.cell[perm[change.idx]],
            last_recv_at=last_at(is_recv, recv),
            last_send_at=last_at(is_send, send),
            last_basic_at=last_at(is_basic, basic),
            last_change_at=last_at(is_change, change),
        )

    # -- conveniences ------------------------------------------------------
    def seg_last(self, values, sub: _Subset, fill):
        """Per segment: last entry of *values* (aligned with *sub*), or
        *fill* for segments without such events."""
        import numpy as np

        out = np.full(self.n_hosts, fill, dtype=values.dtype)
        ends = sub.starts[1:]
        nonempty = ends > sub.starts[:-1]
        out[nonempty] = values[ends[nonempty] - 1]
        return out


def vectorized_trace(trace: Trace) -> VectorizedTrace:
    """The :class:`VectorizedTrace` of *trace*, cached on the instance
    like :meth:`Trace.compiled` (keyed on the event count)."""
    vt = trace.cached_lowering("_vectorized_cache")
    if vt is None:
        vt = VectorizedTrace.from_trace(trace)
        trace._vectorized_cache = (len(trace), vt)
    return vt


#: ``vt.scratch`` key of the memo :func:`one_pass` opens.
_PASS_MEMO = "pass"


@contextmanager
def one_pass(vt: VectorizedTrace):
    """Let the kernels run inside this block share their per-flavour
    solutions (see :func:`per_pass`).

    The memo lives in ``vt.scratch`` only while the block runs, so a
    memoized trace keeps nothing of it between replays.
    """
    vt.scratch[_PASS_MEMO] = {}
    try:
        yield
    finally:
        vt.scratch.pop(_PASS_MEMO, None)


def per_pass(vt: VectorizedTrace, key, solve: Callable):
    """``solve()``, computed once per *key* inside a :func:`one_pass`
    block over *vt* and on every call outside one."""
    memo = vt.scratch.get(_PASS_MEMO)
    if memo is None:
        return solve()
    if key not in memo:
        memo[key] = solve()
    return memo[key]


# ---------------------------------------------------------------------------
# reachability closure: which basic triggers have causally reached whom
# ---------------------------------------------------------------------------

@dataclass(slots=True, frozen=True)
class _MaskClosure:
    """First-arrival schedule of every basic trigger at every host.

    Protocol-independent: derived purely from the message graph and the
    basic-trigger positions, so one closure serves BCS, QBC and both
    no-send variants (it is cached in ``vt.scratch``).  Each basic
    trigger is a *source*; ``rarr_*`` lists, per segment, in position
    order and then by source id, the receive positions where a source
    first arrives **via a message**.  ``rarr_starts`` holds the
    segment boundaries (length ``n_hosts + 1``).
    """

    n_sources: int
    rarr_pos: "np.ndarray"  # noqa: F821 - permuted event positions
    rarr_src: "np.ndarray"  # noqa: F821 - source (basic-subset) ids
    rarr_row: "np.ndarray"  # noqa: F821 - receive-subset row of arrival
    rarr_seg: "np.ndarray"  # noqa: F821
    rarr_starts: "np.ndarray"  # noqa: F821


def _count_dtype(per_host):
    """The narrowest count type that holds every host's basic count."""
    import numpy as np

    return np.dtype(np.int16 if per_host.max(initial=0) < 2**15 else np.int32)


def closure_uses_counts(vt: VectorizedTrace) -> bool:
    """Whether :func:`mask_closure` encodes *vt*'s reachability as one
    count per basic-owning host (True) or as a bitmask (False).

    Both say the same: host *h*'s basic triggers are ordered along its
    timeline, so the ones in any event's causal past are a prefix of
    them, and the prefix length carries every bit the mask does.  The
    narrower row wins, an ``int32`` per owning host against ``uint64``
    words of one bit per basic: the mask on a short trace, where the
    basics fit a few words, the counts once it outgrows the host
    count (their width is fixed; the mask's grows with the horizon).
    Counts are stored as ``int16`` while they fit, which halves the
    memory the fixpoint streams without moving the crossover, where
    both take the same time.
    """
    import numpy as np

    n_words = -(-int(vt.basic.idx.shape[0]) // 64)
    n_owners = int(np.count_nonzero(np.diff(vt.basic.starts)))
    return 4 * n_owners < 8 * n_words


def mask_closure(vt: VectorizedTrace) -> _MaskClosure:
    """Compute (or fetch cached) the causal reachability closure of
    *vt*'s basic triggers.

    The fixpoint runs over per-send reachability piggybacks -- set
    union instead of max -- so its sources are static and each pass
    extends reachability by a full message hop: iterations track the
    hop depth of the communication graph, not the magnitude of any
    protocol counter.  A piggyback row is a bitmask (one bit per
    basic, union by ``bitwise_or``) or a count per basic-owning host
    (union by ``maximum``), whichever is narrower for *vt*
    (:func:`closure_uses_counts`); the result is the same.  The
    converged per-receive rows are then diffed along each host's
    timeline to extract first arrivals; everything downstream works on
    those (tiny) arrival lists, never on the rows again.
    """
    cached = vt.scratch.get("mask_closure")
    if cached is not None:
        return cached
    import numpy as np

    recv, send, basic = vt.recv, vt.send, vt.basic
    nb = int(basic.idx.shape[0])
    owners = np.flatnonzero(np.diff(basic.starts))
    owner_base = basic.starts[owners]
    # Basics of the sender in its own causal past at each send: a
    # prefix of its basic-subset range, of this length.
    send_seg = vt.seg_p[send.idx]
    last_b = vt.last_basic_at[send.idx]
    own_n = np.where(last_b >= 0, last_b - basic.starts[send_seg] + 1, 0)

    if closure_uses_counts(vt):
        ufunc = np.maximum
        col = np.zeros(vt.n_hosts, dtype=np.int64)
        col[owners] = np.arange(owners.shape[0])
        own_at_send = np.zeros(
            (send.idx.shape[0], owners.shape[0]),
            _count_dtype(np.diff(basic.starts)),
        )
        owned = np.flatnonzero(own_n)
        own_at_send[owned, col[send_seg[owned]]] = own_n[owned]
    else:
        ufunc = np.bitwise_or
        n_words = max(1, -(-nb // 64))
        # prefix[k]: the low k bits set, for k in 0..64.
        prefix = np.array([(1 << k) - 1 for k in range(65)], dtype=np.uint64)
        lo = basic.starts[send_seg]
        hi = lo + own_n
        own_at_send = np.empty((send.idx.shape[0], n_words), np.uint64)
        for w in range(n_words):
            a = np.clip(lo - 64 * w, 0, 64)
            b = np.clip(hi - 64 * w, 0, 64)
            own_at_send[:, w] = prefix[b] & ~prefix[a]
    r_before_send = vt.last_recv_at[send.idx]
    # Piggybacks stay in send-subset order; a receive reads the row of
    # the send that shares its slot.
    send_row = np.empty(vt.n_sends, dtype=np.int64)
    send_row[send.slot] = np.arange(send.idx.shape[0])
    recv_src_row = send_row[recv.slot]

    state: dict = {}

    def step(pbm):
        rm_incl = seg_scan(pbm[recv_src_row], recv.starts, ufunc)
        state["rm_incl"] = rm_incl
        return ufunc(own_at_send, gather(rm_incl, r_before_send, 0))

    fixpoint(own_at_send, step, vt.n_events + 2, "reachability-closure")
    rm_incl = state["rm_incl"]

    # First arrivals via messages: the sources newly present vs the
    # host's previous receive.  Per (receive row, owner) they are a
    # run of consecutive source ids, from the old prefix length to
    # the new one; only rows where anything changed are read.
    prev = seg_shift(rm_incl, recv.starts, 0)
    rows = np.flatnonzero((rm_incl != prev).any(axis=1))
    if ufunc is np.maximum:
        new_n = rm_incl[rows].astype(np.int64)
        old_n = prev[rows].astype(np.int64)
    else:
        def prefix_lengths(masks):
            bits = np.unpackbits(
                masks.astype("<u8", copy=False).view(np.uint8),
                axis=1, bitorder="little",
            )[:, :nb]
            return np.add.reduceat(bits, owner_base, axis=1, dtype=np.int64)

        new_n = prefix_lengths(rm_incl[rows])
        old_n = prefix_lengths(prev[rows])
    hit_r, hit_o = np.nonzero(new_n > old_n)
    runs = new_n[hit_r, hit_o] - old_n[hit_r, hit_o]
    first = owner_base[hit_o] + old_n[hit_r, hit_o]
    of_run = np.repeat(np.arange(runs.shape[0]), runs)
    offset = np.arange(of_run.shape[0]) - (np.cumsum(runs) - runs)[of_run]
    rarr_row = rows[hit_r][of_run]
    rarr_pos = recv.idx[rarr_row]
    rarr_seg = vt.seg_p[rarr_pos]
    clo = _MaskClosure(
        n_sources=nb,
        rarr_pos=rarr_pos,
        rarr_src=first[of_run] + offset,
        rarr_row=rarr_row,
        rarr_seg=rarr_seg,
        rarr_starts=np.concatenate(
            ([0], np.cumsum(np.bincount(rarr_seg, minlength=vt.n_hosts)))
        ),
    )
    vt.scratch["mask_closure"] = clo
    return clo


# ---------------------------------------------------------------------------
# the index-protocol family kernel (BCS / QBC and their no-send variants)
# ---------------------------------------------------------------------------

@dataclass(slots=True, frozen=True)
class IndexTrajectory:
    """Converged per-host sequence-number dynamics of an index protocol.

    Everything the BCS/QBC family materializes -- forced-checkpoint
    placement, basic-checkpoint indices, final live state.  Placement
    is *sparse*: jumps (receives where the index rule fires) are listed
    explicitly rather than as a full per-receive mask, because a jump
    can only happen where a piggyback delivers a source the receiver
    has not causally seen -- i.e. at a :func:`mask_closure` arrival.
    """

    #: sn value after each basic trigger.
    sn_after_basic: "np.ndarray"  # noqa: F821
    #: Whether the basic opened a new index (always under BCS; QBC's
    #: armed ``rn == sn`` case -- the complement is a replacement).
    armed: "np.ndarray"  # noqa: F821
    #: rn observed at each basic (-1 before any receive).
    rn_at_basic: "np.ndarray"  # noqa: F821
    #: Jump receives, segment-major: segment id, receive-subset row,
    #: and the piggyback index jumped to (parallel arrays).
    jump_seg: "np.ndarray"  # noqa: F821
    jump_row: "np.ndarray"  # noqa: F821
    jump_index: "np.ndarray"  # noqa: F821
    #: Number of jumps per segment.
    n_jump_seg: "np.ndarray"  # noqa: F821
    #: Final sn / rn per segment.
    sn_final: "np.ndarray"  # noqa: F821
    rn_final: "np.ndarray"  # noqa: F821


def index_trajectory(vt: VectorizedTrace, qbc: bool) -> IndexTrajectory:
    """Solve the sn/rn dynamics of the index family over *vt*.

    Three observations make this closed-form over the
    :func:`mask_closure`:

    * Every sn value in the system *originates* at some basic trigger
      (as that basic's ``sn_after``) and only ever propagates by max:
      jumps copy a received piggyback, piggybacks copy the sender's
      sn.  Hence sn of host *h* at position *p* is ``max(0, sn_after
      of every source that causally reached h before p)``, and rn is
      the same max restricted to message arrivals.
    * A receive can therefore only *jump* (raise sn) when it delivers
      a source the receiver had not causally seen -- a closure
      arrival.  Jump placement needs no per-receive pass at all, just
      the (rare) arrival records.
    * ``sn_after`` of the basics is computed in the same walk: by the
      time a source's value arrives anywhere, that source lies
      strictly earlier in global time, so one chronological walk over
      basics and arrivals together sees every needed value already
      resolved.

    The walk is O(basics + arrivals) Python -- both thousands of times
    rarer than events -- so after the (cached) closure nothing here
    scales with the event count.

    ``qbc=False`` gives BCS dynamics (every basic increments),
    ``qbc=True`` QBC's (a basic increments only when armed).  The
    no-send variants and FDAS share these dynamics *exactly* --
    skipping empty checkpoints changes how a jump is recorded (rename,
    adoption or forced take), never the sn trajectory -- and reuse
    this result verbatim, as BQF reuses QBC's.
    """
    import numpy as np

    recv, basic = vt.recv, vt.basic
    clo = mask_closure(vt)
    nb = clo.n_sources

    # Static walk inputs shared by both flavors (and every repeat
    # replay of this trace): one merged chronological event list over
    # basics and arrivals.  Entry code: ``-bi - 1`` for basic *bi*,
    # the arrival index for arrivals.
    ws = vt.scratch.get("index_walk_static")
    if ws is None:
        keys = np.concatenate(
            [vt.perm[basic.idx], vt.perm[clo.rarr_pos]]
        )
        codes = np.concatenate(
            [
                -np.arange(nb, dtype=np.int64) - 1,
                np.arange(clo.rarr_src.shape[0], dtype=np.int64),
            ]
        )
        ws = {
            "codes": codes[np.argsort(keys, kind="stable")].tolist(),
            "b_seg": vt.seg_p[basic.idx].tolist(),
            # rn's baseline is 0 as soon as *any* message arrived (a
            # piggyback of 0 is still a received index), -1 before.
            "has_recv": (vt.last_recv_at[basic.idx] >= 0).tolist(),
            "a_seg": clo.rarr_seg.tolist(),
            "a_row": clo.rarr_row.tolist(),
            "a_src": clo.rarr_src.tolist(),
            "seg_has_recv": (np.diff(recv.starts) > 0).tolist(),
        }
        vt.scratch["index_walk_static"] = ws

    codes = ws["codes"]
    b_seg = ws["b_seg"]
    has_recv = ws["has_recv"]
    a_seg = ws["a_seg"]
    a_row = ws["a_row"]
    a_src = ws["a_src"]

    sn_after: list = [0] * nb
    armed_l: list = [False] * nb
    rn_l: list = [0] * nb
    sn_seg = [0] * vt.n_hosts
    rn_seg = [-1] * vt.n_hosts
    jump_s: list = []
    jump_r: list = []
    jump_v: list = []
    n = len(codes)
    k = 0
    while k < n:
        c = codes[k]
        if c < 0:
            bi = -c - 1
            s = b_seg[bi]
            m = rn_seg[s]
            if m < 0 and has_recv[bi]:
                m = 0
            sn = sn_seg[s]
            if m >= sn:
                # rn caught up with sn: the basic opens a new index
                # (a prior jump receive left sn = rn).
                sn = m + 1
                armed_l[bi] = True
            elif not qbc:
                # BCS increments unconditionally; QBC's rn < sn case
                # keeps the index (the new checkpoint replaces its
                # predecessor).
                sn += 1
                armed_l[bi] = True
            sn_seg[s] = sn
            sn_after[bi] = sn
            rn_l[bi] = m
            k += 1
        else:
            # One receive's fresh arrivals are adjacent (same sort
            # key); the message's piggyback is the max over them --
            # already-seen bits are dominated by the running max.
            row = a_row[c]
            s = a_seg[c]
            v = sn_after[a_src[c]]
            k += 1
            while k < n:
                c = codes[k]
                if c < 0 or a_row[c] != row:
                    break
                v2 = sn_after[a_src[c]]
                if v2 > v:
                    v = v2
                k += 1
            if v > rn_seg[s]:
                rn_seg[s] = v
            if v > sn_seg[s]:
                sn_seg[s] = v
                jump_s.append(s)
                jump_r.append(row)
                jump_v.append(v)

    jump_seg = np.asarray(jump_s, dtype=np.int64)
    jump_row = np.asarray(jump_r, dtype=np.int64)
    jump_index = np.asarray(jump_v, dtype=np.int64)
    # Segment-major (jumps were discovered in global time order).
    order = np.lexsort((jump_row, jump_seg))
    jump_seg = jump_seg[order]
    jump_row = jump_row[order]
    jump_index = jump_index[order]

    sn_final = np.asarray(sn_seg, dtype=np.int64)
    rn_final = np.asarray(rn_seg, dtype=np.int64)
    # Baseline: any receive at all pins rn to at least 0.
    rn_final[(rn_final < 0) & np.asarray(ws["seg_has_recv"])] = 0
    return IndexTrajectory(
        sn_after_basic=np.asarray(sn_after, dtype=np.int64),
        armed=np.asarray(armed_l, dtype=bool),
        rn_at_basic=np.asarray(rn_l, dtype=np.int64),
        jump_seg=jump_seg,
        jump_row=jump_row,
        jump_index=jump_index,
        n_jump_seg=np.bincount(jump_seg, minlength=vt.n_hosts),
        sn_final=sn_final,
        rn_final=rn_final,
    )


def nosend_classification(vt: VectorizedTrace, traj: IndexTrajectory):
    """Split the index-family jump receives into forced takes vs
    renames, per the no-send rule: a jump forces a new checkpoint only
    if the host sent since its last checkpoint-resetting event (basic
    trigger or earlier forced jump); otherwise the latest checkpoint is
    renamed in place.

    Returns a bool array parallel to ``traj.jump_row`` (True = forced
    take, False = rename).  The walk is O(jumps), and jumps are as
    rare as forced checkpoints.
    """
    import numpy as np

    pos = vt.recv.idx[traj.jump_row]
    send_pos = gather(vt.send.idx, vt.last_send_at[pos], -1)
    basic_pos = gather(vt.basic.idx, vt.last_basic_at[pos], -1)
    pos_l = pos.tolist()
    sp_l = send_pos.tolist()
    bp_l = basic_pos.tolist()
    seg_l = traj.jump_seg.tolist()
    forced = [False] * len(pos_l)
    last_forced: dict = {}
    for k in range(len(pos_l)):
        reset = bp_l[k]
        lf = last_forced.get(seg_l[k], -1)
        if lf > reset:
            reset = lf
        if sp_l[k] > reset:
            forced[k] = True
            last_forced[seg_l[k]] = pos_l[k]
    return np.asarray(forced, dtype=bool)
