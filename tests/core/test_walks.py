"""The zoo's Python walks against plain copies of their original loops.

Three walks turn a :class:`~repro.core.vectorized.VectorizedTrace` into
checkpoint placements: the index walk behind BCS and QBC (and the
no-send variants, FDAS and BQF), the no-send split of its jumps, and
the period walk behind UNC and BQF's autonomous basics.  Each is held
here to a straightforward loop over Python lists, the form the walks
had before they were rewritten (one index walk per flavour, a per-jump
split loop, four list copies per host in the period walk):

* the no-send split on Fig. 1/3/4/6 traces and on random traces;
* the period walk at periods 2000/500/100/7.5 with non-zero starting
  checkpoint times, plus hand-built traces whose boundary message sits
  exactly at ``last + period`` or where ``last + period`` rounds across
  the message's time;
* the one walk over both flavours against each flavour walked alone,
  and both against the loop, and the flavours one replay pass walks.
"""

import dataclasses
from bisect import bisect_left, bisect_right

import numpy as np
import pytest
from hypothesis import given, settings

from repro.core import vectorized
from repro.core.replay import replay_vectorized
from repro.core.trace import EventType, build_trace
from repro.core.vectorized import (
    VectorizedTrace,
    gather,
    index_trajectories,
    mask_closure,
    nosend_classification,
)
from repro.experiments.figures import figure_sweep_config
from repro.protocols import BQFProtocol
from repro.protocols import _vectorized as kernels
from repro.protocols._vectorized import period_walk
from repro.protocols.base import registry
from repro.testing.strategies import traces
from repro.workload import generate_trace

# -- the original loops ----------------------------------------------------


def loop_index_trajectory(vt, qbc):
    """One flavour's sn/rn dynamics, walked over per-arrival lists."""
    recv, basic = vt.recv, vt.basic
    clo = mask_closure(vt)
    nb = clo.n_sources
    keys = np.concatenate([vt.perm[basic.idx], vt.perm[clo.rarr_pos]])
    codes = np.concatenate(
        [
            -np.arange(nb, dtype=np.int64) - 1,
            np.arange(clo.rarr_src.shape[0], dtype=np.int64),
        ]
    )
    codes = codes[np.argsort(keys, kind="stable")].tolist()
    b_seg = vt.seg_p[basic.idx].tolist()
    has_recv = (vt.last_recv_at[basic.idx] >= 0).tolist()
    a_seg = clo.rarr_seg.tolist()
    a_row = clo.rarr_row.tolist()
    a_src = clo.rarr_src.tolist()

    sn_after = [0] * nb
    armed = [False] * nb
    rn_at = [0] * nb
    sn_seg = [0] * vt.n_hosts
    rn_seg = [-1] * vt.n_hosts
    jumps = []
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
                sn = m + 1
                armed[bi] = True
            elif not qbc:
                sn += 1
                armed[bi] = True
            sn_seg[s] = sn
            sn_after[bi] = sn
            rn_at[bi] = m
            k += 1
        else:
            row = a_row[c]
            s = a_seg[c]
            v = sn_after[a_src[c]]
            k += 1
            while k < n:
                c = codes[k]
                if c < 0 or a_row[c] != row:
                    break
                v = max(v, sn_after[a_src[c]])
                k += 1
            if v > rn_seg[s]:
                rn_seg[s] = v
            if v > sn_seg[s]:
                sn_seg[s] = v
                jumps.append((s, row, v))
    jumps.sort()
    rn_final = np.asarray(rn_seg, dtype=np.int64)
    rn_final[(rn_final < 0) & (np.diff(recv.starts) > 0)] = 0
    return {
        "sn_after_basic": sn_after,
        "armed": armed,
        "rn_at_basic": rn_at,
        "jump_seg": [j[0] for j in jumps],
        "jump_row": [j[1] for j in jumps],
        "jump_index": [j[2] for j in jumps],
        "sn_final": sn_seg,
        "rn_final": rn_final.tolist(),
    }


def loop_nosend(vt, traj):
    """The no-send split, one jump at a time."""
    pos = vt.recv.idx[traj.jump_row]
    sp = gather(vt.send.idx, vt.last_send_at[pos], -1).tolist()
    bp = gather(vt.basic.idx, vt.last_basic_at[pos], -1).tolist()
    pos = pos.tolist()
    seg = traj.jump_seg.tolist()
    forced = [False] * len(pos)
    last_forced = {}
    for k in range(len(pos)):
        reset = max(bp[k], last_forced.get(seg[k], -1))
        if sp[k] > reset:
            forced[k] = True
            last_forced[seg[k]] = pos[k]
    return forced


def loop_period_walk(vt, period, t_last):
    """The period walk over four per-host list copies."""
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


# -- traces ----------------------------------------------------------------

FIGURES = (1, 3, 4, 6)


def figure_trace(fig, t_switch, sim_time=2500.0, seed=0):
    base = figure_sweep_config(
        fig, sim_time=sim_time, t_switch_values=(t_switch,)
    ).base
    return generate_trace(
        dataclasses.replace(base, t_switch=t_switch, seed=seed)
    )


def figure_vts():
    """Fig. 1/3/4/6 at a dense and a sparse ``T_switch``."""
    return {
        (fig, t): VectorizedTrace.from_trace(figure_trace(fig, t))
        for fig in FIGURES
        for t in (100.0, 1000.0)
    }


@pytest.fixture(scope="module")
def vts():
    return figure_vts()


def t_last_of(vt):
    """Non-zero, distinct starting checkpoint times per host."""
    return [0.25 + 1.5 * h for h in range(vt.n_hosts)]


# -- the index walk --------------------------------------------------------


def assert_matches_loop(vt, qbc, traj):
    want = loop_index_trajectory(vt, qbc)
    if not qbc:
        # BCS's rule reads no rn, so its trajectory carries none.
        assert traj.rn_at_basic is None and traj.rn_final is None
        want = {k: v for k, v in want.items() if not k.startswith("rn")}
    for name, value in want.items():
        assert getattr(traj, name).tolist() == value, name
    assert traj.n_jump_seg.tolist() == np.bincount(
        want["jump_seg"], minlength=vt.n_hosts
    ).tolist()


def test_one_walk_matches_two_single_flavour_walks(vts):
    jumps = 0
    for vt in vts.values():
        both = index_trajectories(vt, {False, True})
        assert sorted(both) == [False, True]
        for qbc in (False, True):
            alone = index_trajectories(vt, {qbc})
            assert list(alone) == [qbc]
            for traj in (both[qbc], alone[qbc]):
                assert_matches_loop(vt, qbc, traj)
            jumps += both[qbc].jump_row.shape[0]
    assert jumps > 100  # the traces exercise the jump rule


@settings(max_examples=60, deadline=None)
@given(trace=traces())
def test_one_walk_matches_the_loop_on_random_traces(trace):
    vt = VectorizedTrace.from_trace(trace)
    both = index_trajectories(vt, {False, True})
    for qbc in (False, True):
        assert_matches_loop(vt, qbc, both[qbc])


def solved_flavours(monkeypatch):
    """Record the flavour set of every index walk the kernels run."""
    solved = []

    def counting(vt, flavours):
        solved.append(sorted(flavours))
        return index_trajectories(vt, flavours)

    monkeypatch.setattr(kernels, "index_trajectories", counting)
    return solved


@pytest.mark.parametrize(
    "names, period, walks",
    [
        (("BCS", "BCS-NS", "FDAS"), None, [[False]]),
        (("QBC", "QBC-NS", "BQF"), None, [[True]]),
        (("TP", "UNC", "QBC", "BCS"), None, [[False, True]]),
        # BQF at a finite period walks the trace with its autonomous
        # basics inserted, not the pass's.
        (("BCS", "BQF"), 300.0, [[False], [True]]),
    ],
)
def test_a_pass_walks_once_for_the_flavours_it_reads(
    names, period, walks, monkeypatch
):
    solved = solved_flavours(monkeypatch)
    trace = figure_trace(1, 100.0, sim_time=1500.0)
    protocols = [
        BQFProtocol(trace.n_hosts, trace.n_mss, period=period)
        if name == "BQF" and period is not None
        else registry[name](trace.n_hosts, trace.n_mss)
        for name in names
    ]
    replay_vectorized(trace, protocols)
    assert solved == walks


# -- the no-send split -----------------------------------------------------


def assert_split_matches_loop(vt):
    forced = 0
    for traj in index_trajectories(vt, {False, True}).values():
        got = nosend_classification(vt, traj)
        assert got.dtype == bool
        assert got.tolist() == loop_nosend(vt, traj)
        forced += int(got.sum())
    return forced


def test_nosend_split_matches_the_loop_on_figure_traces(vts):
    forced = [assert_split_matches_loop(vt) for vt in vts.values()]
    # Both outcomes occur: some jumps force, some rename.
    n_jumps = sum(
        t.jump_row.shape[0]
        for vt in vts.values()
        for t in index_trajectories(vt, {False, True}).values()
    )
    assert 0 < sum(forced) < n_jumps


def test_nosend_split_on_a_hand_built_trace():
    D = EventType.DISCONNECT
    events = [
        (1.0, SW, 0, -1, 0, 1),
        (2.0, S, 0, 1, 1),
        # Before host 1's first send or basic: a rename.
        (3.0, R, 1, 1, 0),
        (4.0, S, 1, 2, 2),
        (5.0, SW, 0, -1, 1, 0),
        (6.0, S, 0, 3, 1),
        # The first jump after host 1's send: forced.
        (7.0, R, 1, 3, 0),
        (8.0, SW, 0, -1, 0, 1),
        (9.0, S, 0, 4, 1),
        # A second jump after the same send: a rename.
        (10.0, R, 1, 4, 0),
        (11.0, D, 1),
        (11.5, EventType.RECONNECT, 1, -1, -1, 1),
        (12.0, SW, 0, -1, 1, 0),
        (12.5, SW, 0, -1, 0, 1),
        (13.0, S, 0, 5, 1),
        # A jump after a basic with no send since: a rename.
        (14.0, R, 1, 5, 0),
        # Host 2 never sent: a rename.
        (15.0, R, 2, 2, 1),
    ]
    vt = VectorizedTrace.from_trace(build_trace(3, 2, events))
    bcs = index_trajectories(vt, {False})[False]
    assert bcs.jump_seg.tolist() == [1, 1, 1, 1, 2]
    assert nosend_classification(vt, bcs).tolist() == [
        False, True, False, False, False,
    ]
    assert_split_matches_loop(vt)


@settings(max_examples=80, deadline=None)
@given(trace=traces())
def test_nosend_split_matches_the_loop_on_random_traces(trace):
    assert_split_matches_loop(VectorizedTrace.from_trace(trace))


# -- the period walk -------------------------------------------------------


@pytest.mark.parametrize("period", [2000.0, 500.0, 100.0, 7.5])
def test_period_walk_matches_the_loop(vts, period):
    periodic = 0
    for vt in vts.values():
        t_last = t_last_of(vt)
        got = period_walk(vt, period, t_last)
        assert got == loop_period_walk(vt, period, t_last)
        periodic += sum(p for walk in got for _, _, p in walk)
    assert periodic > 0


S, R = EventType.SEND, EventType.RECEIVE
SW = EventType.CELL_SWITCH


def sends_at(times, then_basic=None):
    """Host 0 sends to host 1 at *times*; host 1 receives each one
    later.  *then_basic* puts a cell switch of host 0 at that time."""
    events = []
    for k, t in enumerate(times):
        events.append((t, S, 0, k + 1, 1))
        events.append((t + 50.0, R, 1, k + 1, 0))
    if then_basic is not None:
        events.append((then_basic, SW, 0, -1, 0, 1))
    return VectorizedTrace.from_trace(build_trace(2, 2, events))


def host0_times(vt, period, t_last0):
    walk = period_walk(vt, period, [t_last0, 0.0])
    assert walk == loop_period_walk(vt, period, [t_last0, 0.0])
    return [(t, p) for _, t, p in walk[0]]


def test_period_walk_takes_a_message_exactly_one_period_on():
    # 3.0 - 1.0 == 2.0: the boundary message itself checkpoints, and
    # the next boundary, 5.0, again.
    vt = sends_at([2.0, 3.0, 4.0, 5.0, 6.5])
    assert host0_times(vt, 2.0, 1.0) == [(3.0, True), (5.0, True)]


def test_period_walk_keeps_the_predicate_where_the_sum_rounds_up():
    # 6.7 + 0.3 == 7.0 in floats, but 7.0 - 6.7 < 0.3: the message at
    # 7.0 is short of a period, so the one at 7.1 checkpoints.
    assert 6.7 + 0.3 == 7.0 and 7.0 - 6.7 < 0.3
    vt = sends_at([6.8, 7.0, 7.1])
    assert host0_times(vt, 0.3, 6.7) == [(7.1, True)]


def test_period_walk_keeps_the_predicate_where_the_sum_rounds_down():
    # 0.6 + 1.1 > 1.7 in floats, yet 1.7 - 0.6 >= 1.1: the message at
    # 1.7 is a full period on and checkpoints.
    assert 0.6 + 1.1 > 1.7 and 1.7 - 0.6 >= 1.1
    vt = sends_at([1.5, 1.7, 1.8])
    assert host0_times(vt, 1.1, 0.6) == [(1.7, True)]
    # The same boundary measured from a basic trigger at 0.6.
    vt = sends_at([1.5, 1.7, 1.8], then_basic=0.6)
    assert host0_times(vt, 1.1, 0.0) == [(0.6, False), (1.7, True)]


def test_period_walk_copies_no_message_columns(monkeypatch, vts):
    """The walk reads the segment-major columns in place."""
    vt = vts[(1, 100.0)]
    calls = []
    real = np.ndarray.tolist

    class Spy(np.ndarray):
        def tolist(self):
            calls.append(self.shape)
            return real(self)

    msg = dataclasses.replace(
        vt.msg, idx=vt.msg.idx.view(Spy), time=vt.msg.time.view(Spy)
    )
    spied = dataclasses.replace(vt, msg=msg, scratch={})
    assert period_walk(spied, 100.0, t_last_of(vt)) == period_walk(
        vt, 100.0, t_last_of(vt)
    )
    assert calls == []


def test_schedule_is_cached_as_numpy_arrays(vts):
    vt = vts[(3, 100.0)]
    index_trajectories(vt, {True})
    ws = vt.scratch["index_walk"]
    assert vectorized._walk_schedule(vt) is ws
    for f in dataclasses.fields(ws):
        assert isinstance(getattr(ws, f.name), np.ndarray), f.name
