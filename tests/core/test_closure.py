"""The reachability closure against a per-event bitmask reference.

:func:`repro.core.vectorized.mask_closure` encodes which basic
triggers have causally reached each host either as one bit per basic
or as one count per basic-owning host, whichever row is narrower for
the trace.  Both must give the first-arrival schedule a plain walk
over the events gives with Python-int bitmasks: at each receive, the
sources its message carries that no earlier message to that host
carried.
"""

import numpy as np
import pytest

from repro.core import vectorized
from repro.core.trace import EventType, build_trace
from repro.workload import WorkloadConfig, generate_trace

BASIC = (EventType.CELL_SWITCH, EventType.DISCONNECT)


def reference_arrivals(trace):
    """Sorted ``(host, receive row, source)`` of every first arrival.

    Sources and receive rows are numbered host-major, each host's in
    timeline order, as :class:`~repro.core.vectorized.VectorizedTrace`
    numbers its basic and receive subsets."""
    n = trace.n_hosts
    events = trace.events
    n_basic = [0] * n
    n_recv = [0] * n
    for ev in events:
        if ev.etype in BASIC:
            n_basic[ev.host] += 1
        elif ev.etype is EventType.RECEIVE:
            n_recv[ev.host] += 1
    b_start = np.concatenate(([0], np.cumsum(n_basic))).tolist()
    r_start = np.concatenate(([0], np.cumsum(n_recv))).tolist()
    own = [0] * n  # own basics so far
    received = [0] * n  # union of every piggyback received so far
    b_seen = [0] * n
    r_seen = [0] * n
    in_flight = {}
    out = []
    for ev in events:
        h = ev.host
        if ev.etype in BASIC:
            own[h] |= 1 << (b_start[h] + b_seen[h])
            b_seen[h] += 1
        elif ev.etype is EventType.SEND:
            in_flight[ev.msg_id] = own[h] | received[h]
        elif ev.etype is EventType.RECEIVE:
            row = r_start[h] + r_seen[h]
            r_seen[h] += 1
            fresh = in_flight.pop(ev.msg_id) & ~received[h]
            received[h] |= fresh
            src = 0
            while fresh:
                if fresh & 1:
                    out.append((h, row, src))
                fresh >>= 1
                src += 1
    return sorted(out), b_start[-1]


def closure_arrivals(trace, monkeypatch, counts):
    """The closure's arrivals under the encoding *counts* selects."""
    monkeypatch.setattr(
        vectorized, "closure_uses_counts", lambda vt: counts
    )
    vt = vectorized.VectorizedTrace.from_trace(trace)
    clo = vectorized.mask_closure(vt)
    np.testing.assert_array_equal(clo.rarr_pos, vt.recv.idx[clo.rarr_row])
    np.testing.assert_array_equal(clo.rarr_seg, vt.seg_p[clo.rarr_pos])
    np.testing.assert_array_equal(
        clo.rarr_starts,
        np.concatenate(
            ([0], np.cumsum(np.bincount(clo.rarr_seg, minlength=vt.n_hosts)))
        ),
    )
    for arr in (clo.rarr_pos, clo.rarr_src, clo.rarr_row, clo.rarr_seg):
        assert arr.dtype == np.int64
    got = list(
        zip(clo.rarr_seg.tolist(), clo.rarr_row.tolist(), clo.rarr_src.tolist())
    )
    return got, clo.n_sources


def fig1(sim_time):
    """Fig. 1's ``T_switch``=100 cell: the figures' densest basics."""
    return generate_trace(
        WorkloadConfig(
            p_send=0.4, p_switch=1.0, t_switch=100.0, sim_time=sim_time,
            seed=0,
        )
    )


#: (trace, encoding the closure picks for it).  At sim_time 2000 the
#: ~175 basics fit three mask words (24 B a row, against 40 B of
#: counts for ten owners); by 4000 the ~390 basics need seven (56 B).
CASES = {
    "bitmask": (lambda: fig1(2000.0), False),
    "counts": (lambda: fig1(4000.0), True),
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_the_narrower_encoding_is_chosen(case):
    make, counts = CASES[case]
    vt = vectorized.VectorizedTrace.from_trace(make())
    assert vectorized.closure_uses_counts(vt) is counts
    words = -(-int(vt.basic.idx.shape[0]) // 64)
    assert words > 1  # a multi-word mask either way


@pytest.mark.parametrize("counts", [False, True], ids=["bitmask", "counts"])
@pytest.mark.parametrize("case", sorted(CASES))
def test_both_encodings_match_the_reference(case, counts, monkeypatch):
    trace = CASES[case][0]()
    expected, n_sources = reference_arrivals(trace)
    got, n = closure_arrivals(trace, monkeypatch, counts)
    assert n == n_sources
    assert len(expected) > 100
    assert got == expected  # segment-major, by row, then by source


@pytest.mark.parametrize("counts", [False, True], ids=["bitmask", "counts"])
def test_edge_cases_match_the_reference(counts, monkeypatch):
    S, R = EventType.SEND, EventType.RECEIVE
    SW, D, RC = EventType.CELL_SWITCH, EventType.DISCONNECT, EventType.RECONNECT
    traces = {
        # No basic trigger at all: nothing can arrive.
        "no-basics": build_trace(2, 2, [
            (1.0, S, 0, 0, 1), (2.0, R, 1, 0, 0),
        ]),
        # Host 1 owns no basic; host 0's two basics reach host 2 only
        # through host 1, one hop later each; host 2 hears its own
        # basic echoed back.
        "relay": build_trace(3, 2, [
            (1.0, SW, 0, -1, 0, 1),
            (2.0, S, 0, 0, 1),
            (3.0, R, 1, 0, 0),
            (4.0, SW, 0, -1, 1, 0),
            (5.0, S, 0, 1, 1),
            (6.0, S, 1, 2, 2),
            (7.0, R, 2, 2, 1),
            (8.0, R, 1, 1, 0),
            (10.0, SW, 2, -1, 0, 1),
            (11.0, S, 2, 3, 1),
            (12.0, R, 1, 3, 2),
            (13.0, S, 1, 4, 2),
            (14.0, R, 2, 4, 1),
            (15.0, D, 0),
            (16.0, RC, 0, -1, -1, 0),
        ]),
    }
    for name, trace in traces.items():
        expected, n_sources = reference_arrivals(trace)
        got, n = closure_arrivals(trace, monkeypatch, counts)
        assert (got, n) == (expected, n_sources), name


def test_counts_widen_before_they_overflow():
    # A prefix length runs from 0 to the host's basic count inclusive.
    assert vectorized._count_dtype(np.array([3, 32767])) == np.int16
    assert vectorized._count_dtype(np.array([3, 32768])) == np.int32
    assert vectorized._count_dtype(np.array([], dtype=np.int64)) == np.int16
