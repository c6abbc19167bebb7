"""Columnar generation of the paper model: the event loop's trace, in bulk.

For the ``"paper"`` workload without a protocol, no per-event decision
of the simulation feeds back into another host's timing: every random
draw comes from a per-host named stream, channels are delay-only, and a
non-blocking receive never changes when the next operation happens.
The trace the event loop (:class:`repro.workload.driver._Driver`)
builds can therefore be computed pass by pass, each pass a few numpy
operations per host:

1. **Mobility.**  Each host's switch / disconnect / reconnect times are
   one cumulative sum over its ``mobility/*`` draws (``np.cumsum`` adds
   in sequence, exactly as ``now + delay`` does); the cells follow the
   ``mobility/cell`` draws.
2. **Operation clocks.**  A host's steps are a cumulative sum over its
   ``app/internal`` draws that restarts at the reconnect after a step
   landed while the host was disconnected (that step pauses the loop).
3. **Send / receive.**  The ``app/op`` coins split the executed steps.
4. **Destinations.**  A send draws among the hosts connected at its
   time (``app/dst``, one buffer per candidate-set size, refilled in
   the loop's order); with nobody else connected it is a no-op.
5. **Message ids** follow the global send order; ``slot`` equals
   ``msg_id``.
6. **Delivery.**  A message whose destination neither moves nor
   disconnects while it is in flight arrives after two or three legs;
   every other message is routed one at a time by the rules of
   :mod:`repro.net.system` (forwarding, buffering at the last cell,
   release at reconnection).
7. **Receives.**  The inbox is FIFO, so with ``a(t)`` messages arrived
   before a host's k-th receive, the count consumed after it is
   ``c_k = k + min(0, min_{j<=k}(a(t_j) - j))``; receive k consumes
   message ``c_k - 1`` iff ``c_k > c_{k-1}``.

All draws go through the bulk methods of
:class:`~repro.des.rng.RandomStreams`, which advance the same buffers
the loop's scalar draws do, so the columns are byte-identical to the
loop's.  Two things make the loop's heap order observable, and both
raise :class:`Fallback` so that the caller runs the loop instead: an
exact time tie (two actions at one instant, which the loop orders by
scheduling sequence) and a message buffered at a cell its disconnected
destination did not leave from (it would sit in that cell's buffer
until some later reconnection there; see ``_route``).
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.core.compiled import (
    CELL_SWITCH,
    DISCONNECT,
    FLOAT_DTYPE,
    INT_DTYPE,
    RECEIVE,
    RECONNECT,
    SEND,
    ArrayColumns,
)
from repro.des.rng import RandomStreams
from repro.mobility.heterogeneity import residence_means
from repro.mobility.models import PaperMobilityModel
from repro.net.system import NetworkParams
from repro.workload.config import WorkloadConfig


class Fallback(Exception):
    """The columnar passes cannot reproduce the loop for this config;
    ``reason`` names why (the label of the generation-path metric)."""

    def __init__(self, reason: str):
        super().__init__(reason)
        self.reason = reason


def ineligible_reason(config: WorkloadConfig) -> Optional[str]:
    """Why *config* must take the event loop, or None if it need not."""
    if config.workload != "paper" or config.workload_params:
        return "model"
    if config.cell_chooser != "uniform":
        return "cell_chooser"
    if config.duplicate_prob != 0:
        return "duplicates"
    if config.block_on_empty_receive:
        return "blocking_receive"
    return None


@dataclass(slots=True)
class _Timeline:
    """One host's executed mobility events (time <= horizon)."""

    times: np.ndarray
    etype: np.ndarray
    peer: np.ndarray
    #: Cell after ``i`` events (index 0: the initial cell), -1 while
    #: disconnected; ``state[1:]`` is the rows' ``cell`` column.
    state: np.ndarray
    #: Cell after ``i`` events, disconnected or not: the cell a
    #: disconnected host buffers at and reconnects into.
    home: np.ndarray
    #: Disconnection intervals flattened as ``[t_d0, t_r0, t_d1, ...]``
    #: (``inf`` for a reconnect past the horizon): a time ``t`` is
    #: inside one iff ``searchsorted(away, t, "right")`` is odd.
    away: np.ndarray


def _mobility(
    rng: RandomStreams, host: int, model: PaperMobilityModel,
    n_mss: int, horizon: float,
) -> _Timeline:
    """*host*'s switches, disconnects and reconnects up to *horizon*."""
    mean = model.residence_means[host]
    p = model.p_switch
    scale_disc = mean / model.divisor
    cycle = p * mean + (1.0 - p) * (scale_disc + model.disconnect_mean)
    t0 = 0.0
    time_parts, kind_parts = [], []
    while t0 <= horizon:
        k = int((horizon - t0) / cycle * 1.25) + 8
        switch = rng.take_uniform(f"mobility/decide/{host}", k) < p
        disc = ~switch
        residence = rng.take_exponential(
            f"mobility/residence/{host}", k
        ) * np.where(switch, mean, scale_disc)
        away_time = rng.take_exponential(
            f"mobility/away/{host}", int(disc.sum())
        ) * model.disconnect_mean
        # Each decision contributes its residence, and a disconnect
        # also its away time: interleave them in time order.
        size = 1 + disc
        start = np.cumsum(size) - size
        inc = np.empty(int(size.sum()))
        kind = np.empty(len(inc), dtype=INT_DTYPE)
        inc[start] = residence
        kind[start] = np.where(switch, CELL_SWITCH, DISCONNECT)
        inc[start[disc] + 1] = away_time
        kind[start[disc] + 1] = RECONNECT
        times = np.cumsum(np.concatenate(([t0], inc)))[1:]
        time_parts.append(times)
        kind_parts.append(kind)
        t0 = times[-1]
    times = np.concatenate(time_parts)
    n = int(np.searchsorted(times, horizon, "right"))
    times = times[:n]
    etype = np.concatenate(kind_parts)[:n]
    is_switch = etype == CELL_SWITCH
    draws = rng.take_choice_indices(
        f"mobility/cell/{host}",
        np.full(int(is_switch.sum()), n_mss - 1),
    )
    cells = [host % n_mss]
    cur = cells[0]
    for k in draws.tolist():  # choice_other: skip the current cell
        cur = k if k < cur else k + 1
        cells.append(cur)
    cells = np.asarray(cells, dtype=INT_DTYPE)
    n_switches = np.cumsum(is_switch)
    home = cells[n_switches]
    state = np.where(etype == DISCONNECT, -1, home)
    away = times[(etype == DISCONNECT) | (etype == RECONNECT)]
    if len(away) % 2:
        away = np.append(away, np.inf)
    return _Timeline(
        times=times,
        etype=etype,
        peer=np.where(is_switch, cells[n_switches - 1], -1),
        state=np.concatenate((cells[:1], state)),
        home=np.concatenate((cells[:1], home)),
        away=away,
    )


def _steps(
    rng: RandomStreams, host: int, internal_mean: float,
    tl: _Timeline, horizon: float,
) -> tuple[np.ndarray, list[float]]:
    """(executed steps of a connected host, steps that paused it).

    The clock is summed in chunks that end about where the host next
    disconnects, so a pause restarts it without re-summing the rest
    of the horizon; a chunk that falls short is continued from its
    last step (``np.cumsum`` adds in sequence, so the values do not
    depend on where a chunk ends).
    """
    name = f"app/internal/{host}"
    delays = np.empty(0)
    active, paused = [], []
    start = 0.0
    while True:
        k = np.searchsorted(tl.away, start, "right")
        until = min(horizon, tl.away[k]) if k < len(tl.away) else horizon
        need = int((until - start) / internal_mean * 1.05) + 32
        if len(delays) < need:
            delays = np.concatenate((
                delays,
                rng.take_exponential(name, need - len(delays)) * internal_mean,
            ))
        t = np.cumsum(np.concatenate(([start], delays[:need])))[1:]
        inside = np.searchsorted(tl.away, t, "right") & 1
        stop = np.flatnonzero((t > horizon) | (inside == 1))
        if not len(stop):
            active.append(t)
            delays = delays[need:]
            start = t[-1]
            continue
        j = int(stop[0])
        active.append(t[:j])
        if t[j] > horizon:
            break
        # Landed while disconnected: the step is a no-op and the clock
        # restarts at the reconnect that ends this disconnection.
        paused.append(float(t[j]))
        delays = delays[j + 1:]
        start = float(tl.away[np.searchsorted(tl.away, t[j], "right")])
        if start > horizon:
            break
    return np.concatenate(active), paused


def _route(
    sent: float, mss: int, leg: float, horizon: float,
    times: list, state: list, home: list,
):
    """Route one message like :mod:`repro.net.system` does.

    Returns ``(delivery time, release time, buffering times)`` or None
    if the message reaches no inbox by the horizon.  A message that
    never waited in a buffer has release time NaN and no buffering
    times; otherwise the release time is the reconnection that last
    released it and the buffering times run latest first.  Messages
    one reconnection releases arrive together, in buffer order: by
    their latest buffering time, then (for messages buffered again
    together) by the ones before.
    """
    at_mss, buffer_at, deliver = 0, 1, 2
    kind, t = at_mss, sent + leg
    release = float("nan")
    history: tuple = ()
    while t <= horizon:
        i = bisect_right(times, t)
        if i and times[i - 1] == t:
            raise Fallback("tie")
        cur = state[i]
        if kind == at_mss:
            if cur == mss:
                kind, t = deliver, t + leg
                continue
            if cur >= 0:
                mss, t = cur, t + leg
                continue
            if home[i] != mss:
                kind, mss, t = buffer_at, home[i], t + leg
                continue
        elif kind == buffer_at:
            if cur >= 0:
                kind = at_mss
                continue
            if home[i] != mss:
                # Buffered at a cell the destination did not disconnect
                # from: the loop keeps it there until a reconnection
                # into that cell, which these passes do not track.
                raise Fallback("stranded")
        else:
            if cur == mss:
                return t, release, history
            if cur >= 0:
                kind = at_mss
                continue
            mss = home[i]
        # Buffered at ``mss`` until the reconnection ending this
        # disconnection (the destination's next event) releases it.
        history = (t,) + history
        if i == len(times):
            return None
        release = times[i]
        kind, t = deliver, release + leg
    return None


def _inbox(
    tl: _Timeline, sent: np.ndarray, src_cell: np.ndarray, ids: np.ndarray,
    leg: float, horizon: float,
) -> tuple[np.ndarray, np.ndarray]:
    """(arrival times, msg ids) of one host's inbox, in FIFO order."""
    t1 = sent + leg
    first = np.searchsorted(tl.times, t1, "left")
    cur = tl.state[first]
    t_del = np.where(cur == src_cell, t1 + leg, (t1 + leg) + leg)
    straight = (cur >= 0) & (np.searchsorted(tl.times, t_del, "right") == first)
    keep = straight & (t_del <= horizon)
    arrive, msgs = t_del[keep], ids[keep]
    release = np.full(len(arrive), np.nan)
    routed = []
    other = np.flatnonzero(~straight).tolist()
    if other:
        lists = (tl.times.tolist(), tl.state.tolist(), tl.home.tolist())
        for k in other:
            out = _route(float(sent[k]), int(src_cell[k]), leg, horizon, *lists)
            if out is not None:
                routed.append((out[0], out[2], out[1], int(ids[k])))
    if routed:
        routed.sort()
        if any(a[:2] == b[:2] for a, b in zip(routed, routed[1:])):
            raise Fallback("tie")
        r_arrive, _, r_release, r_ids = zip(*routed)
        arrive = np.concatenate((arrive, r_arrive))
        release = np.concatenate((release, r_release))
        msgs = np.concatenate((msgs, np.asarray(r_ids, dtype=INT_DTYPE)))
    # Stable: equal arrivals keep the buffer order sorted above.
    order = np.argsort(arrive, kind="stable")
    arrive, release, msgs = arrive[order], release[order], msgs[order]
    # Arrivals at one instant are ordered only if one reconnection
    # released them all (NaN, never released, compares unequal).
    same = arrive[1:] == arrive[:-1]
    if np.any(same & (release[1:] != release[:-1])):
        raise Fallback("tie")
    return arrive, msgs


def generate_columns(config: WorkloadConfig) -> ArrayColumns:
    """The trace columns ``_Driver(config).run()`` produces.

    *config* must be eligible (:func:`ineligible_reason` returns
    None).  Raises :class:`Fallback` where the loop's heap order would
    decide the outcome.
    """
    config.validate()
    NetworkParams(
        n_hosts=config.n_hosts, n_mss=config.n_mss,
        leg_latency=config.leg_latency,
    ).validate()
    model = PaperMobilityModel(
        residence_means(
            config.n_hosts, config.t_switch, config.heterogeneity,
            config.fast_factor,
        ),
        p_switch=config.p_switch,
        disconnect_mean=config.disconnect_mean,
        disconnect_residence_divisor=config.disconnect_residence_divisor,
    )
    n = config.n_hosts
    horizon = float(config.sim_time)
    leg = config.leg_latency
    rng = RandomStreams(config.seed)
    lines = [_mobility(rng, h, model, config.n_mss, horizon) for h in range(n)]

    # -- operation clocks and send/receive coins -------------------------
    send_t, send_cell, recv_t, instants = [], [], [], []
    for h, tl in enumerate(lines):
        steps, paused = _steps(rng, h, config.internal_mean, tl, horizon)
        is_send = rng.take_uniform(f"app/op/{h}", len(steps)) < config.p_send
        sends = steps[is_send]
        send_t.append(sends)
        send_cell.append(tl.state[np.searchsorted(tl.times, sends, "right")])
        recv_t.append(steps[~is_send])
        instants.extend((tl.times, steps, paused))
    # Every row and every step that reads another host's state is one
    # of these instants; the loop orders equal ones by heap sequence.
    instants = np.sort(np.concatenate(instants))
    if np.any(instants[1:] == instants[:-1]):
        raise Fallback("tie")

    # -- destinations ----------------------------------------------------
    # Sends in time order (no two share an instant, checked above); a
    # host's own sends keep their order, so its draws do too.
    s_time = np.concatenate(send_t)
    order = np.argsort(s_time)
    s_time = s_time[order]
    s_src = np.repeat(np.arange(n, dtype=INT_DTYPE), [len(t) for t in send_t])[order]
    s_cell = np.concatenate(send_cell)[order]
    n_all = len(s_time)
    if config.send_to_connected_only:
        # excluded[g, i]: host g is no candidate for send i (the sender
        # itself, or disconnected at the send)
        excluded = np.zeros((n, n_all), dtype=bool)
        for g, tl in enumerate(lines):
            span = np.searchsorted(s_time, tl.away).tolist()
            for a, b in zip(span[::2], span[1::2]):
                excluded[g, a:b] = True
        excluded[s_src, np.arange(n_all)] = True
        bound = n - excluded.sum(axis=0)
    else:
        bound = np.full(n_all, n - 1)
    live = bound > 0
    s_dst = np.zeros(n_all, dtype=INT_DTYPE)
    for h in range(n):
        mine = np.flatnonzero((s_src == h) & live)
        s_dst[mine] = rng.take_choice_indices(f"app/dst/{h}", bound[mine])
    # The drawn index counts candidates in ascending host order: step
    # it past every excluded host at or below it (choice_other's rule).
    if config.send_to_connected_only:
        for g in range(n):
            s_dst += excluded[g] & (g <= s_dst)
    else:
        s_dst += s_dst >= s_src
    s_time, s_src, s_dst, s_cell = (
        s_time[live], s_src[live], s_dst[live], s_cell[live]
    )
    n_sends = len(s_time)
    s_ids = np.arange(n_sends, dtype=INT_DTYPE)

    # -- delivery and receives -----------------------------------------
    r_time, r_host, r_ids = [], [], []
    for h, tl in enumerate(lines):
        to_h = s_dst == h
        arrive, msgs = _inbox(
            tl, s_time[to_h], s_cell[to_h], s_ids[to_h], leg, horizon
        )
        receives = recv_t[h]
        arrived = np.searchsorted(arrive, receives, "left")
        if np.any(arrived != np.searchsorted(arrive, receives, "right")):
            raise Fallback("tie")
        k = np.arange(1, len(receives) + 1)
        consumed = k + np.minimum(0, np.minimum.accumulate(arrived - k))
        took = np.diff(consumed, prepend=0) > 0
        r_time.append(receives[took])
        r_host.append(np.full(int(took.sum()), h, dtype=INT_DTYPE))
        r_ids.append(msgs[consumed[took] - 1])
    r_time = np.concatenate(r_time)
    r_ids = np.concatenate(r_ids).astype(INT_DTYPE, copy=False)
    n_receives = len(r_time)

    # -- rows in time order ----------------------------------------------
    m_rows = len(s_time) + n_receives + sum(len(tl.times) for tl in lines)
    none = np.full(m_rows, -1, dtype=INT_DTYPE)
    etype = np.concatenate(
        [np.full(n_sends, SEND), np.full(n_receives, RECEIVE)]
        + [tl.etype for tl in lines]
    ).astype(INT_DTYPE, copy=False)
    time = np.concatenate([s_time, r_time] + [tl.times for tl in lines])
    host = np.concatenate(
        [s_src, np.concatenate(r_host)]
        + [np.full(len(tl.times), h, dtype=INT_DTYPE) for h, tl in enumerate(lines)]
    )
    msg_id = np.concatenate((s_ids, r_ids, none[n_sends + n_receives:]))
    peer = np.concatenate(
        [s_dst, s_src[r_ids]] + [tl.peer for tl in lines]
    ).astype(INT_DTYPE, copy=False)
    cell = np.concatenate(
        [none[: n_sends + n_receives]] + [tl.state[1:] for tl in lines]
    ).astype(INT_DTYPE, copy=False)
    order = np.argsort(time)  # no two rows share an instant
    return ArrayColumns(
        n_hosts=n,
        n_mss=config.n_mss,
        sim_time=config.sim_time,
        n_events=m_rows,
        n_sends=n_sends,
        n_receives=n_receives,
        etype=etype[order],
        time=time[order].astype(FLOAT_DTYPE, copy=False),
        host=host[order],
        msg_id=msg_id[order],
        peer=peer[order],
        cell=cell[order],
        slot=msg_id[order],
    )
