"""The column validator of trace files (repro.core.trace_io.validate_columns)
against the event loop it replaces on load (Trace.validate)."""

import re
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core import trace_io
from repro.core.compiled import ArrayColumns, array_columns
from repro.core.trace import EventType, Trace, TraceError, TraceEvent
from repro.core.trace_io import load_trace, save_trace, validate_columns
from repro.experiments.figures import FIGURE_PARAMS
from repro.testing.strategies import traces
from repro.workload import WorkloadConfig, generate_trace

S, R, SW, D, U, I = (
    EventType.SEND,
    EventType.RECEIVE,
    EventType.CELL_SWITCH,
    EventType.DISCONNECT,
    EventType.RECONNECT,
    EventType.INTERNAL,
)


def _columns(n_hosts, n_mss, events):
    """The ArrayColumns of an (unvalidated) event list.

    Slots follow the compiler's rule as far as the events allow: a
    SEND's ordinal among sends, a RECEIVE's first matching send, -1
    otherwise -- so a defect in the events is the only defect here.
    """
    first_send, slots, n_sends = {}, [], 0
    for ev in events:
        if ev.etype is EventType.SEND:
            first_send.setdefault(ev.msg_id, n_sends)
            slots.append(n_sends)
            n_sends += 1
        elif ev.etype is EventType.RECEIVE:
            slots.append(first_send.get(ev.msg_id, -1))
        else:
            slots.append(-1)

    def col(name, dtype="int64"):
        return np.array([getattr(ev, name) for ev in events], dtype=dtype)

    return ArrayColumns(
        n_hosts=n_hosts,
        n_mss=n_mss,
        sim_time=10.0,
        n_events=len(events),
        n_sends=n_sends,
        n_receives=sum(ev.etype is EventType.RECEIVE for ev in events),
        etype=col("etype"),
        time=col("time", "float64"),
        host=col("host"),
        msg_id=col("msg_id"),
        peer=col("peer"),
        cell=col("cell"),
        slot=np.array(slots, dtype="int64"),
    )


def _loop_verdict(n_hosts, n_mss, events):
    try:
        Trace(n_hosts=n_hosts, n_mss=n_mss, events=list(events)).validate()
    except TraceError as exc:
        return str(exc)
    return None


def _column_verdict(cols):
    try:
        validate_columns(cols)
    except TraceError as exc:
        return str(exc)
    return None


def _ev(t, etype, host, msg_id=-1, peer=-1, cell=-1):
    return TraceEvent(float(t), etype, host, msg_id, peer, cell)


#: One trace per defect Trace.validate rejects (2 hosts, 2 cells).
DEFECTS = {
    "out of order": [_ev(2, S, 0, 1, 1), _ev(1, R, 1, 1, 0)],
    "negative host": [_ev(1, I, -1)],
    "host too large": [_ev(1, S, 0, 1, 1), _ev(2, D, 2)],
    "disconnected send": [_ev(1, D, 0), _ev(2, S, 0, 1, 1)],
    "disconnected receive": [_ev(1, S, 0, 1, 1), _ev(2, D, 1), _ev(3, R, 1, 1, 0)],
    "disconnected switch": [_ev(1, D, 1), _ev(2, SW, 1, -1, 0, 1)],
    "double disconnect": [_ev(1, D, 0), _ev(2, D, 0)],
    "reconnect while connected": [_ev(1, U, 0, cell=1)],
    "reconnect twice": [_ev(1, D, 0), _ev(2, U, 0, cell=0), _ev(3, U, 0, cell=0)],
    "duplicate send": [_ev(1, S, 0, 1, 1), _ev(2, R, 1, 1, 0), _ev(3, S, 0, 1, 1)],
    "never sent": [_ev(1, R, 1, 4, 0)],
    "received before sent": [_ev(1, R, 1, 4, 0), _ev(2, S, 0, 4, 1)],
    "consumed twice": [_ev(1, S, 0, 1, 1), _ev(2, R, 1, 1, 0), _ev(3, R, 1, 1, 0)],
    "wrong receiver": [_ev(1, S, 0, 1, 1), _ev(2, R, 0, 1, 0)],
    "switch to negative cell": [_ev(1, SW, 0, -1, 0, -1)],
    "switch to unknown cell": [_ev(1, SW, 0, -1, 0, 2)],
    # The first defect wins, in time order and then in the loop's
    # check order for one event.
    "first of two": [_ev(1, D, 0), _ev(2, R, 1, 9, 0), _ev(3, S, 0, 1, 1)],
    "order before host": [_ev(2, I, 0), _ev(1, I, 5)],
}


@pytest.mark.parametrize("name", DEFECTS)
def test_column_validator_rejects_what_the_loop_rejects(name, tmp_path):
    events = DEFECTS[name]
    expected = _loop_verdict(2, 2, events)
    assert expected is not None
    cols = _columns(2, 2, events)
    assert _column_verdict(cols) == expected
    # The same defect in a file fails the default load.
    path = tmp_path / "bad.npz"
    save_trace(Trace.from_columns(cols, {}), path)
    with pytest.raises(TraceError, match="^" + re.escape(expected)):
        load_trace(path)
    assert len(load_trace(path, validate=False, verify=True)) == len(events)


def test_column_validator_rejects_slots_the_engines_cannot_replay():
    good = [_ev(1, S, 0, 1, 1), _ev(2, S, 1, 2, 0), _ev(3, R, 1, 1, 0)]
    cols = _columns(2, 2, good)
    validate_columns(cols)
    swapped = cols.slot.copy()
    swapped[[0, 1]] = swapped[[1, 0]]
    with pytest.raises(TraceError, match="slot column"):
        validate_columns(replace(cols, slot=swapped))
    with pytest.raises(TraceError, match="header counts"):
        validate_columns(replace(cols, n_sends=3))
    with pytest.raises(TraceError, match="header counts"):
        validate_columns(replace(cols, n_receives=0))


def test_empty_columns_validate():
    validate_columns(_columns(2, 2, []))


@settings(max_examples=60, deadline=None)
@given(trace=traces(max_ops=60))
def test_both_validators_accept_strategy_traces(trace):
    assert trace.validate() is trace
    validate_columns(array_columns(trace))


@pytest.mark.parametrize("figure", sorted(FIGURE_PARAMS))
def test_both_validators_accept_figure_traces(figure):
    p_switch, heterogeneity = FIGURE_PARAMS[figure]
    for t_switch in (100.0, 10_000.0):
        trace = generate_trace(
            WorkloadConfig(
                sim_time=600.0,
                seed=figure,
                t_switch=t_switch,
                p_switch=p_switch,
                heterogeneity=heterogeneity,
            )
        )
        validate_columns(array_columns(trace))
        assert "events" not in vars(trace)
        assert trace.validate() is trace


_FIELDS = ("time", "etype", "host", "msg_id", "peer", "cell")


@st.composite
def _damaged(draw):
    """A valid strategy trace with a few fields overwritten or an event
    dropped: usually invalid, sometimes still fine."""
    trace = draw(traces(max_ops=40))
    events = list(trace.events)
    for _ in range(draw(st.integers(1, 3))):
        i = draw(st.integers(0, len(events) - 1))
        name = draw(st.sampled_from(_FIELDS))
        value = {
            "time": st.floats(-1.0, len(events) + 2.0),
            "etype": st.sampled_from(list(EventType)),
            "host": st.integers(-1, trace.n_hosts),
            "msg_id": st.sampled_from([ev.msg_id for ev in events] + [99]),
            "peer": st.integers(-1, trace.n_hosts),
            "cell": st.integers(-1, trace.n_mss),
        }[name]
        events[i] = replace(events[i], **{name: draw(value)})
    if len(events) > 1 and draw(st.booleans()):
        del events[draw(st.integers(0, len(events) - 1))]
    return trace.n_hosts, trace.n_mss, events


@settings(
    max_examples=300,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(case=_damaged())
def test_column_validator_agrees_with_the_loop_on_damaged_traces(case):
    n_hosts, n_mss, events = case
    assert _column_verdict(_columns(n_hosts, n_mss, events)) == _loop_verdict(
        n_hosts, n_mss, events
    )


def test_default_load_validates_from_the_columns(tmp_path, monkeypatch):
    trace = generate_trace(
        WorkloadConfig(sim_time=500.0, seed=1, t_switch=100.0, p_switch=0.8)
    )
    path = tmp_path / "t.npz"
    save_trace(trace, path)

    def forbidden(*args, **kwargs):
        raise AssertionError("validation built a TraceEvent")

    monkeypatch.setattr(trace_io, "TraceEvent", forbidden)
    loaded = load_trace(path)
    assert "events" not in vars(loaded)
    assert len(loaded) == len(trace)
    monkeypatch.undo()
    assert loaded == trace
