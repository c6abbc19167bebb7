"""The columnar generator is the event loop, byte for byte.

``generate_trace`` computes eligible paper-model configs with the numpy
passes of :mod:`repro.workload.columnar` and runs the event loop for
everything else.  These tests hold the two paths to one output: the
seven ``array_columns`` arrays and the send/receive counts of
``generate_trace(cfg)`` must equal those of the loop itself,
``_Driver(cfg).run()``, whichever path ``generate_trace`` took.
"""

import numpy as np
import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from repro.core.compiled import array_columns
from repro.des.rng import RandomStreams
from repro.obs.metrics import registry
from repro.workload import columnar
from repro.workload.config import WorkloadConfig
from repro.workload.driver import _Driver, generate_trace

_COLUMNS = ("etype", "time", "host", "msg_id", "peer", "cell", "slot")


def assert_same_trace(a, b) -> None:
    ca, cb = array_columns(a), array_columns(b)
    for name in _COLUMNS:
        x, y = getattr(ca, name), getattr(cb, name)
        assert x.dtype == y.dtype, name
        assert x.tobytes() == y.tobytes(), name
    assert (ca.n_sends, ca.n_receives) == (cb.n_sends, cb.n_receives)
    assert a.meta == b.meta
    assert (a.n_hosts, a.n_mss, a.sim_time) == (b.n_hosts, b.n_mss, b.sim_time)


def path_count(path: str, reason: str) -> float:
    return registry().counter(
        "repro_trace_generate_total", path=path, reason=reason
    ).value


def generated(cfg: WorkloadConfig):
    """``generate_trace(cfg)`` and the (path, reason) it counted."""
    before = {
        key: path_count(*key)
        for key in [("columnar", "eligible")]
        + [("loop", r) for r in ("tie", "stranded", "model",
                                 "cell_chooser", "duplicates",
                                 "blocking_receive")]
    }
    trace = generate_trace(cfg)
    moved = [key for key, n in before.items() if path_count(*key) != n]
    assert len(moved) == 1, moved
    return trace, moved[0]


@settings(max_examples=200, deadline=None)
@given(
    t_switch=st.one_of(
        st.sampled_from([100.0, 1000.0, 10000.0]), st.floats(1.0, 5000.0)
    ),
    p_switch=st.one_of(st.sampled_from([0.0, 0.8, 1.0]), st.floats(0.0, 1.0)),
    heterogeneity=st.one_of(
        st.sampled_from([0.0, 0.3, 0.5]), st.floats(0.0, 1.0)
    ),
    fast_factor=st.floats(1.0, 20.0),
    n_hosts=st.integers(2, 12),
    n_mss=st.integers(2, 6),
    sim_time=st.floats(20.0, 500.0),
    leg_latency=st.one_of(st.just(0.01), st.floats(0.001, 2.0)),
    send_to_connected_only=st.booleans(),
    p_send=st.one_of(st.just(0.4), st.floats(0.0, 1.0)),
    disconnect_mean=st.sampled_from([1000.0, 50.0, 5.0]),
    seed=st.integers(0, 2**31 - 1),
)
def test_generate_trace_equals_the_event_loop(**params):
    cfg = WorkloadConfig(**params).validate()
    trace, (path, reason) = generated(cfg)
    event(f"{path}:{reason}")
    assert_same_trace(trace, _Driver(cfg).run())


#: The golden-pin configs of the paper model, the figure corners and
#: the ablations the equivalence sweep only samples.
COLUMNAR = {
    "paper-seed0": dict(sim_time=400.0, seed=0),
    "fig1-t100": dict(sim_time=2000.0, t_switch=100.0, seed=1),
    "fig6-t100": dict(
        sim_time=2000.0, t_switch=100.0, p_switch=0.8, heterogeneity=0.3
    ),
    "fig4-t10000": dict(
        sim_time=2000.0, t_switch=10000.0, p_switch=0.8, heterogeneity=0.5,
        seed=2,
    ),
    "all-destinations": dict(
        sim_time=600.0, send_to_connected_only=False, t_switch=25.0,
        p_switch=0.6, seed=3,
    ),
    "slow-legs": dict(
        sim_time=600.0, t_switch=5.0, p_switch=0.5, leg_latency=0.7,
        send_to_connected_only=False, disconnect_mean=30.0, seed=4,
    ),
    "fast-ops": dict(
        sim_time=300.0, internal_mean=0.2, p_send=0.7, n_hosts=4, n_mss=2,
        t_switch=30.0, p_switch=0.6, disconnect_mean=40.0, seed=5,
    ),
}


@pytest.mark.parametrize("name", sorted(COLUMNAR))
def test_eligible_configs_take_the_columnar_path(name):
    cfg = WorkloadConfig(**COLUMNAR[name]).validate()
    trace, path = generated(cfg)
    assert path == ("columnar", "eligible")
    assert_same_trace(trace, _Driver(cfg).run())


def test_zero_latency_release_is_a_tie_and_takes_the_loop():
    """With zero-latency legs a reconnection's buffered messages reach
    the host at the reconnection's own instant; the loop runs them
    after it by heap sequence, so the passes hand the config back."""
    cfg = WorkloadConfig(
        sim_time=300.0, leg_latency=0.0, send_to_connected_only=False,
        t_switch=20.0, p_switch=0.5, disconnect_mean=20.0,
    ).validate()
    with pytest.raises(columnar.Fallback) as info:
        columnar.generate_columns(cfg)
    assert info.value.reason == "tie"
    trace, path = generated(cfg)
    assert path == ("loop", "tie")
    assert_same_trace(trace, _Driver(cfg).run())


def test_stranded_buffering_takes_the_loop():
    """Two-unit legs and five-unit disconnections: a message wired to
    its destination's old cell arrives after the host reconnected,
    moved and disconnected again, and the loop buffers it at a cell the
    host did not leave from.  The passes do not follow it there."""
    cfg = WorkloadConfig(
        sim_time=200.0, t_switch=3.0, p_switch=0.8, heterogeneity=0.3,
        fast_factor=5.0, n_hosts=5, leg_latency=2.0, disconnect_mean=5.0,
        seed=872,
    ).validate()
    with pytest.raises(columnar.Fallback) as info:
        columnar.generate_columns(cfg)
    assert info.value.reason == "stranded"
    trace, path = generated(cfg)
    assert path == ("loop", "stranded")
    assert_same_trace(trace, _Driver(cfg).run())


class _UnitDelays:
    """A generator whose exponential draws are all exactly 1.0."""

    def __init__(self, gen):
        self._gen = gen

    def exponential(self, scale, size):
        return np.ones(size)

    def __getattr__(self, name):
        return getattr(self._gen, name)


def test_simultaneous_steps_take_the_loop(monkeypatch):
    """Every host steps at 1, 2, 3, ...: which one's send comes first
    (and gets the lower msg id) is the loop's scheduling order."""
    real = RandomStreams.stream
    monkeypatch.setattr(
        RandomStreams, "stream", lambda self, name: _UnitDelays(real(self, name))
    )
    cfg = WorkloadConfig(sim_time=50.0, t_switch=7.5).validate()
    with pytest.raises(columnar.Fallback):
        columnar.generate_columns(cfg)
    trace, path = generated(cfg)
    assert path == ("loop", "tie")
    assert_same_trace(trace, _Driver(cfg).run())


@pytest.mark.parametrize(
    "changes, reason",
    [
        (dict(block_on_empty_receive=True, p_send=0.7), "blocking_receive"),
        (dict(duplicate_prob=0.2), "duplicates"),
        (dict(cell_chooser="graph"), "cell_chooser"),
        (dict(workload="zipf", workload_params={"alpha": 1.1}), "model"),
        (dict(workload="daynight"), "model"),
    ],
)
def test_ineligible_configs_take_the_loop(changes, reason):
    cfg = WorkloadConfig(
        sim_time=300.0, t_switch=40.0, p_switch=0.8, **changes
    ).validate()
    assert columnar.ineligible_reason(cfg) == reason
    trace, path = generated(cfg)
    assert path == ("loop", reason)
    assert_same_trace(trace, _Driver(cfg).run())


def test_invalid_configs_fail_like_the_loop():
    for bad in (
        dict(disconnect_mean=0.0),
        dict(fast_factor=0.5),
        dict(leg_latency=-1.0),
        dict(sim_time=0.0),
    ):
        cfg = WorkloadConfig(**bad)
        with pytest.raises(ValueError) as loop_error:
            _Driver(cfg)
        with pytest.raises(ValueError) as columnar_error:
            generate_trace(cfg)
        assert str(columnar_error.value) == str(loop_error.value)
