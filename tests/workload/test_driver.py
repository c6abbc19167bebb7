"""Tests for the workload driver (repro.workload.driver)."""

import pytest

from repro.core.trace import EventType
from repro.protocols import BCSProtocol, QBCProtocol
from repro.workload import WorkloadConfig, generate_trace, run_online
from repro.workload.scenarios import figure_config, paper_scenarios


def test_generated_trace_validates():
    cfg = WorkloadConfig(sim_time=500.0, seed=1, t_switch=100.0, p_switch=0.8)
    generate_trace(cfg).validate()


def test_trace_determinism_same_seed():
    cfg = WorkloadConfig(sim_time=400.0, seed=9, t_switch=100.0)
    a, b = generate_trace(cfg), generate_trace(cfg)
    assert len(a) == len(b)
    assert all(
        (x.time, x.etype, x.host, x.msg_id) == (y.time, y.etype, y.host, y.msg_id)
        for x, y in zip(a.events, b.events)
    )


def test_trace_differs_across_seeds():
    base = WorkloadConfig(sim_time=400.0, t_switch=100.0)
    a = generate_trace(base.with_(seed=1))
    b = generate_trace(base.with_(seed=2))
    assert [e.time for e in a.events[:50]] != [e.time for e in b.events[:50]]


def test_event_rate_matches_model():
    """~1 op per time unit per host; P_s of them are sends."""
    cfg = WorkloadConfig(sim_time=2000.0, seed=4, t_switch=1e6, p_send=0.4)
    trace = generate_trace(cfg)
    expected_ops = cfg.sim_time * cfg.n_hosts
    sends = trace.n_sends
    assert 0.4 * expected_ops * 0.85 < sends < 0.4 * expected_ops * 1.15


def test_switch_rate_scales_with_t_switch():
    base = WorkloadConfig(sim_time=3000.0, seed=2, p_switch=1.0)
    fast = generate_trace(base.with_(t_switch=100.0))
    slow = generate_trace(base.with_(t_switch=1000.0))
    assert fast.count(EventType.CELL_SWITCH) > 3 * slow.count(EventType.CELL_SWITCH)


def test_pswitch_one_never_disconnects():
    cfg = WorkloadConfig(sim_time=2000.0, seed=3, t_switch=100.0, p_switch=1.0)
    trace = generate_trace(cfg)
    assert trace.count(EventType.DISCONNECT) == 0


def test_disconnections_present_at_pswitch_below_one():
    cfg = WorkloadConfig(sim_time=3000.0, seed=3, t_switch=100.0, p_switch=0.5)
    trace = generate_trace(cfg)
    assert trace.count(EventType.DISCONNECT) > 0
    assert trace.count(EventType.RECONNECT) <= trace.count(EventType.DISCONNECT)


def test_heterogeneous_hosts_switch_more():
    cfg = WorkloadConfig(
        sim_time=4000.0, seed=5, t_switch=1000.0, p_switch=1.0, heterogeneity=0.5
    )
    trace = generate_trace(cfg)
    fast_switches = sum(
        1
        for e in trace.events
        if e.etype is EventType.CELL_SWITCH and e.host < 5
    )
    slow_switches = trace.count(EventType.CELL_SWITCH) - fast_switches
    assert fast_switches > 3 * slow_switches


def test_no_activity_while_disconnected():
    cfg = WorkloadConfig(sim_time=3000.0, seed=8, t_switch=100.0, p_switch=0.3)
    trace = generate_trace(cfg)
    trace.validate()  # validation covers disconnected sends/receives
    connected = [True] * cfg.n_hosts
    for ev in trace.events:
        if ev.etype is EventType.DISCONNECT:
            connected[ev.host] = False
        elif ev.etype is EventType.RECONNECT:
            connected[ev.host] = True
        elif ev.etype in (EventType.SEND, EventType.RECEIVE, EventType.CELL_SWITCH):
            assert connected[ev.host]


def test_blocking_receive_mode_runs():
    cfg = WorkloadConfig(
        sim_time=500.0,
        seed=1,
        t_switch=100.0,
        p_send=0.6,  # sends dominate: blocking cannot starve everyone
        block_on_empty_receive=True,
    )
    trace = generate_trace(cfg)
    trace.validate()
    assert trace.n_receives > 0


def test_online_with_checkpoint_latency_still_counts_similarly():
    """Paper: non-negligible checkpoint time has no remarkable impact on
    the number of checkpoints."""
    cfg = WorkloadConfig(sim_time=1500.0, seed=6, t_switch=200.0, p_switch=0.8)
    instant = run_online(cfg, BCSProtocol(cfg.n_hosts, cfg.n_mss), ckpt_latency=0.0)
    slow = run_online(cfg, BCSProtocol(cfg.n_hosts, cfg.n_mss), ckpt_latency=0.1)
    assert slow.metrics.n_total == pytest.approx(instant.metrics.n_total, rel=0.25)


def test_online_protocol_host_mismatch():
    cfg = WorkloadConfig(sim_time=100.0)
    with pytest.raises(ValueError, match="sized for"):
        run_online(cfg, QBCProtocol(3))


def test_online_negative_latency_rejected():
    cfg = WorkloadConfig(sim_time=100.0)
    with pytest.raises(ValueError, match="ckpt_latency"):
        run_online(cfg, QBCProtocol(cfg.n_hosts), ckpt_latency=-1.0)


def test_config_validation():
    with pytest.raises(ValueError):
        WorkloadConfig(n_hosts=1).validate()
    with pytest.raises(ValueError):
        WorkloadConfig(p_send=1.2).validate()
    with pytest.raises(ValueError):
        WorkloadConfig(t_switch=0.0).validate()
    with pytest.raises(ValueError):
        WorkloadConfig(sim_time=-5.0).validate()


def test_config_with_does_not_mutate():
    a = WorkloadConfig(t_switch=100.0)
    b = a.with_(t_switch=200.0)
    assert a.t_switch == 100.0 and b.t_switch == 200.0


def test_connected_only_never_targets_disconnected_hosts():
    """Default destination sampling: every send goes to a host that is
    connected at send time."""
    cfg = WorkloadConfig(sim_time=3000.0, seed=7, t_switch=100.0, p_switch=0.5)
    trace = generate_trace(cfg)
    connected = [True] * cfg.n_hosts
    for ev in trace.events:
        if ev.etype is EventType.DISCONNECT:
            connected[ev.host] = False
        elif ev.etype is EventType.RECONNECT:
            connected[ev.host] = True
        elif ev.etype is EventType.SEND:
            assert connected[ev.peer], f"send to disconnected host: {ev}"


def test_any_destination_mode_buffers_for_disconnected():
    cfg = WorkloadConfig(
        sim_time=3000.0,
        seed=7,
        t_switch=100.0,
        p_switch=0.5,
        send_to_connected_only=False,
    )
    trace = generate_trace(cfg)
    trace.validate()
    connected = [True] * cfg.n_hosts
    to_disconnected = 0
    for ev in trace.events:
        if ev.etype is EventType.DISCONNECT:
            connected[ev.host] = False
        elif ev.etype is EventType.RECONNECT:
            connected[ev.host] = True
        elif ev.etype is EventType.SEND and not connected[ev.peer]:
            to_disconnected += 1
    assert to_disconnected > 0  # the ablation really exercises buffering


def test_graph_mobility_workload_runs():
    cfg = WorkloadConfig(
        sim_time=500.0, seed=2, t_switch=50.0, cell_chooser="graph"
    )
    trace = generate_trace(cfg)
    trace.validate()
    assert trace.count(EventType.CELL_SWITCH) > 0


# ---------------------------------------------------------------------------
# scenarios
# ---------------------------------------------------------------------------


def test_figure_config_parameters():
    cfg = figure_config(4, t_switch=500.0, seed=3)
    assert cfg.p_switch == 0.8
    assert cfg.heterogeneity == 0.5
    assert cfg.p_send == 0.4
    assert cfg.seed == 3


def test_figure_config_unknown_figure():
    with pytest.raises(ValueError):
        figure_config(7, t_switch=100.0)


def test_paper_scenarios_cover_six_figures():
    scenarios = paper_scenarios()
    assert sorted(scenarios) == [1, 2, 3, 4, 5, 6]
    assert scenarios[1]["p_switch"] == 1.0
    assert scenarios[6]["heterogeneity"] == 0.3


def test_first_trace_loads_no_numpy_module():
    """numpy loads numpy.random on first use; the first trace a fresh
    process generates must not pay for that load (a sweep's first
    timed cell would), so importing the workload package loads it."""
    import os
    import subprocess
    import sys
    from pathlib import Path

    import repro

    src = str(Path(repro.__file__).resolve().parents[1])
    path = os.environ.get("PYTHONPATH")
    env = {**os.environ, "PYTHONPATH": src + (os.pathsep + path if path else "")}
    code = (
        "import sys; from repro.workload import WorkloadConfig, generate_trace; "
        "before = set(sys.modules); "
        "generate_trace(WorkloadConfig(sim_time=50.0, seed=1)); "
        "print(sorted(m for m in set(sys.modules) - before "
        "if m.split('.')[0] == 'numpy'))"
    )
    out = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        check=True,
        env=env,
        timeout=120,
    )
    assert out.stdout.strip() == "[]"
