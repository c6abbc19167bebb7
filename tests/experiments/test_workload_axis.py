"""The workload sweep axis: folding, shard transport, end-to-end runs."""

from repro.experiments.config import SweepConfig
from repro.experiments.figures import figure_sweep_config, run_figure
from repro.experiments.runner import run_sweep
from repro.workload.config import WorkloadConfig


def test_wire_roundtrip_carries_workload_fields():
    """The shard hello frame ships the validated ``SweepConfig``; the
    folded model name and parameters arrive equal on the far side."""
    import multiprocessing

    from repro.experiments.sharded import recv_frame, send_frame

    cfg = _small_sweep(workload="zipf:alpha=1.1").validate()
    a, b = multiprocessing.Pipe()
    try:
        send_frame(a, {"kind": "hello", "config": cfg})
        back = recv_frame(b)["config"]
    finally:
        a.close()
        b.close()
    assert back == cfg
    assert back.base.workload == "zipf"
    assert back.base.workload_params == {"alpha": 1.1}


def test_figure_sweep_config_threads_workload():
    cfg = figure_sweep_config(
        1, sim_time=100.0, workload="zipf:alpha=1.1", use_cache=False
    )
    assert cfg.base.workload == "zipf"
    assert cfg.base.workload_params == {"alpha": 1.1}
    # Figure parameters are preserved alongside the model swap.
    assert cfg.base.p_send == 0.4 and cfg.base.p_switch == 1.0


def _small_sweep(**kw) -> SweepConfig:
    return SweepConfig(
        base=WorkloadConfig(sim_time=150.0),
        t_switch_values=(100.0, 1000.0),
        seeds=(0, 1),
        use_cache=False,
        progress=False,
        **kw,
    )


def test_sweep_runs_with_workload_axis():
    result = run_sweep(_small_sweep(workload="zipf:alpha=1.2"))
    assert not result.errors and result.complete
    assert result.config.base.workload == "zipf"
    for proto in ("TP", "BCS", "QBC"):
        curve = result.curve(proto)
        assert len(curve) == 2
        assert all(n >= 0 for _, n in curve)


def test_workload_axis_changes_results():
    paper = run_sweep(_small_sweep())
    skewed = run_sweep(_small_sweep(workload="hotspot:bias=0.95,n_hot=1"))
    assert any(
        paper.curve(p) != skewed.curve(p) for p in ("TP", "BCS", "QBC")
    )


def test_run_figure_accepts_workload(tmp_path):
    result = run_figure(
        1,
        sim_time=120.0,
        seeds=(0,),
        t_switch_values=(500.0,),
        workload="daynight:period=60",
        use_cache=False,
        progress=False,
    )
    assert not result.errors
    assert result.config.base.workload == "daynight"


def test_sharded_workload_sweep_is_value_identical_to_serial():
    """The model's name and parameters reach the shard workers: two
    workers on a zipf sweep compute exactly the serial result."""
    serial = run_sweep(_small_sweep(workload="zipf:alpha=1.2"))
    sharded = run_sweep(_small_sweep(workload="zipf:alpha=1.2", workers=2))
    assert sharded.complete and not sharded.errors
    assert [p.runs for p in sharded.points] == [p.runs for p in serial.points]
    paper = run_sweep(_small_sweep())
    assert [p.runs for p in paper.points] != [p.runs for p in serial.points]
