"""The workload sweep axis: folding, wire transport, end-to-end runs."""

import pytest

from repro.engine.errors import PlanError
from repro.engine.spec import SPEC_WIRE_VERSION, RunSpec
from repro.experiments.config import SweepConfig
from repro.experiments.figures import figure_sweep_config, run_figure
from repro.experiments.runner import run_sweep
from repro.workload.config import WorkloadConfig


def test_wire_version_is_3():
    # v2 added the workload registry fields to the workload dict; a v1
    # peer silently dropping them would run the wrong model.  v3
    # dropped ``run_id``.
    assert SPEC_WIRE_VERSION == 3


def test_wire_roundtrip_carries_workload_fields():
    cfg = WorkloadConfig(
        sim_time=100.0, workload="zipf", workload_params={"alpha": 1.1}
    )
    spec = RunSpec(protocols=("TP",), workload=cfg, seed=3)
    wire = spec.to_wire()
    assert wire["version"] == SPEC_WIRE_VERSION
    assert wire["workload"]["workload"] == "zipf"
    assert wire["workload"]["workload_params"] == {"alpha": 1.1}
    back = RunSpec.from_wire(wire)
    assert back.workload == cfg
    assert back == spec


def test_wire_refuses_other_versions():
    cfg = WorkloadConfig(sim_time=100.0)
    wire = RunSpec(protocols=("TP",), workload=cfg).to_wire()
    wire["version"] = 1
    with pytest.raises(PlanError, match="wire version 1"):
        RunSpec.from_wire(wire)


def test_wire_survives_json():
    import json

    cfg = WorkloadConfig(
        sim_time=100.0, workload="hotspot", workload_params={"n_hot": 2}
    )
    wire = json.loads(json.dumps(RunSpec(protocols=("TP",), workload=cfg).to_wire()))
    assert RunSpec.from_wire(wire).workload == cfg


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
