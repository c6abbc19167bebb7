"""Tests for the experiment harness (repro.experiments)."""

from dataclasses import replace

import pytest

from repro.experiments import (
    FIGURE_PARAMS,
    SweepConfig,
    figure_report,
    gains_table,
    points_table,
    run_figure,
    run_sweep,
    validate_figure,
    validate_paper_claims,
)
from repro.experiments.figures import figure_sweep_config
from repro.workload import WorkloadConfig

#: Small, fast sweep shared by the tests below.
FAST = dict(sim_time=1200.0, seeds=(0, 1), t_switch_values=(100.0, 2000.0))


def small_sweep_config(**overrides):
    base = WorkloadConfig(
        p_send=0.4, p_switch=0.8, sim_time=FAST["sim_time"]
    )
    kw = dict(
        base=base,
        t_switch_values=FAST["t_switch_values"],
        seeds=FAST["seeds"],
    )
    kw.update(overrides)
    return SweepConfig(**kw)


def test_sweep_config_validation():
    with pytest.raises(ValueError, match="unknown protocols"):
        small_sweep_config(protocols=("NOPE",)).validate()
    with pytest.raises(ValueError, match="t_switch"):
        small_sweep_config(t_switch_values=()).validate()
    with pytest.raises(ValueError, match="seed"):
        small_sweep_config(seeds=()).validate()


def _point(config, t_switch):
    """The one point of *config* narrowed to ``t_switch``."""
    return run_sweep(replace(config, t_switch_values=(t_switch,))).points[0]


def test_run_point_covers_all_protocols_and_seeds():
    cfg = small_sweep_config()
    point = _point(cfg, 100.0)
    assert len(point.runs) == len(cfg.protocols) * len(cfg.seeds)
    for name in cfg.protocols:
        assert len(point.totals(name)) == len(cfg.seeds)
        assert point.mean_total(name) > 0


def test_point_basic_counts_identical_across_protocols():
    """All protocols replay the same trace: the trace-mandated basic
    checkpoints must agree exactly per seed."""
    point = _point(small_sweep_config(), 200.0)
    by_seed = {}
    for run in point.runs:
        by_seed.setdefault(run.seed, set()).add(run.n_basic)
    for seed, basics in by_seed.items():
        assert len(basics) == 1, f"seed {seed} basics differ: {basics}"


def test_run_sweep_serial():
    result = run_sweep(small_sweep_config())
    assert [p.t_switch for p in result.points] == list(FAST["t_switch_values"])
    curve = result.curve("BCS")
    assert len(curve) == 2


def test_sweep_shape_tp_worst():
    result = run_sweep(small_sweep_config())
    for point in result.points:
        assert point.mean_total("TP") > point.mean_total("BCS")
        assert point.mean_total("QBC") <= point.mean_total("BCS")


def test_figure_params_cover_paper():
    assert FIGURE_PARAMS == {
        1: (1.0, 0.0),
        2: (0.8, 0.0),
        3: (1.0, 0.5),
        4: (0.8, 0.5),
        5: (1.0, 0.3),
        6: (0.8, 0.3),
    }


def test_figure_sweep_config_rejects_unknown_figure():
    with pytest.raises(ValueError):
        figure_sweep_config(9, sim_time=100.0)


def test_run_figure_and_reports():
    result = run_figure(1, sim_time=800.0, seeds=(0,), t_switch_values=(100.0, 1000.0))
    table = points_table(result)
    assert "T_switch" in table and "TP" in table
    gains = gains_table(result)
    assert "QBC vs BCS" in gains
    report = figure_report(result, figure=1)
    assert "Figure 1" in report and "N_tot vs T_switch" in report


def test_validation_passes_on_reasonable_sweep():
    result = run_figure(
        2, sim_time=2500.0, seeds=(0, 1), t_switch_values=(100.0, 1000.0, 5000.0)
    )
    # At this short horizon, heavy disconnection phases (away ~1000 time
    # units out of 2500) make seed variance genuinely large; the
    # paper-scale bench checks the paper's 4% agreement at sim_time 1e5.
    report = validate_figure(result, spread_tolerance=0.5)
    assert report.ok, f"unexpected failures:\n{report}"


def test_validate_paper_claims_cross_figure():
    no_disc = run_figure(1, sim_time=2000.0, seeds=(0, 1), t_switch_values=(2000.0,))
    with_disc = run_figure(2, sim_time=2000.0, seeds=(0, 1), t_switch_values=(2000.0,))
    report = validate_paper_claims(no_disc, with_disc)
    # gains are noisy at this horizon; the report must at least execute
    # and contain exactly one cross-figure check
    assert len(report.passed) + len(report.failed) == 1


def test_run_sweep_with_process_pool_matches_serial():
    cfg_serial = small_sweep_config(
        base=WorkloadConfig(p_send=0.4, p_switch=0.9, sim_time=400.0),
        t_switch_values=(100.0, 500.0),
        seeds=(0,),
    )
    cfg_pool = small_sweep_config(
        base=WorkloadConfig(p_send=0.4, p_switch=0.9, sim_time=400.0),
        t_switch_values=(100.0, 500.0),
        seeds=(0,),
        workers=2,
    )
    serial = run_sweep(cfg_serial)
    pooled = run_sweep(cfg_pool)
    for name in ("TP", "BCS", "QBC"):
        assert serial.curve(name) == pooled.curve(name)


def test_validation_reports_failures_when_protocols_missing():
    cfg = small_sweep_config(protocols=("BCS",))
    result = run_sweep(cfg)
    report = validate_figure(result)
    assert not report.ok
