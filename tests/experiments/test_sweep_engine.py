"""Tests for the (point, seed)-granular sweep engine and its trace
cache integration (repro.experiments.runner)."""

from repro.experiments import SweepConfig, run_sweep
from repro.experiments.runner import CSV_FIELDS, RunOutcome
from repro.workload import WorkloadConfig
from repro.workload import driver


def sweep_config(**overrides):
    kw = dict(
        base=WorkloadConfig(p_switch=0.8, sim_time=250.0),
        t_switch_values=(100.0, 800.0),
        seeds=(0, 1),
        workers=0,
    )
    kw.update(overrides)
    return SweepConfig(**kw)


def _counting(monkeypatch):
    """Monkeypatch generate_trace with a call counter."""
    calls = []
    real = driver.generate_trace

    def counted(config):
        calls.append(config)
        return real(config)

    monkeypatch.setattr(driver, "generate_trace", counted)
    return calls


def test_cold_sweep_generates_once_per_point_seed(monkeypatch, tmp_path):
    calls = _counting(monkeypatch)
    cfg = sweep_config(cache_dir=str(tmp_path))
    run_sweep(cfg)
    assert len(calls) == len(cfg.t_switch_values) * len(cfg.seeds)


def test_warm_cache_sweep_generates_nothing(monkeypatch, tmp_path):
    cfg = sweep_config(cache_dir=str(tmp_path))
    cold = run_sweep(cfg)  # populates memory + disk tiers
    calls = _counting(monkeypatch)
    warm = run_sweep(cfg)
    assert calls == []  # every trace served from the cache
    assert [p.runs for p in warm.points] == [p.runs for p in cold.points]


def test_disk_tier_survives_fresh_process_state(monkeypatch, tmp_path):
    """A second run with only the disk tier (fresh in-memory cache)
    still regenerates nothing."""
    from repro.workload import cache as cache_mod

    cfg = sweep_config(cache_dir=str(tmp_path))
    cold = run_sweep(cfg)
    # Simulate a new process: drop the per-process shared cache registry.
    monkeypatch.setattr(cache_mod, "_shared", {})
    calls = _counting(monkeypatch)
    warm = run_sweep(cfg)
    assert calls == []
    assert [p.runs for p in warm.points] == [p.runs for p in cold.points]


def _grid(n_seeds, **overrides):
    """A sweep of 4 points x *n_seeds* cells."""
    return sweep_config(
        base=WorkloadConfig(p_switch=0.8, sim_time=100.0),
        t_switch_values=(100.0, 200.0, 400.0, 800.0),
        seeds=tuple(range(n_seeds)),
        **overrides,
    )


def _sources(result):
    return {r.trace_source for r in result.telemetry}


def test_grid_larger_than_memory_tier_keeps_no_trace(monkeypatch, tmp_path):
    """20 cells outgrow the 16-entry memory tier: the sweep keeps none
    of its traces in memory, and a re-run is served by the disk tier."""
    from repro.workload import cache as cache_mod

    monkeypatch.setattr(cache_mod, "_shared", {})
    cfg = _grid(5, cache_dir=str(tmp_path))
    cold = run_sweep(cfg)
    assert _sources(cold) == {"generated"}
    assert len(cache_mod.shared_cache(str(tmp_path))) == 0
    warm = run_sweep(cfg)
    assert _sources(warm) == {"disk"}
    assert len(cache_mod.shared_cache(str(tmp_path))) == 0
    assert [p.runs for p in warm.points] == [p.runs for p in cold.points]


def test_grid_larger_than_memory_tier_without_disk_regenerates(monkeypatch):
    from repro.workload import cache as cache_mod

    monkeypatch.delenv(cache_mod.CACHE_DIR_ENV, raising=False)
    monkeypatch.setattr(cache_mod, "_shared", {})
    cfg = _grid(5)
    run_sweep(cfg)
    assert _sources(run_sweep(cfg)) == {"generated"}
    assert len(cache_mod.shared_cache()) == 0


def test_grid_that_fits_the_memory_tier_is_served_from_it(
    monkeypatch, tmp_path
):
    from repro.workload import cache as cache_mod

    monkeypatch.setattr(cache_mod, "_shared", {})
    cfg = _grid(4, cache_dir=str(tmp_path))
    assert len(cfg.t_switch_values) * len(cfg.seeds) == (
        cache_mod.DEFAULT_MAX_ENTRIES
    )
    run_sweep(cfg)
    assert _sources(run_sweep(cfg)) == {"memory"}
    assert len(cache_mod.shared_cache(str(tmp_path))) == 16


def test_no_cache_regenerates_every_run(monkeypatch):
    cfg = sweep_config(use_cache=False, base=WorkloadConfig(sim_time=240.0))
    calls = _counting(monkeypatch)
    run_sweep(cfg)
    run_sweep(cfg)
    assert len(calls) == 2 * len(cfg.t_switch_values) * len(cfg.seeds)


def test_reassembly_is_deterministic():
    """Points follow config order; runs are seed-major then protocol."""
    cfg = sweep_config(use_cache=False)
    result = run_sweep(cfg)
    assert [p.t_switch for p in result.points] == list(cfg.t_switch_values)
    expected = [
        (seed, name) for seed in cfg.seeds for name in cfg.protocols
    ]
    for point in result.points:
        assert [(r.seed, r.protocol) for r in point.runs] == expected


def test_parallel_point_seed_tasks_match_serial(tmp_path):
    base = WorkloadConfig(p_switch=0.9, sim_time=300.0)
    serial = run_sweep(
        sweep_config(base=base, cache_dir=str(tmp_path), workers=0)
    )
    pooled = run_sweep(
        sweep_config(base=base, cache_dir=str(tmp_path), workers=2)
    )
    assert [p.runs for p in pooled.points] == [p.runs for p in serial.points]


def test_run_outcome_as_row_matches_csv_fields():
    outcome = RunOutcome(
        seed=3, protocol="BCS", n_total=10, n_basic=4, n_forced=6,
        n_replaced=0, n_sends=20, piggyback_ints=20,
    )
    row = outcome.as_row(t_switch=500.0)
    assert tuple(row) == CSV_FIELDS
    assert row["t_switch"] == 500.0 and row["protocol"] == "BCS"
