"""Execution tests: the replay passes and the online simulation behind
the one run path, ``execute``."""

import pytest

from repro.engine import RunSpec, execute
from repro.testing import loop_factories
from repro.workload import WorkloadConfig, generate_trace


def cfg(**kw):
    defaults = dict(sim_time=500.0, p_switch=0.8, seed=0)
    defaults.update(kw)
    return WorkloadConfig(**defaults)


def test_execute_returns_uniform_result_shape():
    result = execute(RunSpec(protocols=("TP", "BCS"), workload=cfg()))
    assert result.engine_kind == "vectorized"
    assert [o.name for o in result.outcomes] == ["TP", "BCS"]
    assert result.trace is not None
    assert result.trace_source == "uncached"
    assert result.seed == 0
    assert result.wall_time_s > 0.0
    assert result.outcome("BCS").n_total > 0
    with pytest.raises(KeyError):
        result.outcome("QBC")
    assert set(result.metrics) == {"TP", "BCS"}


def test_prebuilt_trace_is_reported_as_provided():
    trace = generate_trace(cfg())
    result = execute(RunSpec(protocols=("BCS",), trace=trace))
    assert result.trace is trace
    assert result.trace_source == "provided"
    assert result.seed == trace.meta.get("seed")


@pytest.mark.parametrize("source", ["workload", "trace"])
@pytest.mark.parametrize("engine", ["reference", "fused", "vectorized"])
def test_spec_seed_overrides_workload_seed(engine, source):
    # A pre-built trace carries its own seed in meta; the spec's seed
    # wins over it as it does over the workload's.
    if source == "workload":
        inputs = {"workload": cfg(seed=3)}
    else:
        inputs = {"trace": generate_trace(cfg(seed=3))}
    if engine == "fused":
        # Kernels hidden, so the fused request runs the per-event loop.
        inputs["factories"] = loop_factories(("TP", "BCS", "QBC"))
    result = execute(
        RunSpec(
            protocols=("TP", "BCS", "QBC"), engine=engine, seed=9, **inputs
        )
    )
    assert result.engine_kind == engine
    assert result.seed == 9
    assert [o.metrics.seed for o in result.outcomes] == [9, 9, 9]


def test_cache_tiers_are_detected(tmp_path):
    from pathlib import Path

    from repro.workload import cache as cache_mod

    spec = RunSpec(
        protocols=("BCS",),
        workload=cfg(),
        use_cache=True,
        cache_dir=str(tmp_path),
    )
    resolved = str(Path(str(tmp_path)).resolve())
    try:
        assert execute(spec).trace_source == "generated"
        assert execute(spec).trace_source == "memory"
        # Drop the in-memory instance: a fresh cache over the same disk
        # tier must serve the trace from disk.
        cache_mod._shared.pop(resolved, None)
        assert execute(spec).trace_source == "disk"
    finally:
        cache_mod._shared.pop(resolved, None)


def test_counters_only_skips_checkpoint_logs():
    full = execute(RunSpec(protocols=("BCS",), workload=cfg()))
    lean = execute(
        RunSpec(protocols=("BCS",), workload=cfg(), counters_only=True)
    )
    # only the constructor-time "initial" records remain: everything
    # taken during the run went counter-only
    full_log = full.outcome("BCS").protocol.checkpoints
    lean_log = lean.outcome("BCS").protocol.checkpoints
    assert any(ck.reason != "initial" for ck in full_log)
    assert all(ck.reason == "initial" for ck in lean_log)
    assert lean.outcome("BCS").n_total == full.outcome("BCS").n_total


def test_online_engine_drives_cic_and_coordinated_together():
    result = execute(
        RunSpec(
            protocols=("BCS", "CL"),
            workload=cfg(),
            engine="online",
            snapshot_interval=100.0,
        )
    )
    assert result.engine_kind == "online"
    assert result.trace_source == "online"
    bcs = result.outcome("BCS")
    assert bcs.online is not None
    assert bcs.metrics is not None
    assert bcs.n_total > 0
    cl = result.outcome("CL")
    assert cl.coordinated is not None
    assert cl.protocol is None and cl.metrics is None
    assert cl.n_total > 0
    # the emitted trace comes from the first online (non-coordinated) run
    assert result.trace is bcs.online.trace


def test_online_engine_propagates_driver_knobs():
    # invalid knobs surface the driver's own validation errors
    with pytest.raises(ValueError, match="ckpt_latency"):
        execute(
            RunSpec(
                protocols=("BCS",),
                workload=cfg(),
                engine="online",
                ckpt_latency=-1.0,
            )
        )
    with pytest.raises(ValueError, match="gc_interval"):
        execute(
            RunSpec(
                protocols=("BCS",),
                workload=cfg(),
                engine="online",
                gc_interval=-5.0,
            )
        )


def test_auto_execution_matches_pinned_engines():
    """execute() on auto must give the same counts as the pinned kinds."""
    trace = generate_trace(cfg())
    auto = execute(RunSpec(protocols=("TP", "QBC"), trace=trace))
    ref = execute(
        RunSpec(protocols=("TP", "QBC"), trace=trace, engine="reference")
    )
    assert auto.engine_kind == "vectorized"
    assert ref.engine_kind == "reference"
    for name in ("TP", "QBC"):
        assert auto.outcome(name).n_total == ref.outcome(name).n_total
