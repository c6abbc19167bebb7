"""The paper's six figures as runnable sweep definitions.

Every figure plots ``N_tot`` (total checkpoints over the run) against
the mean cell-residence time ``T_switch`` of the slowest hosts, for TP,
BCS and QBC, with ``P_s = 0.4``:

====== ========== =====
figure  P_switch    H
====== ========== =====
1        1.0        0%
2        0.8        0%
3        1.0       50%
4        0.8       50%
5        1.0       30%
6        0.8       30%
====== ========== =====
"""

from __future__ import annotations

from typing import Optional, Sequence

from repro.experiments.config import DEFAULT_PROTOCOLS, SweepConfig
from repro.experiments.runner import SweepResult, run_sweep
from repro.workload.config import WorkloadConfig
from repro.workload.scenarios import T_SWITCH_SWEEP

#: figure -> (p_switch, heterogeneity)
FIGURE_PARAMS: dict[int, tuple[float, float]] = {
    1: (1.0, 0.0),
    2: (0.8, 0.0),
    3: (1.0, 0.5),
    4: (0.8, 0.5),
    5: (1.0, 0.3),
    6: (0.8, 0.3),
}


def figure_sweep_config(
    figure: int,
    sim_time: float,
    seeds: Sequence[int] = (0, 1, 2),
    t_switch_values: Sequence[float] = T_SWITCH_SWEEP,
    protocols: Sequence[str] = DEFAULT_PROTOCOLS,
    engine: str = "fused",
    workload: Optional[str] = None,
    workers: int = 0,
    use_cache: bool = True,
    cache_dir: Optional[str] = None,
    audit: bool = False,
    task_timeout_s: Optional[float] = None,
    max_task_retries: int = 2,
    journal_path: Optional[str] = None,
    resume_from: Optional[str] = None,
    progress: Optional[bool] = None,
    trace_spans: bool = False,
    trace_path: Optional[str] = None,
    shard_listen: Optional[str] = None,
    shard_size: Optional[int] = None,
    run_id: Optional[str] = None,
    prom_path: Optional[str] = None,
    prom_gateway: Optional[str] = None,
    otlp_path: Optional[str] = None,
    obs_refresh_s: float = 5.0,
    adaptive_shard_size: bool = False,
) -> SweepConfig:
    """Sweep configuration reproducing one paper figure.

    ``sim_time`` is explicit because the paper-scale horizon (1e5) takes
    minutes per sweep in pure Python; benches use a shorter horizon and
    EXPERIMENTS.md records which was used where.

    ``workload`` swaps the figure's traffic/mobility model for a
    registered one (``NAME[:key=value,...]``, e.g. ``"zipf:alpha=1.1"``)
    while keeping the figure's ``P_switch`` / ``H`` parameters -- the
    sensitivity ablation the registry exists for.
    """
    if figure not in FIGURE_PARAMS:
        raise ValueError(f"the paper has figures 1..6, got {figure}")
    p_switch, heterogeneity = FIGURE_PARAMS[figure]
    base = WorkloadConfig(
        p_send=0.4,
        p_switch=p_switch,
        heterogeneity=heterogeneity,
        sim_time=sim_time,
    )
    return SweepConfig(
        base=base,
        t_switch_values=tuple(t_switch_values),
        protocols=tuple(protocols),
        engine=engine,
        workload=workload,
        seeds=tuple(seeds),
        workers=workers,
        use_cache=use_cache,
        cache_dir=cache_dir,
        audit=audit,
        task_timeout_s=task_timeout_s,
        max_task_retries=max_task_retries,
        journal_path=journal_path,
        resume_from=resume_from,
        progress=progress,
        trace_spans=trace_spans,
        trace_path=trace_path,
        shard_listen=shard_listen,
        shard_size=shard_size,
        run_id=run_id,
        prom_path=prom_path,
        prom_gateway=prom_gateway,
        otlp_path=otlp_path,
        obs_refresh_s=obs_refresh_s,
        adaptive_shard_size=adaptive_shard_size,
    ).validate()


def run_figure(
    figure: int,
    sim_time: float = 20_000.0,
    seeds: Sequence[int] = (0, 1, 2),
    t_switch_values: Optional[Sequence[float]] = None,
    engine: str = "fused",
    workload: Optional[str] = None,
    workers: int = 0,
    use_cache: bool = True,
    cache_dir: Optional[str] = None,
    audit: bool = False,
    task_timeout_s: Optional[float] = None,
    max_task_retries: int = 2,
    journal_path: Optional[str] = None,
    resume_from: Optional[str] = None,
    progress: Optional[bool] = None,
    trace_spans: bool = False,
    trace_path: Optional[str] = None,
    shard_listen: Optional[str] = None,
    shard_size: Optional[int] = None,
    run_id: Optional[str] = None,
    prom_path: Optional[str] = None,
    prom_gateway: Optional[str] = None,
    otlp_path: Optional[str] = None,
    obs_refresh_s: float = 5.0,
    adaptive_shard_size: bool = False,
) -> SweepResult:
    """Run one paper figure end to end and return the sweep result.

    ``audit=True`` arms the per-task invariant audit (violations land
    on the result).  ``journal_path`` / ``resume_from`` make the sweep
    crash-safe and resumable (see docs/resilience.md); the journal is
    also the sweep's record for ``repro tail`` / ``repro dash``.
    ``progress`` / ``trace_spans`` / ``trace_path`` are the
    observability taps (see docs/observability.md).  ``workers`` /
    ``shard_listen`` route the grid through the fault-tolerant sharded
    dispatch service (:mod:`repro.experiments.sharded`; see
    docs/resilience.md).
    ``prom_path`` / ``prom_gateway`` / ``otlp_path`` enable the fleet
    observability plane (merged cross-process metrics + skew-aligned
    spans, see docs/observability.md); ``adaptive_shard_size`` sizes
    shard leases from observed per-cell wall time.
    """
    cfg = figure_sweep_config(
        figure,
        sim_time=sim_time,
        seeds=seeds,
        t_switch_values=tuple(t_switch_values or T_SWITCH_SWEEP),
        engine=engine,
        workload=workload,
        workers=workers,
        use_cache=use_cache,
        cache_dir=cache_dir,
        audit=audit,
        task_timeout_s=task_timeout_s,
        max_task_retries=max_task_retries,
        journal_path=journal_path,
        resume_from=resume_from,
        progress=progress,
        trace_spans=trace_spans,
        trace_path=trace_path,
        shard_listen=shard_listen,
        shard_size=shard_size,
        run_id=run_id,
        prom_path=prom_path,
        prom_gateway=prom_gateway,
        otlp_path=otlp_path,
        obs_refresh_s=obs_refresh_s,
        adaptive_shard_size=adaptive_shard_size,
    )
    return run_sweep(cfg)
