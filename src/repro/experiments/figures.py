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

from repro.experiments.config import SweepConfig
from repro.experiments.runner import SweepResult, run_sweep
from repro.workload.config import WorkloadConfig

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
    figure: int, sim_time: float, **settings
) -> SweepConfig:
    """Sweep configuration reproducing one paper figure.

    *settings* are any :class:`~repro.experiments.config.SweepConfig`
    fields (``seeds``, ``t_switch_values``, ``engine``, ``workers``,
    ``journal_path``, ...); the figure supplies ``base``.

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
    return SweepConfig(base=base, **settings).validate()


def run_figure(
    figure: int, sim_time: float = 20_000.0, **settings
) -> SweepResult:
    """Run one paper figure end to end and return the sweep result.

    *settings* are :class:`~repro.experiments.config.SweepConfig`
    fields, as for :func:`figure_sweep_config`: ``audit=True`` arms the
    per-task invariant audit, ``journal_path`` / ``resume_from`` make
    the sweep crash-safe and resumable (docs/resilience.md),
    ``workers`` / ``shard_listen`` route the grid through the sharded
    dispatch service, and ``progress`` / ``trace_path`` / ``prom_path``
    / ``otlp_path`` are the observability taps (docs/observability.md).
    """
    return run_sweep(figure_sweep_config(figure, sim_time, **settings))
