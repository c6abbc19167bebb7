"""Ablation: multi-seed agreement (paper Section 5.1).

The paper: "for each value of T_switch and H, we did several simulation
runs with different seeds and the result were within 4% of each other,
thus, variance is not reported in the plots."

This bench runs one representative point at the closest-to-paper horizon
(``REPRO_BENCH_VARIANCE_SIM_TIME``, default 50000; the paper's is ~1e5)
with 4 seeds and reports the relative spread per protocol.
"""

import os

from repro.analysis import relative_spread
from repro.experiments import SweepConfig, run_sweep
from repro.workload import WorkloadConfig


def _run():
    cfg = SweepConfig(
        base=WorkloadConfig(
            p_send=0.4,
            p_switch=1.0,
            sim_time=float(
                os.environ.get("REPRO_BENCH_VARIANCE_SIM_TIME", "50000")
            ),
        ),
        t_switch_values=(1000.0,),
        seeds=(0, 1, 2, 3),
    )
    return run_sweep(cfg).points[0]


def test_seed_agreement_within_paper_band(benchmark):
    point = benchmark.pedantic(_run, rounds=1, iterations=1)
    print()
    print(f"{'protocol':>9} {'mean N_tot':>12} {'max |dev|':>10} {'max-min':>8}")
    for name in ("TP", "BCS", "QBC"):
        totals = [float(v) for v in point.totals(name)]
        mean = sum(totals) / len(totals)
        # The paper's "within 4% of each other" most plausibly means a
        # +-4% band around the mean; report both that deviation and the
        # stricter (max - min) / mean for transparency.
        deviation = max(abs(v - mean) for v in totals) / mean
        spread = relative_spread(totals)
        print(
            f"{name:>9} {mean:>12.1f} {100 * deviation:>9.1f}% "
            f"{100 * spread:>7.1f}%"
        )
        benchmark.extra_info[f"deviation_{name}"] = deviation
        benchmark.extra_info[f"spread_{name}"] = spread
        # +-4% at the paper's ~1e5 horizon; sqrt-scaling headroom at the
        # default half horizon gives the 8% gate.
        assert deviation <= 0.08, (
            f"{name} seeds deviate by {100 * deviation:.1f}% from the mean"
        )
