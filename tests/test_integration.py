"""End-to-end integration tests: the paper's statistical claims on
realistic (generated) workloads, across the whole stack.

These complement the hypothesis property tests: properties that are
theorems are checked adversarially there; the claims below are
*statistical* (they hold in expectation under the paper's workload
model) and are checked here on seeded paper-style runs.
"""

import pytest

from repro.analysis.overhead import estimate_overhead
from repro.core.replay import replay, replay_fused
from repro.protocols import BCSProtocol, QBCProtocol, TwoPhaseProtocol
from repro.workload import WorkloadConfig, generate_trace


def totals(trace, n_hosts, n_mss):
    res = replay_fused(
        trace,
        [
            TwoPhaseProtocol(n_hosts, n_mss),
            BCSProtocol(n_hosts, n_mss),
            QBCProtocol(n_hosts, n_mss),
        ],
    )
    return {r.metrics.protocol: r for r in res}


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("p_switch", [1.0, 0.8])
def test_protocol_ordering_on_paper_workloads(seed, p_switch):
    """TP > BCS >= QBC in N_tot on every paper-style run."""
    cfg = WorkloadConfig(
        t_switch=1000.0, p_switch=p_switch, sim_time=4000.0, seed=seed
    )
    by_name = totals(generate_trace(cfg), cfg.n_hosts, cfg.n_mss)
    assert by_name["TP"].n_total > by_name["BCS"].n_total
    assert by_name["QBC"].n_total <= by_name["BCS"].n_total


def test_qbc_strictly_wins_in_heterogeneous_disconnecting_env():
    """The paper's best case for QBC: H=30%, P_switch=0.8.  Averaged
    over seeds, QBC must beat BCS strictly."""
    bcs_total = qbc_total = 0
    for seed in range(3):
        cfg = WorkloadConfig(
            t_switch=2000.0,
            p_switch=0.8,
            heterogeneity=0.3,
            sim_time=6000.0,
            seed=seed,
        )
        by_name = totals(generate_trace(cfg), cfg.n_hosts, cfg.n_mss)
        bcs_total += by_name["BCS"].n_total
        qbc_total += by_name["QBC"].n_total
    assert qbc_total < bcs_total


def test_index_gain_grows_with_t_switch():
    gains = []
    for t_switch in (100.0, 1000.0, 10000.0):
        cfg = WorkloadConfig(
            t_switch=t_switch, p_switch=1.0, sim_time=4000.0, seed=1
        )
        by_name = totals(generate_trace(cfg), cfg.n_hosts, cfg.n_mss)
        gains.append(1 - by_name["BCS"].n_total / by_name["TP"].n_total)
    assert gains[0] < gains[1] < gains[2]
    assert gains[2] > 0.9  # the paper's ~90% at the top of the sweep


def test_qbc_replacements_happen_in_disconnect_scenarios():
    cfg = WorkloadConfig(t_switch=300.0, p_switch=0.6, sim_time=4000.0, seed=2)
    by_name = totals(generate_trace(cfg), cfg.n_hosts, cfg.n_mss)
    assert by_name["QBC"].metrics.stats.n_replaced > 0
    assert by_name["BCS"].metrics.stats.n_replaced == 0


def test_tp_forced_rate_tracks_communication_not_mobility():
    """TP's forced checkpoints are communication-driven: they barely
    change when mobility slows 100x, unlike the index protocols."""
    fast = WorkloadConfig(t_switch=100.0, p_switch=1.0, sim_time=3000.0, seed=3)
    slow = fast.with_(t_switch=10000.0)
    tp_fast = totals(generate_trace(fast), 10, 5)["TP"]
    tp_slow = totals(generate_trace(slow), 10, 5)["TP"]
    assert tp_slow.metrics.stats.n_forced == pytest.approx(
        tp_fast.metrics.stats.n_forced, rel=0.5
    )
    bcs_fast = totals(generate_trace(fast), 10, 5)["BCS"]
    bcs_slow = totals(generate_trace(slow), 10, 5)["BCS"]
    assert bcs_slow.n_total < bcs_fast.n_total / 5


def test_overhead_model_ranks_protocols_like_the_paper():
    cfg = WorkloadConfig(t_switch=1000.0, p_switch=0.8, sim_time=4000.0, seed=0)
    by_name = totals(generate_trace(cfg), cfg.n_hosts, cfg.n_mss)
    reports = {
        name: estimate_overhead(r.metrics) for name, r in by_name.items()
    }
    assert reports["TP"].energy > reports["BCS"].energy >= reports["QBC"].energy
    assert reports["TP"].piggyback_bytes == 20 * reports["BCS"].piggyback_bytes


def test_piggyback_totals_match_scalability_argument():
    cfg = WorkloadConfig(t_switch=1000.0, sim_time=2000.0, seed=5)
    by_name = totals(generate_trace(cfg), cfg.n_hosts, cfg.n_mss)
    tp = by_name["TP"].metrics
    bcs = by_name["BCS"].metrics
    assert tp.piggyback_ints_total == 2 * cfg.n_hosts * bcs.piggyback_ints_total
