"""Equivalence suite: the fused engine vs the reference engine.

``replay_fused`` must be observationally identical to ``replay`` -- not
just the headline counters but the full checkpoint sequence -- for
every registered replayable protocol over several generated workloads.
"""

import pytest

from repro.core.replay import replay, replay_fused
from repro.protocols.base import registry
from repro.workload import WorkloadConfig, generate_trace

SEEDS = (0, 1, 2)
REPLAYABLE = sorted(
    name for name, cls in registry.items() if cls.replayable
)


def _trace(seed: int):
    return generate_trace(
        WorkloadConfig(sim_time=800.0, p_switch=0.8, seed=seed)
    )


def _fresh(name: str, trace, lean: bool = False):
    protocol = registry[name](trace.n_hosts, trace.n_mss)
    if lean:
        protocol.log_checkpoints = False
    return protocol


def _checkpoint_trail(protocol):
    return [
        (ck.host, ck.index, ck.reason, ck.time, ck.replaced)
        for ck in protocol.checkpoints
    ]


@pytest.mark.parametrize("name", REPLAYABLE)
@pytest.mark.parametrize("seed", SEEDS)
def test_fused_matches_reference_bitwise(name, seed):
    trace = _trace(seed)
    ref = replay(trace, _fresh(name, trace))
    (fused,) = replay_fused(trace, [_fresh(name, trace)])
    assert fused.metrics == ref.metrics
    assert _checkpoint_trail(fused.protocol) == _checkpoint_trail(ref.protocol)


@pytest.mark.parametrize("seed", SEEDS)
def test_fused_multi_protocol_matches_isolated_runs(seed):
    """Driving all protocols in one pass changes nothing: instances
    share no state, so each must match its isolated reference run."""
    trace = _trace(seed)
    fused = replay_fused(trace, [_fresh(n, trace) for n in REPLAYABLE])
    for name, result in zip(REPLAYABLE, fused):
        ref = replay(trace, _fresh(name, trace))
        assert result.metrics == ref.metrics
        assert _checkpoint_trail(result.protocol) == _checkpoint_trail(
            ref.protocol
        )


@pytest.mark.parametrize("name", REPLAYABLE)
def test_counters_only_mode_preserves_counts(name):
    """log_checkpoints=False must not change any counter -- only the
    log and metadata are skipped."""
    trace = _trace(0)
    ref = replay(trace, _fresh(name, trace))
    (lean,) = replay_fused(trace, [_fresh(name, trace, lean=True)])
    assert lean.metrics.stats == ref.metrics.stats
    # The flag is flipped after construction, so only the constructor's
    # initial checkpoints may be on the log -- nothing from the run.
    assert all(ck.reason == "initial" for ck in lean.protocol.checkpoints)


def test_replay_fused_threads_seed_into_metrics():
    trace = _trace(0)

    def fresh():
        return [registry[n](trace.n_hosts, trace.n_mss) for n in ("TP", "BCS")]

    explicit = replay_fused(trace, fresh(), seed=7)
    assert [r.metrics.seed for r in explicit] == [7, 7]
    # Without an explicit seed, fall back to the trace's own (replay's
    # long-standing behaviour).
    default = replay_fused(trace, fresh())
    assert [r.metrics.seed for r in default] == [trace.meta["seed"]] * 2


def test_fused_rejects_non_replayable_protocol():
    trace = _trace(0)

    class Coordinated(registry["BCS"]):
        replayable = False

    with pytest.raises(ValueError, match="not replayable"):
        replay_fused(trace, [Coordinated(trace.n_hosts, trace.n_mss)])


def test_fused_rejects_host_count_mismatch():
    trace = _trace(0)
    with pytest.raises(ValueError, match="hosts"):
        replay_fused(trace, [registry["BCS"](trace.n_hosts + 1, trace.n_mss)])
