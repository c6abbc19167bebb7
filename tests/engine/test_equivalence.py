"""Equivalence through the engine layer: reference ≡ fused ≡ vectorized.

The pre-engine suite (tests/core/test_replay_fused.py) proves the raw
``replay_fused`` loop matches ``replay``; this one proves the property
*survives the refactor* -- running the engines through ``Engine.run``
yields bit-identical checkpoint sequences for every registered
replayable protocol, and the vectorized engine joins the agreement for
every protocol that ships batch kernels.
"""

import pytest

from repro.engine import RunSpec, execute
from repro.protocols.base import registry
from repro.workload import WorkloadConfig, generate_trace

SEEDS = (0, 1)
REPLAYABLE = sorted(
    name for name, cls in registry.items() if cls.replayable
)
VECTORIZABLE = sorted(
    name
    for name, cls in registry.items()
    if getattr(cls, "vectorizable", False)
)


def _trace(seed: int):
    return generate_trace(
        WorkloadConfig(sim_time=800.0, p_switch=0.8, seed=seed)
    )


def _checkpoint_trail(protocol):
    return [
        (ck.host, ck.index, ck.reason, ck.time, ck.replaced)
        for ck in protocol.checkpoints
    ]


@pytest.mark.parametrize("seed", SEEDS)
def test_engines_agree_bitwise_per_protocol(seed):
    trace = _trace(seed)
    ref = execute(
        RunSpec(protocols=tuple(REPLAYABLE), trace=trace, engine="reference")
    )
    fused = execute(
        RunSpec(protocols=tuple(REPLAYABLE), trace=trace, engine="fused")
    )
    for name in REPLAYABLE:
        r, f = ref.outcome(name), fused.outcome(name)
        assert f.metrics == r.metrics, name
        assert _checkpoint_trail(f.protocol) == _checkpoint_trail(
            r.protocol
        ), name


@pytest.mark.parametrize("seed", SEEDS)
def test_vectorized_engine_agrees_bitwise_per_protocol(seed):
    trace = _trace(seed)
    ref = execute(
        RunSpec(
            protocols=tuple(VECTORIZABLE), trace=trace, engine="reference"
        )
    )
    vec = execute(
        RunSpec(
            protocols=tuple(VECTORIZABLE), trace=trace, engine="vectorized"
        )
    )
    for name in VECTORIZABLE:
        r, v = ref.outcome(name), vec.outcome(name)
        assert v.metrics == r.metrics, name
        assert _checkpoint_trail(v.protocol) == _checkpoint_trail(
            r.protocol
        ), name


@pytest.mark.parametrize("name", REPLAYABLE)
def test_engine_matches_raw_replay(name):
    """The engine adds dispatch only: its reference run must equal a
    direct repro.core.replay.replay call, protocol by protocol."""
    from repro.core.replay import replay

    trace = _trace(0)
    raw = replay(trace, registry[name](trace.n_hosts, trace.n_mss))
    eng = execute(
        RunSpec(protocols=(name,), trace=trace, engine="reference")
    ).outcome(name)
    assert eng.metrics == raw.metrics
    assert _checkpoint_trail(eng.protocol) == _checkpoint_trail(raw.protocol)


def test_audited_engine_run_reports_no_violations():
    """The audit battery stays green through the engine for the real
    protocols (it would flag a lying stub; see tests/obs/test_audit.py)."""
    result = execute(
        RunSpec(protocols=("TP", "BCS", "QBC"), trace=_trace(2), audit=True)
    )
    assert result.violations == []


def test_audited_vectorized_run_reports_no_violations():
    """The same invariant battery holds when the batch kernels drive
    the replay."""
    result = execute(
        RunSpec(
            protocols=("TP", "BCS", "QBC"),
            trace=_trace(2),
            engine="vectorized",
            audit=True,
        )
    )
    assert result.violations == []
