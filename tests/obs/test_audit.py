"""Tests for the invariant audit (repro.obs.audit).

The audit's job is to catch a *broken* protocol or engine, so most of
these tests inject deliberately broken protocol stubs through the
``factories`` override of :func:`audit_trace` / :class:`RunSpec` and
assert the breach is reported as the right structured
:class:`AuditViolation` kind:

* a protocol that defers its forced checkpoints past delivery leaves an
  orphan message on its own recovery line (``orphan-message``);
* a protocol whose behaviour depends on hidden global state, or a
  batch kernel that miscounts, diverges between the audited run and
  the reference replay (``engine-divergence``);
* a protocol that logs decreasing or silently repeated indices trips
  ``index-monotonicity``;
* a protocol whose counters disagree with its log trips
  ``counter-mismatch``.

Clean protocols must audit clean on the same traces.
"""

import itertools
import pickle

import pytest

from repro.core.replay import replay
from repro.core.trace import EventType, build_trace
from repro.engine import RunSpec, execute
from repro.obs.audit import (
    COUNTER_MISMATCH,
    ENGINE_DIVERGENCE,
    INDEX_MONOTONICITY,
    ORPHAN_MESSAGE,
    AuditViolation,
    audit_trace,
    check_protocol_invariants,
    run_audit_grid,
)
from repro.protocols import BCSProtocol
from repro.protocols.base import CheckpointingProtocol
from repro.testing import without_kernels


def two_host_trace():
    """switch(0); 0->1; 1->0; 0->1 -- three receives (odd on purpose:
    stubs keyed on a shared invocation counter then land on different
    parities in the reference and fused passes)."""
    return build_trace(2, 2, [
        (1.0, EventType.CELL_SWITCH, 0, -1, 0, 1),
        (2.0, EventType.SEND, 0, 1, 1),
        (3.0, EventType.RECEIVE, 1, 1, 0),
        (4.0, EventType.SEND, 1, 2, 0),
        (5.0, EventType.RECEIVE, 0, 2, 1),
        (6.0, EventType.SEND, 0, 3, 1),
        (7.0, EventType.RECEIVE, 1, 3, 0),
    ])


def handoff_trace():
    """Like :func:`two_host_trace`, but host 1 also switches cell
    before replying, so under BCS both the first and the second
    receive force a checkpoint: a stub that skips every other receive
    diverges from clean BCS whichever receive it skips first."""
    return build_trace(2, 2, [
        (1.0, EventType.CELL_SWITCH, 0, -1, 0, 1),
        (2.0, EventType.SEND, 0, 1, 1),
        (3.0, EventType.RECEIVE, 1, 1, 0),
        (3.5, EventType.CELL_SWITCH, 1, -1, 0, 1),
        (4.0, EventType.SEND, 1, 2, 0),
        (5.0, EventType.RECEIVE, 0, 2, 1),
        (6.0, EventType.SEND, 0, 3, 1),
        (7.0, EventType.RECEIVE, 1, 3, 0),
    ])


def audited(engine, name, cls, trace=None):
    """An audited *engine* run of stub *cls* registered as *name*; a
    ``fused`` run hides the stub's kernels, so it runs the per-event
    loop."""
    if engine == "fused":
        cls = without_kernels(cls)
    return execute(
        RunSpec(
            protocols=(name,),
            trace=trace or two_host_trace(),
            engine=engine,
            factories={name: cls},
            audit=True,
        )
    )


# ---------------------------------------------------------------------------
# broken protocol stubs
# ---------------------------------------------------------------------------


class DelayedForceBCS(BCSProtocol):
    """BCS that takes its forced checkpoint only at the *next send*
    instead of before delivery -- the induced checkpoint no longer
    covers the receive, so the protocol's recovery line orphans the
    inducing message."""

    name = "BCS-delayed"

    def __init__(self, n_hosts, n_mss=1):
        super().__init__(n_hosts, n_mss)
        self._pending = [False] * n_hosts

    def on_receive(self, host, piggyback, src, now):
        if piggyback > self.sn[host]:
            self.sn[host] = piggyback
            self._pending[host] = True  # checkpoint late: after delivery

    def on_send(self, host, dst, now):
        if self._pending[host]:
            self._pending[host] = False
            self.take(host, self.sn[host], "forced", now)
        return self.sn[host]


class RepeatIndexProtocol(CheckpointingProtocol):
    """Logs every basic checkpoint at the same index without the QBC
    replacement flag -- a silent index repeat."""

    name = "REP"

    def __init__(self, n_hosts, n_mss=1):
        super().__init__(n_hosts, n_mss)
        for host in range(n_hosts):
            self.take(host, 0, "initial", 0.0)

    def on_cell_switch(self, host, now, new_cell):
        self.take(host, 1, "basic", now)


class CountdownIndexProtocol(CheckpointingProtocol):
    """Logs strictly *decreasing* checkpoint indices."""

    name = "DEC"

    def __init__(self, n_hosts, n_mss=1):
        super().__init__(n_hosts, n_mss)
        self._next = [5] * n_hosts
        for host in range(n_hosts):
            self.take(host, 0, "initial", 0.0)

    def on_cell_switch(self, host, now, new_cell):
        self.take(host, self._next[host], "basic", now)
        self._next[host] -= 1


class LyingCountersBCS(BCSProtocol):
    """Claims a forced checkpoint it never logged."""

    name = "BCS-lying"

    def on_cell_switch(self, host, now, new_cell):
        super().on_cell_switch(host, now, new_cell)
        self.n_forced += 1


def flaky_bcs_class():
    """A BCS whose receive processing depends on a class-level shared
    tick counter: the reference and fused passes consume different tick
    ranges, so their counters diverge.  Built fresh per test so the
    counter state never leaks between tests."""

    class FlakyBCS(BCSProtocol):
        name = "BCS-flaky"
        tick = itertools.count()

        def on_receive(self, host, piggyback, src, now):
            if next(type(self).tick) % 2 == 0:
                super().on_receive(host, piggyback, src, now)

    return FlakyBCS


class LyingKernelBCS(BCSProtocol):
    """A BCS whose batch kernel claims one forced checkpoint too many:
    only the vectorized engine runs it, so only an audit that checks
    the run's own instances sees it."""

    name = "BCS-lying-kernel"

    @classmethod
    def vectorized_replay(cls, vt, instance):
        super().vectorized_replay(vt, instance)
        instance.n_forced += 1


# ---------------------------------------------------------------------------
# detection
# ---------------------------------------------------------------------------


def test_clean_protocols_audit_clean_on_handcrafted_trace():
    assert audit_trace(two_host_trace(), ["TP", "BCS", "QBC"]) == []


def test_clean_protocols_audit_clean_on_generated_trace():
    from repro.workload import WorkloadConfig, generate_trace

    trace = generate_trace(
        WorkloadConfig(t_switch=80.0, p_switch=0.8, sim_time=400.0, seed=3)
    )
    assert audit_trace(trace, ["TP", "BCS", "QBC"], seed=3) == []


def test_delayed_force_is_caught_as_orphan_message():
    violations = audit_trace(
        two_host_trace(),
        ["BCS-delayed"],
        factories={"BCS-delayed": DelayedForceBCS},
        seed=7,
        t_switch=100.0,
    )
    kinds = {v.kind for v in violations}
    assert ORPHAN_MESSAGE in kinds
    orphan = next(v for v in violations if v.kind == ORPHAN_MESSAGE)
    assert orphan.protocol == "BCS-delayed"
    assert orphan.seed == 7 and orphan.t_switch == 100.0
    assert "orphans msg" in orphan.detail


def test_stateful_protocol_is_caught_as_fused_divergence():
    violations = audited("fused", "BCS-flaky", flaky_bcs_class()).violations
    assert [v.kind for v in violations] == [ENGINE_DIVERGENCE]
    assert "fused vs reference counters differ" in violations[0].detail


def test_repeated_index_without_replacement_is_caught():
    trace = build_trace(2, 2, [
        (1.0, EventType.CELL_SWITCH, 0, -1, 0, 1),
        (2.0, EventType.CELL_SWITCH, 0, -1, 1, 0),
    ])
    violations = audit_trace(
        trace, ["REP"], factories={"REP": RepeatIndexProtocol}
    )
    assert [v.kind for v in violations] == [INDEX_MONOTONICITY]
    assert violations[0].host == 0


def test_decreasing_indices_are_caught():
    trace = build_trace(2, 2, [
        (1.0, EventType.CELL_SWITCH, 0, -1, 0, 1),
        (2.0, EventType.CELL_SWITCH, 0, -1, 1, 0),
    ])
    violations = audit_trace(
        trace, ["DEC"], factories={"DEC": CountdownIndexProtocol}
    )
    assert INDEX_MONOTONICITY in {v.kind for v in violations}


def test_counter_log_disagreement_is_caught():
    violations = audit_trace(
        two_host_trace(),
        ["BCS-lying"],
        factories={"BCS-lying": LyingCountersBCS},
    )
    assert COUNTER_MISMATCH in {v.kind for v in violations}
    mismatch = next(v for v in violations if v.kind == COUNTER_MISMATCH)
    assert "n_forced" in mismatch.detail


def test_check_protocol_invariants_passes_clean_run():
    result = replay(two_host_trace(), BCSProtocol(2, 2))
    assert check_protocol_invariants(result.protocol) == []


# ---------------------------------------------------------------------------
# the production audit path: RunSpec(audit=True) checks the run itself
# ---------------------------------------------------------------------------

AUDITED_ENGINES = ("fused", "vectorized")


@pytest.mark.parametrize("engine", AUDITED_ENGINES)
def test_audited_run_reports_counter_mismatch(engine):
    result = audited(engine, "BCS-lying", LyingCountersBCS)
    assert COUNTER_MISMATCH in {v.kind for v in result.violations}
    assert result.observer_errors == []


@pytest.mark.parametrize("engine", AUDITED_ENGINES)
def test_audited_run_reports_engine_divergence(engine):
    result = audited(engine, "BCS-flaky", flaky_bcs_class(), handoff_trace())
    divergences = [
        v for v in result.violations if v.kind == ENGINE_DIVERGENCE
    ]
    assert divergences
    assert divergences[0].detail.startswith(f"{engine} vs reference")


@pytest.mark.parametrize("engine", AUDITED_ENGINES)
def test_audited_run_is_silent_on_clean_protocol(engine):
    result = audited(engine, "BCS-clean", BCSProtocol)
    assert result.engine_kind == engine
    assert result.violations == []
    assert result.observer_errors == []


def test_audited_vectorized_run_checks_its_own_counters():
    result = audited("vectorized", "BCS-lying-kernel", LyingKernelBCS)
    kinds = {v.kind for v in result.violations}
    assert ENGINE_DIVERGENCE in kinds
    divergence = next(
        v for v in result.violations if v.kind == ENGINE_DIVERGENCE
    )
    assert "vectorized vs reference" in divergence.detail
    assert "n_forced" in divergence.detail


def test_audit_with_partial_factory_overrides_audits_every_protocol():
    """Overriding one name must not hide the registry from the audit:
    every protocol of the run is rebuilt through its plan entry."""
    result = execute(
        RunSpec(
            protocols=("BCS", "QBC"),
            trace=two_host_trace(),
            engine="fused",
            factories={"BCS": without_kernels(DelayedForceBCS)},
            audit=True,
        )
    )
    assert result.observer_errors == []
    assert ORPHAN_MESSAGE in {v.kind for v in result.violations}
    assert {v.protocol for v in result.violations} == {"BCS"}


# ---------------------------------------------------------------------------
# the violation object itself
# ---------------------------------------------------------------------------


def test_violation_pickles_through_the_pool_contract():
    v = AuditViolation(
        ORPHAN_MESSAGE, "BCS", "msg 7 orphaned", host=2, seed=1, t_switch=50.0
    )
    clone = pickle.loads(pickle.dumps(v))
    assert (clone.kind, clone.protocol, clone.detail) == (
        ORPHAN_MESSAGE, "BCS", "msg 7 orphaned"
    )
    assert (clone.host, clone.seed, clone.t_switch) == (2, 1, 50.0)


def test_violation_str_and_dict_carry_coordinates():
    v = AuditViolation(
        ENGINE_DIVERGENCE, "QBC", "boom", seed=4, t_switch=1000.0
    )
    text = str(v)
    assert "engine-divergence(QBC)" in text
    assert "seed=4" in text and "t_switch=1000" in text
    d = v.as_dict()
    assert d["kind"] == ENGINE_DIVERGENCE and d["seed"] == 4


# ---------------------------------------------------------------------------
# grid audit (the CLI body)
# ---------------------------------------------------------------------------


def test_run_audit_grid_clean_on_small_grid():
    from repro.experiments import SweepConfig
    from repro.workload import WorkloadConfig

    config = SweepConfig(
        base=WorkloadConfig(p_switch=0.8, sim_time=300.0),
        t_switch_values=(100.0, 800.0),
        seeds=(0, 1),
        workers=0,
        use_cache=False,
    )
    grid = run_audit_grid(config)
    assert grid.ok
    assert grid.violations == []
    assert len(grid.telemetry) == 4
    report = grid.report()
    assert "zero violations across 4 runs" in report
    assert "t_switch" in report  # the telemetry table header made it in
