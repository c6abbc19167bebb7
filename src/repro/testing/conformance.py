"""Conformance kit: one line of pytest verifies a whole protocol.

Any protocol that joins the registry -- builtin, runtime-registered or
a plugin distribution (:mod:`repro.engine.plugins`) -- can be driven
through the same battery set the in-tree protocols are held to::

    # test_my_protocol.py
    from repro.testing import conformance_suite

    TestMyProtocol = conformance_suite("XBCS")

The generated class contains one parametrized test per battery plus a
hypothesis property test on random traces.  The batteries:

``registration``
    The name resolves through the capability-aware registry, its
    capability declaration is coherent, and a fresh instance starts
    with a sane counter signature and zero invariant violations.
``signature-stability``
    Two independent runs of the same specification produce identical
    counter signatures (replayable) or identical coordinated results
    (coordinated) -- the determinism every sweep, cache and audit
    feature rests on.
``engine-equivalence``
    Reference, fused (the per-event loop, kernels hidden) and (where
    kernels exist) vectorized replay agree bit for bit: counters, full
    checkpoint trails and recovery lines.
``recovery-line``
    The protocol's on-the-fly recovery line *materialises*: every
    demanded (host, index) resolves to a checkpoint that was actually
    taken.  TP-style protocols are checked over every anchored line.
``consistency-oracle``
    The materialised line(s) admit no orphan message, and the direct
    orphan check agrees with the independent vector-clock criterion.
``audit-cleanliness``
    :func:`repro.obs.audit.audit_trace` reports zero violations for
    the protocol on the kit workload.

Each battery skips itself (:class:`BatterySkipped`) when the protocol
does not claim the capability it exercises -- a coordinated baseline
is not penalised for not being replayable -- and fails with a
:class:`ConformanceFailure` carrying the protocol, battery and detail
otherwise.  :func:`check_conformance` runs everything programmatically
and returns a :class:`ConformanceReport`.

The kit is a *consumer* of the execution engine: all runs go through
:func:`repro.engine.execute` (enforced by the import contracts), so a
protocol passing here passes on the exact production path.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Mapping, Optional, Sequence

from repro.core.consistency import (
    CausalOrder,
    annotate_replay,
    build_recovery_line,
    find_orphans,
    is_consistent,
    tp_anchored_line,
)
from repro.engine import (
    EngineError,
    ResolvedProtocol,
    RunSpec,
    execute,
    known_names,
    resolve_protocols,
)
from repro.protocols.base import CheckpointingProtocol
from repro.workload import WorkloadConfig, generate_trace

__all__ = [
    "BATTERIES",
    "BatterySkipped",
    "ConformanceFailure",
    "ConformanceReport",
    "check_conformance",
    "conformance_suite",
    "default_config",
    "loop_factories",
    "run_battery",
    "without_kernels",
]

#: name -> callable(n_hosts, n_mss) building a fresh protocol instance.
FactoryMap = Mapping[str, Callable[[int, int], CheckpointingProtocol]]

#: Counter-signature keys every protocol must report.
SIGNATURE_KEYS = frozenset(
    {
        "protocol",
        "n_basic",
        "n_forced",
        "n_initial",
        "n_replaced",
        "n_renamed",
        "n_total",
        "per_host_total",
        "last_index",
    }
)


class ConformanceFailure(AssertionError):
    """A protocol failed one conformance battery."""

    def __init__(self, protocol: str, battery: str, detail: str):
        self.protocol = protocol
        self.battery = battery
        self.detail = detail
        super().__init__(f"[{battery}] protocol {protocol!r}: {detail}")


class BatterySkipped(Exception):
    """The battery does not apply to this protocol's capabilities."""

    def __init__(self, reason: str):
        self.reason = reason
        super().__init__(reason)


def without_kernels(factory):
    """*factory* with its batch kernels hidden from the planner.

    A ``fused`` request plans the vectorized engine when every protocol
    ships kernels; a protocol built through the returned subclass keeps
    the per-event loop, which is how the loop stays under test.  A
    factory without kernels comes back unchanged.
    """
    if not getattr(factory, "vectorizable", False):
        return factory
    return type(factory.__name__, (factory,), {"vectorizable": False})


def loop_factories(
    names: Sequence[str], factories: Optional[FactoryMap] = None
) -> dict:
    """Factory overrides that keep *names* on the per-event loop when
    passed as ``RunSpec(factories=...)`` (see :func:`without_kernels`)."""
    return {
        entry.name: without_kernels(entry.factory)
        for entry in resolve_protocols(names, factories=factories)
    }


def default_config() -> WorkloadConfig:
    """The kit's deterministic workload: small enough that the full
    battery set stays subsecond per protocol, busy enough (handoffs,
    disconnections, cross-cell traffic) to exercise every hook."""
    return WorkloadConfig(
        n_hosts=5, n_mss=2, t_switch=60.0, sim_time=300.0, seed=1998
    ).validate()


_TRACE_CACHE: dict[str, object] = {}


def _trace_for(config: WorkloadConfig):
    key = repr(config)
    if key not in _TRACE_CACHE:
        _TRACE_CACHE[key] = generate_trace(config)
    return _TRACE_CACHE[key]


@dataclass
class _Context:
    """Everything one battery run needs."""

    name: str
    entry: ResolvedProtocol
    factories: Optional[FactoryMap]
    config: WorkloadConfig

    @property
    def trace(self):
        return _trace_for(self.config)

    def fail(self, battery: str, detail: str) -> "ConformanceFailure":
        return ConformanceFailure(self.name, battery, detail)

    def run(self, engine: str, factories: Optional[FactoryMap] = None, **kw):
        spec = RunSpec(
            protocols=(self.name,),
            engine=engine,
            factories=factories or self.factories,
            **kw,
        )
        return execute(spec).outcomes[0]

    def instance(self) -> CheckpointingProtocol:
        return self.entry.make(self.config.n_hosts, self.config.n_mss)


def _context(
    name: str,
    factories: Optional[FactoryMap],
    config: Optional[WorkloadConfig],
) -> _Context:
    try:
        (entry,) = resolve_protocols([name], factories=factories)
    except EngineError as exc:
        raise ConformanceFailure(name, "registration", str(exc)) from exc
    return _Context(
        name=name,
        entry=entry,
        factories=factories,
        config=config or default_config(),
    )


# ---------------------------------------------------------------------------
# line materialisation (shared by the recovery-line / oracle batteries)
# ---------------------------------------------------------------------------


def _materialized_lines(ctx: _Context, battery: str):
    """Replay the kit trace and materialise every recovery line the
    protocol promises: the global on-the-fly line, or (TP-style) one
    anchored line per host.  Raises :class:`BatterySkipped` when the
    protocol promises no line at all (e.g. the uncoordinated baseline,
    RDT-only protocols like FDAS)."""
    if not ctx.entry.capabilities.replayable:
        raise BatterySkipped(
            "coordinated baselines keep no replayable recovery line"
        )
    protocol = ctx.instance()
    run = annotate_replay(ctx.trace, protocol)
    try:
        line = build_recovery_line(run, protocol)
    except NotImplementedError:
        if not hasattr(protocol, "required_indices"):
            raise BatterySkipped(
                "declares no on-the-fly recovery line (nothing promised, "
                "nothing checked)"
            ) from None
        lines = []
        for anchor in range(ctx.trace.n_hosts):
            try:
                anchored = tp_anchored_line(run, protocol, anchor)
            except (ValueError, KeyError) as exc:
                raise ctx.fail(
                    battery,
                    f"anchored line of host {anchor} cannot be "
                    f"materialised: {exc}",
                ) from exc
            lines.append((f"anchored line of host {anchor}", anchored))
        return run, lines
    except ValueError as exc:
        raise ctx.fail(
            battery, f"recovery line cannot be materialised: {exc}"
        ) from exc
    return run, [("recovery line", line)]


# ---------------------------------------------------------------------------
# batteries
# ---------------------------------------------------------------------------


def _battery_registration(ctx: _Context) -> str:
    caps = ctx.entry.capabilities
    if caps.coordinated:
        if ctx.entry.scheme is None:
            raise ctx.fail(
                "registration", "coordinated entry carries no scheme"
            )
        return f"coordinated scheme {ctx.entry.scheme.value!r}"
    protocol = ctx.instance()
    signature = protocol.counter_signature()
    missing = SIGNATURE_KEYS - set(signature)
    if missing:
        raise ctx.fail(
            "registration",
            f"counter signature lacks keys {sorted(missing)}",
        )
    problems = protocol.invariant_violations()
    if problems:
        raise ctx.fail(
            "registration",
            f"fresh instance already violates invariants: {problems}",
        )
    return f"capabilities {caps}"


def _battery_signature_stability(ctx: _Context) -> str:
    caps = ctx.entry.capabilities
    if caps.coordinated:
        kw = dict(workload=ctx.config, snapshot_interval=60.0)
        first = ctx.run("online", **kw).coordinated
        second = ctx.run("online", **kw).coordinated
        if first != second:
            raise ctx.fail(
                "signature-stability",
                f"two identical online runs disagree: {first} != {second}",
            )
        return f"coordinated result stable ({first.n_total} checkpoints)"
    first = ctx.run("reference", trace=ctx.trace).protocol.counter_signature()
    second = ctx.run("reference", trace=ctx.trace).protocol.counter_signature()
    if first != second:
        diff = {
            key: (first.get(key), second.get(key))
            for key in set(first) | set(second)
            if first.get(key) != second.get(key)
        }
        raise ctx.fail(
            "signature-stability",
            f"two identical replays disagree on counters: {diff}",
        )
    return f"signature stable ({first['n_total']} checkpoints)"


def _trail(protocol: CheckpointingProtocol):
    return [
        (ck.host, ck.index, ck.reason, ck.time, ck.replaced, ck.metadata)
        for ck in protocol.checkpoints
    ]


def _line_indices(protocol: CheckpointingProtocol):
    try:
        return protocol.recovery_line_indices()
    except NotImplementedError:
        return None


def _battery_engine_equivalence(ctx: _Context) -> str:
    caps = ctx.entry.capabilities
    if not caps.replayable:
        raise BatterySkipped("not replayable; only the online engine applies")
    reference = ctx.run("reference", trace=ctx.trace).protocol
    # With its kernels hidden, the protocol's "fused" run is the
    # per-event loop rather than a second vectorized run.
    loop = {ctx.name: without_kernels(ctx.entry.factory)}
    others = [("fused", ctx.run("fused", loop, trace=ctx.trace).protocol)]
    if caps.vectorizable:
        others.append(
            ("vectorized", ctx.run("vectorized", trace=ctx.trace).protocol)
        )
    for engine, protocol in others:
        if protocol.counter_signature() != reference.counter_signature():
            raise ctx.fail(
                "engine-equivalence",
                f"{engine} counters diverge from reference: "
                f"{protocol.counter_signature()} != "
                f"{reference.counter_signature()}",
            )
        if _trail(protocol) != _trail(reference):
            raise ctx.fail(
                "engine-equivalence",
                f"{engine} checkpoint trail diverges from reference",
            )
        if _line_indices(protocol) != _line_indices(reference):
            raise ctx.fail(
                "engine-equivalence",
                f"{engine} recovery line diverges from reference",
            )
    return "reference ≡ " + " ≡ ".join(engine for engine, _ in others)


def _battery_recovery_line(ctx: _Context) -> str:
    run, lines = _materialized_lines(ctx, "recovery-line")
    for label, line in lines:
        uncovered = set(range(ctx.trace.n_hosts)) - set(line)
        if uncovered:
            raise ctx.fail(
                "recovery-line",
                f"{label} leaves hosts {sorted(uncovered)} without a "
                "checkpoint",
            )
    return f"{len(lines)} line(s) materialised"


def _battery_consistency_oracle(ctx: _Context) -> str:
    run, lines = _materialized_lines(ctx, "consistency-oracle")
    order = CausalOrder(run)
    for label, line in lines:
        orphans = find_orphans(run, line)
        if orphans:
            m = orphans[0]
            raise ctx.fail(
                "consistency-oracle",
                f"{label} orphans {len(orphans)} message(s), e.g. msg "
                f"{m.msg_id} ({m.src}@{m.src_pos} -> {m.dst}@{m.dst_pos})",
            )
        if not (is_consistent(run, line) and order.line_is_consistent(line)):
            raise ctx.fail(
                "consistency-oracle",
                f"{label}: orphan and vector-clock criteria disagree",
            )
    return f"{len(lines)} line(s) orphan-free"


def _battery_audit_cleanliness(ctx: _Context) -> str:
    from repro.obs.audit import audit_trace

    if not ctx.entry.capabilities.replayable:
        raise BatterySkipped(
            "coordinated baselines are driven online; nothing to audit"
        )
    violations = audit_trace(
        ctx.trace, [ctx.name], factories=ctx.factories, seed=ctx.config.seed
    )
    if violations:
        shown = "; ".join(str(v) for v in violations[:3])
        raise ctx.fail(
            "audit-cleanliness",
            f"{len(violations)} violation(s): {shown}",
        )
    return "full audit clean"


#: Battery name -> implementation, in execution order.
_BATTERY_FUNCS: dict[str, Callable[[_Context], str]] = {
    "registration": _battery_registration,
    "signature-stability": _battery_signature_stability,
    "engine-equivalence": _battery_engine_equivalence,
    "recovery-line": _battery_recovery_line,
    "consistency-oracle": _battery_consistency_oracle,
    "audit-cleanliness": _battery_audit_cleanliness,
}

#: The battery names, in execution order.
BATTERIES: tuple[str, ...] = tuple(_BATTERY_FUNCS)


def run_battery(
    battery: str,
    protocol: str,
    *,
    factories: Optional[FactoryMap] = None,
    config: Optional[WorkloadConfig] = None,
) -> str:
    """Run one *battery* against *protocol*; returns a detail string.

    Raises :class:`ConformanceFailure` on breach, :class:`BatterySkipped`
    when the battery does not apply to the protocol's capabilities, and
    ``KeyError`` for an unknown battery name.
    """
    try:
        fn = _BATTERY_FUNCS[battery]
    except KeyError:
        raise KeyError(
            f"unknown battery {battery!r}; known: {list(BATTERIES)}"
        ) from None
    return fn(_context(protocol, factories, config))


@dataclass(frozen=True)
class BatteryResult:
    """Outcome of one battery on one protocol."""

    battery: str
    status: str  # "passed" | "skipped" | "failed"
    detail: str


@dataclass(frozen=True)
class ConformanceReport:
    """Every battery's outcome for one protocol."""

    protocol: str
    results: tuple[BatteryResult, ...] = field(default_factory=tuple)

    @property
    def ok(self) -> bool:
        """True iff no battery failed (skips do not count against)."""
        return all(r.status != "failed" for r in self.results)

    @property
    def failures(self) -> tuple[BatteryResult, ...]:
        return tuple(r for r in self.results if r.status == "failed")

    def summary(self) -> str:
        lines = [f"conformance {self.protocol}:"]
        lines += [
            f"  {r.battery:<22} {r.status:<8} {r.detail}"
            for r in self.results
        ]
        return "\n".join(lines)


def check_conformance(
    protocol: str,
    *,
    factories: Optional[FactoryMap] = None,
    config: Optional[WorkloadConfig] = None,
) -> ConformanceReport:
    """Run every battery against *protocol*, collecting the outcomes
    (nothing raises; inspect ``report.ok`` / ``report.failures``)."""
    results = []
    for battery in BATTERIES:
        try:
            detail = run_battery(
                battery, protocol, factories=factories, config=config
            )
        except ConformanceFailure as exc:
            results.append(BatteryResult(battery, "failed", exc.detail))
        except BatterySkipped as exc:
            results.append(BatteryResult(battery, "skipped", exc.reason))
        else:
            results.append(BatteryResult(battery, "passed", detail))
    return ConformanceReport(protocol=protocol, results=tuple(results))


# ---------------------------------------------------------------------------
# pytest front end
# ---------------------------------------------------------------------------


def conformance_suite(
    *names: str,
    factories: Optional[FactoryMap] = None,
    config: Optional[WorkloadConfig] = None,
    max_examples: int = 12,
):
    """Build a pytest test class covering *names* (default: every
    registered protocol).

    Assign the result to a module-level ``Test*`` attribute so pytest
    collects it::

        TestConformance = conformance_suite("XBCS", "FDAS")

    The class holds one test per battery, parametrized over the
    protocols, plus one hypothesis property test driving each
    replayable protocol over random traces
    (:func:`repro.testing.strategies.traces`) and asserting invariants
    and line consistency hold on every draw.
    """
    import pytest
    from hypothesis import given, settings

    from repro.testing.strategies import traces

    selected = tuple(names) if names else tuple(known_names())
    if factories:
        selected = tuple(
            dict.fromkeys(list(selected) + sorted(factories))
        )
    params = pytest.mark.parametrize("protocol", list(selected))

    namespace = {
        "__doc__": f"Generated conformance suite for {', '.join(selected)}.",
        "PROTOCOLS": selected,
    }

    def _make_test(battery: str):
        def test(self, protocol, _battery=battery):
            try:
                run_battery(
                    _battery, protocol, factories=factories, config=config
                )
            except BatterySkipped as exc:
                pytest.skip(f"{protocol}: {exc.reason}")

        test.__name__ = "test_" + battery.replace("-", "_")
        test.__doc__ = f"Battery {battery!r} (see repro.testing.conformance)."
        return params(test)

    for battery in BATTERIES:
        test = _make_test(battery)
        namespace[test.__name__] = test

    @params
    @settings(max_examples=max_examples, deadline=None)
    @given(trace=traces(max_ops=30))
    def test_property_random_traces_stay_sound(self, protocol, trace):
        """Invariants and line consistency hold on random traces, not
        just the kit workload."""
        try:
            (entry,) = resolve_protocols([protocol], factories=factories)
        except EngineError as exc:
            raise ConformanceFailure(protocol, "property", str(exc)) from exc
        if not entry.capabilities.replayable:
            pytest.skip(f"{protocol}: not replayable")
        instance = entry.make(trace.n_hosts, trace.n_mss)
        run = annotate_replay(trace, instance)
        problems = instance.invariant_violations()
        assert not problems, f"{protocol}: {problems}"
        try:
            line = build_recovery_line(run, instance)
        except NotImplementedError:
            return  # nothing promised, nothing checked
        assert is_consistent(run, line), f"{protocol}: line has orphans"

    namespace["test_property_random_traces_stay_sound"] = (
        test_property_random_traces_stay_sound
    )

    return type("ConformanceSuite", (), namespace)
