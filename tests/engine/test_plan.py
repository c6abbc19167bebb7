"""Planning tests: RunSpec -> ExecutionPlan validation and engine choice."""

import pytest

from repro.engine import RunSpec, plan
from repro.engine.errors import CapabilityError, PlanError
from repro.engine.observers import AuditObserver, RunObserver
from repro.protocols import BCSProtocol
from repro.testing import loop_factories
from repro.workload import WorkloadConfig, generate_trace


def cfg(**kw):
    defaults = dict(sim_time=500.0, p_switch=0.8, seed=0)
    defaults.update(kw)
    return WorkloadConfig(**defaults)


# -- engine selection ------------------------------------------------------


def test_auto_prefers_vectorized_when_all_have_kernels():
    p = plan(RunSpec(protocols=("TP", "BCS", "QBC"), workload=cfg()))
    assert p.engine_kind == "vectorized"
    assert p.protocol_names == ("TP", "BCS", "QBC")


def test_auto_falls_back_to_fused_without_kernels():
    # One protocol built without kernels drops the whole set to the
    # fused engine.
    p = plan(
        RunSpec(
            protocols=("TP", "BCS", "BQF"),
            workload=cfg(),
            factories=loop_factories(("BQF",)),
        )
    )
    assert p.engine_kind == "fused"


def test_every_shipped_replayable_set_plans_the_kernels():
    for engine in ("auto", "fused"):
        spec = RunSpec(protocols=None, workload=cfg(), engine=engine)
        assert plan(spec).engine_kind == "vectorized", engine


def test_fused_request_plans_kernels_when_all_have_them():
    p = plan(
        RunSpec(protocols=("TP", "BCS", "QBC"), workload=cfg(), engine="fused")
    )
    assert p.engine_kind == "vectorized"


@pytest.mark.parametrize(
    "protocols", [("TP", "FDAS"), ("BQF",), None], ids=str
)
def test_fused_request_keeps_the_loop_without_kernels(protocols):
    # None is every replayable protocol: the zoo, FDAS and BQF included.
    # Every protocol ships kernels; the set's last one is built without.
    hidden = (protocols or ("BQF",))[-1]
    spec = RunSpec(
        protocols=protocols,
        workload=cfg(),
        engine="fused",
        factories=loop_factories((hidden,)),
    )
    assert plan(spec).engine_kind == "fused"


def test_hidden_kernels_keep_a_fused_request_on_the_loop():
    p = plan(
        RunSpec(
            protocols=("TP", "BCS"),
            workload=cfg(),
            engine="fused",
            factories=loop_factories(("TP", "BCS")),
        )
    )
    assert p.engine_kind == "fused"
    assert not any(e.capabilities.vectorizable for e in p.entries)


def test_auto_routes_coordinated_to_online():
    p = plan(RunSpec(protocols=("BCS", "CL"), workload=cfg()))
    assert p.engine_kind == "online"


def test_reference_engine_is_chosen_only_by_name():
    class NoKernel(BCSProtocol):
        vectorizable = False

    spec = dict(
        protocols=("BCS", "NK"), workload=cfg(), factories={"NK": NoKernel}
    )
    assert plan(RunSpec(**spec)).engine_kind == "fused"
    assert plan(RunSpec(engine="reference", **spec)).engine_kind == "reference"


def test_auto_with_trace_never_selects_online():
    trace = generate_trace(cfg())
    with pytest.raises(CapabilityError) as exc:
        plan(RunSpec(protocols=("CL",), trace=trace))
    assert exc.value.capability == "replayable"


def test_default_protocols_depend_on_engine():
    fused = plan(RunSpec(workload=cfg(), engine="fused"))
    assert "CL" not in fused.protocol_names
    auto = plan(RunSpec(workload=cfg()))
    assert "CL" not in auto.protocol_names
    online = plan(RunSpec(workload=cfg(), engine="online"))
    assert {"CL", "KT", "PS"} <= set(online.protocol_names)


# -- spec validation -------------------------------------------------------


def test_unknown_engine_kind_rejected_at_spec_time():
    with pytest.raises(PlanError, match="unknown engine"):
        RunSpec(protocols=("BCS",), workload=cfg(), engine="warp")


def test_exactly_one_schedule_source():
    with pytest.raises(PlanError, match="workload or a pre-built trace"):
        plan(RunSpec(protocols=("BCS",)))
    with pytest.raises(PlanError, match="pick one"):
        plan(
            RunSpec(
                protocols=("BCS",), workload=cfg(), trace=generate_trace(cfg())
            )
        )


def test_online_engine_rejects_prebuilt_trace():
    with pytest.raises(PlanError, match="emits its own trace"):
        plan(
            RunSpec(
                protocols=("BCS",), trace=generate_trace(cfg()), engine="online"
            )
        )


def test_online_engine_rejects_counters_only():
    with pytest.raises(CapabilityError, match="counters_only"):
        plan(
            RunSpec(
                protocols=("BCS",),
                workload=cfg(),
                engine="online",
                counters_only=True,
            )
        )


def test_online_engine_rejects_audit_flag():
    with pytest.raises(PlanError, match="AuditObserver"):
        plan(
            RunSpec(
                protocols=("BCS",), workload=cfg(), engine="online", audit=True
            )
        )


def test_counters_only_rejected_at_plan_time_without_support():
    class NeedsLog(BCSProtocol):
        supports_counters_only = False

    with pytest.raises(CapabilityError) as exc:
        plan(
            RunSpec(
                protocols=("NL",),
                workload=cfg(),
                counters_only=True,
                factories={"NL": NeedsLog},
            )
        )
    assert exc.value.capability == "counters_only"
    assert exc.value.protocol == "NL"


def test_empty_resolution_is_a_plan_error():
    with pytest.raises(PlanError, match="zero protocols"):
        plan(RunSpec(protocols=(), workload=cfg()))


# -- observers -------------------------------------------------------------


def test_audit_flag_attaches_audit_observer_once():
    p = plan(RunSpec(protocols=("BCS",), workload=cfg(), audit=True))
    audits = [o for o in p.observers if isinstance(o, AuditObserver)]
    assert len(audits) == 1

    mine = AuditObserver(t_switch=123.0)
    p = plan(
        RunSpec(
            protocols=("BCS",), workload=cfg(), audit=True, observers=(mine,)
        )
    )
    audits = [o for o in p.observers if isinstance(o, AuditObserver)]
    assert audits == [mine]  # the explicit one is kept, none added


def test_observer_order_preserved():
    a, b = RunObserver(), RunObserver()
    p = plan(RunSpec(protocols=("BCS",), workload=cfg(), observers=(a, b)))
    assert p.observers == (a, b)


# -- wire serialization (sharded dispatch) ---------------------------------


def test_spec_wire_roundtrip():
    from repro.engine import SPEC_WIRE_VERSION

    spec = RunSpec(
        protocols=("TP", "BCS"),
        workload=cfg(),
        engine="fused",
        counters_only=True,
        audit=True,
        seed=7,
        use_cache=True,
        cache_dir="/tmp/cache",
        ckpt_latency=1.5,
        gc_interval=200.0,
        snapshot_interval=100.0,
    )
    wire = spec.to_wire()
    assert wire["version"] == SPEC_WIRE_VERSION
    back = RunSpec.from_wire(wire)
    assert back.protocols == spec.protocols
    assert back.workload == spec.workload
    assert back.engine == spec.engine
    assert back.counters_only == spec.counters_only
    assert back.audit == spec.audit
    assert back.seed == spec.seed
    assert back.use_cache == spec.use_cache
    assert back.cache_dir == spec.cache_dir
    assert back.ckpt_latency == spec.ckpt_latency
    assert back.gc_interval == spec.gc_interval
    assert back.snapshot_interval == spec.snapshot_interval
    # The wire form is plain JSON-able data (no pickled objects).
    import json

    json.dumps(wire)


def test_spec_wire_rejects_process_local_state():
    trace = generate_trace(cfg())
    with pytest.raises(PlanError, match="pre-built trace"):
        RunSpec(protocols=("TP",), trace=trace).to_wire()
    with pytest.raises(PlanError, match="observers"):
        RunSpec(
            protocols=("TP",), workload=cfg(), observers=(RunObserver(),)
        ).to_wire()
    with pytest.raises(PlanError, match="factory"):
        RunSpec(
            protocols=("TP",),
            workload=cfg(),
            factories={"TP": lambda h, m: BCSProtocol(h, m)},
        ).to_wire()


def test_spec_wire_rejects_version_skew():
    wire = RunSpec(protocols=("TP",), workload=cfg()).to_wire()
    wire["version"] = 999
    with pytest.raises(PlanError, match="wire version 999"):
        RunSpec.from_wire(wire)


def test_spec_wire_rejects_malformed_workload():
    wire = RunSpec(protocols=("TP",), workload=cfg()).to_wire()
    wire["workload"]["no_such_field"] = 1
    with pytest.raises(PlanError, match="malformed workload"):
        RunSpec.from_wire(wire)
