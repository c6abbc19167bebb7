"""Smoke: every registered workload runs end to end on both replay
engines with identical counters, and streams bit-identically.

This is the local twin of the CI ``workload-smoke`` step: a model that
registers but cannot actually drive a run (or diverges between the
fused and vectorized engines, or between the columns the event loop
compiles as it runs and the columns compiled from the generated
trace's event list) fails here before any figure uses it.
"""

import json

import numpy as np
import pytest

from repro.core.compiled import array_columns, compile_trace, lower_columns
from repro.core.trace import Trace
from repro.engine import RunSpec, execute
from repro.testing import loop_factories
from repro.workload.config import WorkloadConfig
from repro.workload.driver import _Driver, generate_trace
from repro.workload.registry import workload_names

PROTOCOLS = ("TP", "BCS", "QBC")


@pytest.fixture
def smoke_params(tmp_path):
    """Minimal valid params per model (only 'trace' needs any)."""
    schedule = tmp_path / "schedule.jsonl"
    schedule.write_text(
        "\n".join(
            json.dumps({"host": h % 10, "delay": 0.5 + (h % 3)})
            for h in range(60)
        )
        + "\n",
        encoding="utf-8",
    )
    return {"trace": {"path": str(schedule)}}


def _smoke_config(name, smoke_params) -> WorkloadConfig:
    return WorkloadConfig(
        sim_time=200.0,
        workload=name,
        workload_params=smoke_params.get(name, {}),
    ).validate()


@pytest.mark.parametrize("name", workload_names())
def test_workload_runs_on_both_engines(name, smoke_params):
    cfg = _smoke_config(name, smoke_params)
    fused = execute(
        RunSpec(
            protocols=PROTOCOLS,
            workload=cfg,
            engine="fused",
            factories=loop_factories(PROTOCOLS),
        )
    )
    vectorized = execute(
        RunSpec(protocols=PROTOCOLS, workload=cfg, engine="vectorized")
    )
    assert fused.engine_kind == "fused"
    assert vectorized.engine_kind == "vectorized"
    for proto in PROTOCOLS:
        f = fused.outcome(proto).metrics
        v = vectorized.outcome(proto).metrics
        assert f.n_total == v.n_total, proto
        assert f.n_total >= 0
    # A model that silences the application entirely is a broken smoke.
    assert len(fused.trace.events) > 0


@pytest.mark.parametrize("name", workload_names())
def test_workload_streams_bit_identically(name, smoke_params):
    cfg = _smoke_config(name, smoke_params)
    looped = _Driver(cfg).run()
    trace = generate_trace(cfg)
    # The columns compiled from an event-backed copy's TraceEvent list.
    events = Trace(
        n_hosts=trace.n_hosts,
        n_mss=trace.n_mss,
        events=list(trace.events),
        sim_time=trace.sim_time,
    )
    cols, ref = array_columns(looped), array_columns(events)
    for column in ("etype", "time", "host", "msg_id", "peer", "cell", "slot"):
        np.testing.assert_array_equal(
            getattr(cols, column), getattr(ref, column), err_msg=column
        )
    assert lower_columns(cols) == compile_trace(events)
