"""End-to-end fleet observability plane over the sharded service.

Exercises the ISSUE acceptance path: a two-worker sweep with the plane
enabled produces a merged Prometheus exposition whose cell counts match
the journal, an OTLP-JSON artifact with spans from both worker
processes, a merged trace -- and bit-identical sweep values versus the
plane disabled.  The coordinator's shutdown must also reset the
liveness gauge (no phantom live workers in the final exposition).
"""

import json

import pytest

from repro.experiments import SweepConfig, run_sweep
from repro.obs.metrics import registry
from repro.workload import WorkloadConfig

pytestmark = pytest.mark.timeout(300)

GRID = dict(t_switch_values=(100.0, 800.0), seeds=(0, 1))


def sweep_config(**overrides):
    kw = dict(
        base=WorkloadConfig(p_switch=0.8, sim_time=200.0),
        workers=2,
        retry_backoff_s=0.01,
        shard_heartbeat_s=0.2,
        shard_lease_timeout_s=2.0,
        **GRID,
    )
    kw.update(overrides)
    return SweepConfig(**kw)


def _values(result):
    return [[r for r in p.runs] for p in result.points]


def test_fleet_plane_artifacts_and_bit_identity(tmp_path):
    prom = tmp_path / "fleet.prom"
    otlp = tmp_path / "fleet-otlp.json"
    trace = tmp_path / "trace.json"
    journal = tmp_path / "journal.jsonl"

    registry().reset()
    plain = run_sweep(sweep_config())
    registry().reset()
    observed = run_sweep(sweep_config(
        run_id="fleet-test",
        prom_path=str(prom),
        otlp_path=str(otlp),
        trace_spans=True,
        trace_path=str(trace),
        journal_path=str(journal),
    ))

    # (c) the plane is purely observational: values are bit-identical.
    assert _values(observed) == _values(plain)
    assert observed.complete and observed.errors == []

    # (b) Prometheus exposition: parses, carries worker-labelled series
    # merged with the coordinator's, and its done-cell count equals the
    # journal's completed-cell count.
    text = prom.read_text()
    worker_series = [
        ln for ln in text.splitlines()
        if 'worker_id="0"' in ln or 'worker_id="1"' in ln
    ]
    assert worker_series, text
    assert 'run_id="fleet-test"' in text
    with open(journal) as fh:
        cells = [
            json.loads(ln) for ln in fh
            if ln.strip() and json.loads(ln).get("kind") == "task"
        ]
    done_lines = [
        ln for ln in text.splitlines()
        if ln.startswith("repro_sweep_tasks_total") and 'status="done"' in ln
    ]
    prom_done = sum(float(ln.rsplit(" ", 1)[1]) for ln in done_lines)
    assert prom_done == len(cells) == 4

    # Satellite: the shutdown resets the liveness gauge -- the final
    # exposition must not advertise phantom live workers.
    alive = [
        ln for ln in text.splitlines()
        if ln.startswith("repro_shard_workers_alive")
    ]
    assert alive and all(ln.rsplit(" ", 1)[1] == "0" for ln in alive)

    # (b) OTLP-JSON: parses, has both sections, spans from >= 2 worker
    # processes, tagged with worker/run identity.
    payload = json.loads(otlp.read_text())
    assert "resourceMetrics" in payload
    spans = payload["resourceSpans"][0]["scopeSpans"][0]["spans"]
    attrs = [
        {a["key"]: a["value"]["stringValue"] for a in s["attributes"]}
        for s in spans
    ]
    assert len({a["pid"] for a in attrs}) >= 2
    assert all(a.get("run_id") == "fleet-test" for a in attrs)

    # (a) one merged Perfetto-loadable trace with both workers' spans.
    events = json.loads(trace.read_text())["traceEvents"]
    assert len({e.get("pid") for e in events}) >= 2


def test_fleet_plane_off_writes_no_artifacts(tmp_path):
    # No fleet knob set: no exporter files appear, nothing changes.
    registry().reset()
    result = run_sweep(sweep_config())
    assert result.complete
    assert list(tmp_path.iterdir()) == []


def test_run_id_defaults_to_config_hash(tmp_path):
    from repro.experiments.resilience import sweep_config_hash

    prom = tmp_path / "fleet.prom"
    registry().reset()
    cfg = sweep_config(prom_path=str(prom))
    run_sweep(cfg)
    expected = "sweep-" + sweep_config_hash(cfg)[:12]
    assert f'run_id="{expected}"' in prom.read_text()


def test_adaptive_shard_size_keeps_values_identical():
    registry().reset()
    plain = run_sweep(sweep_config())
    registry().reset()
    adaptive = run_sweep(sweep_config(adaptive_shard_size=True))
    assert _values(adaptive) == _values(plain)
    assert adaptive.complete and adaptive.errors == []
