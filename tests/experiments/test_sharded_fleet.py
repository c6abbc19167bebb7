"""End-to-end sweep exports over the sharded service.

A two-worker sweep with ``--prom``/``--otlp`` on produces one merged
Prometheus exposition whose cell counts match the journal, an
OTLP-JSON artifact with spans from both worker processes and a merged
trace whose spans are written as recorded -- and bit-identical sweep
values versus the exports off.  Every worker series arrives on its
cell's task record, so the per-pid engine-run counts add up to the
cells a run executed, exactly once, through worker kills and resumes.
The coordinator's shutdown also resets the liveness gauge (no phantom
live workers in the final exposition).
"""

import dataclasses
import json
import re

import pytest

from repro.experiments import SweepConfig, run_sweep
from repro.experiments.resilience import CHAOS_DIR_ENV
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


def _task_lines(journal):
    with open(journal) as fh:
        lines = [json.loads(ln) for ln in fh if ln.strip()]
    return [ln for ln in lines if ln.get("kind") == "task"]


def _samples(text, name):
    """``(labels, value)`` of every sample of *name* in an exposition."""
    out = []
    for ln in text.splitlines():
        if ln.startswith(name + "{"):
            head, value = ln.rsplit(" ", 1)
            out.append((dict(re.findall(r'(\w+)="([^"]*)"', head)), value))
    return out


def _runs_by_pid(text):
    """Sum of ``repro_engine_runs_total`` per worker ``pid`` label."""
    by_pid = {}
    for labels, value in _samples(text, "repro_engine_runs_total"):
        if "pid" in labels:
            by_pid[labels["pid"]] = by_pid.get(labels["pid"], 0.0) + float(
                value
            )
    return by_pid


def _done(text):
    return sum(
        float(v)
        for labels, v in _samples(text, "repro_sweep_tasks_total")
        if labels.get("status") == "done"
    )


@pytest.fixture(scope="module")
def observed(tmp_path_factory):
    """One plain and one fully observed two-worker sweep."""
    out = tmp_path_factory.mktemp("observed")
    paths = {
        "prom": out / "fleet.prom",
        "otlp": out / "fleet-otlp.json",
        "trace": out / "trace.json",
        "journal": out / "journal.jsonl",
    }
    registry().reset()
    plain = run_sweep(sweep_config())
    registry().reset()
    result = run_sweep(sweep_config(
        run_id="fleet-test",
        prom_path=str(paths["prom"]),
        otlp_path=str(paths["otlp"]),
        trace_spans=True,
        trace_path=str(paths["trace"]),
        journal_path=str(paths["journal"]),
    ))
    registry().reset()
    return plain, result, paths


def test_fleet_plane_artifacts_and_bit_identity(observed):
    plain, result, paths = observed

    # (c) the exports are purely observational: values are bit-identical.
    assert _values(result) == _values(plain)
    assert result.complete and result.errors == []

    # (b) Prometheus exposition: worker series carry their pid, the
    # coordinator's its worker_id, and both the per-pid engine runs and
    # the done-cell count equal the journal's completed-cell count.
    text = paths["prom"].read_text()
    assert 'run_id="fleet-test"' in text
    assert 'worker_id="coordinator"' in text
    cells = _task_lines(paths["journal"])
    by_pid = _runs_by_pid(text)
    assert len(by_pid) >= 2, text
    assert sum(by_pid.values()) == _done(text) == len(cells) == 4

    # The shutdown resets the liveness gauge -- the final exposition
    # must not advertise phantom live workers.
    alive = _samples(text, "repro_shard_workers_alive")
    assert alive and all(v == "0" for _, v in alive)

    # (b) OTLP-JSON: parses, has both sections, spans from >= 2 worker
    # processes, tagged with the run identity.
    payload = json.loads(paths["otlp"].read_text())
    assert "resourceMetrics" in payload
    spans = payload["resourceSpans"][0]["scopeSpans"][0]["spans"]
    attrs = [
        {a["key"]: a["value"]["stringValue"] for a in s["attributes"]}
        for s in spans
    ]
    assert len({a["pid"] for a in attrs}) >= 2
    assert all(a.get("run_id") == "fleet-test" for a in attrs)

    # (a) one merged Perfetto-loadable trace with both workers' spans.
    events = json.loads(paths["trace"].read_text())["traceEvents"]
    assert len({e.get("pid") for e in events}) >= 2


def test_trace_spans_are_written_as_recorded(observed):
    """With the exporters on, every trace event's ``ts`` is its span's
    recorded ``start_s`` as the journal holds it: no clock shift."""
    _, _, paths = observed
    recorded = sorted(
        (s["pid"], s["tid"], s["name"], round(s["start_s"] * 1e6, 3))
        for line in _task_lines(paths["journal"])
        for s in line["telemetry"]["spans"]
    )
    events = json.loads(paths["trace"].read_text())["traceEvents"]
    written = sorted(
        (e["pid"], e["tid"], e["name"], e["ts"])
        for e in events
        if e["ph"] == "X"
    )
    assert recorded and written == recorded


def test_fleet_plane_off_writes_no_artifacts(tmp_path):
    # No exporter set: no files appear, nothing changes.
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


def test_run_sweep_leaves_the_callers_run_id_alone(tmp_path):
    """The default ``run_id`` is derived for the export only: the
    caller's config keeps ``run_id=None``, so a config copied from it
    with other seeds exports its own default label."""
    registry().reset()
    first = sweep_config(workers=0, prom_path=str(tmp_path / "a.prom"))
    run_sweep(first)
    assert first.run_id is None
    second = dataclasses.replace(
        first, seeds=(2,), prom_path=str(tmp_path / "b.prom")
    )
    run_sweep(second)

    def run_ids(path):
        return set(re.findall(r'run_id="([^"]*)"', path.read_text()))

    a, b = run_ids(tmp_path / "a.prom"), run_ids(tmp_path / "b.prom")
    assert len(a) == len(b) == 1
    assert a != b


def test_killed_worker_series_count_each_cell_once(tmp_path, monkeypatch):
    """A worker killed mid-sweep takes its uncommitted series with it;
    the retried cell's series arrive once, on the record the journal
    keeps."""
    chaos_dir = tmp_path / "chaos"
    chaos_dir.mkdir()
    (chaos_dir / "kill-100-0").touch()
    monkeypatch.setenv(CHAOS_DIR_ENV, str(chaos_dir))
    prom = tmp_path / "fleet.prom"
    journal = tmp_path / "journal.jsonl"
    registry().reset()
    result = run_sweep(sweep_config(
        shard_size=1,
        prom_path=str(prom),
        journal_path=str(journal),
    ))
    registry().reset()
    assert result.complete and result.task_retries >= 1
    assert not list(chaos_dir.iterdir())  # the flag really fired
    text = prom.read_text()
    executed = len(_task_lines(journal))
    assert sum(_runs_by_pid(text).values()) == _done(text) == executed == 4


def test_resumed_sweep_series_count_only_executed_cells(tmp_path):
    """A half-resumed sweep exports the series of the cells it ran,
    not those of the cells it read back from the journal."""
    journal = tmp_path / "journal.jsonl"
    registry().reset()
    run_sweep(sweep_config(journal_path=str(journal)))
    header, *tasks = journal.read_text().splitlines(keepends=True)
    journal.write_text(header + "".join(tasks[:2]))  # two of four cells

    prom = tmp_path / "resumed.prom"
    registry().reset()
    result = run_sweep(sweep_config(
        journal_path=str(journal),
        resume_from=str(journal),
        prom_path=str(prom),
    ))
    registry().reset()
    assert result.complete and result.resumed_tasks == 2
    text = prom.read_text()
    assert sum(_runs_by_pid(text).values()) == _done(text) == 2
