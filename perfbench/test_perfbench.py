"""The benchmark's own tests.

Run from the root of a checkout::

    python3 -m pytest -q perfbench/test_perfbench.py

The traced-run tests run every workload twice on one seed at the
smallest size (``--seconds 1``) and take a few minutes.  They assert
that the layer counts repeat exactly, that the bypass predictions hold
and that the traced run covers its wall time.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import child  # noqa: E402
import layers  # noqa: E402
from workloads import WORKLOADS, plan  # noqa: E402

#: Per-layer counts that must repeat exactly between two runs of a seed.
EXACT = (
    "generate.calls",
    "generate.events",
    "lower.calls",
    "cache.hits",
    "cache.disk_hits",
    "cache.misses",
    "cache.corrupt_evictions",
    "cache.bytes_read",
    "cache.bytes_written",
    "replay.protocol_events",
    "replay.runs.fused",
    "replay.runs.vectorized",
    "replay.runs.reference",
    "dispatch.retries",
    "dispatch.quarantined",
)

#: Every per-layer metric BENCHMARK.json declares.
DECLARED = [m["name"] for m in
            json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]]


def bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


def traced(workload: str, seed: int) -> dict:
    out = bench("--workload", workload, "--seed", str(seed),
                "--seconds", "1", "--trace", "1")
    assert out.returncode == 0, out.stderr
    return json.loads(out.stdout.strip().splitlines()[-1])


# -- plans --------------------------------------------------------------------

@pytest.mark.parametrize("workload", WORKLOADS)
def test_plan_is_fixed_by_seed_and_seconds(workload):
    assert plan(workload, 3, 10) == plan(workload, 3, 10)
    assert plan(workload, 3, 10).seeds != plan(workload, 4, 10).seeds
    assert plan(workload, 3, 20).cells > plan(workload, 3, 10).cells


# -- span arithmetic ----------------------------------------------------------

def _span(name, depth, duration):
    return {"name": name, "depth": depth, "duration_s": duration, "tags": {}}


def test_self_times_subtract_direct_children_only():
    # run(10) > trace-acquire(4) > cache(3) > cache.load(2); fused-pass(5)
    spans = [
        _span("cache.load", 3, 2.0),
        _span("cache", 2, 3.0),
        _span("trace-acquire", 1, 4.0),
        _span("fused-pass", 1, 5.0),
        _span("run", 0, 10.0),
    ]
    got = {sp["name"]: s for sp, s in layers.self_times(spans)}
    assert got == {"cache.load": 2.0, "cache": 1.0, "trace-acquire": 1.0,
                   "fused-pass": 5.0, "run": 1.0}


def test_layer_of_maps_engine_and_wrapper_spans():
    assert layers.layer_of("generate") == "generate"
    assert layers.layer_of("lower") == "lower"
    assert layers.layer_of("trace-acquire") == "cache"
    assert layers.layer_of("cache.save") == "cache"
    assert layers.layer_of("fused-pass") == "replay"
    assert layers.layer_of("run") == "unattributed"
    assert layers.layer_of("observer:TelemetryObserver") == "unattributed"


def test_coverage_counts_only_layer_spans_and_dispatch():
    # One task of 8 s in a 10 s pass: 2 s of dispatch; inside the task
    # the run span's own 3 s and an observer's 1 s belong to no layer.
    spans = [
        _span("fused-pass", 1, 4.0),
        _span("observer:TelemetryObserver", 1, 1.0),
        _span("run", 0, 8.0),
    ]
    rec = SimpleNamespace(t_switch=100.0, seed=0, spans=spans,
                          wall_time_s=8.0, n_events=10, counters={})
    result = SimpleNamespace(telemetry=[rec], sweep_wall_s=10.0,
                             task_retries=0, errors=[])
    metrics, table = layers.summarize([result], 10.0)
    assert metrics["replay.seconds"] == 4.0
    assert metrics["dispatch.overhead_seconds"] == 2.0
    assert table["unattributed"] == (2, 4.0)
    assert metrics["trace.coverage"] == 0.6


# -- figure claims ------------------------------------------------------------

def _point(t_switch, qbc, bcs):
    means = {"QBC": qbc, "BCS": bcs}
    return SimpleNamespace(t_switch=t_switch, mean_total=means.__getitem__)


def test_claims_gate_tp_per_point_and_qbc_on_the_grid():
    p = plan("cold-figure", 3, 10)
    t_low, t_top = p.t_switch[0], p.t_switch[-1]
    result = SimpleNamespace(points=[_point(t_low, 50.0, 80.0),
                                     _point(t_top, 20.5, 20.0)])
    report = SimpleNamespace(failed=[
        f"T={t_top:g}: QBC <= BCS (QBC=20 BCS=20)",
        f"T={t_low:g}: index-based beat TP (TP=70 BCS=80)",
    ])
    broken, notes = child.claims(p, result, report)
    assert broken == [((t_low,), f"claim failed: {report.failed[1]}")]
    assert notes == [f"not gated: {report.failed[0]}"]

    result.points[0] = _point(t_low, 81.0, 80.0)
    broken, _ = child.claims(p, result, SimpleNamespace(failed=[]))
    assert [points for points, _ in broken] == [p.t_switch]


# -- the contract -------------------------------------------------------------

def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    out = bench("--workload", "cold-figure", "--seed", "0", "--seconds",
                "1", "--trace", "0", cwd=tmp_path)
    assert out.returncode != 0
    assert out.stdout.strip() == ""


# -- traced runs: exact counts and bypass predictions -------------------------

@pytest.fixture(scope="module")
def twice():
    return {w: (traced(w, 7), traced(w, 7)) for w in WORKLOADS}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run_reports_every_layer_metric(twice, workload):
    for result in twice[workload]:
        assert result["correct"] and result["failed"] == 0
        assert sorted(result["metrics"]) == sorted(DECLARED)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_counts_repeat_exactly(twice, workload):
    first, second = (
        {k: r["metrics"][k]["value"] for k in EXACT} for r in twice[workload]
    )
    assert first == second


@pytest.mark.parametrize("workload", WORKLOADS)
def test_trace_covers_the_wall_time(twice, workload):
    for result in twice[workload]:
        assert abs(result["metrics"]["trace.coverage"]["value"] - 1) < 0.05


def _values(twice, workload):
    return {k: v["value"] for k, v in twice[workload][0]["metrics"].items()}


def test_cold_figure_generates_every_cell_and_reads_nothing(twice):
    m = _values(twice, "cold-figure")
    cells = plan("cold-figure", 7, 1).cells
    assert m["generate.calls"] == m["cache.misses"] == cells
    assert m["cache.bytes_read"] == 0 and m["cache.disk_hits"] == 0
    assert m["cache.bytes_written"] > 0


def test_warm_figure_serves_every_cell_from_disk(twice):
    m = _values(twice, "warm-figure")
    cells = plan("warm-figure", 7, 1).cells
    assert m["generate.calls"] == 0
    assert m["cache.disk_hits"] == m["lower.calls"] == cells
    assert m["cache.bytes_written"] == 0


def test_replay_zoo_timed_passes_hit_memory_only(twice):
    m = _values(twice, "replay-zoo")
    cells = plan("replay-zoo", 7, 1).cells
    assert m["generate.calls"] == 0
    assert m["cache.disk_hits"] == 0 and m["cache.bytes_read"] == 0
    assert m["cache.hits"] == cells
    assert m["lower.calls"] == 0
    assert m["replay.runs.fused"] == cells  # auto falls back for the zoo


def test_traced_run_writes_a_chrome_trace(twice):
    path = ROOT / ".perfbench_work" / "traces" / "warm-figure-seed7.json"
    events = json.loads(path.read_text())["traceEvents"]
    assert {e["ph"] for e in events} == {"X"}
    cells = {e["args"]["cell"] for e in events if "cell" in e["args"]}
    assert len(cells) == plan("warm-figure", 7, 1).cells
    assert any(e["name"] == "sweep" for e in events)  # the pass spans
