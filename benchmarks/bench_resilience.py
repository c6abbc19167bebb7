"""Resilience-layer overhead benchmarks.

The supervision wrapper (per-task deadline plumbing, retry accounting,
error taxonomy) and the fsynced sweep journal both sit on the hot path
of every (point, seed) task, so their cost must stay a small fraction
of the task itself.  Two cases:

* ``supervision_overhead`` -- identical serial sweep with and without
  the journal disabled vs the plain pre-resilience path is not
  reconstructable, so we measure the supervised sweep against the raw
  per-task body (``_evaluate_task``) summed over the same grid; the
  delta is everything the supervisor adds.
* ``journal_overhead`` -- the same sweep with and without an fsynced
  journal; the delta is the ledger's price per task.

Headline numbers are appended to ``BENCH_resilience.json`` (same
merge-don't-clobber idiom as ``BENCH_engine.json``) so CI can archive
the trend.
"""

import json
import os
import time

from repro.experiments.config import SweepConfig
from repro.experiments.runner import _evaluate_task, run_sweep
from repro.workload import WorkloadConfig

BENCH_JSON = os.environ.get(
    "REPRO_BENCH_RESILIENCE_JSON", "BENCH_resilience.json"
)

GRID = dict(t_switch_values=(100.0, 500.0, 2000.0), seeds=(0, 1))


def _record(case: str, payload: dict) -> None:
    """Merge one case's numbers into ``BENCH_resilience.json``."""
    data = {}
    if os.path.exists(BENCH_JSON):
        try:
            with open(BENCH_JSON) as fh:
                data = json.load(fh)
        except (OSError, ValueError):
            data = {}
    data[case] = payload
    with open(BENCH_JSON, "w") as fh:
        json.dump(data, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _best(fn, rounds: int):
    best = float("inf")
    value = None
    for _ in range(rounds):
        t0 = time.perf_counter()
        value = fn()
        best = min(best, time.perf_counter() - t0)
    return best, value


def _sweep_config(tmp_path, **overrides):
    kw = dict(
        base=WorkloadConfig(sim_time=1500.0),
        workers=0,
        cache_dir=str(tmp_path / "cache"),
        **GRID,
    )
    kw.update(overrides)
    return SweepConfig(**kw).validate()


def test_supervision_overhead(benchmark, tmp_path):
    """The supervised serial sweep must cost < 25% over the bare task
    bodies run back to back on a warm cache."""
    config = _sweep_config(tmp_path)
    run_sweep(config)  # warm the trace cache so both sides replay only

    cells = [
        (t, seed) for t in config.t_switch_values for seed in config.seeds
    ]

    def bare():
        return [_evaluate_task(config, t, seed) for t, seed in cells]

    bare_time, _ = _best(bare, rounds=5)
    sup_time, result = benchmark.pedantic(
        lambda: _best(lambda: run_sweep(config), rounds=5),
        rounds=1,
        iterations=1,
    )
    assert result.complete
    overhead = sup_time / bare_time - 1.0
    payload = {
        "bare_ms": round(bare_time * 1e3, 2),
        "supervised_ms": round(sup_time * 1e3, 2),
        "overhead_pct": round(100 * overhead, 1),
    }
    benchmark.extra_info.update(payload)
    _record("supervision_overhead", payload)
    assert overhead < 0.25, (
        f"supervision adds {100 * overhead:.1f}% over the bare task loop "
        f"({sup_time * 1e3:.1f}ms vs {bare_time * 1e3:.1f}ms)"
    )


def test_journal_overhead(benchmark, tmp_path):
    """An fsynced journal entry per task must stay cheap relative to the
    task (< 100% even on a warm cache, where tasks are at their
    cheapest and the journal is proportionally most expensive)."""
    plain_cfg = _sweep_config(tmp_path)
    run_sweep(plain_cfg)  # warm cache
    plain_time, _ = _best(lambda: run_sweep(plain_cfg), rounds=5)

    counter = [0]

    def journaled():
        counter[0] += 1
        path = str(tmp_path / f"journal-{counter[0]}.jsonl")
        return run_sweep(_sweep_config(tmp_path, journal_path=path))

    journal_time, result = benchmark.pedantic(
        lambda: _best(journaled, rounds=5), rounds=1, iterations=1
    )
    assert result.complete
    n_tasks = len(GRID["t_switch_values"]) * len(GRID["seeds"])
    per_task_ms = (journal_time - plain_time) * 1e3 / n_tasks
    payload = {
        "plain_ms": round(plain_time * 1e3, 2),
        "journaled_ms": round(journal_time * 1e3, 2),
        "per_task_journal_ms": round(per_task_ms, 3),
    }
    benchmark.extra_info.update(payload)
    _record("journal_overhead", payload)
    assert journal_time < plain_time * 2.0, (
        f"journal doubles the warm sweep: {journal_time * 1e3:.1f}ms vs "
        f"{plain_time * 1e3:.1f}ms"
    )
