"""Engine micro-benchmarks: DES event throughput and replay speed.

Not a paper experiment -- these guard the substrate's performance so the
figure sweeps stay tractable (the whole methodology leans on cheap
trace generation and cheaper replay).

The replay cases run through the unified execution engine
(:mod:`repro.engine`), so the timings cover the full production path:
plan resolution, observer dispatch and result assembly, not just the
inner loops.  A ``fused`` request plans the batch kernels whenever
every protocol ships them, so the cases that time the per-event loop
hide the kernels (:func:`repro.testing.loop_factories`) and check
that the run really took the loop.  ``test_engine_overhead`` pins the
cost of the engine layer -- a loop run through the engine must stay
within a few percent of calling :func:`repro.core.replay.replay_fused`
directly (this file is the one sanctioned raw call site outside the
engine, allowlisted by ``tests/test_import_contracts.py``).
``test_long_horizon`` holds the kernels to the loop on one dense cell
at two horizons, and to linear growth between them.

``test_zoo_replay_speedup`` holds the kernels of the whole protocol
zoo to at least 4x the loop over the same set.

Besides the pytest-benchmark timings, the headline engine numbers
(fused-replay, vectorized-replay and zoo speedups, engine overhead,
trace-cache speedup, the fresh-trace cell, the long-horizon cell, the
figure path's cold-start import) are appended to
``BENCH_engine.json`` in the working directory so CI can archive the
trend without parsing benchmark output -- and gate
``vectorized_ms``, ``disk_hit_ms``, ``save_ms``, ``generate_ms`` and
``fresh_cell_ms`` against regressions (see .github/workflows/ci.yml).
"""

import dataclasses
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import repro
from repro.core.compiled import array_columns
from repro.core.replay import replay_fused
from repro.core.trace import Trace
from repro.core.trace_io import load_trace, save_trace
from repro.des import Environment
from repro.engine import RunSpec, execute, resolve_protocols
from repro.experiments.config import SweepConfig
from repro.experiments.figures import figure_sweep_config
from repro.experiments.runner import run_sweep
from repro.testing import loop_factories
from repro.workload import TraceCache, WorkloadConfig, generate_trace

N_EVENTS = 50_000

#: The paper's three protocols, the fused engine's standard cargo.
PAPER_PROTOCOLS = ("TP", "BCS", "QBC")

#: Factory overrides that keep the paper protocols on the per-event
#: loop when a spec asks for ``engine="fused"``.
LOOP = loop_factories(PAPER_PROTOCOLS)

#: Every replayable protocol the package ships (perfbench's
#: ``replay-zoo`` set), and the gate of its kernels over the loop.
ZOO = ("TP", "BCS", "QBC", "BCS-NS", "QBC-NS", "UNC", "FDAS", "BQF")
ZOO_SPEEDUP = 4.0

BENCH_JSON = os.environ.get("REPRO_BENCH_ENGINE_JSON", "BENCH_engine.json")

#: Rounds of the few-ms disk-tier timings (``save_ms``, ``disk_hit_ms``).
CACHE_ROUNDS = 15

#: Interleaved raw/engine rounds of ``test_engine_overhead``.
OVERHEAD_ROUNDS = 21

#: ``test_long_horizon``'s horizons (the second double the first) and
#: its gates: kernels within this factor of the loop at each horizon,
#: and kernel time growing by at most this factor between them.
LONG_HORIZONS = (40_000.0, 80_000.0)
LONG_ROUNDS = 5
LONG_VS_LOOP = 1.5
LONG_GROWTH = 2.3


def _record(case: str, payload: dict) -> None:
    """Merge one case's numbers into ``BENCH_engine.json``."""
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
    """(best wall seconds, last return value) over *rounds* calls."""
    best = float("inf")
    value = None
    for _ in range(rounds):
        t0 = time.perf_counter()
        value = fn()
        best = min(best, time.perf_counter() - t0)
    return best, value


def _event_loop_throughput():
    """Callbacks run by the event loop: 16 chains sharing N_EVENTS
    reschedules."""
    env = Environment()
    remaining = [N_EVENTS]
    ticks = [0]

    def tick():
        ticks[0] += 1
        if remaining[0] > 0:
            remaining[0] -= 1
            env.call_later(1.0, tick)

    for _ in range(16):
        env.call_later(0.0, tick)
    env.run()
    return ticks[0]


def test_event_loop_throughput(benchmark):
    count = benchmark.pedantic(_event_loop_throughput, rounds=3, iterations=1)
    assert count >= N_EVENTS
    benchmark.extra_info["events"] = count


def test_trace_generation_throughput(benchmark):
    cfg = WorkloadConfig(t_switch=500.0, p_switch=0.8, sim_time=2000.0, seed=0)
    trace = benchmark.pedantic(generate_trace, args=(cfg,), rounds=3, iterations=1)
    benchmark.extra_info["trace_events"] = len(trace)
    assert len(trace) > 1000


def test_replay_throughput(benchmark):
    cfg = WorkloadConfig(t_switch=500.0, p_switch=0.8, sim_time=4000.0, seed=0)
    trace = generate_trace(cfg)
    spec = RunSpec(protocols=("QBC",), trace=trace, engine="reference")

    def run():
        return execute(spec).outcomes[0].n_total

    total = benchmark.pedantic(run, rounds=5, iterations=1)
    benchmark.extra_info["trace_events"] = len(trace)
    benchmark.extra_info["n_total"] = total


def test_fused_replay_speedup(benchmark):
    """The sweep engine's core claims: one fused counters-only pass
    (the per-event loop) over TP+BCS+QBC beats three sequential
    reference replays by >= 2x, and the vectorized batch kernels beat
    that loop by >= 10x on a warm trace -- all with identical N_tot /
    n_basic / n_forced, all paths through the engine layer."""
    cfg = WorkloadConfig(sim_time=4000.0, seed=0)
    trace = generate_trace(cfg)
    trace.compiled()  # the sweep compiles once per trace; warm it here

    ref_spec = RunSpec(
        protocols=PAPER_PROTOCOLS, trace=trace, engine="reference"
    )
    fused_spec = RunSpec(
        protocols=PAPER_PROTOCOLS, trace=trace, engine="fused",
        counters_only=True, factories=LOOP,
    )
    vec_spec = RunSpec(
        protocols=PAPER_PROTOCOLS, trace=trace, engine="vectorized",
        counters_only=True,
    )
    execute(vec_spec)  # warm the per-trace vectorized lowering + closure

    seq_time, seq_result = _best(lambda: execute(ref_spec), rounds=7)
    # A vectorized pass is ~1 ms, so host load moves any one round by
    # tens of percent; CI gates this number at 20%, and only a best of
    # many rounds measures the kernels rather than the neighbours.
    vec_time, vec_result = _best(lambda: execute(vec_spec), rounds=25)
    fused_time, fused_result = benchmark.pedantic(
        lambda: _best(lambda: execute(fused_spec), rounds=7),
        rounds=1, iterations=1,
    )
    assert fused_result.engine_kind == "fused"
    for ref, fus, vec in zip(
        seq_result.outcomes, fused_result.outcomes, vec_result.outcomes
    ):
        for got in (fus, vec):
            assert ref.metrics.stats.n_total == got.metrics.stats.n_total
            assert ref.metrics.stats.n_basic == got.metrics.stats.n_basic
            assert ref.metrics.stats.n_forced == got.metrics.stats.n_forced
    speedup = seq_time / fused_time
    vec_speedup = fused_time / vec_time
    payload = {
        "trace_events": len(trace),
        "sequential_ms": round(seq_time * 1e3, 2),
        "fused_ms": round(fused_time * 1e3, 2),
        "vectorized_ms": round(vec_time * 1e3, 3),
        "speedup": round(speedup, 2),
        "vectorized_speedup": round(vec_speedup, 2),
    }
    benchmark.extra_info.update(payload)
    _record("fused_replay", payload)
    assert speedup >= 2.0, (
        f"fused replay only {speedup:.2f}x faster than three sequential "
        f"replays ({seq_time*1e3:.1f}ms vs {fused_time*1e3:.1f}ms)"
    )
    assert vec_speedup >= 10.0, (
        f"vectorized replay only {vec_speedup:.2f}x faster than the fused "
        f"pass ({vec_time*1e3:.2f}ms vs {fused_time*1e3:.2f}ms)"
    )


def test_zoo_replay_speedup(benchmark):
    """The whole zoo on the batch kernels: one vectorized pass over
    every replayable protocol the package ships beats the per-event
    loop over the same set by >= 4x on a warm trace, with identical
    counters.  Both sides run in one process on one host, so the gate
    is a ratio that does not depend on the host."""
    cfg = WorkloadConfig(sim_time=4000.0, seed=0)
    trace = generate_trace(cfg)
    loop_spec = RunSpec(
        protocols=ZOO, trace=trace, engine="fused", counters_only=True,
        factories=loop_factories(ZOO),
    )
    vec_spec = RunSpec(
        protocols=ZOO, trace=trace, engine="fused", counters_only=True
    )
    execute(loop_spec)  # warm the compiled trace ...
    execute(vec_spec)  # ... and the vectorized lowering + closure

    loop_time, loop_result = _best(lambda: execute(loop_spec), rounds=7)
    vec_time, vec_result = benchmark.pedantic(
        lambda: _best(lambda: execute(vec_spec), rounds=25),
        rounds=1, iterations=1,
    )
    assert loop_result.engine_kind == "fused"
    assert vec_result.engine_kind == "vectorized"
    for loop, vec in zip(loop_result.outcomes, vec_result.outcomes):
        assert (
            vec.protocol.counter_signature()
            == loop.protocol.counter_signature()
        ), vec.name
    speedup = loop_time / vec_time
    payload = {
        "trace_events": len(trace),
        "protocols": len(ZOO),
        "loop_ms": round(loop_time * 1e3, 2),
        "vectorized_ms": round(vec_time * 1e3, 3),
        "speedup": round(speedup, 2),
    }
    benchmark.extra_info.update(payload)
    _record("zoo_replay", payload)
    assert speedup >= ZOO_SPEEDUP, (
        f"the zoo's vectorized pass only {speedup:.2f}x faster than the "
        f"loop ({vec_time*1e3:.2f}ms vs {loop_time*1e3:.2f}ms)"
    )


def test_engine_overhead(benchmark):
    """The engine layer is dispatch + bookkeeping only: a fused run
    through :func:`repro.engine.execute` must stay within a few percent
    of the raw :func:`~repro.core.replay.replay_fused` call it wraps.
    The two paths are timed interleaved (raw, engine, raw, engine, ...)
    and the gate reads the median of the per-round engine/raw ratios:
    both calls of a round share the host's load at that moment, and the
    median drops the rounds a load spike split unevenly.  (A ratio of
    two best-of-N times, the earlier statistic, pairs minima from
    different moments and swung from -13% to +28% on a shared 2-core
    host.)  The 10% gate is far above plan-resolution cost but far
    below any real regression (an accidental trace recompile or
    per-event observer work would be 2x+, not 1.1x)."""
    cfg = WorkloadConfig(sim_time=4000.0, seed=0)
    trace = generate_trace(cfg)
    trace.compiled()
    entries = resolve_protocols(PAPER_PROTOCOLS)

    def raw():
        instances = []
        for entry in entries:
            protocol = entry.make(cfg.n_hosts, cfg.n_mss)
            protocol.log_checkpoints = False
            instances.append(protocol)
        return replay_fused(trace, instances)

    spec = RunSpec(
        protocols=PAPER_PROTOCOLS, trace=trace, engine="fused",
        counters_only=True, factories=LOOP,
    )

    def engined():
        return execute(spec)

    def interleaved(rounds=OVERHEAD_ROUNDS):
        raw_times, engine_times = [], []
        raw_results = engine_result = None
        for _ in range(rounds):
            t0 = time.perf_counter()
            raw_results = raw()
            raw_times.append(time.perf_counter() - t0)
            t0 = time.perf_counter()
            engine_result = engined()
            engine_times.append(time.perf_counter() - t0)
        return raw_times, raw_results, engine_times, engine_result

    raw_times, raw_results, engine_times, engine_result = benchmark.pedantic(
        interleaved, rounds=1, iterations=1
    )
    assert engine_result.engine_kind == "fused"  # the loop on both sides
    for rr, outcome in zip(raw_results, engine_result.outcomes):
        assert rr.metrics.stats.n_total == outcome.metrics.stats.n_total
    overhead = statistics.median(
        e / r for e, r in zip(engine_times, raw_times)
    ) - 1.0
    payload = {
        "raw_fused_ms": round(min(raw_times) * 1e3, 2),
        "engine_fused_ms": round(min(engine_times) * 1e3, 2),
        "overhead_pct": round(100 * overhead, 2),
        "rounds": len(raw_times),
    }
    benchmark.extra_info.update(payload)
    _record("engine_overhead", payload)
    assert overhead <= 0.10, (
        f"engine adds {100*overhead:.1f}% over raw replay_fused (median "
        f"of {len(raw_times)} paired rounds; best {min(engine_times)*1e3:.2f}"
        f"ms vs {min(raw_times)*1e3:.2f}ms)"
    )


def test_trace_cache_warm_vs_cold(benchmark, tmp_path):
    """Warm (memory or disk) cache lookups must be far cheaper than
    regeneration; a warm end-to-end sweep regenerates nothing.

    ``generate_ms`` is the best of ``CACHE_ROUNDS`` fresh
    ``generate_trace`` calls (the columnar passes: this paper-model
    config is eligible), without the cache miss's save.  ``save_ms`` is
    that save alone (best of ``CACHE_ROUNDS`` ``save_trace`` calls) and
    ``disk_bytes_per_event`` the size of the entry it writes;
    ``disk_hit_ms`` is the best of ``CACHE_ROUNDS`` verified loads
    through a memory-less cache.  Each of the three takes a few ms, so
    CI's 20% gate on them only holds with many rounds."""
    cfg = WorkloadConfig(sim_time=2000.0, seed=0)
    cache = TraceCache(disk_dir=tmp_path)

    cold_time, generated = _best(
        lambda: generate_trace(cfg), rounds=CACHE_ROUNDS
    )
    trace = cache.get_or_generate(cfg)
    assert len(trace) == len(generated)
    warm_time, warm = benchmark.pedantic(
        lambda: _best(lambda: cache.get_or_generate(cfg), rounds=5),
        rounds=1,
        iterations=1,
    )
    assert warm is trace  # memory tier serves the same object
    assert cache.stats()["misses"] == 1

    disk_cache = TraceCache(max_entries=0, disk_dir=tmp_path)
    disk_time, disk_trace = _best(
        lambda: disk_cache.get_or_generate(cfg), rounds=CACHE_ROUNDS
    )
    assert disk_cache.stats()["misses"] == 0
    assert len(disk_trace) == len(trace)

    entry = tmp_path / "save.npz"
    save_time, _ = _best(lambda: save_trace(generated, entry), rounds=CACHE_ROUNDS)
    bytes_per_event = entry.stat().st_size / len(generated)

    sweep_base = WorkloadConfig(sim_time=1000.0)
    sweep_cfg = SweepConfig(
        base=sweep_base,
        t_switch_values=(300.0, 1000.0),
        seeds=(0, 1),
        workers=0,
        use_cache=True,
        cache_dir=str(tmp_path),
    )
    sweep_cold, cold_result = _best(lambda: run_sweep(sweep_cfg), rounds=1)
    sweep_warm, warm_result = _best(lambda: run_sweep(sweep_cfg), rounds=3)
    assert [p.runs for p in warm_result.points] == [
        p.runs for p in cold_result.points
    ]

    payload = {
        "generate_ms": round(cold_time * 1e3, 2),
        "memory_hit_ms": round(warm_time * 1e3, 4),
        "disk_hit_ms": round(disk_time * 1e3, 2),
        "save_ms": round(save_time * 1e3, 2),
        "disk_bytes_per_event": round(bytes_per_event, 1),
        "sweep_cold_ms": round(sweep_cold * 1e3, 2),
        "sweep_warm_ms": round(sweep_warm * 1e3, 2),
        "sweep_speedup": round(sweep_cold / sweep_warm, 2),
    }
    benchmark.extra_info.update(payload)
    _record("trace_cache", payload)
    assert warm_time < cold_time / 10, (
        f"memory hit ({warm_time*1e3:.2f}ms) should be >10x cheaper than "
        f"generation ({cold_time*1e3:.1f}ms)"
    )
    assert sweep_warm < sweep_cold, (
        f"warm sweep ({sweep_warm*1e3:.1f}ms) not faster than cold "
        f"({sweep_cold*1e3:.1f}ms)"
    )


def test_fresh_cell(benchmark, tmp_path):
    """What one warm sweep cell pays after the disk load: the fused
    ``execute`` of the paper protocols (which plans their batch
    kernels) over a column-backed trace that was never lowered before
    -- the vectorized lowering, the reachability closure, the kernels
    and the engine layer, without the load itself (that is
    ``disk_hit_ms``).  Every round loads a fresh trace, so no round
    reuses a cached lowering."""
    cfg = WorkloadConfig(sim_time=4000.0, seed=0)
    generated = generate_trace(cfg)
    path = tmp_path / "cell.npz"
    save_trace(generated, path)
    reference = execute(
        RunSpec(protocols=PAPER_PROTOCOLS, trace=generated, engine="fused",
                counters_only=True)
    )

    def fresh_rounds(rounds=9):
        best, result = float("inf"), None
        for _ in range(rounds):
            trace = load_trace(path, validate=False, verify=True)
            spec = RunSpec(
                protocols=PAPER_PROTOCOLS, trace=trace, engine="fused",
                counters_only=True,
            )
            t0 = time.perf_counter()
            result = execute(spec)
            best = min(best, time.perf_counter() - t0)
            assert "events" not in vars(trace)  # lowered from the columns
        return best, result

    best, result = benchmark.pedantic(fresh_rounds, rounds=1, iterations=1)
    for ref, got in zip(reference.outcomes, result.outcomes):
        assert ref.metrics.stats.n_total == got.metrics.stats.n_total
    payload = {
        "trace_events": len(generated),
        "fresh_cell_ms": round(best * 1e3, 2),
    }
    benchmark.extra_info.update(payload)
    _record("fresh_cell", payload)


def test_long_horizon(benchmark):
    """The kernels stay linear in the horizon.

    Fig. 1's ``T_switch``=100 cell has the most basic checkpoints per
    horizon of any figure cell, which is what made a one-bit-per-basic
    closure quadratic.  At each of ``LONG_HORIZONS`` the paper
    protocols run counters-only over a fresh (never lowered) copy of
    the trace, best of ``LONG_ROUNDS``, on the kernels and on the
    per-event loop: the kernels must stay within ``LONG_VS_LOOP`` of
    the loop, and doubling the horizon may grow their time by at most
    ``LONG_GROWTH``."""
    base = figure_sweep_config(
        1, sim_time=LONG_HORIZONS[0], t_switch_values=(100.0,)
    ).base

    def timed(trace, engine, factories):
        best, result = float("inf"), None
        for _ in range(LONG_ROUNDS):
            fresh = Trace.from_columns(array_columns(trace), dict(trace.meta))
            spec = RunSpec(
                protocols=PAPER_PROTOCOLS, trace=fresh, engine=engine,
                counters_only=True, factories=factories,
            )
            t0 = time.perf_counter()
            result = execute(spec)
            best = min(best, time.perf_counter() - t0)
        assert result.engine_kind == engine
        return best, [o.n_total for o in result.outcomes]

    def measure():
        rows = []
        for sim_time in LONG_HORIZONS:
            trace = generate_trace(
                dataclasses.replace(
                    base, sim_time=sim_time, t_switch=100.0, seed=0
                )
            )
            vec_s, vec_totals = timed(trace, "vectorized", None)
            loop_s, loop_totals = timed(trace, "fused", LOOP)
            assert vec_totals == loop_totals
            rows.append((sim_time, len(trace), vec_s, loop_s))
        return rows

    rows = benchmark.pedantic(measure, rounds=1, iterations=1)
    payload = {
        f"{int(sim_time)}": {
            "trace_events": n_events,
            "vectorized_ms": round(vec_s * 1e3, 1),
            "loop_ms": round(loop_s * 1e3, 1),
        }
        for sim_time, n_events, vec_s, loop_s in rows
    }
    growth = rows[1][2] / rows[0][2]
    payload["growth"] = round(growth, 2)
    benchmark.extra_info.update(payload)
    _record("long_horizon", payload)
    for sim_time, _, vec_s, loop_s in rows:
        assert vec_s <= LONG_VS_LOOP * loop_s, (
            f"kernels {vec_s*1e3:.0f}ms vs loop {loop_s*1e3:.0f}ms at "
            f"sim_time {sim_time:g} (> {LONG_VS_LOOP}x)"
        )
    assert growth <= LONG_GROWTH, (
        f"kernel time grew {growth:.2f}x from sim_time "
        f"{LONG_HORIZONS[0]:g} to {LONG_HORIZONS[1]:g} (> {LONG_GROWTH}x)"
    )


#: What a figure run imports before its first cell (perfbench's
#: ``child.import_program`` imports the same modules).
FIGURE_PATH_IMPORT = (
    "import repro.engine, repro.experiments.runner, "
    "repro.experiments.figures, repro.experiments.validation, "
    "repro.workload.cache"
)


def _fresh_import():
    """(import seconds, repro modules loaded) in a new interpreter."""
    src = str(Path(repro.__file__).resolve().parents[1])
    path = os.environ.get("PYTHONPATH")
    env = {**os.environ, "PYTHONPATH": src + (os.pathsep + path if path else "")}
    code = (
        "import json, sys, time; t0 = time.perf_counter(); "
        f"{FIGURE_PATH_IMPORT}; "
        "took = time.perf_counter() - t0; "
        "print(json.dumps([took, sum(m.split('.')[0] == 'repro' "
        "for m in sys.modules)]))"
    )
    out = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        check=True,
        env=env,
        timeout=120,
    )
    took, modules = json.loads(out.stdout.strip().splitlines()[-1])
    return took, modules


def test_cold_start(benchmark):
    """The figure path's import in a fresh interpreter: ``import_ms``
    is the best of 5 and ``repro_modules`` the number of ``repro``
    modules it loads.  ``import_ms`` is reported, not gated (it moves
    with host load); the module set is gated by
    ``tests/test_import_contracts.py``."""
    runs = benchmark.pedantic(
        lambda: [_fresh_import() for _ in range(5)], rounds=1, iterations=1
    )
    assert len({modules for _, modules in runs}) == 1
    payload = {
        "import_ms": round(min(took for took, _ in runs) * 1e3, 1),
        "repro_modules": runs[0][1],
    }
    benchmark.extra_info.update(payload)
    _record("cold_start", payload)
