"""Workload-layer benchmarks: streaming-compile memory and throughput,
and how often generation leaves the columnar path.

The streaming trace compiler
(:class:`~repro.core.compiled.StreamingCompiler`) exists so compilation
does not require the whole event list in memory; this bench *gates*
that claim.  Both pipelines consume the same synthetic 1M-event
schedule:

* **materialized** -- build the full ``TraceEvent`` list, then lower
  it into python-list columns with :func:`_materialized_compile` (the
  classic path, kept here as the reference: peak = event objects + the
  list columns);
* **streaming** -- feed events one at a time into a
  ``StreamingCompiler`` and ``finish()`` it into ``ArrayColumns``
  (peak = the 56 bytes/event output columns plus what is still staged
  while the last one widens: the narrow parts are 33 bytes/event, and
  ``etype``, 1 byte/event, widens last).

Peaks are measured with ``tracemalloc`` (numpy allocations register
with it), and the gate requires the streaming peak under 25% of the
materialized one.  Headline numbers land in ``BENCH_workload.json`` so
CI can archive the trend.

``REPRO_BENCH_WORKLOAD_EVENTS`` overrides the event count (default
1_000_000; CI may shrink it -- the gate is a ratio, so it holds at any
size past the staging block).

:func:`test_columnar_fallback_rate` generates every cell of the paper's
Fig. 1-6 grids (sim_time 2000, seeds 0-2) through ``generate_trace``
and reads the path each took from the
``repro_trace_generate_total{path, reason}`` counter: at most 1% may
fall back to the event loop.

:func:`test_sweep_peak_rss_with_cache` runs a Fig. 3 sweep over 3 seeds
(21 cells, more than the trace cache's 16-entry memory tier) twice, in
fresh processes: with the default cache and with ``use_cache=False``.
The cached sweep's peak RSS may be at most 1.25x the uncached one.
"""

import json
import os
import subprocess
import sys
import time
import tracemalloc

import numpy as np

from repro.core.compiled import (
    DISCONNECT,
    INTERNAL,
    RECEIVE,
    SEND,
    StreamingCompiler,
    array_columns,
    compile_trace,
)
from repro.core.trace import EventType, Trace, TraceError, TraceEvent
from repro.experiments.figures import FIGURE_PARAMS, figure_sweep_config
from repro.obs.metrics import registry
from repro.workload.config import WorkloadConfig
from repro.workload.driver import _Driver, generate_trace
from repro.workload.scenarios import T_SWITCH_SWEEP

N_EVENTS = int(os.environ.get("REPRO_BENCH_WORKLOAD_EVENTS", "1000000"))
N_HOSTS = 10
N_MSS = 5

BENCH_JSON = os.environ.get(
    "REPRO_BENCH_WORKLOAD_JSON", "BENCH_workload.json"
)

#: The gate: streaming peak must stay under this fraction of the
#: materialized peak.
PEAK_RATIO_GATE = 0.25

#: At most this share of the Fig. 1-6 grid cells may fall back from
#: columnar generation to the event loop.
FALLBACK_RATE_GATE = 0.01

#: Peak RSS of a cached sweep over more cells than the memory tier
#: holds, as a multiple of the same sweep uncached.
SWEEP_RSS_RATIO_GATE = 1.25

#: Horizon of that sweep: long enough that traces, not imports, set
#: the peak (~85k events in the largest cell).
SWEEP_RSS_SIM_TIME = 10_000.0

#: One sweep in a fresh interpreter; prints its peak RSS in MiB.  It
#: reads ``VmHWM``, the high-water mark of this process's own memory:
#: ``ru_maxrss`` keeps the forking process's peak across ``exec``.
_SWEEP_RSS_CHILD = """
import sys
from repro.experiments.figures import figure_sweep_config
from repro.experiments.runner import run_sweep
run_sweep(figure_sweep_config(
    3, sim_time=float(sys.argv[1]), seeds=(0, 1, 2),
    use_cache=sys.argv[2] == "cached", progress=False,
))
with open("/proc/self/status") as fh:
    print(next(int(l.split()[1]) for l in fh if l.startswith("VmHWM:")) / 1024)
"""


def _record(case: str, payload: dict) -> None:
    """Merge one case's numbers into ``BENCH_workload.json``."""
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


def _synthetic_events(n: int):
    """Deterministic n-event schedule: send/receive pairs + filler.

    Same shape either pipeline sees from the driver, without paying the
    simulator's cost for a million events: every third event is a SEND,
    matched by a RECEIVE two events later, with INTERNAL filler.
    """
    time = 0.0
    msg = 0
    i = 0
    while i < n:
        time += 0.25
        if i % 3 == 0 and i + 2 < n:
            src = i % N_HOSTS
            dst = (i + 1) % N_HOSTS
            yield time, int(EventType.SEND), src, msg, dst, -1
            yield time + 0.1, int(EventType.INTERNAL), dst, -1, -1, -1
            yield time + 0.2, int(EventType.RECEIVE), dst, msg, src, -1
            msg += 1
            i += 3
        else:
            yield time, int(EventType.INTERNAL), i % N_HOSTS, -1, -1, -1
            i += 1


def _materialized_compile(events: list[TraceEvent]) -> dict:
    """The classic events-to-lists lowering, one pass over the event
    list: the six event columns, the dense send ``slot`` column and the
    fused engine's ``argv`` tuples as python lists, plus the send and
    receive counts.  The library compiles events through a
    ``StreamingCompiler`` instead; this is the reference it replaced,
    kept as the gate's denominator (and checked against the library in
    :func:`test_driver_columns_match_and_record`)."""
    n = len(events)
    etype: list[int] = [0] * n
    time: list[float] = [0.0] * n
    host: list[int] = [0] * n
    msg_id: list[int] = [0] * n
    peer: list[int] = [0] * n
    cell: list[int] = [0] * n
    slot: list[int] = [-1] * n
    argv: list[tuple] = [()] * n
    open_sends: dict[int, int] = {}
    n_sends = 0
    n_receives = 0
    for i, ev in enumerate(events):
        et = int(ev.etype)
        etype[i] = et
        time[i] = ev.time
        host[i] = ev.host
        msg_id[i] = ev.msg_id
        peer[i] = ev.peer
        cell[i] = ev.cell
        if et == SEND:
            if ev.msg_id in open_sends:
                raise TraceError(f"duplicate send of msg {ev.msg_id}")
            open_sends[ev.msg_id] = n_sends
            slot[i] = n_sends
            n_sends += 1
            argv[i] = (ev.host, ev.peer, ev.time)
        elif et == RECEIVE:
            try:
                slot[i] = open_sends.pop(ev.msg_id)
            except KeyError:
                raise TraceError(
                    f"receive of msg {ev.msg_id} that was never sent or "
                    "was already consumed"
                ) from None
            n_receives += 1
            argv[i] = (ev.host, ev.peer, ev.time)
        elif et == DISCONNECT:
            argv[i] = (ev.host, ev.time)
        elif et != INTERNAL:  # CELL_SWITCH / RECONNECT
            argv[i] = (ev.host, ev.time, ev.cell)
    return {
        "n_events": n,
        "n_sends": n_sends,
        "n_receives": n_receives,
        "etype": etype,
        "time": time,
        "host": host,
        "msg_id": msg_id,
        "peer": peer,
        "cell": cell,
        "slot": slot,
        "argv": argv,
    }


def _materialized_peak(n: int) -> tuple[int, int]:
    """(peak bytes, n_events) of the event-list + list-lowering path."""
    tracemalloc.start()
    try:
        events = [
            TraceEvent(
                time=t, etype=EventType(et), host=h, msg_id=m, peer=p, cell=c
            )
            for t, et, h, m, p, c in _synthetic_events(n)
        ]
        compiled = _materialized_compile(events)
        _, peak = tracemalloc.get_traced_memory()
        return peak, compiled["n_events"]
    finally:
        tracemalloc.stop()


def _streaming_peak(n: int) -> tuple[int, int]:
    """(peak bytes, n_events) of the StreamingCompiler path, through
    ``finish()`` and its widened ``ArrayColumns``."""
    tracemalloc.start()
    try:
        compiler = StreamingCompiler(
            n_hosts=N_HOSTS, n_mss=N_MSS, sim_time=float(n)
        )
        for t, et, h, m, p, c in _synthetic_events(n):
            compiler.feed(t, et, h, m, p, c)
        columns = compiler.finish()
        _, peak = tracemalloc.get_traced_memory()
        return peak, columns.n_events
    finally:
        tracemalloc.stop()


def test_streaming_compile_peak_memory():
    """The tentpole gate: streaming peak < 25% of materialized peak."""
    mat_peak, mat_events = _materialized_peak(N_EVENTS)
    stream_peak, stream_events = _streaming_peak(N_EVENTS)
    assert mat_events == stream_events
    ratio = stream_peak / mat_peak
    _record(
        "streaming_peak",
        {
            "n_events": mat_events,
            "materialized_peak_mb": round(mat_peak / 1e6, 2),
            "streaming_peak_mb": round(stream_peak / 1e6, 2),
            "ratio": round(ratio, 4),
            "gate": PEAK_RATIO_GATE,
        },
    )
    assert ratio < PEAK_RATIO_GATE, (
        f"streaming compile peaked at {stream_peak / 1e6:.1f} MB = "
        f"{ratio:.1%} of the materialized {mat_peak / 1e6:.1f} MB "
        f"(gate: {PEAK_RATIO_GATE:.0%})"
    )


def test_streaming_throughput(benchmark):
    """Events/second through the streaming compiler (no gate)."""
    n = min(N_EVENTS, 200_000)

    def _run():
        compiler = StreamingCompiler(
            n_hosts=N_HOSTS, n_mss=N_MSS, sim_time=float(n)
        )
        for t, et, h, m, p, c in _synthetic_events(n):
            compiler.feed(t, et, h, m, p, c)
        return compiler.finish()

    columns = benchmark.pedantic(_run, rounds=3, iterations=1)
    rate = columns.n_events / benchmark.stats.stats.mean
    _record(
        "streaming_throughput",
        {"n_events": columns.n_events, "events_per_s": round(rate)},
    )
    assert columns.n_events == n


def test_driver_columns_match_and_record():
    """Driver-level identity on a real (small) simulation: the columns
    the event loop compiles as it runs and the fused lowering equal the
    materialized reference over the generated trace's events; plus
    bookkeeping."""
    cfg = WorkloadConfig(sim_time=500.0).validate()
    looped = _Driver(cfg).run()
    trace = generate_trace(cfg)
    reference = _materialized_compile(trace.events)
    cols = array_columns(looped)
    for name in ("etype", "time", "host", "msg_id", "peer", "cell", "slot"):
        np.testing.assert_array_equal(
            getattr(cols, name), reference[name], err_msg=name
        )
    events = Trace(
        n_hosts=trace.n_hosts,
        n_mss=trace.n_mss,
        events=list(trace.events),
        sim_time=trace.sim_time,
    )
    for lowered in (compile_trace(trace), compile_trace(events)):
        for name in ("n_events", "n_sends", "n_receives", "etype", "slot", "argv"):
            assert getattr(lowered, name) == reference[name], name
    assert array_columns(events).n_sends == cols.n_sends
    _record(
        "driver_columns_identity",
        {"sim_time": cfg.sim_time, "n_events": cols.n_events, "ok": True},
    )


def _generate_paths() -> dict:
    """``repro_trace_generate_total`` series: ``"path/reason"`` -> count."""
    out = {}
    for series in registry().snapshot()["series"]:
        if series["name"] == "repro_trace_generate_total":
            labels = dict(series["labels"])
            out[f"{labels['path']}/{labels['reason']}"] = series["value"]
    return out


def test_columnar_fallback_rate():
    """Every Fig. 1-6 grid cell through ``generate_trace``: the share
    that fell back to the event loop, gated at 1%, plus the generation
    cost per event on each path (the loop timed on the Fig. 6 grid)."""
    configs = [
        figure_sweep_config(figure, sim_time=2000.0).base.with_(
            t_switch=t, seed=seed
        )
        for figure in sorted(FIGURE_PARAMS)
        for t in T_SWITCH_SWEEP
        for seed in (0, 1, 2)
    ]
    before = _generate_paths()
    events = 0
    started = time.perf_counter()
    for cfg in configs:
        events += len(generate_trace(cfg))
    generate_s = time.perf_counter() - started
    after = _generate_paths()
    paths = {
        key: after[key] - before.get(key, 0)
        for key in after
        if after[key] != before.get(key, 0)
    }
    assert sum(paths.values()) == len(configs)
    fallbacks = sum(n for key, n in paths.items() if key.startswith("loop/"))
    rate = fallbacks / len(configs)
    fig6 = [c for c in configs if c.p_switch == 0.8 and c.heterogeneity == 0.3]
    started = time.perf_counter()
    loop_events = sum(len(_Driver(cfg).run()) for cfg in fig6[::3])
    loop_s = time.perf_counter() - started
    _record(
        "columnar_fallback",
        {
            "cells": len(configs),
            "paths": paths,
            "fallback_rate": rate,
            "gate": FALLBACK_RATE_GATE,
            "generate_us_per_event": round(generate_s / events * 1e6, 3),
            "loop_us_per_event_fig6": round(loop_s / loop_events * 1e6, 3),
        },
    )
    assert rate <= FALLBACK_RATE_GATE, (
        f"{fallbacks} of {len(configs)} grid cells fell back to the "
        f"event loop ({paths})"
    )


def _sweep_peak_rss_mb(mode: str) -> float:
    """Peak RSS (MiB) of the Fig. 3 sweep in a fresh process; *mode*
    is ``"cached"`` (default cache settings, memory tier only) or
    ``"uncached"``."""
    env = {k: v for k, v in os.environ.items() if k != "REPRO_TRACE_CACHE_DIR"}
    out = subprocess.run(
        [sys.executable, "-c", _SWEEP_RSS_CHILD, repr(SWEEP_RSS_SIM_TIME),
         mode],
        env=env, capture_output=True, text=True, check=True,
    )
    return float(out.stdout.split()[-1])


def test_sweep_peak_rss_with_cache():
    """A sweep over more cells than the memory tier holds keeps none
    of its traces, so the cache costs it no memory: peak RSS at most
    1.25x the uncached sweep's."""
    cached = _sweep_peak_rss_mb("cached")
    uncached = _sweep_peak_rss_mb("uncached")
    ratio = cached / uncached
    _record(
        "sweep_peak_rss",
        {
            "figure": 3,
            "sim_time": SWEEP_RSS_SIM_TIME,
            "cells": 21,
            "cached_peak_mb": round(cached, 1),
            "uncached_peak_mb": round(uncached, 1),
            "ratio": round(ratio, 3),
            "gate": SWEEP_RSS_RATIO_GATE,
        },
    )
    assert ratio <= SWEEP_RSS_RATIO_GATE, (
        f"cached sweep peaked at {cached:.0f} MiB = {ratio:.2f}x the "
        f"uncached {uncached:.0f} MiB (gate: {SWEEP_RSS_RATIO_GATE}x)"
    )
