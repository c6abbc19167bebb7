"""Observability overhead benchmarks: the full observer stack is cheap.

The observability layer (span tracing, the metrics registry) rides the existing :class:`~repro.engine.RunObserver`
lifecycle, so its entire cost is a handful of callback dispatches and
``perf_counter`` reads per run phase -- nothing per simulation event.
``test_observer_stack_overhead`` pins that contract: a fused
counters-only run with the full stack attached (``TimingObserver`` +
``MetricsObserver``) must stay within 5% of the
same run with no observers at all.  The two paths are timed interleaved
(bare, observed, bare, observed, ...) so host load drift hits both
equally.

Headline numbers are appended to ``BENCH_obs.json`` in the working
directory so CI can archive the trend without parsing benchmark output.
"""

import json
import os
import time

from repro.engine import MetricsObserver, RunSpec, TimingObserver, execute
from repro.workload import WorkloadConfig, generate_trace

PAPER_PROTOCOLS = ("TP", "BCS", "QBC")

BENCH_JSON = os.environ.get("REPRO_BENCH_OBS_JSON", "BENCH_obs.json")

#: Satellite gate from the issue: the full stack must cost < 5% wall
#: time over a bare fused run.  The dominant term is the run itself
#: (tens of ms of replay); the observers add microseconds of dispatch.
MAX_OVERHEAD = 0.05


def _record(case: str, payload: dict) -> None:
    """Merge one case's numbers into ``BENCH_obs.json``."""
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


def test_observer_stack_overhead(benchmark):
    cfg = WorkloadConfig(sim_time=4000.0, seed=0)
    trace = generate_trace(cfg)
    trace.compiled()  # warm the compiled form, as a sweep would

    def bare():
        return execute(
            RunSpec(
                protocols=PAPER_PROTOCOLS, trace=trace, engine="fused",
                counters_only=True,
            )
        )

    def observed():
        return execute(
            RunSpec(
                protocols=PAPER_PROTOCOLS, trace=trace, engine="fused",
                counters_only=True,
                observers=(TimingObserver(), MetricsObserver()),
            )
        )

    def interleaved(rounds=11):
        bare_best = observed_best = float("inf")
        bare_result = observed_result = None
        for _ in range(rounds):
            t0 = time.perf_counter()
            bare_result = bare()
            bare_best = min(bare_best, time.perf_counter() - t0)
            t0 = time.perf_counter()
            observed_result = observed()
            observed_best = min(observed_best, time.perf_counter() - t0)
        return bare_best, bare_result, observed_best, observed_result

    bare_time, bare_result, obs_time, obs_result = benchmark.pedantic(
        interleaved, rounds=1, iterations=1
    )
    # The stack is display/export only: identical outcomes either way.
    for b, o in zip(bare_result.outcomes, obs_result.outcomes):
        assert b.metrics.stats.n_total == o.metrics.stats.n_total
        assert b.metrics.stats.n_basic == o.metrics.stats.n_basic
        assert b.metrics.stats.n_forced == o.metrics.stats.n_forced
    assert not obs_result.observer_errors

    overhead = obs_time / bare_time - 1.0
    payload = {
        "trace_events": len(trace),
        "bare_fused_ms": round(bare_time * 1e3, 2),
        "observed_fused_ms": round(obs_time * 1e3, 2),
        "overhead_pct": round(100 * overhead, 2),
        "gate_pct": round(100 * MAX_OVERHEAD, 1),
    }
    benchmark.extra_info.update(payload)
    _record("observer_stack", payload)
    assert obs_time <= bare_time * (1.0 + MAX_OVERHEAD), (
        f"observer stack adds {100*overhead:.1f}% over a bare fused run "
        f"({obs_time*1e3:.2f}ms vs {bare_time*1e3:.2f}ms)"
    )


def test_tracer_span_cost(benchmark):
    """A single span is two clock reads and a list append -- the tracer
    must sustain well over 10^5 spans/s so per-phase instrumentation
    never shows up in a profile."""
    from repro.obs.tracing import Tracer

    tracer = Tracer()
    n = 10_000

    def spans():
        tracer.clear()
        for _ in range(n):
            with tracer.span("phase", protocol="TP"):
                pass
        return len(tracer)

    count = benchmark.pedantic(spans, rounds=3, iterations=1)
    assert count == n
    per_span_us = benchmark.stats.stats.min / n * 1e6
    payload = {"spans": n, "per_span_us": round(per_span_us, 3)}
    benchmark.extra_info.update(payload)
    _record("tracer_span", payload)
    assert per_span_us < 100, f"span costs {per_span_us:.1f}us"


def test_fleet_plane_overhead(benchmark, tmp_path):
    """The sweep exports (one merged registry, a Prometheus textfile
    and an OTLP-JSON artifact written at sweep end) must stay inside
    the same <5% envelope as the observer stack.  Measured over a
    serial sweep so the comparison is single-process and stable; a
    sharded sweep adds only each cell's series on its outcome frame."""
    from repro.experiments import SweepConfig, run_sweep
    from repro.workload import WorkloadConfig as WC

    def config(**fleet):
        return SweepConfig(
            base=WC(p_switch=0.8, sim_time=2000.0),
            t_switch_values=(100.0, 800.0),
            seeds=(0,),
            use_cache=False,
            progress=False,
            **fleet,
        )

    prom = tmp_path / "fleet.prom"
    otlp = tmp_path / "fleet-otlp.json"

    def plain():
        return run_sweep(config())

    def observed():
        return run_sweep(config(
            run_id="bench",
            prom_path=str(prom),
            otlp_path=str(otlp),
        ))

    def interleaved(rounds=7):
        plain_best = obs_best = float("inf")
        plain_result = obs_result = None
        for _ in range(rounds):
            t0 = time.perf_counter()
            plain_result = plain()
            plain_best = min(plain_best, time.perf_counter() - t0)
            t0 = time.perf_counter()
            obs_result = observed()
            obs_best = min(obs_best, time.perf_counter() - t0)
        return plain_best, plain_result, obs_best, obs_result

    plain_time, plain_result, obs_time, obs_result = benchmark.pedantic(
        interleaved, rounds=1, iterations=1
    )

    # Purely observational: identical values with exports on or off.
    for pp, op in zip(plain_result.points, obs_result.points):
        assert [  # full counter signature per run
            (r.protocol, r.seed, r.n_total, r.n_basic, r.n_forced)
            for r in pp.runs
        ] == [
            (r.protocol, r.seed, r.n_total, r.n_basic, r.n_forced)
            for r in op.runs
        ]
    assert prom.exists() and otlp.exists()

    overhead = obs_time / plain_time - 1.0
    payload = {
        "plain_sweep_ms": round(plain_time * 1e3, 2),
        "fleet_sweep_ms": round(obs_time * 1e3, 2),
        "overhead_pct": round(100 * overhead, 2),
        "gate_pct": round(100 * MAX_OVERHEAD, 1),
    }
    benchmark.extra_info.update(payload)
    _record("fleet_plane", payload)
    assert obs_time <= plain_time * (1.0 + MAX_OVERHEAD), (
        f"sweep exports add {100*overhead:.1f}% over a plain sweep "
        f"({obs_time*1e3:.2f}ms vs {plain_time*1e3:.2f}ms)"
    )
