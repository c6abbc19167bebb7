"""One fresh interpreter of the benchmark.

``run.py`` starts this script once per role, each in a new process:

``warm``
    Import the program and exit: a throwaway start that warms the OS
    file cache (and the bytecode cache) before anything is measured.
``prep``
    Fill the disk cache ``--cache-dir`` with the plan's traces, using the
    program's own cache.  One-off input preparation; never timed.
``setup``
    Import, build the sweep configs and prime (when the plan says so),
    then report the monotonic instant the first timed cell would start.
``run``
    Set up as above, run the timed passes, then check the outputs.
    With ``--trace 1`` the layer wrappers are on and the run also
    reports per-layer metrics and writes a Chrome trace.

Every role prints one JSON object as its last stdout line.
"""

from __future__ import annotations

import argparse
import json
import random
import resource
import sys
import time
from types import SimpleNamespace

import layers
from workloads import Plan, plan as make_plan

#: Cells per run replayed again on the reference engine.
REFERENCE_SAMPLE = 2

#: ``validate_figure``'s pointwise claim that must hold at every point.
GATED_CLAIM = "index-based beat TP"

#: ``validate_figure``'s pointwise claim that is reported, not gated.  At
#: the top points QBC and BCS tie on most seeds, and QBC's forced count
#: exceeds BCS's on a few per cent of traces (``repro.protocols.qbc``
#: documents the saving as an expectation, not a pointwise theorem), so
#: on a handful of seeds a point's mean flips by chance.  The claim
#: gates on the whole grid instead, where QBC's margin is wide.
TIE_CLAIM = "QBC <= BCS"


def import_program() -> tuple[float, SimpleNamespace]:
    """Import everything the timed phase calls; returns the seconds it
    took and the imported names."""
    started = time.perf_counter()
    from repro.engine import RunSpec, execute
    from repro.experiments import runner
    from repro.experiments.figures import figure_sweep_config
    from repro.experiments.validation import validate_figure
    from repro.workload.cache import TraceCache, shared_cache

    elapsed = time.perf_counter() - started
    return elapsed, SimpleNamespace(
        RunSpec=RunSpec,
        execute=execute,
        runner=runner,
        figure_sweep_config=figure_sweep_config,
        validate_figure=validate_figure,
        TraceCache=TraceCache,
        shared_cache=shared_cache,
    )


def sweep_config(p: Plan, prog, cache_dir: str, trace: bool):
    """The validated ``SweepConfig`` of one pass."""
    return prog.figure_sweep_config(
        p.figure,
        sim_time=p.sim_time,
        seeds=p.seeds,
        t_switch_values=p.t_switch,
        protocols=p.protocols,
        engine=p.engine,
        cache_dir=cache_dir,
        progress=False,
        trace_spans=trace,
    )


def cell_configs(p: Plan, prog) -> list:
    """The ``WorkloadConfig`` of every cell of the plan's grid."""
    base = sweep_config(p, prog, None, False).base
    return [base.with_(t_switch=t, seed=s) for t, s in p.grid]


def _prep_cell(cache_dir: str, config) -> None:
    from repro.workload.cache import TraceCache

    TraceCache(max_entries=0, disk_dir=cache_dir).get_or_generate(config)


def prep(p: Plan, cache_dir: str) -> dict:
    """Fill *cache_dir* with the grid's traces, in two processes."""
    from concurrent.futures import ProcessPoolExecutor
    from multiprocessing import get_context

    _, prog = import_program()
    configs = cell_configs(p, prog)
    with ProcessPoolExecutor(2, mp_context=get_context("spawn")) as pool:
        for done in [pool.submit(_prep_cell, cache_dir, c) for c in configs]:
            done.result()
    return {"cells": len(configs)}


def set_up(p: Plan, args, trace: bool):
    """Everything before the first timed cell: imports, configs and the
    priming pass.  Returns ``(import seconds, program, configs)``."""
    import_s, prog = import_program()
    configs = [sweep_config(p, prog, args.cache_dir, trace)
               for _ in range(p.passes)]
    if p.prime:
        prog.runner.run_sweep(sweep_config(p, prog, args.cache_dir, False))
    return import_s, prog, configs


def outcome_table(result) -> dict:
    """``(t_switch, seed) -> sorted protocol counter tuples``."""
    cells: dict = {}
    for point in result.points:
        for run in point.runs:
            cells.setdefault((point.t_switch, run.seed), []).append(
                (run.protocol, run.n_total, run.n_basic, run.n_forced,
                 run.n_replaced, run.n_sends, run.piggyback_ints)
            )
    return {key: sorted(rows) for key, rows in cells.items()}


def claims(p: Plan, result, report) -> tuple[list, list[str]]:
    """The figure claims one pass breaks, as ``(points, why)`` pairs,
    and the notes of the per-point "QBC <= BCS" failures; *report* is
    ``validate_figure(result)``."""
    broken: list = []
    notes: list[str] = []
    for t in p.t_switch:
        for failed in report.failed:
            if failed.startswith(f"T={t:g}: {GATED_CLAIM}"):
                broken.append(((t,), f"claim failed: {failed}"))
            elif failed.startswith(f"T={t:g}: {TIE_CLAIM}"):
                notes.append(f"not gated: {failed}")
    qbc, bcs = (sum(point.mean_total(name) for point in result.points)
                for name in ("QBC", "BCS"))
    if qbc > bcs:
        broken.append((p.t_switch, f"claim failed: grid {TIE_CLAIM} "
                                   f"(QBC={qbc:.1f} BCS={bcs:.1f})"))
    return broken, notes


def check(p: Plan, prog, results, cache_dir: str, seed: int):
    """Output check of the timed passes.  Returns ``(attempted, failed
    cells, notes)``; a failed cell is ``(pass, t_switch, seed)``."""
    grid = p.grid
    failed: set = set()
    notes: list[str] = []
    tables = [outcome_table(r) for r in results]

    def fail(n, cell, why):
        failed.add((n,) + cell)
        notes.append(f"pass {n} cell T={cell[0]:g} seed={cell[1]}: {why}")

    for n, result in enumerate(results):
        present = {(rec.t_switch, rec.seed) for rec in result.telemetry}
        for cell in grid:
            if cell not in present:
                fail(n, cell, "hole")
        for err in result.errors:
            fail(n, (err.t_switch, err.seed), f"quarantined ({err.kind})")
        for rec in result.telemetry:
            if rec.attempts > 1:
                fail(n, (rec.t_switch, rec.seed), f"{rec.attempts} attempts")
        if result.interrupted:
            notes.append(f"pass {n} was interrupted")
        for cell in grid:
            if cell in tables[n] and tables[n][cell] != tables[0].get(cell):
                fail(n, cell, "differs from pass 0")

    # A seeded sample replayed again on the reference engine.
    configs = {(c.t_switch, c.seed): c for c in cell_configs(p, prog)}
    cache = prog.TraceCache(max_entries=0, disk_dir=cache_dir)
    for cell in random.Random(seed).sample(grid, REFERENCE_SAMPLE):
        trace = cache.get_or_generate(configs[cell])
        ref = prog.execute(prog.RunSpec(
            protocols=p.protocols, trace=trace, engine="reference",
            counters_only=True, seed=cell[1],
        ))
        expected = sorted(
            (o.name, o.metrics.stats.n_total, o.metrics.stats.n_basic,
             o.metrics.stats.n_forced, o.metrics.stats.n_replaced,
             o.metrics.n_sends, o.metrics.piggyback_ints_total)
            for o in ref.outcomes
        )
        for n, table in enumerate(tables):
            if cell in table and table[cell] != expected:
                fail(n, cell, "differs from the reference engine")

    if p.claims:
        # A claim is about a point's mean (or the grid's): when it
        # fails, every cell it covers fails, in every pass.
        broken, claim_notes = claims(p, results[0],
                                     prog.validate_figure(results[0]))
        notes += claim_notes
        for points, why in broken:
            for n in range(len(results)):
                for t in points:
                    for s in p.seeds:
                        fail(n, (t, s), why)
    return p.cells, failed, notes


def run(p: Plan, args) -> dict:
    """The measured run: set up, time the passes, check the outputs."""
    trace = bool(args.trace)
    import_s, prog, configs = set_up(p, args, trace)
    from repro.obs.tracing import Tracer, write_chrome_trace

    own = Tracer()
    if trace:
        layers.install()
    results = []
    walls = []
    ready = time.monotonic()
    for n, config in enumerate(configs):
        if p.clear_memory:
            prog.shared_cache(config.cache_dir).clear()
        started = time.perf_counter()
        with own.span("sweep", **{"pass": n}):
            results.append(prog.runner.run_sweep(config))
        walls.append(time.perf_counter() - started)
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if trace:
        layers.uninstall()

    out = {
        "ready": ready,
        "import_s": import_s,
        "pass_walls": walls,
        "cells": p.cells,
        "peak_rss_mb": peak,
    }
    if trace:
        wall = sum(walls)
        metrics, table = layers.summarize(results, wall)
        out["layers"] = metrics
        out["table"] = layers.format_table(table, wall)
        if args.chrome:
            write_chrome_trace(args.chrome,
                               layers.chrome_spans(results, own.as_dicts()))
    attempted, failed, notes = check(p, prog, results, args.cache_dir,
                                     args.seed)
    out.update(attempted=attempted, failed=len(failed), notes=notes[:20])
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("role", choices=("warm", "prep", "setup", "run"))
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--cache-dir", help="the disk cache of the sweeps")
    ap.add_argument("--chrome", help="Chrome trace output path")
    args = ap.parse_args(argv)
    p = make_plan(args.workload, args.seed, args.seconds)
    if args.role == "warm":
        import_s, _ = import_program()
        out = {"import_s": import_s}
    elif args.role == "prep":
        out = prep(p, args.cache_dir)
    elif args.role == "setup":
        import_s, _, _ = set_up(p, args, False)
        out = {"ready": time.monotonic(), "import_s": import_s}
    else:
        out = run(p, args)
    sys.stdout.write(json.dumps(out) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
