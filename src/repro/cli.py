"""Command-line interface: ``python -m repro <subcommand>``.

Subcommands
-----------
``figure``
    Run one of the paper's six figure sweeps, print the paper-style
    report and the shape validation.
``compare``
    One workload, every replayable protocol, one table.
``trace``
    Generate a workload trace and save it (npz) for later replay.
``replay``
    Replay a saved trace through one or more protocols.
``recovery``
    Inject a failure on a workload and report the rollback costs.
``audit``
    Sweep a config grid with the invariant audit armed (orphan-freedom
    of recovery lines, fused-vs-reference equivalence, counter/log
    consistency) and print the violation/telemetry report.
``tail``
    Follow a sweep journal (written by ``figure --journal``: task
    lines, plus heartbeats and a closing summary while ``--progress``
    is on) and print a live summary.  Survives log truncation and
    rotation.
``dash``
    Live TTY dashboard over the same journal: per-worker throughput,
    cache-tier hit rates, retry/quarantine counts and per-protocol
    forced-checkpoint-rate sparklines.
``protocols``
    List every registered protocol -- builtin and plugin-contributed --
    with capabilities and origin, plus any plugin load errors.
``conformance``
    Run the protocol conformance batteries (counter-signature shape,
    engine equivalence, determinism, orphan-freedom, ...) against one
    or more registered protocols and print a per-battery table.
``shard-worker``
    Join a running sharded sweep (``figure --shard-listen``) as an
    external worker process; leases, executes and streams back shards
    until the coordinator drains it.

Exit codes are standardized across subcommands: 0 = success, 1 =
violations / failed validation / grid holes, 2 = usage error, 130 =
interrupted (SIGINT drained a partial result).
"""

from __future__ import annotations

import argparse
import sys
from typing import Optional, Sequence

#: Standard exit codes (also documented in docs/resilience.md).
EXIT_OK = 0
EXIT_FAILURE = 1  # violations, failed validation, quarantined holes
EXIT_USAGE = 2  # argparse errors, unknown protocols
EXIT_INTERRUPTED = 130  # 128 + SIGINT, the shell convention


def _add_workload_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--hosts", type=int, default=10)
    parser.add_argument("--mss", type=int, default=5)
    parser.add_argument("--p-send", type=float, default=0.4)
    parser.add_argument("--t-switch", type=float, default=1000.0)
    parser.add_argument("--p-switch", type=float, default=0.8)
    parser.add_argument("--heterogeneity", type=float, default=0.0)
    parser.add_argument("--sim-time", type=float, default=10_000.0)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--workload", default=None, metavar="NAME[:K=V,...]",
        help="registered workload model shaping the run (e.g. "
        "'zipf:alpha=1.1'; see 'repro workloads'; default: paper)",
    )


def _workload_from(args):
    from repro.workload.config import WorkloadConfig

    extra = {}
    workload = getattr(args, "workload", None)
    if workload:
        from repro.workload.registry import resolve_workload_spec

        name, params = resolve_workload_spec(workload)
        extra = {"workload": name, "workload_params": params}
    return WorkloadConfig(
        n_hosts=args.hosts,
        n_mss=args.mss,
        p_send=args.p_send,
        t_switch=args.t_switch,
        p_switch=args.p_switch,
        heterogeneity=args.heterogeneity,
        sim_time=args.sim_time,
        seed=args.seed,
        **extra,
    ).validate()


def _cmd_figure(args) -> int:
    from repro.experiments import (
        JournalExists,
        figure_report,
        run_figure,
        validate_figure,
    )

    resume = args.resume
    journal = args.journal
    if resume and journal is None:
        # Resuming normally wants new completions appended to the same
        # ledger, so --resume implies --journal at the same path.
        journal = resume
    try:
        result = run_figure(
            args.number,
            sim_time=args.sim_time,
            seeds=tuple(args.seeds),
            t_switch_values=tuple(args.sweep),
            engine=args.engine,
            workload=args.workload,
            workers=args.workers,
            use_cache=not args.no_cache,
            cache_dir=args.cache_dir,
            audit=args.audit,
            task_timeout_s=args.task_timeout,
            max_task_retries=args.retries,
            journal_path=journal,
            resume_from=resume,
            progress=args.progress,
            trace_path=args.trace,
            shard_listen=args.shard_listen,
            shard_size=args.shard_size,
            run_id=args.run_id,
            prom_path=args.prom,
            otlp_path=args.otlp,
        )
    except JournalExists as exc:
        print(exc, file=sys.stderr)
        return EXIT_USAGE
    if result.interrupted:
        done = sum(len(p.telemetry) for p in result.points)
        total = len(result.config.t_switch_values) * len(result.config.seeds)
        print(
            f"interrupted: {done}/{total} tasks finished"
            + (f" (journal: {journal})" if journal else "")
        )
        return EXIT_INTERRUPTED
    print(figure_report(result, figure=args.number))
    report = validate_figure(result, spread_tolerance=args.spread_tolerance)
    print()
    print(report)
    ok = report.ok
    if result.errors:
        print()
        print(f"{len(result.errors)} task(s) quarantined (holes in the grid):")
        for error in result.errors:
            print(f"  {error}")
        ok = False
    if args.audit:
        from repro.experiments import validate_audit

        audit_report = validate_audit(result)
        print()
        print(audit_report)
        for violation in result.violations:
            print(f"  {violation}")
        ok = ok and audit_report.ok
    return EXIT_OK if ok else EXIT_FAILURE


def _cmd_tail(args) -> int:
    import os
    import time as _time

    from repro.obs.dash import JsonlFollower
    from repro.obs.telemetry import tail_summary

    if args.once:
        if not os.path.exists(args.path):
            print(f"{args.path}: no such file", file=sys.stderr)
            return EXIT_USAGE
        follower = JsonlFollower(args.path)
        follower.poll()
        print(tail_summary(follower.records))
        return EXIT_OK
    # Follow mode: an incremental reader keeps its offset between
    # polls and reopens from the start on truncation/rotation (stat
    # size below offset, or inode change), so a rotated file never
    # stalls the summary at a stale offset (KeyboardInterrupt -> 130
    # via main()).
    follower = JsonlFollower(args.path)
    first = True
    while True:
        if follower.poll() or first:
            if not first:
                print("---")
            print(tail_summary(follower.records) if follower.records else
                  f"(waiting for {args.path})")
            first = False
        _time.sleep(args.interval)


def _cmd_dash(args) -> int:
    import os

    from repro.obs.dash import run_dashboard

    if args.once and not os.path.exists(args.path):
        print(f"{args.path}: no such file", file=sys.stderr)
        return EXIT_USAGE
    return run_dashboard(
        args.path,
        interval_s=args.interval,
        once=args.once,
        width=args.width,
    )


def _cmd_audit(args) -> int:
    from repro.experiments.config import SweepConfig
    from repro.experiments.resilience import JournalExists
    from repro.obs.audit import run_audit_grid

    base = _workload_from(args)
    try:
        config = SweepConfig(
            base=base,
            t_switch_values=tuple(args.sweep),
            protocols=tuple(args.protocols),
            seeds=tuple(args.seeds),
            workers=args.workers,
            use_cache=not args.no_cache,
            cache_dir=args.cache_dir,
            audit=True,
            journal_path=args.journal,
        ).validate()
    except ValueError as exc:
        print(exc, file=sys.stderr)
        return EXIT_USAGE
    try:
        grid = run_audit_grid(config)
    except JournalExists as exc:
        print(exc, file=sys.stderr)
        return EXIT_USAGE
    if grid.sweep.interrupted:
        done = sum(len(p.telemetry) for p in grid.sweep.points)
        total = len(config.t_switch_values) * len(config.seeds)
        print(f"interrupted: {done}/{total} tasks finished")
        return EXIT_INTERRUPTED
    print(grid.report())
    ok = grid.ok and not grid.sweep.errors
    return EXIT_OK if ok else EXIT_FAILURE


def _cmd_compare(args) -> int:
    from repro.engine import RunSpec, execute

    cfg = _workload_from(args)
    # Replay engines only: compare is the paper's common-schedule
    # comparison, so a coordinated baseline (or any unknown name) is a
    # plan-time EngineError that main() turns into exit code 2.
    result = execute(
        RunSpec(protocols=args.protocols, workload=cfg, engine=args.engine)
    )
    print(
        f"{'protocol':>9} {'N_tot':>8} {'basic':>7} {'forced':>7} "
        f"{'pg ints/msg':>12}"
    )
    for outcome in result.outcomes:
        s = outcome.metrics.stats
        print(
            f"{outcome.name:>9} {s.n_total:>8} {s.n_basic:>7} {s.n_forced:>7} "
            f"{outcome.protocol.piggyback_ints:>12}"
        )
    return 0


def _cmd_trace(args) -> int:
    from repro.core.trace_io import save_trace
    from repro.workload.driver import generate_trace

    cfg = _workload_from(args)
    trace = generate_trace(cfg)
    save_trace(trace, args.out)
    print(
        f"wrote {args.out}: {len(trace)} events "
        f"({trace.n_sends} sends, {trace.n_basic_triggers} basic triggers)"
    )
    return 0


def _cmd_replay(args) -> int:
    from repro.core.trace import TraceError
    from repro.core.trace_io import TraceIntegrityError, load_trace
    from repro.engine import RunSpec, execute

    try:
        trace = load_trace(args.trace)
    except (TraceIntegrityError, TraceError) as exc:
        # Damaged, written in a trace format this version no longer
        # reads, or decodable but structurally invalid (say, a receive
        # of a never-sent message): the message names the problem.
        print(exc, file=sys.stderr)
        return EXIT_USAGE
    result = execute(
        RunSpec(protocols=args.protocols, trace=trace, engine=args.engine)
    )
    for outcome in result.outcomes:
        s = outcome.metrics.stats
        print(
            f"{outcome.name:>9}: N_tot={s.n_total} "
            f"basic={s.n_basic} forced={s.n_forced}"
        )
    return 0


def _cmd_recovery(args) -> int:
    from repro.core.consistency import annotate_replay
    from repro.core.recovery import minimal_rollback, protocol_line_rollback
    from repro.engine import resolve_protocols
    from repro.workload.driver import generate_trace

    cfg = _workload_from(args)
    trace = generate_trace(cfg)
    (entry,) = resolve_protocols([args.protocol], require="replayable")
    protocol = entry.make(cfg.n_hosts, cfg.n_mss)
    run = annotate_replay(trace, protocol)
    failed = args.failed_host
    try:
        outcome = protocol_line_rollback(run, protocol, failed, trace.sim_time)
        mode = "protocol recovery line"
    except NotImplementedError:
        outcome = minimal_rollback(run, failed, trace.sim_time)
        mode = "rollback-propagation search"
    print(f"failure of host {failed} under {args.protocol} ({mode}):")
    print(f"  undone events total : {outcome.total_undone_events}")
    print(f"  worst rollback time : {outcome.max_rollback_time:.1f}")
    print(f"  in-transit messages : {outcome.in_transit}")
    print(f"  propagation passes  : {outcome.iterations}")
    return 0


def _cmd_failures(args) -> int:
    from repro.core.failures import run_with_failures
    from repro.engine import resolve_protocols

    cfg = _workload_from(args)
    (entry,) = resolve_protocols([args.protocol], require="replayable")
    protocol = entry.make(cfg.n_hosts, cfg.n_mss)
    result = run_with_failures(
        cfg, protocol, failure_mean_interval=args.mean_interval
    )
    print(
        f"{args.protocol} over {cfg.sim_time:g} time units with Poisson "
        f"failures (mean interval {args.mean_interval:g}):"
    )
    print(f"  failures            : {result.n_failures}")
    print(f"  checkpoints (N_tot) : {protocol.n_total}")
    print(f"  lost work (time)    : {result.total_lost_work:.1f}")
    print(f"  recovery downtime   : {result.total_recovery_downtime:.3f}")
    print(f"  stale msgs dropped  : {result.stale_messages_dropped}")
    print(f"  availability        : {100 * result.availability:.2f}%")
    return EXIT_OK


def _cmd_conformance(args) -> int:
    try:
        from repro.testing import check_conformance
    except ImportError as exc:
        # repro.testing needs the optional test extra (hypothesis);
        # point at the fix instead of dumping a traceback.
        print(
            f"the conformance kit needs the test extra ({exc}); install "
            f"with: pip install -e '.[test]'",
            file=sys.stderr,
        )
        return EXIT_USAGE

    from repro.engine import known_names
    from repro.engine.errors import suggest_names

    known = known_names()
    unknown = [n for n in args.names if n not in known]
    if unknown:
        for name in unknown:
            hints = suggest_names(name, known)
            hint = f" (did you mean {', '.join(hints)}?)" if hints else ""
            print(f"unknown protocol {name!r}{hint}", file=sys.stderr)
        print(f"known protocols: {', '.join(known)}", file=sys.stderr)
        return EXIT_USAGE

    reports = [check_conformance(name) for name in args.names]
    if args.json:
        import json

        print(json.dumps({
            "reports": [
                {
                    "protocol": r.protocol,
                    "ok": r.ok,
                    "results": [
                        {
                            "battery": b.battery,
                            "status": b.status,
                            "detail": b.detail,
                        }
                        for b in r.results
                    ],
                }
                for r in reports
            ],
            "ok": all(r.ok for r in reports),
        }, indent=2))
    else:
        for i, report in enumerate(reports):
            if i:
                print()
            print(report.summary())
        failed = sum(len(r.failures) for r in reports)
        total = sum(len(r.results) for r in reports)
        print(
            f"\n{len(reports)} protocol(s), {total} batteries, "
            f"{failed} failure(s)"
        )
    return EXIT_OK if all(r.ok for r in reports) else EXIT_FAILURE


def _cmd_shard_worker(args) -> int:
    from repro.experiments.sharded import AUTHKEY_ENV, parse_address, worker_main

    import os

    if not os.environ.get(AUTHKEY_ENV):
        print(
            f"{AUTHKEY_ENV} must carry the coordinator's hex authkey "
            f"(the sweep side exports it when --shard-listen is set)",
            file=sys.stderr,
        )
        return EXIT_USAGE
    try:
        address = parse_address(args.connect)
    except ValueError as exc:
        print(exc, file=sys.stderr)
        return EXIT_USAGE
    try:
        code = worker_main(address, connect_timeout_s=args.connect_timeout)
    except ConnectionError as exc:
        print(exc, file=sys.stderr)
        return EXIT_FAILURE
    if code != 0:
        print(
            "connection to the coordinator was lost; the lease was "
            "reassigned on its side",
            file=sys.stderr,
        )
        return EXIT_FAILURE
    return EXIT_OK


def _cmd_protocols(args) -> int:
    from repro.engine import known_protocols, plugin_errors, protocol_origin

    entries = known_protocols()
    errors = plugin_errors()
    rows = []
    for name in sorted(entries):
        caps = entries[name].capabilities
        flags = [
            label
            for label, on in (
                ("replayable", caps.replayable),
                ("vectorizable", caps.vectorizable),
                ("coordinated", caps.coordinated),
                ("counters-only", caps.counters_only),
            )
            if on
        ]
        rows.append((name, str(protocol_origin(name)), flags))

    if args.json:
        import json

        print(
            json.dumps(
                {
                    "protocols": [
                        {"name": name, "origin": origin, "capabilities": flags}
                        for name, origin, flags in rows
                    ],
                    "plugin_errors": [str(e) for e in errors],
                },
                indent=2,
            )
        )
    else:
        name_w = max(len("protocol"), max(len(r[0]) for r in rows))
        origin_w = max(len("origin"), max(len(r[1]) for r in rows))
        print(
            f"{'protocol':<{name_w}}  {'origin':<{origin_w}}  capabilities"
        )
        for name, origin, flags in rows:
            print(
                f"{name:<{name_w}}  {origin:<{origin_w}}  "
                + (", ".join(flags) or "-")
            )
        print(f"\n{len(rows)} protocol(s) registered")
        if errors:
            print(f"{len(errors)} plugin(s) failed to load:", file=sys.stderr)
            for error in errors:
                print(f"  {error}", file=sys.stderr)
    return EXIT_FAILURE if errors else EXIT_OK


def _cmd_workloads(args) -> int:
    from repro.workload.registry import get_workload, workload_names

    infos = [get_workload(name).describe() for name in workload_names()]
    if args.json:
        import json

        print(json.dumps({"workloads": infos}, indent=2))
        return EXIT_OK

    def _params(info) -> str:
        parts = []
        for key, spec in info["params"].items():
            value = "<required>" if spec["required"] else repr(spec["default"])
            parts.append(f"{key}={value}")
        return ", ".join(parts) or "-"

    rows = [(info["name"], _params(info), info["doc"]) for info in infos]
    name_w = max(len("workload"), max(len(r[0]) for r in rows))
    params_w = max(len("parameters"), max(len(r[1]) for r in rows))
    print(f"{'workload':<{name_w}}  {'parameters':<{params_w}}  description")
    for name, params, doc in rows:
        print(f"{name:<{name_w}}  {params:<{params_w}}  {doc}")
    print(
        f"\n{len(rows)} workload model(s) registered; use "
        "--workload NAME[:key=value,...] on figure/audit/compare/"
        "trace/recovery/failures"
    )
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    """Build the argparse tree for ``python -m repro``."""
    parser = argparse.ArgumentParser(
        prog="repro", description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("figure", help="run one paper figure sweep")
    p.add_argument("number", type=int, choices=range(1, 7))
    p.add_argument("--sim-time", type=float, default=20_000.0)
    p.add_argument("--seeds", type=int, nargs="+", default=[0, 1])
    p.add_argument(
        "--sweep", type=float, nargs="+", default=[100.0, 1000.0, 10000.0]
    )
    p.add_argument("--spread-tolerance", type=float, default=0.5)
    p.add_argument(
        "--engine", choices=("auto", "fused", "vectorized"), default="auto",
        help="replay strategy per (point, seed) task (bit-identical "
        "results; 'auto' and 'fused' run the batch kernels when every "
        "protocol ships them and the per-event loop otherwise, "
        "'vectorized' requires the kernels)",
    )
    p.add_argument(
        "--workload", default=None, metavar="NAME[:K=V,...]",
        help="swap the figure's workload model for a registered one, "
        "e.g. 'zipf:alpha=1.1' (see 'repro workloads'; default: the "
        "paper's uniform model)",
    )
    p.add_argument(
        "--workers", type=int, default=0, metavar="N",
        help="run the grid on N local shard worker processes (shard "
        "leases, heartbeat liveness, reassignment on worker loss, "
        "hung-cell watchdog); 0 = serial in-process",
    )
    p.add_argument(
        "--no-cache", action="store_true",
        help="bypass the content-addressed trace cache",
    )
    p.add_argument(
        "--cache-dir", default=None,
        help="directory of the persistent on-disk trace store "
        "(default: REPRO_TRACE_CACHE_DIR or memory-only)",
    )
    p.add_argument(
        "--audit", action="store_true",
        help="run the invariant audit on every (point, seed) task",
    )
    p.add_argument(
        "--journal", default=None, metavar="PATH",
        help="append-only JSONL record of the sweep: one fsynced line "
        "per completed (point, seed) task with its runs and telemetry "
        "(makes the sweep crash-safe), plus heartbeats and a closing "
        "summary while --progress is on; read by 'repro tail'/'dash'",
    )
    p.add_argument(
        "--resume", default=None, metavar="PATH",
        help="resume from a journal written by an earlier run of the "
        "same sweep: only missing tasks re-execute (implies "
        "--journal PATH unless given separately)",
    )
    p.add_argument(
        "--task-timeout", type=float, default=None, metavar="SECONDS",
        help="per-(point, seed) task deadline; overrunning tasks are "
        "retried, then quarantined",
    )
    p.add_argument(
        "--retries", type=int, default=2,
        help="re-dispatches per failed task before quarantine "
        "(default 2)",
    )
    p.add_argument(
        "--progress", dest="progress", action="store_true", default=None,
        help="live status line (done/total, rate, ETA) on stderr, "
        "journaled as heartbeats under --journal (default: "
        "REPRO_PROGRESS env, else TTY detection)",
    )
    p.add_argument(
        "--no-progress", dest="progress", action="store_false",
        help="suppress the live status line",
    )
    p.add_argument(
        "--trace", default=None, metavar="PATH",
        help="record engine phase spans on every task and write the "
        "merged Chrome trace-event JSON (Perfetto-loadable) to PATH",
    )
    p.add_argument(
        "--shard-listen", default=None, metavar="HOST:PORT",
        help="also accept external 'repro shard-worker' processes on "
        "HOST:PORT (authenticated via REPRO_SHARD_AUTHKEY; with "
        "--workers 0 the sweep is listen-only)",
    )
    p.add_argument(
        "--shard-size", type=int, default=None, metavar="CELLS",
        help="cells per shard lease (default: ~4 leases per worker)",
    )
    p.add_argument(
        "--prom", default=None, metavar="PATH",
        help="write the sweep's metrics (coordinator plus every "
        "executed cell, by worker pid) as a Prometheus textfile at "
        "PATH once the sweep ends",
    )
    p.add_argument(
        "--otlp", default=None, metavar="PATH_OR_URL",
        help="write one OTLP-JSON artifact (the same metrics + every "
        "task's spans) at sweep end: a file path, or an http(s):// "
        "endpoint to POST to",
    )
    p.add_argument(
        "--run-id", default=None, metavar="ID",
        help="run label stamped on every --prom/--otlp series and span "
        "(default: derived from the sweep config hash)",
    )
    p.set_defaults(fn=_cmd_figure)

    p = sub.add_parser(
        "audit",
        help="invariant audit + telemetry over a config grid",
    )
    _add_workload_args(p)
    p.add_argument(
        "--protocols", nargs="+", default=["TP", "BCS", "QBC"],
        help="protocols to audit (default: the paper's three)",
    )
    p.add_argument(
        "--sweep", type=float, nargs="+", default=[100.0, 1000.0, 10000.0],
        help="t_switch grid to audit over",
    )
    p.add_argument(
        "--seeds", type=int, nargs="+", default=[0, 1],
        help="seeds per grid point",
    )
    p.add_argument(
        "--workers", type=int, default=0, metavar="N",
        help="local shard worker processes over (point, seed) tasks; "
        "0 = serial",
    )
    p.add_argument("--no-cache", action="store_true")
    p.add_argument("--cache-dir", default=None)
    p.add_argument(
        "--journal", default=None, metavar="PATH",
        help="write the audited sweep's journal (per-task runs, "
        "telemetry and violations, JSONL) to PATH",
    )
    # A shorter default horizon than the figure sweeps: the audit
    # replays each protocol three extra times per task.
    p.set_defaults(fn=_cmd_audit, sim_time=2000.0)

    p = sub.add_parser("compare", help="all protocols on one workload")
    _add_workload_args(p)
    p.add_argument("--protocols", nargs="+", default=None)
    p.add_argument(
        "--engine", choices=("auto", "reference", "fused", "vectorized"),
        default="fused",
        help="replay engine (bit-identical results across all four; "
        "'fused' and 'auto' run the batch kernels when every protocol "
        "ships them)",
    )
    p.set_defaults(fn=_cmd_compare)

    p = sub.add_parser("trace", help="generate and save a trace")
    _add_workload_args(p)
    p.add_argument("--out", required=True)
    p.set_defaults(fn=_cmd_trace)

    p = sub.add_parser("replay", help="replay a saved trace")
    p.add_argument("--trace", required=True)
    p.add_argument("--protocols", nargs="+", default=["TP", "BCS", "QBC"])
    p.add_argument(
        "--engine", choices=("auto", "reference", "fused", "vectorized"),
        default="auto",
        help="replay engine (default: auto picks the fastest sound one)",
    )
    p.set_defaults(fn=_cmd_replay)

    p = sub.add_parser("recovery", help="failure injection on a workload")
    _add_workload_args(p)
    p.add_argument("--protocol", default="QBC")
    p.add_argument("--failed-host", type=int, default=0)
    p.set_defaults(fn=_cmd_recovery)

    p = sub.add_parser(
        "failures", help="run with Poisson crashes and full rollback"
    )
    _add_workload_args(p)
    p.add_argument("--protocol", default="QBC")
    p.add_argument("--mean-interval", type=float, default=1500.0)
    p.set_defaults(fn=_cmd_failures)

    p = sub.add_parser(
        "protocols",
        help="list registered protocols with capabilities and origin",
    )
    p.add_argument(
        "--json", action="store_true",
        help="machine-readable output (protocols + plugin errors)",
    )
    p.set_defaults(fn=_cmd_protocols)

    p = sub.add_parser(
        "workloads",
        help="list registered workload models with their parameters",
    )
    p.add_argument(
        "--json", action="store_true",
        help="machine-readable output (name, doc, parameter specs)",
    )
    p.set_defaults(fn=_cmd_workloads)

    p = sub.add_parser(
        "conformance",
        help="run the protocol conformance batteries",
    )
    p.add_argument(
        "names", nargs="+", metavar="PROTOCOL",
        help="registered protocol name(s) to check (see 'repro "
        "protocols')",
    )
    p.add_argument(
        "--json", action="store_true",
        help="machine-readable per-battery results",
    )
    p.set_defaults(fn=_cmd_conformance)

    p = sub.add_parser(
        "shard-worker",
        help="join a sharded sweep as an external worker",
    )
    p.add_argument(
        "--connect", required=True, metavar="HOST:PORT",
        help="coordinator address (the sweep's --shard-listen value)",
    )
    p.add_argument(
        "--connect-timeout", type=float, default=15.0, metavar="SECONDS",
        help="how long to retry dialing the coordinator (default 15s)",
    )
    p.set_defaults(fn=_cmd_shard_worker)

    p = sub.add_parser(
        "tail",
        help="follow a sweep journal",
    )
    p.add_argument(
        "path", help="sweep journal written by figure/audit --journal",
    )
    p.add_argument(
        "--once", action="store_true",
        help="print one summary and exit instead of following",
    )
    p.add_argument(
        "--interval", type=float, default=2.0, metavar="SECONDS",
        help="poll interval while following (default 2s)",
    )
    p.set_defaults(fn=_cmd_tail)

    p = sub.add_parser(
        "dash",
        help="live TTY dashboard over a sweep journal",
    )
    p.add_argument(
        "path", help="sweep journal written by figure/audit --journal",
    )
    p.add_argument(
        "--interval", type=float, default=2.0, metavar="SECONDS",
        help="repaint interval (default 2s)",
    )
    p.add_argument(
        "--once", action="store_true",
        help="render a single frame and exit instead of following",
    )
    p.add_argument(
        "--width", type=int, default=72, metavar="COLS",
        help="frame width in columns (default 72)",
    )
    p.set_defaults(fn=_cmd_dash)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Entry point: parse *argv* and dispatch; returns the exit code.

    Codes: 0 = ok, 1 = violations/failed validation/grid holes, 2 =
    usage error (argparse convention), 130 = interrupted.
    """
    args = build_parser().parse_args(argv)
    # After parsing: --help and argparse usage errors load no engine.
    from repro.engine import EngineError
    from repro.workload.registry import WorkloadError

    try:
        return args.fn(args)
    except (EngineError, WorkloadError) as exc:
        # Unknown protocols/workloads and capability mismatches are
        # usage errors, reported uniformly regardless of which
        # subcommand hit them.
        print(exc, file=sys.stderr)
        return EXIT_USAGE
    except KeyboardInterrupt:
        # A force-quit (second SIGINT) or an interrupt outside the
        # supervised sweep loop: report the shell convention.
        print("interrupted", file=sys.stderr)
        return EXIT_INTERRUPTED


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
