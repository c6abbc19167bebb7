"""Figure benchmark: run one workload and print its metrics as JSON.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload warm-figure --seed 3 \\
        --seconds 10 --trace 0

The last stdout line is ``{"correct", "attempted", "failed",
"metrics"}``.  ``--trace 0`` reports the end-to-end metrics
(``cells_per_s``, ``setup_s``, ``peak_rss_mb``); ``--trace 1`` reports
the per-layer metrics of a separate traced run, prints the per-layer
self-time table and writes a Chrome trace under ``.perfbench_work/``.

Every measurement runs in a fresh interpreter (``child.py``): one
throwaway start warms the OS file cache, then several set-up-only
starts and the measured run each give a ``setup_s`` sample (time from
process spawn to the first timed cell).  This script imports nothing
from the program, so its own start-up is not measured.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from workloads import WORKLOADS, plan as make_plan  # noqa: E402

#: Set-up-only interpreter starts per run (the measured run adds one).
SETUP_SAMPLES = 2

#: Whole-run deadline: the run must end within 180 s.
DEADLINE_S = 170.0


class ChildError(RuntimeError):
    """A child interpreter failed or overran the run's deadline."""


class Runner:
    """Starts the child interpreters of one run under a shared deadline."""

    def __init__(self, args, root: Path, work: Path):
        self.args = args
        self.work = work
        self.deadline = time.monotonic() + DEADLINE_S
        self.env = dict(os.environ)
        src = str(root / "src")
        self.env["PYTHONPATH"] = os.pathsep.join(
            [src] + ([self.env["PYTHONPATH"]] if self.env.get("PYTHONPATH")
                     else [])
        )
        # A user's interpreter caches bytecode: the throwaway start
        # writes it, so every measured start reads it.  The cache lives
        # in the work area, so no file of the checkout is rewritten.
        self.env.pop("PYTHONDONTWRITEBYTECODE", None)
        self.env["PYTHONPYCACHEPREFIX"] = str(work.parent / "pycache")
        self.env.pop("REPRO_TRACE_CACHE_DIR", None)
        self.env["REPRO_PROGRESS"] = "0"

    def child(self, role: str, *extra: str, trace: int = 0) -> tuple[float, dict]:
        """Run ``child.py role`` to completion; returns the monotonic
        instant it was spawned and its JSON report."""
        a = self.args
        cmd = [
            sys.executable, str(HERE / "child.py"), role,
            "--workload", a.workload, "--seed", str(a.seed),
            "--seconds", str(a.seconds), "--trace", str(trace), *extra,
        ]
        remaining = self.deadline - time.monotonic()
        if remaining <= 0:
            raise ChildError(f"no time left for the {role} step")
        spawned = time.monotonic()
        proc = subprocess.Popen(
            cmd, env=self.env, stdout=subprocess.PIPE, text=True,
            start_new_session=True,
        )
        try:
            stdout, _ = proc.communicate(timeout=remaining)
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
            raise ChildError(f"{role} step overran the run deadline")
        finally:
            # Reap anything the child left behind (the prep pool).
            try:
                os.killpg(proc.pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
        if proc.returncode != 0:
            raise ChildError(f"{role} step exited with {proc.returncode}")
        lines = stdout.strip().splitlines()
        if not lines:
            raise ChildError(f"{role} step printed no report")
        return spawned, json.loads(lines[-1])

    def measured(self, trace: int, cache_dir: Path) -> tuple[float, dict]:
        """One measured run over the disk cache *cache_dir*."""
        extra = ["--cache-dir", str(cache_dir)]
        if trace:
            traces = self.work.parent / "traces"
            traces.mkdir(parents=True, exist_ok=True)
            name = f"{self.args.workload}-seed{self.args.seed}.json"
            extra += ["--chrome", str(traces / name)]
        return self.child("run", *extra, trace=trace)


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


#: Units of the per-layer metrics, by name suffix (default ``count``).
LAYER_UNITS = (
    ("seconds", "s"),
    ("us_per_event", "us/event"),
    ("ns_per_protocol_event", "ns/event"),
    ("_ratio", "ratio"),
    ("utilization", "ratio"),
    ("coverage", "ratio"),
    ("bytes_read", "B"),
    ("bytes_written", "B"),
)


def layer_unit(name: str) -> str:
    return next((unit for suffix, unit in LAYER_UNITS
                 if name.endswith(suffix)), "count")


def run(args, root: Path) -> dict:
    p = make_plan(args.workload, args.seed, args.seconds)
    work = root / ".perfbench_work" / f"{args.workload}-s{args.seed}-{os.getpid()}"
    if work.exists():
        shutil.rmtree(work)
    work.mkdir(parents=True)
    try:
        r = Runner(args, root, work)
        store = work / "store"
        if p.prep:
            r.child("prep", "--cache-dir", str(store))

        def cache_dir(trace: int) -> Path:
            # Prepared workloads read the store; cold runs start empty.
            return store if p.prep else work / f"cold-{trace}"

        r.child("warm")
        setups = [r.child("setup", "--cache-dir", str(cache_dir(0)))
                  for _ in range(SETUP_SAMPLES)]
        spawned, main = r.measured(0, cache_dir(0))
        setups.append((spawned, main))
        setup_s = statistics.median(rep["ready"] - t for t, rep in setups)
        import_s = statistics.median(rep["import_s"] for _, rep in setups)
        reports = [main]
        if args.trace:
            _, traced = r.measured(1, cache_dir(1))
            reports.append(traced)
            sys.stdout.write(traced["table"] + "\n")
            layer_metrics = dict(traced["layers"])
            layer_metrics["setup.import_seconds"] = import_s
            layer_metrics["trace.overhead_ratio"] = (
                sum(traced["pass_walls"]) / sum(main["pass_walls"]) - 1
            )
            metrics = {
                name: metric(value, layer_unit(name))
                for name, value in sorted(layer_metrics.items())
            }
        else:
            metrics = {
                "cells_per_s": metric(
                    main["cells"] / sum(main["pass_walls"]), "cells/s"
                ),
                "setup_s": metric(setup_s, "s"),
                "peak_rss_mb": metric(main["peak_rss_mb"], "MiB"),
            }
    finally:
        shutil.rmtree(work, ignore_errors=True)
    for rep in reports:
        for note in rep["notes"]:
            sys.stderr.write(f"check: {note}\n")
    attempted = sum(rep["attempted"] for rep in reports)
    failed = sum(rep["failed"] for rep in reports)
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="Figure benchmark (one run).")
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds < 1 or args.seed < 0:
        ap.error("--seconds must be >= 1 and --seed >= 0")
    # Turn SIGTERM into an exit that runs the cleanup of the child in
    # flight (its whole process group is killed).
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    root = Path.cwd()
    if not (root / "src" / "repro" / "__init__.py").is_file():
        sys.stderr.write(
            "perfbench: run from the root of a checkout of the program "
            "(src/repro not found)\n"
        )
        return 2
    try:
        result = run(args, root)
    except ChildError as exc:
        sys.stderr.write(f"perfbench: {exc}\n")
        return 1
    sys.stdout.write(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
