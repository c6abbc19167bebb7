"""Steadiness evidence: run every workload over two sets of ten seeds
and record each end-to-end metric's median and quartiles per set.

Usage, from the root of a checkout::

    python3 perfbench/steady.py --out perfbench/STEADINESS.json

The spread of a metric is ``(q3 - q1) / median`` over a set's seeds,
with quartiles as ``statistics.quantiles(values, n=4)`` gives them; the
shift is how far the second set's median moved from the first's.  The
two sets take turns run by run (set 1 runs seeds 100-109, set 2 seeds
110-119), so a slow stretch of a shared host falls on both sets alike.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent

SEEDS = 10
FIRST_SEED = 100
SETS = 2


def one_run(workload: str, seed: int, seconds: int) -> dict:
    started = time.monotonic()
    out = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        capture_output=True, text=True, check=True,
    )
    result = json.loads(out.stdout.strip().splitlines()[-1])
    result["run_s"] = time.monotonic() - started
    if not result["correct"]:
        sys.stderr.write(f"{workload} seed {seed}:\n{out.stderr}")
    return result


def quartiles(values: list[float]) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {
        "median": statistics.median(values),
        "q1": q1,
        "q3": q3,
        "spread": (q3 - q1) / statistics.median(values),
        "values": values,
    }


def main(argv=None) -> int:
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--out", help="write the evidence JSON here")
    args = ap.parse_args(argv)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    seconds = spec["run_seconds"]
    evidence: dict = {"run_seconds": seconds, "workloads": {}}
    for workload in (w["name"] for w in spec["workloads"]):
        seeds = [[FIRST_SEED + n * SEEDS + i for i in range(SEEDS)]
                 for n in range(SETS)]
        runs: list[list[dict]] = [[] for _ in range(SETS)]
        for i in range(SEEDS):
            for n in range(SETS):
                runs[n].append(one_run(workload, seeds[n][i], seconds))
        sets = []
        for n in range(SETS):
            sets.append({
                "seeds": seeds[n],
                "failed_runs": sum(not r["correct"] for r in runs[n]),
                "run_s": statistics.median(r["run_s"] for r in runs[n]),
                "metrics": {
                    name: quartiles([r["metrics"][name]["value"]
                                     for r in runs[n]])
                    for name in bounds
                },
            })
        shift = {name: sets[-1]["metrics"][name]["median"]
                 / sets[0]["metrics"][name]["median"] - 1 for name in bounds}
        evidence["workloads"][workload] = {"sets": sets, "shift": shift}
        for name, bound in bounds.items():
            spreads = " / ".join(f"{s['metrics'][name]['spread']:.1%}"
                                 for s in sets)
            print(f"{workload:<12} {name:<12} spread {spreads} "
                  f"shift {shift[name]:+.1%} (bound {bound:.0%}) "
                  f"failed runs {sum(s['failed_runs'] for s in sets)}",
                  flush=True)
    if args.out:
        Path(args.out).write_text(json.dumps(evidence, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
