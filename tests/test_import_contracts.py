"""Architecture contracts, enforced by AST inspection.

``import-linter`` is not a dependency of this repo, so the layering
rules the unified engine refactor established are checked here with
:mod:`ast` instead -- same contracts, stdlib only:

1. **Protocols stay driver-agnostic** -- nothing under
   ``repro.protocols`` imports ``repro.engine`` or
   ``repro.experiments`` (a protocol must be definable without knowing
   how it will be driven).
2. **One execution entry point** -- ``repro.engine`` is the only call
   site of the raw drivers (``replay`` / ``replay_fused`` /
   ``run_online`` / ``run_coordinated``) outside ``repro.core`` /
   ``repro.workload`` internals and their direct unit tests.  The CLI,
   the sweep runner, the audit, the benchmarks and the examples all go
   through ``Engine.run``.  ``benchmarks/bench_engine.py`` is the one
   documented exception: it calls ``replay_fused`` directly to measure
   the engine layer's overhead against the raw loop.

One contract is checked at run time, in a fresh interpreter:

3. **The figure path starts lean, and a sweep imports nothing** --
   importing what a figure run uses leaves ``networkx`` unloaded (only
   the graph cell-choice extension needs it), and running sweeps adds
   no module to ``sys.modules``: every import is paid as set-up, none
   inside a timed cell.
"""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
SRC = REPO / "src" / "repro"

#: The raw driver entry points consumers must not call directly.
RAW_DRIVERS = frozenset(
    {
        "replay",
        "replay_fused",
        "replay_vectorized",
        "run_online",
        "run_coordinated",
    }
)

#: Consumer surfaces bound by contract 2 (directories scanned
#: recursively, files taken as-is).
CONSUMER_PATHS = (
    SRC / "cli.py",
    SRC / "experiments",
    SRC / "obs",
    SRC / "analysis",
    SRC / "testing",
    REPO / "benchmarks",
    REPO / "examples",
)

#: The one sanctioned raw call site outside the engine: the
#: engine-overhead tripwire bench (see its module docstring).
RAW_CALL_ALLOWLIST = frozenset({REPO / "benchmarks" / "bench_engine.py"})


def _python_files(path: Path):
    if path.is_file():
        yield path
    else:
        yield from sorted(path.rglob("*.py"))


def _imported_modules(tree: ast.AST):
    """Every module named by an import statement, at any nesting depth."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.name
        elif isinstance(node, ast.ImportFrom) and node.module:
            yield node.module


def _called_names(tree: ast.AST):
    """(name, line) of every call target, by Name or trailing attribute."""
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        if isinstance(func, ast.Name):
            yield func.id, node.lineno
        elif isinstance(func, ast.Attribute):
            yield func.attr, node.lineno


def test_protocols_never_import_engine_or_experiments():
    offenders = []
    for path in _python_files(SRC / "protocols"):
        tree = ast.parse(path.read_text(), filename=str(path))
        for module in _imported_modules(tree):
            if module.startswith(("repro.engine", "repro.experiments")):
                offenders.append(f"{path.relative_to(REPO)}: imports {module}")
    assert not offenders, "\n".join(offenders)


def test_consumers_never_call_raw_drivers():
    offenders = []
    for root in CONSUMER_PATHS:
        for path in _python_files(root):
            if path in RAW_CALL_ALLOWLIST:
                continue
            tree = ast.parse(path.read_text(), filename=str(path))
            for name, lineno in _called_names(tree):
                if name in RAW_DRIVERS:
                    offenders.append(
                        f"{path.relative_to(REPO)}:{lineno}: calls {name}()"
                    )
    assert not offenders, (
        "raw driver calls outside repro.engine (route these through "
        "Engine.run / repro.engine.execute):\n" + "\n".join(offenders)
    )


def test_consumers_do_not_even_import_raw_drivers():
    """Importing the raw entry points is the first step to calling
    them; consumers should not hold a reference at all (the allowlisted
    overhead bench aside)."""
    offenders = []
    for root in CONSUMER_PATHS:
        for path in _python_files(root):
            if path in RAW_CALL_ALLOWLIST:
                continue
            tree = ast.parse(path.read_text(), filename=str(path))
            for node in ast.walk(tree):
                if isinstance(node, ast.ImportFrom) and node.module in (
                    "repro",
                    "repro.core.replay",
                    "repro.workload.driver",
                    "repro.core.online",
                ):
                    for alias in node.names:
                        if alias.name in RAW_DRIVERS:
                            offenders.append(
                                f"{path.relative_to(REPO)}:{node.lineno}: "
                                f"imports {alias.name} from {node.module}"
                            )
    assert not offenders, "\n".join(offenders)


def test_engine_is_importable_without_experiments():
    """repro.engine must not depend on repro.experiments (the sweep
    layer sits above the engine, never the other way around)."""
    offenders = []
    for path in _python_files(SRC / "engine"):
        tree = ast.parse(path.read_text(), filename=str(path))
        for module in _imported_modules(tree):
            if module.startswith("repro.experiments"):
                offenders.append(f"{path.relative_to(REPO)}: imports {module}")
    assert not offenders, "\n".join(offenders)


def test_contract_allowlist_is_current():
    """The allowlisted file must still exist and still call the raw
    driver it is allowlisted for -- otherwise the allowlist is stale."""
    (path,) = RAW_CALL_ALLOWLIST
    assert path.exists()
    tree = ast.parse(path.read_text(), filename=str(path))
    assert any(name == "replay_fused" for name, _ in _called_names(tree))


#: What the fresh interpreter of the runtime contract runs: import the
#: figure path, then sweep, then generate a graph cell-choice trace.
_RUNTIME_PROBE = """
import json, sys
import repro.engine
import repro.experiments.figures
import repro.experiments.runner
import repro.experiments.validation
import repro.workload.cache
from repro.engine.registry import known_protocols
from repro.experiments.figures import figure_sweep_config
from repro.experiments.runner import run_sweep

cache_dir = sys.argv[1]
networkx_on_import = "networkx" in sys.modules
zoo = sorted(n for n, e in known_protocols().items()
             if e.capabilities.replayable)
before = set(sys.modules)
fused = run_sweep(figure_sweep_config(
    6, sim_time=300.0, seeds=(0, 1), t_switch_values=(100.0, 1000.0),
    engine="fused", cache_dir=cache_dir, progress=False))
auto = run_sweep(figure_sweep_config(
    4, sim_time=300.0, seeds=(0,), t_switch_values=(100.0, 1000.0),
    protocols=zoo, engine="auto", cache_dir=cache_dir, progress=False))
imported = sorted(set(sys.modules) - before)

from repro.core.trace import EventType
from repro.workload import WorkloadConfig, generate_trace
graph = generate_trace(WorkloadConfig(
    sim_time=300.0, seed=1, t_switch=10.0, cell_chooser="graph"))
steps = [(e.cell - e.peer) % graph.n_mss for e in graph.events
         if e.etype is EventType.CELL_SWITCH]
print(json.dumps({
    "networkx_on_import": networkx_on_import,
    "imported_by_sweeps": imported,
    "zoo": zoo,
    "cells": [len(r.telemetry) for r in (fused, auto)],
    "errors": [len(r.errors) for r in (fused, auto)],
    "graph_steps": sorted(set(steps)),
    "graph_n_mss": graph.n_mss,
    "graph_switches": len(steps),
}))
"""


def test_figure_path_skips_networkx_and_sweeps_import_nothing(tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC.parent), env.get("PYTHONPATH")) if p
    )
    out = subprocess.run(
        [sys.executable, "-c", _RUNTIME_PROBE, str(tmp_path / "cache")],
        capture_output=True,
        text=True,
        check=True,
        env=env,
        timeout=300,
    )
    report = json.loads(out.stdout.strip().splitlines()[-1])
    assert not report["networkx_on_import"], (
        "importing the figure path loaded networkx; only "
        "GraphWalkCellChooser may import it, and only when built"
    )
    assert report["imported_by_sweeps"] == [], (
        "a sweep imported modules inside its timed cells; load them with "
        "the package that uses them: " + ", ".join(report["imported_by_sweeps"])
    )
    assert len(report["zoo"]) >= 8
    assert report["cells"] == [4, 2]
    assert report["errors"] == [0, 0]
    # The graph chooser still builds: on its default cycle every
    # switch moves to a neighbouring cell.
    assert report["graph_switches"] > 100
    n_mss = report["graph_n_mss"]
    assert set(report["graph_steps"]) <= {1, n_mss - 1}
