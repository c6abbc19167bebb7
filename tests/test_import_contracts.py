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
"""

import ast
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
SRC = REPO / "src" / "repro"

#: The raw driver entry points consumers must not call directly.
RAW_DRIVERS = frozenset(
    {
        "replay",
        "replay_fused",
        "replay_vectorized",
        "replay_vectorized_batch",
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
