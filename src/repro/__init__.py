"""repro: checkpointing protocols in distributed systems with mobile hosts.

A from-scratch reproduction of Quaglia, Ciciani & Baldoni,
*"Checkpointing Protocols in Distributed Systems with Mobile Hosts: a
Performance Analysis"* (IPPS 1998): a discrete-event simulator of a
mobile computing environment, the paper's three communication-induced
checkpointing protocols (TP, BCS, QBC) plus baselines, consistency and
recovery machinery, and the full experiment harness regenerating every
figure of the paper's evaluation.

Quickstart
----------
>>> from repro import RunSpec, WorkloadConfig, execute
>>> cfg = WorkloadConfig(t_switch=1000.0, p_switch=0.8, sim_time=5000.0, seed=1)
>>> run = execute(RunSpec(protocols=("TP", "BCS", "QBC"), workload=cfg))
>>> for outcome in run.outcomes:
...     print(outcome.name, outcome.n_total)  # doctest: +SKIP

:func:`repro.engine.execute` is the one run path: it resolves
protocol names against the capability-aware registry, picks the run
kind (the vectorized replay kernels here; the online DES for
coordinated baselines) and drives every protocol over the identical
schedule.  The raw
:func:`replay` / :func:`run_online` drivers stay exported for direct
low-level use.

See DESIGN.md for the system inventory and EXPERIMENTS.md for the
paper-vs-measured record.
"""

from typing import TYPE_CHECKING

#: attribute -> home module, resolved on first access (PEP 562), so
#: ``import repro.cli`` -- and ``python -m repro --help`` -- loads
#: neither numpy nor the engine.
_EXPORTS = {
    "CheckpointStats": "repro.core.metrics",
    "ProtocolRunMetrics": "repro.core.metrics",
    "gain_percent": "repro.core.metrics",
    "ReplayResult": "repro.core.replay",
    "replay": "repro.core.replay",
    "replay_fused": "repro.core.replay",
    "EventType": "repro.core.trace",
    "Trace": "repro.core.trace",
    "TraceEvent": "repro.core.trace",
    "ExecutionPlan": "repro.engine",
    "RunResult": "repro.engine",
    "RunSpec": "repro.engine",
    "execute": "repro.engine",
    "plan": "repro.engine",
    "run_figure": "repro.experiments.figures",
    "TraceCache": "repro.workload.cache",
    "config_key": "repro.workload.cache",
    "shared_cache": "repro.workload.cache",
    "WorkloadConfig": "repro.workload.config",
    "OnlineResult": "repro.workload.driver",
    "generate_trace": "repro.workload.driver",
    "run_online": "repro.workload.driver",
}

if TYPE_CHECKING:  # pragma: no cover - static-analysis convenience
    from repro.core.metrics import (  # noqa: F401
        CheckpointStats,
        ProtocolRunMetrics,
        gain_percent,
    )
    from repro.core.replay import (  # noqa: F401
        ReplayResult,
        replay,
        replay_fused,
    )
    from repro.core.trace import EventType, Trace, TraceEvent  # noqa: F401
    from repro.engine import (  # noqa: F401
        ExecutionPlan,
        RunResult,
        RunSpec,
        execute,
        plan,
    )
    from repro.experiments.figures import run_figure  # noqa: F401
    from repro.workload.cache import (  # noqa: F401
        TraceCache,
        config_key,
        shared_cache,
    )
    from repro.workload.config import WorkloadConfig  # noqa: F401
    from repro.workload.driver import (  # noqa: F401
        OnlineResult,
        generate_trace,
        run_online,
    )

__version__ = "1.0.0"

__all__ = [
    "CheckpointStats",
    "EventType",
    "ExecutionPlan",
    "OnlineResult",
    "ProtocolRunMetrics",
    "ReplayResult",
    "RunResult",
    "RunSpec",
    "Trace",
    "TraceCache",
    "TraceEvent",
    "WorkloadConfig",
    "__version__",
    "config_key",
    "execute",
    "gain_percent",
    "generate_trace",
    "plan",
    "replay",
    "replay_fused",
    "run_figure",
    "run_online",
    "shared_cache",
]


def __getattr__(name):
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module 'repro' has no attribute {name!r}")
    import importlib

    value = getattr(importlib.import_module(module), name)
    globals()[name] = value  # cache: next access skips __getattr__
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
