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

:func:`repro.engine.execute` is the unified entry point: it resolves
protocol names against the capability-aware registry, picks the right
engine (fused replay here; online DES for coordinated baselines) and
drives every protocol over the identical schedule.  The raw
:func:`replay` / :func:`run_online` drivers stay exported for direct
low-level use.

See DESIGN.md for the system inventory and EXPERIMENTS.md for the
paper-vs-measured record.
"""

from repro.core.metrics import CheckpointStats, ProtocolRunMetrics, gain_percent
from repro.core.replay import ReplayResult, replay, replay_fused
from repro.core.trace import EventType, Trace, TraceEvent
from repro.engine import ExecutionPlan, RunResult, RunSpec, execute, plan
from repro.experiments.figures import run_figure
from repro.workload.cache import TraceCache, config_key, shared_cache
from repro.workload.config import WorkloadConfig
from repro.workload.driver import OnlineResult, generate_trace, run_online

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
