"""Workload: the paper's application/mobility model and trace generation.

* :class:`~repro.workload.config.WorkloadConfig` -- every knob of the
  paper's Section 5.1 simulation model, including which registered
  workload model shapes the run (``workload`` / ``workload_params``).
* :mod:`~repro.workload.registry` -- the workload-model registry:
  :class:`WorkloadModel` + :func:`register_workload` discovery, typed
  errors with did-you-mean suggestions, ``NAME[:k=v,...]`` spec
  parsing.  Builtin models live in :mod:`~repro.workload.models`,
  which this package imports so they are registered from the start.
* :func:`~repro.workload.driver.generate_trace` -- run the full mobile
  system simulation and emit a protocol-independent
  :class:`~repro.core.trace.Trace` (its columns computed in numpy
  passes for eligible paper-model configs, otherwise compiled on the
  fly as the event loop runs, in bounded staging memory).
* :func:`~repro.workload.driver.run_online` -- same workload with a
  checkpointing protocol embedded in the simulation (supports
  non-negligible checkpoint latency).
* :mod:`~repro.workload.scenarios` -- named configurations for each of
  the paper's figures.
* :mod:`~repro.workload.cache` -- content-addressed trace cache
  (memory LRU + optional on-disk store) keyed by the generating config.
"""

from repro.workload.cache import TraceCache, config_key, shared_cache
from repro.workload.config import WorkloadConfig
from repro.workload.driver import (
    OnlineResult,
    generate_trace,
    run_online,
)
from repro.workload.registry import (
    Param,
    UnknownWorkloadError,
    WorkloadError,
    WorkloadModel,
    WorkloadParamError,
    check_workload,
    get_workload,
    make_workload,
    parse_workload_spec,
    register_workload,
    resolve_workload_spec,
    workload_names,
)
from repro.workload.scenarios import figure_config, paper_scenarios

# The builtin models register themselves on import; loading them with
# the package keeps that cost out of the first cell of a sweep.
from repro.workload import models  # noqa: F401  (registration side effect)

__all__ = [
    "OnlineResult",
    "Param",
    "TraceCache",
    "UnknownWorkloadError",
    "WorkloadConfig",
    "WorkloadError",
    "WorkloadModel",
    "WorkloadParamError",
    "check_workload",
    "config_key",
    "figure_config",
    "generate_trace",
    "get_workload",
    "make_workload",
    "paper_scenarios",
    "parse_workload_spec",
    "register_workload",
    "resolve_workload_spec",
    "run_online",
    "shared_cache",
    "workload_names",
]
