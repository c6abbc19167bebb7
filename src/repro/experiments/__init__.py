"""Experiment harness: the paper's Section 5 performance study.

* :mod:`repro.experiments.config` -- sweep configuration.
* :mod:`repro.experiments.runner` -- full sweeps, serial or fanned
  out over shard worker processes.
* :mod:`repro.experiments.figures` -- one entry per paper figure.
* :mod:`repro.experiments.report` -- paper-style tables, gains, plots.
* :mod:`repro.experiments.resilience` -- fault-tolerant execution:
  per-task supervision, the sweep journal and resumption.
* :mod:`repro.experiments.sharded` -- the parallel sweep dispatcher:
  shard leases, heartbeat liveness, reassignment on worker loss, the
  hung-cell watchdog.
* :mod:`repro.experiments.validation` -- the paper's qualitative claims
  checked against measured sweeps.
"""

from repro.experiments.config import SweepConfig
from repro.experiments.figures import FIGURE_PARAMS, run_figure
from repro.experiments.report import figure_report, gains_table, points_table
from repro.experiments.resilience import (
    JournalExists,
    JournalLocked,
    SweepJournal,
    TaskError,
    sweep_config_hash,
)
from repro.experiments.runner import PointResult, SweepResult, run_sweep
from repro.experiments.validation import (
    validate_audit,
    validate_figure,
    validate_paper_claims,
)

__all__ = [
    "FIGURE_PARAMS",
    "JournalExists",
    "JournalLocked",
    "PointResult",
    "SweepConfig",
    "SweepJournal",
    "SweepResult",
    "TaskError",
    "figure_report",
    "gains_table",
    "points_table",
    "run_figure",
    "run_sweep",
    "sweep_config_hash",
    "validate_audit",
    "validate_figure",
    "validate_paper_claims",
]
