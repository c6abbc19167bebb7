"""Statistics, modelling and reporting helpers for the experiments.

* :mod:`~repro.analysis.stats` -- multi-seed summaries, the paper's
  within-4% agreement check, confidence intervals.
* :mod:`~repro.analysis.plotting` -- ASCII log-log figure plots.
* :mod:`~repro.analysis.analytical` -- closed-form count predictions
  cross-checking the simulator.
* :mod:`~repro.analysis.overhead` -- energy/bandwidth/storage proxies.
"""

from repro.analysis.analytical import AnalyticalEstimates, estimate
from repro.analysis.overhead import CostModel, OverheadReport, estimate_overhead
from repro.analysis.plotting import ascii_plot
from repro.analysis.stats import (
    SampleSummary,
    confidence_interval,
    relative_spread,
    summarize,
    within_tolerance,
)

__all__ = [
    "AnalyticalEstimates",
    "CostModel",
    "OverheadReport",
    "SampleSummary",
    "ascii_plot",
    "confidence_interval",
    "estimate",
    "estimate_overhead",
    "relative_spread",
    "summarize",
    "within_tolerance",
]
