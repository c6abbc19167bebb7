"""Sample statistics for multi-seed simulation runs.

The paper reports that "we did several simulation runs with different
seeds and the result were within 4% of each other, thus, variance is not
reported in the plots" -- :func:`relative_spread` and
:func:`within_tolerance` reproduce exactly that check, and
:func:`confidence_interval` provides the Student-t interval for reports
that do want error bars.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence


@dataclass(slots=True, frozen=True)
class SampleSummary:
    """Mean/spread summary of one sample of run outcomes."""

    n: int
    mean: float
    std: float
    minimum: float
    maximum: float

    @property
    def relative_spread(self) -> float:
        """(max - min) / mean -- the paper's run-agreement measure."""
        return (self.maximum - self.minimum) / self.mean if self.mean else 0.0


def summarize(values: Sequence[float]) -> SampleSummary:
    """Summary statistics of *values* (sample std, ddof=1)."""
    if not values:
        raise ValueError("cannot summarise an empty sample")
    n = len(values)
    mean = sum(values) / n
    if n > 1:
        var = sum((v - mean) ** 2 for v in values) / (n - 1)
    else:
        var = 0.0
    return SampleSummary(
        n=n,
        mean=mean,
        std=math.sqrt(var),
        minimum=min(values),
        maximum=max(values),
    )


def relative_spread(values: Sequence[float]) -> float:
    """(max - min) / mean of the sample."""
    return summarize(values).relative_spread


def within_tolerance(values: Sequence[float], tolerance: float = 0.04) -> bool:
    """True when all runs agree within *tolerance* (paper: 4%)."""
    return relative_spread(values) <= tolerance


def confidence_interval(
    values: Sequence[float], confidence: float = 0.95
) -> tuple[float, float]:
    """Student-t confidence interval for the mean of *values*."""
    if not 0.0 < confidence < 1.0:
        raise ValueError(f"confidence must be in (0, 1), got {confidence}")
    s = summarize(values)
    if s.n < 2:
        return (s.mean, s.mean)
    # Imported here, not at module level: scipy.stats costs about a
    # second to import and nothing else in a sweep needs it.
    from scipy import stats as _scipy_stats

    half = (
        _scipy_stats.t.ppf(0.5 + confidence / 2.0, df=s.n - 1)
        * s.std
        / math.sqrt(s.n)
    )
    return (s.mean - half, s.mean + half)
