"""Tests for sample statistics (repro.analysis.stats)."""

import pytest

from repro.analysis import (
    confidence_interval,
    relative_spread,
    summarize,
    within_tolerance,
)


def test_summarize_basic():
    s = summarize([10.0, 12.0, 11.0])
    assert s.n == 3
    assert s.mean == pytest.approx(11.0)
    assert s.minimum == 10.0 and s.maximum == 12.0
    assert s.std == pytest.approx(1.0)


def test_summarize_single_value():
    s = summarize([5.0])
    assert s.std == 0.0
    assert s.relative_spread == 0.0


def test_summarize_empty_raises():
    with pytest.raises(ValueError):
        summarize([])


def test_relative_spread_matches_paper_check():
    # paper: "within 4% of each other"
    assert relative_spread([100.0, 103.0]) == pytest.approx(0.0295566, rel=1e-4)
    assert within_tolerance([100.0, 103.0], tolerance=0.04)
    assert not within_tolerance([100.0, 110.0], tolerance=0.04)


def test_relative_spread_zero_mean():
    assert relative_spread([0.0, 0.0]) == 0.0


def test_confidence_interval_contains_mean():
    values = [10.0, 11.0, 9.0, 10.5, 9.5]
    lo, hi = confidence_interval(values)
    mean = sum(values) / len(values)
    assert lo < mean < hi


def test_confidence_interval_single_sample_degenerate():
    assert confidence_interval([7.0]) == (7.0, 7.0)


def test_confidence_interval_wider_at_higher_confidence():
    values = [10.0, 12.0, 8.0, 11.0]
    lo95, hi95 = confidence_interval(values, 0.95)
    lo99, hi99 = confidence_interval(values, 0.99)
    assert hi99 - lo99 > hi95 - lo95


def test_confidence_validation():
    with pytest.raises(ValueError):
        confidence_interval([1.0, 2.0], confidence=1.5)


def test_sweep_imports_leave_scipy_unloaded():
    """scipy.stats costs about a second to import; only
    confidence_interval needs it, so a sweep must not pay for it."""
    import os
    import subprocess
    import sys
    from pathlib import Path

    import repro

    src = str(Path(repro.__file__).resolve().parents[1])
    path = os.environ.get("PYTHONPATH")
    env = {**os.environ, "PYTHONPATH": src + (os.pathsep + path if path else "")}
    code = (
        "import sys, repro.engine, repro.experiments.runner; "
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    )
    out = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        check=True,
        env=env,
        timeout=120,
    )
    assert out.stdout.strip() == "[]"
