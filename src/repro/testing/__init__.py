"""Public testing kit: conformance batteries and hypothesis strategies.

Importable by third-party protocol plugins so a distribution can prove
itself against the same batteries the in-tree protocols pass::

    from repro.testing import conformance_suite

    TestMyProtocol = conformance_suite("XBCS")

Requires the ``test`` extra (pytest + hypothesis); the core library
never imports this package.

* :mod:`repro.testing.conformance` -- the battery set, the pytest
  front end and the programmatic :func:`check_conformance` report.
* :mod:`repro.testing.strategies` -- shared hypothesis strategies for
  workloads and valid mobile traces.
* :mod:`repro.testing.broken` -- deliberately broken protocols that
  prove the kit catches what it claims to catch.
"""

from repro.testing.conformance import (
    BATTERIES,
    BatteryResult,
    BatterySkipped,
    ConformanceFailure,
    ConformanceReport,
    check_conformance,
    conformance_suite,
    default_config,
    loop_factories,
    run_battery,
    without_kernels,
)
from repro.testing.strategies import FIGURE_CORNERS, traces, workload_configs

__all__ = [
    "BATTERIES",
    "BatteryResult",
    "BatterySkipped",
    "ConformanceFailure",
    "ConformanceReport",
    "FIGURE_CORNERS",
    "check_conformance",
    "conformance_suite",
    "default_config",
    "loop_factories",
    "run_battery",
    "traces",
    "workload_configs",
    "without_kernels",
]
