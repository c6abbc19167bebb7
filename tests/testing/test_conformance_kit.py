"""The conformance kit itself: battery mechanics, report shape, the
pytest front end, and capability-aware skipping."""

import pathlib
import sys

import pytest

from repro.testing import (
    BATTERIES,
    BatterySkipped,
    ConformanceFailure,
    check_conformance,
    conformance_suite,
    run_battery,
)

EXAMPLE_PLUGIN_SRC = (
    pathlib.Path(__file__).resolve().parent.parent.parent
    / "examples"
    / "repro-plugin-example"
    / "src"
)


def test_battery_names_are_the_documented_six():
    assert BATTERIES == (
        "registration",
        "signature-stability",
        "engine-equivalence",
        "recovery-line",
        "consistency-oracle",
        "audit-cleanliness",
    )


def test_unknown_battery_is_a_keyerror():
    with pytest.raises(KeyError, match="unknown battery"):
        run_battery("no-such-battery", "BCS")


def test_unknown_protocol_fails_registration_with_suggestions():
    with pytest.raises(ConformanceFailure) as exc:
        run_battery("registration", "BSC")
    assert exc.value.battery == "registration"
    assert "did you mean" in exc.value.detail


def test_every_battery_passes_for_bcs():
    for battery in BATTERIES:
        detail = run_battery(battery, "BCS")
        assert isinstance(detail, str) and detail


def test_coordinated_baseline_skips_replay_batteries():
    assert "coordinated" in run_battery("registration", "KT")
    run_battery("signature-stability", "KT")  # online determinism
    for battery in (
        "engine-equivalence",
        "recovery-line",
        "consistency-oracle",
        "audit-cleanliness",
    ):
        with pytest.raises(BatterySkipped):
            run_battery(battery, "KT")


def test_rdt_protocol_skips_line_batteries_but_audits_clean():
    # FDAS promises no on-the-fly line (RDT family) -- the line
    # batteries skip; everything else must hold.
    for battery in ("recovery-line", "consistency-oracle"):
        with pytest.raises(BatterySkipped, match="no on-the-fly"):
            run_battery(battery, "FDAS")
    run_battery("engine-equivalence", "FDAS")
    run_battery("audit-cleanliness", "FDAS")


def test_check_conformance_report_shape():
    report = check_conformance("QBC")
    assert report.protocol == "QBC"
    assert report.ok
    assert not report.failures
    assert tuple(r.battery for r in report.results) == BATTERIES
    assert all(r.status in ("passed", "skipped") for r in report.results)
    summary = report.summary()
    assert "QBC" in summary and "passed" in summary


def test_check_conformance_collects_failures_without_raising():
    from repro.testing.broken import BROKEN_FACTORIES

    report = check_conformance("BROKEN-LINE", factories=BROKEN_FACTORIES)
    assert not report.ok
    assert any(r.battery == "recovery-line" for r in report.failures)


def test_conformance_suite_builds_a_collectable_class():
    suite = conformance_suite("BCS", "KT")
    assert suite.PROTOCOLS == ("BCS", "KT")
    test_names = [n for n in vars(suite) if n.startswith("test_")]
    # one test per battery + the hypothesis property test
    assert len(test_names) == len(BATTERIES) + 1
    assert "test_property_random_traces_stay_sound" in test_names


def test_conformance_suite_defaults_to_every_registered_protocol():
    from repro.engine import known_names

    suite = conformance_suite()
    assert suite.PROTOCOLS == tuple(known_names())


def test_example_plugin_class_passes_via_factory_injection():
    """The example distribution's protocol, before any packaging."""
    sys.path.insert(0, str(EXAMPLE_PLUGIN_SRC))
    try:
        from repro_plugin_example.protocol import StrideBCSProtocol
    finally:
        sys.path.remove(str(EXAMPLE_PLUGIN_SRC))
    report = check_conformance(
        "XBCS", factories={"XBCS": StrideBCSProtocol}
    )
    assert report.ok, report.summary()
    passed = {r.battery for r in report.results if r.status == "passed"}
    # stride-2 BCS keeps the equal-index line sound: the line batteries
    # must actually run (not skip)
    assert {"recovery-line", "consistency-oracle"} <= passed


def test_hidden_shared_state_fails_engine_equivalence_and_audit():
    """Instances that share hidden class-level state break the fused
    contract; the equivalence battery and the audit both catch it."""
    import itertools

    from repro.protocols.bcs import BCSProtocol

    class SharedTickBCS(BCSProtocol):
        tick = itertools.count()

        def on_receive(self, host, piggyback, src, now):
            if next(type(self).tick) % 2 == 0:
                super().on_receive(host, piggyback, src, now)

    factories = {"SHARED": SharedTickBCS}
    with pytest.raises(ConformanceFailure, match="diverge from reference"):
        run_battery("engine-equivalence", "SHARED", factories=factories)
    with pytest.raises(ConformanceFailure, match="engine-divergence"):
        run_battery("audit-cleanliness", "SHARED", factories=factories)


def test_conformance_suite_merges_factory_names():
    from repro.testing.broken import OrphanLineProtocol

    suite = conformance_suite(
        "BCS", factories={"BROKEN-ORPHAN": OrphanLineProtocol}
    )
    assert suite.PROTOCOLS == ("BCS", "BROKEN-ORPHAN")
