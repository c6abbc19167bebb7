"""Unit tests for the capability-aware registry (repro.engine.registry)."""

import pytest

from repro.engine.errors import CapabilityError, UnknownProtocolError
from repro.engine.registry import (
    Capabilities,
    register_coordinated,
    known_names,
    known_protocols,
    resolve_protocols,
)
from repro.protocols import BCSProtocol
from repro.protocols.base import registry as class_registry


def test_every_base_registry_protocol_is_resolvable():
    known = known_protocols()
    for name in class_registry:
        assert name in known
        assert known[name].capabilities.replayable


def test_coordinated_baselines_are_registered():
    known = known_protocols()
    for name in ("CL", "KT", "PS"):
        caps = known[name].capabilities
        assert caps.coordinated
        assert not caps.replayable
        assert not caps.vectorizable
        assert not caps.counters_only
        assert known[name].scheme is not None
        assert known[name].factory is None


def test_known_names_sorted_and_complete():
    names = known_names()
    assert names == sorted(names)
    assert set(class_registry) | {"CL", "KT", "PS"} <= set(names)


def test_unknown_name_lists_known_names():
    with pytest.raises(UnknownProtocolError) as exc:
        resolve_protocols(["BCS", "NOPE", "ALSO-NOPE"])
    assert exc.value.unknown == ("NOPE", "ALSO-NOPE")
    assert "unknown protocols ['NOPE', 'ALSO-NOPE']" in str(exc.value)
    assert "'BCS'" in str(exc.value)  # the known list is in the message


def test_resolution_preserves_request_order():
    entries = resolve_protocols(["QBC", "TP", "BCS"])
    assert [e.name for e in entries] == ["QBC", "TP", "BCS"]


def test_none_selects_all_matching_the_gate():
    replayable = resolve_protocols(None, require="replayable")
    assert all(e.capabilities.replayable for e in replayable)
    assert not any(e.name in ("CL", "KT", "PS") for e in replayable)
    everything = resolve_protocols(None)
    assert {"CL", "KT", "PS"} <= {e.name for e in everything}


def test_require_gate_raises_capability_error():
    with pytest.raises(CapabilityError) as exc:
        resolve_protocols(["CL"], require="replayable")
    assert exc.value.protocol == "CL"
    assert exc.value.capability == "replayable"
    with pytest.raises(ValueError, match="unknown capability requirement"):
        resolve_protocols(["BCS"], require="turbo")


def test_factory_override_trumps_registry_and_adds_names():
    sentinel = object()

    def factory(n_hosts, n_mss):
        return sentinel

    entries = resolve_protocols(
        ["BCS", "Custom"], factories={"BCS": factory, "Custom": factory}
    )
    assert entries[0].make(2, 1) is sentinel
    assert entries[1].name == "Custom"
    assert entries[1].capabilities.replayable  # defaults read off factory


def test_factory_capabilities_read_off_override():
    class NoKernel(BCSProtocol):
        vectorizable = False

    (entry,) = resolve_protocols(["X"], factories={"X": NoKernel})
    assert entry.capabilities.replayable
    assert not entry.capabilities.vectorizable
    with pytest.raises(CapabilityError):
        resolve_protocols(
            ["X"], factories={"X": NoKernel}, require="vectorizable"
        )


def test_incoherent_capability_declaration_rejected():
    class Impossible(BCSProtocol):
        coordinated = True  # but replayable stays True

    with pytest.raises(ValueError, match="coordinated"):
        resolve_protocols(["Bad"], factories={"Bad": Impossible})


def test_coordinated_entry_cannot_be_instantiated():
    (entry,) = resolve_protocols(["CL"])
    with pytest.raises(CapabilityError, match="online DES"):
        entry.make(10, 5)


def test_register_coordinated_rejects_collisions():
    with pytest.raises(ValueError, match="already registered"):
        register_coordinated("BCS", known_protocols()["CL"].scheme)
    with pytest.raises(ValueError, match="non-empty string"):
        register_coordinated("", known_protocols()["CL"].scheme)


def test_late_registration_is_visible(monkeypatch):
    class LateProtocol(BCSProtocol):
        name = "Late"

    monkeypatch.setitem(class_registry, "Late", LateProtocol)
    assert "Late" in known_protocols()
    (entry,) = resolve_protocols(["Late"])
    assert entry.capabilities == Capabilities.of(LateProtocol)


def test_unknown_name_carries_did_you_mean_suggestions():
    """Typos resolve to closest-match hints, in the message and as
    structured data on the exception."""
    with pytest.raises(UnknownProtocolError) as exc:
        resolve_protocols(["BSC"])
    assert "did you mean" in str(exc.value)
    assert "'BCS'" in str(exc.value)
    assert "BCS" in exc.value.suggestions["BSC"]


def test_suggestions_are_case_insensitive():
    with pytest.raises(UnknownProtocolError) as exc:
        resolve_protocols(["qbc"])
    assert exc.value.suggestions["qbc"][0] == "QBC"


def test_hopeless_names_get_no_suggestion():
    with pytest.raises(UnknownProtocolError) as exc:
        resolve_protocols(["ZZZZZZZZ"])
    assert exc.value.suggestions["ZZZZZZZZ"] == ()
    assert "did you mean" not in str(exc.value)
