"""Capability-aware protocol registry of the execution engine.

:data:`repro.protocols.base.registry` maps names to *replayable*
protocol classes; the coordinated baselines (Chandy-Lamport, Koo-Toueg,
Prakash-Singhal) historically lived outside it as bare functions
because they cannot be trace-replayed.  This module unifies both under
one resolution entry point:

* every class in the base registry appears here with the capabilities
  *it declares* (``replayable`` / ``vectorizable`` / ``coordinated`` /
  ``supports_counters_only`` -- see
  :class:`repro.protocols.base.CheckpointingProtocol`), re-read on
  every resolution so late registrations (custom protocols, test
  stubs) are picked up;
* the coordinated schemes are registered here by name (``CL``, ``KT``,
  ``PS``) with ``coordinated=True``, so requesting one from a replay
  engine fails with a typed :class:`~repro.engine.errors.CapabilityError`
  instead of a ``KeyError`` or a mid-run crash.

:func:`resolve_protocols` is the *only* sanctioned way for consumers
(CLI, sweep config, benchmarks) to turn protocol names into runnable
entries: it raises :class:`~repro.engine.errors.UnknownProtocolError`
with the full known-name list, giving every consumer the same error
text.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Mapping, Optional, Sequence

from repro.core.online import CoordinatedScheme
from repro.engine.errors import CapabilityError, UnknownProtocolError
from repro.protocols.base import (
    CheckpointingProtocol,
    registry as _class_registry,
    validate_capabilities,
)

#: A protocol factory: ``factory(n_hosts, n_mss) -> instance``.
ProtocolFactory = Callable[[int, int], CheckpointingProtocol]


@dataclass(frozen=True)
class Capabilities:
    """What ways of driving a protocol are sound."""

    replayable: bool = True
    #: Ships batch kernels for the vectorized engine.
    vectorizable: bool = False
    coordinated: bool = False
    counters_only: bool = True

    @classmethod
    def of(cls, protocol_cls) -> "Capabilities":
        """Read the capability declaration off a protocol class (or
        factory), validating coherence."""
        validate_capabilities(protocol_cls)
        return cls(
            replayable=bool(getattr(protocol_cls, "replayable", True)),
            vectorizable=bool(getattr(protocol_cls, "vectorizable", False)),
            coordinated=bool(getattr(protocol_cls, "coordinated", False)),
            counters_only=bool(
                getattr(protocol_cls, "supports_counters_only", True)
            ),
        )


@dataclass(frozen=True)
class ResolvedProtocol:
    """One registry entry, ready for an engine to drive."""

    name: str
    capabilities: Capabilities
    #: Builds a fresh instance; None for coordinated baselines (the
    #: online DES builds its own bookkeeper around the scheme).
    factory: Optional[ProtocolFactory] = None
    #: Set iff ``capabilities.coordinated``.
    scheme: Optional[CoordinatedScheme] = None

    def make(self, n_hosts: int, n_mss: int) -> CheckpointingProtocol:
        """A fresh instance sized for the run."""
        if self.factory is None:
            raise CapabilityError(
                self.name,
                "instantiation",
                "coordinated baselines are driven by the online DES "
                "around their scheme, not instantiated directly",
            )
        return self.factory(n_hosts, n_mss)


#: Coordinated baselines: name -> scheme.  Registered here (not in the
#: class registry) because they are driven *by* the online engine, not
#: replayed; the names match the paper's Section 2 discussion.
_coordinated: dict[str, CoordinatedScheme] = {}


def register_coordinated(name: str, scheme: CoordinatedScheme) -> None:
    """Add a coordinated baseline to the engine registry."""
    if not name or not isinstance(name, str):
        raise ValueError(
            f"coordinated registry name must be a non-empty string, got {name!r}"
        )
    if name in _class_registry:
        raise ValueError(
            f"name {name!r} already registered as a replayable protocol"
        )
    _coordinated[name] = scheme


register_coordinated("CL", CoordinatedScheme.CHANDY_LAMPORT)
register_coordinated("KT", CoordinatedScheme.KOO_TOUEG)
register_coordinated("PS", CoordinatedScheme.PRAKASH_SINGHAL)
register_coordinated("TK", CoordinatedScheme.TULI_KUMAR)

#: Capabilities every coordinated baseline shares.
_COORDINATED_CAPS = Capabilities(
    replayable=False, coordinated=True, counters_only=False
)


def known_protocols() -> dict[str, ResolvedProtocol]:
    """Every resolvable protocol, rebuilt from the live registries.

    Re-reads :data:`repro.protocols.base.registry` on every call so
    protocols registered after import (custom classes, test stubs) are
    visible without any extra wiring -- adding a protocol stays a
    single ``@register`` line.  Third-party plugins are discovered on
    the first call (idempotent; see :mod:`repro.engine.plugins`), so
    every resolution path sees the same protocol universe.
    """
    from repro.engine import plugins

    plugins.ensure_discovered()
    out: dict[str, ResolvedProtocol] = {}
    for name, cls in _class_registry.items():
        out[name] = ResolvedProtocol(
            name=name, capabilities=Capabilities.of(cls), factory=cls
        )
    for name, scheme in _coordinated.items():
        out[name] = ResolvedProtocol(
            name=name, capabilities=_COORDINATED_CAPS, scheme=scheme
        )
    return out


def known_names() -> list[str]:
    """Sorted names of every resolvable protocol."""
    return sorted(known_protocols())


def _check_requirement(entry: ResolvedProtocol, require: str) -> None:
    caps = entry.capabilities
    if require == "replayable" and not caps.replayable:
        raise CapabilityError(
            entry.name,
            "replayable",
            "coordinated baselines inject control messages that perturb "
            "the schedule; run them on the online engine"
            if caps.coordinated
            else "this protocol must run embedded in the online simulation",
        )
    if require == "vectorizable" and not caps.vectorizable:
        _check_requirement(entry, "replayable")  # sharper message first
        raise CapabilityError(
            entry.name,
            "vectorizable",
            "this protocol ships no batch kernels; use the fused "
            "replay engine",
        )


def resolve_protocols(
    names: Optional[Sequence[str]] = None,
    *,
    require: Optional[str] = None,
    factories: Optional[Mapping[str, ProtocolFactory]] = None,
) -> tuple[ResolvedProtocol, ...]:
    """Resolve protocol *names* against the capability-aware registry.

    Parameters
    ----------
    names:
        Requested protocol names.  ``None`` selects every registered
        protocol that satisfies *require* (sorted by name) -- the CLI's
        "compare everything" default.
    require:
        Optional capability gate applied to each resolved entry:
        ``"replayable"`` or ``"vectorizable"``.  A
        protocol that exists but lacks the capability raises
        :class:`~repro.engine.errors.CapabilityError` (the same typed
        error the plan layer raises, so CLI / config / engine agree).
    factories:
        Optional override map (name -> factory); names found here trump
        the registry.  Tests use this to inject deliberately broken
        protocol stubs; capabilities are read off the override factory.

    Raises
    ------
    UnknownProtocolError
        Any name in neither *factories* nor the registry; the message
        lists all known names.
    CapabilityError
        A resolved protocol fails the *require* gate.
    """
    if require not in (None, "replayable", "vectorizable"):
        raise ValueError(f"unknown capability requirement {require!r}")
    known = known_protocols()
    if factories:
        for name, factory in factories.items():
            known[name] = ResolvedProtocol(
                name=name,
                capabilities=Capabilities.of(factory),
                factory=factory,
            )
    if names is None:
        entries = [known[name] for name in sorted(known)]
        if require is not None:
            entries = [e for e in entries if getattr(e.capabilities, require)]
        return tuple(entries)
    unknown = [name for name in names if name not in known]
    if unknown:
        raise UnknownProtocolError(unknown, tuple(known))
    entries = [known[name] for name in names]
    if require is not None:
        for entry in entries:
            _check_requirement(entry, require)
    return tuple(entries)
