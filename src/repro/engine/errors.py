"""Typed errors of the execution-engine layer.

Every consumer-facing failure mode of :mod:`repro.engine` raises one of
these, so the CLI, the sweep config and library callers can react to
the *kind* of problem instead of parsing message strings:

* :class:`UnknownProtocolError` -- a requested protocol name is not in
  the registry (the message lists every known name, with closest-match
  suggestions for likely typos).
* :class:`CapabilityError` -- the protocol exists but cannot run the
  requested way (a coordinated baseline on a replay engine, a
  counters-only run of a protocol that keeps no counters contract, a
  kernel-less protocol on the vectorized engine).
* :class:`PlanError` -- the :class:`~repro.engine.spec.RunSpec` itself
  is incoherent (no protocols, trace and workload both missing, an
  online run from a pre-built trace, ...).
* :class:`PluginError` and its subclasses -- a third-party protocol
  distribution failed to load, registered something that is not a
  protocol, or collided with an existing name (see
  :mod:`repro.engine.plugins`).

All of them subclass :class:`ValueError` so pre-engine callers that
caught ``ValueError`` from the old hand-rolled validation keep working
unchanged.
"""

from __future__ import annotations

import difflib
from typing import Optional, Sequence


class EngineError(ValueError):
    """Base class of every engine-layer resolution/planning error."""


def suggest_names(
    name: str, known: Sequence[str], n: int = 3
) -> tuple[str, ...]:
    """Closest registered names to *name* (case-insensitive, best
    first) -- the "did you mean" candidates for one unknown name."""
    by_fold = {k.casefold(): k for k in known}
    matches = difflib.get_close_matches(
        name.casefold(), list(by_fold), n=n, cutoff=0.5
    )
    return tuple(by_fold[m] for m in matches)


class UnknownProtocolError(EngineError):
    """A requested protocol name is not registered.

    The standard error text -- shared by the CLI and
    :meth:`repro.experiments.config.SweepConfig.validate` -- always
    lists the offending names, the closest registered names to each
    (likely typos), and every known name, so the fix is obvious from
    the message alone.
    """

    def __init__(self, unknown: Sequence[str], known: Sequence[str]):
        self.unknown = tuple(unknown)
        self.known = tuple(known)
        #: name -> closest registered names, best match first.
        self.suggestions = {
            name: suggest_names(name, self.known) for name in self.unknown
        }
        hints = "".join(
            f"; did you mean {' or '.join(repr(s) for s in hit)} "
            f"instead of {name!r}?"
            for name, hit in self.suggestions.items()
            if hit
        )
        super().__init__(
            f"unknown protocols {list(self.unknown)}{hints}; "
            f"known: {sorted(self.known)}"
        )


class CapabilityError(EngineError):
    """A protocol lacks a capability the requested execution needs."""

    def __init__(
        self,
        protocol: str,
        capability: str,
        detail: str,
        engine: Optional[str] = None,
    ):
        self.protocol = protocol
        self.capability = capability
        self.engine = engine
        where = f" on the {engine!r} engine" if engine else ""
        super().__init__(
            f"protocol {protocol!r} does not support "
            f"{capability!r}{where}: {detail}"
        )


class PlanError(EngineError):
    """The run specification itself is incoherent."""


class PluginError(EngineError):
    """Base class of protocol-plugin discovery failures.

    Every instance names the plugin (entry point or namespace module)
    and where it came from, so a report of several failed plugins stays
    actionable.
    """

    def __init__(self, plugin: str, source: str, detail: str):
        self.plugin = plugin
        self.source = source
        self.detail = detail
        super().__init__(f"plugin {plugin!r} (from {source}): {detail}")


class PluginLoadError(PluginError):
    """The plugin could not even be imported / resolved.

    Wraps the underlying exception (kept in ``__cause__`` when raised
    with ``raise ... from exc``) -- a plugin with a syntax error or a
    missing dependency fails discovery with this, never with a bare
    ImportError mid-resolution.
    """


class PluginProtocolError(PluginError):
    """The plugin loaded, but what it registered is not a usable
    protocol: not a :class:`~repro.protocols.base.CheckpointingProtocol`
    subclass, an incoherent capability declaration, or an entry point
    that registered nothing at all."""


class PluginCollisionError(PluginError):
    """The plugin tried to register a name that already exists.

    Shadowing is never allowed: a plugin cannot replace a builtin
    protocol, and two plugins cannot claim the same name -- the first
    load wins and the second fails with this error (its registrations
    are rolled back).
    """

    def __init__(
        self, plugin: str, source: str, name: str, existing_origin: str
    ):
        self.name = name
        self.existing_origin = existing_origin
        super().__init__(
            plugin,
            source,
            f"protocol name {name!r} is already registered "
            f"({existing_origin}); plugin names must not shadow "
            "existing protocols",
        )
