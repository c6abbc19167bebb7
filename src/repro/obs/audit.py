"""Invariant audit: continuously prove the fast paths stay paper-correct.

The engine went fast in three steps (fused replay, compiled traces,
counters-only protocols, parallel shard workers), and each step is a
chance to silently break the properties the paper's argument rests on:
recovery lines must admit no orphan message (Section 3), checkpoint
indices must grow monotonically, and every engine must produce the same
counters as the reference single-protocol replay.  This module is the
tripwire: an opt-in audit that replays the consistency oracle of
:mod:`repro.core.consistency` against a run and reports every breach as
a structured :class:`AuditViolation`.

Checks
------

* **counter-mismatch** -- a protocol's incremental counters disagree
  with its checkpoint log, or a protocol-specific invariant
  (:meth:`~repro.protocols.base.CheckpointingProtocol.invariant_violations`,
  e.g. QBC's ``rn <= sn``) fails.
* **index-monotonicity** -- a host's checkpoint indices decrease, or
  repeat without the QBC replacement flag.
* **fused-divergence** -- :func:`~repro.core.replay.replay_fused`
  produced different counters than the reference
  :func:`~repro.core.replay.replay` for the same (trace, protocol).
* **orphan-message** -- the protocol's own recovery line (min-index
  rule, or TP's anchored lines) orphans a message, i.e. the line is
  not a consistent global checkpoint.
* **broken-recovery-line** -- the recovery line cannot even be
  materialised (a host lacks the checkpoint its index demands).

:func:`audit_trace` runs every check over one trace;
:func:`run_audit_grid` sweeps a config grid through the sweep runner
with auditing and telemetry on, backing the ``repro audit`` CLI.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Mapping, Optional, Sequence

from repro.core.trace import Trace
from repro.protocols.base import CheckpointingProtocol, registry

#: Violation kinds (the ``AuditViolation.kind`` vocabulary).
ORPHAN_MESSAGE = "orphan-message"
BROKEN_RECOVERY_LINE = "broken-recovery-line"
INDEX_MONOTONICITY = "index-monotonicity"
FUSED_DIVERGENCE = "fused-divergence"
COUNTER_MISMATCH = "counter-mismatch"

#: Cap on orphan violations reported per (protocol, line) so a badly
#: broken protocol cannot flood the report.
MAX_ORPHANS_REPORTED = 5


class AuditViolation(Exception):
    """One audited invariant breach, with enough structure to act on.

    An :class:`Exception` so strict callers can ``raise`` it directly,
    but normally collected into lists by the audit entry points.  All
    fields are carried positionally in ``args`` so instances pickle
    cleanly over the shard wire.
    """

    def __init__(
        self,
        kind: str,
        protocol: str,
        detail: str,
        host: Optional[int] = None,
        seed: Optional[int] = None,
        t_switch: Optional[float] = None,
    ):
        super().__init__(kind, protocol, detail, host, seed, t_switch)
        self.kind = kind
        self.protocol = protocol
        self.detail = detail
        self.host = host
        self.seed = seed
        self.t_switch = t_switch

    def __str__(self) -> str:
        where = []
        if self.t_switch is not None:
            where.append(f"t_switch={self.t_switch:g}")
        if self.seed is not None:
            where.append(f"seed={self.seed}")
        if self.host is not None:
            where.append(f"host={self.host}")
        ctx = f" [{' '.join(where)}]" if where else ""
        return f"{self.kind}({self.protocol}){ctx}: {self.detail}"

    def as_dict(self) -> dict[str, Any]:
        """JSON-safe form for telemetry/report emission."""
        return {
            "kind": self.kind,
            "protocol": self.protocol,
            "detail": self.detail,
            "host": self.host,
            "seed": self.seed,
            "t_switch": self.t_switch,
        }


#: name -> callable(n_hosts, n_mss) building a fresh protocol instance.
FactoryMap = Mapping[str, Callable[[int, int], CheckpointingProtocol]]


def check_protocol_invariants(
    protocol: CheckpointingProtocol,
    seed: Optional[int] = None,
    t_switch: Optional[float] = None,
) -> list[AuditViolation]:
    """Post-run structural checks on one protocol instance.

    Covers the counter/log consistency contract of
    :class:`~repro.protocols.base.CheckpointingProtocol` (plus any
    subclass invariants) and per-host index monotonicity over the
    checkpoint log: indices may never decrease, and may repeat only via
    QBC's explicit replacement rule.
    """
    violations = [
        AuditViolation(
            COUNTER_MISMATCH, protocol.name, problem,
            seed=seed, t_switch=t_switch,
        )
        for problem in protocol.invariant_violations()
    ]
    last_seen: dict[int, tuple[int, int]] = {}  # host -> (index, log pos)
    for pos, ck in enumerate(protocol.checkpoints):
        prev = last_seen.get(ck.host)
        if prev is not None:
            prev_index, prev_pos = prev
            if ck.index < prev_index or (
                ck.index == prev_index and not ck.replaced
            ):
                violations.append(
                    AuditViolation(
                        INDEX_MONOTONICITY,
                        protocol.name,
                        f"checkpoint #{pos} has index {ck.index} after "
                        f"index {prev_index} (log entry #{prev_pos})",
                        host=ck.host,
                        seed=seed,
                        t_switch=t_switch,
                    )
                )
        last_seen[ck.host] = (ck.index, pos)
    return violations


def _make(
    name: str,
    trace: Trace,
    factories: Optional[FactoryMap],
) -> CheckpointingProtocol:
    factory = (factories or registry)[name]
    return factory(trace.n_hosts, trace.n_mss)


def _check_lines(
    trace: Trace,
    name: str,
    protocol_factory: Callable[[], CheckpointingProtocol],
    seed: Optional[int],
    t_switch: Optional[float],
) -> list[AuditViolation]:
    """Replay the consistency oracle against *name*'s recovery lines."""
    from repro.core.consistency import (
        annotate_replay,
        build_recovery_line,
        find_orphans,
        tp_anchored_line,
    )

    protocol = protocol_factory()
    run = annotate_replay(trace, protocol)
    violations: list[AuditViolation] = []

    def report_orphans(line, label: str) -> None:
        orphans = find_orphans(run, line)
        for m in orphans[:MAX_ORPHANS_REPORTED]:
            violations.append(
                AuditViolation(
                    ORPHAN_MESSAGE,
                    name,
                    f"{label} orphans msg {m.msg_id} "
                    f"({m.src}@{m.src_pos} -> {m.dst}@{m.dst_pos})",
                    host=m.dst,
                    seed=seed,
                    t_switch=t_switch,
                )
            )
        if len(orphans) > MAX_ORPHANS_REPORTED:
            violations.append(
                AuditViolation(
                    ORPHAN_MESSAGE,
                    name,
                    f"{label}: {len(orphans) - MAX_ORPHANS_REPORTED} "
                    "further orphans suppressed",
                    seed=seed,
                    t_switch=t_switch,
                )
            )

    try:
        line = build_recovery_line(run, protocol)
    except NotImplementedError:
        # No global on-the-fly line.  TP guarantees *anchored* lines
        # instead; audit every anchor.  Protocols with neither rule
        # (the uncoordinated baseline) promise nothing to audit.
        if not hasattr(protocol, "required_indices"):
            return violations
        for anchor in range(trace.n_hosts):
            try:
                anchored = tp_anchored_line(run, protocol, anchor)
            except (ValueError, KeyError) as exc:
                violations.append(
                    AuditViolation(
                        BROKEN_RECOVERY_LINE,
                        name,
                        f"anchored line of host {anchor}: {exc}",
                        host=anchor,
                        seed=seed,
                        t_switch=t_switch,
                    )
                )
                continue
            report_orphans(anchored, f"anchored line of host {anchor}")
        return violations
    except ValueError as exc:
        violations.append(
            AuditViolation(
                BROKEN_RECOVERY_LINE, name, str(exc),
                seed=seed, t_switch=t_switch,
            )
        )
        return violations
    report_orphans(line, "recovery line")
    return violations


def audit_trace(
    trace: Trace,
    protocols: Sequence[str],
    factories: Optional[FactoryMap] = None,
    seed: Optional[int] = None,
    t_switch: Optional[float] = None,
) -> list[AuditViolation]:
    """Run every audit check over one trace; returns all violations.

    For each protocol name: a reference-engine run on a fresh logging
    instance (whose counters, log and invariants are checked), one
    fused-engine pass over fresh instances (whose counters must match
    the reference bit-for-bit), and the recovery-line orphan oracle on
    an annotated re-run.  Both runs go through the unified engine layer
    (:mod:`repro.engine`) -- with auditing *off*, since this function
    is what an armed audit executes.  *factories* overrides the
    protocol registry -- tests use it to inject deliberately broken
    stubs.

    The (seed, t_switch) coordinates are stamped into every violation so
    grid reports stay actionable.
    """
    from repro.engine import RunSpec, execute

    violations: list[AuditViolation] = []

    def engine_run(kind: str):
        return execute(
            RunSpec(
                protocols=tuple(protocols),
                trace=trace,
                engine=kind,
                seed=seed,
                factories=factories,
            )
        )

    reference = engine_run("reference")
    for outcome in reference.outcomes:
        violations.extend(
            check_protocol_invariants(
                outcome.protocol, seed=seed, t_switch=t_switch
            )
        )

    fused = engine_run("fused")
    for ref_out, fused_out in zip(reference.outcomes, fused.outcomes):
        name = ref_out.name
        ref_sig = ref_out.protocol.counter_signature()
        fused_sig = fused_out.protocol.counter_signature()
        if ref_sig != fused_sig:
            diff = {
                key: (ref_sig[key], fused_sig[key])
                for key in ref_sig
                if ref_sig[key] != fused_sig[key]
            }
            violations.append(
                AuditViolation(
                    FUSED_DIVERGENCE,
                    name,
                    f"fused vs reference counters differ: {diff}",
                    seed=seed,
                    t_switch=t_switch,
                )
            )

    for name in protocols:
        violations.extend(
            _check_lines(
                trace,
                name,
                lambda name=name: _make(name, trace, factories),
                seed,
                t_switch,
            )
        )
    return violations


# ---------------------------------------------------------------------------
# grid audit (the `repro audit` CLI body)
# ---------------------------------------------------------------------------


@dataclass(slots=True)
class AuditGridResult:
    """Outcome of auditing a sweep grid."""

    #: The audited sweep (audit + telemetry threaded through the runner).
    sweep: Any

    @property
    def violations(self) -> list[AuditViolation]:
        """All violations across the grid, in (point, seed) order."""
        return list(self.sweep.violations)

    @property
    def telemetry(self):
        """All task telemetry records, in (point, seed) order."""
        return self.sweep.telemetry

    @property
    def ok(self) -> bool:
        """True iff the whole grid audited clean."""
        return not self.sweep.violations

    def report(self) -> str:
        """Terminal report: telemetry table, summary, violations."""
        from repro.obs.telemetry import telemetry_table

        config = self.sweep.config
        lines = [
            f"audit grid: {len(config.t_switch_values)} t_switch value(s) "
            f"x {len(config.seeds)} seed(s), "
            f"protocols {', '.join(config.protocols)}",
            "",
            telemetry_table(self.telemetry),
            "",
            str(self.sweep.telemetry_summary()),
            "",
        ]
        if self.ok:
            lines.append(
                f"zero violations across "
                f"{len(config.t_switch_values) * len(config.seeds)} runs"
            )
        else:
            lines.append(f"{len(self.violations)} VIOLATION(S):")
            lines.extend(f"  {v}" for v in self.violations)
        return "\n".join(lines)


def run_audit_grid(config) -> AuditGridResult:
    """Audit every (t_switch, seed) task of *config*'s grid.

    Forces ``audit=True`` on a copy of the sweep config and runs it
    through the standard sweep engine, so the audit exercises exactly
    the production path (cache, shard workers, fused replay) it is
    meant to police.
    """
    from dataclasses import replace

    from repro.experiments.runner import run_sweep

    sweep = run_sweep(replace(config, audit=True))
    return AuditGridResult(sweep=sweep)
