"""Invariant audit: continuously prove the fast paths stay paper-correct.

The engine went fast in several steps (fused replay, compiled traces,
vectorized kernels, counters-only protocols, parallel shard workers),
and each step is a chance to silently break the properties the paper's
argument rests on: recovery lines must admit no orphan message
(Section 3), checkpoint indices must grow monotonically, and every
engine must produce the same counters as the reference
single-protocol replay.  This module is the tripwire: an opt-in audit
that checks the instances an engine run produced against a reference
replay and the consistency oracle of :mod:`repro.core.consistency`,
and reports every breach as a structured :class:`AuditViolation`.

Checks
------

* **counter-mismatch** -- a protocol's incremental counters disagree
  with its checkpoint log, or a protocol-specific invariant
  (:meth:`~repro.protocols.base.CheckpointingProtocol.invariant_violations`,
  e.g. QBC's ``rn <= sn``) fails.
* **index-monotonicity** -- a host's checkpoint indices decrease, or
  repeat without the QBC replacement flag.
* **engine-divergence** -- the audited run's engine (reference, fused
  or vectorized) produced different counters than a reference replay
  of a fresh instance over the same trace.
* **orphan-message** -- the protocol's own recovery line (min-index
  rule, or TP's anchored lines) orphans a message, i.e. the line is
  not a consistent global checkpoint.
* **broken-recovery-line** -- the recovery line cannot even be
  materialised (a host lacks the checkpoint its index demands).

:func:`audit_run` runs every check over one finished engine run (the
body of :class:`~repro.engine.observers.AuditObserver`);
:func:`audit_trace` audits a reference run over one trace;
:func:`run_audit_grid` sweeps a config grid through the sweep runner
with auditing and telemetry on, backing the ``repro audit`` CLI.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Mapping, Optional, Sequence

from repro.core.trace import Trace
from repro.protocols.base import CheckpointingProtocol

#: Violation kinds (the ``AuditViolation.kind`` vocabulary).
ORPHAN_MESSAGE = "orphan-message"
BROKEN_RECOVERY_LINE = "broken-recovery-line"
INDEX_MONOTONICITY = "index-monotonicity"
ENGINE_DIVERGENCE = "engine-divergence"
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


def _check_lines(
    run,
    protocol: CheckpointingProtocol,
    name: str,
    seed: Optional[int],
    t_switch: Optional[float],
) -> list[AuditViolation]:
    """The consistency oracle against *protocol*'s recovery lines over
    its annotated reference replay *run*."""
    from repro.core.consistency import (
        build_recovery_line,
        find_orphans,
        tp_anchored_line,
    )

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
        for anchor in range(run.n_hosts):
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


def audit_run(
    plan, result, t_switch: Optional[float] = None
) -> list[AuditViolation]:
    """Run every audit check over one finished engine run.

    *plan* is the run's :class:`~repro.engine.spec.ExecutionPlan` and
    *result* its :class:`~repro.engine.engines.RunResult`.  Every
    outcome that carries a protocol instance gets the structural checks
    of :func:`check_protocol_invariants` on that very instance.  On a
    replay engine each protocol is also replayed once more on a fresh
    instance built by the plan's entry (so factory overrides apply):
    the reference replay, annotated for the consistency oracle.  The
    run's counters must match it bit for bit (``engine-divergence``),
    its own invariants are checked too (a kernel that bypasses the
    hooks leaves only the reference to catch a broken hook; breaches
    the run's instance already reported are not repeated), and its
    recovery line(s) must admit no orphan message.  Online runs get
    the structural checks only: their schedule is not replayable.

    The (seed, t_switch) coordinates are stamped into every violation
    so grid reports stay actionable.
    """
    from repro.core.consistency import annotate_replay

    seed, trace = result.seed, result.trace
    violations: list[AuditViolation] = []
    for entry, outcome in zip(plan.entries, result.outcomes):
        protocol = outcome.protocol
        if protocol is None:
            continue  # a coordinated baseline: no instance to check
        own = check_protocol_invariants(protocol, seed=seed, t_switch=t_switch)
        violations.extend(own)
        if plan.engine_kind == "online":
            continue
        reference = entry.make(trace.n_hosts, trace.n_mss)
        run = annotate_replay(trace, reference)
        reported = {v.args for v in own}
        violations.extend(
            v
            for v in check_protocol_invariants(
                reference, seed=seed, t_switch=t_switch
            )
            if v.args not in reported
        )
        got, want = protocol.counter_signature(), reference.counter_signature()
        if got != want:
            diff = {
                key: (want[key], got[key])
                for key in want
                if want[key] != got[key]
            }
            violations.append(
                AuditViolation(
                    ENGINE_DIVERGENCE,
                    entry.name,
                    f"{plan.engine_kind} vs reference counters differ: "
                    f"{diff}",
                    seed=seed,
                    t_switch=t_switch,
                )
            )
        violations.extend(
            _check_lines(run, reference, entry.name, seed, t_switch)
        )
    return violations


def audit_trace(
    trace: Trace,
    protocols: Sequence[str],
    factories: Optional[FactoryMap] = None,
    seed: Optional[int] = None,
    t_switch: Optional[float] = None,
) -> list[AuditViolation]:
    """Run every audit check over one trace; returns all violations.

    Runs *protocols* on the reference engine (:mod:`repro.engine`) and
    audits that run with :func:`audit_run`.  *factories* overrides the
    protocol registry name by name -- tests use it to inject
    deliberately broken stubs next to registered protocols.
    """
    from repro.engine import RunSpec, execute, plan

    p = plan(
        RunSpec(
            protocols=tuple(protocols),
            trace=trace,
            engine="reference",
            seed=seed,
            factories=factories,
        )
    )
    return audit_run(p, execute(p), t_switch=t_switch)


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
    through the standard sweep engine, so the audit checks exactly the
    production path (cache, shard workers, fused or vectorized replay)
    it is meant to police.
    """
    from dataclasses import replace

    from repro.experiments.runner import run_sweep

    sweep = run_sweep(replace(config, audit=True))
    return AuditGridResult(sweep=sweep)
