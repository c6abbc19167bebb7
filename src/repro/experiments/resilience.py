"""Fault-tolerant, resumable sweep execution.

The sweep engine runs large (point, seed) Monte-Carlo grids either
serially in-process or on local shard workers driven by the sharded
coordinator (:mod:`repro.experiments.sharded`); this module is the
crash-and-recover layer both share -- the same discipline the paper's
checkpointing protocols give mobile hosts, applied to our own
long-running experiments:

* **Per-task supervision** -- every (t_switch, seed) task runs under a
  configurable deadline (worker-side alarm) and is retried with
  exponential backoff + jitter on failure.  Failures carry a structured
  taxonomy (:class:`TaskError`: ``timeout`` / ``worker-crash`` /
  ``cache-corrupt`` / ``protocol-error`` / ``worker-lost``), and a task
  that keeps failing is *quarantined*: it becomes an explicit hole in
  the :class:`~repro.experiments.runner.SweepResult` instead of
  aborting the grid.  Whole-worker faults on parallel sweeps (a dead
  or silent worker, a cell hung past the alarm) are healed by the
  coordinator: lease revocation, worker respawn and a hung-cell
  watchdog.
* **Sweep journal** -- an append-only JSONL ledger
  (:class:`SweepJournal`) of completed task results, fsynced per entry
  and created via tmp+rename, keyed by a hash of the sweep's
  result-determining configuration.  ``SweepConfig.resume_from`` loads
  a journal back and re-runs only the missing (point, seed) cells.
* **Graceful draining** -- SIGINT/SIGTERM stop dispatch, let the
  journal keep everything already finished, and hand back a partial
  result flagged ``interrupted`` (a second SIGINT force-quits).

Because every task is a pure function of its config, a sweep that
crashed, hung, lost workers or was interrupted still converges to a
result *value-identical* to a fault-free run once completed or resumed
-- the chaos tests (``tests/experiments/test_chaos.py``) assert exactly
that.
"""

from __future__ import annotations

import errno
import hashlib
import json
import os
import random
import signal
import tempfile
import threading
import time
from dataclasses import asdict, dataclass, field
from typing import Any, Optional, Sequence

from repro.experiments.progress import ProgressReporter

#: The TaskError.kind vocabulary.  ``worker-crash`` is a task that
#: tried to take its worker down (``SystemExit``, a broken pipe) and was
#: caught; ``worker-lost`` means a whole shard worker vanished (process
#: death, severed connection or missed heartbeat deadline) and the cell
#: was reassigned -- see :mod:`repro.experiments.sharded`.
TASK_ERROR_KINDS = (
    "timeout",
    "worker-crash",
    "cache-corrupt",
    "protocol-error",
    "worker-lost",
)

#: Journal format version (header field; bumped on breaking changes).
JOURNAL_VERSION = 1

#: Environment variable naming a directory of chaos-injection flags
#: (test-only; see :func:`repro.experiments.sharded._worker_chaos`).
CHAOS_DIR_ENV = "REPRO_CHAOS_DIR"


class TaskTimeout(Exception):
    """Raised inside a worker when a task blows its deadline."""


class JournalConfigMismatch(ValueError):
    """A journal's config hash does not match the resuming sweep."""


class JournalExists(ValueError):
    """A sweep was pointed at an existing journal without resuming it.

    Appending to it would execute and journal every cell a second
    time; resuming (``resume_from`` at the same path, ``--resume``)
    runs only the cells it lacks.
    """


class JournalLocked(RuntimeError):
    """Another live process (or coordinator) holds this journal open.

    The journal is the sweep's exactly-once ledger: two concurrent
    writers would interleave appends and corrupt resume semantics, so
    :meth:`SweepJournal.open` takes an advisory ``flock`` and refuses
    to share.  Wait for the other sweep to finish, or point
    ``--journal`` / ``--resume`` at a different path.
    """


@dataclass(slots=True)
class TaskError:
    """One quarantined (or still-retrying) sweep task failure."""

    #: One of :data:`TASK_ERROR_KINDS`.
    kind: str
    t_switch: float
    seed: int
    #: Attempts made when the error was recorded (1 = first try).
    attempts: int = 1
    detail: str = ""

    def __str__(self) -> str:
        return (
            f"{self.kind}(t_switch={self.t_switch:g} seed={self.seed} "
            f"attempts={self.attempts}): {self.detail or 'no detail'}"
        )

    def as_json_dict(self) -> dict[str, Any]:
        """Plain-JSON form (journal / telemetry emission)."""
        return asdict(self)


@dataclass(slots=True)
class ExecutionReport:
    """What :func:`execute` hands back to the runner."""

    #: Task outcomes aligned with the grid's task order; ``None`` marks
    #: a hole (quarantined task, or not reached before an interrupt).
    outcomes: list
    #: Quarantined tasks (terminal failures), dispatch order.
    errors: list[TaskError] = field(default_factory=list)
    #: ``(t_switch, seed)`` cells served from the resume journal
    #: instead of re-executed.
    resumed_cells: set = field(default_factory=set)
    #: Re-dispatches that happened across the sweep.
    retries: int = 0
    #: True when SIGINT/SIGTERM drained the sweep early.
    interrupted: bool = False


# ----------------------------------------------------------------------
# config hashing
# ----------------------------------------------------------------------
def sweep_config_hash(config) -> str:
    """Hash of the sweep fields that determine *result values*.

    Covers the workload config (via the trace cache's canonical
    :func:`~repro.workload.cache.config_key`), the grid, the protocol
    set and the audit switch.  Execution knobs (workers, cache, journal
    paths, retry policy) are deliberately excluded: they change how a
    sweep runs, never what it computes, so a journal stays resumable
    across them.
    """
    from repro.workload.cache import config_key

    payload = {
        "base": config_key(config.base),
        "t_switch_values": [repr(float(t)) for t in config.t_switch_values],
        "protocols": list(config.protocols),
        "seeds": [int(s) for s in config.seeds],
        "audit": bool(config.audit),
    }
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


# ----------------------------------------------------------------------
# the sweep journal
# ----------------------------------------------------------------------
class SweepJournal:
    """Append-only JSONL record of a sweep: the one file it writes.

    Line 1 is a header ``{"kind": "header", "version": ...,
    "config_hash": ...}``; every completed task appends one
    ``{"kind": "task", ...}`` line carrying its runs, telemetry and
    audit violations.  While progress is on, the
    :class:`~repro.experiments.progress.ProgressReporter` adds
    ``{"kind": "heartbeat", ...}`` lines, and the sweep closes with one
    ``{"kind": "summary", "telemetry": ...}`` line
    (:class:`~repro.obs.telemetry.TelemetrySummary`).  ``repro tail``
    and ``repro dash`` read all four kinds; :meth:`load` resumes from
    ``task`` lines alone.

    The file is *created* atomically (header written to a tmp file,
    fsynced, renamed into place) and every task and summary append is
    flushed and fsynced, so a crash loses at most the line being
    written -- and the loader ignores a torn trailing line.
    Heartbeats are flushed but not fsynced: resume never reads them.
    """

    def __init__(self, path, config_hash: str):
        self.path = os.fspath(path)
        self.config_hash = config_hash
        self._fh = None

    # -- creation / opening -------------------------------------------
    def open(self) -> "SweepJournal":
        """Create the journal (atomic) or re-open a matching one."""
        if os.path.exists(self.path):
            header = self._read_header(self.path)
            if header.get("config_hash") != self.config_hash:
                raise JournalConfigMismatch(
                    f"journal {self.path} was written for config hash "
                    f"{header.get('config_hash')!r}, not "
                    f"{self.config_hash!r}; refusing to append"
                )
        else:
            parent = os.path.dirname(self.path) or "."
            os.makedirs(parent, exist_ok=True)
            fd, tmp = tempfile.mkstemp(
                dir=parent, prefix=".journal-", suffix=".tmp"
            )
            try:
                header = {
                    "kind": "header",
                    "version": JOURNAL_VERSION,
                    "config_hash": self.config_hash,
                }
                with os.fdopen(fd, "w") as fh:
                    fh.write(json.dumps(header, sort_keys=True) + "\n")
                    fh.flush()
                    os.fsync(fh.fileno())
                os.replace(tmp, self.path)
            except BaseException:
                if os.path.exists(tmp):
                    os.unlink(tmp)
                raise
        self._fh = open(self.path, "a", encoding="utf-8")
        self._lock()
        # A crash mid-append can leave a torn final line with no
        # newline; appending straight after it would glue the next
        # record onto the garbage and lose *both* on the next resume.
        # Terminate the torn line so every new record starts clean.
        with open(self.path, "rb") as check:
            check.seek(0, os.SEEK_END)
            if check.tell() > 0:
                check.seek(-1, os.SEEK_END)
                if check.read(1) != b"\n":
                    self._fh.write("\n")
                    self._fh.flush()
        return self

    def _lock(self) -> None:
        """Advisory exclusive lock on the journal (see
        :class:`JournalLocked`).  Platforms without ``fcntl`` skip the
        guard -- the single-writer contract is then on the operator."""
        try:
            import fcntl
        except ImportError:  # pragma: no cover - non-POSIX platform
            return
        try:
            fcntl.flock(self._fh.fileno(), fcntl.LOCK_EX | fcntl.LOCK_NB)
        except OSError:
            fh, self._fh = self._fh, None
            fh.close()
            raise JournalLocked(
                f"journal {self.path} is locked by another live sweep "
                f"process; two concurrent writers would corrupt "
                f"exactly-once resume.  Wait for that sweep to finish "
                f"(the lock releases on close/exit) or pass a "
                f"different --journal/--resume path."
            ) from None

    @staticmethod
    def _read_header(path) -> dict:
        # errors="replace": a crash can tear the file mid multi-byte
        # UTF-8 sequence; decoding must degrade to a skipped line, not
        # raise out of the read loop.
        with open(path, encoding="utf-8", errors="replace") as fh:
            first = fh.readline().strip()
        try:
            header = json.loads(first) if first else {}
        except ValueError:
            header = {}
        if header.get("kind") != "header":
            raise JournalConfigMismatch(
                f"{path} is not a sweep journal (missing header line)"
            )
        return header

    # -- appending -----------------------------------------------------
    def record(
        self,
        t_switch: float,
        seed: int,
        runs,
        telemetry,
        violations,
        attempts: int = 1,
    ) -> None:
        """Append one completed task; flushed and fsynced before
        returning, so the entry survives any subsequent crash."""
        self._append({
            "kind": "task",
            "t_switch": float(t_switch),
            "seed": int(seed),
            "attempts": int(attempts),
            "runs": [asdict(r) for r in runs],
            "telemetry": telemetry.as_json_dict(),
            "violations": [v.as_dict() for v in violations],
        })

    def heartbeat(self, record: dict) -> None:
        """Append one progress heartbeat (flushed, not fsynced)."""
        self._append(record, sync=False)

    def summary(self, summary) -> None:
        """Append the sweep's closing
        :class:`~repro.obs.telemetry.TelemetrySummary`."""
        self._append({"kind": "summary", "telemetry": asdict(summary)})

    def _append(self, entry: dict, sync: bool = True) -> None:
        if self._fh is None:
            raise RuntimeError("journal is not open")
        self._fh.write(json.dumps(entry, sort_keys=True) + "\n")
        self._fh.flush()
        if sync:
            os.fsync(self._fh.fileno())

    def close(self) -> None:
        if self._fh is not None:
            self._fh.close()
            self._fh = None

    # -- loading -------------------------------------------------------
    @staticmethod
    def load(path, config_hash: str) -> dict[tuple[float, int], tuple]:
        """Completed task outcomes from *path*, keyed ``(t_switch,
        seed)``.

        Verifies the header's config hash against *config_hash*
        (raising :class:`JournalConfigMismatch` otherwise) and skips
        undecodable lines -- a torn trailing line from a crash mid-append
        simply isn't resumed.  Values are ``(t_switch, seed, runs,
        telemetry, violations)`` tuples shaped exactly like a live
        ``_evaluate_task`` outcome.
        """
        from repro.experiments.runner import RunOutcome
        from repro.obs.audit import AuditViolation
        from repro.obs.telemetry import TaskTelemetry

        header = SweepJournal._read_header(path)
        if header.get("config_hash") != config_hash:
            raise JournalConfigMismatch(
                f"journal {path} was written for config hash "
                f"{header.get('config_hash')!r}, not {config_hash!r}"
            )
        entries: dict[tuple[float, int], tuple] = {}
        # errors="replace": a torn trailing line may cut a multi-byte
        # UTF-8 sequence; the mangled line then fails json.loads and is
        # skipped like any other torn line instead of raising
        # UnicodeDecodeError out of the iterator.
        with open(path, encoding="utf-8", errors="replace") as fh:
            fh.readline()  # header, already verified
            for line in fh:
                line = line.strip()
                if not line:
                    continue
                try:
                    obj = json.loads(line)
                    if obj.get("kind") != "task":
                        continue
                    t = float(obj["t_switch"])
                    seed = int(obj["seed"])
                    runs = [RunOutcome(**r) for r in obj["runs"]]
                    telemetry = TaskTelemetry.from_json_dict(obj["telemetry"])
                    violations = [
                        AuditViolation(**v) for v in obj["violations"]
                    ]
                except (ValueError, KeyError, TypeError):
                    continue  # torn or foreign line: not resumable
                entries[(t, seed)] = (t, seed, runs, telemetry, violations)
        return entries


# ----------------------------------------------------------------------
# worker-side supervision
# ----------------------------------------------------------------------
def _alarm_usable() -> bool:
    return (
        hasattr(signal, "SIGALRM")
        and threading.current_thread() is threading.main_thread()
    )


class _deadline:
    """Context manager: raise :class:`TaskTimeout` after *seconds*.

    Uses ``SIGALRM``/``setitimer`` where available (POSIX main thread);
    elsewhere it is a no-op and the coordinator's hung-cell watchdog is
    the only defense against hangs.
    """

    def __init__(self, seconds: Optional[float]):
        self.seconds = seconds
        self._armed = False
        self._previous = None

    def __enter__(self):
        if self.seconds and _alarm_usable():
            def _fire(signum, frame):
                raise TaskTimeout(f"task exceeded {self.seconds:g}s")

            self._previous = signal.signal(signal.SIGALRM, _fire)
            signal.setitimer(signal.ITIMER_REAL, self.seconds)
            self._armed = True
        return self

    def __exit__(self, *exc):
        if self._armed:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            signal.signal(signal.SIGALRM, self._previous)
        return False


def _consume_flag(path: str) -> bool:
    try:
        os.unlink(path)
        return True
    except OSError as exc:
        if exc.errno not in (errno.ENOENT, errno.ENOTDIR):
            raise
        return False


def _classify(exc: BaseException) -> str:
    """Map a task exception onto the :data:`TASK_ERROR_KINDS` taxonomy."""
    from repro.core.trace_io import TraceIntegrityError

    if isinstance(exc, TaskTimeout):
        return "timeout"
    if isinstance(exc, TraceIntegrityError):
        return "cache-corrupt"
    if isinstance(exc, (BrokenPipeError, SystemExit)):
        return "worker-crash"
    return "protocol-error"


# ----------------------------------------------------------------------
# signal draining
# ----------------------------------------------------------------------
class _SignalDrain:
    """Install SIGINT/SIGTERM handlers that request a graceful drain.

    First signal: set :attr:`triggered` (the supervisor stops
    dispatching, flushes the journal, returns partial results).  Second
    SIGINT: restore the default behavior so a stuck drain can still be
    force-killed.  Outside the main thread (or where signals are
    unavailable) this degrades to a no-op.
    """

    def __init__(self):
        self.triggered = False
        self._previous: dict[int, Any] = {}

    def __enter__(self):
        for sig in (signal.SIGINT, signal.SIGTERM):
            try:
                self._previous[sig] = signal.signal(sig, self._handle)
            except (ValueError, OSError, AttributeError):
                pass  # non-main thread / unsupported platform
        return self

    def _handle(self, signum, frame):
        if self.triggered:  # second signal: give up gracefully draining
            self.restore()
            raise KeyboardInterrupt
        self.triggered = True

    def restore(self) -> None:
        for sig, previous in self._previous.items():
            try:
                signal.signal(sig, previous)
            except (ValueError, OSError):
                pass
        self._previous = {}

    def __exit__(self, *exc):
        self.restore()
        return False


# ----------------------------------------------------------------------
# the supervisor
# ----------------------------------------------------------------------
@dataclass(slots=True)
class _TaskSpec:
    index: int
    t_switch: float
    seed: int
    args: tuple


def _backoff(config, attempt: int, rng: random.Random) -> float:
    """Delay before re-dispatching a task that failed *attempt* times."""
    base = config.retry_backoff_s * (2 ** max(0, attempt - 1))
    return base * (1.0 + config.retry_jitter * rng.random())


def _resumes(journal_path, resume_from) -> bool:
    """Whether *resume_from* is the existing journal at *journal_path*."""
    return bool(resume_from) and os.path.exists(resume_from) and (
        os.path.samefile(journal_path, resume_from)
    )


def execute(
    config, tasks: Sequence[tuple], fleet=None
) -> ExecutionReport:
    """Run the sweep's task grid with supervision, healing, journaling
    and resumption; the runner assembles the report into a
    :class:`~repro.experiments.runner.SweepResult`.

    ``config.workers == 0`` (and no ``shard_listen``) runs the grid
    serially in this process; otherwise the sharded coordinator
    dispatches it to ``config.workers`` local shard workers plus any
    external ones that join on ``shard_listen``.

    *fleet* (a :class:`repro.obs.fleet.FleetAggregator`, owned by the
    runner's :class:`~repro.obs.fleet.FleetPlane`) rides along to the
    sharded coordinator, which merges worker metric deltas and spans
    into it.  A serial sweep leaves it untouched -- its metrics
    already live in this process's registry.

    *tasks* is the point-major list of ``_evaluate_task`` argument
    tuples (``tasks[i][1]`` / ``tasks[i][2]`` are the task's t_switch
    and seed).

    With a journal and progress on, the reporter journals heartbeats
    and the sweep closes the journal with its summary line.  An
    existing ``journal_path`` is only appended to when it is also
    ``resume_from``; otherwise :class:`JournalExists` is raised before
    any cell runs.
    """
    started = time.perf_counter()
    specs = [_TaskSpec(i, t[1], t[2], tuple(t)) for i, t in enumerate(tasks)]
    report = ExecutionReport(outcomes=[None] * len(specs))
    config_hash = sweep_config_hash(config)

    if (
        config.journal_path
        and os.path.exists(config.journal_path)
        and not _resumes(config.journal_path, config.resume_from)
    ):
        raise JournalExists(
            f"journal {config.journal_path} already exists; finish that "
            f"sweep with --resume {config.journal_path}, or write the "
            "journal to a new path"
        )
    entries = {}
    if config.resume_from and os.path.exists(config.resume_from):
        entries = SweepJournal.load(config.resume_from, config_hash)
    journal = None
    if config.journal_path:
        journal = SweepJournal(config.journal_path, config_hash).open()
    reporter = ProgressReporter(
        total=len(specs), enabled=config.progress, journal=journal
    )
    for spec in specs:
        hit = entries.get((spec.t_switch, spec.seed))
        if hit is not None:
            report.outcomes[spec.index] = hit
            report.resumed_cells.add((spec.t_switch, spec.seed))
            reporter.task_done(resumed=True)

    pending = [s for s in specs if report.outcomes[s.index] is None]
    # Deterministic jitter per sweep: retries are reproducible and
    # tests can reason about delays.
    rng = random.Random(int(config_hash[:8], 16))
    try:
        with _SignalDrain() as drain:
            if pending and (config.workers or config.shard_listen):
                from repro.experiments.sharded import run_sharded

                run_sharded(
                    config, pending, report, journal, drain, rng, reporter,
                    fleet=fleet,
                )
            elif pending:
                _run_serial(
                    config, pending, report, journal, drain, rng, reporter
                )
            report.interrupted = drain.triggered
        reporter.close()  # the final heartbeat precedes the summary
        if reporter.journal is not None:
            reporter.journal.summary(
                _summary(config, report, time.perf_counter() - started)
            )
    finally:
        reporter.close()
        if journal is not None:
            journal.close()
    return report


def _summary(config, report, sweep_wall_s: float):
    """The journal's closing summary line; the same aggregate as
    :meth:`~repro.experiments.runner.SweepResult.telemetry_summary`."""
    from repro.obs.telemetry import summarize

    return summarize(
        [o[3] for o in report.outcomes if o is not None],
        sweep_wall_s=sweep_wall_s,
        workers=max(1, config.workers),
        n_quarantined=len(report.errors),
        resumed=report.resumed_cells,
    )


def _complete(spec, outcome, attempts, report, journal, reporter) -> None:
    t, seed, runs, telemetry, violations = outcome
    telemetry.attempts = attempts
    report.outcomes[spec.index] = outcome
    if journal is not None:
        journal.record(
            t, seed, runs, telemetry, violations, attempts=attempts
        )
    reporter.task_done(telemetry)


def _run_serial(config, pending, report, journal, drain, rng, reporter) -> None:
    from repro.experiments.runner import _evaluate_task

    for spec in pending:
        if drain.triggered:
            return
        attempts = 0
        while True:
            attempts += 1
            try:
                with _deadline(config.task_timeout_s):
                    outcome = _evaluate_task(*spec.args)
                _complete(spec, outcome, attempts, report, journal, reporter)
                break
            except KeyboardInterrupt:
                raise
            except (Exception, SystemExit) as exc:
                error = TaskError(
                    kind=_classify(exc),
                    t_switch=spec.t_switch,
                    seed=spec.seed,
                    attempts=attempts,
                    detail=repr(exc),
                )
                if attempts > config.max_task_retries:
                    report.errors.append(error)
                    reporter.task_quarantined()
                    break
                if drain.triggered:
                    # Draining with retries left: like the sharded path,
                    # leave the cell as a plain hole a resumed run will
                    # re-execute, not a quarantined error.
                    break
                report.retries += 1
                reporter.task_retry()
                time.sleep(_backoff(config, attempts, rng))
