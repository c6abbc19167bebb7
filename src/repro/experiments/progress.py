"""Live sweep progress: rate, ETA and journaled heartbeats.

A big Monte-Carlo sweep is silent for minutes; this module is the
operator's window into it.  The sweep supervisor
(:func:`repro.experiments.resilience.execute`) feeds one
:class:`ProgressReporter` from its completion paths -- task done, task
resumed from journal, task retried, task quarantined -- and the
reporter turns that into:

* a **status line** (``12/21 57% | 3.2 tasks/s | eta 3s | cache 8/12
  | retries 1``) rewritten in place on a TTY and emitted as periodic
  plain lines otherwise, so both an interactive terminal and a CI log
  stay readable;
* **heartbeat records** -- ``{"kind": "heartbeat", ...}`` lines
  appended to the sweep journal on a fixed cadence while the status
  line is on, its machine-readable twin that ``repro tail`` and
  ``repro dash`` read;
* sweep-level **metrics** (``repro_sweep_tasks_total{status=...}``,
  ``repro_sweep_retries_total``) in the process-local registry
  (:mod:`repro.obs.metrics`).

Whether the status line renders at all resolves by precedence:
an explicit ``enabled`` flag (the CLI's ``--progress`` /
``--no-progress``), else the ``REPRO_PROGRESS`` environment variable,
else whether the output stream is a TTY.  The same resolution decides
whether heartbeats are journaled, so a sweep run with progress off
writes a journal of header and task lines only.

The reporter is display-only by contract: it never touches task
results, so a sweep with progress on is value-identical to one with it
off (asserted in ``tests/experiments/test_progress.py``).
"""

from __future__ import annotations

import os
import sys
import time
from typing import Any, Optional

__all__ = ["ProgressReporter", "PROGRESS_ENV", "progress_enabled"]

#: Environment override for status-line rendering: falsy values
#: ("0", "false", "no", "off") disable, anything else enables.
PROGRESS_ENV = "REPRO_PROGRESS"

#: Values of :data:`PROGRESS_ENV` that mean "off".
_FALSY = {"0", "false", "no", "off", ""}

#: Minimum seconds between in-place TTY redraws (don't spam the pty).
_RENDER_EVERY_S = 0.2

#: Seconds between plain-line updates on non-TTY streams and between
#: heartbeat records.
_HEARTBEAT_EVERY_S = 5.0


def progress_enabled(
    enabled: Optional[bool] = None, stream=None
) -> bool:
    """Resolve whether the status line should render.

    Precedence: explicit *enabled* flag, then :data:`PROGRESS_ENV`,
    then ``stream.isatty()``.
    """
    if enabled is not None:
        return enabled
    env = os.environ.get(PROGRESS_ENV)
    if env is not None:
        return env.strip().lower() not in _FALSY
    if stream is None:
        stream = sys.stderr
    try:
        return bool(stream.isatty())
    except (AttributeError, ValueError):
        return False


class ProgressReporter:
    """Aggregate sweep completion events into a live status line,
    heartbeat records and sweep metrics.

    Parameters
    ----------
    total:
        Number of tasks in the grid (denominator of the status line).
    stream:
        Where the status line goes (default ``sys.stderr``).
    enabled:
        Explicit on/off for the status line; ``None`` defers to
        :func:`progress_enabled`.
    journal:
        The sweep's :class:`~repro.experiments.resilience.SweepJournal`.
        While progress is enabled, one ``{"kind": "heartbeat", ...}``
        line goes there every ``heartbeat_every_s`` seconds (and once
        at :meth:`close`); :attr:`journal` stays ``None`` otherwise.
    label:
        Prefix of the status line (default ``"sweep"``).
    """

    def __init__(
        self,
        total: int,
        stream=None,
        enabled: Optional[bool] = None,
        journal=None,
        heartbeat_every_s: float = _HEARTBEAT_EVERY_S,
        label: str = "sweep",
    ):
        self.total = int(total)
        self.stream = stream if stream is not None else sys.stderr
        self.enabled = progress_enabled(enabled, self.stream)
        self.label = label
        self.journal = journal if self.enabled else None
        self.heartbeat_every_s = heartbeat_every_s
        # Completion accounting.
        self.done = 0  # every terminal outcome (executed/resumed/hole)
        self.executed = 0  # tasks that actually ran to success
        self.resumed = 0
        self.quarantined = 0
        self.retries = 0
        self.cache_hits = 0
        # Sharded dispatch only: live worker count (None = not sharded).
        self.workers_alive: Optional[int] = None
        self._started = time.monotonic()
        self._last_render = 0.0
        self._last_heartbeat = time.monotonic()
        self._line_width = 0
        self._tty = self._stream_isatty()
        self._closed = False

    def _stream_isatty(self) -> bool:
        try:
            return bool(self.stream.isatty())
        except (AttributeError, ValueError):
            return False

    # -- event intake ---------------------------------------------------
    def task_done(self, telemetry=None, resumed: bool = False) -> None:
        """One task reached a successful terminal state."""
        self.done += 1
        if resumed:
            self.resumed += 1
        else:
            self.executed += 1
            if telemetry is not None and getattr(
                telemetry, "cache_hit", False
            ):
                self.cache_hits += 1
        self._count("resumed" if resumed else "done")
        self._tick()

    def task_retry(self) -> None:
        """One failed attempt was re-dispatched."""
        self.retries += 1
        from repro.obs.metrics import registry

        registry().counter("repro_sweep_retries_total").inc()
        self._tick()

    def task_quarantined(self) -> None:
        """One task exhausted its retries and became a grid hole."""
        self.done += 1
        self.quarantined += 1
        self._count("quarantined")
        self._tick()

    def set_workers(self, alive: Optional[int]) -> None:
        """Sharded dispatch: how many shard workers are live right now
        (shown on the status line and in heartbeat records)."""
        if alive != self.workers_alive:
            self.workers_alive = alive
            self._tick()

    @staticmethod
    def _count(status: str) -> None:
        from repro.obs.metrics import registry

        registry().counter(
            "repro_sweep_tasks_total", status=status
        ).inc()

    # -- derived numbers ------------------------------------------------
    def elapsed_s(self) -> float:
        return time.monotonic() - self._started

    def rate_per_s(self) -> float:
        """Executed tasks per second (journal-resumed cells are free
        and would inflate the ETA if counted)."""
        elapsed = self.elapsed_s()
        return self.executed / elapsed if elapsed > 0 else 0.0

    def eta_s(self) -> Optional[float]:
        rate = self.rate_per_s()
        remaining = self.total - self.done
        if rate <= 0 or remaining <= 0:
            return 0.0 if remaining <= 0 else None
        return remaining / rate

    # -- rendering ------------------------------------------------------
    def status_line(self) -> str:
        pct = 100.0 * self.done / self.total if self.total else 100.0
        parts = [
            f"{self.label} {self.done}/{self.total} {pct:3.0f}%",
            f"{self.rate_per_s():.2f} tasks/s",
        ]
        eta = self.eta_s()
        if eta is not None:
            parts.append(f"eta {_fmt_duration(eta)}")
        if self.executed:
            parts.append(f"cache {self.cache_hits}/{self.executed}")
        if self.resumed:
            parts.append(f"resumed {self.resumed}")
        if self.retries:
            parts.append(f"retries {self.retries}")
        if self.quarantined:
            parts.append(f"quarantined {self.quarantined}")
        if self.workers_alive is not None:
            parts.append(f"workers {self.workers_alive}")
        return " | ".join(parts)

    def _tick(self) -> None:
        """Render / heartbeat if their cadences are due."""
        now = time.monotonic()
        if self.enabled:
            due = (
                _RENDER_EVERY_S
                if self._tty
                else self.heartbeat_every_s
            )
            if now - self._last_render >= due or self.done >= self.total:
                self._render()
                self._last_render = now
        if (
            self.journal is not None
            and now - self._last_heartbeat >= self.heartbeat_every_s
        ):
            self.journal.heartbeat(self.heartbeat_record())
            self._last_heartbeat = now

    def _render(self) -> None:
        line = self.status_line()
        try:
            if self._tty:
                # Rewrite in place, blank-padding the previous line.
                pad = max(0, self._line_width - len(line))
                self.stream.write("\r" + line + " " * pad)
                self._line_width = len(line)
            else:
                self.stream.write(line + "\n")
            self.stream.flush()
        except (OSError, ValueError):
            self.enabled = False  # stream gone: stop rendering

    # -- heartbeats -----------------------------------------------------
    def heartbeat_record(self) -> dict[str, Any]:
        eta = self.eta_s()
        return {
            "kind": "heartbeat",
            "ts": time.time(),
            "done": self.done,
            "total": self.total,
            "executed": self.executed,
            "resumed": self.resumed,
            "quarantined": self.quarantined,
            "retries": self.retries,
            "cache_hits": self.cache_hits,
            "elapsed_s": self.elapsed_s(),
            "rate_per_s": self.rate_per_s(),
            "eta_s": eta,
            "workers_alive": self.workers_alive,
        }

    # -- teardown -------------------------------------------------------
    def close(self) -> None:
        """Final render + final heartbeat; idempotent."""
        if self._closed:
            return
        self._closed = True
        if self.enabled:
            self._render()
            if self._tty:
                try:
                    self.stream.write("\n")
                    self.stream.flush()
                except (OSError, ValueError):
                    pass
        if self.journal is not None:
            try:
                self.journal.heartbeat(self.heartbeat_record())
            except OSError:
                pass


def _fmt_duration(seconds: float) -> str:
    """Compact human duration: 42s, 3m10s, 1h02m."""
    seconds = max(0.0, seconds)
    if seconds < 60:
        return f"{seconds:.0f}s"
    minutes, secs = divmod(int(round(seconds)), 60)
    if minutes < 60:
        return f"{minutes}m{secs:02d}s"
    hours, minutes = divmod(minutes, 60)
    return f"{hours}h{minutes:02d}m"
