"""Live sweep dashboard: a TTY view over a sweep journal.

``repro dash FILE`` renders (and re-renders, in follow mode) a compact
fleet dashboard from a sweep journal
(:class:`~repro.experiments.resilience.SweepJournal`): its ``task``
lines (telemetry nested under ``telemetry``) and progress
``heartbeat`` lines.  The pieces:

* :class:`JsonlFollower` -- an incremental JSONL reader that survives
  the realities of following a live file: it keeps its offset between
  polls (no full re-reads), tolerates torn trailing lines, and detects
  **truncation** (size shrank below the offset) and **rotation** (the
  inode changed, or the path briefly disappeared) by reopening from
  the start instead of stalling at a stale offset.  ``repro tail
  --follow`` rides the same class.
* :func:`render_dashboard` -- pure function from parsed records to a
  dashboard string (testable without a terminal): sweep progress and
  worker liveness from the latest heartbeat, per-worker throughput,
  cache-tier hit rates, retry/quarantine counts, and per-protocol
  forced-checkpoint-rate sparklines -- the paper's comparison axis,
  live.
* :func:`run_dashboard` -- the follow loop gluing the two together
  with ANSI home-and-clear repaints.
"""

from __future__ import annotations

import json
import os
import sys
import time
from typing import Any, Iterable, Optional

__all__ = [
    "JsonlFollower",
    "sparkline",
    "render_dashboard",
    "run_dashboard",
]

_SPARK_LEVELS = "▁▂▃▄▅▆▇█"


class JsonlFollower:
    """Incrementally read a JSONL file that may rotate or truncate.

    ``poll()`` reads any new complete lines since the last call and
    returns ``True`` when :attr:`records` changed.  A torn trailing
    line (a writer mid-``write``) is buffered until its newline
    arrives.  When the file is replaced (new inode) or truncated
    (size below the consumed offset), the follower reopens from the
    beginning and rebuilds :attr:`records` from scratch -- the next
    render sees the new file's content, not a stall.
    """

    def __init__(self, path):
        self.path = os.fspath(path)
        self.records: list[dict] = []
        self.resets = 0
        self._fh = None
        self._ino: Optional[int] = None
        self._partial = ""

    # -- internals ------------------------------------------------------
    def _close(self) -> None:
        if self._fh is not None:
            try:
                self._fh.close()
            except OSError:
                pass
        self._fh = None
        self._ino = None
        self._partial = ""

    def _reset(self) -> bool:
        had = bool(self.records)
        self._close()
        self.records = []
        if had:
            self.resets += 1
        return had

    def _open(self) -> bool:
        try:
            fh = open(self.path, "r")
        except OSError:
            return False
        self._fh = fh
        try:
            self._ino = os.fstat(fh.fileno()).st_ino
        except OSError:
            self._ino = None
        self._partial = ""
        return True

    # -- public ---------------------------------------------------------
    def poll(self) -> bool:
        """Consume new lines; ``True`` when :attr:`records` changed."""
        changed = False
        try:
            st = os.stat(self.path)
        except OSError:
            # File gone (mid-rotation or never created): drop state so
            # a reappearing file is read from its start.
            return self._reset()
        if self._fh is not None:
            truncated = st.st_size < self._fh.tell()
            rotated = self._ino is not None and st.st_ino != self._ino
            if truncated or rotated:
                changed = self._reset()
        if self._fh is None and not self._open():
            return changed
        chunk = self._fh.read()
        if not chunk:
            return changed
        buf = self._partial + chunk
        lines = buf.split("\n")
        self._partial = lines.pop()  # "" on a newline-terminated chunk
        for line in lines:
            line = line.strip()
            if not line:
                continue
            try:
                self.records.append(json.loads(line))
                changed = True
            except json.JSONDecodeError:
                continue  # torn or foreign line; skip it
        return changed

    def close(self) -> None:
        self._close()


def sparkline(values: Iterable[float], width: int = 24) -> str:
    """Unicode block sparkline of the last *width* values."""
    vals = [float(v) for v in values][-width:]
    if not vals:
        return ""
    lo, hi = min(vals), max(vals)
    if hi <= lo:
        return _SPARK_LEVELS[0] * len(vals)
    span = hi - lo
    out = []
    for v in vals:
        idx = int((v - lo) / span * (len(_SPARK_LEVELS) - 1))
        out.append(_SPARK_LEVELS[idx])
    return "".join(out)


def _classify(records: Iterable[dict]):
    tasks, heartbeats = [], []
    for rec in records:
        kind = rec.get("kind")
        if kind == "heartbeat":
            heartbeats.append(rec)
        elif kind == "task":
            tasks.append(rec["telemetry"])
    return tasks, heartbeats


def _fmt_rate(value: Optional[float]) -> str:
    return "-" if value is None else f"{value:.2f}"


def render_dashboard(records: Iterable[dict], width: int = 72) -> str:
    """Render parsed journal records as a dashboard string."""
    tasks, heartbeats = _classify(records)
    lines: list[str] = []
    rule = "─" * width

    # -- header: latest heartbeat --------------------------------------
    lines.append("repro sweep dashboard")
    lines.append(rule)
    if heartbeats:
        hb = heartbeats[-1]
        done, total = hb.get("done", 0), hb.get("total", 0)
        pct = 100.0 * done / total if total else 0.0
        eta = hb.get("eta_s")
        workers = hb.get("workers_alive")
        lines.append(
            f"progress  {done}/{total} cells ({pct:.0f}%)"
            f"  rate {_fmt_rate(hb.get('rate_per_s'))}/s"
            + (f"  eta {eta:.0f}s" if isinstance(eta, (int, float)) else "")
            + (f"  workers {workers}" if workers is not None else "")
        )
        lines.append(
            f"retries {hb.get('retries', 0)}"
            f"  quarantined {hb.get('quarantined', 0)}"
            f"  resumed {hb.get('resumed', 0)}"
            f"  cache hits {hb.get('cache_hits', 0)}"
        )
        rates = [
            h.get("rate_per_s")
            for h in heartbeats
            if h.get("rate_per_s") is not None
        ]
        if rates:
            lines.append(f"throughput {sparkline(rates)}")
    elif tasks:
        lines.append(f"progress  {len(tasks)} task records (no heartbeats)")
    else:
        lines.append("(no records yet)")

    # -- per-worker throughput -----------------------------------------
    if tasks:
        by_pid: dict[Any, dict] = {}
        for rec in tasks:
            slot = by_pid.setdefault(
                rec.get("pid"), {"tasks": 0, "busy_s": 0.0, "hits": 0}
            )
            slot["tasks"] += 1
            slot["busy_s"] += rec.get("wall_time_s") or 0.0
            if rec.get("cache_hit"):
                slot["hits"] += 1
        lines.append(rule)
        lines.append("worker       tasks   busy_s   tasks/s  cache-hit")
        for pid, slot in sorted(by_pid.items(), key=lambda kv: str(kv[0])):
            busy = slot["busy_s"]
            rate = slot["tasks"] / busy if busy > 0 else 0.0
            hit = 100.0 * slot["hits"] / slot["tasks"]
            lines.append(
                f"{str(pid):<12} {slot['tasks']:>5} {busy:>8.2f}"
                f" {rate:>9.2f} {hit:>9.0f}%"
            )

        # -- cache tiers ----------------------------------------------
        tiers: dict[str, int] = {}
        for rec in tasks:
            tier = rec.get("trace_source") or "unknown"
            tiers[tier] = tiers.get(tier, 0) + 1
        total_t = sum(tiers.values())
        parts = ", ".join(
            f"{tier} {100.0 * n / total_t:.0f}%"
            for tier, n in sorted(tiers.items(), key=lambda kv: -kv[1])
        )
        lines.append(rule)
        lines.append(f"cache tiers  {parts}")

    # -- per-protocol forced-checkpoint-rate sparklines ----------------
    forced: dict[str, list[float]] = {}
    for rec in tasks:
        for proto, counters in sorted((rec.get("counters") or {}).items()):
            n_total = counters.get("n_total") or 0
            if n_total:
                forced.setdefault(proto, []).append(
                    counters.get("n_forced", 0) / n_total
                )
    if forced:
        lines.append(rule)
        lines.append("forced-checkpoint rate (per task, oldest→newest)")
        name_w = max(len(p) for p in forced)
        for proto, series in sorted(forced.items()):
            lines.append(
                f"{proto:<{name_w}}  {sparkline(series)}"
                f"  last {series[-1]:.3f}"
            )
    return "\n".join(lines) + "\n"


def run_dashboard(
    path,
    interval_s: float = 2.0,
    once: bool = False,
    stream=None,
    width: int = 72,
    max_frames: Optional[int] = None,
) -> int:
    """Follow *path* and repaint the dashboard; ``repro dash`` body.

    ``once`` renders a single frame without clearing the screen.
    *max_frames* bounds the loop (tests); interactive use runs until
    interrupted.
    """
    out = stream if stream is not None else sys.stdout
    follower = JsonlFollower(path)
    frames = 0
    try:
        while True:
            follower.poll()
            frame = render_dashboard(follower.records, width=width)
            if once:
                out.write(frame)
                out.flush()
                return 0
            out.write("\x1b[2J\x1b[H" + frame)
            out.flush()
            frames += 1
            if max_frames is not None and frames >= max_frames:
                return 0
            time.sleep(interval_s)
    except KeyboardInterrupt:
        return 0
    finally:
        follower.close()
