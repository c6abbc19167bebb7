"""Fleet-wide observability: cross-process metric/span aggregation.

A sharded sweep (:mod:`repro.experiments.sharded`) runs one
:class:`~repro.obs.metrics.MetricsRegistry` and one tracer per worker
process -- by design nothing is shared, so without help every worker's
counters and spans die with the process.  This module is the help:

* :class:`MetricsDeltaSource` -- worker side.  Wraps a registry and
  emits **deltas** (counter/histogram increments, gauge last-values)
  between successive :meth:`~MetricsDeltaSource.delta` calls, each
  stamped with a monotonically increasing ``seq``.  Deltas are plain
  dicts, safe to pickle onto the shard wire.
* :class:`ClockSync` -- per-process monotonic-clock offset estimation.
  ``time.monotonic()`` timelines are process-local on some platforms;
  the coordinator samples ``(remote_mono, local_mono)`` pairs from
  register/heartbeat/delta frames and keeps the **minimum** observed
  ``local - remote`` (one-way delay only ever inflates the estimate,
  so the minimum is the tightest upper bound on the true skew).
* :class:`FleetAggregator` -- coordinator side.  Applies deltas into a
  labelled fleet registry (``worker_id``/``run_id`` on every series),
  **seq-fenced per worker** so a replayed or duplicated delta -- e.g.
  frames racing a worker-lost revocation -- never double-counts.
  Collects worker spans (they ride the result frames, which are
  already exactly-once fenced by the journal) and re-times them onto
  the coordinator's monotonic timeline so one Chrome/Perfetto trace
  shows the whole fleet.
* :class:`AdaptiveShardSizer` -- closes the loop: observed per-cell
  wall times feed a rolling window, and the coordinator asks it how
  many cells the next lease should carry to hit a target lease
  duration.  Observability driving scheduling, not just reporting.
* :class:`FleetPlane` -- the bundle the sweep runner owns: aggregator
  + periodic Prometheus refresh + final Prometheus/OTLP artifacts.

Stdlib-only, like the rest of :mod:`repro.obs`.
"""

from __future__ import annotations

import threading
import time
from typing import Any, Callable, Iterable, Optional

from repro.obs.metrics import MetricsRegistry

__all__ = [
    "MetricsDeltaSource",
    "ClockSync",
    "FleetAggregator",
    "AdaptiveShardSizer",
    "FleetPlane",
]

_SeriesKey = tuple


def _series_key(entry: dict) -> _SeriesKey:
    return (entry["name"], tuple(tuple(kv) for kv in entry["labels"]))


class MetricsDeltaSource:
    """Incremental snapshots of a registry, safe to resend-detect.

    Each :meth:`delta` call diffs the live registry against the last
    snapshot and returns ``{"seq": n, "series": [...]}`` containing
    only what changed -- counter and histogram entries carry
    *increments*, gauges carry their current value.  Returns ``None``
    when nothing changed, so idle workers send no frames.

    Thread-safe: the shard worker's heartbeat pump and its main loop
    both flush through one source.
    """

    def __init__(self, registry: MetricsRegistry):
        self._registry = registry
        self._lock = threading.Lock()
        self._seq = 0
        self._last: dict[_SeriesKey, dict] = {}

    def delta(self) -> Optional[dict]:
        snap = self._registry.snapshot()
        with self._lock:
            changed: list[dict] = []
            for entry in snap["series"]:
                key = _series_key(entry)
                prev = self._last.get(key)
                diff = self._diff(entry, prev)
                if diff is not None:
                    changed.append(diff)
                self._last[key] = entry
            if not changed:
                return None
            self._seq += 1
            return {"seq": self._seq, "series": changed}

    @staticmethod
    def _diff(entry: dict, prev: Optional[dict]) -> Optional[dict]:
        kind = entry["kind"]
        head = {
            "name": entry["name"],
            "labels": entry["labels"],
            "kind": kind,
        }
        if kind == "counter":
            base = prev["value"] if prev else 0.0
            inc = entry["value"] - base
            if inc < 0:  # registry was reset mid-run; restart from 0
                inc = entry["value"]
            if inc == 0:
                return None
            head["value"] = inc
            return head
        if kind == "gauge":
            if prev is not None and prev["value"] == entry["value"]:
                return None
            head["value"] = entry["value"]
            return head
        # histogram: element-wise bucket-count increments
        base_counts = prev["counts"] if prev else [0] * len(entry["counts"])
        if prev is not None and prev["count"] == entry["count"]:
            return None
        counts = [n - b for n, b in zip(entry["counts"], base_counts)]
        if any(n < 0 for n in counts):  # reset mid-run
            counts = list(entry["counts"])
            base_sum, base_count = 0.0, 0
        else:
            base_sum = prev["sum"] if prev else 0.0
            base_count = prev["count"] if prev else 0
        head["buckets"] = entry["buckets"]
        head["counts"] = counts
        head["sum"] = entry["sum"] - base_sum
        head["count"] = entry["count"] - base_count
        return head


class ClockSync:
    """Per-process monotonic offset estimation, NTP-style one-way.

    ``offset(pid)`` maps a remote process's monotonic timeline onto the
    local one: ``local_time ~= remote_time + offset``.  Every
    observation is ``local_at_receipt - remote_at_send = skew + delay``
    with ``delay >= 0``, so the minimum over observations converges on
    the true skew from above.  Unknown pids map to offset ``0.0`` --
    on Linux ``CLOCK_MONOTONIC`` is system-wide and that is exact.
    """

    def __init__(self) -> None:
        self._offsets: dict[int, float] = {}

    def observe(
        self,
        pid: Optional[int],
        remote_mono: Optional[float],
        local_mono: Optional[float] = None,
    ) -> None:
        if pid is None or remote_mono is None:
            return
        local = time.monotonic() if local_mono is None else local_mono
        estimate = local - remote_mono
        prev = self._offsets.get(pid)
        if prev is None or estimate < prev:
            self._offsets[pid] = estimate

    def offset(self, pid: Optional[int]) -> float:
        return self._offsets.get(pid, 0.0)


class FleetAggregator:
    """Merges worker deltas and spans into one labelled view.

    * Metric deltas apply into :attr:`registry` with ``worker_id`` (and
      ``run_id`` when set) merged into every label set.  Deltas are
      fenced by their per-worker ``seq``: anything at or below the last
      applied seq is dropped and counted, so retried/duplicated frames
      are idempotent.
    * Spans accumulate with their (worker_id, shard_id) provenance;
      :meth:`spans_aligned` re-times them via :class:`ClockSync` and
      stamps ``worker_id``/``shard_id``/``run_id`` tags.

    Not thread-safe on its own; the shard coordinator drives it from
    its single dispatch loop.  :meth:`render` (called from the export
    refresh thread) only *reads* via registry snapshots, which take the
    registry lock.
    """

    def __init__(self, run_id: Optional[str] = None):
        self.run_id = run_id
        self.registry = MetricsRegistry()
        self.clock = ClockSync()
        self.deltas_applied = 0
        self.deltas_dropped = 0
        self._last_seq: dict[Any, int] = {}
        self._spans: list[dict] = []

    # -- clock ----------------------------------------------------------
    def observe_clock(
        self,
        pid: Optional[int],
        remote_mono: Optional[float],
        local_mono: Optional[float] = None,
    ) -> None:
        self.clock.observe(pid, remote_mono, local_mono)

    # -- metric deltas --------------------------------------------------
    def apply_delta(self, worker_id: Any, delta: Optional[dict]) -> bool:
        """Apply one worker delta; ``False`` when fenced as a duplicate."""
        if not delta or not delta.get("series"):
            return False
        seq = delta.get("seq")
        if seq is not None:
            last = self._last_seq.get(worker_id, 0)
            if seq <= last:
                self.deltas_dropped += 1
                return False
            self._last_seq[worker_id] = seq
        for entry in delta["series"]:
            self._apply_entry(entry, self._fleet_labels(worker_id))
        self.deltas_applied += 1
        return True

    def _fleet_labels(self, worker_id: Any) -> dict:
        labels = {"worker_id": str(worker_id)}
        if self.run_id:
            labels["run_id"] = self.run_id
        return labels

    def _apply_entry(self, entry: dict, extra: dict) -> None:
        labels = {k: v for k, v in entry["labels"]}
        for k, v in extra.items():
            labels.setdefault(k, v)
        name, kind = entry["name"], entry["kind"]
        if kind == "counter":
            self.registry.counter(name, **labels).inc(
                max(0.0, entry["value"])
            )
        elif kind == "gauge":
            self.registry.gauge(name, **labels).set(entry["value"])
        else:
            hist = self.registry.histogram(
                name, buckets=tuple(entry["buckets"]), **labels
            )
            if len(hist.counts) == len(entry["counts"]):
                for i, n in enumerate(entry["counts"]):
                    hist.counts[i] += n
            else:  # bucket shape changed underfoot; keep totals honest
                hist.counts[-1] += sum(entry["counts"])
            hist.sum += entry["sum"]
            hist.count += entry["count"]

    # -- spans ----------------------------------------------------------
    def add_spans(
        self,
        worker_id: Any,
        shard_id: Optional[int],
        spans: Iterable[dict],
    ) -> None:
        """Record spans harvested from a worker's (fenced) result frame."""
        for span in spans or ():
            rec = dict(span)
            tags = dict(rec.get("tags") or {})
            tags.setdefault("worker_id", str(worker_id))
            if shard_id is not None:
                tags.setdefault("shard_id", str(shard_id))
            if self.run_id:
                tags.setdefault("run_id", self.run_id)
            rec["tags"] = tags
            self._spans.append(rec)

    @property
    def span_count(self) -> int:
        return len(self._spans)

    def spans_aligned(self) -> list[dict]:
        """Collected spans, shifted onto the coordinator timeline."""
        return self.align(self._spans)

    def align(self, spans: Iterable[dict]) -> list[dict]:
        """Skew-align arbitrary span dicts by their ``pid`` and stamp
        the run id; spans from unknown pids pass through unshifted."""
        out = []
        for span in spans:
            rec = dict(span)
            offset = self.clock.offset(rec.get("pid"))
            if offset > 0:
                rec["start_s"] = rec.get("start_s", 0.0) + offset
            if self.run_id:
                tags = dict(rec.get("tags") or {})
                tags.setdefault("run_id", self.run_id)
                rec["tags"] = tags
            out.append(rec)
        return out

    # -- merged view ----------------------------------------------------
    def render(
        self,
        local: Optional[MetricsRegistry] = None,
        local_worker_id: str = "coordinator",
    ) -> MetricsRegistry:
        """A fresh registry merging the fleet series with a labelled
        copy of *local* (the coordinator's own registry)."""
        merged = MetricsRegistry()
        snapshots = [(self.registry.snapshot(), {})]
        if local is not None:
            extra = {"worker_id": local_worker_id}
            if self.run_id:
                extra["run_id"] = self.run_id
            snapshots.append((local.snapshot(), extra))
        for snap, extra in snapshots:
            for entry in snap["series"]:
                _absorb_absolute(merged, entry, extra)
        return merged


def _absorb_absolute(
    target: MetricsRegistry, entry: dict, extra: dict
) -> None:
    """Write a snapshot entry into *target* at its absolute value."""
    labels = {k: v for k, v in entry["labels"]}
    for k, v in extra.items():
        labels.setdefault(k, v)
    name, kind = entry["name"], entry["kind"]
    if kind == "counter":
        target.counter(name, **labels).inc(max(0.0, entry["value"]))
    elif kind == "gauge":
        target.gauge(name, **labels).set(entry["value"])
    else:
        hist = target.histogram(
            name, buckets=tuple(entry["buckets"]), **labels
        )
        hist.counts = list(entry["counts"])
        hist.sum = entry["sum"]
        hist.count = entry["count"]


class AdaptiveShardSizer:
    """Lease sizing from observed per-cell wall time.

    The coordinator's static default (``n_cells / (slots * 4)``) is a
    guess made before any cell has run.  This replaces the guess with a
    measurement: a rolling window of recent per-cell wall times, and
    ``suggest`` returns how many cells fit in ``target_lease_s`` at the
    window median.  Until :attr:`min_samples` observations arrive the
    default passes through unchanged, and the answer is always clamped
    to ``[min_cells, max_cells]`` -- a pathological measurement can
    skew a lease, never starve or flood one.
    """

    def __init__(
        self,
        target_lease_s: float = 5.0,
        window: int = 64,
        min_samples: int = 3,
        min_cells: int = 1,
        max_cells: int = 256,
    ):
        self.target_lease_s = float(target_lease_s)
        self.window = int(window)
        self.min_samples = int(min_samples)
        self.min_cells = int(min_cells)
        self.max_cells = int(max_cells)
        if self.target_lease_s <= 0:
            raise ValueError("target_lease_s must be positive")
        if self.window < 1 or self.min_cells < 1:
            raise ValueError("window and min_cells must be >= 1")
        if self.max_cells < self.min_cells:
            raise ValueError("max_cells must be >= min_cells")
        self._walls: list[float] = []

    def observe(self, wall_s: Optional[float]) -> None:
        if wall_s is None or wall_s < 0:
            return
        self._walls.append(float(wall_s))
        if len(self._walls) > self.window:
            del self._walls[: len(self._walls) - self.window]

    @property
    def samples(self) -> int:
        return len(self._walls)

    def median_wall_s(self) -> Optional[float]:
        if not self._walls:
            return None
        ordered = sorted(self._walls)
        return ordered[len(ordered) // 2]

    def suggest(self, default: int) -> int:
        if len(self._walls) < self.min_samples:
            return default
        median = self.median_wall_s()
        if not median or median <= 0:
            return default
        size = int(self.target_lease_s / median)
        return max(self.min_cells, min(self.max_cells, max(1, size)))


class FleetPlane:
    """The sweep-level bundle: aggregator + exporters + refresh loop.

    Owned by :func:`repro.experiments.runner.run_sweep` when any fleet
    knob is set.  The aggregator is handed to the shard coordinator
    (serial sweeps leave it empty -- the local registry
    carries everything there); a daemon thread refreshes the Prometheus
    textfile every ``refresh_s``; :meth:`finalize` writes the final
    exposition, pushes to a gateway when configured, and emits one
    OTLP-JSON artifact carrying the merged metrics *and* the
    skew-aligned spans.
    """

    def __init__(
        self,
        run_id: str,
        *,
        prom_path: Optional[str] = None,
        prom_gateway: Optional[str] = None,
        otlp_path: Optional[str] = None,
        refresh_s: float = 5.0,
        local_registry: Optional[Callable[[], MetricsRegistry]] = None,
    ):
        from repro.obs.metrics import registry as _default_registry

        self.run_id = run_id
        self.aggregator = FleetAggregator(run_id=run_id)
        self.prom_path = prom_path
        self.prom_gateway = prom_gateway
        self.otlp_path = otlp_path
        self.refresh_s = max(0.05, float(refresh_s))
        self._local = local_registry or _default_registry
        self._stop = threading.Event()
        self._thread: Optional[threading.Thread] = None
        self.export_errors = 0
        self.refreshes = 0

    # -- rendering ------------------------------------------------------
    def render(self) -> MetricsRegistry:
        """The current merged fleet + coordinator registry."""
        return self.aggregator.render(local=self._local())

    def refresh(self) -> None:
        """One Prometheus export cycle (textfile and/or gateway push)."""
        if not (self.prom_path or self.prom_gateway):
            return
        from repro.obs import export

        merged = self.render()
        try:
            if self.prom_path:
                export.write_prometheus(self.prom_path, merged)
            if self.prom_gateway:
                export.push_prometheus(
                    self.prom_gateway, merged, job=self.run_id
                )
            self.refreshes += 1
        except OSError:
            # Exporters are best-effort side channels: a full disk or a
            # dead gateway must never take the sweep down with it.
            self.export_errors += 1

    # -- lifecycle ------------------------------------------------------
    def start(self) -> None:
        if self._thread is not None or not (
            self.prom_path or self.prom_gateway
        ):
            return
        self._thread = threading.Thread(
            target=self._loop, name="obs-fleet-export", daemon=True
        )
        self._thread.start()

    def _loop(self) -> None:
        while not self._stop.wait(self.refresh_s):
            self.refresh()

    def stop_refresh(self) -> None:
        self._stop.set()
        if self._thread is not None:
            self._thread.join(timeout=5.0)
            self._thread = None

    def finalize(self, spans: Optional[Iterable[dict]] = None) -> None:
        """Stop the refresh loop and write the final artifacts."""
        self.stop_refresh()
        self.refresh()
        if self.otlp_path:
            from repro.obs import export

            aligned = self.aggregator.align(list(spans or ()))
            try:
                export.write_otlp(
                    self.otlp_path,
                    registry=self.render(),
                    spans=aligned,
                    resource={"service.name": "repro", "run_id": self.run_id},
                )
            except OSError:
                self.export_errors += 1
