"""Process-local metrics: counters, gauges and fixed-bucket histograms.

The engines, the trace cache and the resilient sweep supervisor all
maintain operational counts (runs per engine kind, cache hits by tier,
corrupt evictions, retries, watchdog kills).  This module gives them
one home: a :class:`MetricsRegistry` of named, labelled instruments
that any layer can increment cheaply (one dict lookup + one addition
under a lock) and operators can read two ways:

* :meth:`MetricsRegistry.as_dict` -- plain JSON for dashboards and
  tests;
* :meth:`MetricsRegistry.to_prometheus` -- Prometheus text exposition
  (``# TYPE`` headers, ``{label="value"}`` sets, histogram
  ``_bucket``/``_sum``/``_count`` series) ready to serve or push; the
  exporters of :mod:`repro.obs.export` write it to a file or a push
  gateway.

Everything is **process-local by design**: a parallel sweep's workers
each keep their own registry, and the supervisor-side registry counts
what the supervisor does (dispatch, retries, healing).  Cross-process
aggregation rides the telemetry channel
(:class:`~repro.obs.telemetry.TaskTelemetry`) and the fleet delta
frames (:mod:`repro.obs.fleet` diffs :meth:`MetricsRegistry.snapshot`
calls), never shared state -- a metrics registry must never block or
allocate proportionally to the work it measures.

Like :mod:`repro.obs.tracing`, this module is stdlib-only and imports
nothing from the rest of the package, so the cache and the engines can
use it without import cycles.
"""

from __future__ import annotations

import threading
from typing import Any, Iterable, Optional, Sequence, Tuple

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "registry",
    "DEFAULT_BUCKETS",
]

#: Default histogram bucket upper bounds, in seconds -- spans run
#: durations from sub-millisecond replays to minute-scale sweeps.
DEFAULT_BUCKETS = (
    0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5,
    1.0, 2.5, 5.0, 10.0, 30.0, 60.0,
)

LabelItems = Tuple[Tuple[str, str], ...]


def _label_items(labels: dict) -> LabelItems:
    return tuple(sorted((str(k), str(v)) for k, v in labels.items()))


def _escape_label_value(value: str) -> str:
    """Escape a label value per the Prometheus exposition format:
    backslash, double-quote and newline (in that order -- escaping the
    backslash first keeps the other two unambiguous)."""
    return (
        value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")
    )


def _label_suffix(items: LabelItems) -> str:
    if not items:
        return ""
    inner = ",".join(
        f'{k}="{_escape_label_value(v)}"' for k, v in items
    )
    return "{" + inner + "}"


class Counter:
    """Monotonically increasing count."""

    kind = "counter"

    def __init__(self) -> None:
        self.value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError("counters only go up; use a gauge")
        self.value += amount


class Gauge:
    """A value that can go up and down (pool width, queue depth)."""

    kind = "gauge"

    def __init__(self) -> None:
        self.value = 0.0

    def set(self, value: float) -> None:
        self.value = value

    def inc(self, amount: float = 1.0) -> None:
        self.value += amount

    def dec(self, amount: float = 1.0) -> None:
        self.value -= amount


class Histogram:
    """Fixed-bucket histogram (cumulative, Prometheus-style).

    ``buckets`` are upper bounds; an implicit ``+Inf`` bucket always
    exists, so ``observe`` never drops a sample.
    """

    kind = "histogram"

    def __init__(self, buckets: Sequence[float] = DEFAULT_BUCKETS):
        self.buckets = tuple(sorted(float(b) for b in buckets))
        self.counts = [0] * (len(self.buckets) + 1)  # last = +Inf
        self.sum = 0.0
        self.count = 0

    def observe(self, value: float) -> None:
        self.sum += value
        self.count += 1
        for i, bound in enumerate(self.buckets):
            if value <= bound:
                self.counts[i] += 1
                return
        self.counts[-1] += 1

    def cumulative(self) -> list[tuple[str, int]]:
        """(le, cumulative count) pairs, ``+Inf`` last."""
        out = []
        running = 0
        for bound, n in zip(self.buckets, self.counts):
            running += n
            out.append((repr(bound) if bound != int(bound) else str(int(bound)), running))
        running += self.counts[-1]
        out.append(("+Inf", running))
        return out


class MetricsRegistry:
    """Named, labelled instruments behind one lock.

    ``counter`` / ``gauge`` / ``histogram`` get-or-create: the first
    call fixes the metric's type (a name cannot be a counter in one
    place and a gauge in another -- that raises ``ValueError``), and
    each distinct label set is its own series under the name.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        #: name -> instrument class name ("counter"/"gauge"/"histogram")
        self._kinds: dict[str, str] = {}
        #: (name, label items) -> instrument
        self._series: dict[tuple[str, LabelItems], Any] = {}

    # -- instrument access ---------------------------------------------
    def _get(self, cls, name: str, labels: dict, **kw):
        key = (name, _label_items(labels))
        with self._lock:
            kind = self._kinds.get(name)
            if kind is None:
                self._kinds[name] = cls.kind
            elif kind != cls.kind:
                raise ValueError(
                    f"metric {name!r} is a {kind}, not a {cls.kind}"
                )
            instrument = self._series.get(key)
            if instrument is None:
                instrument = self._series[key] = cls(**kw)
            return instrument

    def counter(self, name: str, **labels: Any) -> Counter:
        return self._get(Counter, name, labels)

    def gauge(self, name: str, **labels: Any) -> Gauge:
        return self._get(Gauge, name, labels)

    def histogram(
        self,
        name: str,
        buckets: Sequence[float] = DEFAULT_BUCKETS,
        **labels: Any,
    ) -> Histogram:
        return self._get(Histogram, name, labels, buckets=buckets)

    # -- export ---------------------------------------------------------
    def as_dict(self) -> dict[str, Any]:
        """Plain-JSON snapshot: series keyed ``name{label="v",...}``."""
        out: dict[str, Any] = {}
        with self._lock:
            for (name, items), instrument in sorted(self._series.items()):
                key = name + _label_suffix(items)
                if instrument.kind == "histogram":
                    out[key] = {
                        "kind": "histogram",
                        "sum": instrument.sum,
                        "count": instrument.count,
                        "buckets": {
                            le: n for le, n in instrument.cumulative()
                        },
                    }
                else:
                    out[key] = {
                        "kind": instrument.kind,
                        "value": instrument.value,
                    }
        return out

    def snapshot(self) -> dict[str, Any]:
        """Structured, JSON/pickle-safe dump of every series with raw
        (non-cumulative) values -- the exchange format the fleet
        aggregation layer (:mod:`repro.obs.fleet`) diffs and merges.

        Unlike :meth:`as_dict`, label sets stay structured (a list of
        ``[key, value]`` pairs) and histogram bucket counts are the raw
        per-bucket tallies, so two snapshots can be subtracted
        element-wise to form a delta.
        """
        series: list[dict[str, Any]] = []
        with self._lock:
            for (name, items), instrument in sorted(self._series.items()):
                entry: dict[str, Any] = {
                    "name": name,
                    "labels": [list(kv) for kv in items],
                    "kind": instrument.kind,
                }
                if instrument.kind == "histogram":
                    entry["buckets"] = list(instrument.buckets)
                    entry["counts"] = list(instrument.counts)
                    entry["sum"] = instrument.sum
                    entry["count"] = instrument.count
                else:
                    entry["value"] = instrument.value
                series.append(entry)
        return {"series": series}

    def to_prometheus(self) -> str:
        """Prometheus text exposition format (version 0.0.4)."""
        lines: list[str] = []
        with self._lock:
            by_name: dict[str, list[tuple[LabelItems, Any]]] = {}
            for (name, items), instrument in sorted(self._series.items()):
                by_name.setdefault(name, []).append((items, instrument))
            for name, series in by_name.items():
                lines.append(f"# TYPE {name} {self._kinds[name]}")
                for items, instrument in series:
                    if instrument.kind == "histogram":
                        for le, n in instrument.cumulative():
                            bucket_items = items + (("le", le),)
                            lines.append(
                                f"{name}_bucket"
                                f"{_label_suffix(bucket_items)} {n}"
                            )
                        suffix = _label_suffix(items)
                        lines.append(
                            f"{name}_sum{suffix} {_fmt(instrument.sum)}"
                        )
                        lines.append(
                            f"{name}_count{suffix} {instrument.count}"
                        )
                    else:
                        lines.append(
                            f"{name}{_label_suffix(items)} "
                            f"{_fmt(instrument.value)}"
                        )
        return "\n".join(lines) + ("\n" if lines else "")

    def reset(self) -> None:
        """Drop every series and type registration (tests)."""
        with self._lock:
            self._kinds.clear()
            self._series.clear()


def _fmt(value: float) -> str:
    """Integers without the trailing ``.0``, floats via repr."""
    if value == int(value):
        return str(int(value))
    return repr(value)


#: The process-wide default registry the engines / cache / sweep loop
#: write to; :func:`registry` is the sanctioned accessor.
_REGISTRY = MetricsRegistry()


def registry() -> MetricsRegistry:
    """The process-local default :class:`MetricsRegistry`."""
    return _REGISTRY
