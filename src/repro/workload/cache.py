"""Content-addressed trace cache.

Trace generation is a large share of sweep cost (on a Fig. 6 cell
:func:`~repro.workload.driver.generate_trace` costs about as much as
the fused replay of all three paper protocols; on the event loop that
serves other workload models, ~20x as much), and sweeps regenerate the
*same* traces constantly: re-running a figure after a protocol tweak,
evaluating a new protocol on the standard grid, benchmarking.  Because
generation is a pure function of :class:`WorkloadConfig` (the seed is a
config field), each trace can be addressed by the hash of its
generating config and reused.

Key derivation (:func:`config_key`) canonicalizes every dataclass field
-- floats through :func:`repr` so ``inf``/``-0.0`` round-trip, dicts
with sorted keys -- and hashes the JSON with SHA-256.  Any field
change, including ``seed``, yields a new key; re-ordering ``extra``
entries does not.

Two tiers:

* an in-process LRU (:class:`TraceCache`) holding deserialized
  :class:`~repro.core.trace.Trace` objects, bounded by entry count.
  A replayed trace keeps its lowerings and per-run scratch (~160
  bytes per event against ~56 for the columns), so the tier is what a
  process's memory grows with.  It pays off when traces are read
  again: ``execute`` / ``repro compare`` callers and a sweep whose
  whole grid fits in it.  A sweep reads each (point, seed) cell once
  per pass, and an LRU never hits during a cyclic scan longer than its
  capacity, so a sweep over a larger grid still reads the tier but
  keeps nothing in it (``keep=False`` of
  :meth:`TraceCache.get_or_generate`; the runner decides per grid);
* an optional on-disk store (one ``<key>.npz`` per trace via
  :mod:`repro.core.trace_io`) shared between processes and sessions --
  this is what makes the parallel sweep's worker processes and repeated
  CLI invocations hit instead of regenerate.  A disk hit decodes the
  stored columns and checks their digest; it returns a column-backed
  trace that the fused and vectorized engines replay without building
  per-event objects.  Entries are stored uncompressed, each integer
  column at its narrowest signed width (~16 bytes per event on the
  paper's grid, ~20 at the 1e5 horizon; entries written at ``int64``
  still hit), so on a Fig. 6 cell at ``sim_time=2000`` a verified hit
  and a save each cost under 1 ms against ~5 ms to generate the trace
  (the columnar generator; the event loop of other workload models
  costs ~19 us per event).  An entry that fails the check -- damaged, or
  written in an older trace format -- is evicted and regenerated, so
  a stale entry costs one miss.

Disk writes are atomic (tmp file + :func:`os.replace`), so concurrent
sweep workers racing on the same key at worst both generate and one
write wins -- never a torn file.
"""

from __future__ import annotations

import functools
import hashlib
import json
import os
import tempfile
from collections import OrderedDict
from dataclasses import fields
from pathlib import Path
from typing import Optional, Union

from repro.core.trace import Trace
from repro.workload import driver as _driver
from repro.workload.config import WorkloadConfig

#: Default capacity of the in-memory tier.  A sweep fills it only when
#: its whole grid fits: a paper figure's len(T_SWITCH_SWEEP) x
#: len(seeds) >= 21 cells would cycle through it without one hit,
#: only holding the last traces alive.
DEFAULT_MAX_ENTRIES = 16

#: Environment variable naming the shared on-disk store directory.
CACHE_DIR_ENV = "REPRO_TRACE_CACHE_DIR"


def _canonical(value):
    """JSON-safe canonical form of one config field value."""
    if isinstance(value, float):
        # repr() round-trips inf/-inf/nan and distinguishes -0.0; JSON
        # would reject the non-finite ones as literals.
        return repr(value)
    if isinstance(value, dict):
        return {str(k): _canonical(v) for k, v in sorted(value.items())}
    if isinstance(value, (list, tuple)):
        return [_canonical(v) for v in value]
    return value


def _metric_event(event: str) -> None:
    """Count a cache event in the process-local metrics registry.

    Imported lazily so the cache stays importable before
    :mod:`repro.obs.metrics` (and never pulls it in at module import,
    keeping this layer cycle-free)."""
    from repro.obs.metrics import registry

    registry().counter("repro_trace_cache_events_total", event=event).inc()


def config_key(config: WorkloadConfig) -> str:
    """Content address of the trace *config* generates.

    A hex SHA-256 over the canonicalized (field name -> value) mapping.
    Stable across processes and sessions; sensitive to every field
    (``seed`` included), insensitive to ``extra`` dict ordering.

    The registry fields (``workload`` / ``workload_params``) joined the
    config after traces were already cached on disk; at their paper
    defaults they are dropped from the hashed payload, so every
    pre-registry key (and existing cache entry) stays valid while any
    non-default model still gets its own distinct key.
    """
    payload = {
        f.name: _canonical(getattr(config, f.name))
        for f in fields(config)
    }
    if payload.get("workload") == "paper" and not config.workload_params:
        del payload["workload"]
        del payload["workload_params"]
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


class TraceCache:
    """Two-tier (memory LRU + optional disk) trace cache.

    Parameters
    ----------
    max_entries:
        In-memory capacity; least-recently-used traces are evicted
        beyond it.  0 disables the memory tier (useful to exercise the
        disk tier alone).
    disk_dir:
        Directory for the persistent ``<key>.npz`` tier; created on
        first write.  None disables the disk tier.  A hit there is
        digest-checked and column-backed: its events are built only if
        a caller reads ``trace.events``.
    """

    def __init__(
        self,
        max_entries: int = DEFAULT_MAX_ENTRIES,
        disk_dir: Optional[Union[str, Path]] = None,
    ):
        if max_entries < 0:
            raise ValueError("max_entries must be >= 0")
        self.max_entries = max_entries
        self.disk_dir = Path(disk_dir) if disk_dir is not None else None
        self._memory: OrderedDict[str, Trace] = OrderedDict()
        #: Served from the memory tier.
        self.hits = 0
        #: Served from the disk tier (also counted as a miss of memory).
        self.disk_hits = 0
        #: Required a fresh generate_trace call.
        self.misses = 0
        #: Disk entries that failed checksum/decode (damaged files and
        #: older trace formats alike) and were evicted.
        self.corrupt_evictions = 0

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._memory)

    def _disk_path(self, key: str) -> Optional[Path]:
        if self.disk_dir is None:
            return None
        return self.disk_dir / f"{key}.npz"

    def _remember(self, key: str, trace: Trace) -> None:
        if self.max_entries == 0:
            return
        self._memory[key] = trace
        self._memory.move_to_end(key)
        while len(self._memory) > self.max_entries:
            self._memory.popitem(last=False)

    def _store_disk(self, key: str, trace: Trace) -> None:
        path = self._disk_path(key)
        if path is None or path.exists():
            return
        # Import locally-late so monkeypatched savers are honoured and
        # numpy stays off the import path of cache-less runs.
        from repro.core import trace_io

        path.parent.mkdir(parents=True, exist_ok=True)
        fd, tmp = tempfile.mkstemp(
            dir=str(path.parent), prefix=f".{key[:16]}-", suffix=".tmp.npz"
        )
        os.close(fd)
        try:
            trace_io.save_trace(trace, tmp)
            os.replace(tmp, path)
        except BaseException:
            if os.path.exists(tmp):
                os.unlink(tmp)
            raise

    def _load_disk(self, key: str) -> Optional[Trace]:
        path = self._disk_path(key)
        if path is None or not path.exists():
            return None
        from repro.core import trace_io

        try:
            # The stored trace was validated at generation time; skip
            # the O(events) structural re-check but verify the column
            # checksum so a truncated/bit-flipped file cannot replay.
            return trace_io.load_trace(path, validate=False, verify=True)
        except trace_io.TraceIntegrityError:
            return self._evict_corrupt(path)

    def _evict_corrupt(self, path: Path) -> None:
        # A corrupt entry is a miss: evict it so the regenerated
        # trace can take its slot, never poison the sweep.
        self.corrupt_evictions += 1
        _metric_event("corrupt_eviction")
        try:
            path.unlink()
        except OSError:
            pass
        return None

    # ------------------------------------------------------------------
    def get_or_generate(
        self, config: WorkloadConfig, keep: bool = True
    ) -> Trace:
        """Return the trace *config* generates, from cache if possible.

        Lookup order: memory LRU, disk store, fresh
        :func:`~repro.workload.driver.generate_trace` (which then
        populates both tiers).  ``keep=False`` still serves memory hits
        and uses the disk tier, but does not put a loaded or generated
        trace in memory: the caller will not read it again before the
        LRU would evict it.
        """
        key = config_key(config)
        trace = self._memory.get(key)
        if trace is not None:
            self._memory.move_to_end(key)
            self.hits += 1
            _metric_event("hit")
            return trace
        trace = self._load_disk(key)
        if trace is not None:
            self.disk_hits += 1
            _metric_event("disk_hit")
            if keep:
                self._remember(key, trace)
            return trace
        self.misses += 1
        _metric_event("miss")
        # Resolved through the module so tests monkeypatching
        # repro.workload.driver.generate_trace observe cache misses.
        trace = _driver.generate_trace(config)
        if keep:
            self._remember(key, trace)
        self._store_disk(key, trace)
        return trace

    def clear(self) -> None:
        """Drop the memory tier and reset counters (disk files stay)."""
        self._memory.clear()
        self.hits = self.disk_hits = self.misses = 0
        self.corrupt_evictions = 0

    def stats(self) -> dict[str, int]:
        """Counter snapshot: hits / disk_hits / misses / corrupt /
        entries."""
        return {
            "hits": self.hits,
            "disk_hits": self.disk_hits,
            "misses": self.misses,
            "corrupt_evictions": self.corrupt_evictions,
            "entries": len(self._memory),
        }


#: Per-process shared caches, keyed by resolved disk directory (None for
#: the memory-only one) -- sweep workers reuse one cache per process.
_shared: dict[Optional[str], TraceCache] = {}


@functools.lru_cache(maxsize=None)
def _resolved(path: str) -> str:
    """*path* resolved once: a sweep asks for its cache twice per cell,
    and ``Path.resolve`` stats every path component."""
    return str(Path(path).resolve())


def shared_cache(disk_dir: Optional[Union[str, Path]] = None) -> TraceCache:
    """Process-wide :class:`TraceCache` for *disk_dir*.

    ``disk_dir=None`` consults the ``REPRO_TRACE_CACHE_DIR`` environment
    variable before falling back to a memory-only cache.  Repeated calls
    with the same directory return the same instance, so every sweep
    task in a worker process shares one LRU.
    """
    if disk_dir is None:
        disk_dir = os.environ.get(CACHE_DIR_ENV) or None
    resolved = None
    if disk_dir is not None:
        # Joined with the cwd first, so a relative dir follows chdir.
        resolved = _resolved(os.path.join(os.getcwd(), disk_dir))
    cache = _shared.get(resolved)
    if cache is None:
        cache = TraceCache(disk_dir=resolved)
        _shared[resolved] = cache
    return cache
