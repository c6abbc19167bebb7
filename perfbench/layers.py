"""Per-layer tracing of a sweep, recorded from outside the program.

The traced run wraps the program's public layer functions where the
program resolves them through their module at call time:

==========  ==========================================================
layer       wrapped calls (span name)
==========  ==========================================================
generate    ``repro.workload.driver.generate_trace`` (``generate``)
lower       ``repro.core.compiled.compile_trace`` / ``array_columns``
            and ``repro.core.vectorized.vectorized_trace`` (``lower``)
cache       ``repro.workload.cache.TraceCache.get_or_generate``
            (``cache``), ``repro.core.trace_io.load_trace`` /
            ``save_trace`` (``cache.load`` / ``cache.save``), and the
            engine's own ``trace-acquire`` phase
replay      the engine's own phase spans ``fused-pass``,
            ``vectorized-pass`` and ``replay``, recorded with
            ``trace_spans=True``
==========  ==========================================================

The self time of every other span (the engine's ``run`` span around
each task and its ``observer:*`` spans) belongs to no layer: it is
reported as ``unattributed`` and lowers ``trace.coverage``.

The wrappers record into the tracer of the task that is running: the
tracer class is replaced by a subclass that remembers its newest
instance, and the engine builds one per task when ``trace_spans`` is
on.  Wrapper spans therefore nest under the engine's phase spans and
ride home on ``TaskTelemetry.spans``.  Spans stay in memory until the
run ends.

Dispatch has no span of its own: its cost is the timed wall time not
spent inside tasks, ``W - sum(task wall)`` (see :func:`summarize`).
"""

from __future__ import annotations

import functools
import os
from typing import Iterable, Sequence

#: Layers in report order; ``unattributed`` collects the self time of
#: spans that belong to no layer.
LAYERS = ("generate", "lower", "cache", "replay", "dispatch")
UNATTRIBUTED = "unattributed"

_CACHE_SPANS = ("cache", "cache.load", "cache.save", "trace-acquire")
_REPLAY_SPANS = ("fused-pass", "vectorized-pass", "replay")


class _State:
    """Process-wide capture state: wrapping module attributes is
    process-wide by nature."""

    def __init__(self) -> None:
        #: The tracer of the running task; None records nothing.
        self.tracer = None
        #: ``(owner, attribute, original)`` of every wrapped callable.
        self.originals: list = []
        #: Lowering calls open on the stack.
        self.lower_depth = 0


_state = _State()


def layer_of(name: str) -> str:
    """The layer a span of this name belongs to."""
    if name in ("generate", "lower"):
        return name
    if name in _CACHE_SPANS:
        return "cache"
    if name in _REPLAY_SPANS:
        return "replay"
    return UNATTRIBUTED


def _events(trace) -> int:
    return len(trace.events)


def _npz_size(path) -> int:
    path = os.fspath(path)
    if not os.path.exists(path) and os.path.exists(path + ".npz"):
        path += ".npz"
    return os.path.getsize(path)


def _patch(owner, attr: str, wrapper) -> None:
    original = getattr(owner, attr)
    _state.originals.append((owner, attr, original))
    setattr(owner, attr, functools.wraps(original)(wrapper(original)))


def _spanning(name: str, tag):
    """Wrapper factory: time the call as span *name* and set its tags
    with ``tag(tags, args, result)`` after the span closed."""

    def make(original):
        def wrapper(*args, **kwargs):
            tracer = _state.tracer
            if tracer is None:
                return original(*args, **kwargs)
            with tracer.span(name) as sp:
                out = original(*args, **kwargs)
            tag(sp.tags, args, out)
            return out

        return wrapper

    return make


def _lowering(original):
    """Like :func:`_spanning` for the lowering entry points; a lowering
    that runs inside another is tagged ``nested`` so calls count once."""

    def wrapper(trace, *args, **kwargs):
        tracer = _state.tracer
        if tracer is None:
            return original(trace, *args, **kwargs)
        nested = _state.lower_depth > 0
        _state.lower_depth += 1
        try:
            with tracer.span("lower") as sp:
                out = original(trace, *args, **kwargs)
        finally:
            _state.lower_depth -= 1
        sp.tags["events"] = _events(trace)
        sp.tags["fn"] = original.__name__
        if nested:
            sp.tags["nested"] = True
        return out

    return wrapper


def _cache_lookup(original):
    def wrapper(cache, config, *args, **kwargs):
        tracer = _state.tracer
        if tracer is None:
            return original(cache, config, *args, **kwargs)
        before = (cache.hits, cache.disk_hits, cache.corrupt_evictions)
        with tracer.span("cache") as sp:
            out = original(cache, config, *args, **kwargs)
        if cache.hits > before[0]:
            sp.tags["tier"] = "memory"
        elif cache.disk_hits > before[1]:
            sp.tags["tier"] = "disk"
        else:
            sp.tags["tier"] = "miss"
        sp.tags["corrupt"] = cache.corrupt_evictions - before[2]
        return out

    return wrapper


def install() -> None:
    """Wrap the layer functions and arm span capture (idempotent)."""
    if _state.originals:
        return
    from repro.core import compiled, trace_io, vectorized
    from repro.obs import tracing
    from repro.workload import cache, driver

    def generated(tags, args, out):
        tags["events"] = _events(out)

    def loaded(tags, args, out):
        tags["events"] = _events(out)
        tags["bytes"] = _npz_size(args[0])

    def saved(tags, args, out):
        tags["events"] = _events(args[0])
        tags["bytes"] = _npz_size(args[1])

    _patch(driver, "generate_trace", _spanning("generate", generated))
    _patch(trace_io, "load_trace", _spanning("cache.load", loaded))
    _patch(trace_io, "save_trace", _spanning("cache.save", saved))
    _patch(compiled, "compile_trace", _lowering)
    _patch(compiled, "array_columns", _lowering)
    _patch(vectorized, "vectorized_trace", _lowering)
    _patch(cache.TraceCache, "get_or_generate", _cache_lookup)

    base = tracing.Tracer

    class LayerTracer(base):
        """The engine's tracer, remembered so wrappers record into it."""

        def __init__(self) -> None:
            super().__init__()
            _state.tracer = self

    _state.originals.append((tracing, "Tracer", base))
    tracing.Tracer = LayerTracer


def uninstall() -> None:
    """Restore every wrapped function and stop capturing."""
    for owner, attr, original in reversed(_state.originals):
        setattr(owner, attr, original)
    _state.originals.clear()
    _state.tracer = None
    _state.lower_depth = 0


# ---------------------------------------------------------------------------
# aggregation
# ---------------------------------------------------------------------------

def self_times(spans: Sequence[dict]) -> list[tuple[dict, float]]:
    """``(span, self seconds)`` for the spans of one tracer.

    A tracer appends a span when it closes, so one thread's spans come
    children first: a span's children are the spans one level deeper
    that closed since the previous span at its own depth.
    """
    waiting: dict[int, float] = {}
    out = []
    for sp in spans:
        depth = sp["depth"]
        children = waiting.pop(depth + 1, 0.0)
        out.append((sp, sp["duration_s"] - children))
        waiting[depth] = waiting.get(depth, 0.0) + sp["duration_s"]
    return out


def task_spans(results: Iterable) -> list[list[dict]]:
    """The spans of every task of the given sweep results, one list per
    task.  Each span is stamped with its cell id, ``pass:T_switch:seed``,
    which serves as the request id."""
    out = []
    for n, result in enumerate(results):
        for rec in result.telemetry:
            cell = f"{n}:{rec.t_switch:g}:{rec.seed}"
            out.append([dict(sp, tags={**sp["tags"], "cell": cell})
                        for sp in rec.spans])
    return out


def summarize(
    results: Sequence,
    wall_s: float,
) -> tuple[dict[str, float], dict[str, tuple[int, float]]]:
    """Per-layer metrics of a traced timed phase.

    *results* are the timed passes' sweep results and *wall_s* their
    summed wall time.  Returns ``(metrics, table)`` where *table* maps
    each layer (and ``unattributed``) to ``(spans, self seconds)``.
    """
    per_layer = {layer: [0, 0.0] for layer in LAYERS + (UNATTRIBUTED,)}
    gen_events = low_events = load_events = 0
    gen_calls = low_calls = 0
    load_s = save_s = 0.0
    bytes_read = bytes_written = 0
    tiers = {"memory": 0, "disk": 0, "miss": 0}
    corrupt = 0
    runs = {"fused": 0, "vectorized": 0, "reference": 0}
    for spans in task_spans(results):
        for sp, self_s in self_times(spans):
            name, tags = sp["name"], sp["tags"]
            layer = layer_of(name)
            per_layer[layer][0] += 1
            per_layer[layer][1] += self_s
            if name == "generate":
                gen_calls += 1
                gen_events += tags["events"]
            elif name == "lower" and not tags.get("nested"):
                low_calls += 1
                low_events += tags["events"]
            elif name == "cache":
                tiers[tags["tier"]] += 1
                corrupt += tags["corrupt"]
            elif name == "cache.load":
                load_s += self_s
                load_events += tags["events"]
                bytes_read += tags["bytes"]
            elif name == "cache.save":
                save_s += self_s
                bytes_written += tags["bytes"]
            elif name == "run":
                kind = tags.get("engine", "")
                runs[kind] = runs.get(kind, 0) + 1

    records = [rec for result in results for rec in result.telemetry]
    task_wall = sum(rec.wall_time_s for rec in records)
    sweep_wall = sum(result.sweep_wall_s for result in results)
    protocol_events = sum(rec.n_events * len(rec.counters) for rec in records)
    overhead = wall_s - task_wall
    per_layer["dispatch"][1] = overhead
    # Only time a layer accounts for is covered: the layers' own spans
    # inside the tasks, and dispatch outside them.
    covered = sum(per_layer[layer][1] for layer in LAYERS)
    lookups = sum(tiers.values())
    replay_s = per_layer["replay"][1]

    def per(amount: float, count: int, scale: float) -> float:
        return amount / count * scale if count else 0.0

    metrics = {
        "generate.calls": gen_calls,
        "generate.events": gen_events,
        "generate.seconds": per_layer["generate"][1],
        "generate.us_per_event": per(per_layer["generate"][1], gen_events, 1e6),
        "lower.calls": low_calls,
        "lower.seconds": per_layer["lower"][1],
        "lower.us_per_event": per(per_layer["lower"][1], low_events, 1e6),
        "cache.hits": tiers["memory"],
        "cache.disk_hits": tiers["disk"],
        "cache.misses": tiers["miss"],
        "cache.corrupt_evictions": corrupt,
        "cache.hit_ratio": per(tiers["memory"] + tiers["disk"], lookups, 1.0),
        "cache.load_seconds": load_s,
        "cache.save_seconds": save_s,
        "cache.bytes_read": bytes_read,
        "cache.bytes_written": bytes_written,
        "cache.load_us_per_event": per(load_s, load_events, 1e6),
        "replay.seconds": replay_s,
        "replay.protocol_events": protocol_events,
        "replay.ns_per_protocol_event": per(replay_s, protocol_events, 1e9),
        "replay.runs.fused": runs["fused"],
        "replay.runs.vectorized": runs["vectorized"],
        "replay.runs.reference": runs["reference"],
        "dispatch.overhead_seconds": overhead,
        "dispatch.utilization": per(task_wall, sweep_wall, 1.0),
        "dispatch.retries": sum(r.task_retries for r in results),
        "dispatch.quarantined": sum(len(r.errors) for r in results),
        "trace.coverage": covered / wall_s,
    }
    table = {layer: (n, s) for layer, (n, s) in per_layer.items()}
    return metrics, table


def format_table(table: dict[str, tuple[int, float]], wall_s: float) -> str:
    """The per-layer self-time table, as text."""
    lines = [f"{'layer':<12} {'spans':>7} {'self_s':>10} {'share':>7}"]
    for layer in LAYERS + (UNATTRIBUTED,):
        n, s = table[layer]
        lines.append(f"{layer:<12} {n:>7} {s:>10.4f} {100 * s / wall_s:>6.1f}%")
    covered = sum(table[layer][1] for layer in LAYERS)
    lines.append(f"{'covered':<12} {'':>7} {covered:>10.4f} "
                 f"{100 * covered / wall_s:>6.1f}%  of {wall_s:.4f} s")
    return "\n".join(lines)


def chrome_spans(results: Sequence, own: Iterable[dict]) -> list[dict]:
    """Every span of the traced phase: the tasks' (cell-stamped) spans
    plus the benchmark's own spans around each pass."""
    return [sp for task in task_spans(results) for sp in task] + list(own)
