"""Unit tests for the vectorized replay tier.

Covers the pieces the equivalence suites take for granted:

* compiled columns are lowered at pinned platform-independent dtypes
  (``int64`` / ``float64``) and cached per trace;
* the npz cache tier stores those columns natively -- a disk hit seeds
  the per-trace array cache, and a format-v1 entry is evicted and
  rewritten in place at the current format on first read;
* protocols without kernels are rejected with a typed error;
* the FDAS and BQF kernels leave the live state the reference replay
  leaves, which the registry-wide suites (counters, trails, recovery
  lines) do not compare.
"""

import json
import math
from functools import partial

import numpy as np
import pytest

from repro.core import trace_io
from repro.core.compiled import FLOAT_DTYPE, INT_DTYPE, array_columns
from repro.core.replay import replay, replay_vectorized
from repro.core.vectorized import (
    VectorizationError,
    index_trajectory,
    vectorized_trace,
)
from repro.protocols import BQFProtocol
from repro.protocols.base import registry
from repro.testing import without_kernels
from repro.workload import WorkloadConfig, generate_trace
from repro.workload.cache import TraceCache, config_key

def cfg(**kw):
    defaults = dict(sim_time=300.0, p_switch=0.8, seed=0)
    defaults.update(kw)
    return WorkloadConfig(**defaults)


# -- dtype pinning (satellite: explicit column dtypes) ---------------------


def test_dtype_constants_are_pinned():
    assert INT_DTYPE == "int64"
    assert FLOAT_DTYPE == "float64"


def test_array_columns_use_pinned_dtypes():
    trace = generate_trace(cfg())
    cols = array_columns(trace)
    assert cols.time.dtype == np.dtype(FLOAT_DTYPE)
    for name in ("etype", "host", "msg_id", "peer", "cell", "slot"):
        arr = getattr(cols, name)
        assert arr.dtype == np.dtype(INT_DTYPE), name
    # The lowering is cached on the trace: same object back.
    assert array_columns(trace) is cols


# -- native array storage in the npz tier (satellite: cache format) --------


def test_saved_trace_stores_pinned_array_columns(tmp_path):
    trace = generate_trace(cfg())
    path = tmp_path / "t.npz"
    trace_io.save_trace(trace, path)
    with np.load(path) as data:
        header = json.loads(bytes(data["header"]).decode("utf-8"))
        assert header["format_version"] == trace_io.FORMAT_VERSION
        assert header["n_sends"] == array_columns(trace).n_sends
        assert header["n_receives"] == array_columns(trace).n_receives
        assert data["time"].dtype == np.dtype(FLOAT_DTYPE)
        for name in ("etype", "host", "msg_id", "peer", "cell", "slot"):
            assert data[name].dtype == np.dtype(INT_DTYPE), name


def test_loaded_trace_feeds_vectorized_replay_without_relowering(tmp_path):
    trace = generate_trace(cfg())
    path = tmp_path / "t.npz"
    trace_io.save_trace(trace, path)

    loaded = trace_io.load_trace(path, verify=True)
    # The disk hit seeded the array cache -- no list -> array pass left.
    cached = getattr(loaded, "_array_columns_cache", None)
    assert cached is not None and cached[0] == len(loaded.events)
    fresh = array_columns(trace)
    cols = array_columns(loaded)
    assert cols is cached[1]
    for name in ("time", "etype", "host", "msg_id", "peer", "cell", "slot"):
        np.testing.assert_array_equal(
            getattr(cols, name), getattr(fresh, name), err_msg=name
        )
    assert (cols.n_sends, cols.n_receives) == (fresh.n_sends, fresh.n_receives)

    # And the loaded columns replay bit-identically to the reference.
    ref = replay(trace, registry["BCS"](trace.n_hosts, trace.n_mss))
    (vec,) = replay_vectorized(
        loaded, [registry["BCS"](loaded.n_hosts, loaded.n_mss)]
    )
    assert vec.protocol.counter_signature() == ref.protocol.counter_signature()


def _rewrite_as_v1(path):
    """Downgrade an npz entry to format v1 (list-era: no slot column,
    no send/receive counts) with a consistent digest."""
    with np.load(path) as data:
        arrays = {k: data[k] for k in data.files}
    header = json.loads(bytes(arrays.pop("header")).decode("utf-8"))
    header["format_version"] = 1
    del header["n_sends"], header["n_receives"]
    del arrays["slot"], arrays["digest"]
    header_json = json.dumps(header)
    columns = tuple(
        arrays[name]
        for name in ("time", "etype", "host", "msg_id", "peer", "cell")
    )
    digest = trace_io._column_digest(header_json, columns)
    np.savez_compressed(
        path,
        header=np.frombuffer(header_json.encode("utf-8"), dtype=np.uint8),
        digest=np.frombuffer(digest.encode("ascii"), dtype=np.uint8),
        **arrays,
    )


def test_v1_cache_entry_is_upgraded_in_place(tmp_path):
    writer = TraceCache(disk_dir=tmp_path)
    original = writer.get_or_generate(cfg())
    path = tmp_path / f"{config_key(cfg())}.npz"
    _rewrite_as_v1(path)

    # A v1 entry is not read: it is evicted and regenerated...
    reader = TraceCache(disk_dir=tmp_path)
    loaded = reader.get_or_generate(cfg())
    assert reader.stats()["corrupt_evictions"] == 1
    assert reader.stats()["misses"] == 1
    assert [e.time for e in loaded.events] == [e.time for e in original.events]

    # ... and rewritten in place at the current format: a later cache
    # gets native columns straight from disk.
    third = TraceCache(disk_dir=tmp_path)
    again = third.get_or_generate(cfg())
    assert third.stats()["disk_hits"] == 1
    assert third.stats()["corrupt_evictions"] == 0
    assert getattr(again, "_array_columns_cache", None) is not None


def test_replay_vectorized_rejects_protocol_without_kernels():
    trace = generate_trace(cfg())
    loop_only = without_kernels(registry["BCS"])(trace.n_hosts, trace.n_mss)
    with pytest.raises(VectorizationError):
        replay_vectorized(trace, [loop_only])


def test_vectorized_trace_is_cached_per_trace():
    trace = generate_trace(cfg())
    assert vectorized_trace(trace) is vectorized_trace(trace)


# -- live state of the FDAS and BQF kernels --------------------------------

#: (case id, factory, live attributes compared).
LIVE_STATE_CASES = [("FDAS", registry["FDAS"], ("lc", "sent_since_ckpt"))] + [
    (
        f"BQF(period={period:g})",
        partial(BQFProtocol, period=period),
        ("sn", "rn", "_last_ckpt_time"),
    )
    for period in (math.inf, 2000.0, 500.0, 100.0)
]


@pytest.mark.parametrize(
    "log_checkpoints", [True, False], ids=["logging", "counters-only"]
)
@pytest.mark.parametrize(
    "factory, fields",
    [case[1:] for case in LIVE_STATE_CASES],
    ids=[case[0] for case in LIVE_STATE_CASES],
)
def test_kernel_live_state_matches_reference(factory, fields, log_checkpoints):
    for seed in (0, 1):
        trace = generate_trace(cfg(sim_time=3000.0, seed=seed))
        ref = factory(trace.n_hosts, trace.n_mss)
        vec = factory(trace.n_hosts, trace.n_mss)
        ref.log_checkpoints = vec.log_checkpoints = log_checkpoints
        replay(trace, ref)
        replay_vectorized(trace, [vec])
        for field in fields:
            assert getattr(vec, field) == getattr(ref, field), (seed, field)
        assert vec.counter_signature() == ref.counter_signature(), seed


def test_bqf_periods_add_autonomous_basics():
    """The finite periods above are not vacuous: each adds basics."""
    trace = generate_trace(cfg(sim_time=3000.0))
    n_basic = [
        replay_vectorized(trace, [factory(trace.n_hosts, trace.n_mss)])[0]
        .protocol.n_basic
        for _, factory, _ in LIVE_STATE_CASES[1:]
    ]
    assert n_basic == sorted(n_basic) and len(set(n_basic)) == len(n_basic)


def test_one_pass_solves_each_trajectory_once_and_keeps_nothing(monkeypatch):
    """The zoo's index family reads two trajectories per pass, BCS's
    and QBC's, and the memo that shares them is gone after the pass."""
    from repro.protocols import _vectorized as kernels

    solved = []

    def counting(vt, qbc):
        solved.append(qbc)
        return index_trajectory(vt, qbc)

    monkeypatch.setattr(kernels, "index_trajectory", counting)
    trace = generate_trace(cfg())
    zoo = ("BCS", "QBC", "BCS-NS", "QBC-NS", "FDAS", "BQF")
    replay_vectorized(
        trace, [registry[n](trace.n_hosts, trace.n_mss) for n in zoo]
    )
    assert sorted(solved) == [False, True]
    scratch = set(vectorized_trace(trace).scratch)
    assert scratch == {"mask_closure", "index_walk_static"}
