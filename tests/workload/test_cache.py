"""Unit tests for the content-addressed trace cache
(repro.workload.cache)."""

import dataclasses

import pytest

from repro.workload import WorkloadConfig
from repro.workload.cache import (
    CACHE_DIR_ENV,
    TraceCache,
    config_key,
    shared_cache,
)


def cfg(**overrides):
    return WorkloadConfig(**{"sim_time": 200.0, **overrides})


# ----------------------------------------------------------------------
# key derivation
# ----------------------------------------------------------------------
def test_key_is_stable_across_instances():
    assert config_key(cfg()) == config_key(cfg())
    assert len(config_key(cfg())) == 64  # hex sha256


@pytest.mark.parametrize(
    "change",
    [
        {"seed": 1},
        {"t_switch": 999.0},
        {"sim_time": 201.0},
        {"n_hosts": 11},
        {"p_send": 0.5},
        {"heterogeneity": 0.3},
        {"extra": {"note": "x"}},
    ],
)
def test_any_field_change_invalidates_key(change):
    assert config_key(cfg(**change)) != config_key(cfg())


def test_extra_dict_ordering_is_canonical():
    a = cfg(extra={"x": 1, "y": 2})
    b = cfg(extra={"y": 2, "x": 1})
    assert config_key(a) == config_key(b)


def test_non_finite_floats_are_hashable():
    # wireless_bandwidth defaults to inf; plain json would reject it.
    assert config_key(cfg()) != config_key(cfg(wireless_bandwidth=1e6))


def test_key_covers_every_config_field():
    # A new WorkloadConfig field must not silently alias cache entries:
    # the key is built from dataclasses.fields, so this documents the
    # expectation that all fields participate.
    base, other = cfg(), cfg()
    for f in dataclasses.fields(WorkloadConfig):
        assert hasattr(base, f.name)
    assert config_key(base) == config_key(other)


# ----------------------------------------------------------------------
# memory tier
# ----------------------------------------------------------------------
def test_memory_hit_returns_same_object():
    cache = TraceCache()
    first = cache.get_or_generate(cfg())
    second = cache.get_or_generate(cfg())
    assert second is first
    assert cache.stats() == {
        "hits": 1, "disk_hits": 0, "misses": 1,
        "corrupt_evictions": 0, "entries": 1,
    }


def test_different_seeds_are_different_entries():
    cache = TraceCache()
    t0 = cache.get_or_generate(cfg(seed=0))
    t1 = cache.get_or_generate(cfg(seed=1))
    assert t0 is not t1
    assert cache.misses == 2 and cache.hits == 0


def test_lru_eviction_bounds_memory():
    cache = TraceCache(max_entries=2)
    a, b, c = cfg(seed=0), cfg(seed=1), cfg(seed=2)
    cache.get_or_generate(a)
    cache.get_or_generate(b)
    cache.get_or_generate(c)  # evicts a (least recently used)
    assert len(cache) == 2
    cache.get_or_generate(a)  # regenerates
    assert cache.misses == 4 and cache.hits == 0


def test_lru_recency_updated_on_hit():
    cache = TraceCache(max_entries=2)
    a, b, c = cfg(seed=0), cfg(seed=1), cfg(seed=2)
    cache.get_or_generate(a)
    cache.get_or_generate(b)
    cache.get_or_generate(a)  # a becomes most recent
    cache.get_or_generate(c)  # evicts b, not a
    assert cache.get_or_generate(a) is not None
    assert cache.stats()["misses"] == 3  # a, b, c only


def test_keep_false_serves_memory_but_remembers_nothing(tmp_path):
    cache = TraceCache(disk_dir=tmp_path)
    kept = cache.get_or_generate(cfg(seed=0))
    assert cache.get_or_generate(cfg(seed=0), keep=False) is kept
    cache.get_or_generate(cfg(seed=1), keep=False)  # generated, stored
    cache.get_or_generate(cfg(seed=1), keep=False)  # disk hit
    assert cache.stats() == {
        "hits": 1, "disk_hits": 1, "misses": 2,
        "corrupt_evictions": 0, "entries": 1,
    }
    assert len(list(tmp_path.glob("*.npz"))) == 2


def test_clear_resets_counters_and_entries():
    cache = TraceCache()
    cache.get_or_generate(cfg())
    cache.clear()
    assert cache.stats() == {
        "hits": 0, "disk_hits": 0, "misses": 0,
        "corrupt_evictions": 0, "entries": 0,
    }


# ----------------------------------------------------------------------
# disk tier
# ----------------------------------------------------------------------
def test_disk_tier_shared_between_instances(tmp_path):
    writer = TraceCache(disk_dir=tmp_path)
    trace = writer.get_or_generate(cfg())
    assert len(list(tmp_path.glob("*.npz"))) == 1

    reader = TraceCache(disk_dir=tmp_path)
    loaded = reader.get_or_generate(cfg())
    assert reader.stats()["disk_hits"] == 1
    assert reader.stats()["misses"] == 0
    assert len(loaded.events) == len(trace.events)
    assert [
        (e.time, e.etype, e.host, e.msg_id, e.peer, e.cell)
        for e in loaded.events
    ] == [
        (e.time, e.etype, e.host, e.msg_id, e.peer, e.cell)
        for e in trace.events
    ]


def test_disk_miss_counts_generation(tmp_path, monkeypatch):
    calls = []
    from repro.workload import driver
    real = driver.generate_trace
    monkeypatch.setattr(
        driver, "generate_trace",
        lambda config: calls.append(config) or real(config),
    )
    cache = TraceCache(max_entries=0, disk_dir=tmp_path)
    cache.get_or_generate(cfg())  # cold: generates and stores
    cache.get_or_generate(cfg())  # served from disk
    assert len(calls) == 1
    assert cache.stats() == {
        "hits": 0, "disk_hits": 1, "misses": 1,
        "corrupt_evictions": 0, "entries": 0,
    }


def test_no_tmp_litter_after_store(tmp_path):
    cache = TraceCache(disk_dir=tmp_path)
    cache.get_or_generate(cfg())
    assert not list(tmp_path.glob("*.tmp.npz"))


# ----------------------------------------------------------------------
# shared registry
# ----------------------------------------------------------------------
def test_shared_cache_is_memoized_per_directory(tmp_path):
    a = shared_cache(tmp_path)
    b = shared_cache(tmp_path)
    assert a is b
    assert shared_cache(tmp_path / "other") is not a


def test_shared_cache_follows_cwd_for_a_relative_dir(tmp_path, monkeypatch):
    (tmp_path / "a").mkdir()
    (tmp_path / "b").mkdir()
    monkeypatch.chdir(tmp_path / "a")
    first = shared_cache("cache")
    monkeypatch.chdir(tmp_path / "b")
    second = shared_cache("cache")
    assert first.disk_dir == (tmp_path / "a" / "cache").resolve()
    assert second.disk_dir == (tmp_path / "b" / "cache").resolve()
    assert shared_cache(tmp_path / "b" / "cache") is second


def test_shared_cache_honours_environment(tmp_path, monkeypatch):
    monkeypatch.setenv(CACHE_DIR_ENV, str(tmp_path))
    cache = shared_cache()
    assert cache.disk_dir == tmp_path.resolve()
    cache.get_or_generate(cfg())
    assert len(list(tmp_path.glob("*.npz"))) == 1


# ----------------------------------------------------------------------
# corruption tolerance
# ----------------------------------------------------------------------
def _trace_values(trace):
    return [
        (e.time, e.etype, e.host, e.msg_id, e.peer, e.cell)
        for e in trace.events
    ]


def test_truncated_disk_entry_is_a_miss_and_regenerates(tmp_path):
    writer = TraceCache(disk_dir=tmp_path)
    original = writer.get_or_generate(cfg())
    (entry,) = tmp_path.glob("*.npz")
    # Truncate the file in place (a crash mid-write / torn disk).
    data = entry.read_bytes()
    entry.write_bytes(data[: len(data) // 2])

    reader = TraceCache(disk_dir=tmp_path)
    regenerated = reader.get_or_generate(cfg())
    assert reader.stats()["corrupt_evictions"] == 1
    assert reader.stats()["disk_hits"] == 0
    assert reader.stats()["misses"] == 1
    assert _trace_values(regenerated) == _trace_values(original)
    # The bad entry was replaced by a fresh, loadable one.
    third = TraceCache(disk_dir=tmp_path)
    assert _trace_values(third.get_or_generate(cfg())) == _trace_values(
        original
    )
    assert third.stats()["disk_hits"] == 1


def test_bitflipped_disk_entry_fails_checksum(tmp_path):
    writer = TraceCache(disk_dir=tmp_path)
    original = writer.get_or_generate(cfg())
    (entry,) = tmp_path.glob("*.npz")
    data = bytearray(entry.read_bytes())
    # Flip bits in the middle of the payload but keep the zip readable
    # often enough that only the checksum catches it; either failure
    # mode must land in the corrupt-eviction path, never raise.
    data[len(data) // 2] ^= 0xFF
    entry.write_bytes(bytes(data))

    reader = TraceCache(disk_dir=tmp_path)
    regenerated = reader.get_or_generate(cfg())
    assert reader.stats()["corrupt_evictions"] == 1
    assert _trace_values(regenerated) == _trace_values(original)


def test_legacy_entry_without_digest_is_evicted_and_regenerated(tmp_path):
    """A cache entry written before the digest field existed cannot be
    verified: it is evicted like a damaged one, regenerated
    value-identical and rewritten with a digest, so the next lookup is
    a verified disk hit."""
    import numpy as np

    writer = TraceCache(disk_dir=tmp_path)
    original = writer.get_or_generate(cfg())
    (entry,) = tmp_path.glob("*.npz")
    with np.load(entry) as data:
        arrays = {k: data[k] for k in data.files if k != "digest"}
    np.savez_compressed(entry, **arrays)  # a pre-checksum legacy file

    reader = TraceCache(disk_dir=tmp_path)
    loaded = reader.get_or_generate(cfg())
    assert reader.stats()["disk_hits"] == 0
    assert reader.stats()["misses"] == 1
    assert reader.stats()["corrupt_evictions"] == 1
    assert _trace_values(loaded) == _trace_values(original)
    with np.load(entry) as data:
        assert "digest" in data.files
    third = TraceCache(disk_dir=tmp_path)
    third.get_or_generate(cfg())
    assert third.stats()["disk_hits"] == 1
    assert third.stats()["corrupt_evictions"] == 0


def test_garbage_disk_entry_is_unlinked(tmp_path):
    from repro.workload.cache import config_key

    key = config_key(cfg())
    bad = tmp_path / f"{key}.npz"
    bad.write_bytes(b"this is not an npz file")
    cache = TraceCache(disk_dir=tmp_path)
    trace = cache.get_or_generate(cfg())
    assert trace is not None
    assert cache.stats()["corrupt_evictions"] == 1
    # The replacement entry on disk is now valid.
    fresh = TraceCache(disk_dir=tmp_path)
    fresh.get_or_generate(cfg())
    assert fresh.stats()["disk_hits"] == 1
