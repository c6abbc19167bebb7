"""Tests for trace serialization (repro.core.trace_io)."""

import json
import pickle
import zipfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings

from repro.core import trace as trace_mod
from repro.core import trace_io
from repro.core.compiled import array_columns, compile_trace
from repro.core.replay import replay, replay_fused, replay_vectorized
from repro.core.trace import EventType, build_trace
from repro.core.trace_io import load_trace, save_trace
from repro.engine import RunSpec, TelemetryObserver, execute
from repro.protocols import QBCProtocol
from repro.protocols.base import registry
from repro.testing import loop_factories
from repro.testing.strategies import traces
from repro.workload import TraceCache, WorkloadConfig, config_key, generate_trace
from repro.workload import cache as cache_mod


def test_roundtrip_preserves_everything(tmp_path):
    cfg = WorkloadConfig(sim_time=500.0, seed=4, t_switch=100.0, p_switch=0.8)
    trace = generate_trace(cfg)
    path = tmp_path / "trace.npz"
    save_trace(trace, path)
    loaded = load_trace(path)
    assert loaded.n_hosts == trace.n_hosts
    assert loaded.n_mss == trace.n_mss
    assert loaded.sim_time == trace.sim_time
    assert loaded.meta == trace.meta
    assert len(loaded) == len(trace)
    for a, b in zip(trace.events, loaded.events):
        assert (a.time, a.etype, a.host, a.msg_id, a.peer, a.cell) == (
            b.time,
            b.etype,
            b.host,
            b.msg_id,
            b.peer,
            b.cell,
        )


def test_replay_identical_after_roundtrip(tmp_path):
    cfg = WorkloadConfig(sim_time=500.0, seed=2, t_switch=100.0)
    trace = generate_trace(cfg)
    save_trace(trace, tmp_path / "t.npz")
    loaded = load_trace(tmp_path / "t.npz")
    a = replay(trace, QBCProtocol(cfg.n_hosts, cfg.n_mss))
    b = replay(loaded, QBCProtocol(cfg.n_hosts, cfg.n_mss))
    assert a.n_total == b.n_total
    assert [
        (c.host, c.index, c.reason) for c in a.protocol.checkpoints
    ] == [(c.host, c.index, c.reason) for c in b.protocol.checkpoints]


def test_empty_trace_roundtrip(tmp_path):
    trace = build_trace(2, 2, [])
    save_trace(trace, tmp_path / "empty.npz")
    loaded = load_trace(tmp_path / "empty.npz")
    assert len(loaded) == 0


def test_extension_appended_when_missing(tmp_path):
    trace = build_trace(2, 2, [(1.0, EventType.DISCONNECT, 0)])
    save_trace(trace, tmp_path / "t")  # numpy appends .npz
    loaded = load_trace(tmp_path / "t")
    assert len(loaded) == 1


def test_unknown_format_version_rejected(tmp_path):
    import json

    trace = build_trace(2, 2, [])
    path = tmp_path / "t.npz"
    save_trace(trace, path)
    with np.load(path) as data:
        arrays = {k: data[k] for k in data.files}
    header = json.loads(bytes(arrays["header"]).decode())
    header["format_version"] = 99
    arrays["header"] = np.frombuffer(
        json.dumps(header).encode(), dtype=np.uint8
    )
    np.savez(path, **arrays)
    with pytest.raises(ValueError, match="format version"):
        load_trace(path)


def test_missing_digest_raises_digest_missing_on_verify(tmp_path):
    from repro.core.trace_io import TraceIntegrityError

    cfg = WorkloadConfig(sim_time=200.0, seed=1)
    trace = generate_trace(cfg)
    path = tmp_path / "legacy.npz"
    save_trace(trace, path)
    with np.load(path) as data:
        arrays = {k: data[k] for k in data.files if k != "digest"}
    np.savez(path, **arrays)  # a file from before checksums existed
    # The digest is part of the format: such a file is not read at all,
    # verified or not, and the error names the version it claims.
    for verify in (True, False):
        with pytest.raises(
            TraceIntegrityError,
            match="format version 2 without a stored digest",
        ):
            load_trace(path, verify=verify)


def test_load_validates_by_default(tmp_path):
    import json

    # hand-craft a structurally invalid trace file
    bad = build_trace(2, 2, [])
    path = tmp_path / "bad.npz"
    save_trace(bad, path)
    with np.load(path) as data:
        arrays = {k: data[k] for k in data.files}
    arrays["time"] = np.array([1.0])
    arrays["etype"] = np.array([int(EventType.RECEIVE)], dtype=np.int8)
    arrays["host"] = np.array([0], dtype=np.int32)
    arrays["msg_id"] = np.array([5], dtype=np.int64)
    arrays["peer"] = np.array([1], dtype=np.int32)
    arrays["cell"] = np.array([-1], dtype=np.int32)
    arrays["slot"] = np.array([0], dtype=np.int64)
    np.savez(path, **arrays)
    with pytest.raises(Exception):
        load_trace(path)
    loaded = load_trace(path, validate=False)
    assert len(loaded) == 1


def test_short_slot_column_is_rejected(tmp_path):
    from repro.core.trace_io import TraceIntegrityError

    trace = generate_trace(WorkloadConfig(sim_time=200.0, seed=1))
    path = tmp_path / "t.npz"
    save_trace(trace, path)
    with np.load(path) as data:
        arrays = {k: data[k] for k in data.files}
    arrays["slot"] = arrays["slot"][:-1]
    np.savez(path, **arrays)
    # Unverified, the length check catches it; verified, the digest
    # (over the stored bytes) already fails.
    with pytest.raises(TraceIntegrityError, match="unequal lengths"):
        load_trace(path, validate=False)
    with pytest.raises(TraceIntegrityError):
        load_trace(path, validate=False, verify=True)


def _write_deflated(path, arrays, level):
    """The same npz members deflated at zlib *level*: what the cache
    wrote before its members were stored (level 1) and what
    ``np.savez_compressed`` writes (numpy's default, level 6)."""
    with zipfile.ZipFile(
        path, mode="w", compression=zipfile.ZIP_DEFLATED,
        compresslevel=level, allowZip64=True,
    ) as zf:
        for name, arr in arrays.items():
            with zf.open(name + ".npy", "w", force_zip64=True) as fid:
                np.lib.format.write_array(fid, arr, allow_pickle=False)


def test_level6_npz_still_loads(tmp_path):
    """Files deflated at zlib level 1 (every cache entry written before
    members were stored) and at numpy's default level 6 read back
    identically, digest included -- and an old entry in a cache
    directory is a disk hit that replays to the same counters."""
    cfg = WorkloadConfig(sim_time=300.0, seed=2)
    trace = generate_trace(cfg)
    path = tmp_path / "t.npz"
    save_trace(trace, path)
    with np.load(path) as data:
        arrays = {k: data[k] for k in data.files}
    expected = _counters(trace, "fused")
    for level in (1, 6):
        old = tmp_path / f"level{level}.npz"
        _write_deflated(old, arrays, level)
        a = array_columns(load_trace(path, verify=True))
        b = array_columns(load_trace(old, verify=True))
        for name in ("etype", "time", "host", "msg_id", "peer", "cell", "slot"):
            assert getattr(a, name).tobytes() == getattr(b, name).tobytes()

        cache_dir = tmp_path / f"cache{level}"
        cache_dir.mkdir()
        entry = cache_dir / f"{config_key(cfg)}.npz"
        old.rename(entry)
        cache = TraceCache(max_entries=0, disk_dir=cache_dir)
        hit = cache.get_or_generate(cfg)
        assert cache.stats()["disk_hits"] == 1
        assert cache.stats()["corrupt_evictions"] == cache.stats()["misses"] == 0
        with np.load(entry) as data:  # served as it is, not rewritten
            assert bytes(data["digest"]) == bytes(arrays["digest"])
        with zipfile.ZipFile(entry) as zf:
            assert zf.getinfo("time.npy").compress_type == zipfile.ZIP_DEFLATED
        assert _counters(hit, "fused") == expected
        assert _counters(hit, "vectorized") == expected


def test_npz_members_keep_numpy_names_and_order(tmp_path):
    trace = generate_trace(WorkloadConfig(sim_time=200.0, seed=3))
    path = tmp_path / "t.npz"
    save_trace(trace, path)
    with zipfile.ZipFile(path) as zf:
        infos = zf.infolist()
    assert [i.filename for i in infos] == [
        f"{name}.npy"
        for name in ("header", "digest", "time", "etype", "host",
                     "msg_id", "peer", "cell", "slot")
    ]
    assert {i.compress_type for i in infos} == {zipfile.ZIP_STORED}


# -- narrow stored columns -------------------------------------------------


def _one_message(msg_id):
    """A send and its receive carrying *msg_id*: every other column
    fits one byte, the msg_id column is *msg_id* twice."""
    return build_trace(
        2, 2,
        [(1.0, EventType.SEND, 0, msg_id, 1), (2.0, EventType.RECEIVE, 1, msg_id, 0)],
    )


@pytest.mark.parametrize(
    "msg_id,width",
    [(127, "<i1"), (128, "<i2"), (300, "<i2"), (40000, "<i4"), (2**40, "<i8")],
)
def test_integer_columns_are_stored_at_their_narrowest_width(
    tmp_path, msg_id, width
):
    trace = _one_message(msg_id)
    path = tmp_path / "t.npz"
    save_trace(trace, path)
    with np.load(path) as data:
        stored = {name: data[name].dtype for name in trace_io._COLUMNS}
    assert stored == {
        "time": np.dtype("<f8"),
        "etype": np.dtype("<i1"),
        "host": np.dtype("<i1"),
        "msg_id": np.dtype(width),
        "peer": np.dtype("<i1"),
        "cell": np.dtype("<i1"),
        "slot": np.dtype("<i1"),
    }
    loaded = load_trace(path, verify=True)
    cols = array_columns(loaded)
    assert cols.msg_id.dtype == np.dtype("int64")
    assert cols.msg_id.tolist() == [msg_id, msg_id]
    assert loaded.events == trace.events


def test_empty_columns_are_stored_one_byte_wide(tmp_path):
    save_trace(build_trace(2, 2, []), tmp_path / "t.npz")
    with np.load(tmp_path / "t.npz") as data:
        assert {data[n].dtype for n in trace_io._COLUMNS[1:]} == {np.dtype("<i1")}


def _member_data(path, name):
    """(offset, size) of member ``<name>.npy``'s bytes in the zip."""
    with zipfile.ZipFile(path) as zf:
        info = zf.getinfo(f"{name}.npy")
    with open(path, "rb") as fh:
        fh.seek(info.header_offset + 26)
        name_len, extra_len = np.frombuffer(fh.read(4), "<u2")
    start = info.header_offset + 30 + int(name_len) + int(extra_len)
    return start, info.compress_size


def _flip(path, offset, bit):
    raw = bytearray(path.read_bytes())
    raw[offset] ^= 1 << bit
    path.write_bytes(bytes(raw))


def test_flipped_byte_in_a_narrow_column_is_an_integrity_error(tmp_path):
    trace = generate_trace(GENERATED[0])
    path = tmp_path / "t.npz"
    save_trace(trace, path)
    with np.load(path) as data:
        assert data["host"].dtype == np.dtype("<i1")
    start, size = _member_data(path, "host")
    _flip(path, start + size - 1, 0)  # the last host id
    with pytest.raises(trace_io.TraceIntegrityError):
        load_trace(path, verify=True)


def test_flipped_byte_in_a_npy_header_is_an_integrity_error(tmp_path):
    """The digest covers the column data; the member headers (the
    dtypes) are covered by the zip CRC that ``np.load`` checks."""
    trace = generate_trace(GENERATED[0])
    path = tmp_path / "t.npz"
    save_trace(trace, path)
    start, size = _member_data(path, "msg_id")
    with open(path, "rb") as fh:
        fh.seek(start)
        member = fh.read(size)
    at = member.index(b"'<i2'")
    _flip(path, start + at + 1, 1)  # '<i2' -> '>i2': one bit
    with pytest.raises(trace_io.TraceIntegrityError, match="CRC"):
        load_trace(path, verify=True)


def test_flipped_value_with_a_consistent_zip_fails_the_digest(tmp_path):
    path = tmp_path / "t.npz"
    save_trace(generate_trace(GENERATED[0]), path)
    with np.load(path) as data:
        arrays = {k: data[k] for k in data.files}
    arrays["host"] = arrays["host"].copy()
    arrays["host"][-1] ^= 1
    np.savez(path, **arrays)
    with pytest.raises(trace_io.TraceIntegrityError, match="checksum"):
        load_trace(path, verify=True)


def _savez_with_digest(path, header_json, columns):
    """An npz trace holding *columns* as given, with a digest over
    exactly those bytes."""
    digest = trace_io._column_digest(
        header_json, [columns[name] for name in trace_io._COLUMNS]
    )
    np.savez(
        path,
        header=np.frombuffer(header_json.encode("utf-8"), dtype=np.uint8),
        digest=np.frombuffer(digest.encode("ascii"), dtype=np.uint8),
        **columns,
    )


@pytest.mark.parametrize(
    "name,dtype", [("host", np.float64), ("cell", np.uint8), ("slot", np.uint64)]
)
def test_non_signed_integer_column_is_an_integrity_error(tmp_path, name, dtype):
    """A column that would load silently truncated or wrapped is
    rejected, even under a digest that matches its bytes."""
    path = tmp_path / "t.npz"
    save_trace(ALL_TYPES, path)
    with np.load(path) as data:
        header_json = bytes(data["header"]).decode("utf-8")
        columns = {n: data[n] for n in trace_io._COLUMNS}
    columns[name] = columns[name].astype(dtype)
    _savez_with_digest(path, header_json, columns)
    for verify in (True, False):
        with pytest.raises(
            trace_io.TraceIntegrityError, match=f"{name} column.*signed integer"
        ):
            load_trace(path, validate=False, verify=verify)


@pytest.mark.parametrize("deflated", [False, True], ids=["stored", "deflated"])
def test_int64_entry_still_verifies_and_hits(tmp_path, deflated):
    """An entry whose integer columns are all ``int64`` -- the layout
    written before columns were narrowed -- loads, verifies, is a disk
    hit served as it is, and replays to the same counters."""
    cfg = GENERATED[2]
    trace = generate_trace(cfg)
    cols = array_columns(trace)
    entry = tmp_path / f"{config_key(cfg)}.npz"
    save_trace(trace, entry)
    with np.load(entry) as data:
        header_json = bytes(data["header"]).decode("utf-8")
    wide = {name: getattr(cols, name) for name in trace_io._COLUMNS}
    assert {wide[n].dtype for n in trace_io._COLUMNS[1:]} == {np.dtype("int64")}
    _savez_with_digest(entry, header_json, wide)
    if deflated:
        with np.load(entry) as data:
            arrays = {k: data[k] for k in data.files}
        _write_deflated(entry, arrays, 1)
    with np.load(entry) as data:
        digest = bytes(data["digest"])
        assert data["msg_id"].dtype == np.dtype("int64")

    loaded = array_columns(load_trace(entry, verify=True))
    for name in trace_io._COLUMNS:
        assert getattr(loaded, name).tobytes() == wide[name].tobytes(), name

    cache = TraceCache(max_entries=0, disk_dir=tmp_path)
    hit = cache.get_or_generate(cfg)
    stats = cache.stats()
    assert stats["disk_hits"] == 1
    assert stats["corrupt_evictions"] == stats["misses"] == 0
    with np.load(entry) as data:  # served as it is, not rewritten
        assert bytes(data["digest"]) == digest
    expected = _counters(trace, "fused")
    assert _counters(hit, "fused") == expected
    assert _counters(hit, "vectorized") == expected


# -- column-backed disk hits: a loaded trace is the generated one ----------

PAPER_PROTOCOLS = ("TP", "BCS", "QBC")

#: Generated traces covering both switch regimes and disconnections.
GENERATED = (
    WorkloadConfig(sim_time=400.0, seed=3, t_switch=100.0, p_switch=0.8),
    WorkloadConfig(sim_time=400.0, seed=5, t_switch=1000.0, p_switch=1.0),
    WorkloadConfig(
        sim_time=400.0, seed=9, t_switch=100.0, p_switch=0.8, heterogeneity=0.5
    ),
)

#: Every event type, INTERNAL included (the driver never records one).
ALL_TYPES = build_trace(
    3,
    2,
    [
        (0.5, EventType.INTERNAL, 2),
        (1.0, EventType.SEND, 0, 7, 1),
        (2.0, EventType.CELL_SWITCH, 2, -1, 0, 1),
        (3.0, EventType.RECEIVE, 1, 7, 0),
        (4.0, EventType.DISCONNECT, 0),
        (5.0, EventType.INTERNAL, 1),
        (6.0, EventType.RECONNECT, 0, -1, -1, 1),
    ],
    sim_time=8.0,
)


def _fresh_copy(trace):
    """*trace* without the lowerings a save caches on it."""
    return type(trace)(
        n_hosts=trace.n_hosts,
        n_mss=trace.n_mss,
        events=list(trace.events),
        sim_time=trace.sim_time,
        meta=dict(trace.meta),
    )


def _roundtrip(trace, tmp_path):
    path = tmp_path / "t.npz"
    save_trace(trace, path)
    return _fresh_copy(trace), load_trace(path, validate=False, verify=True)


def _types(compiled):
    return {
        name: [type(v) for v in getattr(compiled, name)]
        for name in ("etype", "slot")
    } | {"argv": [tuple(map(type, a)) for a in compiled.argv]}


def _counters(trace, engine):
    instances = [registry[n](trace.n_hosts, trace.n_mss) for n in PAPER_PROTOCOLS]
    if engine == "reference":
        return [replay(trace, p).protocol.counter_signature() for p in instances]
    run = replay_fused if engine == "fused" else replay_vectorized
    return [r.protocol.counter_signature() for r in run(trace, instances)]


def _assert_equivalent(generated, loaded):
    assert "events" not in vars(loaded)  # column-backed until read
    assert len(loaded) == len(generated)

    ct, ref = loaded.compiled(), compile_trace(generated)
    assert "events" not in vars(loaded)  # lowered from the columns
    assert ct == ref and ct.argv == ref.argv
    assert _types(ct) == _types(ref)

    cols, fresh = array_columns(loaded), array_columns(generated)
    for name in ("time", "etype", "host", "msg_id", "peer", "cell", "slot"):
        a, b = getattr(cols, name), getattr(fresh, name)
        assert a.dtype == b.dtype, name
        np.testing.assert_array_equal(a, b, err_msg=name)
    assert (cols.n_events, cols.n_sends, cols.n_receives) == (
        fresh.n_events,
        fresh.n_sends,
        fresh.n_receives,
    )
    assert loaded.n_sends == generated.n_sends

    for engine in ("fused", "vectorized"):
        assert _counters(loaded, engine) == _counters(generated, engine), engine
    assert "events" not in vars(loaded)

    # A pickle round-trip before the events exist still rebuilds them.
    unpickled = pickle.loads(pickle.dumps(loaded))
    assert unpickled == generated and unpickled.events == generated.events

    assert _counters(loaded, "reference") == _counters(generated, "reference")
    assert loaded.events == generated.events
    assert all(
        type(a.time) is float and type(a.etype) is EventType
        for a in loaded.events
    )
    assert loaded == generated and generated == loaded
    assert pickle.loads(pickle.dumps(loaded)) == generated
    assert loaded.validate() is loaded


@pytest.mark.parametrize("cfg", GENERATED, ids=lambda c: f"seed{c.seed}")
def test_loaded_generated_trace_matches_exactly(cfg, tmp_path):
    _assert_equivalent(*_roundtrip(generate_trace(cfg), tmp_path))


def test_loaded_trace_with_every_event_type_matches(tmp_path):
    generated, loaded = _roundtrip(ALL_TYPES, tmp_path)
    _assert_equivalent(generated, loaded)
    assert loaded.compiled().argv[:5] == [
        (), (0, 1, 1.0), (2, 2.0, 1), (1, 0, 3.0), (0, 4.0)
    ]


@settings(
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(trace=traces(max_ops=60))
def test_loaded_hypothesis_trace_matches_exactly(trace, tmp_path):
    _assert_equivalent(*_roundtrip(trace, tmp_path))


def test_column_backed_trace_builds_events_once(tmp_path, monkeypatch):
    _, loaded = _roundtrip(generate_trace(GENERATED[0]), tmp_path)
    calls = []
    real = trace_mod.events_from_columns

    def counting(*columns):
        calls.append(1)
        return real(*columns)

    monkeypatch.setattr(trace_mod, "events_from_columns", counting)
    first = loaded.events
    assert loaded.events is first and list(loaded) == first
    assert len(calls) == 1
    with pytest.raises(AttributeError):
        loaded.no_such_attribute


def _bad_etype(arrays):
    arrays["etype"] = arrays["etype"].copy()
    arrays["etype"][0] = 9


def _short_host(arrays):
    arrays["host"] = arrays["host"][:-1]


@pytest.mark.parametrize("damage", [_bad_etype, _short_host])
def test_undecodable_columns_are_an_integrity_error(tmp_path, damage):
    """Unverified columns are still checked for what the events need:
    known type codes and one length."""
    path = tmp_path / "t.npz"
    save_trace(ALL_TYPES, path)
    with np.load(path) as data:
        arrays = {k: data[k] for k in data.files if k != "digest"}
    damage(arrays)
    np.savez(path, **arrays)
    with pytest.raises(trace_io.TraceIntegrityError):
        load_trace(path, validate=False)


# -- the engines on a real disk hit ----------------------------------------


@pytest.fixture
def disk_hit(tmp_path):
    """A workload whose trace sits in a fresh disk cache only."""
    cfg = GENERATED[0]
    TraceCache(disk_dir=tmp_path).get_or_generate(cfg)
    yield cfg, str(tmp_path)
    cache_mod._shared.pop(str(Path(str(tmp_path)).resolve()), None)


def _forbid_events(monkeypatch):
    def fail(*columns):
        raise AssertionError("a disk hit built its TraceEvent list")

    monkeypatch.setattr(trace_mod, "events_from_columns", fail)


def test_fused_execute_on_disk_hit_never_builds_events(disk_hit, monkeypatch):
    cfg, cache_dir = disk_hit
    _forbid_events(monkeypatch)
    telemetry = TelemetryObserver()
    result = execute(
        RunSpec(
            protocols=PAPER_PROTOCOLS,
            workload=cfg,
            engine="fused",
            factories=loop_factories(PAPER_PROTOCOLS),
            counters_only=True,
            use_cache=True,
            cache_dir=cache_dir,
            observers=(telemetry,),
        )
    )
    assert result.trace_source == "disk"
    assert "events" not in vars(result.trace)
    monkeypatch.undo()
    expected = execute(
        RunSpec(protocols=PAPER_PROTOCOLS, workload=cfg, engine="reference")
    )
    assert [o.protocol.counter_signature() for o in result.outcomes] == [
        o.protocol.counter_signature() for o in expected.outcomes
    ]
    assert telemetry.record.n_events == len(expected.trace)
    assert telemetry.record.n_sends == expected.trace.n_sends


def test_vectorized_run_on_disk_hit_skips_list_lowering(disk_hit, monkeypatch):
    cfg, cache_dir = disk_hit
    _forbid_events(monkeypatch)
    telemetry = TelemetryObserver()
    result = execute(
        RunSpec(
            protocols=PAPER_PROTOCOLS,
            workload=cfg,
            engine="vectorized",
            counters_only=True,
            use_cache=True,
            cache_dir=cache_dir,
            observers=(telemetry,),
        )
    )
    assert result.trace_source == "disk"
    # Telemetry read the send count off the array columns.
    assert not hasattr(result.trace, "_compiled_cache")
    assert telemetry.record.n_sends == array_columns(result.trace).n_sends > 0


@pytest.mark.parametrize("engine", ["fused", "vectorized"])
def test_cold_cell_never_builds_events(engine, tmp_path, monkeypatch):
    """A cache miss generates a column-backed trace: saving it and
    replaying it build no TraceEvent either."""
    _forbid_events(monkeypatch)
    try:
        result = execute(
            RunSpec(
                protocols=PAPER_PROTOCOLS,
                workload=GENERATED[0],
                engine=engine,
                factories=(
                    loop_factories(PAPER_PROTOCOLS)
                    if engine == "fused" else None
                ),
                counters_only=True,
                use_cache=True,
                cache_dir=str(tmp_path),
            )
        )
    finally:
        cache_mod._shared.pop(str(Path(str(tmp_path)).resolve()), None)
    assert result.trace_source == "generated"
    assert "events" not in vars(result.trace)
    assert list(tmp_path.glob("*.npz"))


# -- legacy files are evicted and regenerated ------------------------------

#: The columns format v1 stored (no ``slot``; digest order).
_V1_COLUMNS = ("time", "etype", "host", "msg_id", "peer", "cell")


def _rewrite(path, *, version, digest):
    """Rewrite an npz trace as format *version*, with or without a
    (consistent) digest."""
    with np.load(path) as data:
        arrays = {k: data[k] for k in data.files if k != "digest"}
    header = json.loads(bytes(arrays.pop("header")).decode("utf-8"))
    names = trace_io._COLUMNS
    if version == 1:
        header["format_version"] = 1
        del header["n_sends"], header["n_receives"], arrays["slot"]
        names = _V1_COLUMNS
    header_json = json.dumps(header)
    extra = {}
    if digest:
        value = trace_io._column_digest(header_json, [arrays[n] for n in names])
        extra["digest"] = np.frombuffer(value.encode("ascii"), dtype=np.uint8)
    np.savez_compressed(
        path,
        header=np.frombuffer(header_json.encode("utf-8"), dtype=np.uint8),
        **arrays,
        **extra,
    )


@pytest.mark.parametrize(
    "version,digest", [(1, True), (1, False), (2, False)], ids=str
)
def test_legacy_files_are_evicted_and_regenerated(tmp_path, version, digest):
    cfg = GENERATED[1]
    original = TraceCache(disk_dir=tmp_path).get_or_generate(cfg)
    path = tmp_path / f"{config_key(cfg)}.npz"
    _rewrite(path, version=version, digest=digest)

    with pytest.raises(trace_io.TraceIntegrityError, match="format version"):
        load_trace(path)

    reader = TraceCache(disk_dir=tmp_path)
    regenerated = reader.get_or_generate(cfg)
    stats = reader.stats()
    assert (stats["corrupt_evictions"], stats["misses"]) == (1, 1)
    assert stats["disk_hits"] == 0
    assert regenerated == original

    with np.load(path) as data:  # rewritten at the current format
        header = json.loads(bytes(data["header"]).decode("utf-8"))
        assert header["format_version"] == trace_io.FORMAT_VERSION
        assert "digest" in data.files
    after = TraceCache(disk_dir=tmp_path)
    again = after.get_or_generate(cfg)
    assert after.stats()["disk_hits"] == 1
    assert after.stats()["corrupt_evictions"] == 0
    assert "events" not in vars(again)  # a column-backed hit
    assert again == original
