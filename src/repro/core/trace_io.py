"""Trace serialization: save/load traces for sharing and offline replay.

Format: a single ``.npz`` file holding the event columns as numpy
arrays plus the trace header/metadata as a JSON string.  The members
are stored uncompressed (``np.savez``), each integer column at the
narrowest little-endian signed width that holds its values (``<i1``,
``<i2``, ``<i4``, else ``<i8``; ``time`` stays ``<f8``): about 16
bytes per event on the paper's 10-host grid, so a 20k-event Fig. 1
trace is ~0.3 MB and a save or a verified load takes about a
millisecond -- far less than generating the trace again.  Recorded
workloads can ship with papers or bug reports and be replayed
bit-identically elsewhere.  Files whose integer columns are stored at
``int64`` (every file written before the columns were narrowed), or
deflated (zlib level 1, or numpy's ``savez_compressed``), read the
same way: the loader widens every column to the pinned in-memory
dtypes.

Every file carries a SHA-256 digest over the header and the stored
column bytes, so a truncated or bit-flipped file is detected at load
time (:class:`TraceIntegrityError`) instead of silently replaying
garbage -- the trace cache relies on this to treat corrupt entries as
misses.  The digest covers the column *data*; the ``.npy`` member
headers, which carry the dtypes, are covered by the zip's CRC-32,
which ``np.load`` checks on every read.

A load is column-native: it decodes the stored columns, checks the
digest, validates the columns with numpy (:func:`validate_columns`, the
invariants of :meth:`Trace.validate <repro.core.trace.Trace.validate>`)
and returns a column-backed trace
(:meth:`~repro.core.trace.Trace.from_columns`) without building a
single :class:`~repro.core.trace.TraceEvent`.  The columns are the
trace's array lowering as they are, and :meth:`Trace.compiled` lowers
from them; the event list is built from them only if something reads
``trace.events`` (the reference engine, the consistency oracle,
:meth:`Trace.validate`, ``==``), so a hit costs the ``np.load`` of the
columns plus the digest.

Only the current format is read.  An older file (format v1, which
stored no ``slot`` column, or a file written before the digest
existed) raises :class:`TraceIntegrityError` naming its version; the
trace cache treats it like any corrupt entry and regenerates it.
"""

from __future__ import annotations

import hashlib
import json
import struct
import zipfile
from pathlib import Path
from typing import Union

import numpy as np

from repro.core.compiled import FLOAT_DTYPE, INT_DTYPE, ArrayColumns
from repro.core.trace import EventType, Trace, TraceError, TraceEvent

#: Format version written into every file, and the only one read.  It
#: stores the *compiled* columns (plus the dense message ``slot``
#: column and the send/receive counts in the header) so a load feeds
#: the engines natively -- no list round-trip, no re-matching of sends
#: to receives.  The width an integer column is stored at is not part
#: of the version: any signed width reads back as the same ``int64``.
FORMAT_VERSION = 2

#: Stored column names, in digest order.
_COLUMNS = ("time", "etype", "host", "msg_id", "peer", "cell", "slot")

#: The signed widths an integer column is stored at, narrowest first.
_INT_WIDTHS = tuple(np.dtype(f"<i{n}") for n in (1, 2, 4, 8))


class TraceIntegrityError(ValueError):
    """A stored trace failed its checksum or structural decode.

    Raised by :func:`load_trace` when the file is truncated, bit-flipped
    or otherwise not the bytes :func:`save_trace` wrote.  Subclasses
    ``ValueError`` so pre-existing ``except ValueError`` handlers keep
    working.
    """


def _column_digest(header_json: str, columns) -> str:
    """Hex SHA-256 over the header JSON and the raw column bytes."""
    h = hashlib.sha256()
    h.update(header_json.encode("utf-8"))
    for arr in columns:
        h.update(np.ascontiguousarray(arr).data)
    return h.hexdigest()


def _narrowest(column: np.ndarray) -> np.ndarray:
    """*column* (``int64``) at the narrowest little-endian signed width
    that holds its minimum and maximum (``<i1`` when it is empty)."""
    lo, hi = (int(column.min()), int(column.max())) if column.size else (0, 0)
    for dtype in _INT_WIDTHS[:-1]:
        info = np.iinfo(dtype)
        if info.min <= lo and hi <= info.max:
            return column.astype(dtype)
    return column.astype(_INT_WIDTHS[-1], copy=False)


def save_trace(trace: Trace, path: Union[str, Path]) -> None:
    """Write *trace* to ``path`` (npz; '.npz' appended if missing).

    Columns come from the compiled view -- one lowering shared with
    replay (cached on the trace).  ``time`` is stored as ``<f8``, each
    integer column at the narrowest little-endian signed width that
    holds its range, so the stored bytes are platform-independent and
    the digest over them is stable.
    """
    from repro.core.compiled import array_columns

    cols = array_columns(trace)
    header = {
        "format_version": FORMAT_VERSION,
        "n_hosts": trace.n_hosts,
        "n_mss": trace.n_mss,
        "sim_time": trace.sim_time,
        "n_sends": cols.n_sends,
        "n_receives": cols.n_receives,
        "meta": trace.meta,
    }
    header_json = json.dumps(header)
    columns = {
        name: (
            cols.time.astype("<f8", copy=False)
            if name == "time" else _narrowest(getattr(cols, name))
        )
        for name in _COLUMNS
    }
    digest = _column_digest(header_json, columns.values())
    # Stored members: zlib would cost more than generating the trace.
    np.savez(
        path,
        header=np.frombuffer(header_json.encode("utf-8"), dtype=np.uint8),
        digest=np.frombuffer(digest.encode("ascii"), dtype=np.uint8),
        **columns,
    )


def load_trace(
    path: Union[str, Path], validate: bool = True, verify: bool = False
) -> Trace:
    """Read a trace written by :func:`save_trace`.

    Yields a column-backed trace whose events are built only when
    first read.  Validates the columns structurally
    (:func:`validate_columns`, which builds no events) unless
    ``validate=False``.  ``verify=True`` additionally recomputes the
    stored SHA-256 column digest and raises
    :class:`TraceIntegrityError` on mismatch.  Any file that is not a
    current-format trace -- another format version, no stored digest,
    a truncated zip, garbage bytes, missing arrays -- is reported as a
    :class:`TraceIntegrityError` as well (a ``ValueError``); a
    decodable but structurally invalid trace raises
    :class:`~repro.core.trace.TraceError`.
    """
    path = Path(path)
    if not path.exists() and path.with_suffix(path.suffix + ".npz").exists():
        path = path.with_suffix(path.suffix + ".npz")
    try:
        cols, meta = _load_columns(path, verify=verify)
    except TraceIntegrityError:
        raise
    except (
        OSError,
        ValueError,
        KeyError,
        EOFError,
        zipfile.BadZipFile,
        struct.error,
    ) as exc:
        if isinstance(exc, FileNotFoundError):
            raise
        raise TraceIntegrityError(
            f"cannot decode trace file {path}: {exc!r}"
        ) from exc
    if validate:
        validate_columns(cols)
    # The stored columns *are* the compiled arrays: the trace is backed
    # by them, so the fused and vectorized engines lower from them (or
    # use them as they are) and no TraceEvent is built unless asked for.
    return Trace.from_columns(cols, meta)


def _load_columns(path: Path, verify: bool) -> tuple[ArrayColumns, dict]:
    with np.load(path) as data:
        header_json = bytes(data["header"]).decode("utf-8")
        header = json.loads(header_json)
        version = header.get("format_version")
        if version != FORMAT_VERSION:
            raise TraceIntegrityError(
                f"trace file {path} has unsupported format version "
                f"{version!r} (only version {FORMAT_VERSION} is read)"
            )
        if "digest" not in data.files:
            raise TraceIntegrityError(
                f"trace file {path} is format version {version} without "
                f"a stored digest (written before checksums existed)"
            )
        columns = {name: data[name] for name in _COLUMNS}
        stored = bytes(data["digest"]).decode("ascii")
    if verify:
        computed = _column_digest(header_json, columns.values())
        if stored != computed:
            raise TraceIntegrityError(
                f"trace file {path} failed checksum verification "
                f"(stored {stored!r}, computed {computed[:16]}...)"
            )
    for name in _COLUMNS[1:]:
        if columns[name].dtype.kind != "i":
            raise TraceIntegrityError(
                f"trace file {path} stores its {name} column as "
                f"{columns[name].dtype}, not a signed integer type"
            )
    lengths = {len(columns[name]) for name in _COLUMNS}
    if len(lengths) > 1:
        raise ValueError(f"event columns of unequal lengths {sorted(lengths)}")
    etype = columns["etype"]
    if len(etype) and (
        etype.min() < min(EventType) or etype.max() > max(EventType)
    ):
        raise ValueError("unknown event type code in the etype column")
    cols = ArrayColumns(
        n_hosts=int(header["n_hosts"]),
        n_mss=int(header["n_mss"]),
        sim_time=float(header["sim_time"]),
        n_events=len(etype),
        n_sends=int(header["n_sends"]),
        n_receives=int(header["n_receives"]),
        **{
            name: np.asarray(
                column, dtype=FLOAT_DTYPE if name == "time" else INT_DTYPE
            )
            for name, column in columns.items()
        },
    )
    return cols, dict(header["meta"])


def _repeats(values: np.ndarray) -> np.ndarray:
    """Mask of the entries equal to their predecessor."""
    mask = np.zeros(len(values), dtype=bool)
    mask[1:] = values[1:] == values[:-1]
    return mask


def validate_columns(cols: ArrayColumns) -> None:
    """Check *cols* against the invariants of :meth:`Trace.validate`,
    in numpy passes and without building a :class:`TraceEvent`.

    The loop in :meth:`Trace.validate` stops at its first defect, so
    every state it reads there (messages sent and consumed so far, each
    host's connected flag) is what the columns say before that event.
    Each check below therefore flags every event that breaks it,
    computed from the columns as if no earlier event were bad; the
    earliest flag (ties broken in the loop's check order) is the
    loop's defect and raises the loop's message.  A trace that passes
    must also carry the ``slot`` column and send/receive counts the
    engines read, as :func:`~repro.core.compiled.array_columns` builds
    them.

    Raises
    ------
    TraceError
        On the first defect, as :meth:`Trace.validate` would.
    """
    n = cols.n_events
    time, etype, host = cols.time, cols.etype, cols.host
    msg_id, peer, cell = cols.msg_id, cols.peer, cols.cell
    is_send = etype == EventType.SEND
    is_recv = etype == EventType.RECEIVE
    is_switch = etype == EventType.CELL_SWITCH
    is_down = etype == EventType.DISCONNECT
    is_up = etype == EventType.RECONNECT

    # Each host's connected flag before each event: +1 per disconnect,
    # -1 per reconnect, summed over the host's earlier events (a stable
    # sort by host keeps each host's events in trace order).
    by_host = np.argsort(host, kind="stable")
    step = is_down.astype(np.int64) - is_up
    running = np.cumsum(step[by_host]) - step[by_host]
    sorted_host = host[by_host]
    first = np.flatnonzero(~_repeats(sorted_host))
    running -= np.repeat(running[first], np.diff(first, append=n))
    offline = np.empty(n, dtype=bool)
    offline[by_host] = running != 0

    # Message matching: each id's first send, and repeats in trace order.
    sends = np.flatnonzero(is_send)
    recvs = np.flatnonzero(is_recv)
    sends_by_id = sends[np.argsort(msg_id[sends], kind="stable")]
    repeat_send = _repeats(msg_id[sends_by_id])
    first_send = sends_by_id[~repeat_send]
    first_ids = msg_id[first_send]
    recv_ids = msg_id[recvs]
    # The first send of each receive's id, or n where there is none.
    origin = np.full(len(recvs), n)
    if len(first_ids):
        at = np.minimum(np.searchsorted(first_ids, recv_ids), len(first_ids) - 1)
        origin = np.where(first_ids[at] == recv_ids, first_send[at], n)
    never_sent = origin > recvs
    recv_order = np.argsort(recv_ids, kind="stable")
    repeat_recv = np.empty(len(recvs), dtype=bool)
    repeat_recv[recv_order] = _repeats(recv_ids[recv_order])
    wrong_peer = ~never_sent & (peer[np.minimum(origin, n - 1)] != host[recvs])

    def rows(selected, mask):
        flags = np.zeros(n, dtype=bool)
        flags[selected[mask]] = True
        return flags

    def event(i):
        return TraceEvent(
            float(time[i]), EventType(int(etype[i])), int(host[i]),
            int(msg_id[i]), int(peer[i]), int(cell[i]),
        )

    def origin_peer(i):
        return int(peer[origin[np.searchsorted(recvs, i)]])

    # (flags, message) in the loop's check order for one event.
    checks = (
        (
            np.diff(time, prepend=time[:1]) < 0,
            lambda i: f"events out of order: {event(i)} "
            f"after t={float(time[i - 1])}",
        ),
        (
            (host < 0) | (host >= cols.n_hosts),
            lambda i: f"unknown host in {event(i)}",
        ),
        (
            offline & (is_send | is_recv | is_switch | is_down),
            lambda i: {
                EventType.SEND: "disconnected host sends",
                EventType.RECEIVE: "disconnected host receives",
                EventType.CELL_SWITCH: "disconnected host switches cell",
                EventType.DISCONNECT: "double disconnect",
            }[int(etype[i])] + f": {event(i)}",
        ),
        (
            ~offline & is_up,
            lambda i: f"reconnect while connected: {event(i)}",
        ),
        (
            rows(sends_by_id, repeat_send),
            lambda i: f"duplicate send of msg {int(msg_id[i])}",
        ),
        (
            rows(recvs, never_sent),
            lambda i: f"receive of never-sent msg {int(msg_id[i])}: "
            f"{event(i)}",
        ),
        (
            rows(recvs, repeat_recv),
            lambda i: f"msg {int(msg_id[i])} consumed twice",
        ),
        (
            rows(recvs, wrong_peer),
            lambda i: f"msg {int(msg_id[i])} sent to {origin_peer(i)} "
            f"but received by {int(host[i])}",
        ),
        (
            is_switch & ((cell < 0) | (cell >= cols.n_mss)),
            lambda i: f"switch to unknown cell: {event(i)}",
        ),
    )
    defects = [
        (int(np.argmax(flags)), rank)
        for rank, (flags, _) in enumerate(checks)
        if flags.any()
    ]
    if defects:
        i, rank = min(defects)
        raise TraceError(checks[rank][1](i))

    slot = np.full(n, -1, dtype=np.int64)
    slot[sends] = np.arange(len(sends))
    slot[recvs] = np.searchsorted(sends, origin)
    if (len(sends), len(recvs)) != (cols.n_sends, cols.n_receives):
        raise TraceError(
            f"header counts {cols.n_sends} sends / {cols.n_receives} "
            f"receives, columns hold {len(sends)} / {len(recvs)}"
        )
    if not np.array_equal(slot, cols.slot):
        bad = int(np.argmax(slot != cols.slot))
        raise TraceError(
            f"slot column disagrees with message matching at {event(bad)}: "
            f"stored {int(cols.slot[bad])}, expected {int(slot[bad])}"
        )
