"""Trace serialization: save/load traces for sharing and offline replay.

Format: a single ``.npz`` file holding the event columns as compact
numpy arrays plus the trace header/metadata as a JSON string.  A
50k-time-unit trace (~300k events) round-trips in well under a second
and compresses to a few hundred KiB, so recorded workloads can ship
with papers or bug reports and be replayed bit-identically elsewhere.

Every file carries a SHA-256 digest over the event columns and header,
so a truncated or bit-flipped file is detected at load time
(:class:`TraceIntegrityError`) instead of silently replaying garbage --
the trace cache relies on this to treat corrupt entries as misses.

A load is column-native: it decodes the stored columns, checks the
digest and returns a column-backed trace
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
import os
import struct
import zipfile
from pathlib import Path
from typing import Union

import numpy as np

from repro.core.compiled import FLOAT_DTYPE, INT_DTYPE, ArrayColumns
from repro.core.trace import EventType, Trace

#: Format version written into every file, and the only one read.  It
#: stores the *compiled* columns (pinned ``int64``/``float64`` dtypes,
#: plus the dense message ``slot`` column and the send/receive counts
#: in the header) so a load feeds the engines natively -- no list
#: round-trip, no re-matching of sends to receives.
FORMAT_VERSION = 2

#: Stored column names, in digest order.
_COLUMNS = ("time", "etype", "host", "msg_id", "peer", "cell", "slot")


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


def save_trace(trace: Trace, path: Union[str, Path]) -> None:
    """Write *trace* to ``path`` (npz; '.npz' appended if missing).

    Columns come from the compiled view -- one lowering shared with
    replay (cached on the trace), dtypes pinned to ``int64`` /
    ``float64`` so the stored bytes are platform-independent and the
    digest is stable.
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
    columns = {name: getattr(cols, name) for name in _COLUMNS}
    digest = _column_digest(header_json, columns.values())
    _write_npz(
        path,
        header=np.frombuffer(header_json.encode("utf-8"), dtype=np.uint8),
        digest=np.frombuffer(digest.encode("ascii"), dtype=np.uint8),
        **columns,
    )


def _write_npz(path: Union[str, Path], **arrays: np.ndarray) -> None:
    """``np.savez_compressed`` at zlib level 1.

    The same members in the same order (``<name>.npy``, deflated,
    zip64), so ``np.load`` reads the file as it reads any npz; level 1
    writes a cache entry about 3x faster than numpy's default level 6
    for about 10% more bytes.
    """
    path = os.fspath(path)
    if not path.endswith(".npz"):
        path += ".npz"
    with zipfile.ZipFile(
        path, mode="w", compression=zipfile.ZIP_DEFLATED,
        compresslevel=1, allowZip64=True,
    ) as zipf:
        for name, arr in arrays.items():
            with zipf.open(name + ".npy", "w", force_zip64=True) as fid:
                np.lib.format.write_array(fid, arr, allow_pickle=False)


def load_trace(
    path: Union[str, Path], validate: bool = True, verify: bool = False
) -> Trace:
    """Read a trace written by :func:`save_trace`.

    Yields a column-backed trace whose events are built only when
    first read.  Validates the trace structurally unless
    ``validate=False`` (validation builds the events).  ``verify=True``
    additionally recomputes the stored SHA-256 column digest and raises
    :class:`TraceIntegrityError` on mismatch.  Any file that is not a
    current-format trace -- another format version, no stored digest,
    a truncated zip, garbage bytes, missing arrays -- is reported as a
    :class:`TraceIntegrityError` as well (a ``ValueError``).
    """
    path = Path(path)
    if not path.exists() and path.with_suffix(path.suffix + ".npz").exists():
        path = path.with_suffix(path.suffix + ".npz")
    try:
        trace = _load_trace_inner(path, verify=verify)
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
    return trace.validate() if validate else trace


def _load_trace_inner(path: Path, verify: bool) -> Trace:
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
    lengths = {len(columns[name]) for name in _COLUMNS}
    if len(lengths) > 1:
        raise ValueError(f"event columns of unequal lengths {sorted(lengths)}")
    etype = columns["etype"]
    if len(etype) and (
        etype.min() < min(EventType) or etype.max() > max(EventType)
    ):
        raise ValueError("unknown event type code in the etype column")
    # The stored columns *are* the compiled arrays: the trace is backed
    # by them, so the fused and vectorized engines lower from them (or
    # use them as they are) and no TraceEvent is built unless asked for.
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
    return Trace.from_columns(cols, dict(header["meta"]))
