"""Property fuzz of the sweep journal's torn-line tolerance.

A crash can truncate the journal at *any byte* -- including in the
middle of a multi-byte UTF-8 sequence -- and resume must still load
exactly the set of cells whose lines survived intact: never raise out
of the read loop, never drop a completed cell whose line is whole,
never conjure a duplicate.  This pins the ``errors="replace"`` +
per-line-skip contract of :meth:`SweepJournal.load` under arbitrary
byte truncation.
"""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.experiments import SweepConfig, run_sweep
from repro.experiments.resilience import SweepJournal, sweep_config_hash
from repro.workload import WorkloadConfig

pytestmark = pytest.mark.timeout(300)


def _config(journal_path=None):
    return SweepConfig(
        base=WorkloadConfig(p_switch=0.8, sim_time=200.0),
        t_switch_values=(100.0, 800.0),
        seeds=(0, 1),
        journal_path=journal_path,
    )


_CACHE: dict[str, object] = {}


def _journal_bytes(tmp_path_factory) -> tuple[bytes, str, int]:
    """One real journal (built once), salted with multi-byte UTF-8:
    a foreign unicode note line between entries, and a final task line
    re-encoded with raw (non-escaped) unicode riding an ignored key.
    Returns (bytes, config_hash, end-of-header offset)."""
    if "data" not in _CACHE:
        path = str(tmp_path_factory.mktemp("journal") / "sweep.jsonl")
        cfg = _config(journal_path=path)
        run_sweep(cfg)
        with open(path, encoding="utf-8") as fh:
            lines = fh.readlines()
        # Foreign line with multi-byte characters: loaders skip unknown
        # kinds, and truncating inside "π≈λ…" tears a UTF-8 sequence.
        note = (
            json.dumps(
                {"kind": "note", "msg": "π ≈ 3.14159… λ→∞ 🚀"},
                ensure_ascii=False,
            )
            + "\n"
        )
        last = json.loads(lines[-1])
        last["comment"] = "schließende Zeile — última célula ✓"
        lines = (
            lines[:2]
            + [note]
            + lines[2:-1]
            + [json.dumps(last, sort_keys=True, ensure_ascii=False) + "\n"]
        )
        data = "".join(lines).encode("utf-8")
        _CACHE["data"] = data
        _CACHE["hash"] = sweep_config_hash(cfg)
        _CACHE["header_end"] = len(lines[0].encode("utf-8"))
        # Per complete line: (end byte offset, cell key or None).
        offsets, pos = [], 0
        for line in lines:
            raw = line.encode("utf-8")
            pos += len(raw)
            try:
                obj = json.loads(line)
                key = (
                    (float(obj["t_switch"]), int(obj["seed"]))
                    if obj.get("kind") == "task"
                    else None
                )
            except (ValueError, KeyError):
                key = None
            offsets.append((pos, key))
        _CACHE["offsets"] = offsets
    return _CACHE["data"], _CACHE["hash"], _CACHE["header_end"]


@settings(max_examples=120, deadline=None)
@given(cut=st.integers(min_value=0, max_value=10_000), data=st.data())
def test_any_byte_truncation_loads_exactly_the_intact_cells(
    cut, data, tmp_path_factory
):
    blob, config_hash, header_end = _journal_bytes(tmp_path_factory)
    # Map the drawn cut into [header_end, len(blob)]: header integrity
    # is a separate (non-truncation) contract tested elsewhere.
    cut = header_end + cut % (len(blob) - header_end + 1)
    # A line is intact once its JSON is: a final line that lost only
    # its newline loads (SweepJournal.open terminates it before the
    # next append), so the line's last byte before "\n" is its end.
    expected = {
        key
        for end, key in _CACHE["offsets"]
        if key is not None and end - 1 <= cut
    }
    path = str(tmp_path_factory.mktemp("cut") / "sweep.jsonl")
    with open(path, "wb") as fh:
        fh.write(blob[:cut])
    entries = SweepJournal.load(path, config_hash)
    # Exactly the intact cells: none dropped, none duplicated, and a
    # torn trailing line (possibly mid multi-byte sequence) never
    # raises.
    assert set(entries) == expected


def test_truncated_journal_resumes_without_duplicates(tmp_path):
    """End-to-end exactly-once: resume over a journal torn mid-entry
    re-executes only the torn/missing cells and heals the ledger to one
    entry per cell."""
    path = str(tmp_path / "sweep.jsonl")
    cfg = _config(journal_path=path)
    run_sweep(cfg)
    with open(path, "rb") as fh:
        blob = fh.read()
    # Tear the last entry in the middle of its bytes.
    lines = blob.splitlines(keepends=True)
    torn = b"".join(lines[:-1]) + lines[-1][: len(lines[-1]) // 2]
    with open(path, "wb") as fh:
        fh.write(torn)
    resume_cfg = _config(journal_path=path)
    resume_cfg.resume_from = path
    resumed = run_sweep(resume_cfg)
    assert resumed.complete
    assert resumed.resumed_tasks == 3  # intact cells served from disk
    entries = SweepJournal.load(path, sweep_config_hash(cfg))
    cells = sorted(entries)
    assert cells == sorted(
        (t, s) for t in (100.0, 800.0) for s in (0, 1)
    )
