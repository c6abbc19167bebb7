"""Golden generation outcomes: the simulator's output, pinned byte for byte.

A trace is fingerprinted by the SHA-256 of its seven ``array_columns``
arrays (dtype and bytes) plus its send/receive counts.  The pins below
cover the paper model, the workload variants, every builtin workload
model and the protocol-in-the-loop drivers (online, failures,
coordinated).  Any change to the event loop, the inbox, the routing or
the trace lowering that moves an event, a tie order or a random draw
moves a pin; a pure refactor of those layers must leave every one of
them as it is.
"""

import hashlib
import json

import numpy as np
import pytest

from repro.core.compiled import array_columns
from repro.core.failures import run_with_failures
from repro.core.online import CoordinatedScheme, run_coordinated
from repro.protocols import BCSProtocol, QBCProtocol, TwoPhaseProtocol
from repro.workload.config import WorkloadConfig
from repro.workload.driver import generate_trace, run_online
from repro.workload.registry import workload_names

_COLUMNS = ("etype", "time", "host", "msg_id", "peer", "cell", "slot")


def fingerprint(trace) -> str:
    """First 16 hex digits of the digest over the trace's columns."""
    cols = array_columns(trace)
    h = hashlib.sha256()
    for name in _COLUMNS:
        arr = np.ascontiguousarray(getattr(cols, name))
        h.update(f"{name}:{arr.dtype}:".encode())
        h.update(arr.tobytes())
    h.update(f"sends={cols.n_sends};receives={cols.n_receives}".encode())
    return h.hexdigest()[:16]


def _cfg(**kw) -> WorkloadConfig:
    kw.setdefault("sim_time", 400.0)
    return WorkloadConfig(**kw).validate()


#: generate_trace overrides -> (fingerprint, n_events).
GENERATED = {
    "paper-seed0": ({"seed": 0}, ("1d13ee1c48ea027c", 3179)),
    "paper-seed1": ({"seed": 1}, ("8325cb1a9e908213", 3108)),
    "paper-seed2": ({"seed": 2}, ("6402a01afc7999ca", 3236)),
    "tswitch100": ({"t_switch": 100.0, "seed": 3}, ("6ec8d0268da1541f", 3317)),
    "tswitch20-pswitch0.5": (
        {"t_switch": 20.0, "p_switch": 0.5, "seed": 4},
        ("e4d18d4cebbab404", 218),
    ),
    "pswitch0.8-h0.3": (
        {"t_switch": 50.0, "p_switch": 0.8, "heterogeneity": 0.3, "seed": 5},
        ("3b253d036451e9b8", 417),
    ),
    "h0.6-fast5": (
        {"t_switch": 200.0, "heterogeneity": 0.6, "fast_factor": 5.0},
        ("e98e27069c293258", 3243),
    ),
    "blocking-receive": (
        {
            "block_on_empty_receive": True, "p_send": 0.7,
            "t_switch": 30.0, "p_switch": 0.7,
        },
        ("d66a3c14ae97cb1c", 1347),
    ),
    "duplicates": (
        {"duplicate_prob": 0.2, "t_switch": 40.0},
        ("0c88603513032fd5", 3267),
    ),
    "connected-only": (
        {"send_to_connected_only": True, "t_switch": 25.0, "p_switch": 0.6},
        ("0e579ed6d263ba5d", 466),
    ),
    "all-destinations": (
        {"send_to_connected_only": False, "t_switch": 25.0, "p_switch": 0.6},
        ("9d886d281381846c", 449),
    ),
}

#: Builtin workload model -> (params, (fingerprint, n_events)); the
#: ``trace`` model's schedule file is written by the test.
MODELS = {
    "bursty": ({}, ("281fb8a5c8b0b743", 8209)),
    "daynight": ({"period": 50.0}, ("ef755b756c92d660", 2477)),
    "hotspot": ({"n_hot": 2}, ("5a9b1feebaeab402", 1767)),
    "paper": ({}, ("3fc0c764f0b21bdf", 2230)),
    "trace": (None, ("a230cbda97d817c7", 1507)),
    "zipf": ({"alpha": 1.2}, ("2476d63763446571", 1989)),
}


@pytest.mark.parametrize("case", list(GENERATED))
def test_generated_trace_digest(case):
    overrides, pinned = GENERATED[case]
    trace = generate_trace(_cfg(**overrides))
    assert (fingerprint(trace), len(trace)) == pinned


def test_every_builtin_model_is_pinned():
    assert sorted(MODELS) == workload_names()


@pytest.mark.parametrize("name", sorted(MODELS))
def test_workload_model_digest(name, tmp_path):
    params, pinned = MODELS[name]
    if params is None:
        schedule = tmp_path / "schedule.jsonl"
        schedule.write_text(
            "".join(
                json.dumps({"host": h % 10, "delay": 0.5 + (h % 3)}) + "\n"
                for h in range(60)
            ),
            encoding="utf-8",
        )
        params = {"path": str(schedule)}
    cfg = _cfg(
        workload=name, workload_params=params, t_switch=60.0, p_switch=0.8
    )
    trace = generate_trace(cfg)
    assert (fingerprint(trace), len(trace)) == pinned


#: run_online cases -> pinned (fingerprint, n_total, n_basic, n_forced,
#: n_sends, n_receives, gc_bytes_reclaimed, bytes_shipped).
ONLINE = {
    "bcs-latency-gc-incremental": (
        BCSProtocol,
        {"incremental_checkpointing": True, "t_switch": 40.0, "p_switch": 0.8},
        {"ckpt_latency": 0.3, "gc_interval": 50.0},
        ("399a7056ef59cae9", 176, 62, 114, 924, 917, 2871296, 16805888),
    ),
    "qbc-latency-bandwidth": (
        QBCProtocol,
        {"wireless_bandwidth": 2e6, "t_switch": 40.0, "p_switch": 0.8},
        {"ckpt_latency": 0.5},
        ("1ba0b27eb03b0c72", 165, 62, 103, 902, 894, 0, 45875200),
    ),
    "tp-blocking": (
        TwoPhaseProtocol,
        {"block_on_empty_receive": True, "p_send": 0.7, "t_switch": 40.0},
        {"ckpt_latency": 0.1},
        ("9e2138192c14595b", 901, 94, 807, 2694, 1150, 0, 238813184),
    ),
}


@pytest.mark.parametrize("case", list(ONLINE))
def test_run_online_outcome(case):
    cls, overrides, kwargs, pinned = ONLINE[case]
    cfg = _cfg(**overrides)
    result = run_online(cfg, cls(cfg.n_hosts, cfg.n_mss), **kwargs)
    stats = result.metrics.stats
    got = (
        fingerprint(result.trace),
        stats.n_total,
        stats.n_basic,
        stats.n_forced,
        result.metrics.n_sends,
        result.metrics.n_receives,
        result.gc_bytes_reclaimed,
        result.bytes_shipped,
    )
    assert got == pinned


#: run_with_failures cases -> pinned (n_failures, stale drops, n_sends,
#: n_receives, total lost work, total downtime, checkpoints taken).
FAILURES = {
    "qbc": (
        QBCProtocol,
        {},
        (9, 141, 5108, 4942, 27252.97908179896, 0.6299999999999999, 335),
    ),
    "bcs-blocking": (
        BCSProtocol,
        {"block_on_empty_receive": True, "p_send": 0.7},
        (9, 4263, 8936, 3857, 27102.257290285404, 0.6299999999999999, 162),
    ),
}


@pytest.mark.parametrize("case", list(FAILURES))
def test_run_with_failures_outcome(case):
    cls, overrides, pinned = FAILURES[case]
    cfg = _cfg(
        sim_time=1500.0, seed=6, t_switch=200.0, p_switch=0.9, **overrides
    )
    result = run_with_failures(cfg, cls(cfg.n_hosts, cfg.n_mss), 150.0)
    got = (
        result.n_failures,
        result.stale_messages_dropped,
        result.n_sends,
        result.n_receives,
        result.total_lost_work,
        result.total_recovery_downtime,
        result.protocol.n_total,
    )
    assert got == pinned


#: Coordinated scheme -> pinned (n_total, n_basic, n_snapshot, rounds,
#: control messages, location lookups, blocked time, n_sends).
COORDINATED = {
    CoordinatedScheme.CHANDY_LAMPORT: (76, 50, 26, 10, 23, 23, 0.0, 944),
    CoordinatedScheme.KOO_TOUEG: (
        75, 50, 25, 10, 66, 22, 0.8000000000000002, 944
    ),
    CoordinatedScheme.PRAKASH_SINGHAL: (76, 50, 26, 10, 46, 23, 0.0, 944),
    CoordinatedScheme.TULI_KUMAR: (75, 50, 25, 10, 44, 22, 0.0, 944),
}


def test_every_coordinated_scheme_is_pinned():
    assert set(COORDINATED) == set(CoordinatedScheme)


@pytest.mark.parametrize("scheme", list(COORDINATED), ids=lambda s: s.value)
def test_run_coordinated_outcome(scheme):
    cfg = _cfg(t_switch=60.0, p_switch=0.8, seed=7)
    result = run_coordinated(cfg, scheme, snapshot_interval=40.0)
    got = (
        result.n_total,
        result.n_basic,
        result.n_snapshot,
        result.rounds,
        result.control_messages,
        result.location_lookups,
        result.blocked_time,
        result.n_sends,
    )
    assert got == COORDINATED[scheme]
