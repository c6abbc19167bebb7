"""Tests for the command-line interface (repro.cli)."""

import pytest

from repro.cli import main


def test_compare_runs(capsys):
    rc = main(
        [
            "compare",
            "--sim-time",
            "400",
            "--protocols",
            "TP",
            "BCS",
            "QBC",
        ]
    )
    assert rc == 0
    out = capsys.readouterr().out
    assert "TP" in out and "BCS" in out and "QBC" in out
    assert "N_tot" in out


def test_compare_unknown_protocol(capsys):
    rc = main(["compare", "--sim-time", "200", "--protocols", "NOPE"])
    assert rc == 2
    assert "unknown protocol" in capsys.readouterr().err


def test_trace_and_replay_roundtrip(tmp_path, capsys):
    path = str(tmp_path / "t.npz")
    rc = main(["trace", "--sim-time", "400", "--seed", "3", "--out", path])
    assert rc == 0
    rc = main(["replay", "--trace", path, "--protocols", "BCS", "QBC"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "BCS" in out and "QBC" in out


def test_replay_unknown_protocol(tmp_path, capsys):
    path = str(tmp_path / "t.npz")
    main(["trace", "--sim-time", "200", "--out", path])
    rc = main(["replay", "--trace", path, "--protocols", "XX"])
    assert rc == 2
    assert "unknown protocol" in capsys.readouterr().err


def test_replay_unreadable_trace_file_exits_2(tmp_path, capsys):
    import json

    import numpy as np

    path = str(tmp_path / "t.npz")
    main(["trace", "--sim-time", "200", "--out", path])
    with np.load(path) as data:
        arrays = {k: data[k] for k in data.files}
    header = json.loads(bytes(arrays["header"]).decode())
    header["format_version"] = 1  # an older format, no longer read
    arrays["header"] = np.frombuffer(json.dumps(header).encode(), np.uint8)
    np.savez(path, **arrays)
    rc = main(["replay", "--trace", path, "--protocols", "BCS"])
    assert rc == 2
    assert "format version 1" in capsys.readouterr().err


def test_replay_structurally_invalid_trace_exits_2(tmp_path, capsys):
    """A file that decodes and verifies but holds a receive with no
    matching send ends in a one-line message, not a traceback."""
    import numpy as np

    from repro.core.compiled import ArrayColumns
    from repro.core.trace import EventType, Trace
    from repro.core.trace_io import save_trace

    def col(*values, dtype="int64"):
        return np.array(values, dtype=dtype)

    cols = ArrayColumns(
        n_hosts=2,
        n_mss=2,
        sim_time=10.0,
        n_events=1,
        n_sends=0,
        n_receives=1,
        etype=col(int(EventType.RECEIVE)),
        time=col(1.0, dtype="float64"),
        host=col(1),
        msg_id=col(4),
        peer=col(0),
        cell=col(-1),
        slot=col(-1),
    )
    path = tmp_path / "bad.npz"
    save_trace(Trace.from_columns(cols, {}), path)
    rc = main(["replay", "--trace", str(path), "--protocols", "BCS"])
    assert rc == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("receive of never-sent msg 4")
    assert captured.err.count("\n") == 1
    assert captured.out == ""


def test_recovery_unknown_protocol_exits_2(capsys):
    rc = main(["recovery", "--sim-time", "200", "--protocol", "NOPE"])
    assert rc == 2
    assert "unknown protocol" in capsys.readouterr().err


def test_failures_unknown_protocol_exits_2(capsys):
    rc = main(["failures", "--sim-time", "200", "--protocol", "NOPE"])
    assert rc == 2
    assert "unknown protocol" in capsys.readouterr().err


def test_coordinated_protocol_on_replay_subcommands_exits_2(capsys):
    # The coordinated baselines resolve (they are registered) but lack
    # the replayable capability; every replay-backed subcommand reports
    # the same typed CapabilityError as a usage error.
    for argv in (
        ["compare", "--sim-time", "200", "--protocols", "CL"],
        ["recovery", "--sim-time", "200", "--protocol", "KT"],
        ["failures", "--sim-time", "200", "--protocol", "PS"],
    ):
        rc = main(argv)
        assert rc == 2, argv
        err = capsys.readouterr().err
        assert "does not support 'replayable'" in err, argv


def test_recovery_protocol_line(capsys):
    rc = main(
        ["recovery", "--sim-time", "400", "--protocol", "QBC", "--failed-host", "2"]
    )
    assert rc == 0
    out = capsys.readouterr().out
    assert "undone events total" in out
    assert "protocol recovery line" in out


def test_recovery_uncoordinated_falls_back_to_search(capsys):
    rc = main(
        ["recovery", "--sim-time", "400", "--protocol", "UNC", "--failed-host", "0"]
    )
    assert rc == 0
    assert "rollback-propagation search" in capsys.readouterr().out


def test_figure_subcommand_validates(capsys):
    rc = main(
        [
            "figure",
            "1",
            "--sim-time",
            "800",
            "--seeds",
            "0",
            "--sweep",
            "100",
            "1000",
        ]
    )
    assert rc == 0
    out = capsys.readouterr().out
    assert "Figure 1" in out
    assert "[PASS]" in out


def test_failures_subcommand(capsys):
    rc = main(
        [
            "failures",
            "--sim-time",
            "800",
            "--protocol",
            "BCS",
            "--mean-interval",
            "200",
        ]
    )
    assert rc == 0
    out = capsys.readouterr().out
    assert "failures" in out and "availability" in out


def test_figure_requires_valid_number():
    with pytest.raises(SystemExit):
        main(["figure", "9"])


def test_missing_subcommand_errors():
    with pytest.raises(SystemExit):
        main([])


# ----------------------------------------------------------------------
# standardized exit codes: 0 ok, 1 failure, 2 usage, 130 interrupted
# ----------------------------------------------------------------------
def _fail_one_cell(monkeypatch, t_switch, seed):
    """Patch the task body so exactly one (point, seed) cell errors."""
    from repro.experiments import runner as runner_mod

    real = runner_mod._evaluate_task

    def sabotaged(*args):
        if (args[1], args[2]) == (t_switch, seed):
            raise RuntimeError("injected task failure")
        return real(*args)

    monkeypatch.setattr(runner_mod, "_evaluate_task", sabotaged)


def test_figure_exit_code_1_on_quarantined_hole(monkeypatch, capsys):
    _fail_one_cell(monkeypatch, 500.0, 1)
    rc = main(
        [
            "figure", "1",
            "--sim-time", "400",
            "--seeds", "0", "1",
            "--sweep", "100", "500",
            "--retries", "0",
        ]
    )
    assert rc == 1
    out = capsys.readouterr().out
    assert "quarantined" in out
    assert "protocol-error" in out


def test_figure_exit_code_130_on_interrupt(monkeypatch, capsys):
    import repro.cli as cli

    def interrupted(args):
        raise KeyboardInterrupt

    monkeypatch.setattr(cli, "_cmd_figure", interrupted)
    rc = main(["figure", "1"])
    assert rc == 130
    assert "interrupted" in capsys.readouterr().err


def test_figure_usage_errors_exit_2():
    with pytest.raises(SystemExit) as exc:
        main(["figure", "9"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2


def test_figure_journal_and_resume_roundtrip(tmp_path, capsys):
    journal = str(tmp_path / "sweep.jsonl")
    args = [
        "figure", "1",
        "--sim-time", "400",
        "--seeds", "0",
        "--sweep", "100", "1000",
    ]
    assert main(args + ["--journal", journal]) == 0
    # Resume against the complete journal: nothing re-executes, the
    # figure is rebuilt from the ledger, and the exit code stays 0.
    assert main(args + ["--resume", journal]) == 0
    out = capsys.readouterr().out
    assert "Figure 1" in out and "[PASS]" in out


def test_audit_exit_code_0_when_clean(capsys):
    rc = main(
        [
            "audit",
            "--sim-time", "400",
            "--seeds", "0",
            "--sweep", "100", "1000",
            "--protocols", "BCS",
        ]
    )
    assert rc == 0
    assert "audit" in capsys.readouterr().out.lower()


def test_audit_exit_code_1_on_quarantined_hole(monkeypatch, capsys):
    _fail_one_cell(monkeypatch, 1000.0, 0)
    rc = main(
        [
            "audit",
            "--sim-time", "400",
            "--seeds", "0",
            "--sweep", "100", "1000",
            "--protocols", "BCS",
        ]
    )
    assert rc == 1


def test_audit_unknown_protocol_exits_2(capsys):
    rc = main(["audit", "--protocols", "NOPE", "--sim-time", "200"])
    assert rc == 2
    assert "unknown protocols" in capsys.readouterr().err


def test_figure_observability_artifacts(tmp_path, capsys):
    trace = tmp_path / "trace.json"
    metrics = tmp_path / "metrics.prom"
    stream = tmp_path / "stream.jsonl"
    heartbeat = tmp_path / "hb.jsonl"
    rc = main([
        "figure", "1", "--sim-time", "300", "--seeds", "0",
        "--sweep", "100", "800", "--no-cache", "--progress",
        "--trace", str(trace), "--metrics", str(metrics),
        "--stream", str(stream), "--heartbeat", str(heartbeat),
    ])
    captured = capsys.readouterr()
    assert rc == 0
    assert "tasks/s" in captured.err  # live progress line on stderr
    for label, path in (
        ("trace-event JSON", trace), ("metrics", metrics),
        ("outcome stream", stream), ("heartbeats", heartbeat),
    ):
        assert f"{label} written to {path}" in captured.out
        assert path.exists()
    import json

    payload = json.loads(trace.read_text())
    assert payload["traceEvents"]  # Perfetto-loadable trace
    assert "# TYPE repro_engine_runs_total counter" in metrics.read_text()
    outcomes = [json.loads(l) for l in stream.read_text().splitlines()]
    assert any(l.get("kind") == "outcome" for l in outcomes)


def test_figure_no_progress_flag_silences_stderr(capsys, monkeypatch):
    monkeypatch.setenv("REPRO_PROGRESS", "1")
    rc = main([
        "figure", "1", "--sim-time", "300", "--seeds", "0",
        "--sweep", "100", "800", "--no-cache", "--no-progress",
    ])
    assert rc == 0
    assert "tasks/s" not in capsys.readouterr().err


def test_tail_once_summarizes_stream(tmp_path, capsys):
    path = tmp_path / "tel.jsonl"
    path.write_text(
        '{"kind": "heartbeat", "done": 1, "total": 2, '
        '"rate_per_s": 0.5, "eta_s": 2.0}\n'
        '{"kind": "outcome", "protocol": "TP", "n_total": 5}\n'
        '{"torn line\n'
    )
    rc = main(["tail", str(path), "--once"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "1 outcome(s), 1 heartbeat(s)" in out
    assert "last heartbeat: 1/2 tasks" in out


def test_tail_once_missing_file_exits_2(tmp_path, capsys):
    rc = main(["tail", str(tmp_path / "absent.jsonl"), "--once"])
    assert rc == 2
    assert "no such file" in capsys.readouterr().err


def test_protocols_lists_every_registered_protocol(capsys):
    rc = main(["protocols"])
    assert rc == 0
    out = capsys.readouterr().out
    from repro.engine import known_names

    for name in known_names():
        assert name in out
    assert "builtin" in out
    assert "coordinated" in out and "vectorizable" in out


def test_protocols_json_output(capsys):
    import json

    rc = main(["protocols", "--json"])
    assert rc == 0
    payload = json.loads(capsys.readouterr().out)
    names = {p["name"] for p in payload["protocols"]}
    assert {"BCS", "FDAS", "TK"} <= names
    assert payload["plugin_errors"] == []
    (bcs,) = [p for p in payload["protocols"] if p["name"] == "BCS"]
    assert bcs["origin"] == "builtin"
    assert "replayable" in bcs["capabilities"]


def test_unknown_protocol_suggests_correction(capsys):
    rc = main(["compare", "--sim-time", "200", "--protocols", "BSC"])
    assert rc == 2
    err = capsys.readouterr().err
    assert "did you mean" in err and "'BCS'" in err


# ----------------------------------------------------------------------
# conformance
# ----------------------------------------------------------------------
def test_conformance_passing_protocol_exits_0(capsys):
    rc = main(["conformance", "TP"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "conformance TP:" in out
    assert "passed" in out
    assert "0 failure(s)" in out


def test_conformance_json_output(capsys):
    import json

    rc = main(["conformance", "TP", "--json"])
    assert rc == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["ok"] is True
    (report,) = payload["reports"]
    assert report["protocol"] == "TP"
    assert {r["status"] for r in report["results"]} <= {
        "passed",
        "skipped",
        "failed",
    }


def test_conformance_unknown_protocol_suggests_and_exits_2(capsys):
    rc = main(["conformance", "TQ"])
    assert rc == 2
    err = capsys.readouterr().err
    assert "unknown protocol 'TQ'" in err
    assert "did you mean" in err and "TP" in err
    assert "known protocols:" in err


# ----------------------------------------------------------------------
# sharded dispatch
# ----------------------------------------------------------------------
def test_shard_worker_requires_authkey(capsys, monkeypatch):
    from repro.experiments.sharded import AUTHKEY_ENV

    monkeypatch.delenv(AUTHKEY_ENV, raising=False)
    rc = main(["shard-worker", "--connect", "127.0.0.1:9000"])
    assert rc == 2
    assert AUTHKEY_ENV in capsys.readouterr().err


def test_shard_worker_bad_address_exits_2(capsys, monkeypatch):
    from repro.experiments.sharded import AUTHKEY_ENV

    monkeypatch.setenv(AUTHKEY_ENV, "00" * 16)
    rc = main(["shard-worker", "--connect", "not-an-address"])
    assert rc == 2
    assert "host:port" in capsys.readouterr().err


def test_shard_worker_unreachable_coordinator_exits_1(capsys, monkeypatch):
    from repro.experiments.sharded import AUTHKEY_ENV

    monkeypatch.setenv(AUTHKEY_ENV, "00" * 16)
    rc = main(
        ["shard-worker", "--connect", "127.0.0.1:1", "--connect-timeout",
         "0.2"]
    )
    assert rc == 1
    assert "could not reach coordinator" in capsys.readouterr().err


def test_figure_workers_flag_runs_sharded_sweep(capsys):
    rc = main(
        [
            "figure", "2",
            "--sim-time", "300",
            "--seeds", "0", "1",
            "--sweep", "100", "800",
            "--workers", "2",
            "--no-progress",
        ]
    )
    assert rc == 0
    out = capsys.readouterr().out
    assert "PASS" in out


def test_dash_once_renders_frame(tmp_path, capsys):
    path = tmp_path / "stream.jsonl"
    path.write_text(
        '{"kind": "heartbeat", "done": 1, "total": 4, "rate_per_s": 2.0}\n'
        '{"kind": "outcome", "protocol": "TP", "n_forced": 3, '
        '"n_total": 10}\n'
    )
    rc = main(["dash", str(path), "--once"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "repro sweep dashboard" in out
    assert "1/4 cells" in out
    assert "forced-checkpoint rate" in out


def test_dash_once_missing_file_exits_2(tmp_path, capsys):
    rc = main(["dash", str(tmp_path / "absent.jsonl"), "--once"])
    assert rc == 2
    assert "no such file" in capsys.readouterr().err


def test_figure_fleet_flags_write_exporter_artifacts(tmp_path, capsys):
    import json

    prom = tmp_path / "fleet.prom"
    otlp = tmp_path / "fleet-otlp.json"
    rc = main([
        "figure", "1", "--sim-time", "300", "--seeds", "0",
        "--sweep", "100", "800", "--no-cache", "--no-progress",
        "--workers", "2",
        "--prom", str(prom), "--otlp", str(otlp),
        "--run-id", "cli-fleet",
    ])
    assert rc == 0
    out = capsys.readouterr().out
    assert "fleet metrics (prometheus)" in out
    assert "fleet OTLP-JSON" in out
    text = prom.read_text()
    assert 'run_id="cli-fleet"' in text
    payload = json.loads(otlp.read_text())
    assert "resourceMetrics" in payload
