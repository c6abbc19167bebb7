"""Sharded sweep service: the parallel sweep dispatcher.

Every parallel sweep (``SweepConfig.workers >= 1``, or ``shard_listen``
for external workers) runs here; the serial in-process loop lives in
:mod:`repro.experiments.resilience`.  A **coordinator** partitions the
(point, seed) grid into *shards* (small batches of cells), leases them
to **worker processes** over :mod:`multiprocessing.connection` and
streams per-cell outcomes back as they complete.  The paper's own
subject matter -- coordinator failure, lost participants, log-based
exactly-once recovery -- is the design brief for the service itself:

* **Length-prefixed, version-tagged frames.**  Every message crosses
  the (authenticated) connection as one frame: an 8-byte header
  (protocol version + payload length) followed by a pickled dict.  A
  version skew or torn frame raises a typed
  :class:`ShardProtocolError` instead of mis-running a sweep.
* **Shard leases with heartbeat liveness.**  A worker holds at most
  one lease; a background pump sends heartbeat frames every
  ``shard_heartbeat_s``.  A leased worker silent past
  ``shard_lease_timeout_s`` has its lease *revoked*: its incomplete
  cells re-enter the dispatch queue with exponential backoff, charged
  as ``worker-lost`` retries under the existing
  :class:`~repro.experiments.resilience.TaskError` taxonomy (and
  quarantined as explicit holes when the budget runs out).  Late
  results from a revoked lease are *fenced*: accepted only if the cell
  is still incomplete, dropped as duplicates otherwise -- the journal
  never records a cell twice.
* **Hung-cell watchdog.**  The worker-side alarm cannot fire inside C
  code or outside the task body, and a hung worker's heartbeat pump
  keeps it looking alive.  So when ``task_timeout_s`` is set, a leased
  cell that reports no result within ``1.5 * task_timeout_s`` plus a
  grace period -- timed from its grant or from that worker's previous
  cell result -- gets its worker stopped: a local worker is
  terminated, an external one has its lease revoked and its
  connection closed.  The hung cell is retried as a ``timeout``; the
  lease's cells that never started go back to the queue uncharged.
* **Exactly-once resume.**  Workers only report; the coordinator is
  the single journal writer (the fsynced
  :class:`~repro.experiments.resilience.SweepJournal`, guarded by an
  advisory lock so two coordinators cannot share a ledger).  A crashed
  sharded sweep resumes exactly like a serial one.
* **Graceful degradation.**  Locally spawned workers that die are
  respawned (bounded budget); when a shard dies permanently the sweep
  continues on the survivors; when *no* worker can ever come back the
  remaining cells become quarantined ``worker-lost`` holes instead of
  a hang.  SIGINT/SIGTERM drain in-flight cells and leave the rest as
  resumable holes.
* **Chaos hooks.**  ``REPRO_CHAOS_DIR`` flag files inject every fault
  the chaos tests need on a per-cell basis; see :func:`_worker_chaos`.
  The chaos tests assert the final sweep is value-identical to a clean
  serial run.

Per-shard operational counters land in the process-local metrics
registry (:mod:`repro.obs.metrics`): ``repro_shard_leases_granted_total``,
``repro_shard_leases_revoked_total{reason=...}``,
``repro_shard_cells_reassigned_total``, ``repro_shard_heartbeats_total``,
``repro_shard_reconnects_total``, ``repro_shard_worker_respawns_total``,
``repro_shard_stale_results_total``,
``repro_shard_duplicates_dropped_total``,
``repro_sweep_watchdog_kills_total`` and the
``repro_shard_workers_alive`` gauge.

Entry points: :func:`run_sharded` (called by the resilience supervisor
when ``SweepConfig.workers`` / ``shard_listen`` is set) and
:func:`worker_main` (the ``repro shard-worker`` subcommand, for
workers joining from other processes or machines).
"""

from __future__ import annotations

import heapq
import os
import pickle
import signal
import struct
import threading
import time
from collections import deque
from dataclasses import dataclass, field
from multiprocessing import get_context
from multiprocessing.connection import Client, Connection, Listener, wait
from typing import Any, Optional

from repro.experiments.resilience import (
    CHAOS_DIR_ENV,
    TaskError,
    _backoff,
    _complete,
    _consume_flag,
    _classify,
    _deadline,
)

__all__ = [
    "PROTOCOL_VERSION",
    "AUTHKEY_ENV",
    "FrameError",
    "ShardProtocolError",
    "VersionMismatch",
    "parse_address",
    "recv_frame",
    "send_frame",
    "run_sharded",
    "worker_main",
]

#: Wire protocol version; bumped on any frame-shape change.  Both ends
#: tag every frame with it and refuse mismatches.
#: v2: register/heartbeat frames carry a ``mono`` clock sample and the
#: fleet observability plane adds the ``obs-delta`` frame kind
#: (worker metric deltas; see :mod:`repro.obs.fleet`).
#: v3: the hello frame's task settings lose ``stream_path``.
PROTOCOL_VERSION = 3

#: Hex-encoded connection authkey for *external* workers
#: (``repro shard-worker``); locally spawned workers inherit a random
#: key directly.  Must match on both ends.
AUTHKEY_ENV = "REPRO_SHARD_AUTHKEY"

#: Frame header: (protocol version, payload byte length), network order.
_HEADER = struct.Struct("!II")

#: Coordinator poll tick, seconds.
_TICK_S = 0.05

#: How long a freshly accepted connection may take to send its
#: ``register`` frame before the coordinator drops it.
_REGISTER_GRACE_S = 10.0

#: Respawn budget per locally spawned worker slot.
_RESPAWNS_PER_SLOT = 2

#: Extra slack the hung-cell watchdog grants beyond ``1.5 *
#: task_timeout_s`` before it stops a worker (the worker-side alarm
#: should have fired long before this).
_WATCHDOG_GRACE_S = 5.0

#: Bounded wait for the workers' final obs-delta flush at shutdown.
#: Healthy workers answer in milliseconds; this only bites when one
#: is wedged, and even then it delays teardown, never correctness.
_OBS_HARVEST_S = 2.0


class ShardProtocolError(RuntimeError):
    """The shard wire protocol was violated (bad frame, version skew)."""


class FrameError(ShardProtocolError):
    """A frame was structurally invalid (short header, torn payload)."""


class VersionMismatch(ShardProtocolError):
    """The peer speaks a different shard protocol version."""


# ----------------------------------------------------------------------
# framing
# ----------------------------------------------------------------------
def send_frame(
    conn: Connection, msg: dict, lock: Optional[threading.Lock] = None
) -> None:
    """Send one version-tagged, length-prefixed frame.

    *lock* serializes writers when several threads share the
    connection (the worker's heartbeat pump vs its main loop)."""
    payload = pickle.dumps(msg, protocol=pickle.HIGHEST_PROTOCOL)
    frame = _HEADER.pack(PROTOCOL_VERSION, len(payload)) + payload
    if lock is not None:
        with lock:
            conn.send_bytes(frame)
    else:
        conn.send_bytes(frame)


def recv_frame(conn: Connection) -> dict:
    """Receive and validate one frame (see :func:`send_frame`)."""
    frame = conn.recv_bytes()
    if len(frame) < _HEADER.size:
        raise FrameError(f"short frame: {len(frame)} bytes")
    version, length = _HEADER.unpack_from(frame)
    if version != PROTOCOL_VERSION:
        raise VersionMismatch(
            f"peer speaks shard protocol v{version}, this side "
            f"v{PROTOCOL_VERSION}"
        )
    payload = frame[_HEADER.size:]
    if len(payload) != length:
        raise FrameError(
            f"torn frame: header declares {length} payload bytes, got "
            f"{len(payload)}"
        )
    msg = pickle.loads(payload)
    if not isinstance(msg, dict) or "kind" not in msg:
        raise FrameError("frame payload is not a tagged message dict")
    return msg


def parse_address(spec: str) -> tuple[str, int]:
    """``"host:port"`` -> ``(host, port)`` (ValueError on bad input)."""
    host, sep, port = str(spec).rpartition(":")
    if not sep or not host:
        raise ValueError(
            f"shard address must be 'host:port', got {spec!r}"
        )
    try:
        port_n = int(port)
    except ValueError:
        raise ValueError(f"shard address port must be an integer: {spec!r}")
    if not 0 <= port_n <= 65535:
        raise ValueError(f"shard address port out of range: {spec!r}")
    return host, port_n


def _authkey() -> bytes:
    """The connection authkey: :data:`AUTHKEY_ENV` (hex) or random."""
    env = os.environ.get(AUTHKEY_ENV)
    if env:
        try:
            return bytes.fromhex(env)
        except ValueError:
            raise ValueError(
                f"{AUTHKEY_ENV} must be a hex string, got {env!r}"
            )
    return os.urandom(16)


# ----------------------------------------------------------------------
# worker side
# ----------------------------------------------------------------------
class _HeartbeatPump(threading.Thread):
    """Background thread: one heartbeat frame every *interval* seconds.

    Shares the connection with the worker's main loop through a send
    lock.  ``pause``/``unpause`` exist for the stall-heartbeat chaos
    hook; a send failure sets :attr:`dead` so the main loop can stop.

    When the coordinator enabled the fleet plane (*obs_source* set),
    each beat is followed by an ``obs-delta`` frame carrying whatever
    changed in this process's metrics registry since the last one --
    nothing when nothing changed, so an idle worker still costs one
    frame per interval, not two.  Every frame samples
    ``time.monotonic()`` so the coordinator can estimate this
    process's clock offset for span alignment.
    """

    def __init__(
        self,
        conn: Connection,
        lock: threading.Lock,
        interval_s: float,
        obs_source=None,
    ):
        super().__init__(name="shard-heartbeat", daemon=True)
        self.conn = conn
        self.lock = lock
        self.interval_s = interval_s
        self.obs_source = obs_source
        self.shard_id: Optional[int] = None
        self.dead = threading.Event()
        self._stop = threading.Event()
        self._running = threading.Event()
        self._running.set()

    def run(self) -> None:
        while not self._stop.wait(self.interval_s):
            if not self._running.is_set():
                continue
            try:
                send_frame(
                    self.conn,
                    {
                        "kind": "heartbeat",
                        "shard_id": self.shard_id,
                        "mono": time.monotonic(),
                    },
                    self.lock,
                )
                _flush_obs(
                    self.conn, self.lock, self.obs_source, self.shard_id
                )
            except (OSError, ValueError, BrokenPipeError):
                self.dead.set()
                return

    def pause(self) -> None:
        self._running.clear()

    def unpause(self) -> None:
        self._running.set()

    def stop(self) -> None:
        self._stop.set()


def _worker_chaos(
    t_switch: float, seed: int, conn: Connection, pump: _HeartbeatPump,
    stall_s: float,
) -> None:
    """Per-cell fault injection for the chaos tests.

    When ``REPRO_CHAOS_DIR`` names a directory, a flag file
    ``<fault>-<t_switch>-<seed>`` strikes that cell's next attempt:

    * ``kill-`` -- the worker process dies hard (``os._exit``);
    * ``hang-`` -- the worker sleeps for an hour outside the task's
      alarm, so only the coordinator's watchdog can recover the cell;
    * ``fail-`` -- the task raises a plain error (the worker survives);
    * ``slow-`` -- the task is delayed by one second, well within any
      sane deadline;
    * ``drop-conn-`` -- the connection is severed while the worker
      lives on (its sends then fail);
    * ``stall-heartbeat-`` -- worker *and* pump freeze past the lease
      deadline, then resume: the GC-pause / network-partition shape
      that lease fencing exists for.

    Flags are consumed (unlinked) before acting, so each strikes
    exactly one attempt and the retry succeeds.  No-op outside the
    chaos tests.
    """
    chaos_dir = os.environ.get(CHAOS_DIR_ENV)
    if not chaos_dir:
        return
    cell = f"{t_switch:g}-{seed}"

    def armed(fault: str) -> bool:
        return _consume_flag(os.path.join(chaos_dir, f"{fault}-{cell}"))

    if armed("kill"):
        os._exit(1)
    if armed("hang"):
        time.sleep(3600.0)
    if armed("fail"):
        raise RuntimeError(f"chaos: injected failure on cell {cell}")
    if armed("slow"):
        time.sleep(1.0)
    if armed("drop-conn"):
        conn.close()
    if armed("stall-heartbeat"):
        pump.pause()
        time.sleep(stall_s)
        pump.unpause()


def _drain_control(conn: Connection) -> Optional[str]:
    """Non-blocking read of control frames between cells; returns
    "drain"/"shutdown" when the coordinator asked us to stop."""
    try:
        while conn.poll(0):
            msg = recv_frame(conn)
            if msg.get("kind") in ("drain", "shutdown"):
                return msg["kind"]
    except (EOFError, OSError):
        return "shutdown"
    return None


def _flush_obs(
    conn: Connection,
    lock: threading.Lock,
    obs_source,
    shard_id: Optional[int],
) -> None:
    """Send one ``obs-delta`` frame when the registry changed.

    Send errors propagate to the caller (the pump marks itself dead,
    the main loop's own handling kicks in); an *empty* delta sends
    nothing at all.
    """
    if obs_source is None:
        return
    delta = obs_source.delta()
    if delta is None:
        return
    send_frame(
        conn,
        {
            "kind": "obs-delta",
            "shard_id": shard_id,
            "mono": time.monotonic(),
            "delta": delta,
        },
        lock,
    )


def _goodbye(conn: Connection, lock: threading.Lock) -> None:
    """Best-effort farewell: a coordinator that already closed the
    connection after its shutdown frame must not turn a clean drain
    into a reported connection loss."""
    try:
        send_frame(conn, {"kind": "goodbye"}, lock)
    except (OSError, ValueError, BrokenPipeError):
        pass


def worker_main(
    address: tuple[str, int],
    authkey: Optional[bytes] = None,
    *,
    connect_timeout_s: float = 15.0,
) -> int:
    """One shard worker: connect, register, execute leased shards.

    Blocks until the coordinator drains/shuts the worker down (exit
    code 0) or the connection is lost (exit code 3).  Used both by the
    locally spawned worker processes and the ``repro shard-worker``
    CLI subcommand (*authkey* then defaults to :data:`AUTHKEY_ENV`).
    """
    from repro.engine import RunSpec
    from repro.experiments.runner import _evaluate_task

    if authkey is None:
        authkey = _authkey()
    conn = _connect_with_retry(address, authkey, connect_timeout_s)
    lock = threading.Lock()
    send_frame(
        conn,
        {
            "kind": "register",
            "pid": os.getpid(),
            "version": PROTOCOL_VERSION,
            "mono": time.monotonic(),
        },
        lock,
    )
    hello = recv_frame(conn)
    if hello.get("kind") != "hello":
        raise ShardProtocolError(
            f"expected a hello frame, got {hello.get('kind')!r}"
        )
    spec = RunSpec.from_wire(hello["spec"])
    task = hello["task"]
    timeout_s = task.get("timeout_s")
    stall_s = task["lease_timeout_s"] + 2 * task["heartbeat_interval_s"] + 0.5
    obs_source = None
    if task.get("obs_fleet"):
        from repro.obs.fleet import MetricsDeltaSource
        from repro.obs.metrics import registry as _worker_registry

        obs_source = MetricsDeltaSource(_worker_registry())
    pump = _HeartbeatPump(
        conn, lock, task["heartbeat_interval_s"], obs_source=obs_source
    )
    pump.start()
    try:
        while True:
            msg = recv_frame(conn)
            kind = msg.get("kind")
            if kind == "shard":
                shard_id = msg["shard_id"]
                pump.shard_id = shard_id
                stopped = None
                for t_switch, seed in msg["cells"]:
                    stopped = _drain_control(conn)
                    if stopped or pump.dead.is_set():
                        break
                    try:
                        _worker_chaos(t_switch, seed, conn, pump, stall_s)
                        with _deadline(timeout_s):
                            outcome = _evaluate_task(
                                spec.workload,
                                t_switch,
                                seed,
                                tuple(spec.protocols),
                                spec.use_cache,
                                spec.cache_dir,
                                spec.audit,
                                task["trace_spans"],
                                spec.engine,
                                run_id=spec.run_id,
                            )
                    except (Exception, SystemExit) as exc:
                        send_frame(conn, {
                            "kind": "task-error",
                            "shard_id": shard_id,
                            "cell": (t_switch, seed),
                            "error_kind": _classify(exc),
                            "detail": repr(exc),
                        }, lock)
                    else:
                        send_frame(conn, {
                            "kind": "outcome",
                            "shard_id": shard_id,
                            "cell": (t_switch, seed),
                            "outcome": outcome,
                        }, lock)
                # Flush pending metric deltas at the lease boundary so
                # the coordinator's aggregate is fresh before the next
                # grant (and before a drain tears the connection down).
                _flush_obs(conn, lock, obs_source, shard_id)
                send_frame(
                    conn, {"kind": "shard-done", "shard_id": shard_id}, lock
                )
                pump.shard_id = None
                if stopped:
                    _goodbye(conn, lock)
                    return 0
            elif kind in ("drain", "shutdown"):
                try:
                    _flush_obs(conn, lock, obs_source, None)
                except (OSError, ValueError, BrokenPipeError):
                    pass
                _goodbye(conn, lock)
                return 0
            # Unknown control frames are ignored: a newer coordinator
            # may pump advisory frames an old worker doesn't know.
    except (EOFError, OSError, BrokenPipeError):
        return 3  # connection lost; the coordinator reassigns our lease
    finally:
        pump.stop()
        try:
            conn.close()
        except OSError:
            pass


def _connect_with_retry(
    address: tuple[str, int], authkey: bytes, timeout_s: float
) -> Connection:
    """Dial the coordinator, retrying until *timeout_s* (a worker may
    legitimately start before the coordinator listens)."""
    deadline = time.monotonic() + timeout_s
    last: Optional[BaseException] = None
    while time.monotonic() < deadline:
        try:
            return Client(tuple(address), authkey=authkey)
        except (ConnectionRefusedError, OSError) as exc:
            last = exc
            time.sleep(0.1)
    raise ConnectionError(
        f"could not reach coordinator at {address} within {timeout_s:g}s: "
        f"{last!r}"
    )


def _spawned_worker_main(address: tuple[str, int], authkey: bytes) -> None:
    """Entry point of locally spawned worker processes."""
    # The coordinator owns drain semantics: a terminal SIGINT must not
    # kill workers mid-cell (the coordinator's drain frame will).
    try:
        signal.signal(signal.SIGINT, signal.SIG_IGN)
    except (ValueError, OSError):  # pragma: no cover - exotic platform
        pass
    raise SystemExit(worker_main(address, authkey))


# ----------------------------------------------------------------------
# coordinator side
# ----------------------------------------------------------------------
@dataclass(slots=True)
class _Lease:
    """One shard grant: which worker owns which cells right now."""

    shard_id: int
    worker_id: int
    specs: list  # _TaskSpec
    done: set = field(default_factory=set)  # spec indexes reported back


@dataclass(slots=True, eq=False)
class _WorkerState:
    worker_id: int
    conn: Connection
    process: Any = None  # mp.Process for locally spawned workers
    pid: Optional[int] = None  # remote os.getpid() (clock-sync key)
    last_seen: float = 0.0
    #: When the worker's current cell started, as far as the
    #: coordinator can tell: the lease grant or the worker's previous
    #: cell result.  The hung-cell watchdog times from here.
    cell_started: float = 0.0
    lease: Optional[_Lease] = None
    busy: bool = False  # holds (or is still chewing a revoked) shard
    suspect: bool = False  # missed its liveness deadline


class _Coordinator:
    """Single-threaded dispatch loop (plus one accept thread).

    All frame IO, lease bookkeeping and journal writes happen on the
    supervising thread; the accept thread only hands over raw
    connections.
    """

    def __init__(self, config, pending, report, journal, drain, rng,
                 reporter, fleet=None):
        self.config = config
        self.fleet = fleet  # FleetAggregator when the plane is enabled
        self.report = report
        self.journal = journal
        self.drain = drain
        self.rng = rng
        self.reporter = reporter
        self.specs = list(pending)
        self.by_key = {(s.t_switch, s.seed): s for s in self.specs}
        self.queue = deque(self.specs)
        self.waiting: list[tuple[float, int, Any]] = []  # (due, tie, spec)
        self.tie = 0
        self.attempts: dict[int, int] = {}
        self.open_cells = len(self.specs)
        self.workers: dict[int, _WorkerState] = {}
        self.leases: dict[int, _Lease] = {}
        self.next_worker_id = 0
        self.next_shard_id = 0
        self.respawn_budget = _RESPAWNS_PER_SLOT * config.workers
        self.authkey = _authkey()
        self.drain_sent = False
        self._accept_lock = threading.Lock()
        self._accepted: list[Connection] = []
        self._pending_conns: list[tuple[Connection, float]] = []
        # Locally spawned processes that have not registered yet,
        # keyed by pid; claimed by the matching register frame.
        self._unclaimed: dict[int, Any] = {}
        self._listener: Optional[Listener] = None
        self._accept_thread: Optional[threading.Thread] = None
        self._ctx = get_context("spawn")
        n_cells = len(self.specs)
        if config.shard_size:
            self.shard_size = int(config.shard_size)
        else:
            # ~4 leases per worker: big enough to amortize framing,
            # small enough that a lost worker forfeits little work.
            slots = max(1, config.workers)
            self.shard_size = max(1, -(-n_cells // (slots * 4)))
        self.sizer = None
        if getattr(config, "adaptive_shard_size", False):
            from repro.obs.fleet import AdaptiveShardSizer

            # Target about half the lease deadline so a lease sized on
            # a stale median still completes well inside its liveness
            # window; never grow past the static default (it already
            # bounds reassignment loss on worker death).
            self.sizer = AdaptiveShardSizer(
                target_lease_s=config.shard_lease_timeout_s / 2,
                max_cells=max(self.shard_size, 1),
            )

    # -- metrics -------------------------------------------------------
    @staticmethod
    def _metrics():
        from repro.obs.metrics import registry

        return registry()

    def _workers_alive_changed(self) -> None:
        alive = len(self.workers)
        self._metrics().gauge("repro_shard_workers_alive").set(alive)
        self.reporter.set_workers(alive)

    # -- lifecycle -----------------------------------------------------
    def start(self) -> None:
        if self.config.shard_listen:
            address = parse_address(self.config.shard_listen)
        else:
            address = ("127.0.0.1", 0)
        self._listener = Listener(
            address, family="AF_INET", authkey=self.authkey
        )
        self._accept_thread = threading.Thread(
            target=self._accept_loop, name="shard-accept", daemon=True
        )
        self._accept_thread.start()
        for _ in range(self.config.workers):
            self._spawn_worker()

    @property
    def address(self) -> tuple[str, int]:
        return tuple(self._listener.address)

    def _accept_loop(self) -> None:
        from multiprocessing import AuthenticationError

        while True:
            try:
                conn = self._listener.accept()
            except (AuthenticationError, EOFError):
                continue  # one bad client must not stop the service
            except OSError:
                return  # listener closed: shutdown
            with self._accept_lock:
                self._accepted.append(conn)

    def _spawn_worker(self) -> None:
        process = self._ctx.Process(
            target=_spawned_worker_main,
            args=(self.address, bytes(self.authkey)),
            daemon=True,
        )
        process.start()
        # The worker registers through the normal accept path; the
        # process handle is claimed at registration time by pid.
        self._unclaimed[process.pid] = process

    # -- registration --------------------------------------------------
    def _admit_new_conns(self, now: float) -> None:
        with self._accept_lock:
            fresh, self._accepted = self._accepted, []
        for conn in fresh:
            self._pending_conns.append((conn, now + _REGISTER_GRACE_S))
        still = []
        for conn, deadline in self._pending_conns:
            try:
                if conn.poll(0):
                    msg = recv_frame(conn)
                    if msg.get("kind") != "register":
                        raise ShardProtocolError(
                            f"expected register, got {msg.get('kind')!r}"
                        )
                    self._register(conn, msg, now)
                    continue
            except (EOFError, OSError, ShardProtocolError):
                self._close_quietly(conn)
                continue
            if now >= deadline:
                self._close_quietly(conn)
            else:
                still.append((conn, deadline))
        self._pending_conns = still

    def _register(self, conn: Connection, msg: dict, now: float) -> None:
        wid = self.next_worker_id
        self.next_worker_id += 1
        process = self._unclaimed.pop(msg.get("pid"), None)
        worker = _WorkerState(
            worker_id=wid, conn=conn, process=process,
            pid=msg.get("pid"), last_seen=now
        )
        if self.fleet is not None:
            self.fleet.observe_clock(worker.pid, msg.get("mono"))
        try:
            send_frame(conn, self._hello_payload())
        except (OSError, ValueError):
            self._close_quietly(conn)
            return
        self.workers[wid] = worker
        self._workers_alive_changed()

    def _hello_payload(self) -> dict:
        from repro.engine import RunSpec

        config = self.config
        spec = RunSpec(
            protocols=tuple(config.protocols),
            workload=config.base,
            engine=config.engine,
            counters_only=True,
            audit=config.audit,
            use_cache=config.use_cache,
            cache_dir=config.cache_dir,
            run_id=getattr(config, "run_id", None),
        )
        trace_spans = bool(
            getattr(config, "trace_spans", False)
            or getattr(config, "trace_path", None)
        )
        return {
            "kind": "hello",
            "version": PROTOCOL_VERSION,
            "spec": spec.to_wire(),
            "task": {
                "timeout_s": config.task_timeout_s,
                "trace_spans": trace_spans,
                "heartbeat_interval_s": config.shard_heartbeat_s,
                "lease_timeout_s": config.shard_lease_timeout_s,
                "obs_fleet": self.fleet is not None,
            },
        }

    @staticmethod
    def _close_quietly(conn: Connection) -> None:
        try:
            conn.close()
        except OSError:
            pass

    # -- cell accounting ----------------------------------------------
    def _cell_open(self, spec) -> bool:
        return self.report.outcomes[spec.index] is None and not any(
            e.t_switch == spec.t_switch and e.seed == spec.seed
            for e in self.report.errors
        )

    def _complete_cell(self, spec, outcome) -> None:
        _complete(
            spec,
            outcome,
            self.attempts.get(spec.index, 1),
            self.report,
            self.journal,
            self.reporter,
        )
        self.open_cells -= 1
        if self.sizer is not None:
            # outcome = (t_switch, seed, runs, telemetry, violations);
            # observed wall time feeds the next lease's sizing.
            self.sizer.observe(getattr(outcome[3], "wall_time_s", None))

    def _fail_cell(self, spec, error: TaskError) -> None:
        """Shared retry/quarantine semantics (mirrors the serial path)."""
        error.attempts = self.attempts.get(spec.index, 1)
        if error.attempts > self.config.max_task_retries:
            self.report.errors.append(error)
            self.reporter.task_quarantined()
            self.open_cells -= 1
        elif self.drain.triggered:
            pass  # draining: leave the cell as a resumable hole
        else:
            self.report.retries += 1
            self.reporter.task_retry()
            due = time.monotonic() + _backoff(
                self.config, error.attempts, self.rng
            )
            self.tie += 1
            heapq.heappush(self.waiting, (due, self.tie, spec))

    # -- leases --------------------------------------------------------
    def _grant(self, worker: _WorkerState) -> bool:
        size = self.shard_size
        if self.sizer is not None:
            size = self.sizer.suggest(self.shard_size)
            if size != self.shard_size:
                self._metrics().gauge(
                    "repro_shard_adaptive_lease_size"
                ).set(size)
        cells = []
        while self.queue and len(cells) < size:
            spec = self.queue.popleft()
            if self._cell_open(spec):
                cells.append(spec)
        if not cells:
            return False
        shard_id = self.next_shard_id
        self.next_shard_id += 1
        for spec in cells:
            self.attempts[spec.index] = self.attempts.get(spec.index, 0) + 1
        try:
            send_frame(worker.conn, {
                "kind": "shard",
                "shard_id": shard_id,
                "cells": [(s.t_switch, s.seed) for s in cells],
            })
        except (OSError, ValueError):
            # The connection died between frames: undo the dispatch
            # accounting (nothing ever ran) and lose the worker.
            for spec in cells:
                self.attempts[spec.index] -= 1
            self.queue.extendleft(reversed(cells))
            self._lose_worker(worker, reason="conn-lost")
            return False
        lease = _Lease(
            shard_id=shard_id, worker_id=worker.worker_id, specs=cells
        )
        self.leases[shard_id] = lease
        worker.lease = lease
        worker.busy = True
        worker.cell_started = time.monotonic()
        self._metrics().counter("repro_shard_leases_granted_total").inc()
        return True

    def _revoke(self, lease: _Lease, reason: str, hung=None) -> None:
        """Take *lease* back and reassign its incomplete cells.

        Every incomplete cell is charged a ``worker-lost`` retry --
        except when the watchdog names the *hung* cell: that one is
        charged a ``timeout``, and the cells queued behind it, which
        never started, go back to the queue uncharged."""
        metrics = self._metrics()
        metrics.counter(
            "repro_shard_leases_revoked_total", reason=reason
        ).inc()
        self.leases.pop(lease.shard_id, None)
        worker = self.workers.get(lease.worker_id)
        if worker is not None and worker.lease is lease:
            worker.lease = None
        for spec in lease.specs:
            if spec.index in lease.done or not self._cell_open(spec):
                continue
            if hung is not None and spec is not hung:
                self.attempts[spec.index] -= 1
                self.queue.append(spec)
                continue
            metrics.counter("repro_shard_cells_reassigned_total").inc()
            self._fail_cell(spec, TaskError(
                kind="timeout" if hung is not None else "worker-lost",
                t_switch=spec.t_switch,
                seed=spec.seed,
                detail=(
                    f"shard {lease.shard_id} lease revoked "
                    f"({reason}); cell reassigned"
                ),
            ))

    def _watchdog(self, now: float) -> None:
        """Stop every leased worker whose current cell overran the
        watchdog budget (see the module docstring)."""
        if not self.config.task_timeout_s:
            return
        budget = 1.5 * self.config.task_timeout_s + _WATCHDOG_GRACE_S
        for worker in list(self.workers.values()):
            lease = worker.lease
            if lease is None or now - worker.cell_started <= budget:
                continue
            hung = next(
                (s for s in lease.specs if s.index not in lease.done), None
            )
            self._metrics().counter(
                "repro_sweep_watchdog_kills_total"
            ).inc()
            self._revoke(lease, "watchdog", hung=hung)
            self._lose_worker(worker, reason="watchdog")

    def _lose_worker(self, worker: _WorkerState, reason: str) -> None:
        """Connection-level loss: revoke, forget, maybe respawn."""
        if worker.lease is not None:
            self._revoke(worker.lease, reason)
        self.workers.pop(worker.worker_id, None)
        self._close_quietly(worker.conn)
        if worker.process is not None:
            worker.process.join(timeout=0.1)
            if worker.process.is_alive():
                worker.process.terminate()
        self._workers_alive_changed()
        if (
            worker.process is not None
            and self.respawn_budget > 0
            and self.open_cells > 0
            and not self.drain.triggered
        ):
            self.respawn_budget -= 1
            self._metrics().counter(
                "repro_shard_worker_respawns_total"
            ).inc()
            self._spawn_worker()

    # -- frame handling ------------------------------------------------
    def _mark_alive(self, worker: _WorkerState, now: float) -> None:
        worker.last_seen = now
        if worker.suspect:
            worker.suspect = False
            self._metrics().counter("repro_shard_reconnects_total").inc()

    def _handle(self, worker: _WorkerState, msg: dict, now: float) -> None:
        kind = msg.get("kind")
        self._mark_alive(worker, now)
        if kind == "heartbeat":
            self._metrics().counter("repro_shard_heartbeats_total").inc()
            if self.fleet is not None:
                self.fleet.observe_clock(worker.pid, msg.get("mono"))
            return
        if kind == "obs-delta":
            # Fleet metric deltas: seq-fenced by the aggregator, so a
            # duplicated or replayed frame never double-counts.
            if self.fleet is not None:
                self.fleet.observe_clock(worker.pid, msg.get("mono"))
                self.fleet.apply_delta(
                    worker.worker_id, msg.get("delta")
                )
            return
        if kind == "goodbye":
            worker.process = None  # departing cleanly: never respawn
            self._lose_worker(worker, reason="drained")
            return
        if kind in ("outcome", "task-error"):
            spec = self.by_key.get(tuple(msg.get("cell", ())))
            if spec is None:
                return
            lease = self.leases.get(msg.get("shard_id"))
            stale = lease is None or lease.worker_id != worker.worker_id
            if stale:
                self._metrics().counter(
                    "repro_shard_stale_results_total"
                ).inc()
            else:
                lease.done.add(spec.index)
                worker.cell_started = now
            if kind == "outcome":
                if self.report.outcomes[spec.index] is not None:
                    self._metrics().counter(
                        "repro_shard_duplicates_dropped_total"
                    ).inc()
                elif self._cell_open(spec):
                    # Fencing: a late result from a revoked lease still
                    # lands exactly once -- the completed-cell check
                    # above is the journal's single dedupe gate.
                    self._complete_cell(spec, msg["outcome"])
                    if self.fleet is not None:
                        # Spans ride the (fenced) result frames, so a
                        # duplicate outcome never duplicates spans.
                        self.fleet.add_spans(
                            worker.worker_id,
                            msg.get("shard_id"),
                            getattr(msg["outcome"][3], "spans", None),
                        )
            elif not stale and self._cell_open(spec):
                self._fail_cell(spec, TaskError(
                    kind=msg.get("error_kind", "protocol-error"),
                    t_switch=spec.t_switch,
                    seed=spec.seed,
                    detail=msg.get("detail", ""),
                ))
            return
        if kind == "shard-done":
            worker.busy = False
            lease = self.leases.get(msg.get("shard_id"))
            if lease is not None and lease.worker_id == worker.worker_id:
                self.leases.pop(lease.shard_id, None)
                worker.lease = None
                # Cells the worker skipped (drain mid-shard) go back to
                # the queue without being charged an attempt.
                for spec in lease.specs:
                    if spec.index not in lease.done and self._cell_open(
                        spec
                    ):
                        self.attempts[spec.index] -= 1
                        self.queue.append(spec)
            return
        # Unknown frame kinds from newer workers are ignored.

    def _reap_unclaimed(self) -> None:
        """Spawned workers that died before registering (e.g. chaos
        killed them on their very first cell of a previous life) never
        reach :meth:`_lose_worker`; reap and replace them here."""
        for pid, process in list(self._unclaimed.items()):
            if process.is_alive():
                continue
            del self._unclaimed[pid]
            if (
                self.respawn_budget > 0
                and self.open_cells > 0
                and not self.drain.triggered
            ):
                self.respawn_budget -= 1
                self._metrics().counter(
                    "repro_shard_worker_respawns_total"
                ).inc()
                self._spawn_worker()

    # -- the loop ------------------------------------------------------
    def run(self) -> None:
        no_worker_since: Optional[float] = None
        try:
            while self.open_cells > 0:
                now = time.monotonic()
                if self.drain.triggered:
                    self._broadcast_drain()
                self._admit_new_conns(now)
                self._reap_unclaimed()
                # Promote due retries.
                while self.waiting and self.waiting[0][0] <= now:
                    spec = heapq.heappop(self.waiting)[2]
                    if self._cell_open(spec):
                        self.queue.append(spec)
                # Liveness: a leased worker silent past the deadline.
                for worker in list(self.workers.values()):
                    if (
                        worker.lease is not None
                        and not worker.suspect
                        and now - worker.last_seen
                        > self.config.shard_lease_timeout_s
                    ):
                        worker.suspect = True
                        self._revoke(worker.lease, "heartbeat-timeout")
                self._watchdog(now)
                # Dispatch to idle, trusted workers.
                if not self.drain.triggered:
                    for worker in list(self.workers.values()):
                        if not self.queue:
                            break
                        if not worker.busy and not worker.suspect:
                            self._grant(worker)
                # Collect.
                conns = {w.conn: w for w in self.workers.values()}
                if conns:
                    for conn in wait(list(conns), timeout=_TICK_S):
                        worker = conns[conn]
                        try:
                            while True:
                                self._handle(
                                    worker, recv_frame(conn), now
                                )
                                if not conn.poll(0):
                                    break
                        except (EOFError, OSError, ShardProtocolError):
                            self._lose_worker(worker, reason="conn-lost")
                else:
                    time.sleep(_TICK_S)
                if self.drain.triggered and not self.leases:
                    return
                # Graceful degradation: nobody left and nobody coming.
                if (
                    not self.workers
                    and not self._pending_conns
                    and not self._unclaimed
                ):
                    if self.config.shard_listen:
                        # External workers may still join; wait a
                        # bounded grace period before giving up.
                        if no_worker_since is None:
                            no_worker_since = now
                        elif (
                            now - no_worker_since
                            > 2 * self.config.shard_lease_timeout_s
                        ):
                            self._quarantine_remaining()
                            return
                    else:
                        # Local-only service with no live worker and an
                        # exhausted respawn budget (_reap_unclaimed /
                        # _lose_worker would have spawned otherwise).
                        self._quarantine_remaining()
                        return
                else:
                    no_worker_since = None
        finally:
            self._shutdown()

    def _harvest_final_deltas(self) -> None:
        """Collect the post-shutdown ``obs-delta`` flushes.

        Each live worker reacts to the shutdown frame by flushing its
        remaining metric deltas and sending ``goodbye``; a goodbye (or
        a dead connection) releases that worker, so the deadline only
        bites when a worker is wedged.  Frames other than obs-delta
        are ignored -- results past this point are moot.
        """
        deadline = time.monotonic() + _OBS_HARVEST_S
        pending = {w.conn: w for w in self.workers.values()}
        while pending and time.monotonic() < deadline:
            for conn in wait(list(pending), timeout=_TICK_S):
                worker = pending[conn]
                try:
                    msg = recv_frame(conn)
                except (EOFError, OSError, ShardProtocolError):
                    del pending[conn]
                    continue
                kind = msg.get("kind")
                if kind == "obs-delta":
                    self.fleet.observe_clock(worker.pid, msg.get("mono"))
                    self.fleet.apply_delta(worker.worker_id, msg.get("delta"))
                elif kind == "goodbye":
                    del pending[conn]

    def _broadcast_drain(self) -> None:
        if self.drain_sent:
            return
        self.drain_sent = True
        self.queue.clear()
        self.waiting.clear()
        for worker in list(self.workers.values()):
            try:
                send_frame(worker.conn, {"kind": "drain"})
            except (OSError, ValueError):
                self._lose_worker(worker, reason="conn-lost")

    def _quarantine_remaining(self) -> None:
        """No worker can ever serve the rest of the grid: make every
        remaining open cell an explicit worker-lost hole."""
        remaining = [s for s in self.specs if self._cell_open(s)]
        for spec in remaining:
            self.report.errors.append(TaskError(
                kind="worker-lost",
                t_switch=spec.t_switch,
                seed=spec.seed,
                attempts=self.attempts.get(spec.index, 0),
                detail="no shard workers left and none can be respawned",
            ))
            self.reporter.task_quarantined()
            self.open_cells -= 1
        self.queue.clear()
        self.waiting.clear()

    def _shutdown(self) -> None:
        for worker in list(self.workers.values()):
            try:
                send_frame(worker.conn, {"kind": "shutdown"})
            except (OSError, ValueError):
                pass
        # The run loop exits the instant the last cell completes --
        # before the workers' lease-boundary obs-delta flush has been
        # read.  Workers answer the shutdown with one final flush and
        # a goodbye; harvest those frames (bounded) so the fleet
        # aggregate covers the whole grid, then tear down.
        if self.fleet is not None:
            self._harvest_final_deltas()
        for worker in list(self.workers.values()):
            self._close_quietly(worker.conn)
        for conn, _ in self._pending_conns:
            self._close_quietly(conn)
        if self._listener is not None:
            try:
                self._listener.close()
            except OSError:
                pass
        processes = [
            w.process for w in self.workers.values() if w.process is not None
        ]
        processes += list(self._unclaimed.values())
        for process in processes:
            process.join(timeout=1.0)
            if process.is_alive():
                process.terminate()
                process.join(timeout=1.0)
        self.workers.clear()
        # Finalize the liveness gauge: a drained sweep must export 0,
        # not the last nonzero head count (phantom live workers).
        self._metrics().gauge("repro_shard_workers_alive").set(0)
        self.reporter.set_workers(None)


def run_sharded(config, pending, report, journal, drain, rng, reporter,
                fleet=None):
    """Sharded leg of :func:`repro.experiments.resilience.execute`.

    Same contract as ``_run_serial``: mutate *report* in place
    (outcomes, errors, retries), journal every completion, respect the
    drain flag.  The caller owns journal/resume/signal setup, so a
    sharded sweep resumes and drains exactly like a serial one.

    *fleet* (a :class:`repro.obs.fleet.FleetAggregator`) enables the
    observability plane: workers ship metric deltas on the heartbeat
    cadence and the coordinator merges them (plus result-frame spans)
    into the aggregator.  Purely observational -- cell values are
    bit-identical with or without it.
    """
    coordinator = _Coordinator(
        config, pending, report, journal, drain, rng, reporter, fleet=fleet
    )
    coordinator.start()
    coordinator.run()
