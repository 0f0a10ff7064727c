"""The dist coordinator: leases shards to worker hosts over a socket.

The coordinator owns the socket (unix path or TCP address), the host
registry, and — one at a time — a *gather session*: the lease table and
supervisor ledger of the gather currently being distributed.  Worker
hosts connect once and hold a persistent line-JSON connection (see
:mod:`repro.dist.protocol`); every exchange is request/response:

* ``hello`` → ``welcome`` — registers the host (journaled ``host.join``)
  and tells it how to build its world (config, fault spec, cache dir)
  and how often to heartbeat;
* ``lease-request`` → ``lease`` / ``no-work`` / ``shutdown`` — grants
  the lowest pending shard, or a work-stealing duplicate of the longest
  in-flight shard once ``steal_after`` has elapsed (journaled
  ``shard.lease`` / ``shard.stolen``);
* ``result`` → ``ack`` — decodes the columnar payload and feeds it to
  the supervisor ledger, which checkpoints and journals exactly as the
  local executors do (first completion wins; duplicates are dropped);
* ``heartbeat`` → ``ack`` — liveness.  A host silent past
  ``heartbeat_timeout`` (netsplit) or whose connection drops (SIGKILL)
  is declared lost: ``host.lost`` is journaled and its leases are
  released back to pending, each charged one failed attempt against the
  shard's restart budget.

Because completed shards flow through the same ledger as local
execution — same checkpoint keys, same journal events, same shard-order
merge — a run that loses an entire host mid-gather still produces
byte-identical output, and ``repro resume`` works on it unchanged.
"""

from __future__ import annotations

import socketserver
import threading
import time

from ..engine.executor import ShardExecutor
from ..engine.stats import STATS
from ..obs import trace
from ..obs.log import get_logger
from ..resilience.supervisor import ShardQuarantined
from . import protocol

log = get_logger("dist")

#: Default seconds of silence after which a host is declared lost.
DEFAULT_HEARTBEAT_TIMEOUT = 5.0
#: Default heartbeat cadence workers are told to keep.
DEFAULT_HEARTBEAT_INTERVAL = 0.5
#: Default seconds an in-flight shard runs before it may be stolen.
DEFAULT_STEAL_AFTER = 2.0
#: Seconds an idle worker is told to wait before polling again.
RETRY_AFTER = 0.05


class _HostState:
    __slots__ = ("host", "pool", "pid", "last_seen")

    def __init__(self, host: str, pool: int, pid: int, now: float):
        self.host = host
        self.pool = pool
        self.pid = pid
        self.last_seen = now


class _GatherSession:
    """The lease table + ledger of the gather currently distributed."""

    def __init__(self, gather_id: int, table, shard_of: dict, snapshot: int, ledger):
        self.gather_id = gather_id
        self.table = table
        self.shard_of = shard_of
        self.snapshot = snapshot
        self.ledger = ledger
        self.errors: list[BaseException] = []


class DistExecutor(ShardExecutor):
    """The executor seam adapter: run a gather through a coordinator."""

    def __init__(self, coordinator: "DistCoordinator"):
        self.coordinator = coordinator

    def run(self, gatherer, pending, snapshot_index, ledger) -> None:
        self.coordinator.run_gather(pending, snapshot_index, ledger)


class DistCoordinator:
    """Socket server + host registry + one gather session at a time."""

    def __init__(
        self,
        *,
        socket_path: str | None = None,
        tcp_address: tuple[str, int] | None = None,
        heartbeat_timeout: float = DEFAULT_HEARTBEAT_TIMEOUT,
        heartbeat_interval: float = DEFAULT_HEARTBEAT_INTERVAL,
        steal_after: float | None = DEFAULT_STEAL_AFTER,
        min_hosts: int = 1,
        stall_timeout: float | None = None,
        poll_interval: float = 0.02,
    ):
        if (socket_path is None) == (tcp_address is None):
            raise ValueError("need exactly one of socket_path / tcp_address")
        self.socket_path = socket_path
        self.tcp_address = tcp_address
        self.heartbeat_timeout = heartbeat_timeout
        self.heartbeat_interval = heartbeat_interval
        self.steal_after = steal_after
        self.min_hosts = max(1, min_hosts)
        self.stall_timeout = stall_timeout
        self.poll_interval = poll_interval
        #: Optional RunJournal for run-level host events (set by the CLI).
        self.journal = None
        # What workers need to rebuild the world; filled by configure().
        self._welcome_info: dict = {
            "run": None,
            "world": {},
            "faults": None,
            "cache_dir": None,
            "heartbeat_interval": self.heartbeat_interval,
            "heartbeat_timeout": self.heartbeat_timeout,
        }
        self._lock = threading.Lock()
        self._wake = threading.Condition(self._lock)
        self._hosts: dict[str, _HostState] = {}
        self._quorum_reached = False
        self._session: _GatherSession | None = None
        self._closing = False
        self._server = None
        self._server_thread: threading.Thread | None = None

    # -- lifecycle -------------------------------------------------------

    def configure(
        self,
        config=None,
        faults_spec: str | None = None,
        cache_dir: str | None = None,
        run_id: str | None = None,
    ) -> None:
        """Pin what ``welcome`` tells joining hosts (world, faults, store)."""
        import dataclasses

        self._welcome_info = {
            "run": run_id,
            "world": dataclasses.asdict(config) if config is not None else {},
            "faults": faults_spec,
            "cache_dir": cache_dir,
            "heartbeat_interval": self.heartbeat_interval,
            "heartbeat_timeout": self.heartbeat_timeout,
        }

    def start(self) -> None:
        coordinator = self

        class Handler(socketserver.StreamRequestHandler):
            def handle(self) -> None:
                coordinator._serve_connection(self.rfile, self.wfile)

        if self.socket_path is not None:
            class Server(socketserver.ThreadingMixIn, socketserver.UnixStreamServer):
                daemon_threads = True
                allow_reuse_address = True

            self._server = Server(self.socket_path, Handler)
        else:
            class Server(socketserver.ThreadingMixIn, socketserver.TCPServer):
                daemon_threads = True
                allow_reuse_address = True

            self._server = Server(self.tcp_address, Handler)
            self.tcp_address = self._server.server_address[:2]
        self._server_thread = threading.Thread(
            target=self._server.serve_forever,
            kwargs={"poll_interval": 0.05},
            daemon=True,
        )
        self._server_thread.start()

    def close(self) -> None:
        """Tell hosts to shut down and stop serving."""
        with self._wake:
            self._closing = True
            self._wake.notify_all()
        if self._server is not None:
            self._server.shutdown()
            self._server.server_close()
            self._server = None
        if self._server_thread is not None:
            self._server_thread.join(timeout=5)
            self._server_thread = None

    def executor(self) -> DistExecutor:
        return DistExecutor(self)

    # -- the executor loop ----------------------------------------------

    def run_gather(self, pending, snapshot_index: int, ledger) -> None:
        """Distribute one gather's pending shards; returns when done.

        Blocks until every pending shard has an accepted result, raising
        ``ShardQuarantined`` when a shard spends its restart budget and
        ``RunInterrupted`` on shutdown — exactly the local executors'
        contract.
        """
        from .leases import LeaseTable

        shard_of = dict(pending)
        table = LeaseTable(shard_of, steal_after=self.steal_after)
        session = _GatherSession(
            ledger.gather_id, table, shard_of, snapshot_index, ledger
        )
        started = time.monotonic()
        last_progress = started
        done_before = 0
        with trace.span(
            "dist.gather", cat="gather", shards=len(shard_of),
            snapshot=snapshot_index, corpus=ledger.corpus,
        ):
            with self._wake:
                if self._session is not None:
                    raise RuntimeError("coordinator already has an active gather")
                self._session = session
            try:
                while True:
                    with self._wake:
                        ledger.raise_if_shutdown()
                        if session.errors:
                            raise session.errors[0]
                        if table.all_done:
                            return
                        now = time.monotonic()
                        self._reap_lost_hosts(now)
                        done_now = len(table.done)
                        if done_now > done_before or self._hosts:
                            done_before = done_now
                            last_progress = now
                        elif (
                            self.stall_timeout is not None
                            and now - last_progress > self.stall_timeout
                        ):
                            raise RuntimeError(
                                f"dist gather stalled: no connected hosts and "
                                f"no progress for {self.stall_timeout:g}s "
                                f"({done_now}/{len(shard_of)} shards done)"
                            )
                        self._wake.wait(self.poll_interval)
            finally:
                with self._wake:
                    self._session = None

    def _reap_lost_hosts(self, now: float) -> None:
        """Declare hosts silent past the heartbeat timeout lost (locked)."""
        for host in list(self._hosts):
            state = self._hosts[host]
            if now - state.last_seen > self.heartbeat_timeout:
                self._host_gone_locked(host, "heartbeat timeout")

    def _host_gone_locked(self, host: str, reason: str) -> None:
        state = self._hosts.pop(host, None)
        if state is None:
            return
        if self._closing:
            return  # an orderly departure at shutdown is not a loss
        STATS.inc("dist.host.lost")
        log.warning(
            "dist.host_lost", extra={"fields": {"host": host, "reason": reason}}
        )
        session = self._session
        self._journal_event("host.lost", session, host=host, reason=reason)
        if session is None:
            return
        for lease in session.table.drop_host(host):
            STATS.inc("dist.lease.released")
            try:
                session.ledger.fail(
                    lease.shard, lease.attempt, "lost",
                    f"host {host} lost ({reason}) holding lease "
                    f"{lease.lease_id} (attempt {lease.attempt})",
                )
            except ShardQuarantined as error:
                session.errors.append(error)
        self._wake.notify_all()

    def _journal_event(self, event: str, session, **fields) -> None:
        """Journal through the gather ledger when active, else run-level."""
        if session is not None:
            session.ledger.journal(event, **fields)
        elif self.journal is not None:
            self.journal.append(event, **fields)

    # -- the per-connection RPC loop -------------------------------------

    def _serve_connection(self, rfile, wfile) -> None:
        host: str | None = None
        try:
            while True:
                try:
                    msg = protocol.read_message(rfile)
                except protocol.ProtocolError as error:
                    protocol.send_message(
                        wfile, protocol.message("error", reason=str(error))
                    )
                    return
                if msg is None:
                    return  # EOF — the host process died or left
                reply = self._dispatch(msg)
                if host is None and msg["type"] == "hello":
                    host = msg["host"]
                protocol.send_message(wfile, reply)
                if reply["type"] == "shutdown":
                    return
        except (OSError, ValueError):
            pass  # torn connection: fall through to the lost-host path
        finally:
            if host is not None:
                with self._wake:
                    # A SIGKILLed host closes its socket immediately;
                    # only a *silent* host (netsplit) needs the timeout.
                    self._host_gone_locked(host, "disconnected")

    def _dispatch(self, msg: dict) -> dict:
        kind = msg["type"]
        if kind == "hello":
            return self._handle_hello(msg)
        if kind == "heartbeat":
            return self._handle_heartbeat(msg)
        if kind == "lease-request":
            return self._handle_lease_request(msg)
        if kind == "result":
            return self._handle_result(msg)
        return protocol.message("error", reason=f"unexpected message {kind!r}")

    def _handle_hello(self, msg: dict) -> dict:
        host = msg["host"]
        now = time.monotonic()
        with self._wake:
            fresh = host not in self._hosts
            self._hosts[host] = _HostState(
                host, int(msg.get("pool", 1)), int(msg.get("pid", 0)), now
            )
            if len(self._hosts) >= self.min_hosts:
                self._quorum_reached = True
            if fresh:
                STATS.inc("dist.host.joined")
                self._journal_event(
                    "host.join", self._session,
                    host=host, pool=int(msg.get("pool", 1)),
                )
            self._wake.notify_all()
        return protocol.message("welcome", **self._welcome_info)

    def _handle_heartbeat(self, msg: dict) -> dict:
        self._touch(msg["host"])
        return protocol.message("ack")

    def _touch(self, host: str) -> None:
        with self._lock:
            state = self._hosts.get(host)
            if state is not None:
                state.last_seen = time.monotonic()

    def _handle_lease_request(self, msg: dict) -> dict:
        host = msg["host"]
        self._touch(host)
        now = time.monotonic()
        with self._wake:
            if self._closing:
                return protocol.message("shutdown")
            session = self._session
            if session is None or host not in self._hosts:
                return protocol.message(
                    "no-work", idle=True, retry_after=RETRY_AFTER
                )
            if not self._quorum_reached:
                # Hold leases until the expected fleet has joined, so the
                # first host in the door doesn't hog every shard.
                return protocol.message(
                    "no-work", idle=False, retry_after=RETRY_AFTER
                )
            lease = session.table.request(host, now)
            if lease is None:
                return protocol.message(
                    "no-work", idle=False, retry_after=RETRY_AFTER
                )
            STATS.inc("dist.lease.granted")
            STATS.inc(f"dist.host.{host}.leases")
            session.ledger.journal(
                "shard.lease", shard=lease.shard, host=host,
                lease=lease.lease_id, attempt=lease.attempt,
                stolen=lease.stolen,
            )
            if lease.stolen:
                STATS.inc("dist.lease.stolen")
                session.ledger.journal(
                    "shard.stolen", shard=lease.shard, host=host,
                    lease=lease.lease_id, attempt=lease.attempt,
                    victim=lease.victim or "?",
                )
            return protocol.message(
                "lease",
                gather=session.gather_id,
                lease=lease.lease_id,
                shard=lease.shard,
                shard_count=len(session.shard_of),
                attempt=lease.attempt,
                snapshot=session.snapshot,
                corpus=session.ledger.corpus,
                scope=session.ledger.scope_key,
                domains=list(session.shard_of[lease.shard]),
                stolen=lease.stolen,
            )

    def _handle_result(self, msg: dict) -> dict:
        host = msg["host"]
        self._touch(host)
        with self._wake:
            session = self._session
            if session is None or msg.get("gather") != getattr(
                session, "gather_id", None
            ):
                return protocol.message("ack")  # stale: a finished gather
            ledger = session.ledger
            shard = msg["shard"]
            attempt = msg["attempt"]
            failed = msg.get("failed")
            if failed is not None:
                session.table.release(msg["lease"])
                try:
                    ledger.fail(
                        shard, attempt, failed,
                        msg.get("reason")
                        or f"remote worker {failed} on host {host} "
                           f"(attempt {attempt})",
                    )
                except ShardQuarantined as error:
                    session.errors.append(error)
                self._wake.notify_all()
                return protocol.message("ack")
            try:
                result = protocol.unpack_payload(msg["payload"])
            except Exception as error:
                session.table.release(msg["lease"])
                try:
                    ledger.fail(
                        shard, attempt, "crash",
                        f"undecodable payload from host {host}: {error}",
                    )
                except ShardQuarantined as quarantine:
                    session.errors.append(quarantine)
                self._wake.notify_all()
                return protocol.message("ack")
            _lease, fresh = session.table.complete(msg["lease"])
            if fresh:
                ledger.accept(
                    shard, attempt, result, float(msg.get("elapsed", 0.0)),
                    msg.get("stats"), msg.get("events"),
                )
                STATS.inc(f"dist.host.{host}.completed")
            else:
                STATS.inc("dist.result.duplicate")
            self._wake.notify_all()
            return protocol.message("ack")

