"""Fault tolerance for the serving layer: workers, WAL, backpressure.

Four cooperating pieces, the serving analogue of ``repro.resilience``:

* :class:`WorkerPool` — a supervised prefork pool behind the existing
  unix-socket/HTTP front end.  The parent binds the listening sockets,
  forks N query workers that each run their own accept loop on the
  inherited fds (kernel-balanced, gunicorn-style), and monitors them:
  a crashed worker is journaled (``serve.worker.lost``) and restarted
  under a bounded budget; a wedged worker (in-flight request past the
  deadline with no progress) is SIGKILLed and treated the same; a
  request that repeatedly kills its worker is quarantined
  (``serve.request.quarantined``) and answered with a structured error
  instead of a fourth corpse.
* :class:`AdmissionControl` — a bounded per-worker queue.  Requests
  past ``max_inflight`` wait at most ``queue_wait`` seconds for a slot,
  then are shed with an ``overloaded`` error carrying ``retry_after``
  (HTTP 503 + Retry-After), so saturation degrades into fast failures
  instead of unbounded queueing.
* :class:`IngestBreaker` — a circuit breaker over the ingest path.
  Repeated ingest failures trip it open: further ingests are rejected
  (``circuit-open``) while queries keep serving the last good maps with
  a ``stale: true`` flag and the PR 8 ``degraded`` gauge firing; after
  the cooldown one probe ingest is allowed through (half-open).
* :class:`RetryPolicy` / :func:`rpc_retry` — client hardening: bounded
  retry with exponential backoff + jitter on connect-refused, timeouts,
  and torn replies from a killed worker, honoring ``retry_after`` from
  shed responses.

The crash-safe ingest WAL itself lives in
:meth:`~repro.serve.service.InferenceService.ingest` /
:meth:`~repro.serve.service.InferenceService.recover`: an
``ingest.wal.begin`` intent record (snapshot ref + config digest) is
fsynced to the run journal before serving state mutates, results stage
through the store's atomic tmp+rename path, and recovery replays any
begin without a matching commit — so a SIGKILL at any instant yields
answers byte-identical to a never-killed daemon.

Fault injection: the hash-pure ``serve.worker.crash`` /
``serve.worker.hang`` / ``ingest.crash`` channels (see
:mod:`repro.faults.plan`) break only this harness — they are stripped
from artifact-store keys, and the chaos gate in
``scripts/serve_sweep.py --chaos`` proves byte-identity through them.
"""

from __future__ import annotations

import errno
import fcntl
import json
import mmap
import os
import random
import signal
import socket
import struct
import threading
import time
from dataclasses import dataclass

from ..engine.stats import STATS
from ..faults.inject import fault_roll
from ..resilience.supervisor import EXIT_INJECTED_CRASH, EXIT_WORKER_ERROR

#: RPC error codes a client retry can meaningfully help with.
RETRYABLE_CODES = {"overloaded", "not-ready"}

#: Ops that bypass admission control and quarantine: health checks and
#: introspection must keep answering precisely when the data plane is
#: shedding — that is what liveness probes are for.
CONTROL_OPS = {"ping", "ready", "status", "metrics", "trace", "shutdown"}


# -- client hardening ----------------------------------------------------


@dataclass(frozen=True)
class RetryPolicy:
    """Bounded exponential backoff with jitter for RPC clients."""

    attempts: int = 5
    base: float = 0.05
    multiplier: float = 2.0
    max_backoff: float = 2.0
    jitter: float = 0.1

    def backoff(self, attempt: int, retry_after: float | None = None) -> float:
        """Sleep before retry number *attempt* (0-based), in seconds.

        A server-supplied *retry_after* (from a shed response) acts as a
        floor: backing off sooner than the server asked for just burns
        another slot in its admission queue.
        """
        delay = min(self.max_backoff, self.base * self.multiplier ** attempt)
        if retry_after is not None:
            delay = max(delay, float(retry_after))
        if self.jitter:
            delay *= 1.0 + random.random() * self.jitter
        return delay


def rpc_retry(
    target,
    payload: dict,
    *,
    timeout: float = 60.0,
    policy: RetryPolicy | None = None,
) -> dict:
    """:func:`repro.serve.daemon.rpc` with bounded retry.

    Retries connect-refused / reset / timed-out sockets and torn replies
    (a worker SIGKILLed mid-response closes the stream early), plus
    structured ``overloaded`` / ``not-ready`` responses — honoring their
    ``retry_after``.  Raises (or returns) the final failure unchanged
    once the budget is spent.
    """
    from .daemon import rpc

    policy = policy or RetryPolicy()
    last_error: Exception | None = None
    last_response: dict | None = None
    for attempt in range(max(1, policy.attempts)):
        retry_after = None
        try:
            response = rpc(target, payload, timeout=timeout)
        except (OSError, ValueError) as error:
            last_error, last_response = error, None
        else:
            if response.get("ok") or response.get("code") not in RETRYABLE_CODES:
                return response
            last_error, last_response = None, response
            retry_after = response.get("retry_after")
        if attempt + 1 < max(1, policy.attempts):
            time.sleep(policy.backoff(attempt, retry_after))
    if last_response is not None:
        return last_response
    assert last_error is not None
    raise last_error


def wait_until_healthy(
    target,
    *,
    timeout: float = 30.0,
    interval: float = 0.02,
    op: str = "ping",
) -> float:
    """Block until the daemon answers *op*; returns the wait in seconds.

    The backoff replacement for ad-hoc ``while True: ping; sleep`` loops
    in sweeps and tests: polls with a growing interval, tolerating the
    connect-refused races of a daemon (or pool worker) still starting.
    """
    started = time.monotonic()
    deadline = started + timeout
    pause = interval
    while True:
        try:
            reply = rpc_retry(
                target, {"op": op}, timeout=min(2.0, timeout),
                policy=RetryPolicy(attempts=1),
            )
            if reply.get("ok"):
                return time.monotonic() - started
        except (OSError, ValueError):
            pass
        if time.monotonic() >= deadline:
            raise TimeoutError(
                f"daemon at {target!r} not healthy after {timeout:g}s"
            )
        time.sleep(pause)
        pause = min(0.25, pause * 1.5)


# -- admission control ---------------------------------------------------


class AdmissionControl:
    """A bounded per-worker request queue with load shedding.

    At most *max_inflight* requests execute concurrently; a request that
    cannot get a slot within *queue_wait* seconds is shed (the caller
    answers ``overloaded`` + ``retry_after``) instead of queueing
    unboundedly behind a saturated worker.
    """

    def __init__(self, max_inflight: int = 64, queue_wait: float = 0.05) -> None:
        if max_inflight < 1:
            raise ValueError("max_inflight must be at least 1")
        self.max_inflight = max_inflight
        self.queue_wait = max(0.0, queue_wait)
        self._slots = threading.Semaphore(max_inflight)
        self._lock = threading.Lock()
        self._inflight = 0
        self._waiting = 0
        self._shed = 0

    @property
    def retry_after(self) -> float:
        """The Retry-After hint for shed responses (seconds)."""
        return round(max(0.05, 2 * self.queue_wait), 3)

    def admit(self) -> bool:
        with self._lock:
            self._waiting += 1
        acquired = self._slots.acquire(timeout=self.queue_wait)
        with self._lock:
            self._waiting -= 1
            if acquired:
                self._inflight += 1
            else:
                self._shed += 1
        if not acquired:
            STATS.inc("serve.shed")
        return acquired

    def release(self) -> None:
        with self._lock:
            self._inflight -= 1
        self._slots.release()

    def snapshot(self) -> dict:
        with self._lock:
            return {
                "inflight": self._inflight,
                "queue_depth": self._waiting,
                "max_inflight": self.max_inflight,
                "queue_wait_s": self.queue_wait,
                "shed": self._shed,
            }


# -- ingest circuit breaker ----------------------------------------------


class IngestBreaker:
    """Trip after repeated ingest failures; serve stale until cooled down.

    closed → (``threshold`` consecutive failures) → open → (after
    ``cooldown`` seconds) → half-open: one probe ingest is allowed; its
    success closes the breaker, its failure re-opens it.  While the
    breaker is tripped (open or half-open) query answers carry
    ``stale: true`` and the live ``degraded`` gauge fires.
    """

    def __init__(
        self,
        threshold: int = 3,
        cooldown: float = 30.0,
        clock=time.monotonic,
        journal=None,
    ) -> None:
        if threshold < 1:
            raise ValueError("breaker threshold must be at least 1")
        self.threshold = threshold
        self.cooldown = max(0.0, cooldown)
        self._clock = clock
        self._journal = journal
        self._lock = threading.Lock()
        self._failures = 0
        self._opened_at: float | None = None

    @property
    def stale(self) -> bool:
        """Whether answers should be flagged stale (breaker tripped)."""
        with self._lock:
            return self._opened_at is not None

    def allow(self) -> bool:
        """Whether an ingest may proceed (closed, or a half-open probe)."""
        with self._lock:
            if self._opened_at is None:
                return True
            return self._clock() - self._opened_at >= self.cooldown

    def retry_after(self) -> float:
        with self._lock:
            if self._opened_at is None:
                return 0.0
            remaining = self.cooldown - (self._clock() - self._opened_at)
            return round(max(0.0, remaining), 3)

    def record_failure(self) -> None:
        with self._lock:
            self._failures += 1
            tripped = self._failures >= self.threshold and self._opened_at is None
            reopened = self._opened_at is not None
            if tripped:
                self._opened_at = self._clock()
            elif reopened:  # a failed half-open probe restarts the cooldown
                self._opened_at = self._clock()
        if tripped and self._journal is not None:
            self._journal.append(
                "serve.breaker.open", failures=self._failures,
            )

    def record_success(self) -> None:
        with self._lock:
            closed = self._opened_at is not None
            self._failures = 0
            self._opened_at = None
        if closed and self._journal is not None:
            self._journal.append("serve.breaker.close")

    def state(self) -> dict:
        with self._lock:
            if self._opened_at is None:
                state = "closed"
            elif self._clock() - self._opened_at >= self.cooldown:
                state = "half-open"
            else:
                state = "open"
            return {
                "state": state,
                "failures": self._failures,
                "threshold": self.threshold,
                "cooldown_s": self.cooldown,
            }


# -- inflight ledger (poison-request blame) ------------------------------

_SLOT_BYTES = 512
# Slot layout: the seqlock word, then the body at offset 4, then payload.
_SEQ = struct.Struct("<I")
_BODY = struct.Struct("<IdI")  # inflight, last_activity, payload len
_PAYLOAD_AT = _SEQ.size + _BODY.size
_PAYLOAD_MAX = _SLOT_BYTES - _PAYLOAD_AT


def request_digest(request: dict) -> str:
    """The canonical identity of one request for quarantine bookkeeping.

    Only the semantic fields participate — trace ids and job counts
    vary per attempt and must not let a poison request dodge its blame.
    """
    core = {
        key: request.get(key)
        for key in ("op", "domain", "corpus", "snapshot")
        if request.get(key) is not None
    }
    return json.dumps(core, sort_keys=True)


class InflightLedger:
    """A shared-memory slab recording each worker's in-flight request.

    One fixed-size slot per worker, written by the worker under a
    seqlock (odd sequence = write in progress) and read by the parent
    only to (a) blame the request a dead worker was processing and
    (b) detect wedged workers (in-flight work with no begin/done
    transitions past the deadline).  The map is created before fork and
    inherited, so writes cost two struct packs — nanoseconds, not a
    per-request file write.
    """

    def __init__(self, workers: int) -> None:
        self.workers = workers
        self._map = mmap.mmap(-1, workers * _SLOT_BYTES)

    def slot(self, index: int) -> "LedgerSlot":
        return LedgerSlot(self._map, index * _SLOT_BYTES)

    def read(self, index: int) -> dict | None:
        """A consistent snapshot of one slot (parent side), or None."""
        base = index * _SLOT_BYTES
        for _ in range(8):
            # The seq word is read alone, before and after the body: a
            # body read that overlapped a write never sees both equal.
            seq0 = _SEQ.unpack_from(self._map, base)[0]
            if seq0 % 2:  # write in progress
                time.sleep(0.001)
                continue
            inflight, activity, length = _BODY.unpack_from(
                self._map, base + _SEQ.size
            )
            payload = bytes(
                self._map[base + _PAYLOAD_AT: base + _PAYLOAD_AT + length]
            )
            seq1 = _SEQ.unpack_from(self._map, base)[0]
            if seq0 != seq1:
                continue
            if inflight == 0 and not length:
                return None
            return {
                "inflight": inflight,
                "last_activity": activity,
                "request": payload.decode("utf-8", "replace"),
            }
        return None

    def close(self) -> None:
        self._map.close()


class LedgerSlot:
    """The worker-side writer view of one ledger slot."""

    def __init__(self, shared: mmap.mmap, base: int) -> None:
        self._map = shared
        self._base = base
        self._lock = threading.Lock()
        self._seq = 0
        self._depth = 0
        self._payload = b""

    def _write(self) -> None:
        base = self._base
        self._seq += 1  # odd: write in progress
        _SEQ.pack_into(self._map, base, self._seq)
        payload = self._payload[:_PAYLOAD_MAX]
        self._map[base + _PAYLOAD_AT: base + _PAYLOAD_AT + len(payload)] = payload
        _BODY.pack_into(
            self._map, base + _SEQ.size, self._depth, time.time(), len(payload)
        )
        self._seq += 1  # even, stored last: the body above is complete
        _SEQ.pack_into(self._map, base, self._seq)

    def begin(self, digest: str) -> None:
        with self._lock:
            self._depth += 1
            if self._depth == 1 or not self._payload:
                self._payload = digest.encode("utf-8")
            self._write()

    def done(self) -> None:
        with self._lock:
            self._depth = max(0, self._depth - 1)
            if self._depth == 0:
                self._payload = b""
            self._write()


# -- the per-worker request guard ----------------------------------------


class ServeGuard:
    """Quarantine + admission + fault injection around request dispatch.

    Wraps :func:`repro.serve.daemon.handle_request` in each worker (and
    in the single-process daemon when resilience flags are on).  Control
    ops (ping/ready/metrics/...) bypass everything: the health endpoints
    must answer precisely when the data plane is saturated.
    """

    def __init__(
        self,
        *,
        admission: AdmissionControl | None = None,
        plan=None,
        slot: int = 0,
        ledger: LedgerSlot | None = None,
        quarantine=(),
        hang_sleep: float = 90.0,
    ) -> None:
        self.admission = admission
        self.plan = plan if plan is not None and plan.serve_active else None
        self.slot = slot
        self.ledger = ledger
        self.quarantine = frozenset(quarantine)
        self.hang_sleep = hang_sleep

    def _trace_of(self, request: dict) -> str:
        from ..obs import live as obs_live

        return (
            obs_live.normalize_trace_id(request.get("trace"))
            or obs_live.mint_trace_id()
        )

    def _inject(self, request: dict) -> None:
        """Roll the hash-pure serving fault channels for this request."""
        plan = self.plan
        if plan is None:
            return
        key = (
            str(request.get("op", "")),
            str(request.get("domain", "")),
            str(request.get("corpus", "")),
            str(request.get("snapshot", "")),
            self.slot,
        )
        if plan.serve_worker_crash > 0 and fault_roll(
            plan.seed, "serve.worker.crash", *key
        ) < plan.serve_worker_crash:
            os._exit(EXIT_INJECTED_CRASH)
        if plan.serve_worker_hang > 0 and fault_roll(
            plan.seed, "serve.worker.hang", *key
        ) < plan.serve_worker_hang:
            time.sleep(self.hang_sleep)  # wedge past the deadline

    def dispatch(self, service, request: dict, handler) -> dict:
        op = request.get("op")
        if op in CONTROL_OPS:
            return handler(service, request)
        digest = request_digest(request)
        if digest in self.quarantine:
            STATS.inc("serve.quarantined")
            return {
                "ok": False,
                "error": "request quarantined after repeatedly crashing "
                         "its worker",
                "code": "quarantined",
                "trace": self._trace_of(request),
            }
        if self.admission is not None and not self.admission.admit():
            return {
                "ok": False,
                "error": f"overloaded: {self.admission.max_inflight} requests "
                         f"in flight and the admission queue is full",
                "code": "overloaded",
                "retry_after": self.admission.retry_after,
                "trace": self._trace_of(request),
            }
        try:
            if self.ledger is not None:
                self.ledger.begin(digest)
            self._inject(request)
            return handler(service, request)
        finally:
            if self.ledger is not None:
                self.ledger.done()
            if self.admission is not None:
                self.admission.release()


# -- WAL helpers ---------------------------------------------------------


def pending_wal(journal_path) -> list[dict]:
    """``ingest.wal.begin`` records with no later matching commit.

    Matched in order per (snapshot, corpus-set) key, so interleaved
    ingests of different snapshots recover independently.  The journal
    reader already tolerates a torn final line from a killed writer.
    """
    from ..resilience.journal import read_events

    try:
        events = read_events(journal_path)
    except FileNotFoundError:
        return []
    closers = ("ingest.wal.commit", "ingest.wal.failed")
    open_begins: dict[str, list[dict]] = {}
    for event in events:
        kind = event.get("event")
        if kind != "ingest.wal.begin" and kind not in closers:
            continue
        key = json.dumps(
            [event.get("snapshot"), sorted(event.get("corpora") or [])]
        )
        if kind == "ingest.wal.begin":
            open_begins.setdefault(key, []).append(event)
        elif open_begins.get(key):
            # A commit closes the intent — and so does a journaled
            # failure: that error was reported to its caller (or, on a
            # failed replay, journaled for the operator), and silently
            # applying a *rejected* ingest after a restart would be
            # worse than serving the last good maps.  The WAL guards
            # against SIGKILL, where no closing record exists.
            open_begins[key].pop()
    pending = [event for stack in open_begins.values() for event in stack]
    pending.sort(key=lambda event: event.get("ts", 0.0))
    return pending


class FileLock:
    """A blocking inter-process flock (the cross-worker ingest lock)."""

    def __init__(self, path) -> None:
        self.path = str(path)
        self._local = threading.local()

    def __enter__(self):
        depth = getattr(self._local, "depth", 0)
        if depth == 0:
            os.makedirs(os.path.dirname(self.path) or ".", exist_ok=True)
            handle = open(self.path, "a+")
            fcntl.flock(handle.fileno(), fcntl.LOCK_EX)
            self._local.handle = handle
        self._local.depth = depth + 1
        return self

    def __exit__(self, *exc) -> None:
        self._local.depth -= 1
        if self._local.depth == 0:
            handle = self._local.handle
            fcntl.flock(handle.fileno(), fcntl.LOCK_UN)
            handle.close()
            self._local.handle = None


# -- the supervised prefork worker pool ----------------------------------


@dataclass(frozen=True)
class PoolOptions:
    """Supervision knobs, mirroring PR 5's ``SupervisorOptions``."""

    workers: int = 2
    max_restarts: int = 2       # blames per request digest before quarantine
    restart_budget: int = 16    # total replacement workers before giving up
    poll_interval: float = 0.05
    worker_deadline: float = 30.0  # in-flight with no progress -> SIGKILL
    grace: float = 5.0          # SIGTERM -> SIGKILL escalation on shutdown


class WorkerPool:
    """Parent-side supervisor: bind, fork N workers, monitor, restart.

    The parent never touches a request: it binds the listening sockets,
    forks workers that inherit them (each worker is a full
    :class:`~repro.serve.daemon.ServeDaemon` running its own accept
    loop), and then only reaps, blames, restarts, and journals.  A
    worker exiting 0 means a deliberate ``shutdown`` op — the whole
    pool drains and stops.
    """

    def __init__(
        self,
        *,
        service_factory,
        socket_path: str | None = None,
        http_address: tuple[str, int] | None = None,
        journal,
        options: PoolOptions = PoolOptions(),
        plan=None,
        admission_factory=None,
        guard_extra: dict | None = None,
    ) -> None:
        if socket_path is None and http_address is None:
            raise ValueError("the pool needs at least one listener")
        self.service_factory = service_factory
        self.socket_path = socket_path
        self.http_address = http_address
        self.journal = journal
        self.options = options
        self.plan = plan
        self.admission_factory = admission_factory or (
            lambda: AdmissionControl()
        )
        self.guard_extra = dict(guard_extra or {})
        self.ledger = InflightLedger(options.workers)
        self._children: dict[int, int] = {}  # slot -> pid
        self._bound: dict[str, socket.socket] = {}
        self._blame: dict[str, int] = {}
        self._quarantine: set[str] = set()
        self._restarts = 0
        self._stop = threading.Event()
        self._rc = 0

    # -- listeners -------------------------------------------------------

    def _bind(self) -> None:
        from .daemon import bind_tcp, bind_unix

        if self.socket_path is not None:
            self._bound["socket"] = bind_unix(self.socket_path)
        if self.http_address is not None:
            self._bound["http"] = bind_tcp(*self.http_address)

    # -- children --------------------------------------------------------

    def _spawn(self, slot: int) -> int:
        pid = os.fork()
        if pid == 0:
            code = EXIT_WORKER_ERROR
            try:
                code = self._worker_main(slot)
            except SystemExit as exit_:  # argparse/daemon-internal exits
                code = int(exit_.code or 0)
            except BaseException:
                import traceback

                traceback.print_exc()
            finally:
                os._exit(code)
        self._children[slot] = pid
        return pid

    def _worker_main(self, slot: int) -> int:
        """Runs in the forked child: build a daemon on the inherited fds."""
        from .daemon import ServeDaemon

        signal.signal(signal.SIGTERM, signal.SIG_DFL)
        signal.signal(signal.SIGINT, signal.SIG_IGN)
        service = self.service_factory()
        guard = ServeGuard(
            admission=self.admission_factory(),
            plan=self.plan,
            slot=slot,
            ledger=self.ledger.slot(slot),
            quarantine=self._quarantine,
            hang_sleep=max(60.0, 3 * self.options.worker_deadline),
            **self.guard_extra,
        )
        daemon = ServeDaemon(
            service,
            socket_path=self.socket_path,
            http_address=self.http_address,
            bound_sockets=self._bound,
            guard=guard,
            owns_socket_path=False,
        )
        self.journal.append(
            "serve.worker.start", worker=slot, pid=os.getpid(),
        )
        service.recover()
        return daemon.run()

    # -- supervision -----------------------------------------------------

    def _blame_crash(self, slot: int, status: int) -> None:
        exit_code = (
            os.waitstatus_to_exitcode(status)
            if hasattr(os, "waitstatus_to_exitcode") else status
        )
        record = self.ledger.read(slot)
        blamed = record["request"] if record else None
        self.journal.append(
            "serve.worker.lost",
            worker=slot,
            pid=self._children[slot],
            exit=exit_code,
            request=blamed or "",
        )
        if blamed:
            self._blame[blamed] = self._blame.get(blamed, 0) + 1
            if (
                self._blame[blamed] >= self.options.max_restarts
                and blamed not in self._quarantine
            ):
                self._quarantine.add(blamed)
                self.journal.append(
                    "serve.request.quarantined",
                    request=blamed,
                    failures=self._blame[blamed],
                )
        # Clear the dead worker's slot so the replacement starts clean.
        self.ledger.slot(slot).done()

    def _check_hangs(self) -> None:
        now = time.time()
        for slot, pid in list(self._children.items()):
            record = self.ledger.read(slot)
            if record is None or record["inflight"] == 0:
                continue
            if now - record["last_activity"] > self.options.worker_deadline:
                try:
                    os.kill(pid, signal.SIGKILL)
                except ProcessLookupError:
                    pass

    def run(self) -> int:
        self._bind()
        self.journal.append(
            "serve.start",
            pid=os.getpid(),
            workers=self.options.workers,
            socket=self.socket_path or "",
            http=(
                f"{self.http_address[0]}:{self.http_address[1]}"
                if self.http_address else ""
            ),
        )
        for slot in range(self.options.workers):
            self._spawn(slot)
        self.journal.append("serve.ready", workers=self.options.workers)
        previous = {}
        for signum in (signal.SIGTERM, signal.SIGINT):
            try:
                previous[signum] = signal.signal(
                    signum, lambda *_args: self._stop.set()
                )
            except ValueError:
                pass  # not the main thread (embedded/test use)
        try:
            while not self._stop.is_set():
                self._reap()
                if self._stop.is_set():
                    break
                self._check_hangs()
                self._stop.wait(self.options.poll_interval)
        finally:
            for signum, handler in previous.items():
                signal.signal(signum, handler)
            self._teardown()
        return self._rc

    def _reap(self) -> None:
        for slot, pid in list(self._children.items()):
            try:
                done, status = os.waitpid(pid, os.WNOHANG)
            except ChildProcessError:
                done, status = pid, 0
            if done == 0:
                continue
            exit_code = (
                os.waitstatus_to_exitcode(status)
                if hasattr(os, "waitstatus_to_exitcode") else status
            )
            if exit_code == 0:
                # Deliberate shutdown (the `shutdown` op or SIGTERM to
                # the worker): drain the whole pool.
                del self._children[slot]
                self._stop.set()
                return
            self._blame_crash(slot, status)
            del self._children[slot]
            self._restarts += 1
            if self._restarts > self.options.restart_budget:
                self.journal.append(
                    "serve.stop",
                    reason="restart budget exhausted",
                    restarts=self._restarts,
                )
                self._rc = 3
                self._stop.set()
                return
            self._spawn(slot)
            self.journal.append(
                "serve.worker.restart",
                worker=slot,
                pid=self._children[slot],
                restarts=self._restarts,
            )

    def _teardown(self) -> None:
        for pid in self._children.values():
            try:
                os.kill(pid, signal.SIGTERM)
            except ProcessLookupError:
                pass
        deadline = time.monotonic() + self.options.grace
        remaining = dict(self._children)
        while remaining and time.monotonic() < deadline:
            for slot, pid in list(remaining.items()):
                try:
                    done, _status = os.waitpid(pid, os.WNOHANG)
                except ChildProcessError:
                    done = pid
                if done:
                    del remaining[slot]
            if remaining:
                time.sleep(0.02)
        for pid in remaining.values():
            try:
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)
            except (ProcessLookupError, ChildProcessError):
                pass
        self._children.clear()
        for sock in self._bound.values():
            try:
                sock.close()
            except OSError:
                pass
        self._bound.clear()
        if self.socket_path is not None:
            try:
                os.unlink(self.socket_path)
            except FileNotFoundError:
                pass
            except OSError as error:
                if error.errno != errno.ENOENT:
                    pass
        self.journal.append("serve.stop", restarts=self._restarts)
        self.ledger.close()
