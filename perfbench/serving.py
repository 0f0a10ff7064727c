"""The served workloads: ``serve-hot`` (pool reads) and ``serve-churn``
(snapshot ingests beside reads), driven over unix sockets.

Clients are closed loops: each thread sends its next request only after
the previous reply arrived, over a fresh connection per request, exactly
as :func:`repro.serve.daemon.rpc` opens them.  Every reply is compared with
the :class:`~common.Reference` answer; a refusal, a socket error or a
wrong answer is a failed request, billed ``FAILED_LATENCY_S``.
"""

from __future__ import annotations

import json
import os
import random
import signal
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

import layers
from common import (
    FAILED_LATENCY_S,
    HERE,
    ROOT,
    SCALE,
    WORLD_SEED,
    child_env,
    child_pids,
    copy_store,
    dir_mib,
    proc_status_kib,
)

CORPORA = ("alexa", "com", "gov")
#: Requests timed at each end of a serve-hot load (its cold and warm window).
WINDOW_REQUESTS = 5000
INGEST_TIMEOUT_S = 120.0
#: serve-churn's reader sends at most this many lookups per second while
#: the ingests run, then reads unpaced for POST_READ_S seconds.
CHURN_RATE = 40.0
POST_READ_S = 3.0


class Daemon:
    """One ``repro serve run`` process (and its pool workers)."""

    def __init__(
        self,
        store: Path,
        socket_path: str,
        *,
        workers: int,
        log_path: Path,
        layers_dir: Path | None = None,
    ) -> None:
        command = [sys.executable, str(HERE / "serve_daemon.py")]
        if layers_dir is not None:
            command += ["--layers", str(layers_dir)]
        command += [
            "--", "run", "--socket", socket_path, "--cache-dir", str(store),
            "--seed", str(WORLD_SEED), "--scale", str(SCALE),
            "--workers", str(workers),
        ]
        if workers > 1:
            # Hang detection off: the pool parent can read a torn ledger
            # slot (new sequence number, last_activity still 0.0) and
            # SIGKILL a healthy worker mid-request, about once per few
            # hundred thousand requests at full load.
            command += ["--worker-deadline", "1e12"]
        self.target = ("socket", socket_path)
        self.workers = workers
        started = time.perf_counter()
        with open(log_path, "ab") as log:
            self.process = subprocess.Popen(
                command, cwd=ROOT, env=child_env(), stdout=log,
                stderr=subprocess.STDOUT, start_new_session=True,
            )
        try:
            self.setup_s = self._await_healthy(started)
        except BaseException:
            self.kill()
            raise

    def _await_healthy(self, started: float) -> float:
        from repro.serve.daemon import rpc

        deadline = started + 60.0
        while True:
            if self.process.poll() is not None:
                raise RuntimeError(
                    f"daemon exited ({self.process.returncode}) before answering"
                )
            try:
                if rpc(self.target, {"op": "ping"}, timeout=1.0).get("ok"):
                    return time.perf_counter() - started
            except (OSError, ValueError):
                pass
            if time.perf_counter() > deadline:
                raise RuntimeError("daemon never answered a ping")
            time.sleep(0.002)

    def request_pids(self) -> list[int]:
        """The processes that answer requests: the workers, or the daemon."""
        if self.workers > 1:
            return child_pids(self.process.pid)
        return [self.process.pid]

    def peak_rss_mib(self) -> float:
        pids = [self.process.pid] + child_pids(self.process.pid)
        return max(proc_status_kib(pid, "VmHWM") for pid in pids) / 1024

    def layer_snapshot(self, layers_dir: Path) -> dict:
        """Each request process's layer totals (SIGUSR1 → dump), merged."""
        paths = [layers_dir / f"layers-{pid}.json" for pid in self.request_pids()]
        for path in paths:
            path.unlink(missing_ok=True)
        for pid in self.request_pids():
            os.kill(pid, signal.SIGUSR1)
        deadline = time.monotonic() + 30.0
        while not all(path.exists() for path in paths):
            if time.monotonic() > deadline:
                raise RuntimeError("daemon never wrote its layer totals")
            time.sleep(0.01)
        return layers.merge([json.loads(path.read_text()) for path in paths])

    def stop(self) -> None:
        # SIGTERM, not the `shutdown` op: after load, a pool stopped by
        # the op waits out its SIGTERM->SIGKILL grace (about 5s).
        if self.process.poll() is None:
            try:
                self.process.terminate()
                self.process.wait(timeout=20.0)
            except subprocess.TimeoutExpired:
                pass
        self.kill()

    def kill(self) -> None:
        """SIGKILL whatever is left of the daemon's session, and reap it."""
        try:
            os.killpg(self.process.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        self.process.wait()
        deadline = time.monotonic() + 5.0
        while time.monotonic() < deadline:
            try:
                os.killpg(self.process.pid, 0)
            except ProcessLookupError:
                return
            time.sleep(0.01)


@dataclass
class Load:
    """Client-side outcome of request traffic: one entry per request."""

    done_at: list[float] = field(default_factory=list)
    latency_s: list[float] = field(default_factory=list)
    failed: int = 0
    started: float = 0.0  # perf_counter when the clients started
    busy_s: float = 0.0  # wall time the clients were sending

    def extend(self, other: "Load") -> None:
        self.done_at += other.done_at
        self.latency_s += other.latency_s
        self.failed += other.failed
        self.busy_s += other.busy_s

    @property
    def attempted(self) -> int:
        return len(self.latency_s)

    def window_s(self, first: bool) -> float:
        """Wall time of the first (or last) ``WINDOW_REQUESTS`` replies."""
        done = sorted(self.done_at)
        if len(done) < 2 * WINDOW_REQUESTS:
            raise RuntimeError(f"only {len(done)} requests completed")
        if first:
            return done[WINDOW_REQUESTS - 1] - self.started
        return done[-1] - done[-WINDOW_REQUESTS - 1]


def send(target, request: dict, reference, timeout: float = FAILED_LATENCY_S):
    """One timed RPC: (latency billed, ok).  Failures never raise."""
    from repro.serve.daemon import rpc

    started = time.perf_counter()
    try:
        reply = rpc(target, request, timeout=timeout)
    except (OSError, ValueError) as error:
        reply = {"ok": False, "code": type(error).__name__, "error": str(error)}
    elapsed = time.perf_counter() - started
    if reference is None:
        ok = bool(reply.get("ok"))
    else:
        ok = reference.matches(request, reply)
    if not ok:
        print(
            f"perfbench: failed {json.dumps(request)}: {reply.get('code')} "
            f"{str(reply.get('error', 'wrong answer'))[:200]}",
            file=sys.stderr,
        )
    return (elapsed if ok else max(elapsed, FAILED_LATENCY_S)), ok


def closed_loop(
    target, next_requests, reference, stop: threading.Event, pace_s: float = 0.0,
) -> Load:
    """One client thread per request source, each until *stop* is set.

    With *pace_s*, a client sends at most one request per *pace_s*
    seconds (a late reply is followed at once, without catching up), so
    its samples spread evenly over time instead of bunching wherever the
    daemon happens to answer fast.
    """
    results = [Load() for _ in next_requests]

    def client(next_request, out: Load) -> None:
        due = time.perf_counter()
        while not stop.is_set():
            if pace_s:
                wait = due - time.perf_counter()
                if wait > 0 and stop.wait(wait):
                    break
                due = max(due, time.perf_counter()) + pace_s
            latency, ok = send(target, next_request(), reference)
            out.done_at.append(time.perf_counter())
            out.latency_s.append(latency)
            out.failed += not ok

    threads = [
        threading.Thread(target=client, args=(source, out), daemon=True)
        for source, out in zip(next_requests, results)
    ]
    started = time.perf_counter()
    for thread in threads:
        thread.start()
    total = Load(started=started)
    try:
        stop.wait()
    finally:
        stop.set()
        for thread in threads:
            thread.join()
    total.busy_s = time.perf_counter() - started
    for out in results:
        total.extend(out)
    return total


def _stop_after(seconds: float) -> threading.Event:
    stop = threading.Event()
    timer = threading.Timer(seconds, stop.set)
    timer.daemon = True
    timer.start()
    return stop


# -- serve-hot ---------------------------------------------------------------


def hot_requests(reference, rng: random.Random):
    """90% who-has on alexa, 10% provider-stats, all at the latest snapshot."""
    domains = reference.domains("alexa", reference.latest)

    def next_request() -> dict:
        if rng.random() < 0.9:
            return {"op": "who-has", "domain": rng.choice(domains), "corpus": "alexa"}
        return {"op": "provider-stats", "corpus": rng.choice(CORPORA)}

    return next_request


@dataclass
class Phase:
    """What one daemon spawn measured."""

    setup_s: float
    peak_rss_mib: float
    load: Load
    side: Load = field(default_factory=Load)  # checked, counted, not timed
    layers: dict | None = None
    ingest_s: list[float] = field(default_factory=list)
    checks_s: float = 0.0  # client time of the post-ingest answer checks
    failed: int = 0  # ingests and checks
    attempted: int = 0
    store_mib: float = 0.0

    @property
    def rpc_s(self) -> float:
        """Client-side time of every request the phase sent."""
        return (
            sum(self.load.latency_s) + sum(self.side.latency_s)
            + sum(self.ingest_s) + self.checks_s
        )


def serve_hot_phase(
    work: Path, store: Path, reference, *, seed: int, index: int,
    seconds: float, traced: bool, ingest: bool,
) -> Phase:
    layers_dir = work / f"hot-layers-{index}" if traced else None
    if layers_dir is not None:
        layers_dir.mkdir(parents=True, exist_ok=True)
    daemon = Daemon(
        store, str((work / f"hot-{index}.sock").relative_to(ROOT)), workers=2,
        log_path=work / "daemon.log", layers_dir=layers_dir,
    )
    try:
        sources = [
            hot_requests(reference, random.Random(f"{seed}/hot/{index}/{client}"))
            for client in range(2)
        ]
        load = closed_loop(daemon.target, sources, reference, _stop_after(seconds))
        phase = Phase(daemon.setup_s, daemon.peak_rss_mib(), load)
        if ingest:
            # An operator pushes the latest snapshot into the warm pool.
            latency, ok = send(
                daemon.target, {"op": "ingest", "snapshot": reference.latest},
                None, timeout=INGEST_TIMEOUT_S,
            )
            phase.ingest_s.append(latency)
            phase.attempted += 1
            phase.failed += not ok
            check = hot_requests(reference, random.Random(f"{seed}/hot/after-ingest"))
            for _ in range(200):
                latency, ok = send(daemon.target, check(), reference)
                phase.checks_s += latency
                phase.attempted += 1
                phase.failed += not ok
        if layers_dir is not None:
            phase.layers = daemon.layer_snapshot(layers_dir)
    finally:
        daemon.stop()
    if ingest:
        phase.attempted += 1
        phase.failed += not _payloads_match(store, reference, reference.latest)
        phase.store_mib = dir_mib(store)
    return phase


def _payloads_match(store: Path, reference, snapshot: int | None = None) -> bool:
    """Every stored result (at *snapshot*, or all) equals the seeded bytes."""
    from repro.store import ArtifactStore

    copy = ArtifactStore(store, max_bytes=None)
    for corpus, index in reference.covered():
        if snapshot is not None and index != snapshot:
            continue
        dataset = reference.dataset(corpus)
        if copy.result_payload(reference.config, dataset, index) != (
            reference.result_payload(corpus, index)
        ):
            return False
    return True


# -- serve-churn -------------------------------------------------------------


def churn_requests(reference, rng: random.Random, count: int = 2000):
    """80% who-has, 10% explain, 10% provider-stats over every covered
    (corpus, snapshot), uniformly; a fixed cycle of *count* requests whose
    answers are decoded up front, so checking a reply costs a lookup."""
    pairs = reference.covered()
    pool = []
    for _ in range(count):
        corpus, snapshot = rng.choice(pairs)
        roll = rng.random()
        if roll < 0.9:
            domain = rng.choice(reference.domains(corpus, snapshot))
            op = "who-has" if roll < 0.8 else "explain"
            request = {"op": op, "domain": domain, "corpus": corpus, "snapshot": snapshot}
        else:
            request = {"op": "provider-stats", "corpus": corpus, "snapshot": snapshot}
        reference.expected(request)
        pool.append(request)
    position = [0]

    def next_request() -> dict:
        request = pool[position[0] % count]
        position[0] += 1
        return request

    return next_request


def serve_churn_phase(
    work: Path, seeded: Path, reference, next_request, *, index: int, traced: bool,
) -> Phase:
    """Ingest snapshots 0→8 beside a paced reader, then read on alone.

    The reader's lookups during the ingests are checked and counted, but
    their latency steps with the daemon's GIL hand-offs (5 ms each), too
    unsteadily to gate on; the timed load is the ``POST_READ_S`` of
    unpaced cache-missing reads that follows the history.
    """
    from repro.world.population import NUM_SNAPSHOTS

    store = copy_store(seeded, work / f"churn-store-{index}")
    layers_dir = work / f"churn-layers-{index}" if traced else None
    if layers_dir is not None:
        layers_dir.mkdir(parents=True, exist_ok=True)
    daemon = Daemon(
        store, str((work / f"churn-{index}.sock").relative_to(ROOT)), workers=1,
        log_path=work / "daemon.log", layers_dir=layers_dir,
    )
    try:
        stop = threading.Event()
        during: list[Load] = []
        reader = threading.Thread(
            target=lambda: during.append(closed_loop(
                daemon.target, [next_request], reference, stop,
                pace_s=1 / CHURN_RATE,
            )),
            daemon=True,
        )
        reader.start()
        ingest_s, failed = [], 0
        try:
            for snapshot in range(NUM_SNAPSHOTS):
                latency, ok = send(
                    daemon.target, {"op": "ingest", "snapshot": snapshot},
                    None, timeout=INGEST_TIMEOUT_S,
                )
                ingest_s.append(latency)
                failed += not ok
        finally:
            stop.set()
            reader.join()
        load = closed_loop(
            daemon.target, [next_request], reference, _stop_after(POST_READ_S)
        )
        phase = Phase(daemon.setup_s, daemon.peak_rss_mib(), load, side=during[0])
        phase.ingest_s = ingest_s
        phase.attempted = NUM_SNAPSHOTS
        phase.failed = failed
        if layers_dir is not None:
            phase.layers = daemon.layer_snapshot(layers_dir)
    finally:
        daemon.stop()
    phase.attempted += 1
    phase.failed += not _payloads_match(store, reference)
    phase.store_mib = dir_mib(store)
    return phase
