"""Fault-tolerant serving: retries, shedding, breaker, WAL, worker pool.

The WAL tests assert the PR's core guarantee end to end: a SIGKILL (real
or simulated) at any point in an ingest yields a daemon whose answers
and stored artifacts are byte-identical to one that was never killed.
"""

import json
import os
import shutil
import signal
import socket
import subprocess
import sys
import threading
import time

import pytest

from conftest import wait_for
from repro.faults.plan import FaultPlan, resolve_plan
from repro.obs.schemas import JOURNAL_EVENT_SCHEMA, validate
from repro.resilience.journal import RunJournal, new_run_id, read_events
from repro.serve.daemon import ServeDaemon, handle_request, rpc
from repro.serve.resilience import (
    AdmissionControl,
    IngestBreaker,
    InflightLedger,
    RetryPolicy,
    ServeGuard,
    pending_wal,
    request_digest,
    rpc_retry,
    wait_until_healthy,
)
from repro.serve.service import InferenceService, ServiceError
from repro.store import ArtifactStore
from repro.store.artifacts import KIND_PRIORITY, cache_key
from repro.world.entities import DatasetTag
from repro.world.population import NUM_SNAPSHOTS


class _FakeExit(BaseException):
    """Stands in for os._exit: uncatchable by ``except Exception``."""

    def __init__(self, code):
        self.code = code


@pytest.fixture()
def fake_exit(monkeypatch):
    """Replace os._exit with a raiser so injected crashes are observable."""
    def raiser(code):
        raise _FakeExit(code)

    monkeypatch.setattr(os, "_exit", raiser)
    return raiser


class TestRetryPolicy:
    def test_backoff_grows_and_caps(self):
        policy = RetryPolicy(base=0.1, multiplier=2, max_backoff=0.5, jitter=0)
        delays = [policy.backoff(attempt) for attempt in range(5)]
        assert delays == [0.1, 0.2, 0.4, 0.5, 0.5]

    def test_retry_after_is_a_floor(self):
        policy = RetryPolicy(base=0.01, jitter=0)
        assert policy.backoff(0, retry_after=0.3) == 0.3
        assert policy.backoff(6, retry_after=0.3) == pytest.approx(0.64)

    def test_jitter_bounds(self):
        policy = RetryPolicy(base=0.1, jitter=0.5)
        for _ in range(50):
            assert 0.1 <= policy.backoff(0) <= 0.15 + 1e-9


class _ScriptedServer:
    """A unix-socket server answering one scripted reply per connection."""

    def __init__(self, path, replies):
        self.path = path
        self.replies = list(replies)
        self.sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        self.sock.bind(path)
        self.sock.listen(8)
        self.thread = threading.Thread(target=self._serve, daemon=True)
        self.thread.start()

    def _serve(self):
        while self.replies:
            try:
                conn, _ = self.sock.accept()
            except OSError:
                return
            with conn:
                conn.recv(65536)
                reply = self.replies.pop(0)
                if reply is None:
                    continue  # slam the connection: torn reply
                conn.sendall(json.dumps(reply).encode() + b"\n")
        self.sock.close()


class TestRpcRetry:
    def test_retries_connect_refused_until_the_daemon_appears(self, tmp_path):
        path = str(tmp_path / "late.sock")
        ok = {"ok": True, "result": {"pong": True}}

        def start_later():
            time.sleep(0.2)
            _ScriptedServer(path, [ok])

        threading.Thread(target=start_later, daemon=True).start()
        reply = rpc_retry(
            ("socket", path), {"op": "ping"},
            policy=RetryPolicy(attempts=8, base=0.05, jitter=0),
        )
        assert reply["ok"] is True

    def test_retries_torn_reply_and_overloaded(self, tmp_path):
        path = str(tmp_path / "flaky.sock")
        shed = {"ok": False, "code": "overloaded", "retry_after": 0.01}
        ok = {"ok": True, "result": 42}
        _ScriptedServer(path, [None, shed, ok])
        reply = rpc_retry(
            ("socket", path), {"op": "ping"},
            policy=RetryPolicy(attempts=5, base=0.01, jitter=0),
        )
        assert reply == ok

    def test_non_retryable_errors_return_immediately(self, tmp_path):
        path = str(tmp_path / "bad.sock")
        bad = {"ok": False, "code": "not-found", "error": "nope"}
        _ScriptedServer(path, [bad, {"ok": True}])
        reply = rpc_retry(
            ("socket", path), {"op": "ping"},
            policy=RetryPolicy(attempts=3, base=0.01, jitter=0),
        )
        assert reply == bad

    def test_budget_exhaustion_raises_the_last_error(self, tmp_path):
        with pytest.raises(OSError):
            rpc_retry(
                ("socket", str(tmp_path / "nothing.sock")), {"op": "ping"},
                policy=RetryPolicy(attempts=2, base=0.01, jitter=0),
            )

    def test_wait_until_healthy_times_out(self, tmp_path):
        with pytest.raises(TimeoutError):
            wait_until_healthy(
                ("socket", str(tmp_path / "void.sock")), timeout=0.3
            )


class TestAdmissionControl:
    def test_sheds_when_full_and_recovers_on_release(self):
        control = AdmissionControl(max_inflight=2, queue_wait=0.01)
        assert control.admit() and control.admit()
        assert not control.admit()  # full: shed
        snap = control.snapshot()
        assert snap["inflight"] == 2 and snap["shed"] == 1
        control.release()
        assert control.admit()
        assert control.retry_after > 0

    def test_guard_sheds_with_retry_after(self, seeded):
        config, root, domains = seeded
        service = InferenceService(config, ArtifactStore(root))
        gate = threading.Event()
        release = threading.Event()

        def slow_handler(_service, _request):
            gate.set()
            release.wait(5)
            return {"ok": True, "result": "slow"}

        guard = ServeGuard(admission=AdmissionControl(1, queue_wait=0.01))
        request = {"op": "who-has", "domain": domains[0]}
        results = {}

        def first():
            results["first"] = guard.dispatch(service, request, slow_handler)

        thread = threading.Thread(target=first)
        thread.start()
        assert gate.wait(5)
        shed = guard.dispatch(service, request, slow_handler)
        assert shed["ok"] is False and shed["code"] == "overloaded"
        assert shed["retry_after"] > 0 and shed["trace"]
        # Control ops bypass admission even while the pool is saturated.
        ping = guard.dispatch(service, {"op": "ping"}, handle_request)
        assert ping["ok"] is True
        release.set()
        thread.join(5)
        assert results["first"]["ok"] is True

    def test_quarantined_requests_are_refused(self, seeded):
        config, root, domains = seeded
        service = InferenceService(config, ArtifactStore(root))
        poison = {"op": "who-has", "domain": domains[0], "corpus": "alexa"}
        guard = ServeGuard(quarantine={request_digest(poison)})
        reply = guard.dispatch(service, dict(poison), handle_request)
        assert reply["ok"] is False and reply["code"] == "quarantined"
        other = guard.dispatch(
            service, {"op": "who-has", "domain": domains[1]}, handle_request
        )
        assert other["ok"] is True


class TestIngestBreaker:
    def test_state_machine_with_fake_clock(self, tmp_path):
        clock = [0.0]
        journal = RunJournal(tmp_path, "r-test")
        breaker = IngestBreaker(
            threshold=2, cooldown=5.0, clock=lambda: clock[0], journal=journal
        )
        assert breaker.allow() and not breaker.stale
        breaker.record_failure()
        assert breaker.allow()  # one failure: still closed
        breaker.record_failure()
        assert breaker.stale and not breaker.allow()
        assert breaker.state()["state"] == "open"
        assert 0 < breaker.retry_after() <= 5.0
        clock[0] = 6.0
        assert breaker.allow()  # half-open probe
        assert breaker.state()["state"] == "half-open"
        breaker.record_failure()  # probe failed: re-open, cooldown restarts
        assert not breaker.allow()
        clock[0] = 12.0
        breaker.record_success()
        assert not breaker.stale and breaker.state()["state"] == "closed"
        kinds = [event["event"] for event in read_events(journal.path)]
        assert kinds.count("serve.breaker.open") == 1
        assert kinds.count("serve.breaker.close") == 1

    def test_tripped_breaker_rejects_ingest_and_flags_stale(
        self, seeded, tmp_path
    ):
        config, root, domains = seeded
        journal = RunJournal(tmp_path, "r-stale")
        clock = [0.0]
        breaker = IngestBreaker(
            threshold=1, cooldown=60.0, clock=lambda: clock[0]
        )
        service = InferenceService(
            config, ArtifactStore(root), journal=journal, breaker=breaker
        )
        clean = service.who_has(domains[0], corpus="alexa")
        assert "stale" not in clean  # normal-path bytes are unchanged
        breaker.record_failure()
        with pytest.raises(ServiceError) as excinfo:
            service.ingest(NUM_SNAPSHOTS - 1, "alexa")
        assert excinfo.value.code == "circuit-open"
        assert excinfo.value.retry_after > 0
        stale = service.who_has(domains[0], corpus="alexa")
        assert stale["stale"] is True
        assert service.status()["degraded"] in (True, False)  # live may be off
        section = service.metrics()["resilience"]
        assert section["breaker"]["state"] == "open"


class TestInflightLedger:
    def test_begin_done_roundtrip(self):
        ledger = InflightLedger(workers=2)
        try:
            slot = ledger.slot(1)
            digest = request_digest({"op": "who-has", "domain": "a.example"})
            slot.begin(digest)
            record = ledger.read(1)
            assert record["inflight"] == 1
            assert record["request"] == digest
            assert ledger.read(0) is None
            slot.done()
            assert ledger.read(1) is None
        finally:
            ledger.close()

    def test_nested_requests_keep_the_first_blame(self):
        ledger = InflightLedger(workers=1)
        try:
            slot = ledger.slot(0)
            slot.begin("outer")
            slot.begin("inner")
            record = ledger.read(0)
            assert record["inflight"] == 2 and record["request"] == "outer"
            slot.done()
            assert ledger.read(0)["inflight"] == 1
            slot.done()
            assert ledger.read(0) is None
        finally:
            ledger.close()

    def test_oversize_payload_is_truncated_not_corrupt(self):
        ledger = InflightLedger(workers=1)
        try:
            slot = ledger.slot(0)
            slot.begin("x" * 4096)
            record = ledger.read(0)
            assert record["request"] and len(record["request"]) < 512
        finally:
            ledger.close()

    def test_reads_beside_a_forked_writer_are_never_torn(self):
        # A torn header (in-flight work stamped with no activity time)
        # looks like a request wedged since the epoch: the pool parent
        # would SIGKILL a healthy worker over it.
        ledger = InflightLedger(workers=1)
        try:
            pid = os.fork()
            if pid == 0:  # child: the worker side, hammering its slot
                try:
                    slot = ledger.slot(0)
                    stop = time.monotonic() + 1.5
                    while time.monotonic() < stop:
                        slot.begin("poison?")
                        slot.done()
                finally:
                    os._exit(0)
            torn = seen = 0
            while os.waitpid(pid, os.WNOHANG) == (0, 0):
                record = ledger.read(0)
                if record is not None and record["inflight"] > 0:
                    seen += 1
                    torn += record["last_activity"] == 0.0
            assert seen > 0
            assert torn == 0, f"{torn} of {seen} in-flight reads were torn"
        finally:
            ledger.close()


class TestGuardInjection:
    def test_crash_channel_is_hash_pure_and_kills_the_worker(
        self, seeded, fake_exit
    ):
        config, root, domains = seeded
        service = InferenceService(config, ArtifactStore(root))
        plan = resolve_plan("serve.worker.crash=1.0", 3)
        assert isinstance(plan, FaultPlan) and plan.serve_active
        guard = ServeGuard(plan=plan, slot=0)
        request = {"op": "who-has", "domain": domains[0], "corpus": "alexa"}
        with pytest.raises(_FakeExit) as excinfo:
            guard.dispatch(service, request, handle_request)
        assert excinfo.value.code == 113  # EXIT_INJECTED_CRASH
        # Control ops never roll the channel.
        assert guard.dispatch(service, {"op": "ping"}, handle_request)["ok"]

    def test_zero_rate_plan_never_fires(self, seeded):
        config, root, domains = seeded
        service = InferenceService(config, ArtifactStore(root))
        # A measurement-channel-only plan has no serving channels active.
        guard = ServeGuard(plan=resolve_plan("dns.timeout=0.5", 3))
        reply = guard.dispatch(
            service,
            {"op": "who-has", "domain": domains[0], "corpus": "alexa"},
            handle_request,
        )
        assert reply["ok"] is True


class TestPendingWal:
    def _journal(self, tmp_path, events):
        journal = RunJournal(tmp_path, "r-wal")
        for event, fields in events:
            journal.append(event, **fields)
        journal.close()
        return journal.path

    def test_matched_pairs_leave_nothing_pending(self, tmp_path):
        path = self._journal(tmp_path, [
            ("ingest.wal.begin", {"snapshot": 5, "corpora": ["alexa"]}),
            ("ingest.wal.commit", {"snapshot": 5, "corpora": ["alexa"]}),
        ])
        assert pending_wal(path) == []

    def test_dangling_begin_is_pending(self, tmp_path):
        path = self._journal(tmp_path, [
            ("ingest.wal.begin", {"snapshot": 5, "corpora": ["alexa"]}),
            ("ingest.wal.commit", {"snapshot": 5, "corpora": ["alexa"]}),
            ("ingest.wal.begin", {"snapshot": 6, "corpora": ["alexa", "com"]}),
        ])
        pending = pending_wal(path)
        assert len(pending) == 1 and pending[0]["snapshot"] == 6

    def test_journaled_failure_closes_the_intent(self, tmp_path):
        path = self._journal(tmp_path, [
            ("ingest.wal.begin", {"snapshot": 6, "corpora": ["alexa"]}),
            ("ingest.wal.failed",
             {"snapshot": 6, "corpora": ["alexa"], "error": "boom"}),
        ])
        assert pending_wal(path) == []

    def test_torn_final_line_is_tolerated(self, tmp_path):
        path = self._journal(tmp_path, [
            ("ingest.wal.begin", {"snapshot": 3, "corpora": ["gov"]}),
        ])
        with open(path, "a") as handle:
            handle.write('{"event": "ingest.wal.com')  # killed mid-append
        pending = pending_wal(path)
        assert len(pending) == 1 and pending[0]["snapshot"] == 3

    def test_missing_journal_is_empty(self, tmp_path):
        assert pending_wal(tmp_path / "never-written.jsonl") == []


def _private_store(root, tmp_path):
    private = tmp_path / "store"
    shutil.copytree(root, private)
    return ArtifactStore(str(private))


class TestWalRecovery:
    def test_replay_restores_byte_identical_artifacts(self, seeded, tmp_path):
        config, root, _domains = seeded
        store = _private_store(root, tmp_path)
        latest = NUM_SNAPSHOTS - 1
        key = cache_key(config, DatasetTag.ALEXA, latest, KIND_PRIORITY)
        expected = store.read(key)
        assert expected is not None
        # Simulate a SIGKILL mid-ingest: the intent landed, the result
        # artifact did not, and no commit was written.
        store.discard(key)
        journal = RunJournal(tmp_path / "run", new_run_id())
        journal.append(
            "ingest.wal.begin", snapshot=latest, corpora=["alexa"]
        )
        service = InferenceService(
            config, store, journal=journal, watch_generation=True
        )
        assert service.readiness()["ready"] is False
        outcome = service.recover()
        assert outcome == {"replayed": 1, "failed": 0}
        assert service.readiness()["ready"] is True
        assert store.read(key) == expected  # byte-identical to undisturbed
        kinds = [event["event"] for event in read_events(journal.path)]
        assert "ingest.wal.replay" in kinds
        assert "ingest.wal.commit" in kinds
        assert pending_wal(journal.path) == []  # replay closed the intent
        for event in read_events(journal.path):
            assert validate(event, JOURNAL_EVENT_SCHEMA) == []

    def test_recover_without_pending_work_is_a_noop(self, seeded, tmp_path):
        config, root, _domains = seeded
        journal = RunJournal(tmp_path / "run", new_run_id())
        service = InferenceService(
            config, ArtifactStore(root), journal=journal
        )
        assert service.recover() == {"replayed": 0, "failed": 0}
        assert service.readiness()["ready"] is True


class TestIngestCrashInjection:
    def test_killed_ingest_replays_to_identical_bytes(
        self, seeded, tmp_path, fake_exit
    ):
        config, root, _domains = seeded
        store = _private_store(root, tmp_path)
        latest = NUM_SNAPSHOTS - 1
        key = cache_key(config, DatasetTag.ALEXA, latest, KIND_PRIORITY)
        expected = store.read(key)
        store.discard(key)
        plan = resolve_plan("ingest.crash=1.0", 11)
        journal = RunJournal(tmp_path / "run", new_run_id())
        crashed = InferenceService(
            config, store, journal=journal, fault_plan=plan
        )
        with pytest.raises(_FakeExit):  # dies right after the WAL begin
            crashed.ingest(latest, "alexa")
        assert store.read(key) is None  # nothing was published
        assert len(pending_wal(journal.path)) == 1
        # Restart WITH the same fault plan: replay suppresses the channel
        # (the roll that killed the original must not kill every replay).
        restarted = InferenceService(
            config, store, journal=journal, fault_plan=plan
        )
        outcome = restarted.recover()
        assert outcome == {"replayed": 1, "failed": 0}
        assert store.read(key) == expected
        assert pending_wal(journal.path) == []


class TestConsistencyBarrier:
    def test_queries_racing_an_ingest_never_see_a_torn_map(
        self, seeded, tmp_path
    ):
        """Satellite 3: in-flight ingest is invisible until it commits.

        The latest alexa result is removed, then queries race a live
        ingest of that snapshot.  Every racing query must see either the
        old world (no-artifact) or the new world (the exact final map)
        — never a partially-updated live state.
        """
        config, root, _domains = seeded
        store = _private_store(root, tmp_path)
        latest = NUM_SNAPSHOTS - 1
        key = cache_key(config, DatasetTag.ALEXA, latest, KIND_PRIORITY)
        expected = store.read(key)
        store.discard(key)
        service = InferenceService(config, store)
        barrier = threading.Barrier(3)
        done = threading.Event()
        observations: list[tuple] = []
        failures: list[BaseException] = []
        from repro.store import ResultView

        final_view = ResultView(expected)

        def query_loop():
            barrier.wait(10)
            while not done.is_set():
                try:
                    reply = service.provider_stats("alexa", latest)
                    observations.append(("stats", reply["domains"]))
                except ServiceError as error:
                    if error.code != "no-artifact":
                        failures.append(error)
                    observations.append(("miss", None))
                except BaseException as error:  # noqa: BLE001
                    failures.append(error)

        def ingest_thread():
            barrier.wait(10)
            try:
                service.ingest(latest, "alexa")
            finally:
                done.set()

        threads = [
            threading.Thread(target=query_loop),
            threading.Thread(target=query_loop),
            threading.Thread(target=ingest_thread),
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(120)
        assert not failures, failures
        assert observations  # the race actually ran queries
        assert store.read(key) == expected  # publish is byte-identical
        final_stats = final_view.provider_stats()
        for kind, domains in observations:
            if kind == "stats":
                # Any successful answer IS the committed new world —
                # atomic flip, no intermediate domain counts.
                assert domains == final_stats["domains"]
        # After the dust settles the live state serves the same answer.
        settled = service.provider_stats("alexa", latest)
        assert settled["domains"] == final_stats["domains"]


_POOL_TIMEOUT = 120


class TestWorkerPool:
    @pytest.fixture()
    def pool(self, seeded, tmp_path):
        """A real `repro serve --workers 2` subprocess over the store."""
        config, root, _domains = seeded
        socket_path = str(tmp_path / "pool.sock")
        run_dir = str(tmp_path / "run")
        process = subprocess.Popen(
            [
                sys.executable, "-m", "repro", "serve", "run",
                "--workers", "2",
                "--socket", socket_path,
                "--cache-dir", root,
                "--seed", str(config.seed),
                "--scale", "0.25",
                "--run-dir", run_dir,
                "--restart-budget", "8",
            ],
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            env={**os.environ, "PYTHONPATH": "src"},
            cwd="/root/repo",
            text=True,
        )
        try:
            yield process, socket_path, run_dir
        finally:
            if process.poll() is None:
                process.terminate()
                try:
                    process.wait(timeout=15)
                except subprocess.TimeoutExpired:
                    process.kill()
                    process.wait()

    def _events(self, run_dir):
        path = os.path.join(run_dir, "journal.jsonl")
        if not os.path.exists(path):
            return []
        return read_events(path)

    def test_pool_survives_a_worker_sigkill(self, seeded, pool):
        _config, _root, domains = seeded
        process, socket_path, run_dir = pool
        target = ("socket", socket_path)
        wait_until_healthy(target, timeout=60)

        def worker_pids():
            return {
                event["pid"]
                for event in self._events(run_dir)
                if event["event"] == "serve.worker.start"
            }

        wait_for(lambda: len(worker_pids()) >= 2, timeout=60,
                 message="two workers journaled serve.worker.start")
        request = {"op": "who-has", "domain": domains[0], "corpus": "alexa"}
        reply = rpc_retry(target, request)
        assert reply["ok"] is True

        victim = sorted(worker_pids())[0]
        os.kill(victim, signal.SIGKILL)
        wait_for(
            lambda: any(
                event["event"] == "serve.worker.lost"
                for event in self._events(run_dir)
            ),
            timeout=30, message="supervisor journaled serve.worker.lost",
        )
        wait_for(
            lambda: any(
                event["event"] == "serve.worker.restart"
                for event in self._events(run_dir)
            ),
            timeout=30, message="supervisor journaled serve.worker.restart",
        )
        # The pool still serves: retried requests land on a live worker.
        for _ in range(5):
            reply = rpc_retry(target, request, timeout=30)
            assert reply["ok"] is True, reply

        # /readyz answers through the pool too.
        ready = rpc_retry(target, {"op": "ready"}, timeout=30)
        assert ready["ok"] is True and ready["result"]["ready"] is True

        # Graceful stop drains the whole pool with exit code 0.
        stop = rpc(target, {"op": "shutdown"}, timeout=30)
        assert stop["ok"] is True
        assert process.wait(timeout=_POOL_TIMEOUT) == 0
        events = self._events(run_dir)
        kinds = [event["event"] for event in events]
        for expected in ("serve.start", "serve.ready", "serve.worker.start",
                         "serve.worker.lost", "serve.worker.restart",
                         "serve.stop"):
            assert expected in kinds, kinds
        for event in events:
            assert validate(event, JOURNAL_EVENT_SCHEMA) == [], event
