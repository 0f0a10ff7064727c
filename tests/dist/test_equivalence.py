"""The dist executor's headline guarantee: bit-identical output.

A differential matrix over hosts ∈ {1, 2, 4} × jobs ∈ {1, 2} × kill ∈
{none, one-worker, whole-host}: every combination must gather to bytes
identical to the serial reference (``gatherer.gather`` over the whole
target list), even when a worker attempt is fault-injected dead or an
entire host is SIGKILLed mid-lease.  Worker hosts are real forked
processes speaking the socket protocol — the only test double is the
gatherer they run, shared with the serial reference via fork.

Targeted scenarios on top of the matrix: work-stealing from a slow
host, the ``host.netsplit`` fault channel (silent host, heartbeat-
timeout recovery), the ``host.crash`` channel, and one end-to-end CLI
run (``repro dist coordinator`` + 2 ``repro dist worker`` processes)
compared against plain ``repro`` on stdout and artifact-store bytes.
"""

import hashlib
import itertools
import multiprocessing
import os
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

from repro.dist import DistCoordinator, DistWorker
from repro.dist.worker import EXIT_HOST_NETSPLIT
from repro.engine.sharding import merge_shard_results, split_shards
from repro.engine.stats import STATS
from repro.faults import FaultPlan
from repro.resilience import (
    GatherSupervision,
    SupervisorOptions,
    supervised_gather,
)
from repro.resilience.supervisor import _roll
from repro.store.codec import encode_measurements
from repro.world.entities import DatasetTag

from conftest import wait_for

needs_fork = pytest.mark.skipif(
    os.name != "posix"
    or "fork" not in multiprocessing.get_all_start_methods(),
    reason="dist workers fork the test process",
)

REPO = Path(__file__).resolve().parents[2]

HOST_COUNTS = (1, 2, 4)
JOB_COUNTS = (1, 2)
KILLS = ("none", "worker", "host")
N_DOMAINS = 80

#: Unique host-name prefix per dist run, so per-host STATS counters and
#: journal events never collide across tests in one session.
_RUN_SEQ = itertools.count(1)


class SlowGatherer:
    """Delays each shard gather so kills land provably mid-flight."""

    def __init__(self, inner, delay: float):
        self.inner = inner
        self.delay = delay

    def gather(self, shard, snapshot_index):
        time.sleep(self.delay)
        return self.inner.gather(shard, snapshot_index)


def _worker_main(socket_path, host_id, gatherer, delay, plan):
    if delay:
        gatherer = SlowGatherer(gatherer, delay)
    worker = DistWorker(socket_path, host_id=host_id, pool=1,
                        gatherer=gatherer, plan=plan)
    worker.run()


def spawn_worker(socket_path, host_id, gatherer, delay=0.0, plan=None):
    proc = multiprocessing.get_context("fork").Process(
        target=_worker_main,
        args=(socket_path, host_id, gatherer, delay, plan),
        daemon=True,
    )
    proc.start()
    return proc


def counters() -> dict:
    return STATS.snapshot()["counters"]


def pick_crash_seed(scope_key: str, shard_count: int, rate: float,
                    max_attempts: int) -> int:
    """A seed whose worker.crash rolls fire at least once but never
    quarantine — computed from the same pure rolls the workers use."""
    for seed in range(1, 500):
        plan = FaultPlan.parse(f"worker.crash={rate},seed={seed}")
        fires = any(
            _roll(plan, "worker.crash", scope_key, shard, 1)
            for shard in range(shard_count)
        )
        survivable = all(
            any(
                not _roll(plan, "worker.crash", scope_key, shard, attempt)
                for attempt in range(1, max_attempts + 1)
            )
            for shard in range(shard_count)
        )
        if fires and survivable:
            return seed
    pytest.fail("no worker.crash seed fires without quarantining")


@pytest.fixture(scope="module")
def reference(ctx, last_snapshot):
    """The serial reference: one whole-list gather, encoded."""
    domains = ctx.domains(DatasetTag.ALEXA)[:N_DOMAINS]
    expected = ctx.gatherer.gather(list(domains), last_snapshot)
    return domains, last_snapshot, canonical_bytes(expected)


def canonical_bytes(measurements: dict) -> bytes:
    """Encoded bytes of a merged gather.  The codec writes rows by value,
    so shard boundaries must leave no trace in the stored artifact."""
    return encode_measurements(measurements)


def run_dist_gather(
    ctx, tmp_path, domains, snapshot, *,
    hosts, shards, kill="none", faults_spec=None, steal_after=None,
    delay=0.0, worker_delays=None, worker_plans=None, max_restarts=4,
    min_hosts=None, stagger=False,
):
    """One distributed gather against forked worker-host processes.

    Returns (results, timings).  ``kill="host"`` SIGKILLs whichever host
    is first granted a lease, then (when it was the only host) starts a
    replacement — elastic join mid-run.  ``stagger=True`` holds the
    later hosts back until host 0 provably holds a lease (requires
    ``min_hosts=1`` so the quorum gate doesn't deadlock the stagger).
    """
    token = f"eq{next(_RUN_SEQ)}"
    host_ids = [f"{token}-h{i}" for i in range(hosts)]
    socket_path = str(tmp_path / "dist.sock")
    coordinator = DistCoordinator(
        socket_path=socket_path,
        heartbeat_timeout=4.0,
        heartbeat_interval=0.1,
        steal_after=steal_after,
        min_hosts=hosts if min_hosts is None else min_hosts,
        stall_timeout=120,
    )
    coordinator.configure(faults_spec=faults_spec)
    coordinator.start()
    procs = []

    def launch(index):
        plan = worker_plans[index] if worker_plans else None
        host_delay = (
            worker_delays[index] if worker_delays is not None else delay
        )
        procs.append(
            spawn_worker(socket_path, host_ids[index], ctx.gatherer,
                         delay=host_delay, plan=plan)
        )

    try:
        for index in range(1 if stagger else hosts):
            launch(index)
        supervision = GatherSupervision(
            options=SupervisorOptions(max_restarts=max_restarts),
            scope=("alexa", snapshot),
            dist=coordinator,
        )
        outcome = {}

        def gather():
            try:
                outcome["value"] = supervised_gather(
                    ctx.gatherer, shards, snapshot,
                    executor="process", supervision=supervision,
                )
            except BaseException as error:  # surfaced to the test thread
                outcome["error"] = error

        runner = threading.Thread(target=gather, daemon=True)
        runner.start()

        if stagger:
            wait_for(
                lambda: counters().get(
                    f"dist.host.{host_ids[0]}.leases", 0
                ) >= 1,
                timeout=30, message="host 0 to hold its first lease",
            )
            for index in range(1, hosts):
                launch(index)

        if kill == "host":
            def first_leased_host():
                granted = counters()
                for index, host_id in enumerate(host_ids):
                    if granted.get(f"dist.host.{host_id}.leases", 0) >= 1:
                        return index + 1  # 1-based: 0 means "none yet"
                return 0

            victim = wait_for(
                first_leased_host, timeout=30,
                message="a host to be granted its first lease",
            ) - 1
            os.kill(procs[victim].pid, signal.SIGKILL)
            procs[victim].join(timeout=10)
            if hosts == 1:
                # The fleet is empty — a fresh host joins mid-run and
                # picks the released shards straight up.
                procs.append(
                    spawn_worker(socket_path, f"{token}-spare",
                                 ctx.gatherer, delay=delay)
                )

        runner.join(timeout=180)
        assert not runner.is_alive(), "dist gather never completed"
        if "error" in outcome:
            raise outcome["error"]
        return outcome["value"]
    finally:
        coordinator.close()
        for proc in procs:
            proc.join(timeout=10)
            if proc.is_alive():
                proc.terminate()
                proc.join(timeout=5)


@needs_fork
class TestDistEquivalenceMatrix:
    @pytest.mark.parametrize("kill", KILLS)
    @pytest.mark.parametrize("jobs", JOB_COUNTS)
    @pytest.mark.parametrize("hosts", HOST_COUNTS)
    def test_bit_identical(self, ctx, reference, tmp_path, hosts, jobs, kill):
        domains, snapshot, expected = reference
        shards = split_shards(domains, jobs)
        faults_spec = None
        if kill == "worker":
            seed = pick_crash_seed(
                f"alexa:{snapshot}", len(shards), rate=0.5, max_attempts=5
            )
            faults_spec = f"worker.crash=0.5,seed={seed}"
        before = counters()
        results, timings = run_dist_gather(
            ctx, tmp_path, domains, snapshot,
            hosts=hosts, shards=shards, kill=kill,
            faults_spec=faults_spec,
            delay=0.3 if kill == "host" else 0.0,
        )
        after = counters()
        assert len(results) == len(shards)
        assert len(timings) == len(shards)
        merged = merge_shard_results(results)
        assert list(merged) == list(domains)  # serial key order, exactly
        assert canonical_bytes(merged) == expected
        if kill == "worker":
            crashed = (after.get("resilience.worker.crash", 0)
                       - before.get("resilience.worker.crash", 0))
            assert crashed >= 1, "injected worker.crash never fired"
        if kill == "host":
            lost = (after.get("dist.host.lost", 0)
                    - before.get("dist.host.lost", 0))
            assert lost >= 1, "SIGKILLed host was never declared lost"


@needs_fork
class TestDistScenarios:
    def test_work_stealing_from_slow_host(self, ctx, reference, tmp_path):
        """A fast host steals the slow host's tail shard; bytes match."""
        domains, snapshot, expected = reference
        shards = split_shards(domains, 4)
        before = counters()
        results, _ = run_dist_gather(
            ctx, tmp_path, domains, snapshot,
            hosts=2, shards=shards, steal_after=0.3,
            # Host 0 sleeps 4s per shard; host 1 joins only once host 0
            # provably holds a lease (stagger), then drains the pending
            # shards and — out of work while host 0 still sleeps — must
            # steal to finish.  First completion wins, so the duplicate
            # compute never shows in the output bytes.
            worker_delays=[4.0, 0.0],
            min_hosts=1, stagger=True,
        )
        assert canonical_bytes(merge_shard_results(results)) == expected
        stolen = (counters().get("dist.lease.stolen", 0)
                  - before.get("dist.lease.stolen", 0))
        assert stolen >= 1, "fast host never stole the slow host's shard"

    def test_netsplit_host_recovered_by_heartbeat_timeout(
        self, ctx, reference, tmp_path
    ):
        """A silent (netsplit) host is reaped and its shards re-leased."""
        domains, snapshot, expected = reference
        shards = split_shards(domains, 2)
        # Only host 0 carries the netsplit plan: it goes silent on its
        # first lease, holding its socket open, so the coordinator must
        # recover through the heartbeat timeout — not EOF.
        netsplit = FaultPlan.parse("host.netsplit=1.0,seed=1")
        token = f"net{next(_RUN_SEQ)}"
        socket_path = str(tmp_path / "dist.sock")
        coordinator = DistCoordinator(
            socket_path=socket_path,
            heartbeat_timeout=0.6,
            heartbeat_interval=0.1,
            steal_after=None,
            min_hosts=1,
            stall_timeout=120,
        )
        coordinator.configure()
        coordinator.start()
        procs = []
        before = counters()
        try:
            procs.append(spawn_worker(
                socket_path, f"{token}-h0", ctx.gatherer, plan=netsplit
            ))
            supervision = GatherSupervision(
                options=SupervisorOptions(max_restarts=3),
                scope=("alexa", snapshot),
                dist=coordinator,
            )
            outcome = {}

            def gather():
                try:
                    outcome["value"] = supervised_gather(
                        ctx.gatherer, shards, snapshot,
                        executor="process", supervision=supervision,
                    )
                except BaseException as error:  # surfaced to the test thread
                    outcome["error"] = error

            runner = threading.Thread(target=gather, daemon=True)
            runner.start()
            # Host 1 joins only once host 0 holds a lease.  Joined any
            # earlier, it can drain both shards while host 0 sleeps
            # between lease requests, and host 0 then never goes silent.
            wait_for(
                lambda: counters().get(f"dist.host.{token}-h0.leases", 0) >= 1,
                timeout=30, message="host 0 to hold its first lease",
            )
            procs.append(spawn_worker(socket_path, f"{token}-h1", ctx.gatherer))
            runner.join(timeout=180)
            assert not runner.is_alive(), "dist gather never completed"
            if "error" in outcome:
                raise outcome["error"]
            results, _ = outcome["value"]
            assert canonical_bytes(merge_shard_results(results)) == expected
            lost = (counters().get("dist.host.lost", 0)
                    - before.get("dist.host.lost", 0))
            assert lost >= 1, "netsplit host was never reaped"
            procs[0].join(timeout=10)
            assert procs[0].exitcode == EXIT_HOST_NETSPLIT
        finally:
            coordinator.close()
            for proc in procs:
                proc.join(timeout=10)
                if proc.is_alive():
                    proc.terminate()
                    proc.join(timeout=5)

    def test_host_crash_channel_kills_whole_process(
        self, ctx, reference, tmp_path
    ):
        """host.crash exits the host process; EOF recovery re-leases."""
        domains, snapshot, expected = reference
        shards = split_shards(domains, 2)
        crash = FaultPlan.parse("host.crash=1.0,seed=1")
        results, _ = run_dist_gather(
            ctx, tmp_path, domains, snapshot,
            hosts=2, shards=shards,
            worker_plans=[crash, None],
        )
        assert canonical_bytes(merge_shard_results(results)) == expected


@needs_fork
class TestCliDist:
    """End to end: coordinator verb + worker processes vs plain repro."""

    def _env(self):
        env = dict(os.environ)
        env["PYTHONPATH"] = str(REPO / "src")
        env.pop("REPRO_CACHE", None)
        env.pop("REPRO_JOBS", None)
        env.pop("REPRO_RUNS", None)
        return env

    def _store_digests(self, root: Path) -> dict[str, str]:
        return {
            str(path.relative_to(root)):
                hashlib.sha256(path.read_bytes()).hexdigest()
            for path in sorted(root.glob("*/*.rsto"))
        }

    def test_dist_cli_matches_serial(self, tmp_path):
        env = self._env()
        ref_cache = tmp_path / "ref-cache"
        dist_cache = tmp_path / "dist-cache"
        socket_path = tmp_path / "dist.sock"

        serial = subprocess.run(
            [sys.executable, "-m", "repro", "tab4", "--scale", "0.15",
             "--jobs", "2", "--cache-dir", str(ref_cache)],
            env=env, capture_output=True, timeout=180,
        )
        assert serial.returncode == 0, serial.stderr.decode(errors="replace")

        coordinator = subprocess.Popen(
            [sys.executable, "-m", "repro", "dist", "coordinator",
             "--socket", str(socket_path), "--hosts", "2",
             "--heartbeat-interval", "0.1", "--stall-timeout", "60", "--",
             "tab4", "--scale", "0.15", "--jobs", "2",
             "--cache-dir", str(dist_cache)],
            env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        )
        workers = []
        try:
            wait_for(socket_path.exists, timeout=60,
                     message="the coordinator socket to appear")
            workers = [
                subprocess.Popen(
                    [sys.executable, "-m", "repro", "dist", "worker",
                     "--connect", str(socket_path), "--host-id", f"cli-w{i}"],
                    env=env, stdout=subprocess.DEVNULL,
                    stderr=subprocess.DEVNULL,
                )
                for i in range(2)
            ]
            stdout, stderr = coordinator.communicate(timeout=180)
        finally:
            if coordinator.poll() is None:
                coordinator.kill()
                coordinator.communicate()
            for worker in workers:
                try:
                    worker.wait(timeout=30)
                except subprocess.TimeoutExpired:
                    worker.kill()
                    worker.wait()

        assert coordinator.returncode == 0, stderr.decode(errors="replace")
        assert b"dist coordinator listening" in stderr
        assert stdout == serial.stdout  # byte-identical tables
        assert self._store_digests(dist_cache) == self._store_digests(ref_cache)
