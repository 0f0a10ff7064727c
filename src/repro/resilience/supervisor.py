"""Worker supervision: crash-, hang-, and poison-aware shard execution.

This is the one way a sharded gather runs (``engine.parallel`` keeps
only a serial shortcut for ``jobs <= 1`` and tiny target lists).  At
campaign scale a worker fails routinely — it segfaults, the OOM killer
picks it off, a shard wedges behind a pathological target — and a plain
pool turns any of those into either a deadlock or an opaque
``BrokenProcessPool`` that throws away every completed shard.  The
supervisor instead:

* runs each shard in its own forked ``multiprocessing.Process`` with a
  private result pipe, so one dying worker cannot corrupt its siblings'
  channels;
* blocks on those pipes and the workers' exit sentinels, so a result or
  a crash is handled the moment it arrives, and reassigns crashed
  workers' shards under a bounded restart budget;
* an optional per-shard deadline turns stragglers into detected hangs:
  the worker is killed and the shard reassigned, with the same budget;
* a shard that keeps killing workers is **quarantined** — the run fails
  fast with a diagnosis naming the shard and every failure it caused,
  instead of hanging or silently dropping data;
* completed shards are checkpointed write-through (via ``repro.store``)
  and journaled the moment they are accepted, so a later SIGKILL of the
  parent loses at most in-flight work;
* duplicate completions (a "hung" worker finishing right as its
  replacement does) are accepted once: results by first arrival, stats
  deltas deduplicated via :meth:`EngineStats.merge_once`.

Supervision is a policy, not a mode.  A plain ``--jobs N`` run gets the
restarts, deadline and quarantine of its ``EngineOptions`` with no
journal, checkpoints or shutdown flag; a resilient run (``--run-dir``)
adds those three.  Shards run on one of three executors (the
:class:`~repro.engine.executor.ShardExecutor` seam): forked processes,
threads, or — when the bundle carries a dist coordinator — remote
worker hosts.

Results are still merged in shard order, so supervised gathers remain
bit-identical to serial ones — supervision changes *how* work executes,
never *what* it computes.

The deterministic ``worker.crash`` / ``worker.hang`` fault channels
(:mod:`repro.faults`) inject these failures on purpose: a roll keyed on
``(seed, channel, corpus:snapshot[:batch], shard, attempt)`` decides
whether a given attempt dies, so kill/resume differential tests replay
exactly.
"""

from __future__ import annotations

import itertools
import multiprocessing
import os
import time
import concurrent.futures
from dataclasses import dataclass, field
from multiprocessing.connection import wait
from typing import Callable, Sequence

from ..engine.executor import ShardExecutor
from ..engine.stats import STATS
from ..faults.inject import fault_roll
from ..obs import trace
from ..obs.log import get_logger
from .signals import RunInterrupted, ShutdownFlag

#: Exit code an injected worker.crash uses (distinguishable in journals).
EXIT_INJECTED_CRASH = 113
#: Exit code a worker uses after shipping an exception report.
EXIT_WORKER_ERROR = 114

#: Upper bound on how long an injected hang sleeps (keeps undetected
#: hangs — no deadline configured — from stalling a run forever).
MAX_HANG_SLEEP = 30.0

#: Longest the process monitor blocks between shutdown-flag checks
#: (seconds): a signal handler sets the flag but cannot wake the wait.
SHUTDOWN_CHECK_INTERVAL = 0.1

log = get_logger("resilience")

# Set immediately before forking supervised workers; children inherit it.
_FORK_GATHERER = None

# Unique id per supervised gather call — the dedup namespace for
# shard-assignment stats tokens (two gathers may reuse shard indices).
_GATHER_SEQ = itertools.count(1)


@dataclass(frozen=True)
class SupervisorOptions:
    """Budgets for the supervised gather path."""

    deadline: float | None = None   # per-shard seconds; None = no watchdog
    max_restarts: int = 2           # reassignments per shard before quarantine

    @property
    def max_attempts(self) -> int:
        return self.max_restarts + 1


@dataclass(frozen=True)
class GatherSupervision:
    """Everything a supervised gather needs beyond the target list."""

    options: SupervisorOptions = field(default_factory=SupervisorOptions)
    plan: object | None = None            # FaultPlan with worker channels, or None
    #: (corpus, snapshot) for rolls/journal, plus (batch index, batch
    #: count) under a streamed gather so rolls vary per batch.
    scope: tuple = ("", -1)
    checkpoint_factory: Callable[[int], object] | None = None  # shard_count -> bound
    journal: object | None = None         # RunJournal, or None
    shutdown: ShutdownFlag | None = None
    #: A repro.dist.DistCoordinator — when set, shards are leased to
    #: remote worker hosts instead of local processes/threads.
    dist: object | None = None


class ShardQuarantined(RuntimeError):
    """A shard exhausted its restart budget and was isolated.

    Carries the precise diagnosis: which shard, over which corpus and
    snapshot, and every failure it caused.  The CLI surfaces this as the
    run's terminal error — a poison shard fails the run loudly instead
    of hanging it or silently dropping its domains.
    """

    def __init__(
        self, corpus: str, snapshot: int, shard_index: int,
        attempts: int, reasons: Sequence[str],
    ):
        self.corpus = corpus
        self.snapshot = snapshot
        self.shard_index = shard_index
        self.attempts = attempts
        self.reasons = list(reasons)
        detail = "; ".join(self.reasons) or "no failure detail recorded"
        super().__init__(
            f"poison shard quarantined: {corpus}[s{snapshot}] shard "
            f"#{shard_index} failed {attempts} attempt(s) — {detail}"
        )


def _roll(plan, channel: str, scope_key: str, index: int, attempt: int) -> bool:
    """One deterministic worker-fault decision (pure, no counters)."""
    if plan is None:
        return False
    rate = getattr(plan, channel.replace(".", "_"), 0.0)
    if rate <= 0.0:
        return False
    return fault_roll(plan.seed, channel, scope_key, index, attempt) < rate


def _hang_sleep(options: SupervisorOptions) -> float:
    if options.deadline is not None and options.deadline > 0:
        return min(options.deadline * 4.0, MAX_HANG_SLEEP)
    return min(2.0, MAX_HANG_SLEEP)


def _process_worker(
    conn, index: int, shard, snapshot_index: int, attempt: int,
    scope_key: str, plan, hang_sleep: float,
) -> None:
    """Forked child: gather one shard, ship (result, stats, spans) back.

    Injected faults fire before any work, so a crashed attempt wastes no
    gathering and the retry recomputes the identical shard.
    """
    try:
        if _roll(plan, "worker.hang", scope_key, index, attempt):
            time.sleep(hang_sleep)
        if _roll(plan, "worker.crash", scope_key, index, attempt):
            conn.close()
            os._exit(EXIT_INJECTED_CRASH)
        baseline = STATS.snapshot()
        mark = trace.mark()
        started = time.perf_counter()
        with trace.span(
            f"gather.shard{index}", cat="shard", targets=len(shard), attempt=attempt
        ):
            result = _FORK_GATHERER.gather(shard, snapshot_index)
        elapsed = time.perf_counter() - started
        conn.send(
            ("ok", index, attempt, result, elapsed,
             STATS.delta_since(baseline), trace.drain_new(mark))
        )
        conn.close()
    except BaseException:  # ship the traceback; never hang the parent
        import traceback as tb

        try:
            conn.send(("error", index, attempt, tb.format_exc(limit=20)))
            conn.close()
        finally:
            os._exit(EXIT_WORKER_ERROR)


class _ShardLedger:
    """Book-keeping shared by both executor flavours of one gather."""

    def __init__(self, supervision: GatherSupervision, shard_count: int, checkpoint):
        self.supervision = supervision
        self.corpus, self.snapshot = supervision.scope[:2]
        self.scope_key = ":".join(str(part) for part in supervision.scope)
        self.checkpoint = checkpoint
        self.gather_id = next(_GATHER_SEQ)
        self.results: dict[int, object] = {}
        self.timings: dict[int, float] = {}
        self.failures: dict[int, list[str]] = {}
        self.shard_count = shard_count

    # -- journal helpers -------------------------------------------------

    def journal(self, event: str, **fields) -> None:
        if self.supervision.journal is not None:
            self.supervision.journal.append(
                event, corpus=self.corpus, snapshot=self.snapshot, **fields
            )

    # -- lifecycle -------------------------------------------------------

    def restore(self, index: int) -> bool:
        """Load a checkpointed shard result; True when restored."""
        if self.checkpoint is None:
            return False
        result = self.checkpoint.load(index)
        if result is None:
            return False
        self.results[index] = result
        STATS.inc("resilience.shard.restored")
        self.journal("shard.restored", shard=index)
        return True

    def accept(self, index: int, attempt: int, result, elapsed: float,
               stats_delta: dict | None = None, events=None) -> bool:
        """Record one shard completion; False for a duplicate arrival."""
        if index in self.results:
            STATS.inc("resilience.shard.duplicate")
            return False
        self.results[index] = result
        self.timings[index] = elapsed
        if stats_delta is not None:
            STATS.merge_once(f"g{self.gather_id}:{index}", stats_delta)
        if events:
            trace.adopt(events)
        STATS.inc("resilience.shard.completed")
        if self.checkpoint is not None:
            self.checkpoint.save(index, result)
            STATS.inc("resilience.shard.checkpointed")
        self.journal(
            "shard.done", shard=index, attempt=attempt, seconds=round(elapsed, 4)
        )
        return True

    def fail(self, index: int, attempt: int, kind: str, reason: str) -> None:
        """Record one failed attempt; raises once the budget is spent."""
        options = self.supervision.options
        self.failures.setdefault(index, []).append(reason)
        STATS.inc(f"resilience.worker.{kind}")
        self.journal(f"shard.{kind}", shard=index, attempt=attempt, reason=reason)
        log.warning(
            "resilience.shard_failure",
            extra={"fields": {
                "corpus": self.corpus, "snapshot": self.snapshot,
                "shard": index, "attempt": attempt, "kind": kind,
            }},
        )
        if attempt >= options.max_attempts:
            STATS.inc("resilience.shard.quarantined")
            self.journal(
                "shard.quarantined", shard=index, attempts=attempt,
                reasons=self.failures[index],
            )
            raise ShardQuarantined(
                self.corpus, self.snapshot, index, attempt, self.failures[index]
            )
        STATS.inc("resilience.worker.restart")

    def raise_if_shutdown(self) -> None:
        flag = self.supervision.shutdown
        if flag is not None:
            flag.raise_if_set()


def supervised_gather(
    gatherer,
    shards: Sequence[list],
    snapshot_index: int,
    *,
    executor: "str | ShardExecutor",
    supervision: GatherSupervision,
) -> tuple[list, list[float]]:
    """Gather *shards* under supervision; returns (results, timings).

    Results come back in shard order (the bit-identical merge contract);
    timings cover only shards actually gathered this call — restored
    checkpoints do not distort imbalance statistics.

    *executor* is ``"process"`` or ``"thread"``; a supervision bundle
    carrying a dist coordinator overrides it with the coordinator's
    executor.
    """
    checkpoint = None
    if supervision.checkpoint_factory is not None:
        checkpoint = supervision.checkpoint_factory(len(shards))
    ledger = _ShardLedger(supervision, len(shards), checkpoint)
    ledger.raise_if_shutdown()
    pending = [
        (index, shard)
        for index, shard in enumerate(shards)
        if not ledger.restore(index)
    ]
    if pending:
        if supervision.dist is not None:
            backend = supervision.dist.executor()
        else:
            backend = _LOCAL_EXECUTORS[executor]
        backend.run(gatherer, pending, snapshot_index, ledger)
    ordered = [ledger.results[index] for index in range(len(shards))]
    timings = [ledger.timings[index] for index in sorted(ledger.timings)]
    return ordered, timings


# -- process executor ----------------------------------------------------


def _run_process(gatherer, pending, snapshot_index, ledger: _ShardLedger) -> None:
    global _FORK_GATHERER
    supervision = ledger.supervision
    options = supervision.options
    context = multiprocessing.get_context("fork")
    hang_sleep = _hang_sleep(options)
    shard_of = dict(pending)
    attempts = {index: 0 for index, _ in pending}
    active: dict[int, tuple] = {}  # index -> (proc, conn, attempt, started)

    def launch(index: int) -> None:
        attempts[index] += 1
        attempt = attempts[index]
        parent_conn, child_conn = context.Pipe(duplex=False)
        proc = context.Process(
            target=_process_worker,
            args=(child_conn, index, shard_of[index], snapshot_index, attempt,
                  ledger.scope_key, supervision.plan, hang_sleep),
            daemon=True,
        )
        proc.start()
        child_conn.close()
        active[index] = (proc, parent_conn, attempt, time.perf_counter())
        ledger.journal("shard.start", shard=index, attempt=attempt)

    def retire(index: int, kill: bool = False) -> None:
        proc, conn, _attempt, _started = active.pop(index)
        if kill and proc.is_alive():
            proc.kill()
        proc.join()
        try:
            conn.close()
        except OSError:
            pass

    def drain(index: int):
        """A worker's message if one is ready, else None."""
        _proc, conn, _attempt, _started = active[index]
        if not conn.poll():
            return None
        try:
            return conn.recv()
        except (EOFError, OSError):
            return ()  # died mid-send: poll() said readable, recv failed

    _FORK_GATHERER = gatherer
    try:
        for index, _shard in pending:
            launch(index)
        while active:
            if supervision.shutdown is not None and supervision.shutdown.is_set():
                _flush_on_shutdown(active, ledger, retire, drain)
                raise RunInterrupted(supervision.shutdown.signal_name or "signal")
            # Sleep until a pipe has data (a result, or EOF from a dead
            # worker), a worker exits, or the nearest deadline falls due.
            handles, timeout = [], SHUTDOWN_CHECK_INTERVAL
            for proc, conn, _attempt, started in active.values():
                handles += (conn, proc.sentinel)
                if options.deadline is not None:
                    due = started + options.deadline - time.perf_counter()
                    timeout = min(timeout, due)
            wait(handles, max(0.0, timeout))
            for index in list(active):
                proc, conn, attempt, started = active[index]
                message = drain(index)
                if message is not None and message != ():
                    if message[0] == "ok":
                        _tag, _idx, m_attempt, result, elapsed, delta, events = message
                        ledger.accept(index, m_attempt, result, elapsed, delta, events)
                        retire(index)
                    else:  # ("error", index, attempt, traceback)
                        retire(index, kill=True)
                        ledger.fail(
                            index, attempt, "crash",
                            f"worker exception (attempt {attempt}): "
                            f"{message[3].strip().splitlines()[-1]}",
                        )
                        launch(index)
                    continue
                if message == ():  # pipe hit EOF: the worker died on us
                    proc.join(timeout=5.0)
                    exitcode = proc.exitcode
                    retire(index, kill=True)
                    ledger.fail(
                        index, attempt, "crash",
                        f"worker crashed (exit {exitcode}, attempt {attempt})",
                    )
                    launch(index)
                    continue
                if not proc.is_alive():
                    if conn.poll():
                        continue  # result landed between checks; next pass
                    exitcode = proc.exitcode
                    retire(index)
                    ledger.fail(
                        index, attempt, "crash",
                        f"worker crashed (exit {exitcode}, attempt {attempt})",
                    )
                    launch(index)
                    continue
                if (
                    options.deadline is not None
                    and time.perf_counter() - started > options.deadline
                ):
                    retire(index, kill=True)
                    ledger.fail(
                        index, attempt, "hung",
                        f"worker exceeded {options.deadline:g}s deadline "
                        f"(attempt {attempt})",
                    )
                    launch(index)
    finally:
        _FORK_GATHERER = None
        for index in list(active):
            retire(index, kill=True)


def _flush_on_shutdown(active, ledger, retire, drain) -> None:
    """Graceful interrupt: accept delivered results, kill the rest.

    Every result that already reached the parent is checkpointed before
    the workers die, so the printed resume command skips that work.
    """
    for index in list(active):
        _proc, _conn, attempt, _started = active[index]
        message = drain(index)
        if message and message[0] == "ok":
            _tag, _idx, m_attempt, result, elapsed, delta, events = message
            ledger.accept(index, m_attempt, result, elapsed, delta, events)
        retire(index, kill=True)


# -- thread executor -----------------------------------------------------


def _run_thread(gatherer, pending, snapshot_index, ledger: _ShardLedger) -> None:
    """Thread-flavoured supervision: restarts are in-place retries.

    Threads cannot be killed, so injected hangs are cooperative (the
    attempt sleeps, is counted as hung, and retries) and a genuine hang
    cannot be preempted — the process executor is the full story, this
    keeps crash/restart/quarantine and checkpoint semantics identical
    where fork is unavailable.
    """
    supervision = ledger.supervision
    options = supervision.options
    hang_sleep = _hang_sleep(options)

    def run_one(index: int, shard) -> None:
        for attempt in range(1, options.max_attempts + 1):
            ledger.raise_if_shutdown()
            ledger.journal("shard.start", shard=index, attempt=attempt)
            if _roll(supervision.plan, "worker.hang", ledger.scope_key, index, attempt):
                time.sleep(min(hang_sleep, options.deadline or hang_sleep))
                ledger.fail(
                    index, attempt, "hung",
                    f"worker hung past deadline (attempt {attempt})",
                )
                continue
            if _roll(supervision.plan, "worker.crash", ledger.scope_key, index, attempt):
                ledger.fail(
                    index, attempt, "crash",
                    f"injected worker crash (attempt {attempt})",
                )
                continue
            started = time.perf_counter()
            try:
                with trace.span(
                    f"gather.shard{index}", cat="shard",
                    targets=len(shard), attempt=attempt,
                ):
                    result = gatherer.gather(shard, snapshot_index)
            except Exception as error:
                ledger.fail(
                    index, attempt, "crash",
                    f"worker exception (attempt {attempt}): {error!r}",
                )
                continue
            ledger.accept(index, attempt, result, time.perf_counter() - started)
            return

    with concurrent.futures.ThreadPoolExecutor(max_workers=len(pending)) as pool:
        futures = [pool.submit(run_one, index, shard) for index, shard in pending]
        errors = []
        for future in futures:
            try:
                future.result()
            except (ShardQuarantined, RunInterrupted) as error:
                errors.append(error)
    if errors:
        # Quarantine outranks interruption: it carries the diagnosis.
        for error in errors:
            if isinstance(error, ShardQuarantined):
                raise error
        raise errors[0]


# -- executors -----------------------------------------------------------


class ProcessShardExecutor(ShardExecutor):
    """One forked process per shard with crash/hang watchdogs."""

    def run(self, gatherer, pending, snapshot_index, ledger) -> None:
        _run_process(gatherer, pending, snapshot_index, ledger)


class ThreadShardExecutor(ShardExecutor):
    """Thread-pool supervision for platforms without fork."""

    def run(self, gatherer, pending, snapshot_index, ledger) -> None:
        _run_thread(gatherer, pending, snapshot_index, ledger)


#: The local executors, by the names ``EngineOptions.executor`` takes.
_LOCAL_EXECUTORS: dict[str, ShardExecutor] = {
    "process": ProcessShardExecutor(),
    "thread": ThreadShardExecutor(),
}
