"""Supervised gather tests: crashes, hangs, quarantine, checkpoints.

A stub gatherer stands in for the measurement engine — supervision only
cares that ``gather(shard, snapshot_index)`` returns a picklable value —
so these tests exercise restart/quarantine/checkpoint mechanics in
milliseconds, in both executor flavours (process tests fork, and are
skipped where fork is unavailable).
"""

import multiprocessing
import os

import pytest

from repro.engine.stats import STATS, reset_stats
from repro.faults import FaultPlan
from repro.resilience import (
    GatherSupervision,
    RunJournal,
    ShardQuarantined,
    ShutdownFlag,
    SupervisorOptions,
    read_events,
    supervised_gather,
)
from repro.resilience.signals import RunInterrupted

needs_fork = pytest.mark.skipif(
    os.name != "posix"
    or "fork" not in multiprocessing.get_all_start_methods(),
    reason="process supervision requires fork",
)

SHARDS = [["a.example", "b.example"], ["c.example"], ["d.example", "e.example"]]


class StubGatherer:
    """Deterministic stand-in: 'gathers' a shard by tagging its targets."""

    def gather(self, shard, snapshot_index):
        return [(domain, snapshot_index) for domain in shard]


class ExplodingGatherer:
    def gather(self, shard, snapshot_index):
        raise ValueError("synthetic gather failure")


class DictCheckpoint:
    """In-memory checkpoint; the factory signature mirrors the store one."""

    def __init__(self):
        self.saved = {}

    def load(self, index):
        return self.saved.get(index)

    def save(self, index, result):
        self.saved[index] = result


def expected(snapshot_index=8):
    return [[(domain, snapshot_index) for domain in shard] for shard in SHARDS]


def supervise(**overrides):
    fields = dict(scope=("alexa", 8))
    fields.update(overrides)
    return GatherSupervision(**fields)


def run(executor, supervision, gatherer=None, shards=SHARDS):
    return supervised_gather(
        gatherer or StubGatherer(), shards, 8,
        executor=executor, supervision=supervision,
    )


class TestThreadSupervision:
    def test_results_in_shard_order(self):
        results, timings = run("thread", supervise())
        assert results == expected()
        assert len(timings) == len(SHARDS)

    def test_poison_shard_quarantined_with_diagnosis(self):
        plan = FaultPlan.parse("worker.crash=1.0", seed=7)
        with pytest.raises(ShardQuarantined) as info:
            run("thread", supervise(plan=plan))
        assert "poison shard quarantined" in str(info.value)
        assert "alexa[s8] shard #" in str(info.value)
        assert info.value.attempts == SupervisorOptions().max_attempts

    def test_partial_crash_rate_recovers(self):
        reset_stats()
        plan = FaultPlan.parse("worker.crash=0.4", seed=3)
        results, _ = run("thread", supervise(plan=plan))
        assert results == expected()
        assert STATS.counters["resilience.worker.restart"] > 0

    def test_hang_counts_against_the_same_budget(self):
        plan = FaultPlan.parse("worker.hang=1.0", seed=7)
        options = SupervisorOptions(deadline=0.01)
        with pytest.raises(ShardQuarantined) as info:
            run("thread", supervise(plan=plan, options=options))
        assert any("hung" in reason for reason in info.value.reasons)

    def test_real_exception_is_a_crash(self):
        with pytest.raises(ShardQuarantined) as info:
            run("thread", supervise(), gatherer=ExplodingGatherer())
        assert any("ValueError" in reason for reason in info.value.reasons)

    def test_checkpointed_shards_are_not_regathered(self):
        checkpoint = DictCheckpoint()
        checkpoint.saved[1] = [("restored", 8)]
        reset_stats()
        results, timings = run(
            "thread", supervise(checkpoint_factory=lambda count: checkpoint)
        )
        assert results[1] == [("restored", 8)]
        assert results[0] == expected()[0] and results[2] == expected()[2]
        assert len(timings) == 2  # restored shards do not skew timings
        assert STATS.counters["resilience.shard.restored"] == 1
        assert set(checkpoint.saved) == {0, 1, 2}  # new work checkpointed

    def test_shutdown_flag_interrupts(self):
        flag = ShutdownFlag()
        flag.trip("SIGINT")
        with pytest.raises(RunInterrupted):
            run("thread", supervise(shutdown=flag))


@needs_fork
class TestProcessSupervision:
    def test_results_match_thread_mode(self):
        results, timings = run("process", supervise())
        assert results == expected()
        assert len(timings) == len(SHARDS)

    def test_injected_crash_reports_exit_code(self, tmp_path):
        journal = RunJournal(tmp_path / "run", "rtest")
        plan = FaultPlan.parse("worker.crash=1.0", seed=7)
        with pytest.raises(ShardQuarantined) as info:
            run("process", supervise(plan=plan, journal=journal), shards=[["a"]])
        journal.close()
        assert "exit 113" in str(info.value)
        events = [event["event"] for event in read_events(journal.path)]
        assert events.count("shard.start") == SupervisorOptions().max_attempts
        assert events.count("shard.crash") == SupervisorOptions().max_attempts
        assert events[-1] == "shard.quarantined"

    def test_partial_crash_rate_recovers(self):
        plan = FaultPlan.parse("worker.crash=0.4", seed=3)
        results, _ = run("process", supervise(plan=plan))
        assert results == expected()

    def test_worker_exception_ships_traceback(self):
        with pytest.raises(ShardQuarantined) as info:
            run("process", supervise(), gatherer=ExplodingGatherer(), shards=[["a"]])
        assert any("ValueError" in reason for reason in info.value.reasons)

    def test_hung_worker_killed_by_deadline(self):
        plan = FaultPlan.parse("worker.hang=1.0", seed=7)
        options = SupervisorOptions(deadline=0.05)
        with pytest.raises(ShardQuarantined) as info:
            run("process", supervise(plan=plan, options=options), shards=[["a"]])
        assert any("deadline" in reason for reason in info.value.reasons)

    def test_journal_records_successful_lifecycle(self, tmp_path):
        journal = RunJournal(tmp_path / "run", "rtest")
        results, _ = run("process", supervise(journal=journal))
        journal.close()
        assert results == expected()
        events = read_events(journal.path)
        kinds = [event["event"] for event in events]
        assert kinds.count("shard.start") == len(SHARDS)
        assert kinds.count("shard.done") == len(SHARDS)
        assert all(event["corpus"] == "alexa" for event in events)


class TestStatsDedup:
    def test_duplicate_completion_merges_once(self):
        """A 'hung' worker finishing alongside its replacement must not
        double-count its stats delta (the EngineStats.merge_once lock)."""
        from repro.resilience.supervisor import _ShardLedger

        reset_stats()
        ledger = _ShardLedger(supervise(), shard_count=1, checkpoint=None)
        delta = {"counters": {"gather.obs.hit": 5}}
        assert ledger.accept(0, 1, ["r"], 0.1, stats_delta=delta)
        assert not ledger.accept(0, 2, ["r"], 0.1, stats_delta=delta)
        assert STATS.counters["gather.obs.hit"] == 5
        assert STATS.counters["resilience.shard.duplicate"] == 1
