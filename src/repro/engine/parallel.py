"""Shard-parallel measurement gathering.

Splits a target list into contiguous shards and hands them to
:func:`repro.resilience.supervisor.supervised_gather`, the one way a
sharded gather runs: in forked worker processes (the gatherer travels by
fork inheritance, so the world is never pickled; only per-shard
measurement dicts come back), in threads where fork is unavailable or
the caller asks for them, or on dist worker hosts.  A plain run is
supervised too, just without a journal, checkpoints or shutdown flag.

Results are merged in shard order, so the output is identical — same
domains, same order, same values — to a serial ``gatherer.gather`` call.
Worker results are folded back into the parent gatherer's caches so later
runs stay warm regardless of which executor produced them.

The shard count comes from an explicit ``jobs`` argument, the CLI's
``--jobs`` flag, or the ``REPRO_JOBS`` environment variable.
"""

from __future__ import annotations

import multiprocessing
import os
import warnings
from typing import Sequence

from ..obs import trace
from .sharding import merge_shard_results, split_shards
from .stats import STATS

JOBS_ENV = "REPRO_JOBS"
EXECUTOR_ENV = "REPRO_EXECUTOR"

# Below this many targets a shard is not worth an executor round-trip.
MIN_PARALLEL_TARGETS = 64


def env_jobs(default: int = 1) -> int:
    """Worker count from the ``REPRO_JOBS`` environment variable.

    Unparseable values warn (instead of failing silently) and fall back
    to *default*; values below 1 are clamped to 1.
    """
    raw = os.environ.get(JOBS_ENV)
    if raw is None:
        return default
    try:
        jobs = int(raw)
    except ValueError:
        warnings.warn(
            f"unparseable {JOBS_ENV}={raw!r}; falling back to {default}",
            stacklevel=2,
        )
        return default
    return max(1, jobs)


def resolve_jobs(jobs: int | None) -> int:
    """An explicit jobs count, or the environment default."""
    if jobs is None:
        return env_jobs()
    return max(1, int(jobs))


def _pick_executor(executor: str | None) -> str:
    """Choose ``process`` or ``thread`` (explicit arg > env > hardware)."""
    choice = executor or os.environ.get(EXECUTOR_ENV)
    if choice in ("process", "thread"):
        return choice
    if choice is not None:
        warnings.warn(f"unknown {EXECUTOR_ENV}={choice!r}; using auto", stacklevel=2)
    # Processes only pay off with real cores and a fork start method.
    if (os.cpu_count() or 1) > 1 and "fork" in multiprocessing.get_all_start_methods():
        return "process"
    return "thread"


def parallel_gather(
    gatherer,
    domains: Sequence[str],
    snapshot_index: int,
    jobs: int | None = None,
    executor: str | None = None,
    *,
    supervision,
) -> dict:
    """Gather a target list, sharded across *jobs* supervised workers.

    Bit-identical to ``gatherer.gather(list(domains), snapshot_index)``;
    with ``jobs <= 1`` (or a tiny target list) it *is* that call, after
    a shutdown-flag check — checkpoint granularity there is the whole
    snapshot, via the normal store keys.

    *supervision* (a :class:`repro.resilience.GatherSupervision`) is the
    policy the shards run under: restart budget, deadline, fault plan,
    and — for resilient runs — journal, checkpoints and shutdown flag.
    """
    domains = list(domains)
    jobs = resolve_jobs(jobs)
    dist = supervision.dist
    if dist is None and (jobs <= 1 or len(domains) < MIN_PARALLEL_TARGETS):
        # A dist coordinator never takes this shortcut: even a jobs=1 or
        # tiny gather must be leased out so remote hosts do the work.
        if supervision.shutdown is not None:
            supervision.shutdown.raise_if_set()
        with STATS.timer("gather.serial"):
            return gatherer.gather(domains, snapshot_index)

    # Imported lazily: the resilience layer itself builds on the engine.
    from ..resilience.supervisor import supervised_gather

    shards = split_shards(domains, jobs)
    kind = "dist" if dist is not None else _pick_executor(executor)
    with STATS.timer(f"gather.{kind}"), trace.span(
        "gather", cat="gather", executor=kind, jobs=jobs, targets=len(domains)
    ):
        results, timings = supervised_gather(
            gatherer, shards, snapshot_index,
            executor=kind, supervision=supervision,
        )
    STATS.record_shards(f"gather.jobs{jobs}", timings)
    merged = merge_shard_results(results)
    # Fold worker-produced records back into the parent caches so the
    # next run over overlapping infrastructure starts warm.
    gatherer.adopt(merged)
    return merged
