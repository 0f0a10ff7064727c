"""The one gather entry: batch → parallel gather → encode → spill.

``stream_gather`` runs a snapshot gather under a batch plan.  An
unbatched plan is exactly one :func:`repro.engine.parallel.parallel_gather`
call over every target, supervised per (corpus, snapshot).  A batched
plan walks the plan's contiguous slices, gathers each one through the
same parallel engine under its own supervision bundle (so restarts,
fault rolls and shard checkpoints behave exactly as unbatched runs,
keyed per batch), hands the result straight to the spiller as an
encoded payload, and trims the gatherer's memo caches between batches.
The final merge folds cross-batch copies into one observation per
address, so the return value encodes to the same bytes as an unbatched
gather — batching is invisible to every consumer.
"""

from __future__ import annotations

import os
import warnings
from typing import Callable, Sequence

from ..engine.parallel import parallel_gather
from ..engine.stats import STATS, sample_peak_rss
from .batching import BatchPlan
from .spill import BatchSpiller

CACHE_TRIM_ENV = "REPRO_STREAM_CACHE"
DEFAULT_CACHE_ENTRIES = 250_000


def env_cache_entries(default: int = DEFAULT_CACHE_ENTRIES) -> int:
    """Inter-batch memo-cache cap from ``REPRO_STREAM_CACHE``."""
    raw = os.environ.get(CACHE_TRIM_ENV)
    if raw is None:
        return default
    try:
        value = int(raw.strip())
    except ValueError:
        warnings.warn(
            f"ignoring non-integer {CACHE_TRIM_ENV}={raw!r}",
            RuntimeWarning,
            stacklevel=2,
        )
        return default
    return value if value > 0 else default


def stream_gather(
    gatherer,
    targets: Sequence[str],
    snapshot_index: int,
    *,
    plan: BatchPlan,
    spiller: BatchSpiller,
    jobs: int | None = None,
    executor: str | None = None,
    supervision_factory: Callable[[tuple[int, int, int] | None], object],
    cache_entries: int | None = None,
):
    """Gather *targets* under *plan*; returns the measurement dict.

    ``supervision_factory(batch)`` builds the
    :class:`~repro.resilience.GatherSupervision` a gather runs under:
    *batch* is the plan key of the batch, or None for an unbatched plan,
    whose gather leaves the spiller and the memo caches untouched.
    """
    if not plan.active:
        return parallel_gather(
            gatherer,
            targets,
            snapshot_index,
            jobs=jobs,
            executor=executor,
            supervision=supervision_factory(None),
        )
    cache_cap = env_cache_entries() if cache_entries is None else cache_entries
    with STATS.timer("gather.stream"):
        for batch_index, batch in plan.split(targets):
            if spiller.restore(batch_index):
                continue
            gathered = parallel_gather(
                gatherer,
                batch,
                snapshot_index,
                jobs=jobs,
                executor=executor,
                supervision=supervision_factory(
                    plan.key(batch_index, len(targets))
                ),
            )
            spiller.add(batch_index, gathered)
            del gathered
            trimmed = gatherer.trim_caches(cache_cap)
            if trimmed:
                STATS.inc("stream.cache.trimmed", trimmed)
            sample_peak_rss()
        merged = spiller.merge()
    # The merged graph replaces whatever per-batch instances the memo
    # caches hold; adopting it keeps later gathers (showcase domains,
    # churn studies) interning against the merged objects.
    gatherer.adopt(merged)
    sample_peak_rss()
    return merged
