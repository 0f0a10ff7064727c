"""The streamed gather loop: batch → parallel gather → encode → spill.

``stream_gather`` is the out-of-core twin of
:func:`repro.engine.parallel.parallel_gather`: it walks the batch plan's
contiguous slices, gathers each one through the ordinary parallel
engine under its own supervision bundle (so restarts, fault rolls and
shard checkpoints behave exactly as unbatched runs, keyed per batch),
hands the result straight to the spiller as an encoded payload, and
trims the gatherer's memo caches between batches.  The final merge
restores the canonical identity topology, so the return value is
byte-for-byte what an unbatched gather would have produced — batching
is invisible to every consumer.
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
    supervision_factory: Callable[[int], object],
    cache_entries: int | None = None,
):
    """Gather *targets* batch by batch; returns the canonical merged dict.

    ``supervision_factory(batch_index)`` builds the
    :class:`~repro.resilience.GatherSupervision` each batch runs under.
    """
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
                supervision=supervision_factory(batch_index),
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
    # churn studies) interning against the canonical objects.
    gatherer.adopt(merged)
    sample_peak_rss()
    return merged
