"""The execution engine: sharded, parallel, cache-aware measure→infer runs.

This package holds the machinery that makes full-corpus longitudinal
sweeps fast without changing a single inference:

* :mod:`repro.engine.stats` — counters/timers behind ``--perf``,
* :mod:`repro.engine.sharding` — deterministic target-list sharding,
* :mod:`repro.engine.parallel` — sharded gathering, always supervised,
* :mod:`repro.engine.executor` — the shard-executor seam (process,
  thread, dist),
* :mod:`repro.engine.identcache` — cross-snapshot MX-identity memoization,
* :mod:`repro.engine.options` — per-context execution knobs.

Every module here is importable from the low-level measurement layers
(nothing imports back into :mod:`repro.core` or :mod:`repro.measure` at
runtime), so instrumentation can sit directly on the hot paths.
"""

from .executor import ShardExecutor
from .identcache import MXIdentityCache, evidence_key
from .options import EngineOptions
from .parallel import env_jobs, parallel_gather, resolve_jobs
from .sharding import merge_shard_results, split_shards
from .stats import (
    STATS,
    EngineStats,
    current_rss_bytes,
    format_bytes,
    get_stats,
    peak_rss_bytes,
    reset_stats,
    sample_peak_rss,
)

__all__ = [
    "EngineOptions",
    "EngineStats",
    "MXIdentityCache",
    "STATS",
    "current_rss_bytes",
    "env_jobs",
    "evidence_key",
    "format_bytes",
    "get_stats",
    "merge_shard_results",
    "parallel_gather",
    "peak_rss_bytes",
    "reset_stats",
    "resolve_jobs",
    "sample_peak_rss",
    "ShardExecutor",
    "split_shards",
]
