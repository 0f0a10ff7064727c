"""Persistent artifact store: content-addressed caching across processes.

PR 1's engine made a single process fast; this package makes *repeat*
processes fast.  Gathered measurement snapshots and inference results are
encoded columnar (:mod:`repro.store.codec`) and persisted under digests
of their full provenance (:mod:`repro.store.artifacts`), so every later
``python -m repro`` invocation, pytest session, or bench run re-reads
instead of re-measuring — mirroring how the paper's own pipeline consumes
materialized OpenINTEL/Censys archives rather than live services.
"""

from .artifacts import (
    CACHE_ENV,
    CACHE_MAX_ENV,
    DEFAULT_MAX_BYTES,
    ArtifactStore,
    SCHEMA_VERSION,
    baseline_kind,
    batch_kind,
    cache_key,
    shard_kind,
)
from .codec import (
    CODEC_VERSION,
    CodecError,
    ResultView,
    SnapshotView,
    decode_inferences,
    decode_measurements,
    decode_result,
    encode_inferences,
    encode_measurements,
    encode_result,
)

__all__ = [
    "ArtifactStore",
    "CACHE_ENV",
    "CACHE_MAX_ENV",
    "CODEC_VERSION",
    "CodecError",
    "DEFAULT_MAX_BYTES",
    "ResultView",
    "SCHEMA_VERSION",
    "SnapshotView",
    "baseline_kind",
    "batch_kind",
    "cache_key",
    "shard_kind",
    "decode_inferences",
    "decode_measurements",
    "decode_result",
    "encode_inferences",
    "encode_measurements",
    "encode_result",
]
