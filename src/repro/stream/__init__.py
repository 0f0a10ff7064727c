"""Out-of-core measure path: batched gathers, spill/merge.

``repro.stream`` keeps the measure path's peak RSS near-flat as
``REPRO_SCALE`` grows: domains are gathered in bounded contiguous
batches whose results live on the heap as *encoded* codec payloads
(the store's wire format doubles as the in-flight representation), with
overflow spilled through :mod:`repro.store` and merged back in
deterministic batch order.  :func:`stream_gather` is the one gather
entry: an unbatched plan is a single plain parallel gather.

Batching is an engine *optimization*, never a semantic switch: every
output — stdout, artifacts, store digests — is byte-identical across
``--batch-domains``, ``--jobs``, and executors (see
``tests/stream/test_stream_equivalence.py``).
"""

from .batching import (
    BATCH_ENV,
    STREAM_KEEP_ENV,
    BatchPlan,
    env_batch,
    env_stream_keep,
    resolve_batch,
)
from .canon import merge_payloads
from .gather import stream_gather
from .spill import MEM_BUDGET_ENV, BatchSpiller, env_budget_bytes

__all__ = [
    "BATCH_ENV",
    "MEM_BUDGET_ENV",
    "BatchPlan",
    "BatchSpiller",
    "STREAM_KEEP_ENV",
    "env_batch",
    "env_budget_bytes",
    "env_stream_keep",
    "merge_payloads",
    "resolve_batch",
    "stream_gather",
]
