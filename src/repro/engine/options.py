"""Execution options for the measurement/inference engine."""

from __future__ import annotations

from dataclasses import dataclass

from .parallel import resolve_jobs


@dataclass(frozen=True)
class EngineOptions:
    """How a :class:`~repro.experiments.common.StudyContext` executes runs.

    ``jobs``
        Worker count for sharded gathering and pipeline identification;
        ``None`` defers to the ``REPRO_JOBS`` environment variable
        (default 1 = serial).
    ``memoize``
        Enables the cross-run caches: PSL extraction, per-(address, date)
        observation interning, cert-group reuse, and the MX-identity
        cache.  Disabling reproduces the seed's from-scratch behaviour
        (the serial baseline of the benchmarks).
    ``executor``
        ``"process"``, ``"thread"``, or ``None`` to pick automatically
        (processes when fork and multiple cores are available).
    ``shard_deadline``
        Per-shard wall-clock budget (seconds) for sharded gathers, which
        always run supervised; a worker past its deadline is treated as
        hung, killed, and its shard reassigned.  ``None`` disables the
        watchdog.  Serial gathers (``jobs`` 1 or a tiny target list)
        have no shards and ignore it.
    ``max_restarts``
        How many times a shard may be reassigned after a crashed or hung
        worker before it is quarantined and the run is failed with a
        diagnosis naming the shard.
    ``batch_domains``
        Streamed-gather batch size: snapshots are gathered in contiguous
        batches of this many domains, held in-flight as encoded codec
        payloads, and merged in plan order (see :mod:`repro.stream`).
        ``None`` defers to ``REPRO_BATCH``; zero or negative disables
        batching.  Like every other knob here, this is a pure
        optimization — outputs are byte-identical at any setting.
    """

    jobs: int | None = None
    memoize: bool = True
    executor: str | None = None
    shard_deadline: float | None = None
    max_restarts: int = 2
    batch_domains: int | None = None

    def resolved_jobs(self) -> int:
        return resolve_jobs(self.jobs)

    def batch_plan(self):
        """The resolved :class:`~repro.stream.batching.BatchPlan`."""
        # Imported lazily: the engine layer stays importable without the
        # streaming package, which itself builds on the engine.
        from ..stream.batching import BatchPlan, resolve_batch

        return BatchPlan(resolve_batch(self.batch_domains))
