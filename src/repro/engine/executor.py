"""The shard-executor seam: how supervised shards actually run.

Every sharded gather runs under ``resilience.supervisor``, which keeps
the bookkeeping (restarts, quarantine, checkpoints, journal) and hands
the pending shards to one :class:`ShardExecutor`.  There are three: the
supervisor's own forked-process and thread executors, picked by name
(``"process"``/``"thread"``), and the socket-dispatched multi-host
executor in :mod:`repro.dist`, which a supervision bundle carrying a
coordinator selects.  An executor receives the pending ``(index, shard)``
pairs of one gather plus a *ledger* (the supervisor's bookkeeping
object) and drives every shard to ``ledger.accept`` or raises through
``ledger.fail``.

The ledger contract an executor can rely on (see
``repro.resilience.supervisor._ShardLedger``):

``ledger.supervision``
    The :class:`~repro.resilience.GatherSupervision` bundle (options,
    fault plan, scope, shutdown flag).
``ledger.scope_key``
    The ``corpus:snapshot[:batch]`` string keying fault rolls.
``ledger.accept(index, attempt, result, elapsed, stats_delta, events)``
    Record one completion (checkpointed + journaled); returns False for
    duplicates, which executors must tolerate — work stealing and hung
    workers both produce racing completions.
``ledger.fail(index, attempt, kind, reason)``
    Record one failed attempt; raises ``ShardQuarantined`` once the
    restart budget is spent.
``ledger.journal(event, **fields)`` / ``ledger.raise_if_shutdown()``
    Journal passthrough and cooperative-interrupt check.

Executors change *how* shards run, never *what* they compute: results
must be value-equal to a serial gather, which the merge layer then turns
into byte-identical artifacts.
"""

from __future__ import annotations

import abc
from typing import Sequence


class ShardExecutor(abc.ABC):
    """One strategy for executing the pending shards of a gather."""

    @abc.abstractmethod
    def run(
        self,
        gatherer,
        pending: Sequence[tuple[int, list]],
        snapshot_index: int,
        ledger,
    ) -> None:
        """Drive every pending shard to completion (or quarantine).

        Returns once ``ledger`` holds a result for every pending index;
        raises ``ShardQuarantined`` / ``RunInterrupted`` on the
        supervisor's terminal conditions.
        """
