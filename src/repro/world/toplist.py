"""Toplist simulation and stable-corpus construction (Section 4.1).

The paper does not study the raw Alexa Top 1M: rankings churn heavily
between snapshots [31], so it keeps only domains that appear on the list
across all nine snapshots, then intersects with domains that publish MX
records throughout.  This module reproduces that corpus construction:

* :class:`ToplistSimulator` renders a ranked list per snapshot — the
  world's Alexa corpus with per-snapshot rank noise, diluted with
  ephemeral "churner" domains that only appear on some snapshots;
* :func:`stable_domains` recovers the cross-snapshot-stable subset;
* :func:`build_study_corpus` applies the full §4.1 recipe
  (toplist-stable ∩ MX-stable) and reports the funnel counts.  The
  MX-stability filter is the caller's: the study reads it from the stored
  per-snapshot inference statuses (``experiments.sec41_corpus``).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable

from .build import World
from .entities import DatasetTag
from .evolve import domain_fingerprint
from .population import NUM_SNAPSHOTS, synth_label


@dataclass(frozen=True)
class ToplistEntry:
    rank: int
    domain: str


class ToplistSimulator:
    """Per-snapshot ranked lists over the world's Alexa corpus.

    ``churn_rate`` controls the fraction of each snapshot's list that is
    ephemeral (present in that snapshot only) — the churn documented by
    Scheitle et al. [31] that motivates the stability filter.
    ``rank_jitter`` shifts a stable domain's rank between snapshots.
    """

    def __init__(
        self,
        world: World,
        churn_rate: float = 0.25,
        rank_jitter: float = 0.15,
        seed: int = 2021,
    ):
        if not 0 <= churn_rate < 1:
            raise ValueError("churn_rate must be in [0, 1)")
        self.world = world
        self.churn_rate = churn_rate
        self.rank_jitter = rank_jitter
        self.seed = seed
        self._stable = sorted(
            (entity.alexa_rank or 1, entity.name)
            for entity in world.domains_in(DatasetTag.ALEXA)
        )

    def snapshot(self, snapshot_index: int) -> list[ToplistEntry]:
        """The ranked list observed at one snapshot."""
        if not 0 <= snapshot_index < NUM_SNAPSHOTS:
            raise IndexError(f"no snapshot {snapshot_index}")
        rng = random.Random(self.seed * 1_000_003 + snapshot_index)

        scored: list[tuple[float, str]] = []
        for base_rank, domain in self._stable:
            jitter = 1.0 + rng.uniform(-self.rank_jitter, self.rank_jitter)
            # Stable per-domain bias keeps a domain's neighborhood stable
            # across snapshots while still reshuffling locally.
            bias = 1.0 + (domain_fingerprint(domain, "rankbias") % 1000) / 10_000.0
            scored.append((base_rank * jitter * bias, domain))

        churners = int(len(self._stable) * self.churn_rate / (1 - self.churn_rate))
        max_rank = max((rank for rank, _domain in self._stable), default=1)
        for index in range(churners):
            name = f"{synth_label(rng)}-{snapshot_index}x{index}.com"
            scored.append((rng.uniform(1, max_rank * 1.2), name))

        scored.sort()
        return [
            ToplistEntry(rank=position + 1, domain=domain)
            for position, (_score, domain) in enumerate(scored)
        ]

    def all_snapshots(self) -> list[list[ToplistEntry]]:
        return [self.snapshot(index) for index in range(NUM_SNAPSHOTS)]


def stable_domains(toplists: list[list[ToplistEntry]]) -> list[str]:
    """Domains present on *every* list (the paper's stability filter)."""
    if not toplists:
        return []
    present = set(entry.domain for entry in toplists[0])
    for entries in toplists[1:]:
        present &= {entry.domain for entry in entries}
    return sorted(present)


@dataclass(frozen=True)
class CorpusFunnel:
    """The §4.1 corpus-construction funnel for the Alexa list."""

    union_domains: int          # ever seen on any snapshot's list
    list_stable: int            # on the list at every snapshot
    mx_stable: int              # ...and publishing MX at every snapshot
    corpus: tuple[str, ...]     # the final study corpus

    @property
    def churn_loss(self) -> int:
        return self.union_domains - self.list_stable

    @property
    def mx_loss(self) -> int:
        return self.list_stable - self.mx_stable


def build_study_corpus(
    world: World,
    mx_stable_filter: Callable[[list[str]], list[str]],
    churn_rate: float = 0.25,
    seed: int = 2021,
) -> CorpusFunnel:
    """Apply the paper's full corpus recipe: list-stable ∩ MX-stable.

    *mx_stable_filter* maps the list-stable domains, in order, to those
    publishing MX records at every snapshot that covers them.
    """
    simulator = ToplistSimulator(world, churn_rate=churn_rate, seed=seed)
    toplists = simulator.all_snapshots()
    union: set[str] = set()
    for entries in toplists:
        union |= {entry.domain for entry in entries}
    list_stable = stable_domains(toplists)
    mx_stable = mx_stable_filter(list_stable)
    return CorpusFunnel(
        union_domains=len(union),
        list_stable=len(list_stable),
        mx_stable=len(mx_stable),
        corpus=tuple(mx_stable),
    )
