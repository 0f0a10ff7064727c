"""Section 4.1 — corpus construction: the stability funnel.

Reproduces the paper's target-domain recipe for the Alexa list: simulate
nine churning Top-1M snapshots, keep only the domains present on every
list, intersect with the domains publishing MX records at every snapshot,
and report the funnel (the paper lands on 93,538 stable Alexa domains).

MX stability is read from the Alexa priority results the study already
holds, not re-resolved: the domain step marks a measured domain ``NO_MX``
exactly when its snapshot has no MX record, and a domain outside a
snapshot's DNS coverage is not measured there at all.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial

from ..analysis.render import format_table
from ..core.types import DomainStatus
from ..world.entities import DatasetTag
from ..world.toplist import CorpusFunnel, build_study_corpus
from .common import StudyContext


@dataclass
class Sec41Result:
    funnel: CorpusFunnel

    def render(self) -> str:
        funnel = self.funnel
        rows = [
            ["ever on any snapshot's toplist", funnel.union_domains, ""],
            [
                "on the list across all snapshots",
                funnel.list_stable,
                f"-{funnel.churn_loss} (ranking churn)",
            ],
            [
                "...with MX records at every snapshot",
                funnel.mx_stable,
                f"-{funnel.mx_loss} (no stable mail config)",
            ],
            ["final study corpus", len(funnel.corpus), ""],
        ]
        return format_table(
            ["Stage", "Domains", "Dropped"],
            rows,
            title="Section 4.1 — Alexa corpus construction funnel",
        )


def mx_stable_domains(ctx: StudyContext, domains: list[str]) -> list[str]:
    """*domains* (in order) with MX records at every snapshot covering them.

    A domain passes when, at every snapshot whose DNS coverage includes
    it, its Alexa inference is present and not ``NO_MX``.  Snapshots are
    read one at a time, so a streamed run holds one result at once.
    """
    openintel = ctx.gatherer.openintel
    covered: set[str] = set()
    dropped: set[str] = set()
    for index in range(openintel.num_snapshots):
        inferences = ctx.priority(DatasetTag.ALEXA, index)
        for domain in domains:
            if not openintel.covers(domain, index):
                continue
            covered.add(domain)
            inference = inferences.get(domain)
            if inference is None or inference.status is DomainStatus.NO_MX:
                dropped.add(domain)
    return [domain for domain in domains if domain in covered and domain not in dropped]


def run(ctx: StudyContext, churn_rate: float = 0.25, seed: int = 2021) -> Sec41Result:
    funnel = build_study_corpus(
        ctx.world, partial(mx_stable_domains, ctx), churn_rate=churn_rate, seed=seed
    )
    return Sec41Result(funnel=funnel)
