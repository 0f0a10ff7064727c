"""§4.1 differential: the funnel from stored statuses equals live resolution.

``sec41_corpus`` reads MX stability from the Alexa priority results.  The
oracle here is the recipe it replaced: re-resolve every list-stable
domain through the context's OpenINTEL platform at each snapshot that
covers it, and keep the domains with MX records at all of them.
"""

from datetime import date
from functools import partial
from types import SimpleNamespace

import pytest

from repro.core.types import DomainInference, DomainStatus
from repro.dnscore import ZoneDB
from repro.engine import EngineOptions
from repro.experiments import sec41_corpus
from repro.experiments.common import StudyContext
from repro.measure.openintel import OpenINTELPlatform
from repro.store import ArtifactStore
from repro.tls.ca import reset_serials
from repro.world.build import WorldConfig
from repro.world.toplist import build_study_corpus

CONFIG = WorldConfig(seed=7, alexa_size=150, com_size=80, gov_size=40)
DNS_FAULTS = "rate=0.05,dns.timeout=0.3,dns.partial=0.3,dns.servfail=0.3,seed=3"


def live_mx_stable(openintel, domains):
    stable = []
    for domain in domains:
        records = [
            openintel.measure_domain(domain, index)
            for index in range(openintel.num_snapshots)
            if openintel.covers(domain, index)
        ]
        if records and all(record.has_mx for record in records):
            stable.append(domain)
    return stable


def funnels(ctx):
    """(from stored statuses, from live resolution) over one context."""
    stored = sec41_corpus.run(ctx).funnel
    live = build_study_corpus(
        ctx.world, partial(live_mx_stable, ctx.gatherer.openintel)
    )
    return stored, live


@pytest.mark.parametrize(
    "faults, engine",
    [
        (None, EngineOptions()),
        (DNS_FAULTS, EngineOptions()),
        ("0.1", EngineOptions()),
        (None, EngineOptions(batch_domains=40)),
        (DNS_FAULTS, EngineOptions(batch_domains=40)),
    ],
    ids=["clean", "dns-faults", "faults-0.1", "batched", "batched-dns-faults"],
)
def test_stored_statuses_match_live_filter(faults, engine):
    reset_serials()
    ctx = StudyContext.create(CONFIG, engine=engine, store=None, faults=faults)
    stored, live = funnels(ctx)
    assert stored == live
    if faults == DNS_FAULTS:
        # The faults must bite, or the comparison proves nothing.
        assert stored.mx_loss > 0


def test_warm_store_funnel_matches_live_filter(tmp_path):
    store = ArtifactStore(tmp_path / "store")
    reset_serials()
    cold = StudyContext.create(CONFIG, store=store, faults=DNS_FAULTS)
    cold_funnel = sec41_corpus.run(cold).funnel
    reset_serials()
    warm = StudyContext.create(CONFIG, store=store, faults=DNS_FAULTS)
    stored, live = funnels(warm)
    assert stored == live == cold_funnel
    # The warm funnel came from decoded results, not fresh gathers.
    assert warm._measurements == {}


def test_coverage_and_absence():
    """Only covering snapshots count; a covered but unmeasured domain fails."""
    openintel = OpenINTELPlatform(
        [ZoneDB(), ZoneDB()],
        (date(2020, 6, 8), date(2020, 12, 8)),
        tld_coverage_start={"gov": 1},
    )

    def status(domain, value):
        return domain, DomainInference(domain=domain, status=value)

    results = [
        dict([
            status("mail.com", DomainStatus.INFERRED),
            status("dark.com", DomainStatus.NO_MX),
            status("lame.com", DomainStatus.NO_MX_IP),
            status("gone.com", DomainStatus.INFERRED),
        ]),
        dict([
            status("mail.com", DomainStatus.NO_SMTP),
            status("dark.com", DomainStatus.INFERRED),
            status("lame.com", DomainStatus.INFERRED),
            status("agency.gov", DomainStatus.INFERRED),
        ]),
    ]
    ctx = SimpleNamespace(
        gatherer=SimpleNamespace(openintel=openintel),
        priority=lambda dataset, index: results[index],
    )
    domains = ["mail.com", "dark.com", "lame.com", "gone.com", "agency.gov"]
    assert sec41_corpus.mx_stable_domains(ctx, domains) == [
        "mail.com", "lame.com", "agency.gov",
    ]
