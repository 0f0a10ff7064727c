"""World builder: assemble the complete synthetic Internet.

:func:`build_world` produces a :class:`World` — companies with deployed mail
infrastructure, three domain corpora with per-snapshot ground truth, and one
materialized DNS view per measurement snapshot — fully determined by a
:class:`WorldConfig` (seed + corpus sizes).
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass, field
from datetime import date

from ..dnscore import ZoneDB, a as a_record, spf as spf_record
from ..dnscore.psl import PublicSuffixList
from ..engine.heap import long_lived
from ..netsim.asn import PrefixToASTable
from ..netsim.registry import AddressBlock, AddressRegistry
from ..smtp.banner import BannerStyle
from ..smtp.server import SMTPHostTable, SMTPServerConfig
from ..tls.ca import CertificateAuthority, TrustStore, self_signed
from .catalog import CATALOG
from .entities import (
    ASNSpec,
    CompanyInfra,
    CompanyKind,
    CompanySpec,
    DatasetTag,
    DomainAssignment,
    DomainEntity,
    MailHost,
    ProvisioningStyle,
    TRUTH_NONE,
    TRUTH_SELF,
)
from .evolve import SegmentEvolver, domain_fingerprint, pick_style
from .population import (
    ALEXA_CCTLD_TABLES,
    COM_TABLE,
    GOV_FEDERAL_FRACTION,
    GOV_FEDERAL_TABLE,
    GOV_NONFEDERAL_TABLE,
    NONE,
    NUM_SNAPSHOTS,
    SELF,
    SNAPSHOT_DATES,
    ShareTable,
    iter_alexa_buckets,
    synth_label,
)
from .wiring import DomainWirer

# Fraction of provider-named mailbox customers that publish a second,
# equally preferred MX at another provider (exercises credit splitting).
SPLIT_MX_FRACTION = 0.005

# Baseline Censys coverage for address space without a company-specific
# override (Section 4.2.2 lists the reasons scans miss hosts).
DEFAULT_CENSYS_COVERAGE = 0.97

SHOWCASE_DOMAINS = (
    "netflix.com", "gsipartners.com", "beats24-7.com", "jeniustoto.net", "utexas.edu",
)


@dataclass(frozen=True)
class WorldConfig:
    """Knobs of the synthetic Internet.  Everything is derived from these."""

    seed: int = 7
    alexa_size: int = 1200
    com_size: int = 1500
    gov_size: int = 300
    num_other_providers: int = 50
    swap_rate: float = 0.015
    transit_as_count: int = 8

    def scaled(self, factor: float) -> "WorldConfig":
        """A config with corpus sizes multiplied by *factor*."""
        return WorldConfig(
            seed=self.seed,
            alexa_size=max(1, int(self.alexa_size * factor)),
            com_size=max(1, int(self.com_size * factor)),
            gov_size=max(1, int(self.gov_size * factor)),
            num_other_providers=self.num_other_providers,
            swap_rate=self.swap_rate,
            transit_as_count=self.transit_as_count,
        )


@dataclass
class World:
    """The assembled synthetic Internet plus its ground truth."""

    config: WorldConfig
    psl: PublicSuffixList
    trust_store: TrustStore
    registry: AddressRegistry
    host_table: SMTPHostTable
    companies: dict[str, CompanyInfra]
    domains: dict[str, DomainEntity]
    showcase: dict[str, DomainEntity]
    snapshot_zones: list[ZoneDB]
    snapshot_dates: tuple[date, ...] = SNAPSHOT_DATES
    _coverage_by_asn: dict[int, float] = field(default_factory=dict)

    # -- lookup helpers ----------------------------------------------------

    @property
    def prefix2as(self) -> PrefixToASTable:
        return self.registry.table

    def domains_in(self, dataset: DatasetTag) -> list[DomainEntity]:
        return [entity for entity in self.domains.values() if entity.dataset is dataset]

    def entity(self, name: str) -> DomainEntity:
        if name in self.domains:
            return self.domains[name]
        return self.showcase[name]

    def ground_truth(self, name: str, snapshot_index: int) -> dict[str, float]:
        """Truth attribution for a domain at a snapshot: label → weight.

        Labels are company slugs or the TRUTH_SELF / TRUTH_NONE sentinels.
        Split-MX domains attribute half credit to each provider.
        """
        assignment = self.entity(name).assignment_at(snapshot_index)
        if assignment.secondary_slug is not None and assignment.company_slug is not None:
            return {assignment.company_slug: 0.5, assignment.secondary_slug: 0.5}
        return {assignment.truth: 1.0}

    def censys_coverage_for(self, address: str) -> float:
        asn = self.registry.lookup_asn(address)
        if asn is None:
            return DEFAULT_CENSYS_COVERAGE
        return self._coverage_by_asn.get(asn, DEFAULT_CENSYS_COVERAGE)


@long_lived()
def build_world(config: WorldConfig | None = None) -> World:
    """Assemble a complete world from a config (fully deterministic).

    The world is frozen out of the cyclic collector once built: it is
    immutable and lives as long as its context (see
    :mod:`repro.engine.heap`).
    """
    config = config or WorldConfig()
    builder = _WorldBuilder(config)
    return builder.build()


class _WorldBuilder:
    def __init__(self, config: WorldConfig):
        self.config = config
        self.rng = random.Random(config.seed)
        # Each world owns its PSL instance so per-context cache toggles
        # (EngineOptions.memoize) never leak across StudyContexts.
        self.psl = PublicSuffixList.default()
        self.ca = CertificateAuthority("Simulated CA")
        self.trust_store = TrustStore()
        self.registry = AddressRegistry()
        self.host_table = SMTPHostTable()
        self.companies: dict[str, CompanyInfra] = {}
        self.coverage_by_asn: dict[int, float] = {}
        self.transit_blocks: list[AddressBlock] = []
        self.cloud_block: AddressBlock | None = None
        self.used_names: set[str] = set()
        self.provider_a_records: list[tuple[str, str]] = []  # (fqdn, address)
        self.provider_zone_apexes: set[str] = set()

    # -- infrastructure ----------------------------------------------------

    def build(self) -> World:
        specs = list(CATALOG) + self._generate_other_specs()
        self._register_asns(specs)
        self._allocate_transit()
        for spec in specs:
            self._deploy_company(spec)

        wirer = DomainWirer(
            companies=self.companies,
            host_table=self.host_table,
            ca=self.ca,
            psl=self.psl,
            transit_blocks=self.transit_blocks,
            small_vps_slugs=self._small_vps_slugs(),
            cloud_block=self.cloud_block,
            force_cloud_nosmtp=frozenset({"jeniustoto.net"}),
            force_customer_cert=frozenset({"utexas.edu"}),
        )

        domains = self._generate_corpora()
        showcase = self._showcase_entities()

        snapshot_zones = [self._base_zonedb() for _ in range(NUM_SNAPSHOTS)]
        for snapshot_index, zdb in enumerate(snapshot_zones):
            for entity in itertools.chain(domains.values(), showcase.values()):
                wirer.wire(zdb, entity, entity.assignment_at(snapshot_index))

        return World(
            config=self.config,
            psl=self.psl,
            trust_store=self.trust_store,
            registry=self.registry,
            host_table=self.host_table,
            companies=self.companies,
            domains=domains,
            showcase=showcase,
            snapshot_zones=snapshot_zones,
            _coverage_by_asn=self.coverage_by_asn,
        )

    def _register_asns(self, specs: list[CompanySpec]) -> None:
        seen: set[int] = set()
        for spec in specs:
            for asn_spec in spec.asns:
                if asn_spec.number not in seen:
                    self.registry.register_as(asn_spec.number, asn_spec.name, asn_spec.country)
                    seen.add(asn_spec.number)
                # Company-specific Censys coverage attaches to the AS; the
                # most restrictive company wins (EIG's flakiness).
                current = self.coverage_by_asn.get(asn_spec.number, DEFAULT_CENSYS_COVERAGE)
                self.coverage_by_asn[asn_spec.number] = min(current, spec.censys_coverage)

    def _allocate_transit(self) -> None:
        for index in range(self.config.transit_as_count):
            number = 210_001 + index
            self.registry.register_as(number, f"Transit ISP {index + 1}", "US")
            self.transit_blocks.append(self.registry.allocate_block(number, 16))

    def _generate_other_specs(self) -> list[CompanySpec]:
        """The long tail: small regional providers filling the OTHERS residual."""
        specs = []
        countries = ("US", "US", "US", "DE", "FR", "NL", "UK", "RU", "JP", "BR", "IN", "CA")
        for index in range(self.config.num_other_providers):
            label = synth_label(self.rng, 2, 3)
            tld = self.rng.choice(("com", "net", "io"))
            provider_domain = f"{label}mail.{tld}"
            while provider_domain in self.used_names:
                provider_domain = f"{synth_label(self.rng, 2, 3)}mail.{tld}"
            self.used_names.add(provider_domain)
            roll = self.rng.random()
            specs.append(
                CompanySpec(
                    slug=f"other{index:03d}",
                    display_name=label.capitalize() + " Mail",
                    kind=CompanyKind.OTHER,
                    country=self.rng.choice(countries),
                    asns=(ASNSpec(220_001 + index, f"{label.capitalize()} Networks"),),
                    provider_ids=(provider_domain,),
                    mx_host_count=self.rng.choice((1, 1, 2)),
                    has_valid_cert=roll >= 0.35,
                    # A slice of the long tail runs servers with valid
                    # certificates but useless banner text (Table 4's
                    # "No Valid Banner/EHLO" row).
                    banner_style=(
                        BannerStyle.DECORATED_IP if roll >= 0.92 else BannerStyle.FQDN
                    ),
                )
            )
        return specs

    def _deploy_company(self, spec: CompanySpec) -> None:
        infra = CompanyInfra(spec=spec)
        self.companies[spec.slug] = infra
        for provider_id in spec.provider_ids:
            self.used_names.add(provider_id)
        if spec.mx_host_count == 0:
            if spec.kind is CompanyKind.CLOUD:
                self.cloud_block = self.registry.allocate_block(spec.primary_asn, 18)
            return

        blocks = [self.registry.allocate_block(asn.number, 20) for asn in spec.asns]
        infra.spf_prefixes = [str(block.prefix) for block in blocks]
        fqdns = list(spec.mx_fqdns) or [
            f"mx{i + 1}.{spec.provider_ids[i % len(spec.provider_ids)]}"
            for i in range(spec.mx_host_count)
        ]

        cert_for = self._company_certificates(spec, fqdns)

        for index, fqdn in enumerate(fqdns):
            block = blocks[index % len(blocks)]
            addresses = [str(block.allocate_address()) for _ in range(spec.ips_per_host)]
            certificate = cert_for.get(fqdn)
            server = SMTPServerConfig(
                identity=fqdn if spec.banner_style is BannerStyle.FQDN else None,
                banner_style=spec.banner_style,
                starttls=certificate is not None,
                certificate=certificate,
            )
            for address in addresses:
                self.host_table.bind(address, server)
            infra.mx_hosts.append(
                MailHost(fqdn=fqdn, addresses=addresses, server=server, owner_slug=spec.slug)
            )
            self.provider_zone_apexes.add(self.psl.registered_domain(fqdn) or fqdn)
            for address in addresses:
                self.provider_a_records.append((fqdn, address))

        for provider_id in spec.provider_ids:
            self.provider_zone_apexes.add(provider_id)

        if spec.vps_cert_domain:
            infra.vps_block = self.registry.allocate_block(spec.primary_asn, 20)
        if spec.customer_cert_fraction > 0:
            infra.dedicated_block = self.registry.allocate_block(spec.primary_asn, 20)

    def _company_certificates(self, spec: CompanySpec, fqdns: list[str]) -> dict[str, "object"]:
        """Certificates per MX host.

        With an explicit ``cert_cn`` the company uses one shared certificate
        for everything (Google).  Otherwise hosts are grouped by registered
        domain and each group gets its own certificate — which is what makes
        several provider IDs observable for one company (Table 5).
        """
        cert_for: dict[str, object] = {}
        if spec.has_valid_cert:
            if spec.cert_cn:
                sans = tuple(fqdns) + spec.cert_extra_sans
                shared = self.ca.issue(spec.cert_cn, sans=sans)
                return {fqdn: shared for fqdn in fqdns}
            by_domain: dict[str, list[str]] = {}
            for fqdn in fqdns:
                registered = self.psl.registered_domain(fqdn) or fqdn
                by_domain.setdefault(registered, []).append(fqdn)
            for members in by_domain.values():
                cert = self.ca.issue(members[0], sans=tuple(members[1:]))
                for fqdn in members:
                    cert_for[fqdn] = cert
            return cert_for
        if self.rng.random() < 0.5:
            shared = self_signed(spec.cert_cn or fqdns[0])
            return {fqdn: shared for fqdn in fqdns}
        return {}

    def _small_vps_slugs(self) -> tuple[str, ...]:
        """Unpopular hosting companies whose VPS customers evade step 4."""
        return tuple(
            slug for slug in sorted(self.companies)
            if self.companies[slug].spec.kind is CompanyKind.OTHER
        )[:6]

    def _base_zonedb(self) -> ZoneDB:
        """A fresh ZoneDB pre-populated with all provider-side records."""
        zdb = ZoneDB()
        for apex in sorted(self.provider_zone_apexes):
            zdb.ensure_zone(apex)
        for fqdn, address in self.provider_a_records:
            zdb.add(a_record(fqdn, address))
        # Published sender policies: customers reference these via
        # "include:_spf.<provider-id>".
        for infra in self.companies.values():
            if not infra.spf_prefixes:
                continue
            mechanisms = " ".join(f"ip4:{prefix}" for prefix in infra.spf_prefixes)
            for provider_id in infra.spec.provider_ids:
                if zdb.zone_for(f"_spf.{provider_id}") is not None:
                    zdb.add(spf_record(f"_spf.{provider_id}", f"{mechanisms} ~all"))
        return zdb

    # -- corpora -----------------------------------------------------------

    def _fresh_domain(self, tld: str) -> str:
        while True:
            name = f"{synth_label(self.rng)}.{tld}"
            if name not in self.used_names and name not in SHOWCASE_DOMAINS:
                self.used_names.add(name)
                return name

    def _weighted_choice(self, weights: dict[str, float]) -> str:
        total = sum(weights.values())
        roll = self.rng.random() * total
        cumulative = 0.0
        for key, weight in weights.items():
            cumulative += weight
            if roll < cumulative:
                return key
        return next(reversed(weights))  # pragma: no cover - float fringe

    def _generate_corpora(self) -> dict[str, DomainEntity]:
        entities: dict[str, DomainEntity] = {}
        segments: list[tuple[ShareTable, list[DomainEntity]]] = []

        # Alexa: rank buckets split into a gTLD segment per bucket plus one
        # segment per ccTLD (ccTLD provider mix does not vary with rank).
        cctld_members: dict[str, list[DomainEntity]] = {cc: [] for cc in ALEXA_CCTLD_TABLES}
        gtld_tlds = ("com", "com", "com", "net", "org", "io", "info")
        for bucket in iter_alexa_buckets(self.config.alexa_size):
            members: list[DomainEntity] = []
            for _ in range(bucket.count):
                rank = self.rng.randint(bucket.low, bucket.high)
                if self.rng.random() < bucket.cc_fraction:
                    cctld = self._weighted_choice(bucket.cc_weights)
                    name = self._fresh_domain(cctld)
                    entity = DomainEntity(
                        name=name, dataset=DatasetTag.ALEXA, alexa_rank=rank, cctld=cctld
                    )
                    cctld_members[cctld].append(entity)
                else:
                    name = self._fresh_domain(self.rng.choice(gtld_tlds))
                    entity = DomainEntity(
                        name=name, dataset=DatasetTag.ALEXA, alexa_rank=rank
                    )
                    members.append(entity)
                entities[entity.name] = entity
            segments.append((bucket.table, members))
        for cctld, members in cctld_members.items():
            segments.append((ALEXA_CCTLD_TABLES[cctld], members))

        # Random .com corpus.
        com_members = []
        for _ in range(self.config.com_size):
            entity = DomainEntity(name=self._fresh_domain("com"), dataset=DatasetTag.COM)
            entities[entity.name] = entity
            com_members.append(entity)
        segments.append((COM_TABLE, com_members))

        # .gov corpus, split federal / non-federal.
        federal_members, nonfederal_members = [], []
        for _ in range(self.config.gov_size):
            is_federal = self.rng.random() < GOV_FEDERAL_FRACTION
            entity = DomainEntity(
                name=self._fresh_domain("gov"), dataset=DatasetTag.GOV, is_federal=is_federal
            )
            entities[entity.name] = entity
            (federal_members if is_federal else nonfederal_members).append(entity)
        segments.append((GOV_FEDERAL_TABLE, federal_members))
        segments.append((GOV_NONFEDERAL_TABLE, nonfederal_members))

        others_pool = tuple(
            slug for slug, infra in sorted(self.companies.items())
            if infra.spec.kind is CompanyKind.OTHER
        )
        for table, members in segments:
            self._assign_segment(table, members, others_pool)
        return entities

    def _assign_segment(
        self,
        table: ShareTable,
        members: list[DomainEntity],
        others_pool: tuple[str, ...],
    ) -> None:
        evolver = SegmentEvolver(
            table=table,
            rng=random.Random(self.rng.getrandbits(32)),
            others_pool=others_pool,
            swap_rate=self.config.swap_rate,
        )
        assignment = evolver.assign([entity.name for entity in members])
        for entity in members:
            for category in assignment.categories[entity.name]:
                entity.assignments.append(
                    self._materialize_assignment(entity.name, category)
                )

    def _materialize_assignment(self, name: str, category: str) -> DomainAssignment:
        if category == SELF:
            return DomainAssignment(
                company_slug=None, truth=TRUTH_SELF, style=pick_style(name, SELF)
            )
        if category == NONE:
            return DomainAssignment(
                company_slug=None, truth=TRUTH_NONE, style=pick_style(name, NONE)
            )
        spec = self.companies[category].spec
        style = pick_style(name, category, spec.default_mx_is_customer_named)
        secondary = None
        if (
            style is ProvisioningStyle.PROVIDER_NAMED
            and spec.kind is CompanyKind.MAILBOX
            and (domain_fingerprint(name, "splitmx") % 10_000) / 10_000.0 < SPLIT_MX_FRACTION
        ):
            secondary = "google" if category != "google" else "microsoft"
        # Filtering customers forward to a mailbox provider behind the
        # filter; most reveal it in SPF (the Section 3.4 multi-hop case).
        eventual = None
        if spec.kind is CompanyKind.SECURITY:
            roll = (domain_fingerprint(name, "eventual") % 10_000) / 10_000.0
            if roll < 0.70:
                eventual = "microsoft" if roll < 0.40 else "google"
        return DomainAssignment(
            company_slug=category, truth=category, style=style,
            secondary_slug=secondary, eventual_slug=eventual,
        )

    def _showcase_entities(self) -> dict[str, DomainEntity]:
        """The paper's worked examples (Tables 1 and 2), pinned in every snapshot."""
        def fixed(entity: DomainEntity, assignment: DomainAssignment) -> DomainEntity:
            entity.assignments = [assignment] * NUM_SNAPSHOTS
            return entity

        showcase = {
            "netflix.com": fixed(
                DomainEntity(name="netflix.com", dataset=DatasetTag.ALEXA, alexa_rank=25),
                DomainAssignment("google", "google", ProvisioningStyle.PROVIDER_NAMED),
            ),
            "gsipartners.com": fixed(
                DomainEntity(name="gsipartners.com", dataset=DatasetTag.COM),
                DomainAssignment("google", "google", ProvisioningStyle.CUSTOMER_NAMED),
            ),
            "beats24-7.com": fixed(
                DomainEntity(name="beats24-7.com", dataset=DatasetTag.COM),
                DomainAssignment(
                    "mailspamprotection", "mailspamprotection", ProvisioningStyle.PROVIDER_NAMED
                ),
            ),
            "jeniustoto.net": fixed(
                DomainEntity(name="jeniustoto.net", dataset=DatasetTag.ALEXA, alexa_rank=500_000),
                DomainAssignment(None, TRUTH_NONE, ProvisioningStyle.NO_SMTP),
            ),
            "utexas.edu": fixed(
                DomainEntity(name="utexas.edu", dataset=DatasetTag.ALEXA, alexa_rank=3_000),
                DomainAssignment("ironport", "ironport", ProvisioningStyle.PROVIDER_NAMED),
            ),
        }
        return showcase
