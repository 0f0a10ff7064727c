"""OpenINTEL-style active DNS measurement platform.

Reproduces the observable surface of OpenINTEL [38] used in Section 4.2.1:
for a list of target domains and a snapshot date, record each domain's MX
records and the IPv4 addresses the MX names resolve to.  Coverage policy is
part of the model — OpenINTEL had no ``.gov`` coverage before June 2018, so
the platform refuses to answer for TLDs before their coverage start.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from datetime import date

from ..dnscore import Resolver, RRType, ZoneDB
from ..dnscore.names import normalize


@dataclass(frozen=True)
class MXObservation:
    """One MX record as measured: the name, preference, and resolved IPs."""

    name: str
    preference: int
    addresses: tuple[str, ...]


@dataclass(frozen=True)
class DNSSnapshotRecord:
    """Everything the platform learned about one domain on one day."""

    domain: str
    measured_on: date
    mx: tuple[MXObservation, ...]
    txt: tuple[str, ...] = ()  # apex TXT records (SPF policies live here)

    @property
    def has_mx(self) -> bool:
        return bool(self.mx)

    @property
    def most_preferred(self) -> tuple[MXObservation, ...]:
        """The primary MX set: all records tied at the best preference."""
        if not self.mx:
            return ()
        best = min(observation.preference for observation in self.mx)
        return tuple(obs for obs in self.mx if obs.preference == best)

    @property
    def all_addresses(self) -> tuple[str, ...]:
        seen: list[str] = []
        for observation in self.mx:
            for address in observation.addresses:
                if address not in seen:
                    seen.append(address)
        return tuple(seen)


@dataclass
class OpenINTELPlatform:
    """Active DNS measurement over per-snapshot zone databases.

    ``faults`` (a :class:`~repro.faults.FaultInjector`, or None) makes the
    per-snapshot resolvers fail the way OpenINTEL's recorded resolutions
    do — SERVFAILs, timed-out queries, partially answered zones — scoped
    by snapshot date, so a domain can be dark on one measurement day and
    present the next.
    """

    snapshot_zones: list[ZoneDB]
    snapshot_dates: tuple[date, ...]
    # TLD → index of the first snapshot with coverage (OpenINTEL gained
    # .gov coverage only from June 2018, Section 4.1).
    tld_coverage_start: dict[str, int] = field(default_factory=lambda: {"gov": 2})
    faults: object | None = None

    def __post_init__(self) -> None:
        if len(self.snapshot_zones) != len(self.snapshot_dates):
            raise ValueError("one ZoneDB per snapshot date required")
        self._resolvers = [
            Resolver(db=zdb, faults=self.faults, fault_scope=day.isoformat())
            for zdb, day in zip(self.snapshot_zones, self.snapshot_dates)
        ]

    @property
    def num_snapshots(self) -> int:
        return len(self.snapshot_dates)

    def covers(self, domain: str, snapshot_index: int) -> bool:
        tld = normalize(domain).rsplit(".", 1)[-1]
        return snapshot_index >= self.tld_coverage_start.get(tld, 0)

    def measure_domain(self, domain: str, snapshot_index: int) -> DNSSnapshotRecord | None:
        """Measure one domain at one snapshot; None when out of coverage."""
        domain = normalize(domain)
        if not 0 <= snapshot_index < self.num_snapshots:
            raise IndexError(f"no snapshot {snapshot_index}")
        if not self.covers(domain, snapshot_index):
            return None
        resolver = self._resolvers[snapshot_index]
        observations = []
        for record in resolver.resolve_mx(domain):
            addresses = tuple(resolver.resolve_a(record.rdata))
            observations.append(
                MXObservation(
                    name=record.rdata,
                    preference=record.preference,
                    addresses=addresses,
                )
            )
        txt_answer = resolver.resolve(domain, RRType.TXT)
        return DNSSnapshotRecord(
            domain=domain,
            measured_on=self.snapshot_dates[snapshot_index],
            mx=tuple(observations),
            txt=tuple(txt_answer.rdatas) if txt_answer else (),
        )

    def measure(
        self, domains: list[str], snapshot_index: int
    ) -> dict[str, DNSSnapshotRecord]:
        """Measure a target list; domains out of coverage are omitted."""
        results: dict[str, DNSSnapshotRecord] = {}
        for domain in domains:
            record = self.measure_domain(domain, snapshot_index)
            if record is not None:
                results[record.domain] = record
        return results

    def trim_cache(self, max_entries: int) -> int:
        """Clear the per-snapshot resolver caches once they outgrow the cap.

        Resolver answers are pure in (zone, fault plan, name, type), so a
        cleared entry resolves identically on the next query — the caches
        are the dominant cross-snapshot memory growth on streamed runs
        and must stay bounded for the flat-RSS gate to hold.
        """
        cached = sum(len(resolver._cache) for resolver in self._resolvers)
        if cached <= max_entries:
            return 0
        for resolver in self._resolvers:
            resolver.clear_cache()
        return cached
