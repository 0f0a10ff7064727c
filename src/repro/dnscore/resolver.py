"""Recursive-resolver behaviour over a :class:`~repro.dnscore.zone.ZoneDB`.

Implements the observable surface an active-measurement platform sees:
query a (name, type), follow CNAME chains with loop/length protection, and
report one of the standard outcomes (NOERROR with data, NODATA, NXDOMAIN,
SERVFAIL on broken chains).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

from .names import normalize
from .records import Record, RRType
from .zone import ZoneDB

MAX_CNAME_CHAIN = 8


class Rcode(enum.Enum):
    """Resolution outcome, collapsed to what measurement pipelines record."""

    NOERROR = "NOERROR"
    NXDOMAIN = "NXDOMAIN"
    NODATA = "NODATA"
    SERVFAIL = "SERVFAIL"


@dataclass(frozen=True)
class Answer:
    """Result of a resolution.

    ``chain`` lists the CNAME hops traversed (query name first), and
    ``records`` holds the final RRset of the requested type (empty unless
    rcode is NOERROR).
    """

    qname: str
    qtype: RRType
    rcode: Rcode
    records: tuple[Record, ...] = ()
    chain: tuple[str, ...] = ()

    @property
    def rdatas(self) -> list[str]:
        return [record.rdata for record in self.records]

    def __bool__(self) -> bool:
        return self.rcode is Rcode.NOERROR and bool(self.records)


@dataclass
class Resolver:
    """A caching stub resolver over an authoritative :class:`ZoneDB`.

    ``faults`` (a :class:`~repro.faults.FaultInjector`, or None) perturbs
    answers on the way out — SERVFAIL, retried-then-exhausted timeouts,
    partial-zone record dropout — keyed by ``fault_scope`` (the snapshot
    date) so the same name can fail on one measurement day and resolve on
    the next.  Faulted answers are pure in (plan, scope, name, type) and
    cache exactly like real ones.
    """

    db: ZoneDB
    enable_cache: bool = True
    faults: object | None = None
    fault_scope: str = ""
    _cache: dict[tuple[str, RRType], Answer] = field(default_factory=dict)

    def resolve(self, name: str, rtype: RRType) -> Answer:
        """Resolve (name, type), chasing CNAMEs for non-CNAME queries."""
        name = normalize(name)
        key = (name, rtype)
        if self.enable_cache and key in self._cache:
            return self._cache[key]
        answer = self._resolve_uncached(name, rtype)
        if self.faults is not None:
            answer = self.faults.perturb_dns(self.fault_scope, answer)
        if self.enable_cache:
            self._cache[key] = answer
        return answer

    def _resolve_uncached(self, name: str, rtype: RRType) -> Answer:
        chain: list[str] = []
        current = name
        seen: set[str] = set()
        for _hop in range(MAX_CNAME_CHAIN + 1):
            if current in seen:
                return Answer(name, rtype, Rcode.SERVFAIL, chain=tuple(chain))
            seen.add(current)
            chain.append(current)

            rrset = self.db.lookup(current, rtype)
            if rrset.records:
                return Answer(
                    name, rtype, Rcode.NOERROR,
                    records=tuple(rrset.records), chain=tuple(chain),
                )
            if rtype is not RRType.CNAME:
                cname_set = self.db.lookup(current, RRType.CNAME)
                if cname_set.records:
                    current = cname_set.records[0].rdata
                    continue
            if self._name_exists(current):
                return Answer(name, rtype, Rcode.NODATA, chain=tuple(chain))
            return Answer(name, rtype, Rcode.NXDOMAIN, chain=tuple(chain))
        return Answer(name, rtype, Rcode.SERVFAIL, chain=tuple(chain))

    def _name_exists(self, name: str) -> bool:
        zone = self.db.zone_for(name)
        if zone is None:
            return False
        return any(owner == name for owner in zone.names())

    def resolve_a(self, name: str) -> list[str]:
        """Convenience: the IPv4 addresses of *name* ([] on any failure)."""
        answer = self.resolve(name, RRType.A)
        return answer.rdatas if answer else []

    def resolve_mx(self, name: str) -> list[Record]:
        """Convenience: MX records of *name*, best preference first."""
        answer = self.resolve(name, RRType.MX)
        if not answer:
            return []
        return sorted(answer.records, key=lambda r: (r.preference, r.rdata))

    def clear_cache(self) -> None:
        self._cache.clear()
