"""DNS resource-record model.

A deliberately small but faithful subset of the DNS data model: the record
types the measurement pipeline consumes (A, AAAA, CNAME, MX, NS, TXT) with
typed rdata, TTLs, and RRset semantics.  Records are immutable value objects
so they can live in sets and serve as dictionary keys throughout the
snapshotting machinery.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

from .names import is_valid_hostname, normalize


class RRType(enum.Enum):
    """Resource-record types understood by the simulator."""

    A = "A"
    AAAA = "AAAA"
    CNAME = "CNAME"
    MX = "MX"
    NS = "NS"
    TXT = "TXT"

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value


@dataclass(frozen=True, order=True)
class Record:
    """One DNS resource record.

    ``rdata`` is the type-specific payload rendered in zone-file style:
    an IPv4 dotted quad for A, a target name for CNAME/NS, the exchange
    name for MX (preference lives in ``preference``), free text for TXT.
    """

    name: str
    rtype: RRType = field(compare=False)
    rdata: str
    ttl: int = field(default=3600, compare=False)
    preference: int = 0  # MX only; 0 otherwise.

    def __post_init__(self) -> None:
        object.__setattr__(self, "name", normalize(self.name))
        if self.rtype in (RRType.CNAME, RRType.NS, RRType.MX):
            object.__setattr__(self, "rdata", normalize(self.rdata))
        if self.ttl < 0:
            raise ValueError("TTL must be non-negative")
        if self.preference < 0 or self.preference > 65535:
            raise ValueError("MX preference must fit in 16 bits")
        if self.preference and self.rtype is not RRType.MX:
            raise ValueError("preference is only meaningful for MX records")

    def to_zone_line(self) -> str:
        """Render in conventional zone-file presentation order."""
        if self.rtype is RRType.MX:
            return f"{self.name}. {self.ttl} IN MX {self.preference} {self.rdata}."
        if self.rtype in (RRType.CNAME, RRType.NS):
            return f"{self.name}. {self.ttl} IN {self.rtype} {self.rdata}."
        if self.rtype is RRType.TXT:
            return f'{self.name}. {self.ttl} IN TXT "{self.rdata}"'
        return f"{self.name}. {self.ttl} IN {self.rtype} {self.rdata}"


def a(name: str, address: str, ttl: int = 3600) -> Record:
    """Construct an A record."""
    return Record(name=name, rtype=RRType.A, rdata=address, ttl=ttl)


def cname(name: str, target: str, ttl: int = 3600) -> Record:
    """Construct a CNAME record."""
    return Record(name=name, rtype=RRType.CNAME, rdata=target, ttl=ttl)


def mx(name: str, exchange: str, preference: int = 10, ttl: int = 3600) -> Record:
    """Construct an MX record.

    The exchange must be a hostname (RFC 7505 "null MX" uses the root name,
    which we model as the literal ``"."``-less empty exchange via
    :func:`null_mx`).
    """
    if not is_valid_hostname(exchange):
        raise ValueError(f"MX exchange is not a valid hostname: {exchange!r}")
    return Record(name=name, rtype=RRType.MX, rdata=exchange, ttl=ttl, preference=preference)


def ns(name: str, target: str, ttl: int = 86400) -> Record:
    """Construct an NS record."""
    return Record(name=name, rtype=RRType.NS, rdata=target, ttl=ttl)


def txt(name: str, text: str, ttl: int = 3600) -> Record:
    """Construct a TXT record."""
    return Record(name=name, rtype=RRType.TXT, rdata=text, ttl=ttl)


def spf(name: str, directives: str, ttl: int = 3600) -> Record:
    """Construct an SPF policy published as TXT (RFC 7208)."""
    return txt(name, f"v=spf1 {directives}", ttl=ttl)


@dataclass(frozen=True)
class RRset:
    """All records of one (name, type) pair, as returned by a query."""

    name: str
    rtype: RRType
    records: tuple[Record, ...]

    def __post_init__(self) -> None:
        if not self.records:
            return
        name = normalize(self.name)
        for record in self.records:
            if record.name != name or record.rtype is not self.rtype:
                raise ValueError("RRset members must share name and type")

    def __iter__(self):
        return iter(self.records)

    def __len__(self) -> int:
        return len(self.records)

    def rdatas(self) -> list[str]:
        return [record.rdata for record in self.records]

    def sorted_by_preference(self) -> list[Record]:
        """MX helper: records ordered best-preference (lowest) first."""
        return sorted(self.records, key=lambda record: (record.preference, record.rdata))

    def best_preference(self) -> int | None:
        """The smallest (most preferred) MX preference, or None if empty."""
        if not self.records:
            return None
        return min(record.preference for record in self.records)

    def most_preferred(self) -> list[Record]:
        """All records tied at the best preference (the "primary" MX set)."""
        best = self.best_preference()
        if best is None:
            return []
        return [record for record in self.records if record.preference == best]
