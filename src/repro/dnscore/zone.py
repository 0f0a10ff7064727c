"""DNS zone storage.

A :class:`Zone` owns the records below one apex; a :class:`ZoneDB` is the
flat namespace the resolver queries.  The simulator does not model
delegation-chasing between authoritative servers — OpenINTEL-style platforms
see the DNS through a recursive resolver, so a single authoritative store
with CNAME indirection reproduces the observable behaviour.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field

from .names import normalize
from .records import Record, RRset, RRType


class ZoneConflictError(ValueError):
    """Raised when a record insertion violates DNS data rules."""


@dataclass
class Zone:
    """Records under a single apex name.

    Enforces the CNAME exclusivity rule (RFC 1034 section 3.6.2): a name
    owning a CNAME may own no other data.
    """

    apex: str
    _store: dict[tuple[str, RRType], list[Record]] = field(default_factory=dict)

    def __post_init__(self) -> None:
        self.apex = normalize(self.apex)

    def add(self, record: Record) -> None:
        # Record names are normalized on construction, and so is the apex.
        name = record.name
        if name != self.apex and not name.endswith("." + self.apex):
            raise ZoneConflictError(
                f"record {name} does not belong to zone {self.apex}"
            )
        self._check_cname_exclusivity(record)
        bucket = self._store.setdefault((name, record.rtype), [])
        if record not in bucket:
            bucket.append(record)

    def _check_cname_exclusivity(self, record: Record) -> None:
        has_cname = (record.name, RRType.CNAME) in self._store
        if record.rtype is RRType.CNAME:
            other_types = [
                rtype
                for (name, rtype) in self._store
                if name == record.name and rtype is not RRType.CNAME
            ]
            if other_types:
                raise ZoneConflictError(
                    f"{record.name}: CNAME cannot coexist with {other_types}"
                )
            existing = self._store.get((record.name, RRType.CNAME), [])
            if existing and existing[0].rdata != record.rdata:
                raise ZoneConflictError(f"{record.name}: conflicting CNAME targets")
        elif has_cname:
            raise ZoneConflictError(
                f"{record.name}: name owns a CNAME, cannot add {record.rtype}"
            )

    def remove(self, name: str, rtype: RRType) -> None:
        """Drop the whole RRset for (name, type); silent if absent."""
        self._store.pop((normalize(name), rtype), None)

    def lookup(self, name: str, rtype: RRType) -> list[Record]:
        return list(self._store.get((normalize(name), rtype), []))

    def names(self) -> set[str]:
        return {name for (name, _rtype) in self._store}

    def __len__(self) -> int:
        return sum(len(bucket) for bucket in self._store.values())


@dataclass
class ZoneDB:
    """The authoritative view of the simulated DNS namespace.

    Zones are keyed by apex; lookups route to the most specific enclosing
    zone (longest-suffix match), mirroring how delegations partition the
    namespace.
    """

    _zones: dict[str, Zone] = field(default_factory=dict)
    _by_tld: dict[str, set[str]] = field(default_factory=lambda: defaultdict(set))

    def ensure_zone(self, apex: str) -> Zone:
        apex = normalize(apex)
        if apex not in self._zones:
            self._zones[apex] = Zone(apex=apex)
            self._by_tld[apex.rsplit(".", 1)[-1]].add(apex)
        return self._zones[apex]

    def zone_for(self, name: str) -> Zone | None:
        """Most specific zone whose apex encloses *name*."""
        return self._enclosing(normalize(name))

    def _enclosing(self, candidate: str) -> Zone | None:
        """:meth:`zone_for` over an already-normalized name."""
        while candidate:
            if candidate in self._zones:
                return self._zones[candidate]
            if "." not in candidate:
                return None
            candidate = candidate.split(".", 1)[1]
        return None

    def add(self, record: Record) -> None:
        zone = self._enclosing(record.name)
        if zone is None:
            raise ZoneConflictError(f"no zone encloses {record.name}")
        zone.add(record)

    def lookup(self, name: str, rtype: RRType) -> RRset:
        """Authoritative lookup — no CNAME chasing (the resolver does that)."""
        name = normalize(name)
        zone = self._enclosing(name)
        records = zone._store.get((name, rtype), ()) if zone is not None else ()
        return RRset(name=name, rtype=rtype, records=tuple(records))

    def zones_under_tld(self, tld: str) -> list[str]:
        return sorted(self._by_tld.get(normalize(tld), set()))

    def __contains__(self, apex: str) -> bool:
        return normalize(apex) in self._zones

    def __len__(self) -> int:
        return len(self._zones)
