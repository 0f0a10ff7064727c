"""Autonomous systems and prefix-to-AS mapping.

Models the CAIDA Routeviews prefix2as dataset [6] the paper augments IP
addresses with: a set of AS objects, their announced prefixes, and a
longest-prefix-match lookup implemented as a binary trie (so lookups are
O(32) regardless of table size).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .ip import IPv4Address, IPv4Prefix, parse_ipv4


@dataclass(frozen=True)
class AutonomousSystem:
    """One AS: number, holder name, and country of registration."""

    number: int
    name: str
    country: str = "US"

    def __post_init__(self) -> None:
        if not 0 < self.number < 2**32:
            raise ValueError(f"bad AS number: {self.number}")

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return f"AS{self.number} ({self.name})"


class _TrieNode:
    __slots__ = ("children", "asn")

    def __init__(self) -> None:
        self.children: list[_TrieNode | None] = [None, None]
        self.asn: int | None = None


@dataclass
class PrefixToASTable:
    """Longest-prefix-match table from IPv4 prefixes to origin ASNs.

    Mirrors Routeviews semantics: the most specific announced prefix
    covering an address determines its origin AS.  Multi-origin prefixes
    are out of scope (the paper's pipeline only consumes a single ASN).
    """

    _root: _TrieNode = field(default_factory=_TrieNode)
    _asys: dict[int, AutonomousSystem] = field(default_factory=dict)
    _announcements: list[tuple[IPv4Prefix, int]] = field(default_factory=list)

    def register_as(self, asys: AutonomousSystem) -> None:
        existing = self._asys.get(asys.number)
        if existing is not None and existing != asys:
            raise ValueError(f"AS{asys.number} already registered as {existing.name}")
        self._asys[asys.number] = asys

    def announce(self, prefix: IPv4Prefix | str, asn: int) -> None:
        """Record that *asn* originates *prefix*."""
        if isinstance(prefix, str):
            prefix = IPv4Prefix.parse(prefix)
        if asn not in self._asys:
            raise KeyError(f"AS{asn} not registered")
        node = self._root
        for depth in range(prefix.length):
            bit = (prefix.network >> (31 - depth)) & 1
            if node.children[bit] is None:
                node.children[bit] = _TrieNode()
            node = node.children[bit]
        node.asn = asn
        self._announcements.append((prefix, asn))

    def lookup_asn(self, address: IPv4Address | str | int) -> int | None:
        """Origin ASN of the most specific covering prefix, or None."""
        if isinstance(address, str):
            value = parse_ipv4(address)
        elif isinstance(address, IPv4Address):
            value = address.value
        else:
            value = address
        node = self._root
        best = node.asn
        for depth in range(32):
            bit = (value >> (31 - depth)) & 1
            child = node.children[bit]
            if child is None:
                break
            node = child
            if node.asn is not None:
                best = node.asn
        return best

    def lookup(self, address: IPv4Address | str | int) -> AutonomousSystem | None:
        """The :class:`AutonomousSystem` owning *address*, or None."""
        asn = self.lookup_asn(address)
        if asn is None:
            return None
        return self._asys.get(asn)

    def get_as(self, asn: int) -> AutonomousSystem | None:
        return self._asys.get(asn)

    def announcements(self) -> list[tuple[IPv4Prefix, int]]:
        """All announcements in insertion order (for snapshot export)."""
        return list(self._announcements)

    def autonomous_systems(self) -> list[AutonomousSystem]:
        return sorted(self._asys.values(), key=lambda a: a.number)

    def lookup_linear(self, address: IPv4Address | str | int) -> int | None:
        """Reference LPM by linear scan; used to property-test the trie.

        Matches the trie's tie-break: when the same prefix is announced
        twice (re-origination), the most recent announcement wins.
        """
        if isinstance(address, str):
            address = IPv4Address.parse(address)
        elif isinstance(address, int):
            address = IPv4Address(address)
        best: tuple[int, int] | None = None  # (length, asn)
        for prefix, asn in self._announcements:
            if address in prefix:
                if best is None or prefix.length >= best[0]:
                    best = (prefix.length, asn)
        return best[1] if best else None
