"""Address-space registry: allocates prefixes and addresses to organizations.

The world builder uses this to hand out non-overlapping public IPv4 blocks
to the companies it creates (mail providers, hosting companies, security
vendors, cloud operators) and to carve per-server addresses out of those
blocks.  Every allocation is automatically announced in the associated
:class:`~repro.netsim.asn.PrefixToASTable`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .asn import AutonomousSystem, PrefixToASTable
from .ip import AddressError, IPv4Address, IPv4Prefix


class ExhaustedError(RuntimeError):
    """Raised when a registry or block has no space left."""


@dataclass
class AddressBlock:
    """A prefix assigned to one organization, with a bump allocator."""

    prefix: IPv4Prefix
    asn: int
    _next_offset: int = 1  # skip the network address

    def allocate_address(self) -> IPv4Address:
        # Leave the broadcast address unused, as real deployments do.
        if self._next_offset >= self.prefix.size - 1:
            raise ExhaustedError(f"block {self.prefix} exhausted")
        address = IPv4Address(self.prefix.network + self._next_offset)
        self._next_offset += 1
        return address

    @property
    def allocated_count(self) -> int:
        return self._next_offset - 1


@dataclass
class AddressRegistry:
    """Carves a supernet into per-AS blocks and tracks announcements.

    The default supernet (11.0.0.0/8) is chosen to be publicly routable,
    non-RFC1918 space so that `IPv4Address.is_private` stays False for all
    simulated infrastructure.
    """

    table: PrefixToASTable = field(default_factory=PrefixToASTable)
    supernet: IPv4Prefix = field(default_factory=lambda: IPv4Prefix.parse("11.0.0.0/8"))
    _next_network: int = field(init=False)
    _blocks: list[AddressBlock] = field(default_factory=list)

    def __post_init__(self) -> None:
        self._next_network = self.supernet.network

    def register_as(
        self, number: int, name: str, country: str = "US"
    ) -> AutonomousSystem:
        asys = AutonomousSystem(number=number, name=name, country=country)
        self.table.register_as(asys)
        return asys

    def allocate_block(self, asn: int, length: int = 20) -> AddressBlock:
        """Allocate the next free /length block to *asn* and announce it."""
        if length < self.supernet.length or length > 30:
            raise AddressError(f"unsupported block length /{length}")
        size = 1 << (32 - length)
        # Align the cursor to the block size.
        network = (self._next_network + size - 1) & ~(size - 1)
        if network + size > self.supernet.network + self.supernet.size:
            raise ExhaustedError("registry supernet exhausted")
        self._next_network = network + size
        prefix = IPv4Prefix(network, length)
        self.table.announce(prefix, asn)
        block = AddressBlock(prefix=prefix, asn=asn)
        self._blocks.append(block)
        return block

    def blocks(self) -> list[AddressBlock]:
        return list(self._blocks)

    def lookup_asn(self, address: IPv4Address | str) -> int | None:
        return self.table.lookup_asn(address)
