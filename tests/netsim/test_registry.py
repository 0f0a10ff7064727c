"""Unit tests for the address registry."""

import pytest

from repro.netsim.ip import AddressError, IPv4Prefix
from repro.netsim.registry import AddressRegistry, ExhaustedError


@pytest.fixture
def registry():
    registry = AddressRegistry()
    registry.register_as(15169, "Google")
    registry.register_as(8075, "Microsoft")
    return registry


class TestAllocation:
    def test_blocks_do_not_overlap(self, registry):
        blocks = [registry.allocate_block(15169, 20) for _ in range(8)]
        for i, left in enumerate(blocks):
            for right in blocks[i + 1:]:
                assert not left.prefix.overlaps(right.prefix)

    def test_blocks_inside_supernet(self, registry):
        block = registry.allocate_block(15169, 20)
        assert block.prefix in registry.supernet

    def test_block_announced(self, registry):
        block = registry.allocate_block(15169, 20)
        assert registry.lookup_asn(str(block.prefix.first + 1)) == 15169

    def test_mixed_lengths_aligned(self, registry):
        small = registry.allocate_block(15169, 24)
        large = registry.allocate_block(8075, 16)
        assert not small.prefix.overlaps(large.prefix)
        assert large.prefix.network % large.prefix.size == 0

    def test_address_allocation_skips_network_and_broadcast(self, registry):
        block = registry.allocate_block(15169, 30)  # 4 addresses, 2 usable
        first = block.allocate_address()
        second = block.allocate_address()
        assert first == block.prefix.first + 1
        assert second == block.prefix.first + 2
        with pytest.raises(ExhaustedError):
            block.allocate_address()
        assert block.allocated_count == 2

    def test_unsupported_length(self, registry):
        with pytest.raises(AddressError):
            registry.allocate_block(15169, 31)
        with pytest.raises(AddressError):
            registry.allocate_block(15169, 4)

    def test_supernet_exhaustion(self):
        registry = AddressRegistry(supernet=IPv4Prefix.parse("11.0.0.0/22"))
        registry.register_as(1, "Tiny")
        registry.allocate_block(1, 23)
        registry.allocate_block(1, 23)
        with pytest.raises(ExhaustedError):
            registry.allocate_block(1, 23)

    def test_blocks_listing(self, registry):
        registry.allocate_block(15169, 20)
        registry.allocate_block(8075, 20)
        assert len(registry.blocks()) == 2

    def test_allocated_addresses_not_private(self, registry):
        block = registry.allocate_block(15169, 20)
        assert not block.allocate_address().is_private()
