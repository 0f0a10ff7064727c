"""IP and AS substrate: IPv4 arithmetic, prefix2as LPM, address registry."""

from .asn import AutonomousSystem, PrefixToASTable
from .ip import AddressError, IPv4Address, IPv4Prefix, format_ipv4, parse_ipv4
from .registry import AddressBlock, AddressRegistry, ExhaustedError

__all__ = [
    "AddressBlock",
    "AddressError",
    "AddressRegistry",
    "AutonomousSystem",
    "ExhaustedError",
    "IPv4Address",
    "IPv4Prefix",
    "PrefixToASTable",
    "format_ipv4",
    "parse_ipv4",
]
