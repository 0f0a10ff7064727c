"""Simulated mail transfer agents.

An :class:`SMTPServerConfig` describes the externally observable behaviour
of one MTA endpoint: which port it listens on, the banner/EHLO style and
identity it emits, whether it offers STARTTLS and with which certificate.
:class:`SMTPHostTable` maps IPv4 addresses to server configs — the ground
truth the Censys-style scanner probes.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..tls.cert import Certificate
from .banner import BannerStyle, render_banner, render_ehlo_identity
from .replies import Reply, ehlo_response, service_ready

SMTP_RELAY_PORT = 25
SUBMISSION_PORT = 587
SMTPS_PORT = 465

BASE_EXTENSIONS: tuple[str, ...] = ("PIPELINING", "SIZE 52428800", "8BITMIME", "ENHANCEDSTATUSCODES")


@dataclass
class SMTPServerConfig:
    """Externally observable configuration of one MTA endpoint."""

    identity: str | None
    banner_style: BannerStyle = BannerStyle.FQDN
    starttls: bool = True
    certificate: Certificate | None = None
    software: str = "ESMTP"
    open_ports: tuple[int, ...] = (SMTP_RELAY_PORT, SUBMISSION_PORT)
    accepts_mail: bool = True

    def __post_init__(self) -> None:
        if self.starttls and self.certificate is None:
            raise ValueError("STARTTLS requires a certificate")
        if self.banner_style in (BannerStyle.FQDN, BannerStyle.SPOOFED) and not self.identity:
            raise ValueError(f"{self.banner_style} requires an identity")

    def listens_on(self, port: int) -> bool:
        return port in self.open_ports

    def greet(self, address: str) -> Reply:
        """The 220 greeting a connecting client receives."""
        return service_ready(
            render_banner(self.banner_style, self.identity, address, self.software)
        )

    def respond_ehlo(self, address: str) -> Reply:
        """The multi-line 250 response to EHLO."""
        extensions = list(BASE_EXTENSIONS)
        if self.starttls:
            extensions.append("STARTTLS")
        claimed = render_ehlo_identity(self.banner_style, self.identity, address)
        return ehlo_response(claimed, tuple(extensions))


@dataclass
class SMTPHostTable:
    """Which MTA (if any) answers at each IPv4 address.

    Addresses with no entry model hosts that are unreachable or have no
    SMTP service at all — e.g. the paper's ``jeniustoto.net`` example,
    whose MX resolves into Google's web-hosting space where nothing
    listens on port 25.
    """

    _hosts: dict[str, SMTPServerConfig] = field(default_factory=dict)

    def bind(self, address: str, config: SMTPServerConfig) -> None:
        if address in self._hosts and self._hosts[address] is not config:
            raise ValueError(f"address {address} already bound")
        self._hosts[address] = config

    def get(self, address: str) -> SMTPServerConfig | None:
        return self._hosts.get(address)

    def addresses(self) -> list[str]:
        return sorted(self._hosts)

    def __contains__(self, address: str) -> bool:
        return address in self._hosts

    def __len__(self) -> int:
        return len(self._hosts)
