"""Client-side SMTP sessions against the simulated host table.

Reproduces what a port-25 scanner observes: connect, read the banner, send
EHLO, read the EHLO response, optionally run STARTTLS and capture the
certificate.  The result object carries exactly the fields the Censys
substrate snapshots and the inference pipeline consumes.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from datetime import date

from ..tls.cert import Certificate
from .replies import Reply
from .server import SMTP_RELAY_PORT, SMTPHostTable


class SessionOutcome(enum.Enum):
    """How far a probe session got."""

    CONNECTED = "connected"            # full handshake observed
    CONNECTION_REFUSED = "refused"     # host exists, port closed
    TIMEOUT = "timeout"                # nothing at the address
    TLS_FAILED = "tls_failed"          # STARTTLS advertised but failed


@dataclass(frozen=True)
class SessionResult:
    """Observable artifacts of one SMTP probe."""

    address: str
    port: int
    outcome: SessionOutcome
    banner: Reply | None = None
    ehlo: Reply | None = None
    starttls_offered: bool = False
    certificate: Certificate | None = None

    @property
    def banner_text(self) -> str | None:
        return self.banner.text if self.banner else None

    @property
    def ehlo_identity(self) -> str | None:
        return self.ehlo.first_line if self.ehlo else None


class SMTPClient:
    """Drives probe sessions against an :class:`SMTPHostTable`.

    ``faults`` (a :class:`~repro.faults.FaultInjector`, or None) perturbs
    sessions the way real scans fail: refused connections, slow hosts
    that time out (``attempt`` re-rolls them, so a caller's retry loop
    can recover), sessions that die after a partial banner, and STARTTLS
    handshakes that never complete.  ``on`` scopes the decisions to one
    measurement day.
    """

    def __init__(
        self,
        hosts: SMTPHostTable,
        helo_name: str = "scanner.example",
        faults: object | None = None,
    ):
        self.hosts = hosts
        self.helo_name = helo_name
        self.faults = faults

    def probe(
        self,
        address: str,
        port: int = SMTP_RELAY_PORT,
        *,
        on: date | None = None,
        attempt: int = 0,
    ) -> SessionResult:
        """Run one scan-style session against address:port."""
        if self.faults is not None:
            fault = self.faults.probe_fault(address, on, attempt)
            if fault is not None:
                return SessionResult(address=address, port=port, outcome=fault)
        config = self.hosts.get(address)
        if config is None:
            return SessionResult(address=address, port=port, outcome=SessionOutcome.TIMEOUT)
        if not config.listens_on(port):
            return SessionResult(
                address=address, port=port, outcome=SessionOutcome.CONNECTION_REFUSED
            )

        banner = config.greet(address)
        if self.faults is not None:
            truncated = self.faults.truncated_banner(banner.first_line, address, on)
            if truncated is not None:
                # The connection died mid-banner: no EHLO, no STARTTLS.
                return SessionResult(
                    address=address,
                    port=port,
                    outcome=SessionOutcome.CONNECTED,
                    banner=Reply(code=banner.code, lines=(truncated,)),
                )
        ehlo = config.respond_ehlo(address)
        offered = any(line.startswith("STARTTLS") for line in ehlo.lines[1:])

        certificate: Certificate | None = None
        outcome = SessionOutcome.CONNECTED
        if offered:
            if config.certificate is not None:
                certificate = config.certificate
            else:  # pragma: no cover - config forbids this, defensive only
                outcome = SessionOutcome.TLS_FAILED
            if (
                certificate is not None
                and self.faults is not None
                and self.faults.tls_handshake_fails(address, on)
            ):
                outcome = SessionOutcome.TLS_FAILED
                certificate = None

        return SessionResult(
            address=address,
            port=port,
            outcome=outcome,
            banner=banner,
            ehlo=ehlo,
            starttls_offered=offered,
            certificate=certificate,
        )
