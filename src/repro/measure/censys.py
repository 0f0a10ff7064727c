"""Censys-style Internet-wide port-25 scanning.

Models the scan data the paper consumes from Censys [12] (Section 4.2.2):
per-IP, per-day application-layer captures of the SMTP banner, the EHLO
response, and any STARTTLS certificate — including the platform's blind
spots: addresses can be missing from the data entirely (owner opt-outs,
intermittent failures; the paper calls out EIG specifically), and covered
addresses may simply not listen on port 25.
"""

from __future__ import annotations

import enum
import zlib
from dataclasses import dataclass, field
from datetime import date
from typing import Callable

from ..engine.stats import STATS
from ..smtp.server import SMTP_RELAY_PORT, SMTPHostTable
from ..smtp.session import SessionOutcome, SMTPClient
from ..tls.cert import Certificate


class Port25State(enum.Enum):
    """What the scanner observed on TCP port 25."""

    OPEN = "open"
    CLOSED = "closed"
    TIMEOUT = "timeout"


@dataclass(frozen=True)
class PortScanRecord:
    """One IP's port-25 capture on one scan day.

    Only ``OPEN`` captures carry application-layer evidence: a host that
    timed out (or refused the connection) was never *observed*, so any
    partial banner or certificate a dying session produced must not leak
    into inference.  The constructor enforces that invariant — downstream
    consumers used to assume it silently, which held only on the happy
    path where non-OPEN records were always built bare.
    """

    address: str
    scanned_on: date
    state: Port25State
    banner: str | None = None
    ehlo: str | None = None
    starttls: bool = False
    certificate: Certificate | None = None

    def __post_init__(self) -> None:
        if self.state is not Port25State.OPEN:
            object.__setattr__(self, "banner", None)
            object.__setattr__(self, "ehlo", None)
            object.__setattr__(self, "starttls", False)
            object.__setattr__(self, "certificate", None)

    @property
    def has_smtp(self) -> bool:
        return self.state is Port25State.OPEN


def _coverage_roll(address: str, scanned_on: date) -> float:
    """Deterministic uniform roll for coverage decisions."""
    return zlib.crc32(f"{address}|{scanned_on.isoformat()}".encode()) / 0xFFFFFFFF


@dataclass
class CensysScanner:
    """Scans the simulated IPv4 space and serves per-IP records.

    ``coverage_for`` maps an address to the probability that Censys has any
    data for it on a given day; misses are deterministic in (address, date).

    ``faults`` (a :class:`~repro.faults.FaultInjector`, or None) layers the
    chaos workload on top: per-snapshot host dropout (the paper's
    intermittent-scanner gaps, Section 4.2.2) and session faults injected
    by the probe client — against which the scanner retries transient
    timeouts with exponential backoff, bounded by the plan's per-host
    virtual-time budget.
    """

    host_table: SMTPHostTable
    coverage_for: Callable[[str], float] = lambda _address: 1.0
    helo_name: str = "scanner.censys.io"
    faults: object | None = None
    _cache: dict[tuple[str, date], PortScanRecord | None] = field(default_factory=dict)

    def __post_init__(self) -> None:
        self._client = SMTPClient(
            self.host_table, helo_name=self.helo_name, faults=self.faults
        )

    def scan_address(self, address: str, scanned_on: date) -> PortScanRecord | None:
        """Scan one address; None models "Censys has no data for this IP"."""
        key = (address, scanned_on)
        if key not in self._cache:
            STATS.inc("censys.scan.miss")
            self._cache[key] = self._scan_uncached(address, scanned_on)
        else:
            STATS.inc("censys.scan.hit")
        return self._cache[key]

    def adopt(self, address: str, scanned_on: date, record: PortScanRecord | None) -> None:
        """Intern a record produced elsewhere (a parallel gather worker)."""
        self._cache.setdefault((address, scanned_on), record)

    def trim_cache(self, max_entries: int) -> int:
        """Drop the scan cache once it outgrows *max_entries* keys.

        Scans are deterministic per ``(address, date)`` (fault rolls
        included), so re-scanning after a trim reproduces the same
        records — the streamed gather path relies on this.
        """
        if len(self._cache) <= max_entries:
            return 0
        dropped = len(self._cache)
        self._cache.clear()
        return dropped

    def _scan_uncached(self, address: str, scanned_on: date) -> PortScanRecord | None:
        if self.faults is not None and self.faults.scan_dropped(address, scanned_on):
            return None
        if _coverage_roll(address, scanned_on) >= self.coverage_for(address):
            return None
        result = self._probe_with_retry(address, scanned_on)
        if result.outcome is SessionOutcome.TIMEOUT:
            return PortScanRecord(
                address=address, scanned_on=scanned_on, state=Port25State.TIMEOUT
            )
        if result.outcome is SessionOutcome.CONNECTION_REFUSED:
            return PortScanRecord(
                address=address, scanned_on=scanned_on, state=Port25State.CLOSED
            )
        return PortScanRecord(
            address=address,
            scanned_on=scanned_on,
            state=Port25State.OPEN,
            banner=result.banner_text,
            ehlo=result.ehlo_identity,
            starttls=result.starttls_offered,
            certificate=result.certificate,
        )

    def _probe_with_retry(self, address: str, scanned_on: date):
        """One probe, plus bounded retry-with-backoff on faulted runs.

        Transient (injected) timeouts re-roll per attempt, so a flaky
        host that would answer on a later try yields the same record as
        one that never failed; hosts that stay dark through the backoff
        budget surface as ``TIMEOUT`` — the provenance the paper's tier
        ladder degrades around.  Fault-free runs never enter the loop.
        """
        result = self._client.probe(address, port=SMTP_RELAY_PORT, on=scanned_on)
        if self.faults is None or result.outcome is not SessionOutcome.TIMEOUT:
            return result
        for attempt in self.faults.retry_attempts():
            STATS.inc("faults.smtp.retry")
            result = self._client.probe(
                address, port=SMTP_RELAY_PORT, on=scanned_on, attempt=attempt
            )
            if result.outcome is not SessionOutcome.TIMEOUT:
                STATS.inc("faults.smtp.recovered")
                return result
        STATS.inc("faults.smtp.exhausted")
        return result
