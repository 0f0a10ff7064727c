"""Unit tests for the Censys-style scanner."""

from datetime import date

from repro.measure.censys import CensysScanner, Port25State
from repro.smtp.banner import BannerStyle
from repro.smtp.server import SMTPHostTable, SMTPServerConfig, SUBMISSION_PORT
from repro.tls.ca import CertificateAuthority

DAY = date(2021, 6, 8)


def make_table():
    ca = CertificateAuthority("Simulated CA")
    table = SMTPHostTable()
    table.bind(
        "11.0.0.1",
        SMTPServerConfig(identity="mx1.provider.com", certificate=ca.issue("mx1.provider.com")),
    )
    table.bind(
        "11.0.0.2",
        SMTPServerConfig(
            identity="mx2.provider.com",
            starttls=False,
            certificate=None,
            open_ports=(SUBMISSION_PORT,),
        ),
    )
    table.bind(
        "11.0.0.3",
        SMTPServerConfig(
            identity=None,
            banner_style=BannerStyle.LOCALHOST,
            starttls=False,
            certificate=None,
        ),
    )
    return table


class TestScanStates:
    def test_open_host_with_cert(self):
        scanner = CensysScanner(make_table())
        record = scanner.scan_address("11.0.0.1", DAY)
        assert record is not None
        assert record.state is Port25State.OPEN
        assert record.has_smtp
        assert "mx1.provider.com" in record.banner
        assert record.ehlo == "mx1.provider.com"
        assert record.starttls
        assert record.certificate is not None

    def test_port_closed(self):
        scanner = CensysScanner(make_table())
        record = scanner.scan_address("11.0.0.2", DAY)
        assert record.state is Port25State.CLOSED
        assert not record.has_smtp
        assert record.banner is None

    def test_timeout_on_empty_address(self):
        scanner = CensysScanner(make_table())
        record = scanner.scan_address("11.0.0.99", DAY)
        assert record.state is Port25State.TIMEOUT

    def test_localhost_banner_observed_verbatim(self):
        scanner = CensysScanner(make_table())
        record = scanner.scan_address("11.0.0.3", DAY)
        assert record.state is Port25State.OPEN
        assert "localhost" in record.banner
        assert not record.starttls
        assert record.certificate is None


class TestCoverage:
    def test_zero_coverage_yields_no_data(self):
        scanner = CensysScanner(make_table(), coverage_for=lambda _a: 0.0)
        assert scanner.scan_address("11.0.0.1", DAY) is None

    def test_full_coverage_always_has_data(self):
        scanner = CensysScanner(make_table(), coverage_for=lambda _a: 1.0)
        assert scanner.scan_address("11.0.0.1", DAY) is not None

    def test_partial_coverage_deterministic(self):
        scanner_a = CensysScanner(make_table(), coverage_for=lambda _a: 0.5)
        scanner_b = CensysScanner(make_table(), coverage_for=lambda _a: 0.5)
        addresses = [f"11.0.1.{i}" for i in range(50)]
        results_a = [scanner_a.scan_address(addr, DAY) is None for addr in addresses]
        results_b = [scanner_b.scan_address(addr, DAY) is None for addr in addresses]
        assert results_a == results_b
        assert any(results_a) and not all(results_a)

    def test_coverage_varies_by_date(self):
        scanner = CensysScanner(make_table(), coverage_for=lambda _a: 0.5)
        addresses = [f"11.0.1.{i}" for i in range(60)]
        day_one = [scanner.scan_address(a, date(2020, 6, 8)) is None for a in addresses]
        day_two = [scanner.scan_address(a, date(2021, 6, 8)) is None for a in addresses]
        assert day_one != day_two

    def test_cache_returns_same_object(self):
        scanner = CensysScanner(make_table())
        first = scanner.scan_address("11.0.0.1", DAY)
        second = scanner.scan_address("11.0.0.1", DAY)
        assert first is second
