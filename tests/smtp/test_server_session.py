"""Unit tests for simulated MTAs and probe sessions."""

import pytest

from repro.smtp.banner import BannerStyle
from repro.smtp.server import (
    SMTP_RELAY_PORT,
    SUBMISSION_PORT,
    SMTPHostTable,
    SMTPServerConfig,
)
from repro.smtp.session import SessionOutcome, SMTPClient
from repro.tls.ca import CertificateAuthority, self_signed


@pytest.fixture
def ca():
    return CertificateAuthority("Simulated CA")


def make_server(ca, identity="mx1.provider.com", **kwargs):
    defaults = dict(
        identity=identity,
        banner_style=BannerStyle.FQDN,
        starttls=True,
        certificate=ca.issue(identity),
    )
    defaults.update(kwargs)
    return SMTPServerConfig(**defaults)


class TestSMTPServerConfig:
    def test_starttls_requires_cert(self):
        with pytest.raises(ValueError):
            SMTPServerConfig(identity="mx.example.com", starttls=True, certificate=None)

    def test_fqdn_style_requires_identity(self, ca):
        with pytest.raises(ValueError):
            SMTPServerConfig(
                identity=None,
                banner_style=BannerStyle.FQDN,
                starttls=False,
            )

    def test_greeting_carries_identity(self, ca):
        server = make_server(ca)
        reply = server.greet("11.0.0.1")
        assert reply.code == 220
        assert "mx1.provider.com" in reply.text

    def test_ehlo_advertises_starttls(self, ca):
        server = make_server(ca)
        reply = server.respond_ehlo("11.0.0.1")
        assert reply.first_line == "mx1.provider.com"
        assert "STARTTLS" in reply.lines

    def test_ehlo_without_starttls(self, ca):
        server = make_server(ca, starttls=False, certificate=None)
        assert "STARTTLS" not in server.respond_ehlo("11.0.0.1").lines

    def test_listens_on(self, ca):
        server = make_server(ca, open_ports=(SMTP_RELAY_PORT,))
        assert server.listens_on(SMTP_RELAY_PORT)
        assert not server.listens_on(SUBMISSION_PORT)


class TestSMTPHostTable:
    def test_bind_and_get(self, ca):
        table = SMTPHostTable()
        server = make_server(ca)
        table.bind("11.0.0.1", server)
        assert table.get("11.0.0.1") is server
        assert "11.0.0.1" in table
        assert len(table) == 1

    def test_double_bind_rejected(self, ca):
        table = SMTPHostTable()
        table.bind("11.0.0.1", make_server(ca))
        with pytest.raises(ValueError):
            table.bind("11.0.0.1", make_server(ca, identity="mx2.provider.com"))

    def test_rebind_allowed(self, ca):
        table = SMTPHostTable()
        table.bind("11.0.0.1", make_server(ca))
        replacement = make_server(ca, identity="mx9.other.com")
        table.rebind("11.0.0.1", replacement)
        assert table.get("11.0.0.1") is replacement

    def test_unbind(self, ca):
        table = SMTPHostTable()
        table.bind("11.0.0.1", make_server(ca))
        table.unbind("11.0.0.1")
        assert table.get("11.0.0.1") is None
        table.unbind("11.0.0.1")  # idempotent


class TestSMTPClient:
    def test_full_probe(self, ca):
        table = SMTPHostTable()
        cert = ca.issue("mx1.provider.com", sans=["mx2.provider.com"])
        table.bind(
            "11.0.0.1",
            SMTPServerConfig(
                identity="mx1.provider.com",
                certificate=cert,
            ),
        )
        result = SMTPClient(table).probe("11.0.0.1")
        assert result.outcome is SessionOutcome.CONNECTED
        assert result.banner_text is not None and "mx1.provider.com" in result.banner_text
        assert result.ehlo_identity == "mx1.provider.com"
        assert result.starttls_offered
        assert result.certificate == cert

    def test_no_host_times_out(self, ca):
        result = SMTPClient(SMTPHostTable()).probe("11.0.0.99")
        assert result.outcome is SessionOutcome.TIMEOUT
        assert result.banner_text is None
        assert result.ehlo_identity is None

    def test_closed_port_refused(self, ca):
        table = SMTPHostTable()
        table.bind("11.0.0.1", make_server(ca, open_ports=(SUBMISSION_PORT,)))
        result = SMTPClient(table).probe("11.0.0.1", port=SMTP_RELAY_PORT)
        assert result.outcome is SessionOutcome.CONNECTION_REFUSED

    def test_probe_without_starttls_has_no_cert(self, ca):
        table = SMTPHostTable()
        table.bind("11.0.0.1", make_server(ca, starttls=False, certificate=None))
        result = SMTPClient(table).probe("11.0.0.1")
        assert result.outcome is SessionOutcome.CONNECTED
        assert not result.starttls_offered
        assert result.certificate is None

    def test_self_signed_cert_still_observed(self, ca):
        table = SMTPHostTable()
        cert = self_signed("mx.myvps.com")
        table.bind("11.0.0.1", SMTPServerConfig(identity="mx.myvps.com", certificate=cert))
        result = SMTPClient(table).probe("11.0.0.1")
        assert result.certificate is cert
