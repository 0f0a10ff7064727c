"""Unit tests for the OpenINTEL-style DNS measurement platform."""

from datetime import date

import pytest

from repro.dnscore import ZoneDB, a, cname, mx
from repro.measure.openintel import MXObservation, OpenINTELPlatform

DATES = (date(2020, 6, 8), date(2020, 12, 8))


@pytest.fixture
def platform():
    zones = []
    for snapshot in range(2):
        zdb = ZoneDB()
        zone = zdb.ensure_zone("example.com")
        zone.add(mx("example.com", "mx1.example.com", preference=10))
        zone.add(mx("example.com", "mx2.example.com", preference=20))
        zone.add(a("mx1.example.com", "11.0.0.1"))
        if snapshot == 1:  # second snapshot: backup MX gains an address
            zone.add(a("mx2.example.com", "11.0.0.2"))
        zone.add(cname("alias.example.com", "mx1.example.com"))
        zone.add(mx("aliased.example.com", "alias.example.com"))
        govzone = zdb.ensure_zone("agency.gov")
        govzone.add(mx("agency.gov", "mx.agency.gov"))
        govzone.add(a("mx.agency.gov", "11.0.0.9"))
        zdb.ensure_zone("nomail.example.com")
        zones.append(zdb)
    return OpenINTELPlatform(zones, DATES, tld_coverage_start={"gov": 1})


class TestMeasureDomain:
    def test_mx_and_addresses(self, platform):
        record = platform.measure_domain("example.com", 0)
        assert record is not None and record.has_mx
        assert record.mx[0] == MXObservation("mx1.example.com", 10, ("11.0.0.1",))
        assert record.mx[1].addresses == ()  # backup doesn't resolve yet

    def test_snapshot_evolution(self, platform):
        record = platform.measure_domain("example.com", 1)
        assert record.mx[1].addresses == ("11.0.0.2",)
        assert record.measured_on == DATES[1]

    def test_cname_chased_for_mx_target(self, platform):
        record = platform.measure_domain("aliased.example.com", 0)
        assert record.mx[0].addresses == ("11.0.0.1",)

    def test_domain_without_mx(self, platform):
        record = platform.measure_domain("nomail.example.com", 0)
        assert record is not None and not record.has_mx

    def test_unknown_domain(self, platform):
        record = platform.measure_domain("missing.example.com", 0)
        assert record is not None and not record.has_mx

    def test_coverage_gate(self, platform):
        assert platform.measure_domain("agency.gov", 0) is None
        assert platform.measure_domain("agency.gov", 1) is not None

    def test_bad_snapshot_index(self, platform):
        with pytest.raises(IndexError):
            platform.measure_domain("example.com", 5)


class TestBatchAndStability:
    def test_measure_batch_omits_uncovered(self, platform):
        results = platform.measure(["example.com", "agency.gov"], 0)
        assert set(results) == {"example.com"}

    def test_most_preferred(self, platform):
        record = platform.measure_domain("example.com", 0)
        assert [mx.name for mx in record.most_preferred] == ["mx1.example.com"]

    def test_mismatched_lengths_rejected(self):
        with pytest.raises(ValueError):
            OpenINTELPlatform([ZoneDB()], DATES)
