"""Unit tests for the resource-record model."""

import pytest

from repro.dnscore.records import Record, RRset, RRType, a, cname, mx, ns, spf, txt


class TestConstructors:
    def test_a_record(self):
        record = a("host.example.com", "1.2.3.4")
        assert record.rtype is RRType.A
        assert record.rdata == "1.2.3.4"

    def test_mx_record(self):
        record = mx("example.com", "MX1.Provider.COM", preference=10)
        assert record.rdata == "mx1.provider.com"  # normalized
        assert record.preference == 10

    def test_mx_invalid_exchange_rejected(self):
        with pytest.raises(ValueError):
            mx("example.com", "not a hostname!")

    def test_mx_preference_range(self):
        with pytest.raises(ValueError):
            mx("example.com", "mx.example.com", preference=70000)

    def test_preference_on_non_mx_rejected(self):
        with pytest.raises(ValueError):
            Record(name="x.com", rtype=RRType.A, rdata="1.2.3.4", preference=5)

    def test_negative_ttl_rejected(self):
        with pytest.raises(ValueError):
            a("x.com", "1.2.3.4", ttl=-1)

    def test_cname_normalizes_target(self):
        record = cname("www.example.com", "Example.COM.")
        assert record.rdata == "example.com"

    def test_spf_prefixes_version(self):
        record = spf("example.com", "include:_spf.google.com ~all")
        assert record.rdata.startswith("v=spf1 ")

    def test_txt_and_ns(self):
        assert txt("example.com", "hello").rtype is RRType.TXT
        assert ns("example.com", "ns1.example.com").rtype is RRType.NS


class TestRRset:
    def _mx_set(self):
        records = (
            mx("example.com", "backup.example.com", preference=20),
            mx("example.com", "primary-a.example.com", preference=5),
            mx("example.com", "primary-b.example.com", preference=5),
        )
        return RRset(name="example.com", rtype=RRType.MX, records=records)

    def test_mixed_names_rejected(self):
        with pytest.raises(ValueError):
            RRset(
                name="example.com",
                rtype=RRType.A,
                records=(a("other.com", "1.2.3.4"),),
            )

    def test_sorted_by_preference(self):
        ordered = self._mx_set().sorted_by_preference()
        assert [r.preference for r in ordered] == [5, 5, 20]

    def test_best_preference(self):
        assert self._mx_set().best_preference() == 5

    def test_most_preferred_returns_ties(self):
        primary = self._mx_set().most_preferred()
        assert sorted(r.rdata for r in primary) == [
            "primary-a.example.com",
            "primary-b.example.com",
        ]

    def test_empty_set(self):
        empty = RRset(name="example.com", rtype=RRType.MX, records=())
        assert empty.best_preference() is None
        assert empty.most_preferred() == []
        assert len(empty) == 0

    def test_rdatas(self):
        assert "backup.example.com" in self._mx_set().rdatas()

    def test_iteration(self):
        assert len(list(self._mx_set())) == 3
