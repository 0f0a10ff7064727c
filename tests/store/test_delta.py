"""Property tests for store-level delta iteration.

``SnapshotView.signatures()`` drives the serve daemon's incremental
ingest, so exactness matters in both directions: every evidence change must
be flagged (missed changes silently serve stale inferences) and nothing
else may be (spurious changes erode the incremental speedup).  The
properties below mutate real measurement dicts and check the signature
delta between the two payloads is *exactly* the mutation set, and that
date-only shifts are flagged only when a certificate validity window is
crossed.
"""

import dataclasses
from datetime import timedelta

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.store import decode_measurements, encode_measurements
from repro.store.codec import CodecError
from repro.store.delta import SnapshotView
from repro.world.entities import DatasetTag

SETTINGS = settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


@pytest.fixture(scope="module")
def base(ctx):
    """A slice of real measurements — big enough to share MX/cert rows."""
    full = ctx.measurements(DatasetTag.ALEXA, 0)
    return dict(list(full.items())[:150])


def _mutate_evidence(measurement):
    """A copy whose evidence (TXT set) genuinely differs."""
    return dataclasses.replace(
        measurement, txt=measurement.txt + ("v=spf1 include:delta.test -all",)
    )


def _shift_dates(measurement, delta):
    """Shift every date in the measurement by *delta*, evidence untouched."""
    mx_set = tuple(
        dataclasses.replace(
            mx,
            ips=tuple(
                dataclasses.replace(
                    ip,
                    scan=dataclasses.replace(
                        ip.scan, scanned_on=ip.scan.scanned_on + delta
                    )
                    if ip.scan is not None
                    else None,
                )
                for ip in mx.ips
            ),
        )
        for mx in measurement.mx_set
    )
    return dataclasses.replace(
        measurement, measured_on=measurement.measured_on + delta, mx_set=mx_set
    )


def _delta(old, new):
    """(changed, added, removed, unchanged) between the encoded snapshots."""
    before = SnapshotView(encode_measurements(old)).signatures()
    after = SnapshotView(encode_measurements(new)).signatures()
    shared = before.keys() & after.keys()
    changed = {domain for domain in shared if before[domain] != after[domain]}
    return (
        changed,
        after.keys() - before.keys(),
        before.keys() - after.keys(),
        len(shared) - len(changed),
    )


def _validity_flips(measurement, delta):
    """Does shifting scan dates by *delta* cross any cert validity window?"""
    for mx in measurement.mx_set:
        for ip in mx.ips:
            scan = ip.scan
            if scan is None or scan.certificate is None:
                continue
            cert = scan.certificate
            before = cert.not_before <= scan.scanned_on <= cert.not_after
            after = (
                cert.not_before <= scan.scanned_on + delta <= cert.not_after
            )
            if before != after:
                return True
    return False


class TestDiffExactness:
    @SETTINGS
    @given(data=st.data())
    def test_report_is_exactly_the_mutation_set(self, base, data):
        names = sorted(base)
        removed = set(
            data.draw(st.sets(st.sampled_from(names), max_size=8))
        )
        mutated = (
            set(data.draw(st.sets(st.sampled_from(names), max_size=8)))
            - removed
        )
        n_added = data.draw(st.integers(min_value=0, max_value=4))

        new = {}
        for domain, measurement in base.items():
            if domain in removed:
                continue
            new[domain] = (
                _mutate_evidence(measurement)
                if domain in mutated
                else measurement
            )
        template = next(iter(base.values()))
        added = [f"synth{i}.delta-test.example" for i in range(n_added)]
        for name in added:
            new[name] = dataclasses.replace(template, domain=name)

        changed, new_domains, gone, unchanged = _delta(base, new)
        assert changed == mutated
        assert new_domains == set(added)
        assert gone == removed
        assert unchanged == len(base) - len(removed) - len(mutated)

    def test_identical_payloads_diff_empty(self, base):
        changed, added, removed, unchanged = _delta(base, dict(base))
        assert changed == added == removed == set()
        assert unchanged == len(base)

    @SETTINGS
    @given(delta_days=st.integers(min_value=-500, max_value=500))
    def test_date_shifts_flag_only_validity_crossings(self, base, delta_days):
        delta = timedelta(days=delta_days)
        shifted = {
            domain: _shift_dates(measurement, delta)
            for domain, measurement in base.items()
        }
        expected = {
            domain
            for domain, measurement in base.items()
            if _validity_flips(measurement, delta)
        }
        changed, added, removed, _unchanged = _delta(base, shifted)
        assert changed == expected
        assert added == removed == set()


class TestMaterialize:
    def test_full_materialize_matches_decode(self, base):
        payload = encode_measurements(base)
        view = SnapshotView(payload)
        assert view.materialize() == decode_measurements(payload) == base

    @SETTINGS
    @given(data=st.data())
    def test_subset_materialize(self, base, data):
        payload = encode_measurements(base)
        view = SnapshotView(payload)
        wanted = data.draw(
            st.sets(st.sampled_from(sorted(base)), min_size=1, max_size=10)
        )
        assert view.materialize(wanted) == {
            domain: base[domain] for domain in wanted
        }

    def test_unknown_domain_raises_key_error(self, base):
        view = SnapshotView(encode_measurements(base))
        with pytest.raises(KeyError):
            view.materialize(["not-in-snapshot.example"])


class TestSignatureColumns:
    def test_cert_sigs_row_indexing(self, base):
        view = SnapshotView(encode_measurements(base))
        sigs = list(view.cert_sigs())
        certificates = view.certificates()
        assert len(sigs) == len(certificates)
        for row in (0, len(sigs) - 1):
            assert view.certificate(row) == certificates[row]
        with pytest.raises(IndexError):
            view.certificate(len(sigs))


class TestCorruption:
    def test_garbage_payload(self):
        with pytest.raises(CodecError):
            SnapshotView(b"this is not a snapshot payload")

    def test_signature_column_length_mismatch(self, base):
        payload = encode_measurements(base)
        view = SnapshotView(payload)
        view._dom_sig = view._dom_sig[:-1]
        with pytest.raises(CodecError):
            view.signatures()
        view = SnapshotView(payload)
        view._cert_sig = view._cert_sig[:-1]
        with pytest.raises(CodecError):
            view.cert_sigs()
