"""Codec tests: exact round-trips, compactness, and corruption behavior."""

import pickle
import zlib
from datetime import date

import pytest

from repro.core.baselines import APPROACH_BANNER, APPROACH_CERT, APPROACH_MX_ONLY
from repro.core.misident import CorrectionStats
from repro.core.pipeline import PipelineResult
from repro.core.types import (
    DomainInference,
    DomainStatus,
    EvidenceSource,
    IPIdentity,
    MXIdentity,
)
from repro.measure.caida import ASInfo
from repro.measure.censys import Port25State, PortScanRecord
from repro.measure.dataset import (
    DomainMeasurement,
    IPObservation,
    MeasurementGatherer,
    MXData,
)
from repro.store import (
    CodecError,
    ResultView,
    SnapshotView,
    decode_inferences,
    decode_measurements,
    decode_result,
    encode_inferences,
    encode_measurements,
    encode_result,
)
from repro.tls.cert import Certificate
from repro.world.entities import DatasetTag

SNAPSHOT = 4
BASELINES = (APPROACH_MX_ONLY, APPROACH_CERT, APPROACH_BANNER)


def _cells(ctx):
    """Every covered (corpus, snapshot) of the test world."""
    return [
        (dataset, snapshot)
        for dataset in DatasetTag
        for snapshot in range(len(ctx.world.snapshot_dates))
        if ctx.covered(dataset, snapshot)
    ]


def _without_signature_columns(payload: bytes, columns: int) -> bytes:
    """*payload* re-compressed with its last *columns* u64 columns cut off
    (1: the certificate signatures; 2: also the domain signatures)."""
    view = SnapshotView(payload)
    raw = zlib.decompress(payload)
    cut = 8 + 8 * len(view.cert_sigs())
    if columns == 2:
        cut += 8 + 8 * len(view)
    return zlib.compress(raw[:-cut], 1)


@pytest.fixture(scope="module")
def measurements(ctx):
    return ctx.measurements(DatasetTag.COM, SNAPSHOT)


@pytest.fixture(scope="module")
def result(ctx):
    return ctx.priority_result(DatasetTag.COM, SNAPSHOT)


class TestMeasurementRoundTrip:
    def test_exact_equality(self, measurements):
        decoded = decode_measurements(encode_measurements(measurements))
        assert decoded == measurements

    def test_repr_identical(self, measurements):
        decoded = decode_measurements(encode_measurements(measurements))
        assert repr(decoded) == repr(measurements)

    def test_order_preserved(self, measurements):
        decoded = decode_measurements(encode_measurements(measurements))
        assert list(decoded) == list(measurements)

    def test_all_corpora(self, ctx):
        for dataset in DatasetTag:
            original = ctx.measurements(dataset, SNAPSHOT)
            assert decode_measurements(encode_measurements(original)) == original

    def test_empty_dict(self):
        assert decode_measurements(encode_measurements({})) == {}

    def test_reencode_is_byte_identical_everywhere(self, ctx):
        for dataset, snapshot in _cells(ctx):
            payload = encode_measurements(ctx.measurements(dataset, snapshot))
            assert encode_measurements(decode_measurements(payload)) == payload

    def test_signature_columns_are_required(self, ctx):
        for dataset, snapshot in _cells(ctx):
            payload = encode_measurements(ctx.measurements(dataset, snapshot))
            for columns in (1, 2):
                legacy = _without_signature_columns(payload, columns)
                with pytest.raises(CodecError):
                    decode_measurements(legacy)
                with pytest.raises(CodecError):
                    SnapshotView(legacy)


def _pieces(measurements: dict, count: int) -> list[dict]:
    """*measurements* cut into *count* contiguous dicts, in order."""
    items = list(measurements.items())
    size = -(-len(items) // count)
    return [dict(items[start:start + size]) for start in range(0, len(items), size)]


class TestValueEncoding:
    """A snapshot's bytes depend on its values, not on object sharing."""

    def test_every_form_of_a_snapshot_encodes_alike(self, ctx):
        source = ctx.gatherer
        unmemoized = MeasurementGatherer(
            source.openintel, source.censys, source.prefix2as, memoize=False
        )
        for dataset, snapshot in _cells(ctx):
            domains = ctx.domains(dataset)
            raw = source.gather(domains, snapshot)
            expected = encode_measurements(raw)
            # Process shards return pickled halves: equal, unshared copies.
            shards: dict = {}
            for half in _pieces(raw, 2):
                shards.update(pickle.loads(pickle.dumps(half)))
            # Batched gathers hold decoded payloads, one object graph each.
            batches: dict = {}
            for third in _pieces(raw, 3):
                batches.update(decode_measurements(encode_measurements(third)))
            forms = {
                "memoize-off": unmemoized.gather(domains, snapshot),
                "pickled-halves": shards,
                "decoded-thirds": batches,
            }
            for name, form in forms.items():
                assert form == raw, (dataset, snapshot, name)
                assert encode_measurements(form) == expected, (
                    dataset, snapshot, name,
                )

    def test_equal_observations_share_one_row(self):
        first = MXData(name="mx.test.example", preference=10,
                       ips=(_observation("192.0.2.1"),))
        copy = MXData(name="mx.test.example", preference=10,
                      ips=(_observation("192.0.2.1"),))
        assert first.ips[0] is not copy.ips[0]
        distinct = encode_measurements({
            "a.example": DomainMeasurement("a.example", DAY, (first,)),
            "b.example": DomainMeasurement("b.example", DAY, (copy,)),
        })
        shared = encode_measurements({
            "a.example": DomainMeasurement("a.example", DAY, (first,)),
            "b.example": DomainMeasurement("b.example", DAY, (first,)),
        })
        assert distinct == shared
        decoded = decode_measurements(distinct)
        assert (decoded["a.example"].mx_set[0].ips[0]
                is decoded["b.example"].mx_set[0].ips[0])

    def test_different_observations_of_one_address_keep_two_rows(self):
        cert = Certificate(subject_cn="mx.test.example",
                           not_before=date(2020, 1, 1), not_after=date(2022, 1, 1))
        plain = _observation("192.0.2.1")
        with_cert = _observation("192.0.2.1", certificate=cert)
        measurements = {
            domain: DomainMeasurement(domain, DAY, (MXData(
                name="mx.test.example", preference=10, ips=(observation,),
            ),))
            for domain, observation in (
                ("a.example", plain), ("b.example", with_cert),
            )
        }
        decoded = decode_measurements(encode_measurements(measurements))
        assert decoded == measurements
        assert decoded["a.example"].mx_set[0].ips[0] == plain
        assert decoded["b.example"].mx_set[0].ips[0] == with_cert


class TestResultRoundTrip:
    def test_exact_equality(self, result):
        decoded = decode_result(encode_result(result))
        assert decoded.inferences == result.inferences
        assert decoded.mx_identities == result.mx_identities
        assert decoded.correction_stats == result.correction_stats

    def test_repr_identical(self, result):
        assert repr(decode_result(encode_result(result))) == repr(result)

    def test_baseline_inferences(self, ctx):
        baseline = ctx.baseline(APPROACH_MX_ONLY, DatasetTag.COM, SNAPSHOT)
        assert decode_inferences(encode_inferences(baseline)) == baseline

    def test_reencode_is_byte_identical_everywhere(self, ctx):
        for dataset, snapshot in _cells(ctx):
            payload = encode_result(ctx.priority_result(dataset, snapshot))
            assert encode_result(decode_result(payload)) == payload

    def test_baselines_reencode_and_are_not_results(self, ctx):
        for dataset, snapshot in _cells(ctx):
            for approach in BASELINES:
                payload = encode_inferences(ctx.baseline(approach, dataset, snapshot))
                assert encode_inferences(decode_inferences(payload)) == payload
                # A baseline map has no mx-identity/stats tail.
                with pytest.raises(CodecError):
                    decode_result(payload)


class TestCompactness:
    def test_smaller_than_naive_pickle(self, measurements):
        encoded = encode_measurements(measurements)
        pickled = pickle.dumps(measurements)
        assert len(encoded) < len(pickled) / 2

    def test_result_smaller_than_naive_pickle(self, result):
        assert len(encode_result(result)) < len(pickle.dumps(result)) / 2

    def test_deterministic_bytes(self, measurements):
        assert encode_measurements(measurements) == encode_measurements(
            measurements
        )


class TestCorruption:
    def test_garbage_raises_codec_error(self):
        with pytest.raises(CodecError):
            decode_measurements(b"this is not a payload")

    def test_empty_raises_codec_error(self):
        with pytest.raises(CodecError):
            decode_measurements(b"")

    def test_truncated_stream_raises_codec_error(self, measurements):
        encoded = encode_measurements(measurements)
        with pytest.raises(CodecError):
            decode_measurements(encoded[: len(encoded) // 2])

    def test_truncated_columns_raise_codec_error(self, measurements):
        # Re-compress a truncated uncompressed body: the zlib layer is
        # intact, so the bounds checks inside the reader must catch it.
        import zlib

        raw = zlib.decompress(encode_measurements(measurements))
        clipped = zlib.compress(raw[: len(raw) // 2], 1)
        with pytest.raises(CodecError):
            decode_measurements(clipped)

    def test_result_codec_rejects_measurement_garbage(self, measurements):
        with pytest.raises(CodecError):
            decode_result(b"\x00" * 64)


DAY = date(2021, 1, 4)


def _observation(address: str, certificate=None) -> IPObservation:
    return IPObservation(
        address=address,
        as_info=ASInfo(asn=64500, name="TEST-AS", country="US"),
        scan=PortScanRecord(
            address=address,
            scanned_on=DAY,
            state=Port25State.OPEN,
            banner="220 mx.test.example ESMTP",
            certificate=certificate,
        ),
    )


def _snapshot(last_mx_set, last_ips=()) -> bytes:
    """Three domains over two MX rows: c.example's MX set is
    *last_mx_set*, and *last_ips* extends the second MX row's addresses.

    The encoder writes reference 0 for a None it finds in ``mx_set`` or
    ``ips``, which no gather produces: a 0 in those columns is a corrupt
    payload that must not decode as the last table row.
    """
    first = MXData(name="mx1.test.example", preference=10,
                   ips=(_observation("192.0.2.1"),))
    second = MXData(name="mx2.test.example", preference=10,
                    ips=(_observation("192.0.2.2"),) + last_ips)
    measurements = {
        "a.example": DomainMeasurement("a.example", DAY, (first,)),
        "b.example": DomainMeasurement("b.example", DAY, (second,)),
        "c.example": DomainMeasurement("c.example", DAY, last_mx_set),
    }
    return encode_measurements(measurements)


def _inferences(last_mx_identities, last_ips=()):
    ip = IPIdentity(address="192.0.2.1", cert_id="test.example")
    first = MXIdentity(mx_name="mx1.test.example", provider_id="test.example",
                       source=EvidenceSource.CERT, ip_identities=(ip,))
    second = MXIdentity(mx_name="mx2.test.example", provider_id="test.example",
                        source=EvidenceSource.CERT, ip_identities=(ip,) + last_ips)
    return {
        domain: DomainInference(domain, DomainStatus.INFERRED,
                                {"test.example": 1.0}, mx_identities)
        for domain, mx_identities in (
            ("a.example", (first,)),
            ("b.example", (second,)),
            ("c.example", last_mx_identities),
        )
    }


class TestMalformedRows:
    """Hand-built payloads whose columns hold what no encoder input does."""

    @pytest.mark.parametrize("build, corrupt", [
        pytest.param(lambda: _snapshot((None,)), "c.example", id="mx-ref-0"),
        pytest.param(
            lambda: _snapshot((), last_ips=(None,)), "b.example",
            id="observation-ref-0",
        ),
    ])
    def test_null_measurement_reference(self, build, corrupt):
        payload = build()
        with pytest.raises(CodecError):
            decode_measurements(payload)
        with pytest.raises(CodecError):
            SnapshotView(payload).materialize()
        view = SnapshotView(payload)
        assert list(view.materialize({"a.example"})) == ["a.example"]
        with pytest.raises(CodecError):
            view.materialize({corrupt})

    def test_inverted_certificate_window(self):
        cert = Certificate(subject_cn="mx.test.example",
                           not_before=date(2020, 1, 1), not_after=date(2022, 1, 1))
        object.__setattr__(cert, "not_after", date(2019, 1, 1))
        mx = MXData(name="mx.test.example", preference=10,
                    ips=(_observation("192.0.2.9", certificate=cert),))
        payload = encode_measurements(
            {"a.example": DomainMeasurement("a.example", DAY, (mx,))}
        )
        with pytest.raises(CodecError):
            decode_measurements(payload)
        view = SnapshotView(payload)
        with pytest.raises(CodecError):
            view.certificate(0)
        with pytest.raises(CodecError):
            view.materialize()

    @pytest.mark.parametrize("build, corrupt", [
        pytest.param(lambda: _inferences((None,)), "c.example",
                     id="mx-identity-ref-0"),
        pytest.param(lambda: _inferences((), last_ips=(None,)), "b.example",
                     id="ip-identity-ref-0"),
    ])
    def test_null_inference_reference(self, build, corrupt):
        inferences = build()
        baseline = encode_inferences(inferences)
        result = encode_result(PipelineResult(inferences, CorrectionStats()))
        for payload in (baseline, result):
            with pytest.raises(CodecError):
                decode_inferences(payload)
            view = ResultView(payload)
            assert view.get("a.example") == inferences["a.example"]
            with pytest.raises(CodecError):
                view.get(corrupt)
        with pytest.raises(CodecError):
            decode_result(result)

    def test_null_result_tail_reference(self):
        inferences = _inferences(())
        payload = encode_result(PipelineResult(
            inferences, CorrectionStats(), {"mx9.test.example": None}
        ))
        assert decode_inferences(payload) == inferences
        with pytest.raises(CodecError):
            decode_result(payload)
