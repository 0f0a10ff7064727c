"""Columnar binary codec for measurement snapshots and inference results.

The store's value types are deeply repetitive: the same MX names, IP
addresses, AS records, scan captures, and certificates back thousands of
domains in every corpus and snapshot.  Naive pickling writes each object
graph reference-by-reference; this codec instead writes **tables**
(strings, dates, certificates, scan records, AS records, observations,
MX rows) followed by packed index columns, then compresses the whole
payload.  Measurement payloads are written by value: equal strings,
dates, certificates and observations share one row, each observation
row brings its own AS and scan rows, and each MX occurrence gets its
own row.  A snapshot's bytes therefore depend only on its values, not
on which of its Python objects happen to be shared — a memoized gather,
an unmemoized one and the merged shards of a process pool all encode
alike.  Decoding constructs each row's object once and shares it across
every referencing domain.

This module owns the layout: each payload format has one encoder and
one reader.  :class:`SnapshotView` reads measurement payloads and
:class:`ResultView` reads result and baseline payloads; both keep the
raw columns and build objects only for the rows asked for, and
:func:`decode_measurements`, :func:`decode_result` and
:func:`decode_inferences` are their full materializations.  Any
reference outside its table — including a null reference in a column
that cannot hold None — raises :class:`CodecError`, never a silently
wrong object graph.

Decoding is exact: round-tripped snapshots compare equal (and ``repr``
-identical) to the originals, and re-encoding a decoded value yields the
same bytes, so inferences computed from a decoded snapshot are
byte-identical to inferences computed from a fresh gather.

Layout stability is versioned by :data:`CODEC_VERSION`; the store folds it
into both the cache key and the on-disk envelope, so a codec change
cleanly invalidates old entries instead of misdecoding them.  Version 3
made the two trailing signature columns of measurement payloads
required.
"""

from __future__ import annotations

import sys
import zlib
from array import array
from datetime import date
from hashlib import blake2b
from itertools import accumulate

from ..core.misident import CorrectionStats
from ..core.pipeline import PipelineResult
from ..core.types import (
    DomainInference,
    DomainStatus,
    EvidenceSource,
    IPIdentity,
    MXIdentity,
)
from ..measure.caida import ASInfo
from ..measure.censys import Port25State, PortScanRecord
from ..measure.dataset import DomainMeasurement, IPObservation, MXData
from ..tls.cert import Certificate

CODEC_VERSION = 3

# Enum codes are positional; reordering a member is a schema change and
# must bump CODEC_VERSION.
_PORT_STATES = tuple(Port25State)
_EVIDENCE_SOURCES = tuple(EvidenceSource)
_DOMAIN_STATUSES = tuple(DomainStatus)

_NATIVE_LITTLE = sys.byteorder == "little"


class CodecError(ValueError):
    """Raised when a payload cannot be decoded (truncated, garbage)."""


# ---------------------------------------------------------------------------
# binary buffers
# ---------------------------------------------------------------------------


class _Writer:
    """Append-only little-endian buffer with length-prefixed columns."""

    __slots__ = ("_parts",)

    def __init__(self) -> None:
        self._parts: list[bytes] = []

    def u32(self, value: int) -> None:
        self._parts.append(value.to_bytes(4, "little"))

    def u64(self, value: int) -> None:
        self._parts.append(value.to_bytes(8, "little"))

    def blob(self, data: bytes) -> None:
        self.u64(len(data))
        self._parts.append(bytes(data))

    def u8s(self, values: list[int]) -> None:
        self.blob(bytes(values))

    def _packed(self, typecode: str, values: list) -> None:
        arr = array(typecode, values)
        if not _NATIVE_LITTLE:  # pragma: no cover - big-endian hosts only
            arr.byteswap()
        self.blob(arr.tobytes())

    def u32s(self, values: list[int]) -> None:
        self._packed("I", values)

    def i32s(self, values: list[int]) -> None:
        self._packed("i", values)

    def u64s(self, values: list[int]) -> None:
        self._packed("Q", values)

    def f64s(self, values: list[float]) -> None:
        self._packed("d", values)

    def getvalue(self) -> bytes:
        return b"".join(self._parts)


class _Reader:
    """Bounds-checked mirror of :class:`_Writer`."""

    __slots__ = ("_data", "_pos")

    def __init__(self, data: bytes) -> None:
        self._data = data
        self._pos = 0

    def _take(self, size: int) -> bytes:
        end = self._pos + size
        if end > len(self._data):
            raise CodecError("truncated payload")
        chunk = self._data[self._pos:end]
        self._pos = end
        return chunk

    def remaining(self) -> int:
        return len(self._data) - self._pos

    def u32(self) -> int:
        return int.from_bytes(self._take(4), "little")

    def u64(self) -> int:
        return int.from_bytes(self._take(8), "little")

    def blob(self) -> bytes:
        return self._take(self.u64())

    def u8s(self) -> bytes:
        return self.blob()

    def _unpacked(self, typecode: str) -> array:
        raw = self.blob()
        arr = array(typecode)
        if len(raw) % arr.itemsize:
            raise CodecError(f"misaligned {typecode!r} column")
        arr.frombytes(raw)
        if not _NATIVE_LITTLE:  # pragma: no cover - big-endian hosts only
            arr.byteswap()
        return arr

    def u32s(self) -> array:
        return self._unpacked("I")

    def i32s(self) -> array:
        return self._unpacked("i")

    def u64s(self) -> array:
        return self._unpacked("Q")

    def f64s(self) -> array:
        return self._unpacked("d")


# ---------------------------------------------------------------------------
# interned tables
# ---------------------------------------------------------------------------


class _StringTable:
    """Unique strings; reference 0 is reserved for None."""

    def __init__(self) -> None:
        self._index: dict[str, int] = {}

    def ref(self, value: str | None) -> int:
        if value is None:
            return 0
        idx = self._index.get(value)
        if idx is None:
            idx = len(self._index) + 1
            self._index[value] = idx
        return idx

    def write(self, writer: _Writer) -> None:
        encoded = [value.encode("utf-8") for value in self._index]
        writer.u32s([len(item) for item in encoded])
        writer.blob(b"".join(encoded))

    @staticmethod
    def read(reader: _Reader) -> list[str | None]:
        lengths = reader.u32s()
        blob = reader.blob()
        if sum(lengths) != len(blob):
            raise CodecError("string table length mismatch")
        offsets = _cumulative(lengths)
        decoded = blob.decode("utf-8")
        table: list[str | None] = [None]
        if len(decoded) == len(blob):
            # All-ASCII fast path: byte offsets are character offsets, so
            # one bulk decode plus str slices replaces a decode per entry.
            table += [
                decoded[offsets[i]:offsets[i + 1]] for i in range(len(lengths))
            ]
        else:
            table += [
                blob[offsets[i]:offsets[i + 1]].decode("utf-8")
                for i in range(len(lengths))
            ]
        return table


class _DateTable:
    """Unique dates, stored as proleptic-Gregorian ordinals."""

    def __init__(self) -> None:
        self._index: dict[date, int] = {}

    def ref(self, value: date) -> int:
        idx = self._index.get(value)
        if idx is None:
            idx = len(self._index)
            self._index[value] = idx
        return idx

    def write(self, writer: _Writer) -> None:
        writer.u32s([value.toordinal() for value in self._index])

    @staticmethod
    def read(reader: _Reader) -> list[date]:
        try:
            return [date.fromordinal(ordinal) for ordinal in reader.u32s()]
        except ValueError as error:
            raise CodecError(f"bad date ordinal: {error}") from error


class _Interner:
    """Value-interned rows: ``ref`` encodes an object once, 0 means None.

    Interning is by value (equal objects share one row), so the rows do
    not depend on how the input shares its objects.  An identity fast
    path skips the hash: the memoizing gatherer shares observation objects
    across domains, so most references resolve through ``id()`` without
    re-hashing a deep dataclass graph.  Every object the encoder sees is
    reachable from its input, so ids cannot be recycled while it runs.
    """

    __slots__ = ("_index", "_by_id", "_encode_row")

    def __init__(self, encode_row) -> None:
        self._index: dict[object, int] = {}
        self._by_id: dict[int, int] = {}
        self._encode_row = encode_row

    def ref(self, obj) -> int:
        if obj is None:
            return 0
        oid = id(obj)
        idx = self._by_id.get(oid)
        if idx is not None:
            return idx
        idx = self._index.get(obj)
        if idx is None:
            idx = len(self._index) + 1
            self._index[obj] = idx
            self._encode_row(obj)
        self._by_id[oid] = idx
        return idx


class _IdInterner:
    """Identity-interned rows: one row per distinct *object*, 0 means None.

    The result encoder's identity rows (IP and MX identities) use it: a
    value dict would recursively hash each identity graph on first sight,
    while the pipeline already shares one identity object per distinct
    MX, so identity interning gets the same dedup at dict-of-int cost.
    Distinct-but-equal objects merely occupy extra rows; decoded values
    are identical either way.  The ``_keep`` list pins every keyed object
    alive so ids cannot be recycled mid-encode.
    """

    __slots__ = ("_by_id", "_keep", "_encode_row")

    def __init__(self, encode_row) -> None:
        self._by_id: dict[int, int] = {}
        self._keep: list[object] = []
        self._encode_row = encode_row

    def ref(self, obj) -> int:
        if obj is None:
            return 0
        oid = id(obj)
        idx = self._by_id.get(oid)
        if idx is None:
            idx = len(self._by_id) + 1
            self._by_id[oid] = idx
            self._keep.append(obj)
            self._encode_row(obj)
        return idx


def _cumulative(counts) -> list[int]:
    """Cumulative offsets of a per-row count column: row i spans
    ``flat[cum[i]:cum[i + 1]]``.  One C-speed accumulate instead of a
    Python list of (start, stop) tuples per row."""
    return list(accumulate(counts, initial=0))


_PORT_STATE_CODES = {member: code for code, member in enumerate(_PORT_STATES)}
_EVIDENCE_SOURCE_CODES = {
    member: code for code, member in enumerate(_EVIDENCE_SOURCES)
}
_DOMAIN_STATUS_CODES = {member: code for code, member in enumerate(_DOMAIN_STATUSES)}


def _enum_value(members: tuple, code: int):
    try:
        return members[code]
    except IndexError as error:
        raise CodecError(f"bad enum code {code}") from error


def _stable_sig(parts: tuple) -> int:
    """64-bit deterministic signature of a tuple of primitives.

    ``repr`` of str/int/None tuples is unambiguous and stable across
    processes (unlike built-in ``hash``, which is salted), so embedded
    evidence signatures written by one process compare correctly against
    signatures computed by another.  Collision odds are ~2^-64 per pair —
    acceptable for a change-detection signal that is backed by an
    end-to-end equivalence test (``tests/serve/test_incremental.py``).
    """
    digest = blake2b(repr(parts).encode("utf-8", "surrogatepass"), digest_size=8)
    return int.from_bytes(digest.digest(), "little")


def _compress(writer: _Writer) -> bytes:
    # Level 1 keeps write-through overhead low on the cold path; the
    # index-heavy payload is already small, so heavier levels buy only a
    # few percent of size for 2-4x the compression time.
    return zlib.compress(writer.getvalue(), 1)


def _decompress(payload: bytes) -> _Reader:
    try:
        return _Reader(zlib.decompress(payload))
    except zlib.error as error:
        raise CodecError(f"undecompressable payload: {error}") from error


# ---------------------------------------------------------------------------
# measurement snapshots
# ---------------------------------------------------------------------------


def encode_measurements(measurements: dict[str, DomainMeasurement]) -> bytes:
    """Encode one (corpus, snapshot) measurement dict, order-preserving.

    Alongside the interned tables, a per-domain **evidence signature**
    column is computed bottom-up (cert content with validity bit, scan,
    AS, observation, MX) and appended to the payload, so delta detection
    (:meth:`SnapshotView.signatures`) is an array read instead of a full
    column walk.  Signatures are deterministic across processes
    (:func:`_stable_sig`).  A signature covers everything the pipeline
    can observe about a domain: MX names and preferences, per-address
    routing (ASN, AS name, country), port-25 scan evidence (state,
    banner, EHLO, STARTTLS, the full certificate content) and apex TXT
    records.  Measurement dates are excluded, so identical evidence
    re-observed on a later day compares equal, except through each
    certificate's validity-window bit: issuer trust is a static property
    of the trust store, so that bit is the only date-dependent input.
    """
    strings = _StringTable()
    dates = _DateTable()

    cert_cn: list[int] = []
    cert_issuer: list[int] = []
    cert_self_signed: list[int] = []
    cert_not_before: list[int] = []
    cert_not_after: list[int] = []
    cert_serial: list[int] = []
    cert_san_counts: list[int] = []
    cert_san_flat: list[int] = []

    cert_sigs: list[int] = [0]  # index 0 is the None sentinel

    def cert_row(cert: Certificate) -> None:
        cert_cn.append(strings.ref(cert.subject_cn))
        cert_issuer.append(strings.ref(cert.issuer))
        cert_self_signed.append(1 if cert.self_signed else 0)
        cert_not_before.append(dates.ref(cert.not_before))
        cert_not_after.append(dates.ref(cert.not_after))
        cert_serial.append(cert.serial)
        cert_san_counts.append(len(cert.sans))
        cert_san_flat.extend([strings.ref(san) for san in cert.sans])
        cert_sigs.append(_stable_sig((
            cert.subject_cn,
            cert.sans,
            cert.issuer,
            1 if cert.self_signed else 0,
            cert.not_before.toordinal(),
            cert.not_after.toordinal(),
            cert.serial,
        )))

    certs = _Interner(cert_row)

    scan_addr: list[int] = []
    scan_date: list[int] = []
    scan_state: list[int] = []
    scan_banner: list[int] = []
    scan_ehlo: list[int] = []
    scan_starttls: list[int] = []
    scan_cert: list[int] = []

    scan_sigs: list[int] = [0]

    def scan_row(scan: PortScanRecord) -> int:
        scan_addr.append(strings.ref(scan.address))
        scan_date.append(dates.ref(scan.scanned_on))
        state_code = _PORT_STATE_CODES[scan.state]
        scan_state.append(state_code)
        scan_banner.append(strings.ref(scan.banner))
        scan_ehlo.append(strings.ref(scan.ehlo))
        scan_starttls.append(1 if scan.starttls else 0)
        cert = scan.certificate
        cert_ref = certs.ref(cert)
        scan_cert.append(cert_ref)
        valid = (
            None
            if cert is None
            else 1 if cert.not_before <= scan.scanned_on <= cert.not_after else 0
        )
        scan_sigs.append(_stable_sig((
            state_code,
            scan.banner,
            scan.ehlo,
            1 if scan.starttls else 0,
            cert_sigs[cert_ref],
            valid,
        )))
        return len(scan_sigs) - 1

    as_asn: list[int] = []
    as_name: list[int] = []
    as_country: list[int] = []

    as_sigs: list[int] = [0]

    def as_row(info: ASInfo) -> int:
        as_asn.append(info.asn)
        as_name.append(strings.ref(info.name))
        as_country.append(strings.ref(info.country))
        as_sigs.append(_stable_sig((info.asn, info.name, info.country)))
        return len(as_sigs) - 1

    obs_addr: list[int] = []
    obs_as: list[int] = []
    obs_scan: list[int] = []

    obs_sigs: list[int] = [0]

    def obs_row(obs: IPObservation) -> None:
        # An observation's AS and scan rows are written with it, never
        # shared with another observation: one observation value per
        # address then fixes every row, however the objects are shared.
        obs_addr.append(strings.ref(obs.address))
        info = obs.as_info
        as_idx = as_row(info) if info is not None else 0
        obs_as.append(as_idx)
        scan = obs.scan
        scan_idx = scan_row(scan) if scan is not None else 0
        obs_scan.append(scan_idx)
        obs_sigs.append(
            _stable_sig((obs.address, as_sigs[as_idx], scan_sigs[scan_idx]))
        )

    observations = _Interner(obs_row)

    mx_name: list[int] = []
    mx_preference: list[int] = []
    mx_ip_counts: list[int] = []
    mx_ip_flat: list[int] = []

    # Hot-path interning is inlined as ``index.get(...) or ref(...)``:
    # references are 1-based (0 is the None sentinel), so a dict hit is
    # always truthy and the miss path falls through to the full ref().
    string_index = strings._index
    obs_by_id = observations._by_id
    obs_ref = observations.ref

    mx_sigs: list[int] = [0]

    def mx_row(mx: MXData) -> int:
        """One new row per MX occurrence, as the gatherer builds them;
        reference 0 for a None, which no gather produces."""
        if mx is None:
            return 0
        name = mx.name
        mx_name.append(string_index.get(name) or strings.ref(name))
        mx_preference.append(mx.preference)
        ips = mx.ips
        count = len(ips)
        mx_ip_counts.append(count)
        if count == 1:
            ip = ips[0]
            ref = obs_by_id.get(id(ip)) or obs_ref(ip)
            mx_ip_flat.append(ref)
            ip_sigs: tuple[int, ...] = (obs_sigs[ref],)
        elif count:
            refs = [obs_by_id.get(id(ip)) or obs_ref(ip) for ip in ips]
            mx_ip_flat.extend(refs)
            ip_sigs = tuple([obs_sigs[ref] for ref in refs])
        else:
            ip_sigs = ()
        mx_sigs.append(_stable_sig((name, mx.preference, ip_sigs)))
        return len(mx_sigs) - 1

    dom_name: list[int] = []
    dom_date: list[int] = []
    dom_mx_counts: list[int] = []
    dom_mx_flat: list[int] = []
    dom_txt_counts: list[int] = []
    dom_txt_flat: list[int] = []
    dom_sig: list[int] = []

    string_ref = strings.ref
    date_ref = dates.ref
    date_index = dates._index
    # Most domains have one MX and zero-or-one TXT record; a dedicated
    # single-element path skips the per-domain listcomp frame, which at
    # corpus scale costs as much as the interning itself.  Date refs are
    # 0-based (no None sentinel), so they use an explicit None check
    # instead of the ``or`` idiom.
    for measurement in measurements.values():
        dom_name.append(string_ref(measurement.domain))
        day = measurement.measured_on
        day_ref = date_index.get(day)
        dom_date.append(date_ref(day) if day_ref is None else day_ref)
        mx_set = measurement.mx_set
        count = len(mx_set)
        dom_mx_counts.append(count)
        if count == 1:
            ref = mx_row(mx_set[0])
            dom_mx_flat.append(ref)
            mx_sig_tuple: tuple[int, ...] = (mx_sigs[ref],)
        elif count:
            refs = [mx_row(mx) for mx in mx_set]
            dom_mx_flat.extend(refs)
            mx_sig_tuple = tuple([mx_sigs[ref] for ref in refs])
        else:
            mx_sig_tuple = ()
        txt = measurement.txt
        count = len(txt)
        dom_txt_counts.append(count)
        if count == 1:
            record = txt[0]
            dom_txt_flat.append(
                string_index.get(record) or string_ref(record)
            )
        elif count:
            dom_txt_flat.extend(
                [string_index.get(t) or string_ref(t) for t in txt]
            )
        dom_sig.append(_stable_sig((measurement.domain, mx_sig_tuple, txt)))

    writer = _Writer()
    strings.write(writer)
    dates.write(writer)
    writer.u32s(cert_cn)
    writer.u32s(cert_issuer)
    writer.u8s(cert_self_signed)
    writer.u32s(cert_not_before)
    writer.u32s(cert_not_after)
    writer.u64s(cert_serial)
    writer.u32s(cert_san_counts)
    writer.u32s(cert_san_flat)
    writer.u32s(scan_addr)
    writer.u32s(scan_date)
    writer.u8s(scan_state)
    writer.u32s(scan_banner)
    writer.u32s(scan_ehlo)
    writer.u8s(scan_starttls)
    writer.u32s(scan_cert)
    writer.u64s(as_asn)
    writer.u32s(as_name)
    writer.u32s(as_country)
    writer.u32s(obs_addr)
    writer.u32s(obs_as)
    writer.u32s(obs_scan)
    writer.u32s(mx_name)
    writer.i32s(mx_preference)
    writer.u32s(mx_ip_counts)
    writer.u32s(mx_ip_flat)
    writer.u32s(dom_name)
    writer.u32s(dom_date)
    writer.u32s(dom_mx_counts)
    writer.u32s(dom_mx_flat)
    writer.u32s(dom_txt_counts)
    writer.u32s(dom_txt_flat)
    # Trailing columns, required since CODEC_VERSION 3.  Per-domain
    # evidence signatures drive delta detection; per-row certificate
    # signatures let incremental ingest carry certificate grouping
    # metadata across snapshots without materializing the table.
    writer.u64s(dom_sig)
    writer.u64s(cert_sigs[1:])
    return _compress(writer)


class SnapshotView:
    """Column-space view of one encoded measurement payload."""

    def __init__(self, payload: bytes) -> None:
        reader = _decompress(payload)
        self._strings = _StringTable.read(reader)
        self._dates = _DateTable.read(reader)
        try:
            # Per-row count columns become cumulative-offset lists.
            self._cert_cn = reader.u32s()
            self._cert_issuer = reader.u32s()
            self._cert_self_signed = reader.u8s()
            self._cert_not_before = reader.u32s()
            self._cert_not_after = reader.u32s()
            self._cert_serial = reader.u64s()
            self._cert_san_cum = _cumulative(reader.u32s())
            self._cert_san_flat = reader.u32s()
            self._scan_addr = reader.u32s()
            self._scan_date = reader.u32s()
            self._scan_state = reader.u8s()
            self._scan_banner = reader.u32s()
            self._scan_ehlo = reader.u32s()
            self._scan_starttls = reader.u8s()
            self._scan_cert = reader.u32s()
            self._as_asn = reader.u64s()
            self._as_name = reader.u32s()
            self._as_country = reader.u32s()
            self._obs_addr = reader.u32s()
            self._obs_as = reader.u32s()
            self._obs_scan = reader.u32s()
            self._mx_name = reader.u32s()
            self._mx_preference = reader.i32s()
            self._mx_ip_cum = _cumulative(reader.u32s())
            self._mx_ip_flat = reader.u32s()
            self._dom_name = reader.u32s()
            self._dom_date = reader.u32s()
            self._dom_mx_cum = _cumulative(reader.u32s())
            self._dom_mx_flat = reader.u32s()
            self._dom_txt_cum = _cumulative(reader.u32s())
            self._dom_txt_flat = reader.u32s()
            self._dom_sig = reader.u64s()
            self._cert_sig = reader.u64s()
            strings = self._strings
            self.domains: tuple[str, ...] = tuple(
                [strings[ref] for ref in self._dom_name]
            )
        except IndexError as error:
            raise CodecError(f"dangling table reference: {error}") from error
        self._row_of = {domain: i for i, domain in enumerate(self.domains)}
        self._signatures: dict[str, int] | None = None
        # Per-row object memos: materialized rows are shared between
        # domains exactly as the gatherer shares them, and between
        # successive materialize() calls on the same view.
        self._cert_objs: dict[int, Certificate] = {}
        self._scan_objs: dict[int, PortScanRecord] = {}
        self._as_objs: dict[int, ASInfo] = {}
        self._obs_objs: dict[int, IPObservation] = {}
        self._mx_objs: dict[int, MXData] = {}

    # -- metadata --------------------------------------------------------

    def __len__(self) -> int:
        return len(self.domains)

    def __contains__(self, domain: str) -> bool:
        return domain in self._row_of

    def measured_on(self, domain: str):
        try:
            return self._dates[self._dom_date[self._row_of[domain]]]
        except IndexError as error:
            raise CodecError(f"bad date reference: {error}") from error

    # -- signatures ------------------------------------------------------

    def signatures(self) -> dict[str, int]:
        """Per-domain evidence signature, in payload (snapshot) order.

        The encoder embeds the column (:func:`encode_measurements`), so
        this is one ``dict(zip(...))``.
        """
        if self._signatures is not None:
            return self._signatures
        if len(self._dom_sig) != len(self.domains):
            raise CodecError(
                f"signature column length {len(self._dom_sig)} != "
                f"{len(self.domains)} domains"
            )
        self._signatures = dict(zip(self.domains, self._dom_sig))
        return self._signatures

    def cert_sigs(self):
        """Per-certificate-row content signature, in table order.

        Entry *i* describes table row ``i + 1`` (reference space reserves
        0 for None).  Treat the returned sequence as read-only.
        """
        if len(self._cert_sig) != len(self._cert_cn):
            raise CodecError(
                f"certificate signature column length "
                f"{len(self._cert_sig)} != {len(self._cert_cn)} rows"
            )
        return self._cert_sig

    # -- partial materialization ----------------------------------------

    def certificates(self) -> list[Certificate]:
        """The payload's unique-certificate table, in table order.

        Step-1 grouping (:meth:`CertificatePreprocessor.build`) dedups by
        fingerprint before counting, so the unique table stands in for the
        full occurrence stream without changing any group.
        """
        return [self._cert(i + 1) for i in range(len(self._cert_cn))]

    def certificate(self, row: int) -> Certificate:
        """Certificate table row *row* (0-based, matching ``cert_sigs()``)."""
        if not 0 <= row < len(self._cert_cn):
            raise IndexError(f"certificate row {row} out of range")
        return self._cert(row + 1)

    def materialize(
        self, wanted=None
    ) -> dict[str, DomainMeasurement]:
        """Object graphs for *wanted* domains (all when None), payload order.

        Shared rows decode once: two domains behind the same address
        receive the identical :class:`IPObservation` object, as the
        memoizing gatherer hands it out; each MX occurrence is its own row.
        With no *wanted* this is :func:`decode_measurements`.
        """
        try:
            if wanted is None:
                rows = range(len(self.domains))
            else:
                rows = sorted(
                    self._row_of[domain] for domain in wanted
                )
            out: dict[str, DomainMeasurement] = {}
            dom_mx_cum = self._dom_mx_cum
            dom_txt_cum = self._dom_txt_cum
            for i in rows:
                domain = self.domains[i]
                mx_start = dom_mx_cum[i]
                mx_stop = dom_mx_cum[i + 1]
                txt_start = dom_txt_cum[i]
                txt_stop = dom_txt_cum[i + 1]
                row = DomainMeasurement.__new__(DomainMeasurement)
                row.__dict__.update(
                    domain=domain,
                    measured_on=self._dates[self._dom_date[i]],
                    mx_set=tuple(
                        self._mx(ref)
                        for ref in self._dom_mx_flat[mx_start:mx_stop]
                    ),
                    txt=tuple(
                        self._strings[ref]
                        for ref in self._dom_txt_flat[txt_start:txt_stop]
                    ),
                )
                out[domain] = row
        except KeyError as error:
            raise KeyError(f"domain not in snapshot payload: {error}") from error
        except IndexError as error:
            raise CodecError(f"dangling table reference: {error}") from error
        return out

    def _cert(self, ref: int) -> Certificate | None:
        if not ref:
            return None
        row = self._cert_objs.get(ref)
        if row is None:
            i = ref - 1
            start = self._cert_san_cum[i]
            stop = self._cert_san_cum[i + 1]
            not_before = self._dates[self._cert_not_before[i]]
            not_after = self._dates[self._cert_not_after[i]]
            if not_after < not_before:
                raise CodecError(f"certificate row {ref}: inverted validity window")
            # Payload values already passed Certificate.__post_init__ on
            # the encode side (names normalized), so re-running it — and
            # the frozen-dataclass setattr per field — would only burn
            # time; the window check above is the one guard it held.
            # Field-wise __eq__/__hash__ make the result indistinguishable
            # from a constructed instance.
            row = Certificate.__new__(Certificate)
            row.__dict__.update(
                subject_cn=self._strings[self._cert_cn[i]],
                sans=tuple(
                    self._strings[r] for r in self._cert_san_flat[start:stop]
                ),
                issuer=self._strings[self._cert_issuer[i]],
                self_signed=bool(self._cert_self_signed[i]),
                not_before=not_before,
                not_after=not_after,
                serial=self._cert_serial[i],
            )
            self._cert_objs[ref] = row
        return row

    def _scan(self, ref: int) -> PortScanRecord | None:
        if not ref:
            return None
        row = self._scan_objs.get(ref)
        if row is None:
            i = ref - 1
            # Same __init__ bypass as _cert: __post_init__ already nulled
            # non-OPEN evidence before the row was encoded, so re-running
            # it is a no-op on every stored record.
            row = PortScanRecord.__new__(PortScanRecord)
            row.__dict__.update(
                address=self._strings[self._scan_addr[i]],
                scanned_on=self._dates[self._scan_date[i]],
                state=_enum_value(_PORT_STATES, self._scan_state[i]),
                banner=self._strings[self._scan_banner[i]],
                ehlo=self._strings[self._scan_ehlo[i]],
                starttls=bool(self._scan_starttls[i]),
                certificate=self._cert(self._scan_cert[i]),
            )
            self._scan_objs[ref] = row
        return row

    def _as_info(self, ref: int) -> ASInfo | None:
        if not ref:
            return None
        row = self._as_objs.get(ref)
        if row is None:
            i = ref - 1
            row = ASInfo.__new__(ASInfo)
            row.__dict__.update(
                asn=self._as_asn[i],
                name=self._strings[self._as_name[i]],
                country=self._strings[self._as_country[i]],
            )
            self._as_objs[ref] = row
        return row

    def _obs(self, ref: int) -> IPObservation:
        row = self._obs_objs.get(ref)
        if row is None:
            if not ref:
                raise CodecError("null observation reference")
            i = ref - 1
            row = IPObservation.__new__(IPObservation)
            row.__dict__.update(
                address=self._strings[self._obs_addr[i]],
                as_info=self._as_info(self._obs_as[i]),
                scan=self._scan(self._obs_scan[i]),
            )
            self._obs_objs[ref] = row
        return row

    def _mx(self, ref: int) -> MXData:
        row = self._mx_objs.get(ref)
        if row is None:
            if not ref:
                raise CodecError("null MX reference")
            i = ref - 1
            start = self._mx_ip_cum[i]
            stop = self._mx_ip_cum[i + 1]
            row = MXData.__new__(MXData)
            row.__dict__.update(
                name=self._strings[self._mx_name[i]],
                preference=self._mx_preference[i],
                ips=tuple(
                    self._obs(r) for r in self._mx_ip_flat[start:stop]
                ),
            )
            self._mx_objs[ref] = row
        return row


def decode_measurements(payload: bytes) -> dict[str, DomainMeasurement]:
    """Rebuild a measurement dict; inverse of :func:`encode_measurements`."""
    return SnapshotView(payload).materialize()


# ---------------------------------------------------------------------------
# inference results
# ---------------------------------------------------------------------------


class _InferenceEncoder:
    """Shared columns for DomainInference maps (results and baselines)."""

    def __init__(self) -> None:
        self.strings = _StringTable()

        self.ip_addr: list[int] = []
        self.ip_cert_id: list[int] = []
        self.ip_banner_id: list[int] = []
        self.ip_fingerprint: list[int] = []
        self.ip_banner_fqdn: list[int] = []
        self.ip_name_counts: list[int] = []
        self.ip_name_flat: list[int] = []

        def ip_row(identity: IPIdentity) -> None:
            self.ip_addr.append(self.strings.ref(identity.address))
            self.ip_cert_id.append(self.strings.ref(identity.cert_id))
            self.ip_banner_id.append(self.strings.ref(identity.banner_id))
            self.ip_fingerprint.append(self.strings.ref(identity.cert_fingerprint))
            self.ip_banner_fqdn.append(self.strings.ref(identity.banner_fqdn))
            self.ip_name_counts.append(len(identity.cert_names))
            self.ip_name_flat.extend(self.strings.ref(n) for n in identity.cert_names)

        self.ip_identities = _IdInterner(ip_row)

        self.mx_name: list[int] = []
        self.mx_provider: list[int] = []
        self.mx_source: list[int] = []
        self.mx_ip_counts: list[int] = []
        self.mx_ip_flat: list[int] = []
        self.mx_flags: list[int] = []
        self.mx_reason: list[int] = []

        # Same ``index.get(...) or ref(...)`` inlining as the measurement
        # encoder: refs are 1-based so a hit is always truthy.
        string_index = self.strings._index
        string_ref = self.strings.ref
        source_codes = _EVIDENCE_SOURCE_CODES
        ip_by_id = self.ip_identities._by_id
        ip_ref = self.ip_identities.ref

        mx_name = self.mx_name
        mx_provider = self.mx_provider
        mx_source = self.mx_source
        mx_ip_counts = self.mx_ip_counts
        mx_ip_flat = self.mx_ip_flat
        mx_flags = self.mx_flags
        mx_reason = self.mx_reason

        def mx_row(identity: MXIdentity) -> None:
            name = identity.mx_name
            provider = identity.provider_id
            mx_name.append(string_index.get(name) or string_ref(name))
            mx_provider.append(string_index.get(provider) or string_ref(provider))
            mx_source.append(source_codes[identity.source])
            ips = identity.ip_identities
            count = len(ips)
            mx_ip_counts.append(count)
            if count == 1:
                ip = ips[0]
                mx_ip_flat.append(ip_by_id.get(id(ip)) or ip_ref(ip))
            elif count:
                mx_ip_flat.extend(
                    [ip_by_id.get(id(ip)) or ip_ref(ip) for ip in ips]
                )
            mx_flags.append(
                (1 if identity.corrected else 0) | (2 if identity.examined else 0)
            )
            mx_reason.append(string_ref(identity.correction_reason))

        self.mx_identities = _IdInterner(mx_row)

        self.inf_domain: list[int] = []
        self.inf_status: list[int] = []
        self.inf_attr_counts: list[int] = []
        self.inf_attr_keys: list[int] = []
        self.inf_attr_weights: list[float] = []
        self.inf_mx_counts: list[int] = []
        self.inf_mx_flat: list[int] = []

    def add_inferences(self, inferences: dict[str, DomainInference]) -> None:
        string_index = self.strings._index
        string_ref = self.strings.ref
        status_codes = _DOMAIN_STATUS_CODES
        mx_by_id = self.mx_identities._by_id
        mx_ref = self.mx_identities.ref
        inf_domain = self.inf_domain
        inf_status = self.inf_status
        inf_attr_counts = self.inf_attr_counts
        inf_attr_keys = self.inf_attr_keys
        inf_attr_weights = self.inf_attr_weights
        inf_mx_counts = self.inf_mx_counts
        inf_mx_flat = self.inf_mx_flat
        for inference in inferences.values():
            inf_domain.append(string_ref(inference.domain))
            inf_status.append(status_codes[inference.status])
            attributions = inference.attributions
            inf_attr_counts.append(len(attributions))
            for provider, weight in attributions.items():
                inf_attr_keys.append(
                    string_index.get(provider) or string_ref(provider)
                )
                inf_attr_weights.append(weight)
            mx_set = inference.mx_identities
            count = len(mx_set)
            inf_mx_counts.append(count)
            if count == 1:
                mx = mx_set[0]
                inf_mx_flat.append(mx_by_id.get(id(mx)) or mx_ref(mx))
            elif count:
                inf_mx_flat.extend(
                    [mx_by_id.get(id(mx)) or mx_ref(mx) for mx in mx_set]
                )

    def write(self, writer: _Writer) -> None:
        self.strings.write(writer)
        writer.u32s(self.ip_addr)
        writer.u32s(self.ip_cert_id)
        writer.u32s(self.ip_banner_id)
        writer.u32s(self.ip_fingerprint)
        writer.u32s(self.ip_banner_fqdn)
        writer.u32s(self.ip_name_counts)
        writer.u32s(self.ip_name_flat)
        writer.u32s(self.mx_name)
        writer.u32s(self.mx_provider)
        writer.u8s(self.mx_source)
        writer.u32s(self.mx_ip_counts)
        writer.u32s(self.mx_ip_flat)
        writer.u8s(self.mx_flags)
        writer.u32s(self.mx_reason)
        writer.u32s(self.inf_domain)
        writer.u8s(self.inf_status)
        writer.u32s(self.inf_attr_counts)
        writer.u32s(self.inf_attr_keys)
        writer.f64s(self.inf_attr_weights)
        writer.u32s(self.inf_mx_counts)
        writer.u32s(self.inf_mx_flat)


def encode_inferences(inferences: dict[str, DomainInference]) -> bytes:
    """Encode a baseline-approach inference map."""
    encoder = _InferenceEncoder()
    encoder.add_inferences(inferences)
    writer = _Writer()
    encoder.write(writer)
    return _compress(writer)


def encode_result(result: PipelineResult) -> bytes:
    """Encode a full priority-pipeline result (inferences + bookkeeping)."""
    encoder = _InferenceEncoder()
    encoder.add_inferences(result.inferences)
    res_keys = []
    res_vals = []
    for mx_name, identity in result.mx_identities.items():
        res_keys.append(encoder.strings.ref(mx_name))
        res_vals.append(encoder.mx_identities.ref(identity))
    writer = _Writer()
    encoder.write(writer)
    writer.u32s(res_keys)
    writer.u32s(res_vals)
    writer.u64(result.correction_stats.candidates_examined)
    writer.u64(result.correction_stats.corrected)
    return _compress(writer)


class ResultView:
    """Lazy single-domain reads over an encoded inference payload.

    Accepts both payload flavors: full pipeline results
    (:func:`repro.store.codec.encode_result`) and plain inference maps
    (:func:`repro.store.codec.encode_inferences`, which lack the
    mx-identity/stats tail).
    """

    def __init__(self, payload: bytes) -> None:
        reader = _decompress(payload)
        self._strings = _StringTable.read(reader)
        try:
            self._ip_addr = reader.u32s()
            self._ip_cert_id = reader.u32s()
            self._ip_banner_id = reader.u32s()
            self._ip_fingerprint = reader.u32s()
            self._ip_banner_fqdn = reader.u32s()
            self._ip_name_cum = _cumulative(reader.u32s())
            self._ip_name_flat = reader.u32s()
            self._mx_name = reader.u32s()
            self._mx_provider = reader.u32s()
            self._mx_source = reader.u8s()
            self._mx_ip_cum = _cumulative(reader.u32s())
            self._mx_ip_flat = reader.u32s()
            self._mx_flags = reader.u8s()
            self._mx_reason = reader.u32s()
            self._inf_domain = reader.u32s()
            self._inf_status = reader.u8s()
            self._inf_attr_cum = _cumulative(reader.u32s())
            self._inf_attr_keys = reader.u32s()
            self._inf_attr_weights = reader.f64s()
            self._inf_mx_cum = _cumulative(reader.u32s())
            self._inf_mx_flat = reader.u32s()
            if reader.remaining():
                self._res_keys = reader.u32s()
                self._res_vals = reader.u32s()
                self.candidates_examined: int | None = reader.u64()
                self.corrected: int | None = reader.u64()
            else:
                self._res_keys = None
                self._res_vals = None
                self.candidates_examined = None
                self.corrected = None
            self.domains: tuple[str, ...] = tuple(
                self._strings[ref] for ref in self._inf_domain
            )
        except IndexError as error:
            raise CodecError(f"dangling table reference: {error}") from error
        self._row_of = {domain: i for i, domain in enumerate(self.domains)}
        self._ip_objs: dict[int, IPIdentity] = {}
        self._mx_objs: dict[int, MXIdentity] = {}
        self._stats_cache: dict | None = None

    def __len__(self) -> int:
        return len(self.domains)

    def __contains__(self, domain: str) -> bool:
        return domain in self._row_of

    def get(self, domain: str) -> DomainInference | None:
        """One domain's inference, materializing only its identity rows."""
        i = self._row_of.get(domain)
        if i is None:
            return None
        try:
            return self._inference(i, domain)
        except IndexError as error:
            raise CodecError(f"dangling table reference: {error}") from error

    def _inferences(self) -> dict[str, DomainInference]:
        """Every row in payload order, in one pass (the full decode)."""
        try:
            return {
                domain: self._inference(i, domain)
                for i, domain in enumerate(self.domains)
            }
        except IndexError as error:
            raise CodecError(f"dangling table reference: {error}") from error

    def _inference(self, i: int, domain: str) -> DomainInference:
        attr_cum = self._inf_attr_cum
        mx_cum = self._inf_mx_cum
        return DomainInference(
            domain=domain,
            status=_enum_value(_DOMAIN_STATUSES, self._inf_status[i]),
            attributions={
                self._strings[self._inf_attr_keys[j]]: self._inf_attr_weights[j]
                for j in range(attr_cum[i], attr_cum[i + 1])
            },
            mx_identities=tuple([
                self._mx_identity(ref)
                for ref in self._inf_mx_flat[mx_cum[i]:mx_cum[i + 1]]
            ]),
        )

    def provider_stats(self) -> dict:
        """Column-space aggregates: statuses, provider weights, top list."""
        if self._stats_cache is not None:
            return self._stats_cache
        strings = self._strings
        keys = self._inf_attr_keys
        weights = self._inf_attr_weights
        attr_cum = self._inf_attr_cum
        rows = (
            (
                _enum_value(_DOMAIN_STATUSES, self._inf_status[i]).value,
                [
                    (strings[keys[j]], weights[j])
                    for j in range(attr_cum[i], attr_cum[i + 1])
                ],
            )
            for i in range(len(self._inf_domain))
        )
        try:
            self._stats_cache = _provider_stats(rows)
        except IndexError as error:
            raise CodecError(f"dangling table reference: {error}") from error
        return self._stats_cache

    def _ip_identity(self, ref: int):
        row = self._ip_objs.get(ref)
        if row is None:
            if not ref:
                raise CodecError("null IP identity reference")
            i = ref - 1
            names = self._ip_name_flat[self._ip_name_cum[i]:self._ip_name_cum[i + 1]]
            row = IPIdentity(
                address=self._strings[self._ip_addr[i]],
                cert_id=self._strings[self._ip_cert_id[i]],
                banner_id=self._strings[self._ip_banner_id[i]],
                cert_fingerprint=self._strings[self._ip_fingerprint[i]],
                banner_fqdn=self._strings[self._ip_banner_fqdn[i]],
                cert_names=tuple(self._strings[r] for r in names),
            )
            self._ip_objs[ref] = row
        return row

    def _mx_identity(self, ref: int):
        row = self._mx_objs.get(ref)
        if row is None:
            if not ref:
                raise CodecError("null MX identity reference")
            i = ref - 1
            ips = self._mx_ip_flat[self._mx_ip_cum[i]:self._mx_ip_cum[i + 1]]
            flags = self._mx_flags[i]
            row = MXIdentity(
                mx_name=self._strings[self._mx_name[i]],
                provider_id=self._strings[self._mx_provider[i]],
                source=_enum_value(_EVIDENCE_SOURCES, self._mx_source[i]),
                ip_identities=tuple(self._ip_identity(r) for r in ips),
                corrected=bool(flags & 1),
                correction_reason=self._strings[self._mx_reason[i]],
                examined=bool(flags & 2),
            )
            self._mx_objs[ref] = row
        return row


def _provider_stats(rows) -> dict:
    """Status counts, provider weights and the top-20 providers over
    ``(status value, attribution items)`` rows.

    The one aggregation behind :meth:`ResultView.provider_stats` and the
    serve daemon's live-map answer; both feed rows in payload order, so
    the float sums are bit-equal.
    """
    domains = 0
    statuses: dict[str, int] = {}
    weights: dict[str, float] = {}
    backing: dict[str, int] = {}
    for status, attributions in rows:
        domains += 1
        statuses[status] = statuses.get(status, 0) + 1
        for provider, weight in attributions:
            weights[provider] = weights.get(provider, 0.0) + weight
            backing[provider] = backing.get(provider, 0) + 1
    top = sorted(weights.items(), key=lambda item: (-item[1], item[0]))
    return {
        "domains": domains,
        "statuses": dict(sorted(statuses.items())),
        "providers": len(weights),
        "top": [
            {
                "provider": provider,
                "weight": round(weight, 4),
                "domains": backing[provider],
            }
            for provider, weight in top[:20]
        ],
    }


def decode_inferences(payload: bytes) -> dict[str, DomainInference]:
    """Rebuild a baseline inference map; inverse of :func:`encode_inferences`."""
    return ResultView(payload)._inferences()


def decode_result(payload: bytes) -> PipelineResult:
    """Rebuild a priority-pipeline result; inverse of :func:`encode_result`."""
    view = ResultView(payload)
    if view._res_keys is None:
        raise CodecError("truncated payload: no pipeline-result tail")
    inferences = view._inferences()
    keys = view._res_keys
    refs = view._res_vals
    try:
        mx_identities = {
            view._strings[keys[i]]: view._mx_identity(refs[i])
            for i in range(len(keys))
        }
    except IndexError as error:
        raise CodecError(f"dangling table reference: {error}") from error
    stats = CorrectionStats(
        candidates_examined=view.candidates_examined, corrected=view.corrected
    )
    return PipelineResult(
        inferences=inferences, correction_stats=stats, mx_identities=mx_identities
    )
