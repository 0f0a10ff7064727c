"""Columnar binary codec for measurement snapshots and inference results.

The store's value types are deeply repetitive: the same MX names, IP
addresses, AS records, scan captures, and certificates back thousands of
domains in every corpus and snapshot.  Naive pickling writes each object
graph reference-by-reference; this codec instead writes **interned
tables** (strings, dates, certificates, scan records, AS records,
observations, MX rows) followed by packed index columns, then compresses
the whole payload.  The result is several times smaller than a pickle of
the same snapshot and decodes by constructing each unique object exactly
once, sharing it across every referencing domain — the same sharing the
memoizing gatherer produces.

Decoding is exact: round-tripped snapshots compare equal (and ``repr``
-identical) to the originals, so inferences computed from a decoded
snapshot are byte-identical to inferences computed from a fresh gather.

Layout stability is versioned by :data:`CODEC_VERSION`; the store folds it
into both the cache key and the on-disk envelope, so a codec change
cleanly invalidates old entries instead of misdecoding them.
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

CODEC_VERSION = 2

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

    Interning is by value (equal objects share one row), with an identity
    fast path: the memoizing gatherer already shares observation objects
    across domains, so most references resolve through ``id()`` without
    re-hashing a deep dataclass graph.  ``_index`` keeps every keyed
    object alive, so ids cannot be recycled while the encoder runs.
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

    For deep object graphs (observations, MX rows) a value dict would
    recursively hash the whole subtree on every first sight; the memoizing
    gatherer already shares equal objects by identity, so identity
    interning gets the same dedup at dict-of-int cost.  Distinct-but-equal
    objects (memoization off, cross-shard duplicates from process workers)
    merely occupy extra rows — decoded values are identical either way,
    and zlib flattens most of the redundancy.  The ``_keep`` list pins
    every keyed object alive so ids cannot be recycled mid-encode.
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


def _enum_code(members: tuple, value) -> int:
    return members.index(value)


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
    (:meth:`repro.store.delta.SnapshotView.signatures`) is an array read
    instead of a full column walk.  Signatures are deterministic across
    processes (:func:`_stable_sig`); measurement dates are excluded
    except through each certificate's validity-window bit — see the
    :mod:`repro.store.delta` module docstring for the exact semantics.
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

    def scan_row(scan: PortScanRecord) -> None:
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

    scans = _IdInterner(scan_row)

    as_asn: list[int] = []
    as_name: list[int] = []
    as_country: list[int] = []

    as_sigs: list[int] = [0]

    def as_row(info: ASInfo) -> None:
        as_asn.append(info.asn)
        as_name.append(strings.ref(info.name))
        as_country.append(strings.ref(info.country))
        as_sigs.append(_stable_sig((info.asn, info.name, info.country)))

    asinfos = _IdInterner(as_row)

    obs_addr: list[int] = []
    obs_as: list[int] = []
    obs_scan: list[int] = []

    as_by_id = asinfos._by_id
    as_ref = asinfos.ref
    scan_by_id = scans._by_id
    scan_ref = scans.ref

    obs_sigs: list[int] = [0]

    def obs_row(obs: IPObservation) -> None:
        obs_addr.append(strings.ref(obs.address))
        info = obs.as_info
        as_idx = (as_by_id.get(id(info)) or as_ref(info)) if info else 0
        obs_as.append(as_idx)
        scan = obs.scan
        scan_idx = (scan_by_id.get(id(scan)) or scan_ref(scan)) if scan else 0
        obs_scan.append(scan_idx)
        obs_sigs.append(
            _stable_sig((obs.address, as_sigs[as_idx], scan_sigs[scan_idx]))
        )

    observations = _IdInterner(obs_row)

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

    def mx_row(mx: MXData) -> None:
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

    mx_rows = _IdInterner(mx_row)

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
    mx_ref = mx_rows.ref
    mx_by_id = mx_rows._by_id
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
            mx = mx_set[0]
            ref = mx_by_id.get(id(mx)) or mx_ref(mx)
            dom_mx_flat.append(ref)
            mx_sig_tuple: tuple[int, ...] = (mx_sigs[ref],)
        elif count:
            refs = [mx_by_id.get(id(mx)) or mx_ref(mx) for mx in mx_set]
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
    # Trailing columns: decode_measurements ignores them; SnapshotView
    # reads them (or recomputes the same values for payloads that predate
    # them).  Per-domain evidence signatures drive delta detection; per-row
    # certificate signatures let incremental ingest carry certificate
    # grouping metadata across snapshots without materializing the table.
    writer.u64s(dom_sig)
    writer.u64s(cert_sigs[1:])
    return _compress(writer)


def decode_measurements(payload: bytes) -> dict[str, DomainMeasurement]:
    """Rebuild a measurement dict; inverse of :func:`encode_measurements`.

    Any reference beyond its table (a corrupt payload that slipped past
    the envelope checksum) raises :class:`CodecError` via the IndexError
    guards — never a silently wrong object graph.
    """
    reader = _decompress(payload)
    strings = _StringTable.read(reader)
    dates = _DateTable.read(reader)

    try:
        cert_cn = reader.u32s()
        cert_issuer = reader.u32s()
        cert_self_signed = reader.u8s()
        cert_not_before = reader.u32s()
        cert_not_after = reader.u32s()
        cert_serial = reader.u64s()
        cert_san_cum = _cumulative(reader.u32s())
        cert_san_flat = reader.u32s()
        certs: list[Certificate | None] = [None]
        for i in range(len(cert_cn)):
            sans = cert_san_flat[cert_san_cum[i]:cert_san_cum[i + 1]]
            certs.append(
                Certificate(
                    subject_cn=strings[cert_cn[i]],
                    sans=tuple([strings[ref] for ref in sans]),
                    issuer=strings[cert_issuer[i]],
                    self_signed=bool(cert_self_signed[i]),
                    not_before=dates[cert_not_before[i]],
                    not_after=dates[cert_not_after[i]],
                    serial=cert_serial[i],
                )
            )

        scan_addr = reader.u32s()
        scan_date = reader.u32s()
        scan_state = reader.u8s()
        scan_banner = reader.u32s()
        scan_ehlo = reader.u32s()
        scan_starttls = reader.u8s()
        scan_cert = reader.u32s()
        scans: list[PortScanRecord | None] = [None]
        for i in range(len(scan_addr)):
            scans.append(
                PortScanRecord(
                    address=strings[scan_addr[i]],
                    scanned_on=dates[scan_date[i]],
                    state=_enum_value(_PORT_STATES, scan_state[i]),
                    banner=strings[scan_banner[i]],
                    ehlo=strings[scan_ehlo[i]],
                    starttls=bool(scan_starttls[i]),
                    certificate=certs[scan_cert[i]],
                )
            )

        as_asn = reader.u64s()
        as_name = reader.u32s()
        as_country = reader.u32s()
        asinfos: list[ASInfo | None] = [None]
        for i in range(len(as_asn)):
            asinfos.append(
                ASInfo(
                    asn=as_asn[i],
                    name=strings[as_name[i]],
                    country=strings[as_country[i]],
                )
            )

        obs_addr = reader.u32s()
        obs_as = reader.u32s()
        obs_scan = reader.u32s()
        observations: list[IPObservation | None] = [None]
        for i in range(len(obs_addr)):
            observations.append(
                IPObservation(
                    address=strings[obs_addr[i]],
                    as_info=asinfos[obs_as[i]],
                    scan=scans[obs_scan[i]],
                )
            )

        mx_name = reader.u32s()
        mx_preference = reader.i32s()
        mx_ip_cum = _cumulative(reader.u32s())
        mx_ip_flat = reader.u32s()
        mx_rows: list[MXData | None] = [None]
        for i in range(len(mx_name)):
            ips = mx_ip_flat[mx_ip_cum[i]:mx_ip_cum[i + 1]]
            mx_rows.append(
                MXData(
                    name=strings[mx_name[i]],
                    preference=mx_preference[i],
                    ips=tuple([observations[ref] for ref in ips]),
                )
            )

        dom_name = reader.u32s()
        dom_date = reader.u32s()
        dom_mx_cum = _cumulative(reader.u32s())
        dom_mx_flat = reader.u32s()
        dom_txt_cum = _cumulative(reader.u32s())
        dom_txt_flat = reader.u32s()

        measurements: dict[str, DomainMeasurement] = {}
        for i in range(len(dom_name)):
            mx_refs = dom_mx_flat[dom_mx_cum[i]:dom_mx_cum[i + 1]]
            txt_refs = dom_txt_flat[dom_txt_cum[i]:dom_txt_cum[i + 1]]
            domain = strings[dom_name[i]]
            measurements[domain] = DomainMeasurement(
                domain=domain,
                measured_on=dates[dom_date[i]],
                mx_set=tuple([mx_rows[ref] for ref in mx_refs]),
                txt=tuple([strings[ref] for ref in txt_refs]),
            )
    except IndexError as error:
        raise CodecError(f"dangling table reference: {error}") from error
    return measurements


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


class _InferenceDecoder:
    """Reads the columns written by :class:`_InferenceEncoder`."""

    def __init__(self, reader: _Reader) -> None:
        self.reader = reader
        self.strings = _StringTable.read(reader)

        try:
            ip_addr = reader.u32s()
            ip_cert_id = reader.u32s()
            ip_banner_id = reader.u32s()
            ip_fingerprint = reader.u32s()
            ip_banner_fqdn = reader.u32s()
            ip_name_cum = _cumulative(reader.u32s())
            ip_name_flat = reader.u32s()
            self.ip_identities: list[IPIdentity | None] = [None]
            for i in range(len(ip_addr)):
                names = ip_name_flat[ip_name_cum[i]:ip_name_cum[i + 1]]
                self.ip_identities.append(
                    IPIdentity(
                        address=self.text(ip_addr[i]),
                        cert_id=self.text(ip_cert_id[i]),
                        banner_id=self.text(ip_banner_id[i]),
                        cert_fingerprint=self.text(ip_fingerprint[i]),
                        banner_fqdn=self.text(ip_banner_fqdn[i]),
                        cert_names=tuple(self.text(ref) for ref in names),
                    )
                )

            mx_name = reader.u32s()
            mx_provider = reader.u32s()
            mx_source = reader.u8s()
            mx_ip_cum = _cumulative(reader.u32s())
            mx_ip_flat = reader.u32s()
            mx_flags = reader.u8s()
            mx_reason = reader.u32s()
            self.mx_identities: list[MXIdentity | None] = [None]
            for i in range(len(mx_name)):
                ips = mx_ip_flat[mx_ip_cum[i]:mx_ip_cum[i + 1]]
                self.mx_identities.append(
                    MXIdentity(
                        mx_name=self.text(mx_name[i]),
                        provider_id=self.text(mx_provider[i]),
                        source=_enum_value(_EVIDENCE_SOURCES, mx_source[i]),
                        ip_identities=tuple(
                            self.ip_identities[ref] for ref in ips
                        ),
                        corrected=bool(mx_flags[i] & 1),
                        correction_reason=self.text(mx_reason[i]),
                        examined=bool(mx_flags[i] & 2),
                    )
                )

            self.inf_domain = reader.u32s()
            self.inf_status = reader.u8s()
            self.inf_attr_cum = _cumulative(reader.u32s())
            self.inf_attr_keys = reader.u32s()
            self.inf_attr_weights = reader.f64s()
            self.inf_mx_cum = _cumulative(reader.u32s())
            self.inf_mx_flat = reader.u32s()
        except IndexError as error:
            raise CodecError(f"dangling table reference: {error}") from error

    def text(self, ref: int) -> str | None:
        try:
            return self.strings[ref]
        except IndexError as error:
            raise CodecError(f"bad string reference {ref}") from error

    def inferences(self) -> dict[str, DomainInference]:
        result: dict[str, DomainInference] = {}
        attr_cum = self.inf_attr_cum
        mx_cum = self.inf_mx_cum
        try:
            for i in range(len(self.inf_domain)):
                domain = self.text(self.inf_domain[i])
                result[domain] = DomainInference(
                    domain=domain,
                    status=_enum_value(_DOMAIN_STATUSES, self.inf_status[i]),
                    attributions={
                        self.text(self.inf_attr_keys[j]): self.inf_attr_weights[j]
                        for j in range(attr_cum[i], attr_cum[i + 1])
                    },
                    mx_identities=tuple(
                        self.mx_identities[ref]
                        for ref in self.inf_mx_flat[mx_cum[i]:mx_cum[i + 1]]
                    ),
                )
        except IndexError as error:
            raise CodecError(f"dangling table reference: {error}") from error
        return result


def encode_inferences(inferences: dict[str, DomainInference]) -> bytes:
    """Encode a baseline-approach inference map."""
    encoder = _InferenceEncoder()
    encoder.add_inferences(inferences)
    writer = _Writer()
    encoder.write(writer)
    return _compress(writer)


def decode_inferences(payload: bytes) -> dict[str, DomainInference]:
    return _InferenceDecoder(_decompress(payload)).inferences()


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


def decode_result(payload: bytes) -> PipelineResult:
    decoder = _InferenceDecoder(_decompress(payload))
    inferences = decoder.inferences()
    reader = decoder.reader
    res_keys = reader.u32s()
    res_vals = reader.u32s()
    try:
        mx_identities = {
            decoder.text(res_keys[i]): decoder.mx_identities[res_vals[i]]
            for i in range(len(res_keys))
        }
    except IndexError as error:
        raise CodecError(f"dangling table reference: {error}") from error
    stats = CorrectionStats(
        candidates_examined=reader.u64(), corrected=reader.u64()
    )
    return PipelineResult(
        inferences=inferences, correction_stats=stats, mx_identities=mx_identities
    )
