"""Delta iteration over encoded columnar payloads.

The serving layer (:mod:`repro.serve`) answers per-domain questions and
ingests new snapshots against artifacts that already live in the store.
Decoding a whole snapshot to answer either is the exact waste this module
removes:

* :class:`SnapshotView` reads an encoded **measurement** payload into its
  raw columns (string/date tables plus index arrays — no object graphs),
  computes a per-domain *evidence signature* over those columns, and
  materializes :class:`~repro.measure.dataset.DomainMeasurement` graphs
  only for an explicitly requested subset of domains.
* :func:`diff` compares two payloads signature-by-signature and reports
  exactly which domains changed, appeared, or disappeared.
* :class:`ResultView` reads an encoded **inference** payload and serves
  single-domain lookups and column-space aggregates without materializing
  the full identity graph.

Column layout is mirrored from :mod:`repro.store.codec` (the two modules
must change together; ``tests/store/test_delta.py`` locks the parity).

Signature semantics
-------------------

A domain's signature covers everything the inference pipeline can observe
about it: MX names and preferences, per-address routing (ASN, AS name,
country), port-25 scan evidence (state, banner, EHLO, STARTTLS, the full
certificate content), apex TXT records, and — the one date-dependent
input — whether each certificate's validity window contains the scan
date.  Measurement *dates* themselves are excluded: re-observing
identical evidence on a later day must compare equal, otherwise every
snapshot would count as 100% churn.  Certificate issuer *trust* is a
static property of the world's trust store, so a validity-window bit is
the only trust input that can change between snapshots.

Signatures are built bottom-up (per cert, scan, AS, observation, MX row —
each level hashing a small tuple of its children's signatures) with the
codec's deterministic 64-bit hash, and are **embedded in the payload** at
encode time: :func:`repro.store.codec.encode_measurements` appends the
per-domain signature column, so reading them here costs one array read.
Payloads that predate the column get the identical values recomputed
from their columns.  Either way signatures compare correctly across
processes and store generations.  A hash collision (odds ~2^-64 per
pair) would mask a change; acceptable for a change-detection signal
backed by an end-to-end equivalence test.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..core.types import DomainInference, IPIdentity, MXIdentity
from ..measure.caida import ASInfo
from ..measure.censys import PortScanRecord
from ..measure.dataset import DomainMeasurement, IPObservation, MXData
from ..tls.cert import Certificate
from .codec import (
    _DOMAIN_STATUSES,
    _EVIDENCE_SOURCES,
    _PORT_STATES,
    CodecError,
    _cumulative,
    _DateTable,
    _decompress,
    _enum_value,
    _stable_sig,
    _StringTable,
)


@dataclass(frozen=True)
class DeltaReport:
    """Which domains differ between two snapshot payloads."""

    changed: tuple[str, ...]  # present in both, evidence differs
    added: tuple[str, ...]  # only in the new payload
    removed: tuple[str, ...]  # only in the old payload
    unchanged: int

    @property
    def dirty(self) -> int:
        return len(self.changed) + len(self.added)

    @property
    def total(self) -> int:
        """Domains in the new payload."""
        return len(self.changed) + len(self.added) + self.unchanged

    @property
    def churn(self) -> float:
        """Fraction of the new payload whose evidence is not carried over."""
        return self.dirty / self.total if self.total else 0.0


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
            self._dom_sig = reader.u64s() if reader.remaining() else None
            self._cert_sig = reader.u64s() if reader.remaining() else None
            strings = self._strings
            self.domains: tuple[str, ...] = tuple(
                [strings[ref] for ref in self._dom_name]
            )
        except IndexError as error:
            raise CodecError(f"dangling table reference: {error}") from error
        self._row_of = {domain: i for i, domain in enumerate(self.domains)}
        self._signatures: dict[str, int] | None = None
        # Per-row object memos: materialized rows are shared between
        # domains exactly as decode_measurements shares them, and between
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

        Current payloads embed the column at encode time, so this is one
        ``dict(zip(...))``; older payloads get the identical values
        recomputed from the columns below (same canonical tuples as
        :func:`repro.store.codec.encode_measurements`).
        """
        if self._signatures is not None:
            return self._signatures
        if self._dom_sig is not None:
            if len(self._dom_sig) != len(self.domains):
                raise CodecError(
                    f"signature column length {len(self._dom_sig)} != "
                    f"{len(self.domains)} domains"
                )
            self._signatures = dict(zip(self.domains, self._dom_sig))
            return self._signatures
        strings = self._strings
        san_cum = self._cert_san_cum
        ip_cum = self._mx_ip_cum
        dom_mx_cum = self._dom_mx_cum
        dom_txt_cum = self._dom_txt_cum
        try:
            date_ords = [day.toordinal() for day in self._dates]

            # Certificate content, date-free.  The validity window stays in
            # ordinal space so the per-scan bit below is two comparisons.
            nb = self._cert_not_before
            na = self._cert_not_after
            cert_sig = self._fallback_cert_sigs(date_ords)

            scan_sig: list = [0]
            for i in range(len(self._scan_addr)):
                cert_ref = self._scan_cert[i]
                on = date_ords[self._scan_date[i]]
                valid = (
                    (
                        1
                        if date_ords[nb[cert_ref - 1]]
                        <= on
                        <= date_ords[na[cert_ref - 1]]
                        else 0
                    )
                    if cert_ref
                    else None
                )
                scan_sig.append(
                    _stable_sig((
                        self._scan_state[i],
                        strings[self._scan_banner[i]],
                        strings[self._scan_ehlo[i]],
                        self._scan_starttls[i],
                        cert_sig[cert_ref],
                        valid,
                    ))
                )

            as_sig: list = [0]
            for i in range(len(self._as_asn)):
                as_sig.append(
                    _stable_sig((
                        self._as_asn[i],
                        strings[self._as_name[i]],
                        strings[self._as_country[i]],
                    ))
                )

            obs_sig: list = [0]
            for i in range(len(self._obs_addr)):
                obs_sig.append(
                    _stable_sig((
                        strings[self._obs_addr[i]],
                        as_sig[self._obs_as[i]],
                        scan_sig[self._obs_scan[i]],
                    ))
                )

            mx_sig: list = [0]
            for i in range(len(self._mx_name)):
                start = ip_cum[i]
                stop = ip_cum[i + 1]
                mx_sig.append(
                    _stable_sig((
                        strings[self._mx_name[i]],
                        self._mx_preference[i],
                        tuple(obs_sig[ref] for ref in self._mx_ip_flat[start:stop]),
                    ))
                )

            signatures: dict[str, int] = {}
            for i, domain in enumerate(self.domains):
                mx_start = dom_mx_cum[i]
                mx_stop = dom_mx_cum[i + 1]
                txt_start = dom_txt_cum[i]
                txt_stop = dom_txt_cum[i + 1]
                signatures[domain] = _stable_sig((
                    domain,
                    tuple(mx_sig[ref] for ref in self._dom_mx_flat[mx_start:mx_stop]),
                    tuple(
                        strings[ref]
                        for ref in self._dom_txt_flat[txt_start:txt_stop]
                    ),
                ))
        except IndexError as error:
            raise CodecError(f"dangling table reference: {error}") from error
        self._signatures = signatures
        return signatures

    def _fallback_cert_sigs(self, date_ords: list[int]) -> list[int]:
        """Recompute the per-certificate signature column (index 0 = None)."""
        strings = self._strings
        san_cum = self._cert_san_cum
        nb = self._cert_not_before
        na = self._cert_not_after
        cert_sig: list = [0]
        for i in range(len(self._cert_cn)):
            start = san_cum[i]
            stop = san_cum[i + 1]
            cert_sig.append(
                _stable_sig((
                    strings[self._cert_cn[i]],
                    tuple(strings[ref] for ref in self._cert_san_flat[start:stop]),
                    strings[self._cert_issuer[i]],
                    self._cert_self_signed[i],
                    date_ords[nb[i]],
                    date_ords[na[i]],
                    self._cert_serial[i],
                ))
            )
        return cert_sig

    def cert_sigs(self):
        """Per-certificate-row content signature, in table order.

        Entry *i* describes table row ``i + 1`` (reference space reserves
        0 for None).  Embedded by current encoders; recomputed — same
        canonical tuples — for payloads that predate the column.  Treat
        the returned sequence as read-only.
        """
        if self._cert_sig is not None:
            if len(self._cert_sig) != len(self._cert_cn):
                raise CodecError(
                    f"certificate signature column length "
                    f"{len(self._cert_sig)} != {len(self._cert_cn)} rows"
                )
            return self._cert_sig
        date_ords = [day.toordinal() for day in self._dates]
        try:
            return self._fallback_cert_sigs(date_ords)[1:]
        except IndexError as error:
            raise CodecError(f"dangling table reference: {error}") from error

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

        Shared rows decode once: two domains behind the same MX receive
        the identical :class:`MXData` object, exactly like a full
        ``decode_measurements`` pass.
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
            # Payload values already passed Certificate.__post_init__ on
            # the encode side (names normalized, window validated), so
            # re-running it — and the frozen-dataclass setattr per field —
            # would only burn time.  Field-wise __eq__/__hash__ make the
            # result indistinguishable from a constructed instance.
            row = Certificate.__new__(Certificate)
            row.__dict__.update(
                subject_cn=self._strings[self._cert_cn[i]],
                sans=tuple(
                    self._strings[r] for r in self._cert_san_flat[start:stop]
                ),
                issuer=self._strings[self._cert_issuer[i]],
                self_signed=bool(self._cert_self_signed[i]),
                not_before=self._dates[self._cert_not_before[i]],
                not_after=self._dates[self._cert_not_after[i]],
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


def diff_signatures(
    previous: dict[str, int], view: SnapshotView
) -> DeltaReport:
    """Delta of a new snapshot view against previously recorded signatures."""
    signatures = view.signatures()
    changed = []
    added = []
    unchanged = 0
    for domain, signature in signatures.items():
        old = previous.get(domain)
        if old is None:
            added.append(domain)
        elif old != signature:
            changed.append(domain)
        else:
            unchanged += 1
    removed = [domain for domain in previous if domain not in signatures]
    return DeltaReport(
        changed=tuple(changed),
        added=tuple(added),
        removed=tuple(removed),
        unchanged=unchanged,
    )


def diff(previous_payload: bytes, new_payload: bytes) -> DeltaReport:
    """Which domains' evidence differs between two measurement payloads."""
    return diff_signatures(
        SnapshotView(previous_payload).signatures(), SnapshotView(new_payload)
    )


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
        attr_cum = self._inf_attr_cum
        mx_cum = self._inf_mx_cum
        try:
            return DomainInference(
                domain=domain,
                status=_enum_value(_DOMAIN_STATUSES, self._inf_status[i]),
                attributions={
                    self._strings[self._inf_attr_keys[j]]: self._inf_attr_weights[j]
                    for j in range(attr_cum[i], attr_cum[i + 1])
                },
                mx_identities=tuple(
                    self._mx_identity(ref)
                    for ref in self._inf_mx_flat[mx_cum[i]:mx_cum[i + 1]]
                ),
            )
        except IndexError as error:
            raise CodecError(f"dangling table reference: {error}") from error

    def provider_stats(self) -> dict:
        """Column-space aggregates: statuses, provider weights, top list."""
        if self._stats_cache is not None:
            return self._stats_cache
        statuses: dict[str, int] = {}
        weights: dict[str, float] = {}
        backing: dict[str, int] = {}
        attr_cum = self._inf_attr_cum
        try:
            for i in range(len(self._inf_domain)):
                status = _enum_value(_DOMAIN_STATUSES, self._inf_status[i]).value
                statuses[status] = statuses.get(status, 0) + 1
                for j in range(attr_cum[i], attr_cum[i + 1]):
                    provider = self._strings[self._inf_attr_keys[j]]
                    weights[provider] = (
                        weights.get(provider, 0.0) + self._inf_attr_weights[j]
                    )
                    backing[provider] = backing.get(provider, 0) + 1
        except IndexError as error:
            raise CodecError(f"dangling table reference: {error}") from error
        top = sorted(weights.items(), key=lambda item: (-item[1], item[0]))
        self._stats_cache = {
            "domains": len(self._inf_domain),
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
        return self._stats_cache

    def _ip_identity(self, ref: int):
        row = self._ip_objs.get(ref)
        if row is None:
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
