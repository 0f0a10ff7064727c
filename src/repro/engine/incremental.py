"""Incremental re-inference: steps 2-5 over only the domains that changed.

Successive snapshots of the same corpus overlap heavily — most domains
keep their MX records, addresses, banners, and certificates from one
measurement day to the next.  A batch :class:`~repro.core.pipeline.
PriorityPipeline` run recomputes all of them anyway.  This module keeps
enough bookkeeping (:class:`IncrementalState`) that a new snapshot costs
work proportional to its *churn*, while producing a
:class:`~repro.core.pipeline.PipelineResult` whose encoded bytes are
identical to a from-scratch batch run of the new snapshot.

The bit-identity argument
-------------------------

``encode_result`` interns identity rows by *object*, so byte equality
needs value-identical results **and** the same object-sharing topology a
batch run produces.  Three invariants deliver both:

1. **One raw identity per distinct primary-MX observation.**  The batch
   run computes steps 2-3 once per run key ``(mx name, address tuple)``
   and shares that object across every referencing domain.  The state
   keeps exactly that object per key (:class:`KeyRecord`) and reuses it
   as long as the key's :func:`~repro.engine.identcache.evidence_key` is
   unchanged — never a fresh equal copy, which would add an interned row.
2. **Fresh step-4 outputs per re-inferred (domain, MX).**  ``check()``
   either returns the shared raw object untouched or derives a fresh
   per-domain object (``as_examined``/``with_correction``) — the same
   shapes a batch run creates, so replaying it for exactly the dirty
   domains reproduces batch topology.
3. **Global effects are tracked, not assumed local.**  Two inputs couple
   untouched domains to changed ones: certificate-group representatives
   (step 1 is corpus-global) and popularity counters (step 4 compares
   ``confidence`` to a threshold).  The state keeps reverse indexes —
   certificate fingerprint → referencing domains, run key → referencing
   domains — and re-infers the referents whenever a representative moves
   or a relevant key's confidence crosses the threshold.  Both expansions
   are supersets of the truly affected set; re-inferring an unaffected
   domain reproduces its previous values and topology.

Dicts are rebuilt in new-snapshot order and step-4 stats totals are
adjusted by per-domain contributions, so ordering and bookkeeping also
match the batch run exactly.  ``tests/serve/test_incremental.py`` locks
the equality across churn rates and job counts.
"""

from __future__ import annotations

import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from datetime import date

from ..core.certgroup import CertificateGroups, CertificatePreprocessor
from ..core.companies import CompanyMap
from ..core.domainident import DomainIdentifier
from ..core.ipident import IPIdentifier
from ..core.misident import (
    CorrectionStats,
    MisidentificationChecker,
    PopularityCounters,
)
from ..core.mxident import MXIdentifier
from ..core.pipeline import PipelineConfig, PipelineResult
from ..core.types import DomainInference, EvidenceSource, MXIdentity
from ..dnscore.psl import PublicSuffixList, default_psl
from ..measure.dataset import DomainMeasurement
from ..obs import trace as obs_trace
from ..store.delta import SnapshotView
from ..tls.ca import TrustStore
from .identcache import MXIdentityCache, evidence_key
from .parallel import resolve_jobs
from .stats import STATS

RunKey = tuple[str, tuple[str, ...]]


@dataclass
class DomainRecord:
    """Everything the next delta needs to know about one inferred domain."""

    signature: int
    inference: DomainInference
    checked: tuple[MXIdentity, ...]  # post-step-4, one per primary MX, in order
    mx_names: tuple[str, ...]
    run_keys: tuple[RunKey, ...]
    counted_ips: frozenset[str]
    counted_certs: frozenset[str]
    examined: int  # this domain's share of stats.candidates_examined
    corrected: int


@dataclass
class KeyRecord:
    """One distinct primary-MX observation shared across domains."""

    raw: MXIdentity  # the steps-2-3 identity object (pre-step-4)
    evidence: tuple  # evidence_key() it was derived from
    domains: set[str]  # current referencing domains
    relevant: bool  # step 4 consults counters for this key
    crossing: bool  # confidence(raw) >= threshold at last evaluation


@dataclass
class IngestReport:
    """What one bootstrap/ingest round did, for metrics and benchmarks."""

    snapshot_index: int
    mode: str  # "bootstrap" | "delta"
    domains: int
    changed: int
    added: int
    removed: int
    rep_dirty: int  # re-inferred because a cert-group representative moved
    crossing_dirty: int  # re-inferred because a confidence threshold was crossed
    reinferred: int
    keys_identified: int
    keys_reused: int
    seconds: float

    def as_dict(self) -> dict:
        return {
            "snapshot": self.snapshot_index,
            "mode": self.mode,
            "domains": self.domains,
            "changed": self.changed,
            "added": self.added,
            "removed": self.removed,
            "rep_dirty": self.rep_dirty,
            "crossing_dirty": self.crossing_dirty,
            "reinferred": self.reinferred,
            "keys_identified": self.keys_identified,
            "keys_reused": self.keys_reused,
            "seconds": round(self.seconds, 6),
        }


@dataclass
class IncrementalState:
    """The live inference map plus the bookkeeping that makes deltas cheap."""

    snapshot_index: int
    measured_on: date | None
    domains: dict[str, DomainRecord]  # snapshot order
    keys: dict[RunKey, KeyRecord]
    counters: PopularityCounters
    groups: CertificateGroups
    reps: dict[str, str | None]  # cert fingerprint -> group representative
    cert_domains: dict[str, set[str]]  # cert fingerprint -> referencing domains
    # Cert-row signature -> (fingerprint, grouping names), carried between
    # snapshots so an ingest only materializes table rows it has never
    # seen (same 2^-64 collision stance as the domain signatures).
    cert_meta: dict[int, tuple[str, tuple[str, ...]]]
    examined_total: int
    corrected_total: int
    result: PipelineResult


class IncrementalInferencer:
    """Delta-driven counterpart of :class:`~repro.core.pipeline.PriorityPipeline`."""

    def __init__(
        self,
        trust_store: TrustStore,
        company_map: CompanyMap,
        psl: PublicSuffixList | None = None,
        config: PipelineConfig | None = None,
        identity_cache: MXIdentityCache | None = None,
    ) -> None:
        self.trust_store = trust_store
        self.company_map = company_map
        self.psl = psl or default_psl()
        self.config = config or PipelineConfig()
        self.identity_cache = identity_cache
        self._preprocessor = CertificatePreprocessor(self.psl)

    # -- public entry points --------------------------------------------

    def bootstrap(
        self,
        view: SnapshotView,
        *,
        snapshot_index: int = 0,
        jobs: int | None = None,
    ) -> tuple[IncrementalState, IngestReport]:
        """Full first inference over *view*, capturing delta bookkeeping.

        Replays the batch pipeline's exact loop (same per-key worklist,
        same serial steps 4-5 order), so ``state.result`` is the batch
        result — plus the per-domain/per-key records later deltas need.
        """
        started = time.perf_counter()
        with STATS.timer("incremental.bootstrap"), obs_trace.span(
            "incremental.bootstrap", cat="ingest", snapshot=snapshot_index,
            domains=len(view),
        ):
            measurements = view.materialize()
            signatures = view.signatures()
            certificates = view.certificates()
            groups = self._preprocessor.build(certificates)
            cert_meta = {
                sig: (cert.fingerprint(), cert.dns_names() or cert.names())
                for sig, cert in zip(view.cert_sigs(), certificates)
            }

            counters = PopularityCounters()
            for measurement in measurements.values():
                counters.observe_domain(measurement)

            worklist: dict[RunKey, tuple] = {}
            for measurement in measurements.values():
                for mx in measurement.primary_mx:
                    key = (mx.name, tuple(ip.address for ip in mx.ips))
                    if key not in worklist:
                        worklist[key] = (mx, measurement.measured_on)
            items = [
                (key, mx, on, self._evidence(mx, on, groups))
                for key, (mx, on) in worklist.items()
            ]
            raw_by_key = self._identify(items, groups, jobs)
            threshold = self.config.confidence_threshold
            keys: dict[RunKey, KeyRecord] = {}
            for key, _mx, _on, evidence in items:
                raw = raw_by_key[key]
                relevant = self._relevant(raw)
                keys[key] = KeyRecord(
                    raw=raw,
                    evidence=evidence,
                    domains=set(),
                    relevant=relevant,
                    crossing=relevant
                    and counters.confidence(raw) >= threshold,
                )

            checker = self._checker()
            domain_identifier = DomainIdentifier(split_credit=self.config.split_credit)
            domains: dict[str, DomainRecord] = {}
            cert_domains: dict[str, set[str]] = {}
            for domain, measurement in measurements.items():
                record = self._reinfer(
                    domain,
                    measurement,
                    signatures[domain],
                    keys,
                    checker,
                    counters,
                    domain_identifier,
                )
                domains[domain] = record
                for key in record.run_keys:
                    keys[key].domains.add(domain)
                for fingerprint in record.counted_certs:
                    cert_domains.setdefault(fingerprint, set()).add(domain)

            reps = groups.representatives()
            state = IncrementalState(
                snapshot_index=snapshot_index,
                measured_on=(
                    view.measured_on(view.domains[0]) if len(view) else None
                ),
                domains=domains,
                keys=keys,
                counters=counters,
                groups=groups,
                reps=reps,
                cert_domains=cert_domains,
                cert_meta=cert_meta,
                examined_total=checker.stats.candidates_examined,
                corrected_total=checker.stats.corrected,
                result=PipelineResult(
                    inferences={}, correction_stats=CorrectionStats()
                ),
            )
            state.result = self._assemble(state)
        report = IngestReport(
            snapshot_index=snapshot_index,
            mode="bootstrap",
            domains=len(domains),
            changed=0,
            added=len(domains),
            removed=0,
            rep_dirty=0,
            crossing_dirty=0,
            reinferred=len(domains),
            keys_identified=len(items),
            keys_reused=0,
            seconds=time.perf_counter() - started,
        )
        return state, report

    def ingest(
        self,
        state: IncrementalState,
        view: SnapshotView,
        *,
        snapshot_index: int | None = None,
        jobs: int | None = None,
    ) -> IngestReport:
        """Merge a new snapshot into *state*, re-inferring only the dirty set.

        Mutates *state* in place; afterwards ``state.result`` encodes to
        the same bytes a cold batch run over *view* would produce.
        """
        started = time.perf_counter()
        with STATS.timer("incremental.ingest"), obs_trace.span(
            "incremental.ingest", cat="ingest", snapshot=snapshot_index,
            domains=len(view),
        ):
            report = self._ingest(state, view, snapshot_index, jobs)
        report.seconds = time.perf_counter() - started
        return report

    # -- the delta round -------------------------------------------------

    def _ingest(
        self,
        state: IncrementalState,
        view: SnapshotView,
        snapshot_index: int | None,
        jobs: int | None,
    ) -> IngestReport:
        previous = state.domains

        with obs_trace.span("incremental.diff", cat="ingest"):
            signatures = view.signatures()
            changed = set()
            added: list[str] = []
            for domain, signature in signatures.items():
                record = previous.get(domain)
                if record is None:
                    added.append(domain)
                elif record.signature != signature:
                    changed.add(domain)
            removed = [domain for domain in previous if domain not in signatures]
        removed_set = set(removed)
        plain_changed = len(changed)

        # Step 1 is corpus-global: a cert whose group representative moved
        # changes cert IDs for every domain whose evidence carries it, even
        # when that evidence is otherwise untouched.  Grouping inputs are
        # (fingerprint, names) pairs; rows already seen in a previous
        # snapshot reuse the carried metadata, so only never-seen
        # certificates are materialized and re-validated.
        cert_meta = state.cert_meta
        new_meta: dict[int, tuple[str, tuple[str, ...]]] = {}
        named: list[tuple[str, tuple[str, ...]]] = []
        for row, sig in enumerate(view.cert_sigs()):
            known = cert_meta.get(sig)
            if known is None:
                cert = view.certificate(row)
                known = (cert.fingerprint(), cert.dns_names() or cert.names())
            new_meta[sig] = known
            named.append(known)
        groups = self._preprocessor.build_from_names(named)
        state.cert_meta = new_meta
        reps = groups.representatives()
        rep_dirty = 0
        for fingerprint, representative in reps.items():
            old = state.reps.get(fingerprint, representative)
            if old == representative:
                continue
            for domain in state.cert_domains.get(fingerprint, ()):
                if (
                    domain in signatures
                    and domain not in changed
                    and domain not in removed_set
                ):
                    changed.add(domain)
                    rep_dirty += 1

        work1 = changed | set(added)
        measurements = view.materialize(work1) if work1 else {}

        # Popularity counters: retire the dirty domains' old contributions,
        # count their new evidence.  Addition is commutative, so the result
        # equals a from-scratch count over the new snapshot.
        counters = state.counters
        for domain in changed:
            self._retire_counts(counters, previous[domain])
        for domain in removed:
            self._retire_counts(counters, previous[domain])
        new_counts: dict[str, tuple[frozenset, frozenset]] = {}
        for domain, measurement in measurements.items():
            counted = self._counted_sets(measurement)
            new_counts[domain] = counted
            for address in counted[0]:
                counters.num_ip[address] += 1
            for fingerprint in counted[1]:
                counters.num_cert[fingerprint] += 1

        # Detach dirty memberships from the reverse indexes.  The ops are
        # commutative (set discards, counter decrements), so visiting the
        # unordered dirty set directly is safe — and skips a full pass
        # over every carried domain.
        for domain in (*changed, *removed):
            record = previous[domain]
            for key in record.run_keys:
                key_record = state.keys.get(key)
                if key_record is not None:
                    key_record.domains.discard(domain)
            for fingerprint in record.counted_certs:
                referents = state.cert_domains.get(fingerprint)
                if referents is not None:
                    referents.discard(domain)
                    if not referents:
                        del state.cert_domains[fingerprint]

        # Steps 2-3 for the dirty domains' keys.  A key whose stored
        # evidence_key is unchanged keeps its existing raw identity object
        # (reusing the *object*, not just the value, is what preserves the
        # result codec's interned-row topology).
        need: dict[RunKey, tuple] = {}
        for measurement in measurements.values():
            for mx in measurement.primary_mx:
                key = (mx.name, tuple(ip.address for ip in mx.ips))
                if key not in need:
                    need[key] = (mx, measurement.measured_on)
        to_identify = []
        keys_reused = 0
        for key, (mx, on) in need.items():
            evidence = self._evidence(mx, on, groups)
            key_record = state.keys.get(key)
            if key_record is not None and key_record.evidence == evidence:
                keys_reused += 1
                continue
            to_identify.append((key, mx, on, evidence))
        raw_by_key = (
            self._identify(to_identify, groups, jobs) if to_identify else {}
        )
        for key, _mx, _on, evidence in to_identify:
            raw = raw_by_key[key]
            existing = state.keys.get(key)
            state.keys[key] = KeyRecord(
                raw=raw,
                evidence=evidence,
                domains=existing.domains if existing is not None else set(),
                relevant=self._relevant(raw),
                crossing=False,  # evaluated below, against the new counters
            )

        # Step 4 couples domains through the popularity counters: when a
        # relevant key's confidence crosses the threshold (either way),
        # every referencing domain's check() takes a different branch.
        threshold = self.config.confidence_threshold
        crossing_extra: set[str] = set()
        for key_record in state.keys.values():
            if not key_record.relevant:
                continue
            now = counters.confidence(key_record.raw) >= threshold
            if now != key_record.crossing:
                key_record.crossing = now
                for domain in key_record.domains:
                    if (
                        domain in signatures
                        and domain not in work1
                        and domain not in removed_set
                    ):
                        crossing_extra.add(domain)
        if crossing_extra:
            measurements.update(view.materialize(crossing_extra))
        work = set(measurements)

        # Steps 4-5 for the dirty set, serial and in new-snapshot order —
        # the same order a batch run would visit them.  Untouched domains
        # keep their records (and their interned identity objects).
        checker = self._checker()
        domain_identifier = DomainIdentifier(split_credit=self.config.split_credit)
        examined_total = state.examined_total
        corrected_total = state.corrected_total
        for domain in removed:
            examined_total -= previous[domain].examined
            corrected_total -= previous[domain].corrected
        # The result dicts are assembled in the same pass (same visit order
        # as the batch attribute loop: inferences in snapshot order,
        # ``mx_identities[name]`` once per (domain, primary MX) visit).
        new_domains: dict[str, DomainRecord] = {}
        inferences: dict[str, DomainInference] = {}
        mx_identities: dict[str, MXIdentity] = {}
        with obs_trace.span("incremental.reinfer", cat="ingest", dirty=len(work)):
            for domain in view.domains:
                if domain not in work:
                    record = previous[domain]
                else:
                    old = previous.get(domain)
                    if old is not None:
                        examined_total -= old.examined
                        corrected_total -= old.corrected
                    record = self._reinfer(
                        domain,
                        measurements[domain],
                        signatures[domain],
                        state.keys,
                        checker,
                        counters,
                        domain_identifier,
                    )
                    examined_total += record.examined
                    corrected_total += record.corrected
                    for key in record.run_keys:
                        state.keys[key].domains.add(domain)
                    for fingerprint in record.counted_certs:
                        state.cert_domains.setdefault(fingerprint, set()).add(
                            domain
                        )
                new_domains[domain] = record
                inferences[domain] = record.inference
                for name, identity in zip(record.mx_names, record.checked):
                    mx_identities[name] = identity

        for key in [k for k, rec in state.keys.items() if not rec.domains]:
            del state.keys[key]

        state.domains = new_domains
        state.groups = groups
        state.reps = reps
        state.examined_total = examined_total
        state.corrected_total = corrected_total
        state.snapshot_index = (
            snapshot_index if snapshot_index is not None else state.snapshot_index + 1
        )
        state.measured_on = (
            view.measured_on(view.domains[0]) if len(view) else None
        )
        state.result = PipelineResult(
            inferences=inferences,
            correction_stats=CorrectionStats(
                candidates_examined=examined_total,
                corrected=corrected_total,
            ),
            mx_identities=mx_identities,
        )
        STATS.inc("incremental.reinferred", len(work))
        STATS.inc("incremental.carried", len(new_domains) - len(work))
        return IngestReport(
            snapshot_index=state.snapshot_index,
            mode="delta",
            domains=len(new_domains),
            changed=plain_changed,
            added=len(added),
            removed=len(removed),
            rep_dirty=rep_dirty,
            crossing_dirty=len(crossing_extra),
            reinferred=len(work),
            keys_identified=len(to_identify),
            keys_reused=keys_reused,
            seconds=0.0,
        )

    # -- shared plumbing -------------------------------------------------

    def _reinfer(
        self,
        domain: str,
        measurement: DomainMeasurement,
        signature: int,
        keys: dict[RunKey, KeyRecord],
        checker: MisidentificationChecker,
        counters: PopularityCounters,
        domain_identifier: DomainIdentifier,
    ) -> DomainRecord:
        """Steps 4-5 for one domain — the batch run's inner loop, verbatim."""
        examined_before = checker.stats.candidates_examined
        corrected_before = checker.stats.corrected
        identities: dict[str, MXIdentity] = {}
        checked: list[MXIdentity] = []
        mx_names: list[str] = []
        run_keys: list[RunKey] = []
        check_misidentifications = self.config.check_misidentifications
        for mx in measurement.primary_mx:
            key = (mx.name, tuple(ip.address for ip in mx.ips))
            identity = keys[key].raw
            if check_misidentifications:
                identity = checker.check(domain, mx, identity, counters)
            identities[mx.name] = identity
            checked.append(identity)
            mx_names.append(mx.name)
            run_keys.append(key)
        inference = domain_identifier.identify(measurement, identities)
        counted_ips, counted_certs = self._counted_sets(measurement)
        return DomainRecord(
            signature=signature,
            inference=inference,
            checked=tuple(checked),
            mx_names=tuple(mx_names),
            run_keys=tuple(run_keys),
            counted_ips=counted_ips,
            counted_certs=counted_certs,
            examined=checker.stats.candidates_examined - examined_before,
            corrected=checker.stats.corrected - corrected_before,
        )

    def _identify(
        self, items: list[tuple], groups: CertificateGroups, jobs: int | None
    ) -> dict[RunKey, MXIdentity]:
        """Steps 2-3 per work item ``(key, mx, on, evidence)``; cache-aware."""
        ip_identifier = IPIdentifier(
            groups=groups,
            trust_store=self.trust_store,
            psl=self.psl,
            require_valid_cert=self.config.require_valid_cert,
        )
        mx_identifier = MXIdentifier(
            psl=self.psl,
            use_certs=self.config.use_certs,
            use_banners=self.config.use_banners,
        )
        cache = self.identity_cache

        def identify_one(item: tuple) -> MXIdentity:
            _key, mx, on, evidence = item
            if cache is not None:
                hit = cache.lookup(evidence)
                if hit is not None:
                    return hit
            ip_identities = [ip_identifier.identify(ip, on=on) for ip in mx.ips]
            identity = mx_identifier.identify(mx, ip_identities)
            if cache is not None:
                cache.store(evidence, identity)
            return identity

        jobs = resolve_jobs(jobs)
        if jobs <= 1 or len(items) < 2 * jobs:
            return {item[0]: identify_one(item) for item in items}
        # identify_one is pure; execution order cannot change any identity.
        with ThreadPoolExecutor(max_workers=jobs) as pool:
            results = list(pool.map(identify_one, items))
        return {item[0]: identity for item, identity in zip(items, results)}

    def _evidence(self, mx, on, groups: CertificateGroups) -> tuple:
        return evidence_key(
            mx,
            on,
            use_certs=self.config.use_certs,
            use_banners=self.config.use_banners,
            require_valid_cert=self.config.require_valid_cert,
            groups=groups,
            trust_store=self.trust_store,
        )

    def _checker(self) -> MisidentificationChecker:
        return MisidentificationChecker(
            company_map=self.company_map,
            psl=self.psl,
            confidence_threshold=self.config.confidence_threshold,
        )

    def _relevant(self, raw: MXIdentity) -> bool:
        """Can step 4's counter/threshold branch ever fire for this key?"""
        return raw.source is not EvidenceSource.MX and (
            self.company_map.is_large_provider_id(raw.provider_id)
        )

    @staticmethod
    def _counted_sets(
        measurement: DomainMeasurement,
    ) -> tuple[frozenset[str], frozenset[str]]:
        """This domain's counter contributions (PopularityCounters' dedup)."""
        seen_ips: set[str] = set()
        seen_certs: set[str] = set()
        for mx in measurement.primary_mx:
            for ip in mx.ips:
                seen_ips.add(ip.address)
                if ip.scan is not None and ip.scan.certificate is not None:
                    seen_certs.add(ip.scan.certificate.fingerprint())
        return frozenset(seen_ips), frozenset(seen_certs)

    @staticmethod
    def _retire_counts(
        counters: PopularityCounters, record: DomainRecord
    ) -> None:
        for address in record.counted_ips:
            remaining = counters.num_ip[address] - 1
            if remaining:
                counters.num_ip[address] = remaining
            else:
                del counters.num_ip[address]
        for fingerprint in record.counted_certs:
            remaining = counters.num_cert[fingerprint] - 1
            if remaining:
                counters.num_cert[fingerprint] = remaining
            else:
                del counters.num_cert[fingerprint]

    @staticmethod
    def _assemble(state: IncrementalState) -> PipelineResult:
        """The PipelineResult a batch run over the current snapshot returns.

        Replays the batch attribute loop's dict writes: inferences in
        snapshot order, ``mx_identities[name]`` once per (domain, primary
        MX) visit — first write fixes dict order, last write the value.
        """
        inferences: dict[str, DomainInference] = {}
        mx_identities: dict[str, MXIdentity] = {}
        for domain, record in state.domains.items():
            inferences[domain] = record.inference
            for name, identity in zip(record.mx_names, record.checked):
                mx_identities[name] = identity
        return PipelineResult(
            inferences=inferences,
            correction_stats=CorrectionStats(
                candidates_examined=state.examined_total,
                corrected=state.corrected_total,
            ),
            mx_identities=mx_identities,
        )
