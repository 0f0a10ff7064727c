"""The transport-agnostic serving core: lookups, stats, explain, ingest.

:class:`InferenceService` is what both front-ends (unix socket, HTTP) and
the in-process CLI path drive.  Its query side reads *only* the columnar
store — raw payload bytes decoded into :class:`~repro.store.SnapshotView`
/ :class:`~repro.store.ResultView` blocks under an LRU — so a warm start
is milliseconds: no world build, no measurement gather, no pipeline run.
The ingest side merges new snapshots through
:class:`~repro.engine.incremental.IncrementalInferencer`, re-inferring
only changed domains while keeping the live map (and the write-through
store artifact) bit-identical to a from-scratch batch run.
"""

from __future__ import annotations

import json
import math
import threading
import time
from contextlib import contextmanager
from datetime import date as date_type

from ..core.types import DomainInference
from ..engine.stats import STATS
from ..obs import live as obs_live
from ..obs import provenance as obs_provenance
from ..obs import trace as obs_trace
from ..store import ArtifactStore, CodecError, ResultView, SnapshotView, encode_result
from ..store.codec import _provider_stats
from ..world.build import WorldConfig
from ..world.entities import DatasetTag
from ..world.population import GOV_FIRST_SNAPSHOT, NUM_SNAPSHOTS, SNAPSHOT_DATES
from .blocks import BlockCache


class ServiceError(Exception):
    """A client-visible failure (unknown domain, missing artifact, ...).

    ``code`` is machine-readable for RPC responses; every ServiceError
    maps to CLI exit status 2 (user/state error, not a crash).
    ``retry_after`` (seconds), when set, rides along in the RPC response
    (and the HTTP Retry-After header) so shed/tripped clients back off
    for as long as the server actually needs.
    """

    def __init__(
        self,
        message: str,
        *,
        code: str = "error",
        retry_after: float | None = None,
    ) -> None:
        super().__init__(message)
        self.code = code
        self.retry_after = retry_after


# -- latency histograms -------------------------------------------------

_LATENCY_BASE = 1e-4  # 100 µs: below this, a lookup is "free"
_LATENCY_BUCKETS = 28  # log2 steps: top bucket covers ~3.7 hours


class LatencyRecorder:
    """Fixed-size log2 histogram with cumulative percentile readout."""

    __slots__ = ("counts", "count", "total", "worst")

    def __init__(self) -> None:
        self.counts = [0] * _LATENCY_BUCKETS
        self.count = 0
        self.total = 0.0
        self.worst = 0.0

    def observe(self, seconds: float) -> None:
        ratio = seconds / _LATENCY_BASE
        if ratio <= 1.0:
            index = 0
        else:
            mantissa, exponent = math.frexp(ratio)
            # Smallest i with 2**i >= ratio (frexp: ratio = m * 2**e).
            index = exponent if mantissa > 0.5 else exponent - 1
            index = min(index, _LATENCY_BUCKETS - 1)
        self.counts[index] += 1
        self.count += 1
        self.total += seconds
        if seconds > self.worst:
            self.worst = seconds

    def percentile(self, fraction: float) -> float:
        """Upper-bound latency (seconds) at *fraction* of observations."""
        if not self.count:
            return 0.0
        target = max(1, math.ceil(fraction * self.count))
        seen = 0
        for index, bucket in enumerate(self.counts):
            seen += bucket
            if seen >= target:
                return _LATENCY_BASE * (2 ** index)
        return _LATENCY_BASE * (2 ** (_LATENCY_BUCKETS - 1))

    def snapshot(self) -> dict:
        return {
            "count": self.count,
            "mean_ms": round(1e3 * self.total / self.count, 4) if self.count else 0.0,
            "p50_ms": round(1e3 * self.percentile(0.50), 4),
            "p99_ms": round(1e3 * self.percentile(0.99), 4),
            "max_ms": round(1e3 * self.worst, 4),
        }


# -- the service --------------------------------------------------------


class InferenceService:
    """Query + incremental-ingest API over one world's artifact store."""

    def __init__(
        self,
        config: WorldConfig,
        store: ArtifactStore | None,
        *,
        jobs: int = 1,
        cache_blocks: int = 32,
        faults_key: str | None = None,
        slo=None,
        trace_ring: int = obs_live.DEFAULT_RING,
        trace_jsonl: str | None = None,
        journal=None,
        breaker=None,
        fault_plan=None,
        watch_generation: bool = False,
    ) -> None:
        if store is None:
            raise ServiceError(
                "serving requires an artifact store (set REPRO_CACHE or pass "
                "--cache-dir); there is nothing to serve without one",
                code="no-store",
            )
        self.config = config
        self.store = store
        self.jobs = max(1, int(jobs))
        self.faults_key = faults_key
        self.started = time.monotonic()
        self.blocks = BlockCache(cache_blocks)
        self._lock = threading.RLock()
        self._latency: dict[str, LatencyRecorder] = {}
        self._latency_lock = threading.Lock()
        self._states: dict[DatasetTag, object] = {}  # -> IncrementalState
        self._ingest_log: list[dict] = []
        self._ctx = None  # lazy StudyContext; ingest gathers only
        self._inferencer = None
        # -- resilience (all optional; absent == pre-pool behavior) ------
        self.journal = journal           # RunJournal carrying the ingest WAL
        self.breaker = breaker           # IngestBreaker (circuit breaker)
        self.fault_plan = fault_plan     # chaos-channel rolls (ingest.crash)
        self.admission = None            # set by the daemon from its guard
        self.watch_generation = watch_generation
        self._ready = journal is None    # WAL recovery flips this on
        self._ingesting = False          # queries bypass live state mid-ingest
        self._replaying = False          # suppress WAL begin + chaos on replay
        self._generation = -1
        self._generation_checked = 0.0
        self._ingest_flock = None
        if journal is not None:
            from .resilience import FileLock

            self._ingest_flock = FileLock(journal.run_dir / "ingest.lock")
        self.live: obs_live.LiveTelemetry | None = None
        if obs_live.live_enabled():
            self.live = obs_live.LiveTelemetry(
                ring=trace_ring, jsonl_path=trace_jsonl, slo=slo
            )
            # The ring tracer doubles as the process tracer, so existing
            # engine/store spans from each request land in the ring and
            # nest under the request's root span by containment.
            obs_trace.install(self.live.tracer)
        if self.live is not None and breaker is not None:
            # A tripped breaker means stale answers: fire the PR 8
            # `degraded` gauge alongside any SLO burn.
            self.live.add_degraded_cause(lambda: breaker.stale)

    # -- observation -----------------------------------------------------

    @contextmanager
    def _observe(self, endpoint: str):
        started = time.perf_counter()
        error = False
        try:
            if self.live is not None:
                span = self.live.request_span(
                    endpoint, obs_live.current_trace_id()
                )
                with span:
                    yield
            else:
                yield
        except BaseException:
            error = True
            raise
        finally:
            elapsed = time.perf_counter() - started
            with self._latency_lock:
                recorder = self._latency.get(endpoint)
                if recorder is None:
                    recorder = self._latency[endpoint] = LatencyRecorder()
                recorder.observe(elapsed)
            if self.live is not None:
                self.live.observe(endpoint, elapsed, error=error)

    # -- name / snapshot resolution --------------------------------------

    @staticmethod
    def resolve_dataset(raw: str | None) -> DatasetTag | None:
        """A corpus tag from its name, or None to mean "search all"."""
        if raw is None:
            return None
        for dataset in DatasetTag:
            if dataset.value == raw.lower():
                return dataset
        known = ", ".join(dataset.value for dataset in DatasetTag)
        raise ServiceError(
            f"unknown corpus {raw!r}; expected one of: {known}", code="bad-request"
        )

    @staticmethod
    def resolve_snapshot(raw) -> int:
        """A snapshot index from None (latest), an index, or an ISO date."""
        if raw is None:
            return NUM_SNAPSHOTS - 1
        if isinstance(raw, int):
            index = raw
        else:
            text = str(raw)
            try:
                index = int(text)
            except ValueError:
                try:
                    wanted = date_type.fromisoformat(text)
                    index = SNAPSHOT_DATES.index(wanted)
                except ValueError:
                    known = ", ".join(day.isoformat() for day in SNAPSHOT_DATES)
                    raise ServiceError(
                        f"unknown snapshot {raw!r}; use an index "
                        f"(0-{NUM_SNAPSHOTS - 1}) or one of: {known}",
                        code="bad-request",
                    ) from None
        if not 0 <= index < NUM_SNAPSHOTS:
            raise ServiceError(
                f"snapshot index {index} out of range 0-{NUM_SNAPSHOTS - 1}",
                code="bad-request",
            )
        return index

    @staticmethod
    def covered(dataset: DatasetTag, snapshot_index: int) -> bool:
        if dataset is DatasetTag.GOV:
            return snapshot_index >= GOV_FIRST_SNAPSHOT
        return 0 <= snapshot_index < NUM_SNAPSHOTS

    @staticmethod
    def first_snapshot(dataset: DatasetTag) -> int:
        return GOV_FIRST_SNAPSHOT if dataset is DatasetTag.GOV else 0

    # -- cross-worker cache coherence ------------------------------------

    _GENERATION_THROTTLE = 0.025  # seconds between generation-file stats

    def _generation_path(self):
        return self.store.root / "serve.gen"

    def _refresh_generation(self) -> None:
        """Drop cached blocks when a sibling worker published an ingest.

        Pool workers share the store but not the block cache; the
        publishing worker bumps ``serve.gen`` (atomic tmp+rename) and
        every other worker notices here — throttled to one stat per
        ~25ms so the hot query path stays hot.
        """
        if not self.watch_generation:
            return
        now = time.monotonic()
        if now - self._generation_checked < self._GENERATION_THROTTLE:
            return
        self._generation_checked = now
        try:
            with open(self._generation_path(), encoding="utf-8") as handle:
                generation = json.load(handle).get("generation", 0)
        except (OSError, ValueError):
            generation = 0
        if generation != self._generation:
            self._generation = generation
            self.blocks.clear()

    def _bump_generation(self) -> None:
        if not self.watch_generation:
            return
        self._generation += 1
        obs_live.write_json_atomic(
            self._generation_path(), {"generation": self._generation}
        )

    def _stale_flag(self, payload: dict) -> dict:
        """Mark an answer stale while the ingest breaker is tripped.

        The key is only added when tripped, so the normal-path response
        bytes are unchanged from the breaker-less daemon.
        """
        if self.breaker is not None and self.breaker.stale:
            payload["stale"] = True
        return payload

    # -- store-block access ----------------------------------------------

    def _result_view(self, dataset: DatasetTag, snapshot_index: int):
        def load():
            with obs_trace.span(
                "block.load", cat="serve", kind="result",
                corpus=dataset.value, snapshot=snapshot_index,
            ):
                payload = self.store.result_payload(
                    self.config, dataset, snapshot_index, self.faults_key
                )
                return ResultView(payload) if payload is not None else None

        try:
            return self.blocks.get(("result", dataset.value, snapshot_index), load)
        except CodecError as error:
            raise ServiceError(
                f"corrupt stored inference map for {dataset.value}"
                f"[s{snapshot_index}]: {error}",
                code="corrupt",
            ) from error

    def _snapshot_view(self, dataset: DatasetTag, snapshot_index: int):
        def load():
            with obs_trace.span(
                "block.load", cat="serve", kind="measurements",
                corpus=dataset.value, snapshot=snapshot_index,
            ):
                payload = self.store.measurement_payload(
                    self.config, dataset, snapshot_index, self.faults_key
                )
                return SnapshotView(payload) if payload is not None else None

        try:
            return self.blocks.get(
                ("measurements", dataset.value, snapshot_index), load
            )
        except CodecError as error:
            raise ServiceError(
                f"corrupt stored measurements for {dataset.value}"
                f"[s{snapshot_index}]: {error}",
                code="corrupt",
            ) from error

    def _lookup(
        self, dataset: DatasetTag, snapshot_index: int, domain: str
    ) -> tuple[DomainInference | None, bool, str]:
        """(inference, map-exists, source) for one (corpus, snapshot).

        The live incremental state is consulted first: after an ingest it
        IS the map (the store holds identical bytes, but the live dict
        needs no decode).  While an ingest is mutating that state in
        place the store is authoritative instead — its artifacts flip
        atomically (tmp+rename), so a racing query sees the old or the
        new map, never a torn one.
        """
        state = self._states.get(dataset)
        if (
            state is not None
            and not self._ingesting
            and state.snapshot_index == snapshot_index
        ):
            return state.result.inferences.get(domain), True, "live"
        view = self._result_view(dataset, snapshot_index)
        if view is None:
            return None, False, "store"
        return view.get(domain), True, "store"

    # -- query endpoints -------------------------------------------------

    def who_has(self, domain: str, corpus=None, snapshot=None) -> dict:
        """The provider attribution for *domain* at one snapshot."""
        with self._observe("who-has"):
            self._refresh_generation()
            dataset = self.resolve_dataset(corpus)
            snapshot_index = self.resolve_snapshot(snapshot)
            candidates = [dataset] if dataset is not None else list(DatasetTag)
            any_map = False
            for candidate in candidates:
                if not self.covered(candidate, snapshot_index):
                    continue
                inference, exists, source = self._lookup(
                    candidate, snapshot_index, domain
                )
                any_map = any_map or exists
                if inference is None:
                    continue
                return self._stale_flag({
                    "domain": domain,
                    "corpus": candidate.value,
                    "snapshot": snapshot_index,
                    "date": SNAPSHOT_DATES[snapshot_index].isoformat(),
                    "status": inference.status.value,
                    "providers": dict(inference.attributions),
                    "sole_provider": inference.sole_provider_id,
                    "examined": inference.examined,
                    "source": source,
                })
            where = dataset.value if dataset is not None else "any corpus"
            if not any_map:
                raise ServiceError(
                    f"no stored inference map for {where} at snapshot "
                    f"{snapshot_index} — seed the store (run the sweep) or "
                    f"`serve ingest` first",
                    code="no-artifact",
                )
            raise ServiceError(
                f"{domain}: not present in {where} at snapshot {snapshot_index}",
                code="not-found",
            )

    def provider_stats(self, corpus=None, snapshot=None) -> dict:
        """Aggregate status counts and provider weights for one corpus."""
        with self._observe("provider-stats"):
            self._refresh_generation()
            dataset = self.resolve_dataset(corpus) or DatasetTag.ALEXA
            snapshot_index = self.resolve_snapshot(snapshot)
            if not self.covered(dataset, snapshot_index):
                raise ServiceError(
                    f"corpus {dataset.value} has no coverage at snapshot "
                    f"{snapshot_index}",
                    code="bad-request",
                )
            state = self._states.get(dataset)
            if (
                state is not None
                and not self._ingesting
                and state.snapshot_index == snapshot_index
            ):
                stats = _provider_stats(
                    (inference.status.value, inference.attributions.items())
                    for inference in state.result.inferences.values()
                )
                source = "live"
            else:
                view = self._result_view(dataset, snapshot_index)
                if view is None:
                    raise ServiceError(
                        f"no stored inference map for {dataset.value} at "
                        f"snapshot {snapshot_index}",
                        code="no-artifact",
                    )
                stats = view.provider_stats()
                source = "store"
            return self._stale_flag({
                "corpus": dataset.value,
                "snapshot": snapshot_index,
                "date": SNAPSHOT_DATES[snapshot_index].isoformat(),
                "source": source,
                **stats,
            })

    def explain(self, domain: str, corpus=None, snapshot=None) -> dict:
        """The full provenance record (audit trail) for one domain."""
        with self._observe("explain"):
            self._refresh_generation()
            dataset = self.resolve_dataset(corpus)
            snapshot_index = self.resolve_snapshot(snapshot)
            candidates = [dataset] if dataset is not None else list(DatasetTag)
            for candidate in candidates:
                if not self.covered(candidate, snapshot_index):
                    continue
                inference, _exists, _source = self._lookup(
                    candidate, snapshot_index, domain
                )
                if inference is None:
                    continue
                measurement = None
                snapshot_view = self._snapshot_view(candidate, snapshot_index)
                if snapshot_view is not None and domain in snapshot_view:
                    measurement = snapshot_view.materialize({domain})[domain]
                return self._stale_flag(obs_provenance.provenance_record(
                    inference,
                    corpus=candidate.value,
                    snapshot_index=snapshot_index,
                    snapshot_date=SNAPSHOT_DATES[snapshot_index],
                    measurement=measurement,
                ))
            where = dataset.value if dataset is not None else "any stored corpus"
            raise ServiceError(
                f"{domain}: no stored inference in {where} at snapshot "
                f"{snapshot_index}",
                code="not-found",
            )

    # -- ingestion -------------------------------------------------------

    def _context(self):
        """The lazy gather context (builds the world on first use)."""
        if self._ctx is None:
            from ..engine import EngineOptions
            from ..experiments.common import StudyContext

            with STATS.timer("serve.context.build"):
                self._ctx = StudyContext.create(
                    self.config,
                    engine=EngineOptions(jobs=self.jobs),
                    store=self.store,
                    faults=None,
                )
        return self._ctx

    def _delta_inferencer(self):
        if self._inferencer is None:
            from ..engine.incremental import IncrementalInferencer

            ctx = self._context()
            self._inferencer = IncrementalInferencer(
                ctx.world.trust_store,
                ctx.company_map,
                psl=ctx.world.psl,
                identity_cache=ctx.identity_cache,
            )
        return self._inferencer

    def _measurement_payload(self, dataset: DatasetTag, snapshot_index: int) -> bytes:
        payload = self.store.measurement_payload(
            self.config, dataset, snapshot_index, self.faults_key
        )
        if payload is not None:
            return payload
        # Not yet measured: gather through the lazy context, which writes
        # the snapshot through to this store, then re-read the bytes.
        ctx = self._context()
        ctx.measurements(dataset, snapshot_index)
        payload = self.store.measurement_payload(
            self.config, dataset, snapshot_index, self.faults_key
        )
        if payload is None:
            raise ServiceError(
                f"gather produced no stored snapshot for {dataset.value}"
                f"[s{snapshot_index}]",
                code="no-artifact",
            )
        return payload

    def ingest(self, snapshot=None, corpus=None, jobs: int | None = None) -> dict:
        """Merge one snapshot into the live maps, delta-inferring changes.

        Gathers (or loads) the snapshot's measurements per corpus, then
        either bootstraps the incremental state (first contact) or runs a
        delta round re-inferring only domains whose evidence changed.
        Results write through to the store bit-identical to a batch run.
        """
        with self._observe("ingest"), self._lock:
            if self.breaker is not None and not self.breaker.allow():
                raise ServiceError(
                    "ingest circuit breaker is open after repeated failures; "
                    "serving stale maps until the cooldown expires",
                    code="circuit-open",
                    retry_after=self.breaker.retry_after(),
                )
            started = time.perf_counter()
            snapshot_index = self.resolve_snapshot(snapshot)
            dataset = self.resolve_dataset(corpus)
            targets = [
                target
                for target in (
                    [dataset] if dataset is not None else list(DatasetTag)
                )
                if self.covered(target, snapshot_index)
            ]
            if not targets:
                raise ServiceError(
                    f"no corpus covers snapshot {snapshot_index}",
                    code="bad-request",
                )
            with self._wal(snapshot_index, targets):
                reports = [
                    self._ingest_one(target, snapshot_index, jobs)
                    for target in targets
                ]
            summary = {
                "snapshot": snapshot_index,
                "date": SNAPSHOT_DATES[snapshot_index].isoformat(),
                "reports": reports,
            }
            self._ingest_log.append(summary)
            if self.live is not None:
                self.live.note_ingest(
                    snapshot_index, time.perf_counter() - started
                )
            return summary

    @contextmanager
    def _wal(self, snapshot_index: int, targets):
        """The crash-safe write-ahead envelope around one ingest.

        The intent record (``ingest.wal.begin``: snapshot + corpora +
        config digest) is fsynced before any serving state mutates;
        ``ingest.wal.commit`` lands only after every corpus published
        through the store's atomic tmp+rename.  A begin without a commit
        is exactly what :meth:`recover` replays — and replay writes no
        second begin, so its commit closes the original intent.  The
        surrounding flock serializes ingest across pool workers; the
        ``_ingesting`` flag diverts racing queries in THIS process to
        the store so they never read a half-mutated live state.
        """
        corpora = [target.value for target in targets]
        if self.journal is None:
            self._ingesting = True
            try:
                yield
            except Exception:
                if self.breaker is not None:
                    self.breaker.record_failure()
                raise
            else:
                if self.breaker is not None:
                    self.breaker.record_success()
            finally:
                self._ingesting = False
            return
        from ..resilience.journal import config_digest

        with self._ingest_flock:
            if not self._replaying:
                self.journal.append(
                    "ingest.wal.begin",
                    snapshot=snapshot_index,
                    corpora=corpora,
                    config=config_digest(self.config, self.faults_key),
                )
            self._crash_point(snapshot_index, "begin")
            self._ingesting = True
            try:
                yield
            except Exception as error:
                self.journal.append(
                    "ingest.wal.failed",
                    snapshot=snapshot_index,
                    corpora=corpora,
                    error=str(error),
                    replay=self._replaying,
                )
                if self.breaker is not None:
                    self.breaker.record_failure()
                raise
            else:
                self._crash_point(snapshot_index, "pre-commit")
                self.journal.append(
                    "ingest.wal.commit",
                    snapshot=snapshot_index,
                    corpora=corpora,
                    replay=self._replaying,
                )
                if self.breaker is not None:
                    self.breaker.record_success()
            finally:
                self._ingesting = False

    def _crash_point(self, snapshot_index: int, stage: str) -> None:
        """Roll the hash-pure ``ingest.crash`` channel (SIGKILL-like).

        Suppressed during recovery replay — otherwise the same roll that
        killed the original ingest would kill every replay of it.
        """
        plan = self.fault_plan
        if plan is None or self._replaying or plan.ingest_crash <= 0:
            return
        from ..faults.inject import fault_roll
        from ..resilience.supervisor import EXIT_INJECTED_CRASH

        if (
            fault_roll(plan.seed, "ingest.crash", snapshot_index, stage)
            < plan.ingest_crash
        ):
            import os

            os._exit(EXIT_INJECTED_CRASH)

    def recover(self) -> dict:
        """Replay WAL intents that never committed; mark the service ready.

        Runs under the cross-worker flock at worker startup.  Each
        pending ``ingest.wal.begin`` is re-executed through the normal
        ingest path (idempotent: results overwrite byte-identical store
        artifacts), journaled as ``ingest.wal.replay``; a replay that
        fails is journaled ``ingest.wal.failed`` and the daemon still
        comes up, serving the last good maps.
        """
        if self.journal is None:
            self._ready = True
            return {"replayed": 0, "failed": 0}
        from .resilience import pending_wal

        replayed = failed = 0
        with self._ingest_flock:
            for event in pending_wal(self.journal.path):
                corpora = [
                    value for value in (event.get("corpora") or []) if value
                ]
                self.journal.append(
                    "ingest.wal.replay",
                    snapshot=event.get("snapshot"),
                    corpora=corpora,
                    replay=True,
                )
                corpus = corpora[0] if len(corpora) == 1 else None
                self._replaying = True
                try:
                    self.ingest(event.get("snapshot"), corpus)
                except Exception:
                    failed += 1  # _wal already journaled ingest.wal.failed
                else:
                    replayed += 1
                finally:
                    self._replaying = False
            self._ready = True
        return {"replayed": replayed, "failed": failed}

    def readiness(self) -> dict:
        """The ``/readyz`` payload: has WAL recovery completed?"""
        return {"ready": self._ready, "ingests": len(self._ingest_log)}

    def _ingest_one(
        self, dataset: DatasetTag, snapshot_index: int, jobs: int | None
    ) -> dict:
        state = self._states.get(dataset)
        if state is not None and snapshot_index <= state.snapshot_index:
            raise ServiceError(
                f"{dataset.value}: snapshot {snapshot_index} is not ahead of "
                f"the live state (at {state.snapshot_index}); ingest moves "
                f"forward only",
                code="bad-request",
            )
        view = SnapshotView(self._measurement_payload(dataset, snapshot_index))
        inferencer = self._delta_inferencer()
        jobs = jobs or self.jobs
        if state is None:
            prior = self._latest_prior_snapshot(dataset, snapshot_index)
            if prior is None:
                state, report = inferencer.bootstrap(
                    view, snapshot_index=snapshot_index, jobs=jobs
                )
                self._states[dataset] = state
                self._publish(dataset, snapshot_index, state)
                return {"corpus": dataset.value, **report.as_dict()}
            prior_view = SnapshotView(
                self._measurement_payload(dataset, prior)
            )
            state, _boot = inferencer.bootstrap(
                prior_view, snapshot_index=prior, jobs=jobs
            )
            self._states[dataset] = state
        report = inferencer.ingest(
            state, view, snapshot_index=snapshot_index, jobs=jobs
        )
        self._publish(dataset, snapshot_index, state)
        return {"corpus": dataset.value, **report.as_dict()}

    def _latest_prior_snapshot(
        self, dataset: DatasetTag, snapshot_index: int
    ) -> int | None:
        """The newest stored measurement snapshot before *snapshot_index*.

        Bootstrapping there (instead of at the new snapshot) primes the
        delta state so THIS ingest and every later one runs incremental.
        """
        for index in range(snapshot_index - 1, self.first_snapshot(dataset) - 1, -1):
            payload = self.store.measurement_payload(
                self.config, dataset, index, self.faults_key
            )
            if payload is not None:
                return index
        return None

    def _publish(self, dataset: DatasetTag, snapshot_index: int, state) -> None:
        """Write the live result through to the store and drop stale blocks."""
        self.store.save_result(
            self.config, dataset, snapshot_index, state.result, self.faults_key
        )
        self._crash_point(snapshot_index, f"publish:{dataset.value}")
        self.blocks.invalidate(("result", dataset.value, snapshot_index))
        self._bump_generation()
        STATS.inc("serve.ingest.published")

    def result_digest(self, dataset: DatasetTag) -> str:
        """Hex digest of the live result's canonical encoding (equivalence)."""
        import hashlib

        state = self._states.get(dataset)
        if state is None:
            raise ServiceError(
                f"{dataset.value}: no live state (ingest first)", code="bad-request"
            )
        return hashlib.sha256(encode_result(state.result)).hexdigest()

    # -- introspection ---------------------------------------------------

    def status(self) -> dict:
        with self._observe("status"):
            live = {
                dataset.value: {
                    "snapshot": state.snapshot_index,
                    "domains": len(state.domains),
                }
                for dataset, state in self._states.items()
            }
            return {
                "uptime_s": round(time.monotonic() - self.started, 3),
                "seed": self.config.seed,
                "store": str(self.store.root),
                "blocks_cached": len(self.blocks),
                "live": live,
                "world_built": self._ctx is not None,
                "ingests": len(self._ingest_log),
                "ready": self._ready,
                "degraded": (
                    self.live.degraded()
                    if self.live is not None
                    else (self.breaker.stale if self.breaker else False)
                ),
            }

    def metrics(self) -> dict:
        """The PR 3-style serve section: latency histograms + cache rates."""
        with self._latency_lock:
            endpoints = {
                name: recorder.snapshot()
                for name, recorder in sorted(self._latency.items())
            }
        hits = STATS.counters.get("serve.block.hit", 0)
        misses = STATS.counters.get("serve.block.miss", 0)
        return {
            "uptime_s": round(time.monotonic() - self.started, 3),
            "endpoints": endpoints,
            "block_cache": {
                "hits": hits,
                "misses": misses,
                "hit_rate": round(hits / (hits + misses), 4) if hits + misses else None,
                "entries": len(self.blocks),
                "capacity": self.blocks.capacity,
            },
            "ingests": [
                {
                    "snapshot": entry["snapshot"],
                    "reports": entry["reports"],
                }
                for entry in self._ingest_log[-16:]
            ],
            "live": self.live.snapshot() if self.live is not None else None,
            "degraded": (
                self.live.degraded()
                if self.live is not None
                else (self.breaker.stale if self.breaker else False)
            ),
            **self._resilience_section(),
        }

    def _resilience_section(self) -> dict:
        """The optional ``resilience`` block of the serve metrics section.

        Empty (and absent from the document) when no resilience feature
        is on, so pre-pool metrics documents are byte-identical.
        """
        if (
            self.admission is None
            and self.breaker is None
            and self.journal is None
        ):
            return {}
        section: dict = {
            "ready": self._ready,
            "quarantined": STATS.counters.get("serve.quarantined", 0),
        }
        if self.admission is not None:
            section.update(self.admission.snapshot())
        if self.breaker is not None:
            section["breaker"] = self.breaker.state()
        if self.journal is not None:
            section["wal"] = {
                "journal": str(self.journal.path),
                "run": self.journal.run_id,
            }
        return {"resilience": section}

    def prometheus(self) -> str:
        """The ``GET /metrics`` Prometheus text exposition."""
        if self.live is None:
            raise ServiceError(
                "live telemetry is disabled (REPRO_LIVE=off); /metrics has "
                "nothing to scrape",
                code="no-telemetry",
            )
        text = self.live.render_prometheus()
        extra: list[str] = []
        if self.admission is not None:
            snap = self.admission.snapshot()
            extra += [
                "# HELP repro_serve_inflight Requests currently executing.",
                "# TYPE repro_serve_inflight gauge",
                f"repro_serve_inflight {snap['inflight']}",
                "# HELP repro_serve_queue_depth Requests waiting for an "
                "admission slot.",
                "# TYPE repro_serve_queue_depth gauge",
                f"repro_serve_queue_depth {snap['queue_depth']}",
                "# HELP repro_serve_shed_total Requests shed by admission "
                "control.",
                "# TYPE repro_serve_shed_total counter",
                f"repro_serve_shed_total {snap['shed']}",
            ]
        if self.breaker is not None:
            extra += [
                "# HELP repro_serve_breaker_open 1 while the ingest circuit "
                "breaker is tripped (answers are stale).",
                "# TYPE repro_serve_breaker_open gauge",
                f"repro_serve_breaker_open {1 if self.breaker.stale else 0}",
            ]
        restarts = STATS.counters.get("serve.worker.restarts", 0)
        if restarts:
            extra += [
                "# HELP repro_serve_worker_restarts_total Crashed or hung "
                "workers replaced by the pool supervisor.",
                "# TYPE repro_serve_worker_restarts_total counter",
                f"repro_serve_worker_restarts_total {restarts}",
            ]
        if not extra:
            return text
        return text.rstrip("\n") + "\n" + "\n".join(extra) + "\n"

    def trace(self, trace_id) -> dict:
        """Replay one traced request's span tree from the ring."""
        cleaned = obs_live.normalize_trace_id(trace_id)
        if cleaned is None:
            raise ServiceError("trace requires a trace id", code="bad-request")
        if self.live is None:
            raise ServiceError(
                "live telemetry is disabled (REPRO_LIVE=off); no spans are "
                "being recorded",
                code="no-telemetry",
            )
        tree = self.live.trace_tree(cleaned)
        if tree is None:
            raise ServiceError(
                f"trace {cleaned!r}: not in the span ring (expired or never "
                f"seen; the ring keeps the most recent "
                f"~{obs_live.DEFAULT_RING} spans)",
                code="not-found",
            )
        return tree
