"""Shared experiment context: one world, cached measurements and inferences.

Every experiment (and benchmark) runs against a :class:`StudyContext` —
a built world plus memoized measurement gathering and inference runs per
(corpus, snapshot).  The default context is scaled by the ``REPRO_SCALE``
environment variable (1.0 = the test-size world; the paper's corpora are
roughly 78× larger and behave identically, just slower).
"""

from __future__ import annotations

import os
import warnings
from dataclasses import dataclass, field
from functools import partial

from ..core.baselines import (
    APPROACH_BANNER,
    APPROACH_CERT,
    APPROACH_MX_ONLY,
    APPROACH_PRIORITY,
    MXOnlyApproach,
    banner_based,
    cert_based,
)
from ..core.certgroup import CertificateGroups
from ..core.companies import CompanyMap
from ..core.pipeline import PipelineConfig, PipelineResult, PriorityPipeline
from ..core.types import DomainInference
from ..engine import EngineOptions, MXIdentityCache
from ..engine.heap import long_lived
from ..engine.stats import STATS
from ..faults import FaultInjector, FaultPlan, as_plan
from ..obs import trace
from ..resilience.supervisor import GatherSupervision, SupervisorOptions
from ..measure import (
    CensysScanner,
    MeasurementGatherer,
    OpenINTELPlatform,
    Prefix2ASDataset,
)
from ..measure.dataset import DomainMeasurement
from ..store import ArtifactStore
from ..stream import BatchSpiller, env_stream_keep, merge_payloads, stream_gather
from ..world.build import World, WorldConfig, build_world
from ..world.entities import DatasetTag
from ..world.population import GOV_FIRST_SNAPSHOT, NUM_SNAPSHOTS

LAST_SNAPSHOT = NUM_SNAPSHOTS - 1

# Sentinel distinguishing "no store" (None) from "resolve from REPRO_CACHE".
STORE_FROM_ENV = object()


def env_scale(default: float = 1.0) -> float:
    """Corpus scale factor from the REPRO_SCALE environment variable.

    Unparseable values warn (instead of failing silently) and fall back
    to *default*.
    """
    raw = os.environ.get("REPRO_SCALE")
    if raw is None:
        return default
    try:
        return float(raw)
    except ValueError:
        warnings.warn(
            f"unparseable REPRO_SCALE={raw!r}; falling back to {default}",
            stacklevel=2,
        )
        return default


@dataclass
class StudyContext:
    """A world plus cached measurement and inference state.

    ``engine`` controls execution: worker count for sharded gathering and
    pipeline identification, and whether the cross-run memoization layers
    (PSL extraction, observation interning, cert-group reuse, MX-identity
    cache) are active.  All engine settings are pure optimizations — every
    inference is bit-identical across jobs counts and cache settings.

    ``store`` adds the persistent layer: gathered measurement snapshots,
    priority-pipeline results, and baseline inference maps are read from
    and written through to an on-disk :class:`~repro.store.ArtifactStore`,
    keyed on (world config, corpus, snapshot, schema version).  Because
    engine settings never change results, they are excluded from store
    keys — a snapshot cached by any run serves every later run over the
    same world.
    """

    world: World
    gatherer: MeasurementGatherer
    company_map: CompanyMap
    engine: EngineOptions = field(default_factory=EngineOptions)
    store: ArtifactStore | None = None
    identity_cache: MXIdentityCache | None = None
    faults: FaultInjector | None = None
    fault_plan: FaultPlan | None = None
    resilience: "object | None" = None  # repro.resilience.RunContext
    #: repro.dist.DistCoordinator — leases gathers to remote worker hosts.
    dist: "object | None" = None
    _measurements: dict[tuple[DatasetTag, int], dict[str, DomainMeasurement]] = field(
        default_factory=dict
    )
    #: Encoded batch payloads backing evicted snapshots of store-less
    #: streamed runs (the codec doubles as the compact heap form).
    _snapshot_payloads: dict[tuple[DatasetTag, int], list[bytes]] = field(
        default_factory=dict
    )
    _domain_lists: dict[DatasetTag, list[str]] = field(default_factory=dict)
    _priority: dict[tuple[DatasetTag, int], PipelineResult] = field(default_factory=dict)
    _baselines: dict[tuple[str, DatasetTag, int], dict[str, DomainInference]] = field(
        default_factory=dict
    )
    _cert_groups: dict[tuple[DatasetTag, int], CertificateGroups] = field(
        default_factory=dict
    )

    # -- construction ----------------------------------------------------

    @classmethod
    def create(
        cls,
        config: WorldConfig | None = None,
        engine: EngineOptions | None = None,
        store: "ArtifactStore | None | object" = STORE_FROM_ENV,
        faults: "FaultPlan | str | None" = None,
        resilience: "object | None" = None,
        dist: "object | None" = None,
    ) -> "StudyContext":
        """Build a context; *store* defaults to the ``REPRO_CACHE`` store.

        Pass ``store=None`` to disable persistence explicitly, or an
        :class:`~repro.store.ArtifactStore` to use a specific cache dir.

        *faults* — a :class:`~repro.faults.FaultPlan` (or spec string) —
        installs the deterministic fault injector at every measurement
        seam.  Inactive plans (rate 0 everywhere, ``"none"``) are treated
        exactly like no plan at all, so the fault-free path stays
        byte-identical to a build without the faults package.  Plans with
        only worker channels (``worker.crash``/``worker.hang``) install no
        measurement injector — they drive the shard supervisor instead and
        never perturb measured values or store keys.

        *resilience* — a :class:`~repro.resilience.RunContext` — adds
        journaling and shard checkpoints to the (always supervised)
        gathers, and threads the run's shutdown flag through the
        experiment loop.

        *dist* — a :class:`~repro.dist.DistCoordinator` — leases gather
        shards to remote worker hosts over its socket instead of running
        them in local processes; everything else (checkpoints, journal,
        merge order) is unchanged, so the output stays byte-identical.
        """
        engine = engine or EngineOptions()
        if store is STORE_FROM_ENV:
            store = ArtifactStore.from_env()
        world = build_world(config)
        world.psl.set_cache(engine.memoize)
        plan = as_plan(faults)
        prefix2as = Prefix2ASDataset.from_table(world.prefix2as)
        injector = None
        if plan is not None and plan.measurement_active:
            def asn_of(address: str) -> int | None:
                info = prefix2as.lookup(address)
                return info.asn if info is not None else None

            injector = FaultInjector(plan, asn_of=asn_of)
        openintel = OpenINTELPlatform(
            world.snapshot_zones, world.snapshot_dates, faults=injector
        )
        censys = CensysScanner(
            world.host_table,
            coverage_for=world.censys_coverage_for,
            faults=injector,
        )
        gatherer = MeasurementGatherer(
            openintel, censys, prefix2as, memoize=engine.memoize
        )
        company_map = CompanyMap.from_specs(
            [infra.spec for infra in world.companies.values()], psl=world.psl
        )
        return cls(
            world=world,
            gatherer=gatherer,
            company_map=company_map,
            engine=engine,
            store=store,
            identity_cache=MXIdentityCache() if engine.memoize else None,
            faults=injector,
            fault_plan=plan,
            resilience=resilience,
            dist=dist,
        )

    def faults_key(self) -> str | None:
        """The store-key component of this context's fault plan (or None).

        Worker-fault channels are stripped (``FaultPlan.store_key``):
        crashing or hanging workers changes *how* a snapshot is computed,
        never *what* it contains, so worker-faulted runs share artifacts
        with clean runs — the property the kill/resume differential gate
        relies on.
        """
        return self.fault_plan.store_key() if self.fault_plan is not None else None

    def _supervision(
        self,
        dataset: DatasetTag,
        snapshot_index: int,
        batch: tuple[int, int, int] | None = None,
    ):
        """The policy every gather of this snapshot runs under.

        Restart budget and deadline come from the engine options; the
        fault plan rides along when it carries worker channels; a
        resilient run adds its journal, shutdown flag and shard
        checkpoints; a dist context adds its coordinator.  Under a
        streamed gather, *batch* is the plan key of the batch being
        supervised: checkpoints key on it, and worker fault rolls vary
        per batch (restart budgets are per gather, so the values a batch
        produces are still never affected).
        """
        plan = self.fault_plan
        worker_faults = plan is not None and plan.worker_active
        run = self.resilience

        checkpoint_factory = None
        if run is not None and run.checkpoints is not None:
            checkpoint_factory = (
                lambda count: run.checkpoints.bind(
                    dataset, snapshot_index, count, batch=batch
                )
            )
        scope = (dataset.value, snapshot_index)
        if batch is not None:
            scope = scope + (batch[0], batch[1])
        return GatherSupervision(
            options=SupervisorOptions(
                deadline=self.engine.shard_deadline,
                max_restarts=self.engine.max_restarts,
            ),
            plan=plan if worker_faults else None,
            scope=scope,
            checkpoint_factory=checkpoint_factory,
            journal=run.journal if run is not None else None,
            shutdown=run.shutdown if run is not None else None,
            dist=self.dist,
        )

    def _discard_shard_checkpoints(
        self, dataset: DatasetTag, snapshot_index: int
    ) -> None:
        """Drop shard checkpoints once the full snapshot artifact exists.

        Keeps completed stores free of partial-gather entries — and, for
        streamed gathers, of batch spill entries — so a finished resumed
        run's store is digest-identical to an uninterrupted run's.
        """
        run = self.resilience
        if run is None or run.checkpoints is None:
            return
        jobs = self.engine.resolved_jobs()
        total = len(self.domains(dataset))
        plan = self.engine.batch_plan()
        for batch_index, size in enumerate(plan.batch_sizes(total)):
            # Unbatched gathers key their shards on (corpus, snapshot) only.
            batch = plan.key(batch_index, total) if plan.active else None
            shard_count = min(jobs, size)
            if shard_count > 1:
                run.checkpoints.bind(
                    dataset, snapshot_index, shard_count, batch=batch
                ).discard_all()
            if batch is not None and self.store is not None:
                self.store.discard_batch(
                    self.world.config, dataset, snapshot_index, *batch,
                    self.faults_key(),
                )

    # -- corpus access ---------------------------------------------------

    def domains(self, dataset: DatasetTag) -> list[str]:
        cached = self._domain_lists.get(dataset)
        if cached is None:
            cached = sorted(entity.name for entity in self.world.domains_in(dataset))
            self._domain_lists[dataset] = cached
        return cached

    def covered(self, dataset: DatasetTag, snapshot_index: int) -> bool:
        if dataset is DatasetTag.GOV:
            return snapshot_index >= GOV_FIRST_SNAPSHOT
        return 0 <= snapshot_index < NUM_SNAPSHOTS

    def measurements(
        self, dataset: DatasetTag, snapshot_index: int
    ) -> dict[str, DomainMeasurement] | None:
        if not self.covered(dataset, snapshot_index):
            return None
        key = (dataset, snapshot_index)
        cached = self._measurements.get(key)
        if cached is not None:
            # LRU touch: re-insertion keeps eviction order honest.
            self._measurements.pop(key)
            self._measurements[key] = cached
            return cached
        with long_lived():
            return self._load_or_gather(dataset, snapshot_index)

    def _load_or_gather(
        self, dataset: DatasetTag, snapshot_index: int
    ) -> dict[str, DomainMeasurement]:
        """The :meth:`measurements` miss path: store, re-decode or gather."""
        key = (dataset, snapshot_index)
        run = self.resilience
        if run is not None:
            run.shutdown.raise_if_set()
        loaded = None
        if self.store is not None:
            loaded = self.store.load_measurements(
                self.world.config, dataset, snapshot_index, self.faults_key()
            )
        if loaded is None and key in self._snapshot_payloads:
            # A store-less streamed run re-decodes an evicted snapshot
            # from its retained batch payloads instead of re-gathering.
            with STATS.timer("stream.redecode"):
                loaded = merge_payloads(self._snapshot_payloads[key])
            STATS.inc("stream.redecoded")
        if loaded is not None:
            # Warm the gatherer's observation caches so follow-up
            # gathers (showcase domains, churn studies) reuse the
            # persisted scan/routing records.
            self.gatherer.adopt(loaded)
            self._remember(key, loaded)
            # A resumed run may hold stale shard checkpoints for a
            # snapshot that completed before the kill — clean them up.
            self._discard_shard_checkpoints(dataset, snapshot_index)
            return loaded
        targets = self.domains(dataset)
        plan = self.engine.batch_plan()
        with STATS.timer("context.gather"), trace.span(
            f"{dataset.value}[s{snapshot_index}].gather",
            cat="snapshot",
            corpus=dataset.value,
            snapshot=snapshot_index,
            targets=len(targets),
        ):
            spiller = BatchSpiller(
                plan=plan,
                total=len(targets),
                store=self.store,
                config=self.world.config,
                dataset=dataset,
                snapshot_index=snapshot_index,
                faults=self.faults_key(),
                write_through=run is not None,
            )
            gathered = stream_gather(
                self.gatherer,
                targets,
                snapshot_index,
                plan=plan,
                spiller=spiller,
                jobs=self.engine.resolved_jobs(),
                executor=self.engine.executor,
                supervision_factory=partial(
                    self._supervision, dataset, snapshot_index
                ),
            )
        if self.store is None and plan.active:
            # Evicted snapshots of a store-less streamed run re-decode
            # from their batch payloads; unbatched runs never evict.
            self._snapshot_payloads[key] = spiller.held_payloads()
        if self.store is not None:
            self.store.save_measurements(
                self.world.config, dataset, snapshot_index, gathered,
                self.faults_key(),
            )
        if run is not None:
            run.journal.append(
                "snapshot.done",
                corpus=dataset.value,
                snapshot=snapshot_index,
                targets=len(targets),
            )
            self._discard_shard_checkpoints(dataset, snapshot_index)
        self._remember(key, gathered)
        return gathered

    def _remember(
        self,
        key: tuple[DatasetTag, int],
        measurements: dict[str, DomainMeasurement],
    ) -> None:
        """Cache a decoded snapshot; bounded LRU when streaming.

        Unbatched contexts keep every snapshot for the life of the
        context (the historical behaviour).  Streamed contexts keep the
        ``REPRO_STREAM_KEEP`` most recent decoded snapshots: anything
        evicted reloads from the store, or re-decodes from its retained
        batch payloads when no store is configured.
        """
        self._measurements.pop(key, None)
        self._measurements[key] = measurements
        self._stream_trim(self._measurements, "stream.snapshot.evicted")

    def _stream_trim(self, cache: dict, counter: str, keep_factor: int = 1) -> None:
        """Bound a per-snapshot cache to ``REPRO_STREAM_KEEP`` entries.

        No-op for unbatched contexts (the historical keep-everything
        behaviour).  Streamed contexts evict oldest-first: evicted
        snapshots reload from the store, re-decode from retained batch
        payloads, or recompute — all deterministic, so eviction can never
        change an output, only trade memory for time.  ``keep_factor``
        widens the bound for caches holding several entries per snapshot
        (the three baseline approaches).
        """
        if not self.engine.batch_plan().active:
            return
        keep = env_stream_keep() * keep_factor
        while len(cache) > keep:
            evicted = next(iter(cache))
            del cache[evicted]
            STATS.inc(counter)

    # -- inference runs --------------------------------------------------

    def cert_groups(
        self, dataset: DatasetTag, snapshot_index: int
    ) -> CertificateGroups | None:
        """The step-1 certificate grouping for one (corpus, snapshot).

        Grouping depends only on the measurements (never on the pipeline
        config), so one grouping serves the default run and every ablation
        config over the same snapshot.
        """
        measurements = self.measurements(dataset, snapshot_index)
        if measurements is None:
            return None
        if not self.engine.memoize:
            return None  # let each run rebuild, as the seed did
        key = (dataset, snapshot_index)
        if key not in self._cert_groups:
            STATS.inc("pipeline.groups.miss")
            builder = PriorityPipeline(
                self.world.trust_store, self.company_map, self.world.psl
            )
            with STATS.timer("context.cert_groups"), long_lived():
                self._cert_groups[key] = builder.build_groups(measurements)
            self._stream_trim(self._cert_groups, "stream.groups.evicted")
        else:
            STATS.inc("pipeline.groups.hit")
        return self._cert_groups[key]

    def priority_result(
        self, dataset: DatasetTag, snapshot_index: int,
        config: PipelineConfig | None = None,
    ) -> PipelineResult | None:
        """Priority-pipeline run (cached only for the default config).

        A store hit for the default config short-circuits measurement
        gathering entirely — the warm path never touches the measurement
        layer unless a later caller asks for the raw snapshot.
        """
        if not self.covered(dataset, snapshot_index):
            return None
        if config is not None:
            measurements = self.measurements(dataset, snapshot_index)
            pipeline = PriorityPipeline(
                self.world.trust_store, self.company_map, self.world.psl, config,
                identity_cache=self.identity_cache, faults=self.faults,
            )
            with STATS.timer("context.pipeline"), trace.span(
                f"{dataset.value}[s{snapshot_index}].pipeline",
                cat="snapshot",
                corpus=dataset.value,
                snapshot=snapshot_index,
                config="ablation",
            ):
                return pipeline.run(
                    measurements,
                    groups=self.cert_groups(dataset, snapshot_index),
                    jobs=self.engine.resolved_jobs(),
                )
        key = (dataset, snapshot_index)
        if key not in self._priority:
            with long_lived():
                self._priority[key] = self._load_or_run(dataset, snapshot_index)
            self._stream_trim(self._priority, "stream.result.evicted")
        return self._priority[key]

    def _load_or_run(
        self, dataset: DatasetTag, snapshot_index: int
    ) -> PipelineResult:
        """The default-config :meth:`priority_result` miss path."""
        if self.store is not None:
            loaded = self.store.load_result(
                self.world.config, dataset, snapshot_index, self.faults_key()
            )
            if loaded is not None:
                return loaded
        measurements = self.measurements(dataset, snapshot_index)
        pipeline = PriorityPipeline(
            self.world.trust_store, self.company_map, self.world.psl,
            identity_cache=self.identity_cache, faults=self.faults,
        )
        with STATS.timer("context.pipeline"), trace.span(
            f"{dataset.value}[s{snapshot_index}].pipeline",
            cat="snapshot",
            corpus=dataset.value,
            snapshot=snapshot_index,
            config="default",
        ):
            result = pipeline.run(
                measurements,
                groups=self.cert_groups(dataset, snapshot_index),
                jobs=self.engine.resolved_jobs(),
            )
        if self.store is not None:
            self.store.save_result(
                self.world.config, dataset, snapshot_index, result,
                self.faults_key(),
            )
        return result

    def priority(
        self, dataset: DatasetTag, snapshot_index: int
    ) -> dict[str, DomainInference] | None:
        result = self.priority_result(dataset, snapshot_index)
        return result.inferences if result is not None else None

    def baseline(
        self, approach: str, dataset: DatasetTag, snapshot_index: int
    ) -> dict[str, DomainInference] | None:
        if not self.covered(dataset, snapshot_index):
            return None
        key = (approach, dataset, snapshot_index)
        if key not in self._baselines:
            if approach == APPROACH_MX_ONLY:
                runner = MXOnlyApproach(psl=self.world.psl)
            elif approach == APPROACH_CERT:
                runner = cert_based(self.world.trust_store, psl=self.world.psl)
            elif approach == APPROACH_BANNER:
                runner = banner_based(self.world.trust_store, psl=self.world.psl)
            else:
                raise ValueError(f"unknown baseline approach: {approach}")
            with long_lived():
                inferences = None
                if self.store is not None:
                    inferences = self.store.load_baseline(
                        self.world.config, dataset, snapshot_index, approach,
                        self.faults_key(),
                    )
                if inferences is None:
                    inferences = runner.run(
                        self.measurements(dataset, snapshot_index)
                    )
                    if self.store is not None:
                        self.store.save_baseline(
                            self.world.config, dataset, snapshot_index, approach,
                            inferences, self.faults_key(),
                        )
                self._baselines[key] = inferences
            self._stream_trim(
                self._baselines, "stream.result.evicted", keep_factor=3
            )
        return self._baselines[key]

    def all_approaches(
        self, dataset: DatasetTag, snapshot_index: int
    ) -> dict[str, dict[str, DomainInference]] | None:
        priority = self.priority(dataset, snapshot_index)
        if priority is None:
            return None
        return {
            APPROACH_MX_ONLY: self.baseline(APPROACH_MX_ONLY, dataset, snapshot_index),
            APPROACH_CERT: self.baseline(APPROACH_CERT, dataset, snapshot_index),
            APPROACH_BANNER: self.baseline(APPROACH_BANNER, dataset, snapshot_index),
            APPROACH_PRIORITY: priority,
        }

    # -- ground truth ----------------------------------------------------

    def ground_truth(self, domain: str, snapshot_index: int) -> dict[str, float]:
        return self.world.ground_truth(domain, snapshot_index)

    def truth_fn(self, snapshot_index: int):
        """A domain → truth callable bound to one snapshot."""
        return lambda domain: self.world.ground_truth(domain, snapshot_index)


_default_context: StudyContext | None = None
_default_key: tuple | None = None


def default_context() -> StudyContext:
    """The shared REPRO_SCALE-sized context (built once per process)."""
    global _default_context, _default_key
    scale = env_scale()
    key = ("default", scale)
    if _default_context is None or _default_key != key:
        _default_context = StudyContext.create(WorldConfig().scaled(scale))
        _default_key = key
    return _default_context
