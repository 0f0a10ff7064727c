"""InferenceService: warm store-only queries, errors, ingest, metrics."""

import hashlib
import shutil

import pytest

from repro.core.pipeline import PriorityPipeline
from repro.engine import EngineOptions
from repro.experiments.common import StudyContext
from repro.serve.churn import synthesize_churn
from repro.serve.service import InferenceService, ServiceError
from repro.store import ArtifactStore, encode_result
from repro.world.entities import DatasetTag
from repro.world.population import NUM_SNAPSHOTS, SNAPSHOT_DATES


@pytest.fixture()
def service(seeded):
    config, root, _domains = seeded
    return InferenceService(config, ArtifactStore(root))


class TestWarmQueries:
    def test_lookup_without_world_build(self, seeded, service):
        _config, _root, domains = seeded
        reply = service.who_has(domains[0], corpus="alexa")
        assert reply["domain"] == domains[0]
        assert reply["corpus"] == "alexa"
        assert reply["source"] == "store"
        assert reply["providers"]
        # The whole point of the store path: answering queries must not
        # have built a world or run the pipeline.
        assert service.status()["world_built"] is False

    def test_corpus_search_order(self, seeded, service):
        _config, _root, domains = seeded
        assert service.who_has(domains[0])["corpus"] == "alexa"

    def test_unknown_domain_is_not_found(self, service):
        with pytest.raises(ServiceError) as excinfo:
            service.who_has("no-such-domain.example", corpus="alexa")
        assert excinfo.value.code == "not-found"

    def test_unknown_corpus_is_bad_request(self, service):
        with pytest.raises(ServiceError) as excinfo:
            service.who_has("example.com", corpus="bogus")
        assert excinfo.value.code == "bad-request"

    def test_requires_a_store(self, seeded):
        config, _root, _domains = seeded
        with pytest.raises(ServiceError) as excinfo:
            InferenceService(config, None)
        assert excinfo.value.code == "no-store"

    def test_provider_stats_shape(self, seeded, service):
        _config, _root, domains = seeded
        stats = service.provider_stats(corpus="alexa")
        assert stats["domains"] == len(domains)
        assert stats["source"] == "store"
        assert stats["statuses"]
        assert stats["top"]

    def test_explain_returns_provenance(self, seeded, service):
        _config, _root, domains = seeded
        record = service.explain(domains[0], corpus="alexa")
        assert record["domain"] == domains[0]
        assert record["corpus"] == "alexa"

    def test_resolve_snapshot(self, service):
        assert service.resolve_snapshot(None) == NUM_SNAPSHOTS - 1
        assert service.resolve_snapshot(0) == 0
        assert service.resolve_snapshot(SNAPSHOT_DATES[2].isoformat()) == 2
        with pytest.raises(ServiceError) as excinfo:
            service.resolve_snapshot("not-a-date")
        assert excinfo.value.code == "bad-request"
        with pytest.raises(ServiceError):
            service.resolve_snapshot(NUM_SNAPSHOTS)


class TestIngest:
    def test_ingest_view_goes_live_and_stays_bit_identical(self, seeded, tmp_path):
        config, root, _domains = seeded
        # Private copy: the churned snapshot replaces a stored one, and the
        # ingest writes results through; the seeded store is shared by the
        # whole package.
        private = tmp_path / "store"
        shutil.copytree(root, private)
        store = ArtifactStore(str(private))
        service = InferenceService(config, store)
        base_index = NUM_SNAPSHOTS - 2
        churned = synthesize_churn(
            store.load_measurements(config, DatasetTag.ALEXA, base_index),
            0.05,
            seed=7,
        )
        store.save_measurements(
            config, DatasetTag.ALEXA, base_index + 1, churned
        )

        # The daemon's path: bootstrap at the stored prior snapshot, then
        # a delta round over the churned one.
        (report,) = service.ingest(base_index + 1, "alexa")["reports"]
        assert report["mode"] == "delta"
        assert report["reinferred"] < len(churned)

        ctx = StudyContext.create(config, engine=EngineOptions(jobs=1), store=None)
        pipeline = PriorityPipeline(
            ctx.world.trust_store, ctx.company_map, psl=ctx.world.psl
        )
        batch = encode_result(pipeline.run(churned, jobs=1))
        assert service.result_digest(DatasetTag.ALEXA) == hashlib.sha256(
            batch
        ).hexdigest()
        # Write-through: the stored artifact is the same bytes.
        assert (
            store.result_payload(config, DatasetTag.ALEXA, base_index + 1)
            == batch
        )
        # Lookups now come from the live map, not a decoded block.
        domain = next(iter(churned))
        reply = service.who_has(
            domain, corpus="alexa", snapshot=base_index + 1
        )
        assert reply["source"] == "live"


class TestMetrics:
    def test_endpoint_histograms_and_cache_counters(self, seeded, service):
        _config, _root, domains = seeded
        for domain in domains[:5]:
            service.who_has(domain, corpus="alexa")
        metrics = service.metrics()
        who_has = metrics["endpoints"]["who-has"]
        assert who_has["count"] == 5
        assert who_has["p99_ms"] >= who_has["p50_ms"] >= 0
        cache = metrics["block_cache"]
        assert set(cache) >= {"hits", "misses", "hit_rate", "entries", "capacity"}
        assert metrics["ingests"] == []
