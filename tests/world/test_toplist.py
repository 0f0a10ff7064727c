"""Unit tests for toplist churn and stable-corpus construction (§4.1)."""

from functools import partial

import pytest

from repro.experiments.sec41_corpus import mx_stable_domains
from repro.world.entities import DatasetTag
from repro.world.population import NUM_SNAPSHOTS
from repro.world.toplist import (
    CorpusFunnel,
    ToplistSimulator,
    build_study_corpus,
    stable_domains,
)


@pytest.fixture(scope="module")
def simulator(small_world):
    return ToplistSimulator(small_world, churn_rate=0.25, seed=99)


class TestToplistSimulator:
    def test_ranks_are_dense_from_one(self, simulator):
        entries = simulator.snapshot(0)
        assert [entry.rank for entry in entries[:5]] == [1, 2, 3, 4, 5]
        assert entries[-1].rank == len(entries)

    def test_stable_domains_on_every_list(self, simulator, small_world):
        alexa = {entity.name for entity in small_world.domains_in(DatasetTag.ALEXA)}
        for index in range(NUM_SNAPSHOTS):
            listed = {entry.domain for entry in simulator.snapshot(index)}
            assert alexa <= listed

    def test_churners_present_and_ephemeral(self, simulator, small_world):
        alexa = {entity.name for entity in small_world.domains_in(DatasetTag.ALEXA)}
        first = {entry.domain for entry in simulator.snapshot(0)} - alexa
        second = {entry.domain for entry in simulator.snapshot(1)} - alexa
        assert first and second
        assert not (first & second)  # churners never repeat

    def test_churn_rate_respected(self, simulator, small_world):
        alexa_count = len(small_world.domains_in(DatasetTag.ALEXA))
        entries = simulator.snapshot(0)
        churners = len(entries) - alexa_count
        fraction = churners / len(entries)
        assert 0.18 < fraction < 0.32

    def test_rank_jitter_changes_order(self, simulator):
        first = [entry.domain for entry in simulator.snapshot(0)][:200]
        second = [entry.domain for entry in simulator.snapshot(1)][:200]
        assert first != second

    def test_deterministic(self, small_world):
        a = ToplistSimulator(small_world, seed=5).snapshot(3)
        b = ToplistSimulator(small_world, seed=5).snapshot(3)
        assert a == b

    def test_bad_snapshot_index(self, simulator):
        with pytest.raises(IndexError):
            simulator.snapshot(NUM_SNAPSHOTS)

    def test_bad_churn_rate(self, small_world):
        with pytest.raises(ValueError):
            ToplistSimulator(small_world, churn_rate=1.0)


class TestStableDomains:
    def test_intersection_semantics(self, simulator, small_world):
        stable = stable_domains(simulator.all_snapshots())
        alexa = {entity.name for entity in small_world.domains_in(DatasetTag.ALEXA)}
        assert set(stable) == alexa  # churners all filtered out

    def test_empty(self):
        assert stable_domains([]) == []


class TestCorpusFunnel:
    def test_full_recipe(self, ctx):
        funnel = build_study_corpus(ctx.world, partial(mx_stable_domains, ctx))
        # Funnel narrows monotonically, as in §4.1.
        assert funnel.union_domains > funnel.list_stable >= funnel.mx_stable
        assert funnel.churn_loss > 0
        assert len(funnel.corpus) == funnel.mx_stable
        # The final corpus keeps the overwhelming majority of stable
        # domains (only dangling-MX-style domains drop out).
        assert funnel.mx_stable > funnel.list_stable * 0.9

    def test_corpus_members_have_mx_everywhere(self, ctx):
        funnel = build_study_corpus(ctx.world, partial(mx_stable_domains, ctx))
        for domain in funnel.corpus[:20]:
            for index in range(NUM_SNAPSHOTS):
                record = ctx.gatherer.openintel.measure_domain(domain, index)
                assert record is not None and record.has_mx
