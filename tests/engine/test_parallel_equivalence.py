"""The engine's core guarantee: parallel/cached runs are bit-identical.

For every corpus and snapshot of a longitudinal sweep — including the GOV
corpus's partial snapshot coverage — a sharded, memoized engine run must
produce a :class:`PipelineResult` whose encoded bytes (same domains, same
iteration order, same attributions and IP identities, same certificate
fingerprints, same step-4 bookkeeping) equal the serial, cache-free
path's, across seeds and ``jobs ∈ {1, 2, 4}``.  Certificate serials come
from a process-global counter, so every world build here resets it first.
"""

import pytest

from repro.engine import EngineOptions
from repro.experiments.common import StudyContext
from repro.store import encode_result
from repro.tls.ca import reset_serials
from repro.world.build import WorldConfig
from repro.world.entities import DatasetTag
from repro.world.population import NUM_SNAPSHOTS

SEEDS = (7, 31)
JOBS = (1, 2, 4)

ALL_RUNS = [
    (dataset, index)
    for dataset in (DatasetTag.ALEXA, DatasetTag.COM, DatasetTag.GOV)
    for index in range(NUM_SNAPSHOTS)
]


def world_config(seed: int) -> WorldConfig:
    return WorldConfig(seed=seed, alexa_size=130, com_size=130, gov_size=70)


def sweep_bytes(ctx: StudyContext) -> dict[tuple, bytes | None]:
    """Canonical bytes of every (corpus, snapshot) run of a full sweep."""
    output: dict[tuple, bytes | None] = {}
    for dataset, index in ALL_RUNS:
        result = ctx.priority_result(dataset, index)
        output[(dataset, index)] = None if result is None else encode_result(result)
    return output


@pytest.fixture(scope="module", params=SEEDS, ids=lambda seed: f"seed{seed}")
def reference(request):
    """The serial, cache-free sweep (the seed repo's execution path)."""
    reset_serials()
    ctx = StudyContext.create(
        world_config(request.param), engine=EngineOptions(jobs=1, memoize=False)
    )
    return request.param, sweep_bytes(ctx)


@pytest.mark.parametrize("jobs", JOBS)
def test_engine_sweep_is_bit_identical(reference, jobs):
    seed, expected = reference
    reset_serials()
    ctx = StudyContext.create(
        world_config(seed),
        engine=EngineOptions(jobs=jobs, memoize=True, executor="thread"),
    )
    actual = sweep_bytes(ctx)
    assert actual.keys() == expected.keys()
    for key in expected:
        assert actual[key] == expected[key], f"{key} diverged at jobs={jobs}"


def test_gov_partial_coverage_matches(reference):
    """Uncovered GOV snapshots stay None under the engine too."""
    _, expected = reference
    uncovered = [
        key for key, value in expected.items()
        if key[0] is DatasetTag.GOV and value is None
    ]
    assert uncovered, "expected the GOV corpus to miss early snapshots"


def test_process_executor_matches(reference):
    """The fork-based process pool produces the same bytes as serial."""
    seed, expected = reference
    reset_serials()
    ctx = StudyContext.create(
        world_config(seed),
        engine=EngineOptions(jobs=2, memoize=True, executor="process"),
    )
    assert sweep_bytes(ctx) == expected


def test_measurements_identical_under_sharding():
    """Sharded gathering returns equal measurements in the same order."""
    config = world_config(SEEDS[0])
    reset_serials()
    serial = StudyContext.create(config, engine=EngineOptions(jobs=1, memoize=False))
    reset_serials()
    sharded = StudyContext.create(
        config, engine=EngineOptions(jobs=4, memoize=True, executor="thread")
    )
    for dataset in (DatasetTag.ALEXA, DatasetTag.COM):
        left = serial.measurements(dataset, 8)
        right = sharded.measurements(dataset, 8)
        assert list(left) == list(right)
        assert left == right
