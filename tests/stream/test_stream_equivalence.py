"""The streamed measure path's core guarantee: batching is invisible.

``--batch-domains`` (with its shared-memory snapshot tables, encoded
in-flight batches, and spill/merge machinery) is purely an engine knob.
Every output — inference bytes, artifact-store digests — must be
byte-identical to the serial, cache-free reference across batch sizes,
worker counts, and executors.

Inference identity is checked in-process on encoded result bytes (the
``sweep_bytes`` idiom from ``tests/engine/test_parallel_equivalence.py``);
the certificate serial counter is process-global, so each world build
resets it first.  Store-digest identity runs each setting in its own
subprocess, sharing nothing but the world config and seed.
"""

import hashlib
import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

from repro.engine import EngineOptions
from repro.experiments.common import StudyContext
from repro.store import encode_result
from repro.tls.ca import reset_serials
from repro.world.build import WorldConfig
from repro.world.entities import DatasetTag
from repro.world.population import NUM_SNAPSHOTS

ALL_RUNS = [
    (dataset, index)
    for dataset in (DatasetTag.ALEXA, DatasetTag.COM, DatasetTag.GOV)
    for index in range(NUM_SNAPSHOTS)
]

CONFIG = WorldConfig(seed=7, alexa_size=130, com_size=130, gov_size=70)

# (jobs, executor, batch_domains): the streamed settings whose sweeps
# must be byte-identical to the serial unbatched reference.  Batch sizes
# straddle the interesting shapes — one domain per batch, a mid-size
# batch, one batch far larger than any corpus (degenerates to a single
# batch while still exercising the streamed machinery), and batches of
# 100: at or past MIN_PARALLEL_TARGETS, so at jobs 4 they really shard.
STREAM_SETTINGS = [
    (1, None, 1),
    (1, None, 7),
    (1, None, 1_000_000),
    (4, "thread", 7),
    (4, "process", 7),
    (4, "thread", 1),
    (4, "thread", 100),
    (4, "process", 100),
]


def sweep_bytes(ctx: StudyContext) -> dict:
    output = {}
    for dataset, index in ALL_RUNS:
        result = ctx.priority_result(dataset, index)
        output[(dataset, index)] = None if result is None else encode_result(result)
    return output


@pytest.fixture(scope="module")
def reference():
    """The serial, cache-free, unbatched sweep (the seed's path)."""
    reset_serials()
    ctx = StudyContext.create(
        CONFIG, engine=EngineOptions(jobs=1, memoize=False)
    )
    return sweep_bytes(ctx)


class TestInferenceIdentity:
    @pytest.mark.parametrize(
        "jobs,executor,batch", STREAM_SETTINGS,
        ids=[f"j{j}-{e or 'serial'}-b{b}" for j, e, b in STREAM_SETTINGS],
    )
    def test_streamed_sweep_matches_reference(
        self, reference, jobs, executor, batch
    ):
        reset_serials()
        ctx = StudyContext.create(
            CONFIG,
            engine=EngineOptions(
                jobs=jobs, memoize=True, executor=executor, batch_domains=batch
            ),
        )
        assert sweep_bytes(ctx) == reference


# One world build + full store-backed sweep per *subprocess*, printing a
# digest of every store entry.  Settings share nothing but the world
# config and seed — byte-equal digests mean byte-equal artifacts.
_DIGEST_CHILD = textwrap.dedent(
    """
    import hashlib, json, sys
    from pathlib import Path
    from repro.engine import EngineOptions
    from repro.experiments.common import StudyContext
    from repro.store import ArtifactStore
    from repro.world.build import WorldConfig
    from repro.world.entities import DatasetTag
    from repro.world.population import NUM_SNAPSHOTS

    root, jobs, ex, batch = sys.argv[1:5]
    engine = EngineOptions(
        jobs=int(jobs), memoize=True,
        executor=ex if ex != "-" else None,
        batch_domains=int(batch) if batch != "-" else None,
    )
    config = WorldConfig(seed=13, alexa_size=60, com_size=60, gov_size=30)
    ctx = StudyContext.create(config, engine=engine, store=ArtifactStore(root))
    for ds in (DatasetTag.ALEXA, DatasetTag.COM, DatasetTag.GOV):
        for i in range(NUM_SNAPSHOTS):
            ctx.priority_result(ds, i)
    entries = {
        p.name: hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(Path(root).rglob("*.rsto"))
    }
    print(json.dumps(entries, sort_keys=True))
    """
)


def digest_run(tmp_path, tag: str, jobs: int, executor: str, batch: str) -> dict:
    store_dir = tmp_path / tag
    env = dict(os.environ)
    src = Path(__file__).resolve().parents[2] / "src"
    env["PYTHONPATH"] = os.pathsep.join(
        part for part in (str(src), env.get("PYTHONPATH")) if part
    )
    result = subprocess.run(
        [sys.executable, "-c", _DIGEST_CHILD, str(store_dir), str(jobs), executor, batch],
        env=env, capture_output=True, text=True,
    )
    assert result.returncode == 0, result.stderr
    return json.loads(result.stdout)


class TestStoreDigestIdentity:
    def test_digests_identical_across_settings(self, tmp_path):
        reference = digest_run(tmp_path, "ref", 1, "-", "-")
        assert reference  # the sweep must actually persist artifacts
        for tag, jobs, executor, batch in (
            ("t7", 4, "thread", "7"),
            ("p1", 2, "process", "1"),
            ("inf", 1, "-", "1000000"),
        ):
            digests = digest_run(tmp_path, tag, jobs, executor, batch)
            assert digests == reference, f"setting {tag} diverged"
