"""Fill a store with every measurement and priority result at seed 7, scale 2.

Usage: ``PYTHONPATH=src python3 perfbench/seed_store.py STORE_DIR``.  Run in
a fresh process, so the world's certificate serials match those of any
daemon that later builds the same world.
"""

from __future__ import annotations

import sys

from common import SCALE, WORLD_SEED, hermetic_env, require_source


def main(store_dir: str) -> None:
    hermetic_env()
    require_source()
    from repro.engine import EngineOptions
    from repro.experiments.common import StudyContext
    from repro.store import ArtifactStore
    from repro.world.build import WorldConfig
    from repro.world.entities import DatasetTag
    from repro.world.population import NUM_SNAPSHOTS

    ctx = StudyContext.create(
        WorldConfig(seed=WORLD_SEED).scaled(SCALE),
        engine=EngineOptions(jobs=1),
        store=ArtifactStore(store_dir, max_bytes=None),
    )
    for dataset in DatasetTag:
        for snapshot in range(NUM_SNAPSHOTS):
            if ctx.covered(dataset, snapshot):
                ctx.priority_result(dataset, snapshot)


if __name__ == "__main__":
    main(sys.argv[1])
