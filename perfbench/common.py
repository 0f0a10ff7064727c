"""Shared plumbing: checkout paths, hermetic environment, statistics, the
seeded store and the reference answers every served reply is checked against.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
#: Scratch space inside the checkout (git-ignored): the seeded-store cache
#: and per-run store copies and sockets.
WORK = ROOT / ".bench_build" / "perfbench"

WORLD_SEED = 7
SCALE = 2.0

#: A result timed out, refused or wrong is billed this latency, so it
#: misses any latency limit.
FAILED_LATENCY_S = 10.0

#: The minimum number of samples beyond a reported percentile.
TAIL_SAMPLES = 10


def require_source() -> None:
    """Exit non-zero, printing no result, when the program is not here."""
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program source at {SRC}", file=sys.stderr)
        raise SystemExit(2)
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def hermetic_env() -> None:
    """Drop every ``REPRO_*`` knob so runs never inherit a caller's tuning."""
    for name in [name for name in os.environ if name.startswith("REPRO_")]:
        del os.environ[name]


def child_env() -> dict:
    """The environment for program subprocesses (after :func:`hermetic_env`)."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


# -- statistics --------------------------------------------------------------


def median(values) -> float:
    ordered = sorted(values)
    if not ordered:
        raise ValueError("median of no values")
    middle = len(ordered) // 2
    if len(ordered) % 2:
        return ordered[middle]
    return (ordered[middle - 1] + ordered[middle]) / 2


def supports_percentile(count: int, fraction: float) -> bool:
    """Whether *count* samples leave ≥10 beyond the nearest-rank percentile."""
    return count - math.ceil(fraction * count) >= TAIL_SAMPLES


def percentile(samples, fraction: float) -> float:
    """Nearest-rank percentile; refuses one with too few samples beyond it."""
    ordered = sorted(samples)
    if not supports_percentile(len(ordered), fraction):
        raise ValueError(
            f"p{100 * fraction:g} needs ≥{TAIL_SAMPLES} samples beyond it; "
            f"have {len(ordered)} samples"
        )
    return ordered[max(0, math.ceil(fraction * len(ordered)) - 1)]


def dir_mib(path: Path) -> float:
    total = 0
    for dirpath, _dirs, files in os.walk(path):
        for name in files:
            total += os.path.getsize(os.path.join(dirpath, name))
    return total / (1024 * 1024)


def proc_status_kib(pid: int, field: str) -> int:
    try:
        with open(f"/proc/{pid}/status", encoding="ascii") as status:
            for line in status:
                if line.startswith(field + ":"):
                    return int(line.split()[1])
    except (OSError, ValueError):
        pass
    return 0


def child_pids(pid: int) -> list[int]:
    try:
        with open(f"/proc/{pid}/task/{pid}/children", encoding="ascii") as handle:
            return [int(token) for token in handle.read().split()]
    except OSError:
        return []


# -- the seeded store ---------------------------------------------------------


def source_digest() -> str:
    """Digest of the program source: a seeded store is reused only by it."""
    digest = hashlib.sha256(f"{WORLD_SEED}:{SCALE}".encode())
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def seeded_store() -> Path:
    """A store holding every measurement and result at seed 7, scale 2.

    Built once per checkout by ``seed_store.py`` in a fresh process (so
    certificate serials start at 1, as in every daemon) and reused by
    later runs; workloads only ever read it or copy it.
    """
    home = WORK / f"seed-{source_digest()}"
    store = home / "store"
    if (home / "complete").is_file():
        return store
    shutil.rmtree(home, ignore_errors=True)
    home.mkdir(parents=True)
    subprocess.run(
        [sys.executable, str(HERE / "seed_store.py"), str(store)],
        cwd=ROOT, env=child_env(), check=True,
        stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
    )
    (home / "complete").write_text("ok\n")
    return store


def copy_store(source: Path, target: Path) -> Path:
    shutil.rmtree(target, ignore_errors=True)
    shutil.copytree(source, target)
    return target


# -- reference answers ---------------------------------------------------------


class Reference:
    """Expected replies, decoded from the seeded store with ``ResultView``.

    Built independently of the serving code: only the columnar views and
    the provenance-record builder are shared, so a wrong answer from the
    daemon (or from a reproduce pass) does not reproduce here.
    """

    def __init__(self, store_root: Path) -> None:
        from repro.store import ArtifactStore
        from repro.world.build import WorldConfig
        from repro.world.population import NUM_SNAPSHOTS

        self.store = ArtifactStore(store_root, max_bytes=None)
        self.config = WorldConfig(seed=WORLD_SEED).scaled(SCALE)
        self.latest = NUM_SNAPSHOTS - 1
        self._views: dict = {}
        self._expected: dict = {}

    @staticmethod
    def dataset(corpus: str):
        from repro.world.entities import DatasetTag

        return DatasetTag(corpus)

    def covered(self) -> list[tuple[str, int]]:
        """Every (corpus, snapshot) the study measures."""
        from repro.serve.service import InferenceService
        from repro.world.entities import DatasetTag

        return [
            (dataset.value, snapshot)
            for dataset in DatasetTag
            for snapshot in range(self.latest + 1)
            if InferenceService.covered(dataset, snapshot)
        ]

    def result_payload(self, corpus: str, snapshot: int) -> bytes:
        return self.store.result_payload(self.config, self.dataset(corpus), snapshot)

    def view(self, corpus: str, snapshot: int, kind: str = "result"):
        """A decoded result (or measurement) block of the seeded store."""
        key = (kind, corpus, snapshot)
        if key not in self._views:
            from repro.store import ResultView, SnapshotView

            if kind == "result":
                self._views[key] = ResultView(self.result_payload(corpus, snapshot))
            else:
                self._views[key] = SnapshotView(self.store.measurement_payload(
                    self.config, self.dataset(corpus), snapshot
                ))
        return self._views[key]

    def domains(self, corpus: str, snapshot: int) -> tuple[str, ...]:
        return self.view(corpus, snapshot).domains

    def _expect(self, request: dict) -> dict:
        from repro.obs.provenance import provenance_record
        from repro.world.population import SNAPSHOT_DATES

        corpus = request["corpus"]
        snapshot = request.get("snapshot")
        snapshot = self.latest if snapshot is None else int(snapshot)
        day = SNAPSHOT_DATES[snapshot]
        view = self.view(corpus, snapshot)
        op = request["op"]
        if op == "provider-stats":
            return {
                "corpus": corpus, "snapshot": snapshot, "date": day.isoformat(),
                **view.provider_stats(),
            }
        inference = view.get(request["domain"])
        if op == "who-has":
            return {
                "domain": request["domain"],
                "corpus": corpus,
                "snapshot": snapshot,
                "date": day.isoformat(),
                "status": inference.status.value,
                "providers": dict(inference.attributions),
                "sole_provider": inference.sole_provider_id,
                "examined": inference.examined,
            }
        if op == "explain":
            measurement = None
            snapshot_view = self.view(corpus, snapshot, kind="measurements")
            if request["domain"] in snapshot_view:
                domain = request["domain"]
                measurement = snapshot_view.materialize({domain})[domain]
            return provenance_record(
                inference, corpus=corpus, snapshot_index=snapshot,
                snapshot_date=day, measurement=measurement,
            )
        raise ValueError(f"no reference for op {op!r}")

    def expected(self, request: dict) -> dict:
        """The reply's ``result`` (without ``source``), as JSON would carry it."""
        key = json.dumps(request, sort_keys=True)
        if key not in self._expected:
            self._expected[key] = json.loads(json.dumps(self._expect(request)))
        return self._expected[key]

    def matches(self, request: dict, reply: dict | None) -> bool:
        if reply is None or not reply.get("ok"):
            return False
        result = dict(reply.get("result") or {})
        result.pop("source", None)
        return result == self.expected(request)
