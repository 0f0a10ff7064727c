"""The ``reproduce`` workload: ``repro all`` in process, cold then warm.

One round builds a :class:`StudyContext` on an empty store and renders all
13 experiments in paper order (the cold pass), then does the same on a
second context over the now-filled store (the warm pass).  Each pass
starts with a world build, timed on its own as set-up.  Between the
experiments of both passes (and outside their timing) run batches of
one-shot ``who-has`` lookups over a complete store, through the same
in-process path ``repro serve who-has`` takes without a daemon.
"""

from __future__ import annotations

import gc
import hashlib
import json
import random
import shutil
import time
from dataclasses import dataclass, field
from pathlib import Path

import layers
from common import FAILED_LATENCY_S, SCALE, WORLD_SEED, dir_mib

#: sha256 of the 13 rendered experiments (joined by newlines) at world
#: seed 7, scale 2.  The cold and warm passes must both reproduce it.
RENDERED_SHA256 = "c484b1104328376cbdd0a875290171588ffe680c54f7737f52ea6d3ced41fb32"

#: One-shot lookups per round (p99 needs at least 1000), one batch after
#: each experiment of either pass.
LOOKUPS = 1200


@dataclass
class Round:
    build_s: list[float] = field(default_factory=list)
    cold_s: float = 0.0
    warm_s: float = 0.0
    fill_s: float = 0.0  # cold-pass time inside StudyContext's data accessors
    store_mib: float = 0.0
    lookup_s: list[float] = field(default_factory=list)
    lookup_busy_s: float = 0.0
    attempted: int = 0
    failed: int = 0
    wall_s: float = 0.0  # the whole round, world builds included


class _Timer:
    """Records the duration of each outermost call to the named attributes."""

    def __init__(self, owner, *names: str) -> None:
        self._owner = owner
        self._originals = {name: getattr(owner, name) for name in names}
        self._depth = 0
        self.seconds: list[float] = []

    def _wrap(self, original):
        def timed(*args, **kwargs):
            self._depth += 1
            started = time.perf_counter()
            try:
                return original(*args, **kwargs)
            finally:
                self._depth -= 1
                if self._depth == 0:
                    self.seconds.append(time.perf_counter() - started)
        return timed

    def __enter__(self) -> "_Timer":
        for name, original in self._originals.items():
            setattr(self._owner, name, self._wrap(original))
        return self

    def __exit__(self, *exc) -> None:
        for name, original in self._originals.items():
            setattr(self._owner, name, original)


class _Lookups:
    """One-shot in-process ``who-has`` lookups over a complete store.

    Each lookup builds a fresh :class:`InferenceService`, as ``repro serve
    who-has`` does without a daemon, so it pays for decoding the result
    block as well as for the lookup.
    """

    def __init__(self, config, store_dir: Path, reference, rng: random.Random, out: Round):
        self._config = config
        self._store_dir = store_dir
        self._reference = reference
        self._domains = list(reference.domains("alexa", reference.latest))
        self._rng = rng
        self._queue: list[str] = []
        self._out = out

    def batch(self, count: int) -> None:
        from repro.obs import trace as obs_trace
        from repro.serve.daemon import handle_request
        from repro.serve.service import InferenceService
        from repro.store import ArtifactStore

        out = self._out
        warmup = 0.0
        # The collector is paused for the batch: this process holds the
        # experiments' heap, which a one-shot CLI process does not.
        gc.disable()
        started = time.perf_counter()
        try:
            # One more than *count*: the first lookup after an experiment
            # finds the CPU caches full of the experiment and is not timed.
            for index in range(count + 1):
                if not self._queue:
                    self._queue = self._rng.sample(self._domains, len(self._domains))
                request = {"op": "who-has", "domain": self._queue.pop(), "corpus": "alexa"}
                sent = time.perf_counter()
                service = InferenceService(self._config, ArtifactStore(self._store_dir))
                reply = json.loads(json.dumps(handle_request(service, request)))
                elapsed = time.perf_counter() - sent
                # Each service installs its span ring as the process
                # tracer; the experiments must not pay for it.
                obs_trace.disable()
                ok = self._reference.matches(request, reply)
                out.attempted += 1
                out.failed += not ok
                if index == 0:
                    warmup = time.perf_counter() - sent
                else:
                    out.lookup_s.append(elapsed if ok else max(elapsed, FAILED_LATENCY_S))
        finally:
            out.lookup_busy_s += time.perf_counter() - started - warmup
            gc.enable()


def _pass(config, store_dir: Path, tracer, builds: _Timer, between=None):
    """One ``repro all`` pass: (world build s, seconds after it, renders).

    *between*, when given, runs after each experiment; its time is not
    part of the pass.
    """
    from repro.cli import EXPERIMENTS
    from repro.engine import EngineOptions
    from repro.experiments.common import StudyContext
    from repro.store import ArtifactStore
    from repro.tls.ca import reset_serials

    reset_serials()
    first_build = len(builds.seconds)
    started = time.perf_counter()
    excluded = 0.0
    ctx = StudyContext.create(
        config, engine=EngineOptions(jobs=1), store=ArtifactStore(store_dir)
    )
    renders = []
    for name in layers.ANALYSES:
        module = EXPERIMENTS[name][0]
        if tracer is None:
            renders.append(module.run(ctx).render())
        else:
            with tracer.span(f"analysis.{name}"):
                renders.append(module.run(ctx).render())
        if between is not None:
            paused = time.perf_counter()
            between()
            excluded += time.perf_counter() - paused
    elapsed = time.perf_counter() - started - excluded
    # Only the context's own world is set-up; ext-ml's held-out world is
    # part of the pass.
    setup = builds.seconds[first_build]
    return setup, elapsed - setup, renders


def run_round(work: Path, reference, *, seed: int, index: int, tracer=None) -> Round:
    """One cold and one warm pass, with lookups between their experiments."""
    import repro.experiments.common as experiments_common
    from repro.world.build import WorldConfig

    config = WorldConfig(seed=WORLD_SEED).scaled(SCALE)
    store_dir = work / f"reproduce-store-{index}"
    shutil.rmtree(store_dir, ignore_errors=True)
    # Decode the reference answers before any span can bill them.
    domains = reference.domains("alexa", reference.latest)
    for domain in domains:
        reference.expected({"op": "who-has", "domain": domain, "corpus": "alexa"})
    batch = -(-LOOKUPS // (2 * len(layers.ANALYSES)))
    out = Round()
    # The lookups read the seeded store, which holds the same results the
    # cold pass stores (checked below), so they can run from the start.
    lookups = _Lookups(
        config, reference.store.root, reference, random.Random(f"{seed}/{index}"), out
    )

    def between() -> None:
        lookups.batch(batch)

    undo = layers.install(tracer, daemon=False) if tracer is not None else []
    started = time.perf_counter()
    try:
        with _Timer(experiments_common, "build_world") as builds:
            with _Timer(
                experiments_common.StudyContext,
                "measurements", "priority_result", "baseline", "cert_groups",
            ) as fills:
                cold_build, out.cold_s, cold = _pass(
                    config, store_dir, tracer, builds, between=between
                )
                out.fill_s = sum(fills.seconds)
            out.store_mib = dir_mib(store_dir)
            warm_build, out.warm_s, warm = _pass(
                config, store_dir, tracer, builds, between=between
            )
        out.build_s = [cold_build, warm_build]
    finally:
        out.wall_s = time.perf_counter() - started
        layers.uninstall(undo)
    digest = hashlib.sha256("\n".join(cold).encode()).hexdigest()
    passes_ok = cold == warm and digest == RENDERED_SHA256
    if not passes_ok:
        print(f"# reproduce: rendered sha256 {digest} (cold == warm: {cold == warm})")
    out.attempted += 2 * len(layers.ANALYSES) + 1
    out.failed += 0 if passes_ok else len(layers.ANALYSES)
    out.failed += not _results_match(config, store_dir, reference)
    shutil.rmtree(store_dir, ignore_errors=True)
    return out


def _results_match(config, store_dir: Path, reference) -> bool:
    """The cold pass stored the seeded store's priority results, byte for byte."""
    from repro.store import ArtifactStore

    store = ArtifactStore(store_dir)
    return all(
        store.result_payload(config, reference.dataset(corpus), snapshot)
        == reference.result_payload(corpus, snapshot)
        for corpus, snapshot in reference.covered()
    )
