"""The repo's benchmark: one command, three workloads, every metric checked.

Usage (from the repository root)::

    python3 perfbench/run.py --workload reproduce --seed 1 --seconds 30 --trace 0

``--workload`` is ``reproduce``, ``serve-hot`` or ``serve-churn`` (see
``README.md`` beside this file).  ``--seed`` drives the request mix and
lookup order; the world is always seed 7 at scale 2.  ``--trace 0`` prints
the end-to-end metrics; ``--trace 1`` runs the workload once plain and
once with layer spans, and prints the per-layer metrics, the tracing
overhead and the unattributed time instead.  The last line of stdout is
one JSON object: ``{"correct", "attempted", "failed", "metrics"}``.  The
exit status is 0 only when every output matched its reference.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import sys
import time

from common import (
    ROOT,
    SCALE,
    WORK,
    WORLD_SEED,
    Reference,
    copy_store,
    hermetic_env,
    median,
    percentile,
    require_source,
    seeded_store,
)

#: Every end-to-end metric: name -> unit.  Each workload reports all of
#: them; README.md says what each one measures on each workload.
END_TO_END = {
    "setup_s": "s",
    "cold_s": "s",
    "warm_s": "s",
    "ingest_s": "s",
    "store_mb": "MiB",
    "peak_rss_mb": "MiB",
    "qps": "1/s",
    "p50_ms": "ms",
    "p99_ms": "ms",
}


class Outcome:
    """Metric values with their sample counts, plus operation tallies."""

    def __init__(self) -> None:
        self.metrics: dict[str, tuple[float, str, int]] = {}
        self.attempted = 0
        self.failed = 0

    def add(self, name: str, value: float, unit: str, samples: int = 1) -> None:
        self.metrics[name] = (value, unit, samples)

    def tally(self, attempted: int, failed: int) -> None:
        self.attempted += attempted
        self.failed += failed

    def latency(self, latencies: list[float], busy_s: float) -> None:
        """qps, p50 and p99 over client-side latencies (failures included)."""
        count = len(latencies)
        self.add("qps", count / busy_s, "1/s", count)
        self.add("p50_ms", 1e3 * percentile(latencies, 0.50), "ms", count)
        self.add("p99_ms", 1e3 * percentile(latencies, 0.99), "ms", count)


# -- workloads ---------------------------------------------------------------


def run_reproduce(args, work, reference) -> Outcome:
    import layers
    from reproduce import run_round

    out = Outcome()
    rounds = []
    started = time.perf_counter()
    if args.trace:
        plain = run_round(work, reference, seed=args.seed, index=0)
        tracer = layers.LayerTracer()
        traced = run_round(work, reference, seed=args.seed, index=1, tracer=tracer)
        rounds = [plain, traced]
        snap = tracer.snapshot()
        values = layers.layer_metrics(
            snap,
            end_to_end_s=traced.wall_s,
            attributed_s=sum(snap["roots"].values()),
            overhead_pct=100 * (traced.wall_s - plain.wall_s) / plain.wall_s,
        )
        _add_layers(out, values)
    else:
        while _another(started, len(rounds), args.seconds):
            rounds.append(run_round(work, reference, seed=args.seed, index=len(rounds)))
        builds = [seconds for item in rounds for seconds in item.build_s]
        out.add("setup_s", median(builds), "s", len(builds))
        out.add("cold_s", median([item.cold_s for item in rounds]), "s", len(rounds))
        out.add("warm_s", median([item.warm_s for item in rounds]), "s", len(rounds))
        out.add("ingest_s", median([item.fill_s for item in rounds]), "s", len(rounds))
        out.add("store_mb", median([item.store_mib for item in rounds]), "MiB", len(rounds))
        peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        out.add("peak_rss_mb", peak_kib / 1024, "MiB")
        out.latency(
            [seconds for item in rounds for seconds in item.lookup_s],
            sum(item.lookup_busy_s for item in rounds),
        )
    for item in rounds:
        out.tally(item.attempted, item.failed)
    return out


def run_serve_hot(args, work, reference) -> Outcome:
    import layers
    from serving import serve_hot_phase

    out = Outcome()
    store = copy_store(seeded_store(), work / "hot-store")
    spawns = 2 if args.trace else 5
    phases = [
        serve_hot_phase(
            work, store, reference, seed=args.seed, index=index,
            seconds=args.seconds / spawns,
            traced=bool(args.trace) and index == spawns - 1,
            ingest=index == spawns - 1,
        )
        for index in range(spawns)
    ]
    for phase in phases:
        out.tally(phase.attempted + phase.load.attempted, phase.failed + phase.load.failed)
    last = phases[-1]
    if args.trace:
        plain_p50 = percentile(phases[0].load.latency_s, 0.5)
        traced_p50 = percentile(last.load.latency_s, 0.5)
        values = layers.layer_metrics(
            last.layers,
            end_to_end_s=last.rpc_s,
            attributed_s=last.layers["roots"].get("serve.guard", 0.0),
            rtt_samples=last.load.latency_s,
            overhead_pct=100 * (traced_p50 - plain_p50) / plain_p50,
        )
        _add_layers(out, values)
        return out
    out.add("setup_s", median([phase.setup_s for phase in phases]), "s", spawns)
    out.add("cold_s", median([phase.load.window_s(first=True) for phase in phases]), "s", spawns)
    out.add("warm_s", median([phase.load.window_s(first=False) for phase in phases]), "s", spawns)
    out.add("ingest_s", last.ingest_s[0], "s")
    out.add("store_mb", last.store_mib, "MiB")
    out.add("peak_rss_mb", max(phase.peak_rss_mib for phase in phases), "MiB", spawns)
    out.latency(
        [seconds for phase in phases for seconds in phase.load.latency_s],
        sum(phase.load.busy_s for phase in phases),
    )
    return out


def run_serve_churn(args, work, reference) -> Outcome:
    import random

    import layers
    from serving import churn_requests, serve_churn_phase

    out = Outcome()
    seeded = seeded_store()
    next_request = churn_requests(reference, random.Random(f"{args.seed}/churn"))
    phases = []
    started = time.perf_counter()

    def lookups() -> int:
        return sum(phase.load.attempted for phase in phases)

    if args.trace:
        for index in range(2):
            phases.append(serve_churn_phase(
                work, seeded, reference, next_request, index=index, traced=index == 1,
            ))
    else:
        # p99 needs ≥1000 lookups (10 beyond it), whatever --seconds says.
        while _another(started, len(phases), args.seconds) or lookups() < 1000:
            phases.append(serve_churn_phase(
                work, seeded, reference, next_request, index=len(phases), traced=False,
            ))
    for phase in phases:
        out.tally(
            phase.attempted + phase.load.attempted + phase.side.attempted,
            phase.failed + phase.load.failed + phase.side.failed,
        )
    beside = [seconds for phase in phases for seconds in phase.side.latency_s]
    print(
        f"# lookups beside the ingests (checked, not gated): n={len(beside)} "
        f"p50 {1e3 * median(beside):.3f} ms"
    )
    if args.trace:
        plain, traced = phases
        values = layers.layer_metrics(
            traced.layers,
            end_to_end_s=traced.rpc_s,
            attributed_s=traced.layers["roots"].get("serve.guard", 0.0),
            rtt_samples=traced.load.latency_s,
            overhead_pct=100 * (sum(traced.ingest_s) - sum(plain.ingest_s))
            / sum(plain.ingest_s),
        )
        _add_layers(out, values)
        return out
    count = len(phases)
    out.add("setup_s", median([phase.setup_s for phase in phases]), "s", count)
    out.add("cold_s", median([phase.ingest_s[0] for phase in phases]), "s", count)
    out.add("warm_s", median([sum(phase.ingest_s[1:]) for phase in phases]), "s", count)
    out.add("ingest_s", median([sum(phase.ingest_s) for phase in phases]), "s", count)
    out.add("store_mb", median([phase.store_mib for phase in phases]), "MiB", count)
    out.add("peak_rss_mb", max(phase.peak_rss_mib for phase in phases), "MiB", count)
    out.latency(
        [seconds for phase in phases for seconds in phase.load.latency_s],
        sum(phase.load.busy_s for phase in phases),
    )
    return out


def _another(started: float, done: int, seconds: float) -> bool:
    """Whether one more repetition, at the mean length so far, still fits
    in *seconds*; the first one always runs."""
    if done == 0:
        return True
    elapsed = time.perf_counter() - started
    return elapsed + elapsed / done <= seconds


def _add_layers(out: Outcome, values: dict) -> None:
    import layers

    for name, (unit, _better) in layers.PER_LAYER.items():
        out.add(name, values[name], unit)


WORKLOADS = {
    "reproduce": run_reproduce,
    "serve-hot": run_serve_hot,
    "serve-churn": run_serve_churn,
}


# -- entry point -------------------------------------------------------------


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True,
                        help="request-mix and lookup-order seed")
    parser.add_argument("--seconds", type=float, required=True,
                        help="how long the workload measures")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: per-layer metrics from a traced run")
    args = parser.parse_args(argv)
    hermetic_env()
    require_source()
    os.chdir(ROOT)
    work = WORK / f"run-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    print(
        f"# perfbench workload={args.workload} seed={args.seed} "
        f"seconds={args.seconds:g} trace={args.trace} world_seed={WORLD_SEED} "
        f"scale={SCALE:g} nproc={os.cpu_count()} "
        f"python={platform.python_version()}",
        flush=True,
    )
    outcome = None
    try:
        reference = Reference(seeded_store())
        outcome = WORKLOADS[args.workload](args, work, reference)
    finally:
        if outcome is None or outcome.failed:
            # Keep the daemon log and run journals for the post-mortem.
            kept = WORK / f"failed-{work.name}"
            shutil.rmtree(kept, ignore_errors=True)
            work.rename(kept)
            print(f"# run directory kept at {kept.relative_to(ROOT)}")
        else:
            shutil.rmtree(work, ignore_errors=True)
    for name, (value, unit, samples) in outcome.metrics.items():
        print(f"# {name:<28} {value:>14.6f} {unit:<6} n={samples}")
    share = outcome.failed / outcome.attempted if outcome.attempted else 1.0
    print(f"# attempted {outcome.attempted}  failed {outcome.failed} ({100 * share:.3f}%)")
    correct = outcome.failed == 0 and outcome.attempted > 0
    print(json.dumps({
        "correct": correct,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit, _samples) in outcome.metrics.items()
        },
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
