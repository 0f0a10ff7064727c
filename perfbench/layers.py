"""Per-layer self-time accounting for the benchmark's traced runs.

The benchmark never edits the program.  A traced run replaces a fixed set
of the program's public functions with thin wrappers, installed from this
file, that record one span per call.  A span's *self time* is its
duration minus the durations of the wrapped calls it made itself (its
children), so the self times of every span on a thread add up to the
duration of that thread's outermost (root) spans.

:data:`TARGETS` names each wrapped function and the layer it is billed
to.  :func:`install` patches them in place: methods on their class, and
module-level functions in every loaded ``repro`` module that imported
them by name, so every call site sees the wrapper.
"""

from __future__ import annotations

import importlib
import json
import os
import sys
import threading
import time
from contextlib import contextmanager

#: (layer, "module:qualname", mode).  Modes: "time" opens a span;
#: "count" only counts calls and non-None results, leaving the time with
#: the caller's span; "daemon" is "time", but installed only inside the
#: serving daemon, where the function is part of an ingest.
TARGETS = (
    ("world.build", "repro.world.build:build_world", "time"),
    ("measure.dns", "repro.measure.openintel:OpenINTELPlatform.measure", "time"),
    ("measure.scan", "repro.measure.censys:CensysScanner.scan_address", "time"),
    ("measure.asn", "repro.measure.caida:Prefix2ASDataset.lookup", "time"),
    ("measure.join", "repro.measure.dataset:MeasurementGatherer.gather", "time"),
    ("stream.canon", "repro.stream.canon:canonicalize_measurements", "time"),
    ("core.groups", "repro.core.certgroup:CertificatePreprocessor.build", "time"),
    ("core.identify", "repro.core.ipident:IPIdentifier.identify", "time"),
    ("core.identify", "repro.core.mxident:MXIdentifier.identify", "time"),
    ("engine.identcache", "repro.engine.identcache:MXIdentityCache.lookup", "count"),
    ("core.attribute", "repro.core.misident:MisidentificationChecker.check", "time"),
    ("core.attribute", "repro.core.domainident:DomainIdentifier.identify", "time"),
    ("core.baselines", "repro.core.baselines:MXOnlyApproach.run", "time"),
    ("core.baselines", "repro.core.baselines:SingleSourceApproach.run", "time"),
    ("store.encode", "repro.store.codec:encode_measurements", "time"),
    ("store.encode", "repro.store.codec:encode_result", "time"),
    ("store.encode", "repro.store.codec:encode_inferences", "time"),
    ("store.write", "repro.store.artifacts:ArtifactStore.write", "time"),
    ("store.read", "repro.store.artifacts:ArtifactStore.read", "time"),
    ("store.decode", "repro.store.codec:decode_measurements", "time"),
    ("store.decode", "repro.store.codec:decode_result", "time"),
    ("store.decode", "repro.store.codec:decode_inferences", "time"),
    ("store.load", "repro.store.artifacts:ArtifactStore.load_measurements", "count"),
    ("store.load", "repro.store.artifacts:ArtifactStore.load_result", "count"),
    ("store.load", "repro.store.artifacts:ArtifactStore.load_baseline", "count"),
    ("store.view", "repro.store.delta:ResultView.__init__", "time"),
    ("store.view", "repro.store.delta:ResultView.get", "time"),
    ("store.view", "repro.store.delta:ResultView.provider_stats", "time"),
    ("store.view", "repro.store.delta:SnapshotView.__init__", "time"),
    ("store.view", "repro.store.delta:SnapshotView.materialize", "time"),
    ("serve.guard", "repro.serve.resilience:ServeGuard.dispatch", "time"),
    ("serve.queue_wait", "repro.serve.resilience:AdmissionControl.admit", "time"),
    ("serve.handle", "repro.serve.daemon:handle_request", "time"),
    ("serve.query", "repro.serve.service:InferenceService.who_has", "time"),
    ("serve.query", "repro.serve.service:InferenceService.provider_stats", "time"),
    ("serve.query", "repro.serve.service:InferenceService.explain", "time"),
    ("serve.telemetry", "repro.serve.service:LatencyRecorder.observe", "time"),
    ("serve.telemetry", "repro.obs.live:LiveTelemetry.observe", "time"),
    ("serve.telemetry", "repro.obs.live:LiveTelemetry.request_span", "span-cm"),
    ("serve.block", "repro.serve.blocks:BlockCache.get", "block"),
    ("serve.ingest.bootstrap", "repro.engine.incremental:IncrementalInferencer.bootstrap", "time"),
    ("serve.ingest.delta", "repro.engine.incremental:IncrementalInferencer.ingest", "time"),
    ("serve.ingest.context", "repro.experiments.common:StudyContext.create", "daemon"),
    ("serve.ingest.publish", "repro.store.artifacts:ArtifactStore.save_result", "daemon"),
    ("serve.ingest.wal", "repro.resilience.journal:RunJournal.append", "daemon"),
)

#: Layers whose every span duration is kept, for a median.
SAMPLED = frozenset({"serve.handle"})


class LayerTracer:
    """Spans, self times and counters of one process (thread-safe)."""

    def __init__(self, clock=time.perf_counter) -> None:
        self._clock = clock
        self._local = threading.local()
        # Re-entrant: the daemon's SIGUSR1 handler dumps from whichever
        # frame the signal interrupts, possibly one holding the lock.
        self._lock = threading.RLock()
        self.self_s: dict[str, float] = {}
        self.calls: dict[str, int] = {}
        self.counts: dict[str, float] = {}
        self.samples: dict[str, list[float]] = {name: [] for name in SAMPLED}
        #: layer -> summed duration of its spans that had no parent.
        self.roots: dict[str, float] = {}

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _close(self, layer: str, stack: list, frame: list, elapsed: float) -> None:
        stack.pop()
        if stack:
            stack[-1][0] += elapsed
        with self._lock:
            self.self_s[layer] = self.self_s.get(layer, 0.0) + elapsed - frame[0]
            self.calls[layer] = self.calls.get(layer, 0) + 1
            if not stack:
                self.roots[layer] = self.roots.get(layer, 0.0) + elapsed
            if layer in self.samples:
                self.samples[layer].append(elapsed)

    def call(self, layer: str, fn, args=(), kwargs=None):
        """Run ``fn(*args, **kwargs)`` inside a span billed to *layer*."""
        stack = self._stack()
        frame = [0.0]  # time spent in child spans
        stack.append(frame)
        started = self._clock()
        try:
            return fn(*args, **(kwargs or {}))
        finally:
            self._close(layer, stack, frame, self._clock() - started)

    @contextmanager
    def span(self, layer: str):
        """A span around a block of the benchmark's own code."""
        stack = self._stack()
        frame = [0.0]
        stack.append(frame)
        started = self._clock()
        try:
            yield
        finally:
            self._close(layer, stack, frame, self._clock() - started)

    def count(self, name: str, amount: float = 1) -> None:
        with self._lock:
            self.counts[name] = self.counts.get(name, 0) + amount

    # -- export ----------------------------------------------------------

    def snapshot(self) -> dict:
        with self._lock:
            return {
                "self_s": dict(self.self_s),
                "calls": dict(self.calls),
                "counts": dict(self.counts),
                "samples": {name: list(values) for name, values in self.samples.items()},
                "roots": dict(self.roots),
            }

    def dump(self, path: str) -> None:
        """Write :meth:`snapshot` atomically (tmp + rename) to *path*."""
        tmp = f"{path}.tmp"
        with open(tmp, "w", encoding="utf-8") as handle:
            json.dump(self.snapshot(), handle)
        os.replace(tmp, path)


#: The experiments of ``repro all``, in paper order; each is an analysis layer.
ANALYSES = (
    "tab1-3", "fig4", "sec4-corpus", "tab4", "tab5", "fig5", "fig6", "fig7",
    "fig8", "tab6", "ext-spf", "ext-hhi", "ext-ml",
)

_MIB = 1024 * 1024

#: Every per-layer metric of a traced run: name -> (unit, better).
PER_LAYER = {
    "world.build_s": ("s", "lower"),
    "measure.dns_s": ("s", "lower"),
    "measure.dns_calls": ("count", "lower"),
    "measure.scan_s": ("s", "lower"),
    "measure.scan_calls": ("count", "lower"),
    "measure.asn_s": ("s", "lower"),
    "measure.asn_calls": ("count", "lower"),
    "measure.join_s": ("s", "lower"),
    "stream.canon_s": ("s", "lower"),
    "core.groups_s": ("s", "lower"),
    "core.identify_s": ("s", "lower"),
    "core.identify_calls": ("count", "lower"),
    "engine.identcache.hit_ratio": ("ratio", "higher"),
    "core.attribute_s": ("s", "lower"),
    "core.baselines_s": ("s", "lower"),
    "store.encode_s": ("s", "lower"),
    "store.write_s": ("s", "lower"),
    "store.written_mb": ("MiB", "lower"),
    "store.read_s": ("s", "lower"),
    "store.decode_s": ("s", "lower"),
    "store.hit_ratio": ("ratio", "higher"),
    "store.view_s": ("s", "lower"),
    **{f"analysis.{name}_s": ("s", "lower") for name in ANALYSES},
    "serve.rtt_ms": ("ms", "lower"),
    "serve.handle_ms": ("ms", "lower"),
    "serve.handle_s": ("s", "lower"),
    "serve.guard_s": ("s", "lower"),
    "serve.queue_wait_s": ("s", "lower"),
    "serve.query_s": ("s", "lower"),
    "serve.telemetry_s": ("s", "lower"),
    "serve.block.hit_ratio": ("ratio", "higher"),
    "serve.block.load_s": ("s", "lower"),
    "serve.ingest.bootstrap_s": ("s", "lower"),
    "serve.ingest.delta_s": ("s", "lower"),
    "serve.ingest.reinferred": ("count", "lower"),
    "serve.ingest.context_s": ("s", "lower"),
    "serve.ingest.publish_s": ("s", "lower"),
    "serve.ingest.wal_s": ("s", "lower"),
    "unattributed_s": ("s", "lower"),
    "unattributed_pct": ("%", "lower"),
    "trace.overhead_pct": ("%", "lower"),
}


def _ratio(counts: dict, prefix: str) -> float:
    calls = counts.get(f"{prefix}.calls", 0)
    return counts.get(f"{prefix}.hits", 0) / calls if calls else 0.0


def _median_ms(values) -> float:
    ordered = sorted(values)
    return 1e3 * ordered[len(ordered) // 2] if ordered else 0.0


def layer_metrics(
    snap: dict,
    *,
    end_to_end_s: float,
    attributed_s: float,
    rtt_samples=(),
    overhead_pct: float,
) -> dict:
    """Every :data:`PER_LAYER` metric from a (merged) tracer snapshot.

    A layer the workload never entered reads 0.  *end_to_end_s* is the
    traced phase's end-to-end time and *attributed_s* the part of it the
    layer spans cover; the rest is reported as unattributed.
    """
    self_s, calls, counts = snap["self_s"], snap["calls"], snap["counts"]
    values = {}
    for name in PER_LAYER:
        if name.endswith("_s"):
            values[name] = self_s.get(name[:-2], 0.0)
        elif name.endswith("_calls"):
            values[name] = calls.get(name[: -len("_calls")], 0)
    unattributed = end_to_end_s - attributed_s
    values.update({
        "engine.identcache.hit_ratio": _ratio(counts, "engine.identcache"),
        "store.hit_ratio": _ratio(counts, "store.load"),
        "serve.block.hit_ratio": _ratio(counts, "serve.block"),
        "store.written_mb": counts.get("store.written_bytes", 0) / _MIB,
        "serve.ingest.reinferred": counts.get("serve.ingest.reinferred", 0),
        "serve.rtt_ms": _median_ms(rtt_samples),
        "serve.handle_ms": _median_ms(snap["samples"].get("serve.handle", ())),
        "unattributed_s": unattributed,
        "unattributed_pct": 100 * unattributed / end_to_end_s if end_to_end_s else 0.0,
        "trace.overhead_pct": overhead_pct,
    })
    return values


def merge(snapshots: list[dict]) -> dict:
    """Sum the snapshots of several processes (pool workers) into one."""
    merged = {"self_s": {}, "calls": {}, "counts": {}, "samples": {}, "roots": {}}
    for snap in snapshots:
        for key in ("self_s", "calls", "counts", "roots"):
            for name, value in snap[key].items():
                merged[key][name] = merged[key].get(name, 0) + value
        for name, values in snap["samples"].items():
            merged["samples"].setdefault(name, []).extend(values)
    return merged


# -- installing the wrappers -------------------------------------------------


def _resolve(spec: str):
    """(owner, attribute name, original) for ``"module:Class.attr"``."""
    module_name, _, qualname = spec.partition(":")
    owner = importlib.import_module(module_name)
    *path, name = qualname.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner, name, owner.__dict__[name]


def _make_wrapper(tracer: LayerTracer, layer: str, mode: str, original):
    call = tracer.call
    if mode == "count":
        def counted(*args, **kwargs):
            result = original(*args, **kwargs)
            tracer.count(f"{layer}.calls")
            if result is not None:
                tracer.count(f"{layer}.hits")
            return result
        return counted
    if mode == "block":
        def block_get(self, key, loader):
            loaded = []

            def timed_loader():
                loaded.append(True)
                return call(f"{layer}.load", loader)

            result = original(self, key, timed_loader)
            tracer.count(f"{layer}.calls")
            if not loaded:
                tracer.count(f"{layer}.hits")
            return result
        return block_get
    if mode == "span-cm":
        def opened(*args, **kwargs):
            return _TimedContext(tracer, layer, call(layer, original, args, kwargs))
        return opened

    observe = _OBSERVE.get(layer)
    if observe is None:
        def timed(*args, **kwargs):
            return call(layer, original, args, kwargs)
        return timed

    def timed_observed(*args, **kwargs):
        result = call(layer, original, args, kwargs)
        tracer.count(*observe(args, result))
        return result
    return timed_observed


#: Counters read off a timed call: layer -> f(args, result) -> (name, amount).
_OBSERVE = {
    "store.write": lambda args, _result: ("store.written_bytes", len(args[2])),
    "serve.ingest.bootstrap": lambda _args, result: (
        "serve.ingest.reinferred", result[1].reinferred
    ),
    "serve.ingest.delta": lambda _args, result: (
        "serve.ingest.reinferred", result.reinferred
    ),
}


class _TimedContext:
    """Bills a context manager's enter and exit to a layer."""

    __slots__ = ("_tracer", "_layer", "_inner")

    def __init__(self, tracer: LayerTracer, layer: str, inner) -> None:
        self._tracer = tracer
        self._layer = layer
        self._inner = inner

    def __enter__(self):
        return self._tracer.call(self._layer, self._inner.__enter__)

    def __exit__(self, *exc):
        return self._tracer.call(self._layer, self._inner.__exit__, exc)


def install(tracer: LayerTracer, *, daemon: bool) -> list:
    """Wrap every target; returns undo records for :func:`uninstall`."""
    undo = []
    for layer, spec, mode in TARGETS:
        if mode == "daemon":
            if not daemon:
                continue
            mode = "time"
        owner, name, original = _resolve(spec)
        if isinstance(owner, type):
            if isinstance(original, classmethod):
                wrapper = classmethod(
                    _make_wrapper(tracer, layer, mode, original.__func__)
                )
            else:
                wrapper = _make_wrapper(tracer, layer, mode, original)
            setattr(owner, name, wrapper)
            undo.append((owner, name, original))
            continue
        wrapper = _make_wrapper(tracer, layer, mode, original)
        for module_name, module in list(sys.modules.items()):
            if module is None or not module_name.startswith("repro"):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, wrapper)
                    undo.append((module, attr, original))
    return undo


def uninstall(undo: list) -> None:
    for owner, name, original in reversed(undo):
        setattr(owner, name, original)
