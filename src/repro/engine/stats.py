"""Lightweight perf instrumentation for the measurement/inference engine.

One process-wide :class:`EngineStats` instance accumulates named counters
(cache hits/misses), cumulative timers, and per-shard timings.  Everything
is plain stdlib and deliberately cheap: a counter bump is one dict update,
so the facility can sit on hot paths (scan cache, identity cache) without
distorting what it measures.

Counters follow a ``<area>.<cache>.hit`` / ``<area>.<cache>.miss`` naming
convention so hit rates can be derived generically; ``render()`` produces
the table behind ``python -m repro <exp> --perf``.
"""

from __future__ import annotations

import gc
import sys
import time
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass, field


@dataclass
class EngineStats:
    """Counters, cumulative timers, and shard timings for one process."""

    counters: Counter = field(default_factory=Counter)
    timers: dict[str, float] = field(default_factory=dict)
    timer_calls: Counter = field(default_factory=Counter)
    shard_timings: dict[str, list[float]] = field(default_factory=dict)
    merged_tokens: set = field(default_factory=set)

    # -- counters --------------------------------------------------------

    def inc(self, name: str, amount: int = 1) -> None:
        self.counters[name] += amount

    def hit_rate(self, prefix: str) -> float | None:
        """Hit rate of a ``<prefix>.hit``/``<prefix>.miss`` counter pair."""
        hits = self.counters.get(f"{prefix}.hit", 0)
        misses = self.counters.get(f"{prefix}.miss", 0)
        total = hits + misses
        if total == 0:
            return None
        return hits / total

    def cache_prefixes(self) -> list[str]:
        """All counter prefixes that look like hit/miss cache pairs."""
        prefixes = {
            name.rsplit(".", 1)[0]
            for name in self.counters
            if name.endswith(".hit") or name.endswith(".miss")
        }
        return sorted(prefixes)

    # -- timers ----------------------------------------------------------

    def add_time(self, name: str, seconds: float) -> None:
        self.timers[name] = self.timers.get(name, 0.0) + seconds
        self.timer_calls[name] += 1

    @contextmanager
    def timer(self, name: str):
        started = time.perf_counter()
        try:
            yield
        finally:
            self.add_time(name, time.perf_counter() - started)

    def record_shards(self, label: str, timings: list[float]) -> None:
        self.shard_timings.setdefault(label, []).extend(timings)

    # -- lifecycle / reporting ------------------------------------------

    def reset(self) -> None:
        self.counters.clear()
        self.timers.clear()
        self.timer_calls.clear()
        self.shard_timings.clear()
        self.merged_tokens.clear()

    def snapshot(self) -> dict:
        """A plain-dict copy (for deltas between phases of a sweep)."""
        return {
            "counters": dict(self.counters),
            "timers": dict(self.timers),
            "timer_calls": dict(self.timer_calls),
        }

    def delta_since(self, since: dict) -> dict:
        """What changed since a prior :meth:`snapshot` (only the changes).

        This is what a forked pool worker ships back with its shard
        result: the counters and timers it accumulated after the fork,
        without the parent's pre-fork totals it inherited.
        """
        before_counters = since.get("counters", {})
        before_timers = since.get("timers", {})
        before_calls = since.get("timer_calls", {})
        counters = {
            name: value - before_counters.get(name, 0)
            for name, value in self.counters.items()
            if value != before_counters.get(name, 0)
        }
        timers = {
            name: value - before_timers.get(name, 0.0)
            for name, value in self.timers.items()
            if value != before_timers.get(name, 0.0)
        }
        timer_calls = {
            name: value - before_calls.get(name, 0)
            for name, value in self.timer_calls.items()
            if value != before_calls.get(name, 0)
        }
        return {"counters": counters, "timers": timers, "timer_calls": timer_calls}

    def merge(self, delta: dict) -> None:
        """Fold a worker's :meth:`delta_since` payload into this instance."""
        for name, value in delta.get("counters", {}).items():
            self.counters[name] += value
        for name, value in delta.get("timers", {}).items():
            self.timers[name] = self.timers.get(name, 0.0) + value
        for name, value in delta.get("timer_calls", {}).items():
            self.timer_calls[name] += value
        for label, timings in delta.get("shard_timings", {}).items():
            self.shard_timings.setdefault(label, []).extend(timings)

    def merge_once(self, token: str, delta: dict) -> bool:
        """Fold a worker delta in at most once per *token*.

        A supervised shard can legitimately complete twice — a worker that
        was presumed hung (or that crashed *after* shipping its result)
        finishes right as its replacement does.  The supervisor merges
        each completion under the shard-assignment's unique token, so the
        second arrival is dropped and ``--perf`` counters match a run
        without any restarts.  Returns True when the delta was merged.
        """
        if token in self.merged_tokens:
            return False
        self.merged_tokens.add(token)
        self.merge(delta)
        return True

    def delta_hit_rate(self, prefix: str, since: dict) -> float | None:
        """Hit rate of a cache pair since a prior :meth:`snapshot`."""
        before = since.get("counters", {})
        hits = self.counters.get(f"{prefix}.hit", 0) - before.get(f"{prefix}.hit", 0)
        misses = self.counters.get(f"{prefix}.miss", 0) - before.get(
            f"{prefix}.miss", 0
        )
        total = hits + misses
        if total == 0:
            return None
        return hits / total

    def render(self) -> str:
        """A human-readable perf report (caches, timers, shards)."""
        lines = ["engine perf stats", "-----------------"]
        prefixes = self.cache_prefixes()
        if prefixes:
            lines.append("caches:")
            for prefix in prefixes:
                hits = self.counters.get(f"{prefix}.hit", 0)
                misses = self.counters.get(f"{prefix}.miss", 0)
                rate = self.hit_rate(prefix)
                shown = f"{100 * rate:5.1f}%" if rate is not None else "    --"
                lines.append(
                    f"  {prefix:<24s} hits {hits:>8d}  misses {misses:>8d}  rate {shown}"
                )
        other = sorted(
            name
            for name in self.counters
            if not (name.endswith(".hit") or name.endswith(".miss"))
        )
        if other:
            lines.append("counters:")
            for name in other:
                if name.endswith("_bytes"):
                    shown = format_bytes(self.counters[name]).rjust(10)
                else:
                    shown = f"{self.counters[name]:>8d}"
                lines.append(f"  {name:<24s} {shown}")
        if self.timers:
            lines.append("timers:")
            # Cumulative time descending, so the hottest phase leads.
            ordered = sorted(self.timers.items(), key=lambda item: (-item[1], item[0]))
            for name, seconds in ordered:
                lines.append(
                    f"  {name:<24s} {seconds:>8.3f}s"
                    f"  ({self.timer_calls[name]} calls)"
                )
        if self.shard_timings:
            lines.append("shards:")
            for label in sorted(self.shard_timings):
                timings = self.shard_timings[label]
                mean = sum(timings) / len(timings)
                # max/mean straggler factor: 1.00 = perfectly balanced.
                imbalance = f"{max(timings) / mean:.2f}x" if mean else "--"
                lines.append(
                    f"  {label:<24s} n={len(timings)}"
                    f"  total={sum(timings):.3f}s  max={max(timings):.3f}s"
                    f"  mean={mean:.3f}s  imbalance={imbalance}"
                )
        if len(lines) == 2:
            lines.append("(no activity recorded)")
        return "\n".join(lines)


def peak_rss_bytes() -> int:
    """This process's lifetime peak resident set size, in bytes.

    ``ru_maxrss`` is kilobytes on Linux and bytes on macOS; systems
    where neither ``resource`` nor ``/proc`` works report 0 (the memory
    section of ``--perf``/metrics then simply stays at zero rather than
    failing the run).
    """
    try:
        import resource

        peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        if peak:
            return int(peak) if sys.platform == "darwin" else int(peak) * 1024
    except Exception:
        pass
    return _proc_status_kb("VmHWM") * 1024


def current_rss_bytes() -> int:
    """This process's current resident set size, in bytes (0 if unknown)."""
    return _proc_status_kb("VmRSS") * 1024


def _proc_status_kb(field_name: str) -> int:
    try:
        with open("/proc/self/status", encoding="ascii", errors="replace") as status:
            for line in status:
                if line.startswith(field_name + ":"):
                    return int(line.split()[1])
    except (OSError, ValueError, IndexError):
        pass
    return 0


def sample_peak_rss(stats: EngineStats | None = None) -> int:
    """Record the current peak RSS as a high-water-mark counter.

    ``mem.peak_rss_bytes`` is a max, not a sum — samples only ever
    raise it.  Called at batch boundaries and run epilogues.
    """
    target = stats if stats is not None else STATS
    peak = peak_rss_bytes()
    if peak > target.counters.get("mem.peak_rss_bytes", 0):
        target.counters["mem.peak_rss_bytes"] = peak
    return peak


def format_bytes(count: int) -> str:
    """Human-readable byte count for ``*_bytes`` counters (KiB/MiB/GiB)."""
    size = float(count)
    for unit in ("B", "KiB", "MiB", "GiB"):
        if size < 1024 or unit == "GiB":
            if unit == "B":
                return f"{int(size)} B"
            return f"{size:.1f} {unit}"
        size /= 1024
    return f"{int(count)} B"  # pragma: no cover - unreachable


STATS = EngineStats()

# -- garbage-collector accounting ---------------------------------------
#
# One ``gc.callbacks`` hook counts collections per generation and times
# every pause into STATS, so ``--perf``, ``--metrics-out`` and manifests
# show what the cyclic collector cost a run.

GC_COUNTERS = tuple(f"gc.collections.gen{generation}" for generation in range(3))
_gc_started = 0.0


def _seed_gc_keys() -> None:
    # A collection can start inside any allocation, including one made
    # while some caller iterates these dicts; with the keys present the
    # hook only updates values and never changes a dict's size.
    for name in GC_COUNTERS:
        STATS.counters[name] += 0
    STATS.timers.setdefault("gc.pause", 0.0)
    STATS.timer_calls["gc.pause"] += 0


def _on_gc(phase: str, info: dict) -> None:
    global _gc_started
    if phase == "start":
        _gc_started = time.perf_counter()
        return
    STATS.inc(GC_COUNTERS[info["generation"]])
    STATS.add_time("gc.pause", time.perf_counter() - _gc_started)


_seed_gc_keys()
gc.callbacks.append(_on_gc)


def get_stats() -> EngineStats:
    """The process-wide stats instance."""
    return STATS


def reset_stats() -> None:
    STATS.reset()
    _seed_gc_keys()
