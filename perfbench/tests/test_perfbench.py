"""Unit tests of the benchmark's own arithmetic and bookkeeping.

Run from the repository root: ``python3 -m pytest perfbench/tests -q``.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import layers  # noqa: E402
from common import percentile, supports_percentile  # noqa: E402
from run import END_TO_END  # noqa: E402


class FakeClock:
    """A clock that reads the times a test scripts, one per call."""

    def __init__(self, *readings: float) -> None:
        self._readings = list(readings)

    def __call__(self) -> float:
        return self._readings.pop(0)


def test_self_time_subtracts_child_spans():
    # A [0, 10] holds B [2, 5] (which holds C [3, 4]) and D [6, 8].
    tracer = layers.LayerTracer(clock=FakeClock(0, 2, 3, 4, 5, 6, 8, 10))
    with tracer.span("A"):
        with tracer.span("B"):
            with tracer.span("C"):
                pass
        with tracer.span("D"):
            pass
    assert tracer.self_s == {"A": 5, "B": 2, "C": 1, "D": 2}
    assert tracer.roots == {"A": 10}
    assert sum(tracer.self_s.values()) == sum(tracer.roots.values())


def test_self_time_of_wrapped_calls_and_repeated_layers():
    tracer = layers.LayerTracer(clock=FakeClock(0, 1, 3, 4, 7, 9))

    def inner():
        return "x"

    def outer():
        tracer.call("leaf", inner)
        tracer.call("leaf", inner)
        return "y"

    assert tracer.call("root", outer) == "y"
    assert tracer.self_s == {"root": 9 - 2 - 3, "leaf": 5}
    assert tracer.calls == {"root": 1, "leaf": 2}


def test_merge_sums_processes():
    first = layers.LayerTracer(clock=FakeClock(0, 2))
    second = layers.LayerTracer(clock=FakeClock(0, 3))
    first.call("serve.handle", lambda: None)
    second.call("serve.handle", lambda: None)
    merged = layers.merge([first.snapshot(), second.snapshot()])
    assert merged["self_s"] == {"serve.handle": 5}
    assert merged["roots"] == {"serve.handle": 5}
    assert sorted(merged["samples"]["serve.handle"]) == [2, 3]


def test_percentile_needs_ten_samples_beyond():
    assert supports_percentile(1000, 0.99)
    assert not supports_percentile(999, 0.99)
    assert supports_percentile(20, 0.50)
    assert not supports_percentile(19, 0.50)
    samples = list(range(1000, 0, -1))
    assert percentile(samples, 0.99) == 990  # exactly 10 samples above it
    assert percentile(samples, 0.50) == 500
    with pytest.raises(ValueError):
        percentile(samples[:999], 0.99)


def test_layer_metrics_cover_every_layer_and_read_zero_when_unused():
    values = layers.layer_metrics(
        layers.LayerTracer().snapshot(),
        end_to_end_s=2.0, attributed_s=0.5, overhead_pct=1.0,
    )
    assert set(values) == set(layers.PER_LAYER)
    assert values["unattributed_s"] == 1.5
    assert values["unattributed_pct"] == 75.0
    assert values["store.hit_ratio"] == 0.0
    assert values["world.build_s"] == 0.0


def test_install_patches_call_sites_and_uninstall_restores():
    import repro.experiments.common as experiments_common
    import repro.world.build as world_build
    from repro.store.delta import ResultView

    original = world_build.build_world
    original_get = ResultView.get
    undo = layers.install(layers.LayerTracer(), daemon=False)
    try:
        assert experiments_common.build_world is not original
        assert world_build.build_world is experiments_common.build_world
        assert ResultView.get is not original_get
    finally:
        layers.uninstall(undo)
    assert experiments_common.build_world is original
    assert world_build.build_world is original
    assert ResultView.get is original_get


def test_benchmark_json_lists_every_metric():
    document = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert {item["name"]: item["unit"] for item in document["end_to_end"]} == END_TO_END
    assert {
        item["name"]: (item["unit"], item["better"]) for item in document["per_layer"]
    } == layers.PER_LAYER


def test_analysis_layers_follow_the_paper_order():
    from repro.cli import PAPER_ORDER

    assert layers.ANALYSES == PAPER_ORDER
