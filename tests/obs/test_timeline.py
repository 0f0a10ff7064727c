"""The cross-run perf timeline: history, rolling-median deltas, CI gate."""

import json

import pytest

from repro.obs import timeline
from repro.obs.cli import main as obs_main
from repro.obs.schemas import HISTORY_EVENT_SCHEMA, bench_document, validate


def serve_doc(p99_ms=1.5, qps=500.0):
    return bench_document(
        "serve-sweep",
        [
            {"phase": "seed", "seconds": 2.0},
            {
                "phase": "daemon",
                "warm_start_s": 0.05,
                "p50_ms": p99_ms / 3,
                "p99_ms": p99_ms,
                "qps": qps,
                "requests": 400,
            },
            {"phase": "ingest", "churn": 0.1, "speedup": 4.0,
             "ingest_seconds": 0.4},
        ],
        seed=7,
    )


class TestExtraction:
    def test_serve_sweep_metrics(self):
        metrics = timeline.extract_metrics(serve_doc())
        assert metrics["daemon.p99_ms"] == 1.5
        assert metrics["daemon.qps"] == 500.0
        assert metrics["ingest.speedup@0.1"] == 4.0

    def test_generic_fallback(self):
        document = bench_document("custom", [{"wall_s": 2.5, "label": "x"}])
        metrics = timeline.extract_metrics(document)
        assert metrics == {"row0.wall_s": 2.5}

    def test_non_bench_document_rejected(self):
        with pytest.raises(timeline.TimelineError):
            timeline.extract_metrics({"rows": []})

    def test_polarity_inference(self):
        assert timeline.higher_is_better("daemon.qps")
        assert timeline.higher_is_better("ingest.speedup@0.1")
        assert timeline.higher_is_better("accuracy@0.2")
        assert not timeline.higher_is_better("daemon.p99_ms")
        assert not timeline.higher_is_better("seed.seconds")


class TestHistory:
    def test_append_and_read(self, tmp_path):
        path = tmp_path / "hist.jsonl"
        entry = timeline.history_entry(serve_doc(), source="a.json", run="r1")
        assert validate(entry, HISTORY_EVENT_SCHEMA) == []
        timeline.append_history(path, entry)
        timeline.append_history(
            path, timeline.history_entry(serve_doc(), run="r2")
        )
        entries = timeline.read_history(path)
        assert [e["run"] for e in entries] == ["r1", "r2"]

    def test_missing_file_is_empty(self, tmp_path):
        assert timeline.read_history(tmp_path / "nope.jsonl") == []

    def test_bad_json_line_rejected(self, tmp_path):
        path = tmp_path / "hist.jsonl"
        path.write_text("{not json\n")
        with pytest.raises(timeline.TimelineError):
            timeline.read_history(path)


class TestCompare:
    def _entries(self, *p99s, qps=500.0):
        return [
            timeline.history_entry(serve_doc(p99_ms=p99, qps=qps), run=f"r{i}")
            for i, p99 in enumerate(p99s)
        ]

    def test_two_runs_produce_delta_table(self):
        rows = timeline.compare(self._entries(1.5, 1.6))
        table = timeline.render_table(rows)
        assert "daemon.p99_ms" in table and "| ok |" in table
        assert not timeline.regressions(rows)

    def test_injected_2x_latency_regression_trips(self):
        rows = timeline.compare(self._entries(1.5, 1.5, 1.5, 3.0))
        bad = timeline.regressions(rows)
        assert any(row["metric"] == "daemon.p99_ms" for row in bad)
        assert "**REGRESSED**" in timeline.render_table(rows)

    def test_throughput_drop_regresses_upward_metric(self):
        entries = [
            timeline.history_entry(serve_doc(qps=600.0), run="r0"),
            timeline.history_entry(serve_doc(qps=600.0), run="r1"),
            timeline.history_entry(serve_doc(qps=200.0), run="r2"),
        ]
        bad = timeline.regressions(timeline.compare(entries))
        assert any(row["metric"] == "daemon.qps" for row in bad)

    def test_first_run_never_regresses(self):
        rows = timeline.compare(self._entries(99.0))
        assert all(row["median"] is None for row in rows)
        assert not timeline.regressions(rows)

    def test_rolling_median_window(self):
        # Median of the last 5 priors (1.5) — not the ancient 9.0 outlier.
        rows = timeline.compare(
            self._entries(9.0, 1.5, 1.5, 1.5, 1.5, 1.5, 1.6), window=5
        )
        p99 = next(r for r in rows if r["metric"] == "daemon.p99_ms")
        assert p99["median"] == pytest.approx(1.5)
        assert not p99["regressed"]

    def test_zero_median_never_gates(self):
        entries = [
            {"bench": "b", "metrics": {"x.seconds": 0.0}},
            {"bench": "b", "metrics": {"x.seconds": 5.0}},
        ]
        rows = timeline.compare(entries)
        assert rows[0]["ratio"] is None and not rows[0]["regressed"]


class TestCli:
    def _write(self, tmp_path, name, document):
        path = tmp_path / name
        path.write_text(json.dumps(document))
        return str(path)

    def test_add_then_check_passes_when_flat(self, tmp_path, capsys):
        history = str(tmp_path / "BENCH_history.jsonl")
        a = self._write(tmp_path, "a.json", serve_doc(1.5))
        b = self._write(tmp_path, "b.json", serve_doc(1.6))
        assert obs_main(["timeline", a, "--history", history, "--add"]) == 0
        assert obs_main(
            ["timeline", b, "--history", history, "--add", "--check"]
        ) == 0
        out = capsys.readouterr().out
        assert "daemon.p99_ms" in out
        assert len(timeline.read_history(history)) == 2

    def test_check_fails_on_regression(self, tmp_path, capsys):
        history = str(tmp_path / "BENCH_history.jsonl")
        base = self._write(tmp_path, "a.json", serve_doc(1.5))
        slow = self._write(tmp_path, "b.json", serve_doc(3.2))
        assert obs_main(["timeline", base, "--history", history, "--add"]) == 0
        assert obs_main(
            ["timeline", slow, "--history", history, "--check"]
        ) == 1
        assert "REGRESSION" in capsys.readouterr().err

    def test_empty_history_errors(self, tmp_path):
        assert obs_main(
            ["timeline", "--history", str(tmp_path / "none.jsonl")]
        ) == 2


PERFBENCH_HEADER = (
    "# perfbench workload=reproduce seed=3 seconds=30 trace=0 world_seed=7 "
    "scale=2 nproc=2 python=3.11.7"
)


def perfbench_out(warm_s=3.1, hit_ratio=0.9, correct=True):
    """A perfbench stdout capture: header, '#' copy, result line."""
    result = {
        "correct": correct,
        "attempted": 1200,
        "failed": 0 if correct else 4,
        "metrics": {
            "warm_s": {"value": warm_s, "unit": "s"},
            "store.hit_ratio": {"value": hit_ratio, "unit": "ratio"},
        },
    }
    return "\n".join([
        PERFBENCH_HEADER,
        f"# warm_s {warm_s:.6f} s n=1",
        f"# store.hit_ratio {hit_ratio:.6f} ratio n=1",
        "# attempted 1200  failed 0 (0.000%)",
        json.dumps(result),
    ]) + "\n"


BENCHMARK = {
    "end_to_end": [{"name": "warm_s", "unit": "s", "better": "lower", "bound": 0.25}],
    "per_layer": [{"name": "store.hit_ratio", "unit": "ratio", "better": "higher"}],
}


class TestPerfbenchCapture:
    def _setup(self, tmp_path, *captures):
        (tmp_path / "BENCHMARK.json").write_text(json.dumps(BENCHMARK))
        paths = []
        for index, text in enumerate(captures):
            path = tmp_path / f"run{index}.txt"
            path.write_text(text)
            paths.append(str(path))
        return str(tmp_path / "BENCH_history.jsonl"), paths

    def test_capture_becomes_a_workload_bench(self, tmp_path):
        history, (path,) = self._setup(tmp_path, perfbench_out())
        assert obs_main(
            ["timeline", path, "--history", history, "--add", "--run", "p1"]
        ) == 0
        (entry,) = timeline.read_history(history)
        assert validate(entry, HISTORY_EVENT_SCHEMA) == []
        assert entry["bench"] == "perfbench-reproduce"
        assert entry["run"] == "p1"
        assert entry["metrics"] == {"warm_s": 3.1, "store.hit_ratio": 0.9}
        assert entry["better"] == {"warm_s": "lower", "store.hit_ratio": "higher"}

    def test_polarity_comes_from_the_benchmark(self, tmp_path):
        # By name alone a *_ratio reads as lower-is-better.
        assert not timeline.higher_is_better("store.hit_ratio")
        _history, paths = self._setup(
            tmp_path, perfbench_out(hit_ratio=0.9), perfbench_out(hit_ratio=0.3)
        )
        benchmark = tmp_path / "BENCHMARK.json"
        entries = [
            timeline.history_entry(timeline.load_document(path, benchmark), run=path)
            for path in paths
        ]
        bad = timeline.regressions(timeline.compare(entries))
        assert [row["metric"] for row in bad] == ["store.hit_ratio"]
        rising = [entries[1], entries[0]]
        assert not timeline.regressions(timeline.compare(rising))

    def test_incorrect_run_refused(self, tmp_path, capsys):
        history, (path,) = self._setup(tmp_path, perfbench_out(correct=False))
        assert obs_main(["timeline", path, "--history", history, "--add"]) == 2
        assert "not correct" in capsys.readouterr().err
        assert timeline.read_history(history) == []

    def test_undeclared_metric_refused(self, tmp_path):
        with pytest.raises(timeline.TimelineError, match="warm_s"):
            timeline.perfbench_document(
                perfbench_out(), {"store.hit_ratio": "higher"}
            )

    def test_missing_benchmark_refused(self, tmp_path):
        path = tmp_path / "run.txt"
        path.write_text(perfbench_out())
        with pytest.raises(timeline.TimelineError, match="polarity"):
            timeline.load_document(path, tmp_path / "BENCHMARK.json")
