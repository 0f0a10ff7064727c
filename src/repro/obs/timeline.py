"""Cross-run perf timeline over the repo's bench artifacts.

Every sweep script writes a JSON document (``bench_sweep``,
``serve_sweep``, ``chaos_sweep`` — the unified shape in
:mod:`repro.obs.schemas`); this module folds those one-shot artifacts
into an append-only ``BENCH_history.jsonl`` and compares each new run's
metrics against the **rolling median** of the prior runs of the same
bench, so a perf regression fails CI instead of scrolling past.

One history line per recorded run::

    {"history_schema": 1, "bench": "serve-sweep", "run": "...",
     "recorded": 1754650000.0, "metrics": {"daemon.p99_ms": 1.62, ...}}

A saved perfbench stdout capture (``python3 perfbench/run.py ... >
run.txt``) is a document too: its ``# perfbench workload=...`` header and
final result line become one ``perfbench-<workload>`` run.

Metric *polarity* comes from the entry when its document declared one
(perfbench metrics take ``better`` from the ``BENCHMARK.json`` beside the
history file).  Otherwise it is inferred from the name: throughput-flavoured
metrics (qps, speedup, accuracy, hit rates) regress when they **drop**;
everything else (latencies, wall clocks, RSS) regresses when it
**rises**.  A metric regresses when its worse-direction ratio against
the rolling median exceeds the threshold (default 1.5×, so an injected
2× latency regression trips the gate with margin for machine noise).
"""

from __future__ import annotations

import json
import os
import statistics
import time

HISTORY_SCHEMA_VERSION = 1
DEFAULT_HISTORY = "BENCH_history.jsonl"
DEFAULT_THRESHOLD = 1.5
DEFAULT_WINDOW = 5
#: The benchmark declaration, read from the history file's directory.
BENCHMARK_FILE = "BENCHMARK.json"
#: First line of a saved perfbench stdout capture.
PERFBENCH_HEADER = "# perfbench "

#: Name fragments whose metrics improve upward (drop = regression).
_HIGHER_IS_BETTER = ("qps", "speedup", "accuracy", "hit_rate", "rate")


class TimelineError(ValueError):
    """An unusable bench document or history file."""


def higher_is_better(metric: str) -> bool:
    # Strip any "@<param>" qualifier (it may itself contain dots, e.g.
    # "ingest.speedup@0.1") before isolating the metric's leaf name.
    tail = metric.split("@", 1)[0].rsplit(".", 1)[-1]
    return any(tail.startswith(marker) or marker in tail for marker in _HIGHER_IS_BETTER)


def _entry_higher_is_better(entry: dict, metric: str) -> bool:
    """Polarity declared by the entry's document, else by name."""
    declared = entry.get("better", {}).get(metric)
    if declared is not None:
        return declared == "higher"
    return higher_is_better(metric)


# -- documents -------------------------------------------------------------


def load_document(path: str | os.PathLike, benchmark: str | os.PathLike) -> dict:
    """The bench document in *path*: a sweep's ``--json`` output, or a
    perfbench stdout capture whose polarity comes from *benchmark*."""
    with open(path) as handle:
        text = handle.read()
    if text.startswith(PERFBENCH_HEADER):
        return perfbench_document(text, read_polarity(benchmark))
    return json.loads(text)


def read_polarity(path: str | os.PathLike) -> dict[str, str]:
    """metric → ``"higher"``/``"lower"``, as a BENCHMARK.json declares."""
    try:
        with open(path) as handle:
            declared = json.load(handle)
        return {
            metric["name"]: metric["better"]
            for section in ("end_to_end", "per_layer")
            for metric in declared.get(section, [])
        }
    except (OSError, ValueError, KeyError, TypeError) as error:
        raise TimelineError(f"no metric polarity from {path}: {error}")


def perfbench_document(text: str, polarity: dict[str, str]) -> dict:
    """The bench document of one perfbench run's stdout.

    The first line is the settings header and the last the result JSON;
    ``#`` lines between them are the human-readable copy.  A run that
    was not correct is refused: its failed operations are billed 10 s
    each, so its metrics are not timings.
    """
    lines = text.strip().splitlines()
    settings = dict(
        field.split("=", 1)
        for field in lines[0][len(PERFBENCH_HEADER):].split()
        if "=" in field
    )
    if "workload" not in settings:
        raise TimelineError("perfbench header names no workload")
    try:
        result = json.loads(lines[-1])
        metrics = {
            name: float(metric["value"]) for name, metric in result["metrics"].items()
        }
    except (ValueError, KeyError, TypeError, AttributeError) as error:
        raise TimelineError(f"perfbench capture has no result line ({error})")
    if result.get("correct") is not True:
        raise TimelineError(
            f"perfbench run was not correct ({result.get('failed')} failed "
            "operations); not recorded"
        )
    undeclared = sorted(set(metrics) - set(polarity))
    if undeclared:
        raise TimelineError(
            f"{BENCHMARK_FILE} declares no polarity for {', '.join(undeclared)}"
        )
    return {
        "bench": f"perfbench-{settings['workload']}",
        "rows": [{"metric": name, "value": value} for name, value in metrics.items()],
        "better": {name: polarity[name] for name in metrics},
    }


# -- metric extraction ---------------------------------------------------


def extract_metrics(document: dict) -> dict[str, float]:
    """The timeline metrics of one bench document, keyed canonically."""
    bench = document.get("bench")
    rows = document.get("rows")
    if not isinstance(bench, str) or not isinstance(rows, list):
        raise TimelineError(
            "not a bench document (missing 'bench'/'rows'); run the sweep "
            "with --json and pass that file"
        )
    if bench.startswith("perfbench-"):
        extractor = _extract_perfbench
    else:
        extractor = _EXTRACTORS.get(bench, _extract_generic)
    metrics = extractor(document)
    if not metrics:
        raise TimelineError(f"bench {bench!r}: no timeline metrics found")
    return metrics


def _extract_serve(document: dict) -> dict[str, float]:
    metrics: dict[str, float] = {}
    for row in document["rows"]:
        phase = row.get("phase")
        if phase == "seed":
            metrics["seed.seconds"] = row["seconds"]
        elif phase == "daemon":
            metrics["daemon.warm_start_s"] = row["warm_start_s"]
            metrics["daemon.p50_ms"] = row["p50_ms"]
            metrics["daemon.p99_ms"] = row["p99_ms"]
            metrics["daemon.qps"] = row["qps"]
            if row.get("telemetry_overhead") is not None:
                metrics["daemon.telemetry_overhead"] = row["telemetry_overhead"]
        elif phase == "ingest":
            churn = row.get("churn")
            metrics[f"ingest.speedup@{churn:g}"] = row["speedup"]
            metrics[f"ingest.seconds@{churn:g}"] = row["ingest_seconds"]
    return metrics


def _extract_sweep(document: dict) -> dict[str, float]:
    metrics: dict[str, float] = {}
    for row in document["rows"]:
        mode = row.get("mode")
        scale = row.get("scale")
        if mode is None or scale is None:
            continue
        metrics[f"{mode}.wall_s@x{scale:g}"] = row["wall_seconds"]
    for summary in document.get("summaries", []) or document.get(
        "context", {}
    ).get("summaries", []):
        scale = summary.get("scale")
        if scale is not None:
            metrics[f"warm_speedup@x{scale:g}"] = summary["warm_speedup_vs_cold"]
    return metrics


def _extract_smoke(document: dict) -> dict[str, float]:
    metrics: dict[str, float] = {}
    for row in document["rows"]:
        scale = row.get("scale")
        if scale is None:
            continue
        metrics[f"measure_delta_mb@x{scale:g}"] = row["measure_delta_mb"]
        metrics[f"measure_s@x{scale:g}"] = row["measure_seconds"]
    return metrics


def _extract_chaos(document: dict) -> dict[str, float]:
    metrics: dict[str, float] = {}
    for row in document["rows"]:
        rate = row.get("rate")
        if rate is None or "accuracy" not in row:
            continue
        metrics[f"accuracy@{rate:g}"] = row["accuracy"]
    return metrics


def _extract_perfbench(document: dict) -> dict[str, float]:
    return {row["metric"]: row["value"] for row in document["rows"]}


def _extract_generic(document: dict) -> dict[str, float]:
    """Fallback: every scalar numeric field of every row, index-keyed."""
    metrics: dict[str, float] = {}
    for index, row in enumerate(document["rows"]):
        for key, value in row.items():
            if key == "bench_schema":
                continue
            if isinstance(value, (int, float)) and not isinstance(value, bool):
                metrics[f"row{index}.{key}"] = float(value)
    return metrics


_EXTRACTORS = {
    "serve-sweep": _extract_serve,
    "sweep": _extract_sweep,
    "scaled-smoke": _extract_smoke,
    "chaos-sweep": _extract_chaos,
}


# -- history file --------------------------------------------------------


def history_entry(
    document: dict, *, source: str | None = None, run: str | None = None
) -> dict:
    """One appendable history line for a bench document."""
    entry = {
        "history_schema": HISTORY_SCHEMA_VERSION,
        "bench": document["bench"],
        "run": run or os.environ.get("GITHUB_RUN_ID") or f"local-{int(time.time())}",
        "source": source,
        "recorded": round(time.time(), 3),
        "metrics": extract_metrics(document),
    }
    if document.get("bench_schema") is not None:
        entry["bench_schema"] = document["bench_schema"]
    if "better" in document:
        entry["better"] = document["better"]
    return entry


def read_history(path: str | os.PathLike) -> list[dict]:
    """Every history entry, in file order (missing file = empty history)."""
    entries: list[dict] = []
    try:
        with open(path) as handle:
            for number, line in enumerate(handle, start=1):
                if not line.strip():
                    continue
                try:
                    entry = json.loads(line)
                except ValueError as error:
                    raise TimelineError(f"{path}:{number}: bad JSON ({error})")
                entries.append(entry)
    except FileNotFoundError:
        return []
    return entries


def append_history(path: str | os.PathLike, entry: dict) -> None:
    with open(path, "a") as handle:
        handle.write(json.dumps(entry, sort_keys=True) + "\n")
        handle.flush()
        os.fsync(handle.fileno())


# -- regression analysis -------------------------------------------------


def compare(
    entries: list[dict],
    *,
    threshold: float = DEFAULT_THRESHOLD,
    window: int = DEFAULT_WINDOW,
) -> list[dict]:
    """Delta rows for the newest entry of each bench vs its rolling median.

    Returns one row per metric of each bench's latest run:
    ``{bench, metric, value, median, ratio, direction, regressed}``.
    Benches with fewer than two runs yield rows with ``median=None``
    (nothing to compare against — never a regression).
    """
    by_bench: dict[str, list[dict]] = {}
    for entry in entries:
        by_bench.setdefault(entry.get("bench", "?"), []).append(entry)
    rows: list[dict] = []
    for bench in sorted(by_bench):
        runs = by_bench[bench]
        latest = runs[-1]
        priors = runs[:-1][-window:]
        for metric in sorted(latest.get("metrics", {})):
            value = latest["metrics"][metric]
            up = _entry_higher_is_better(latest, metric)
            prior_values = [
                run["metrics"][metric]
                for run in priors
                if isinstance(run.get("metrics", {}).get(metric), (int, float))
            ]
            if not prior_values:
                rows.append({
                    "bench": bench, "metric": metric, "value": value,
                    "median": None, "ratio": None,
                    "direction": "up" if up else "down",
                    "regressed": False,
                })
                continue
            median = statistics.median(prior_values)
            if median == 0 or value == 0:
                # A zero on either side makes the ratio meaningless;
                # report the delta but never gate on it.
                ratio = None
                regressed = False
            else:
                ratio = value / median
                worse = median / value if up else value / median
                regressed = worse > threshold
            rows.append({
                "bench": bench, "metric": metric, "value": value,
                "median": round(median, 6), "ratio": round(ratio, 4) if ratio else None,
                "direction": "up" if up else "down",
                "regressed": regressed,
            })
    return rows


def render_table(rows: list[dict]) -> str:
    """The markdown delta table for a :func:`compare` result."""
    lines = [
        "| bench | metric | value | median (prior) | ratio | verdict |",
        "|---|---|---:|---:|---:|---|",
    ]
    for row in rows:
        median = f"{row['median']:g}" if row["median"] is not None else "—"
        ratio = f"{row['ratio']:.2f}x" if row["ratio"] is not None else "—"
        if row["regressed"]:
            verdict = "**REGRESSED**"
        elif row["median"] is None:
            verdict = "first run"
        else:
            verdict = "ok"
        arrow = "↑" if row["direction"] == "up" else "↓"
        lines.append(
            f"| {row['bench']} | {row['metric']} {arrow} | {row['value']:g} "
            f"| {median} | {ratio} | {verdict} |"
        )
    return "\n".join(lines)


def regressions(rows: list[dict]) -> list[dict]:
    return [row for row in rows if row["regressed"]]
