"""``repro obs ...`` — operator tooling over observability artifacts.

Two subcommands:

* ``repro obs report`` — a human-readable markdown summary built from
  the artifacts a run (or a daemon flush) leaves behind: the metrics
  JSON document (``--metrics``), and optionally a span stream
  (``--trace-jsonl``).
* ``repro obs timeline`` — the cross-run perf timeline: fold bench
  documents (bench_sweep / serve_sweep / chaos_sweep ``--json`` output,
  or saved perfbench stdout) into an append-only history file and
  compare the latest run of each bench against the rolling median of
  its prior runs.  ``--check`` turns regressions into a non-zero exit
  for CI.

Exit codes: 0 success, 1 regression detected (``timeline --check``),
2 user/input errors.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from . import timeline as obs_timeline


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro obs",
        description="Observability reports and the cross-run perf timeline",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    report = sub.add_parser(
        "report", help="markdown summary of a run's telemetry artifacts"
    )
    report.add_argument(
        "--metrics", metavar="PATH", required=True,
        help="metrics JSON document (from --metrics-out)",
    )
    report.add_argument(
        "--trace-jsonl", metavar="PATH", default=None,
        help="span JSONL stream (from --trace / --trace-jsonl)",
    )
    report.add_argument(
        "--top-spans", type=int, default=10, metavar="N",
        help="slowest spans to list (default 10)",
    )

    tl = sub.add_parser(
        "timeline", help="fold bench documents into the perf history and diff"
    )
    tl.add_argument(
        "documents", nargs="*", metavar="BENCH_JSON",
        help="bench documents to record (sweep --json output files, or "
             "saved perfbench stdout, whose metric polarity comes from the "
             f"{obs_timeline.BENCHMARK_FILE} beside --history)",
    )
    tl.add_argument(
        "--history", metavar="PATH", default=obs_timeline.DEFAULT_HISTORY,
        help=f"history file (default {obs_timeline.DEFAULT_HISTORY})",
    )
    tl.add_argument(
        "--add", action="store_true",
        help="append the documents to the history before comparing",
    )
    tl.add_argument(
        "--check", action="store_true",
        help="exit 1 when any metric regressed beyond the threshold",
    )
    tl.add_argument(
        "--threshold", type=float, default=obs_timeline.DEFAULT_THRESHOLD,
        metavar="RATIO",
        help="worse-direction ratio vs the rolling median that counts as "
             f"a regression (default {obs_timeline.DEFAULT_THRESHOLD})",
    )
    tl.add_argument(
        "--window", type=int, default=obs_timeline.DEFAULT_WINDOW, metavar="N",
        help="prior runs in the rolling median "
             f"(default {obs_timeline.DEFAULT_WINDOW})",
    )
    tl.add_argument(
        "--run", metavar="ID", default=None,
        help="run id to record with --add (default: $GITHUB_RUN_ID or a "
             "local timestamp)",
    )
    tl.add_argument(
        "--json", action="store_true",
        help="print the delta rows as JSON instead of a markdown table",
    )
    return parser


# -- report --------------------------------------------------------------


def _fmt(value) -> str:
    if value is None:
        return "—"
    if isinstance(value, float):
        return f"{value:g}"
    return str(value)


def render_report(metrics: dict, spans: list[dict], top_spans: int) -> str:
    """The markdown report over one metrics document (+ optional spans)."""
    lines = ["# repro observability report", ""]
    serve = metrics.get("serve")
    counters = metrics.get("counters", {})
    if counters:
        lines += ["## Engine counters (top 12)", ""]
        ranked = sorted(counters.items(), key=lambda item: -item[1])[:12]
        lines += ["| counter | value |", "|---|---:|"]
        lines += [f"| {name} | {value} |" for name, value in ranked]
        lines.append("")
    if serve:
        lines += ["## Serve endpoints (lifetime)", ""]
        lines += [
            "| endpoint | requests | mean | p50 | p99 | max |",
            "|---|---:|---:|---:|---:|---:|",
        ]
        for endpoint, snap in sorted(serve.get("endpoints", {}).items()):
            lines.append(
                f"| {endpoint} | {snap['count']} | {snap['mean_ms']}ms "
                f"| {snap['p50_ms']}ms | {snap['p99_ms']}ms | {snap['max_ms']}ms |"
            )
        cache = serve.get("block_cache", {})
        lines += [
            "",
            f"Block cache: {cache.get('hits', 0)} hits / "
            f"{cache.get('misses', 0)} misses "
            f"(hit rate {_fmt(cache.get('hit_rate'))}), "
            f"{cache.get('entries', 0)}/{cache.get('capacity', 0)} blocks held.",
        ]
        live = serve.get("live")
        if live:
            gauges = live.get("gauges", {})
            lines += [
                "",
                "## Live telemetry",
                "",
                f"- uptime: {_fmt(gauges.get('uptime_s'))}s",
                f"- RSS: {gauges.get('rss_bytes', 0) / 1e6:.1f} MB",
                f"- cache hit rate: {_fmt(gauges.get('cache_hit_rate'))}",
                f"- ingest lag: {_fmt(gauges.get('ingest_lag_s'))}s",
                f"- degraded: {serve.get('degraded', False)}",
            ]
            slo = live.get("slo")
            if slo and slo.get("objectives"):
                lines += ["", "### SLO burn rates", ""]
                lines += ["| objective | observed | target | burn | ok |",
                          "|---|---:|---:|---:|---|"]
                for entry in slo["objectives"]:
                    lines.append(
                        f"| {entry['name']} | {_fmt(entry['observed'])} "
                        f"| {_fmt(entry['objective'])} "
                        f"| {entry['burn_rate']:.2f}x | {entry['ok']} |"
                    )
            lines += ["", "### Sliding windows (60s)", ""]
            lines += [
                "| endpoint | req | qps | p50 | p95 | p99 | err |",
                "|---|---:|---:|---:|---:|---:|---:|",
            ]
            for endpoint, snap in sorted(live.get("endpoints", {}).items()):
                window = snap.get("windows", {}).get("60s")
                if not window:
                    continue
                lines.append(
                    f"| {endpoint} | {window['requests']} | {window['qps']} "
                    f"| {window['p50_ms']}ms | {window['p95_ms']}ms "
                    f"| {window['p99_ms']}ms | {window['error_rate']} |"
                )
    if spans:
        durable = [event for event in spans if event.get("ph") == "X"]
        by_cat: dict[str, int] = {}
        for event in durable:
            by_cat[event.get("cat", "?")] = by_cat.get(event.get("cat", "?"), 0) + 1
        lines += ["", "## Spans", ""]
        lines.append(
            f"{len(durable)} spans across {len(by_cat)} categories: "
            + ", ".join(f"{cat}={count}" for cat, count in sorted(by_cat.items()))
        )
        slowest = sorted(
            durable, key=lambda event: -event.get("dur", 0.0)
        )[:top_spans]
        lines += ["", "| span | cat | ms |", "|---|---|---:|"]
        for event in slowest:
            lines.append(
                f"| {event['name']} | {event.get('cat', '?')} "
                f"| {event.get('dur', 0.0) / 1e3:.3f} |"
            )
    return "\n".join(lines)


def run_report(args: argparse.Namespace) -> int:
    try:
        with open(args.metrics) as handle:
            metrics = json.load(handle)
    except (OSError, ValueError) as error:
        print(f"obs report: cannot read {args.metrics}: {error}", file=sys.stderr)
        return 2
    spans: list[dict] = []
    if args.trace_jsonl:
        try:
            with open(args.trace_jsonl) as handle:
                for line in handle:
                    line = line.strip()
                    if line:
                        spans.append(json.loads(line))
        except (OSError, ValueError) as error:
            print(
                f"obs report: cannot read {args.trace_jsonl}: {error}",
                file=sys.stderr,
            )
            return 2
    print(render_report(metrics, spans, args.top_spans))
    return 0


# -- timeline ------------------------------------------------------------


def run_timeline(args: argparse.Namespace) -> int:
    try:
        entries = obs_timeline.read_history(args.history)
        benchmark = os.path.join(
            os.path.dirname(os.path.abspath(args.history)),
            obs_timeline.BENCHMARK_FILE,
        )
        for path in args.documents:
            try:
                document = obs_timeline.load_document(path, benchmark)
            except (OSError, ValueError) as error:
                print(f"obs timeline: cannot read {path}: {error}", file=sys.stderr)
                return 2
            entry = obs_timeline.history_entry(
                document, source=path, run=args.run
            )
            entries.append(entry)
            if args.add:
                obs_timeline.append_history(args.history, entry)
    except obs_timeline.TimelineError as error:
        print(f"obs timeline: {error}", file=sys.stderr)
        return 2
    if not entries:
        print(
            f"obs timeline: no history at {args.history} and no documents "
            "given; record runs with --add first",
            file=sys.stderr,
        )
        return 2
    rows = obs_timeline.compare(
        entries, threshold=args.threshold, window=args.window
    )
    if args.json:
        print(json.dumps(rows, indent=2, sort_keys=True))
    else:
        print(obs_timeline.render_table(rows))
    bad = obs_timeline.regressions(rows)
    if bad:
        for row in bad:
            print(
                f"REGRESSION {row['bench']}:{row['metric']} = {row['value']:g} "
                f"vs median {row['median']:g} ({row['ratio']:.2f}x, "
                f"threshold {args.threshold:g}x)",
                file=sys.stderr,
            )
        if args.check:
            return 1
    return 0


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(
        list(argv) if argv is not None else sys.argv[1:]
    )
    if args.command == "report":
        return run_report(args)
    return run_timeline(args)


if __name__ == "__main__":
    sys.exit(main())
