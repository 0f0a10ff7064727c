"""``repro serve ...`` — the serving subcommands.

``repro serve`` (or ``serve run``) starts the daemon; the other verbs
are thin clients.  With ``--socket``/``--http`` they RPC against a
running daemon; without a target the query verbs run in-process against
the store directly (same code path the daemon uses), which keeps
one-shot lookups scriptable without a background process.

Exit codes follow the repo convention: 0 success, 2 user/state errors
(unknown domain, missing artifact, bad snapshot spec), 1 internal
failures.
"""

from __future__ import annotations

import argparse
import json
import sys
import time

from ..obs import live as obs_live
from ..obs.slo import SLOError, parse_slo
from ..store import ArtifactStore
from ..world.build import WorldConfig
from .daemon import ServeDaemon, handle_request, rpc
from .service import InferenceService, ServiceError

_CLIENT_OPS = {
    "who-has": "who-has",
    "provider-stats": "provider-stats",
    "explain": "explain",
    "ingest": "ingest",
    "status": "status",
    "metrics": "metrics",
    "trace": "trace",
    "ready": "ready",
    "stop": "shutdown",
}

#: Client verbs that retry by default.  `ingest` is NOT here: retrying a
#: non-idempotent op whose connection died mid-flight risks a confusing
#: second application (rejected as "not ahead"); callers opt in with
#: --retries.
_RETRYING_OPS = {"who-has", "provider-stats", "explain", "status",
                 "metrics", "trace", "ready"}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro serve",
        description="Query daemon over stored inference maps, with "
                    "incremental snapshot ingestion",
    )
    parser.add_argument(
        "command",
        nargs="?",
        default="run",
        choices=["run", "top"] + sorted(_CLIENT_OPS),
        help="'run' starts the daemon (default); 'top' is a live metrics "
             "view; the rest are client verbs",
    )
    parser.add_argument(
        "argument",
        nargs="?",
        metavar="ARG",
        help="with 'who-has'/'explain': the domain; "
             "with 'ingest': the snapshot (index or ISO date); "
             "with 'trace': the trace id to replay",
    )
    parser.add_argument(
        "--socket", metavar="PATH", default=None,
        help="unix socket to listen on (run) or connect to (client verbs)",
    )
    parser.add_argument(
        "--http", metavar="HOST:PORT", default=None,
        help="HTTP address to listen on (run) or connect to (client verbs)",
    )
    parser.add_argument("--seed", type=int, default=7, help="world seed (default 7)")
    parser.add_argument(
        "--scale", type=float, default=1.0,
        help="corpus scale factor (must match the sweep that seeded the store)",
    )
    parser.add_argument(
        "--jobs", type=int, default=1, metavar="N",
        help="workers for ingest identification (results identical for any N)",
    )
    parser.add_argument(
        "--cache-dir", metavar="PATH", default=None,
        help="artifact store directory (default: REPRO_CACHE)",
    )
    parser.add_argument(
        "--cache-blocks", type=int, default=32, metavar="N",
        help="decoded columnar blocks kept hot in the LRU (default 32)",
    )
    parser.add_argument(
        "--corpus", metavar="NAME", default=None,
        help="restrict to one corpus (alexa/com/gov; default: search all)",
    )
    parser.add_argument(
        "--date", metavar="SNAPSHOT", default=None,
        help="snapshot index or ISO date (default: the latest snapshot)",
    )
    parser.add_argument(
        "--metrics-out", metavar="PATH", default=None,
        help="with 'run': write the metrics document (with the 'serve' "
             "section) on shutdown",
    )
    parser.add_argument(
        "--manifest-out", metavar="PATH", default=None,
        help="with 'run': write a run manifest (with the 'serve' section) "
             "on shutdown",
    )
    parser.add_argument(
        "--json", action="store_true",
        help="print raw JSON results (default for non-tty friendliness "
             "of everything but 'explain'/'trace', which render trees)",
    )
    parser.add_argument(
        "--slo", metavar="SPEC", default=None,
        help="with 'run': SLO objectives for the busiest endpoint, e.g. "
             "'p99=5ms,err=0.1%%' (burn rates exported on /metrics; "
             "status() reports degraded)",
    )
    parser.add_argument(
        "--flush-interval", type=float, default=None, metavar="SECONDS",
        help="with 'run': atomically rewrite --metrics-out/--manifest-out "
             "every N seconds (default: shutdown only)",
    )
    parser.add_argument(
        "--trace-ring", type=int, default=obs_live.DEFAULT_RING, metavar="N",
        help=f"with 'run': span-ring capacity in events "
             f"(default {obs_live.DEFAULT_RING})",
    )
    parser.add_argument(
        "--trace-jsonl", metavar="PATH", default=None,
        help="with 'run': also append every span to this JSONL stream "
             "(post-mortems beyond the ring horizon)",
    )
    parser.add_argument(
        "--trace", metavar="ID", default=None,
        help="client verbs: send this trace id with the request (the "
             "response echoes it; 'serve trace <id>' replays the spans)",
    )
    parser.add_argument(
        "--interval", type=float, default=2.0, metavar="SECONDS",
        help="with 'top': refresh period (default 2s)",
    )
    parser.add_argument(
        "--count", type=int, default=0, metavar="N",
        help="with 'top': stop after N refreshes (default: until ^C)",
    )
    # -- fault tolerance (the resilience layer) --------------------------
    parser.add_argument(
        "--workers", type=int, default=1, metavar="N",
        help="with 'run': prefork N supervised query workers behind the "
             "listeners (default 1: single-process daemon)",
    )
    parser.add_argument(
        "--timeout", type=float, default=60.0, metavar="SECONDS",
        help="client verbs: per-request RPC timeout (default 60s)",
    )
    parser.add_argument(
        "--retries", type=int, default=None, metavar="N",
        help="client verbs: RPC attempts with exponential backoff "
             "(default 3 for query verbs, 1 for 'ingest'/'stop')",
    )
    parser.add_argument(
        "--run-dir", metavar="PATH", default=None,
        help="with 'run': journal directory for the ingest WAL and worker "
             "lifecycle events (default <store>/serve-run; required for "
             "crash-safe ingest)",
    )
    parser.add_argument(
        "--max-inflight", type=int, default=64, metavar="N",
        help="with 'run': concurrent requests admitted per worker before "
             "shedding with 'overloaded' (default 64)",
    )
    parser.add_argument(
        "--queue-wait", type=float, default=0.05, metavar="SECONDS",
        help="with 'run': how long a request may wait for an admission "
             "slot before being shed (default 0.05s)",
    )
    parser.add_argument(
        "--worker-deadline", type=float, default=30.0, metavar="SECONDS",
        help="with 'run --workers N': a worker whose in-flight request "
             "makes no progress for this long is killed and replaced "
             "(default 30s)",
    )
    parser.add_argument(
        "--restart-budget", type=int, default=16, metavar="N",
        help="with 'run --workers N': total worker replacements before "
             "the pool gives up (default 16)",
    )
    parser.add_argument(
        "--breaker-failures", type=int, default=3, metavar="N",
        help="with 'run': consecutive ingest failures that trip the "
             "circuit breaker into stale serving (default 3)",
    )
    parser.add_argument(
        "--breaker-cooldown", type=float, default=30.0, metavar="SECONDS",
        help="with 'run': how long the tripped breaker rejects ingests "
             "before allowing a probe (default 30s)",
    )
    parser.add_argument(
        "--faults", metavar="SPEC", default=None,
        help="with 'run': chaos channels, e.g. "
             "'seed=7,serve.worker.crash=0.05,ingest.crash=1.0' "
             "(hash-pure; never changes answer bytes)",
    )
    return parser


def parse_http(raw: str | None) -> tuple[str, int] | None:
    if raw is None:
        return None
    host, _, port = raw.rpartition(":")
    if not host or not port.isdigit():
        raise ServiceError(
            f"--http expects HOST:PORT, got {raw!r}", code="bad-request"
        )
    return host, int(port)


def _store(args: argparse.Namespace) -> ArtifactStore | None:
    if args.cache_dir:
        return ArtifactStore(args.cache_dir)
    return ArtifactStore.from_env()


def _service(
    args: argparse.Namespace,
    journal=None,
    plan=None,
    watch_generation: bool = False,
) -> InferenceService:
    config = WorldConfig(seed=args.seed).scaled(args.scale)
    slo = None
    if args.slo:
        try:
            slo = parse_slo(args.slo)
        except SLOError as error:
            raise ServiceError(str(error), code="bad-request") from error
    breaker = None
    if journal is not None:
        from .resilience import IngestBreaker

        breaker = IngestBreaker(
            threshold=args.breaker_failures,
            cooldown=args.breaker_cooldown,
            journal=journal,
        )
    return InferenceService(
        config,
        _store(args),
        jobs=args.jobs,
        cache_blocks=args.cache_blocks,
        faults_key=plan.store_key() if plan is not None else None,
        slo=slo,
        trace_ring=args.trace_ring,
        trace_jsonl=args.trace_jsonl,
        journal=journal,
        breaker=breaker,
        fault_plan=plan,
        watch_generation=watch_generation,
    )


def _target(args: argparse.Namespace):
    """The RPC target from flags, or None for in-process execution."""
    if args.socket:
        return ("socket", args.socket)
    http_address = parse_http(args.http)
    if http_address is not None:
        return ("http", *http_address)
    return None


def _request(args: argparse.Namespace) -> dict:
    op = _CLIENT_OPS[args.command]
    request: dict = {"op": op}
    if args.trace:
        request["trace"] = args.trace
    if args.command == "trace":
        if not args.argument:
            raise ServiceError(
                "'trace' needs a trace id argument (the 'trace' field of "
                "any RPC response)",
                code="bad-request",
            )
        request["id"] = args.argument
    if args.command in ("who-has", "explain"):
        if not args.argument:
            raise ServiceError(
                f"'{args.command}' needs a domain argument", code="bad-request"
            )
        request["domain"] = args.argument
    if args.command == "ingest":
        if args.argument is None and args.date is None:
            raise ServiceError(
                "'ingest' needs a snapshot (index or ISO date)",
                code="bad-request",
            )
        request["snapshot"] = args.argument if args.argument is not None else args.date
        request["jobs"] = args.jobs
    elif args.command in ("who-has", "explain", "provider-stats"):
        request["snapshot"] = args.date
    if args.corpus:
        request["corpus"] = args.corpus
    return request


def _render(args: argparse.Namespace, result) -> None:
    if args.command == "explain" and not args.json:
        from ..obs.provenance import render_explanation

        print(render_explanation(result))
        return
    if args.command == "trace" and not args.json:
        print(obs_live.render_trace_tree(result))
        return
    print(json.dumps(result, indent=2, sort_keys=True))


def run_daemon(args: argparse.Namespace, argv: list[str]) -> int:
    from ..faults.plan import resolve_plan
    from ..resilience.journal import RunJournal, new_run_id
    from .resilience import AdmissionControl, ServeGuard

    if args.workers > 1:
        # Pool workers build their daemons without these, so no document
        # would ever be written: refuse rather than drop them silently.
        dropped = [
            flag
            for flag, value in (
                ("--metrics-out", args.metrics_out),
                ("--manifest-out", args.manifest_out),
                ("--flush-interval", args.flush_interval),
            )
            if value is not None
        ]
        if dropped:
            raise ServiceError(
                f"{', '.join(dropped)} cannot be combined with --workers "
                f"{args.workers}: pool workers write no metrics or manifest "
                "documents",
                code="bad-request",
            )
    try:
        plan = resolve_plan(args.faults, args.seed)
    except ValueError as error:
        raise ServiceError(str(error), code="bad-request") from error
    store = _store(args)
    if store is None:
        raise ServiceError(
            "serving requires an artifact store (set REPRO_CACHE or pass "
            "--cache-dir); there is nothing to serve without one",
            code="no-store",
        )
    socket_path = args.socket
    http_address = parse_http(args.http)
    if socket_path is None and http_address is None:
        # No listener requested: default to a socket next to the store,
        # so `repro serve` followed by `repro serve who-has ... --socket
        # <store>/serve.sock` just works.
        socket_path = str(store.root / "serve.sock")
    run_dir = args.run_dir or str(store.root / "serve-run")
    journal = RunJournal(run_dir, new_run_id())
    where = []
    if socket_path is not None:
        where.append(f"socket {socket_path}")
    if http_address is not None:
        where.append(f"http {http_address[0]}:{http_address[1]}")

    def admission():
        return AdmissionControl(args.max_inflight, args.queue_wait)

    if args.workers > 1:
        from .resilience import PoolOptions, WorkerPool

        pool = WorkerPool(
            service_factory=lambda: _service(
                args, journal=journal, plan=plan, watch_generation=True
            ),
            socket_path=socket_path,
            http_address=http_address,
            journal=journal,
            options=PoolOptions(
                workers=args.workers,
                restart_budget=args.restart_budget,
                worker_deadline=args.worker_deadline,
            ),
            plan=plan,
            admission_factory=admission,
        )
        print(f"serving inference maps on {', '.join(where)} "
              f"with {args.workers} workers "
              f"(store {store.root}, journal {journal.path})")
        return pool.run()
    service = _service(args, journal=journal, plan=plan)
    daemon = ServeDaemon(
        service,
        socket_path=socket_path,
        http_address=http_address,
        metrics_out=args.metrics_out,
        manifest_out=args.manifest_out,
        argv=["serve"] + list(argv),
        flush_interval=args.flush_interval,
        guard=ServeGuard(admission=admission(), plan=plan),
    )
    print(f"serving inference maps on {', '.join(where)} "
          f"(store {store.root})")
    service.recover()
    return daemon.run()


def render_top(metrics: dict) -> str:
    """One ``repro top`` frame from a ``metrics`` RPC result."""
    lines = []
    live = metrics.get("live")
    cache = metrics.get("block_cache", {})
    degraded = metrics.get("degraded", False)
    header = (
        f"repro top — uptime {metrics.get('uptime_s', 0):.0f}s"
        f" | cache hit {cache.get('hit_rate') if cache.get('hit_rate') is not None else '—'}"
        f" | blocks {cache.get('entries', 0)}/{cache.get('capacity', 0)}"
    )
    if degraded:
        header += " | DEGRADED"
    lines.append(header)
    if live is None:
        lines.append("(live telemetry disabled — lifetime histograms only)")
        for endpoint, snap in sorted(metrics.get("endpoints", {}).items()):
            lines.append(
                f"  {endpoint:<16} n={snap['count']:<8} "
                f"p50={snap['p50_ms']}ms p99={snap['p99_ms']}ms"
            )
        return "\n".join(lines)
    gauges = live.get("gauges", {})
    lines.append(
        f"rss {gauges.get('rss_bytes', 0) / 1e6:.1f}MB"
        + (
            f" | ingest lag {gauges['ingest_lag_s']:.1f}s"
            if gauges.get("ingest_lag_s") is not None
            else ""
        )
    )
    slo = live.get("slo")
    if slo and slo.get("objectives"):
        burns = ", ".join(
            f"{entry['name']}={entry['burn_rate']:.2f}x"
            for entry in slo["objectives"]
        )
        lines.append(f"slo[{slo.get('endpoint') or '—'}] burn: {burns}")
    lines.append(
        f"  {'endpoint':<16}{'win':>5}{'req':>8}{'qps':>9}"
        f"{'p50ms':>9}{'p95ms':>9}{'p99ms':>9}{'err%':>7}"
    )
    for endpoint, snap in sorted(live.get("endpoints", {}).items()):
        for window, stats in sorted(
            snap["windows"].items(), key=lambda item: stats_span(item[0])
        ):
            lines.append(
                f"  {endpoint:<16}{window:>5}{stats['requests']:>8}"
                f"{stats['qps']:>9.1f}{stats['p50_ms']:>9.3f}"
                f"{stats['p95_ms']:>9.3f}{stats['p99_ms']:>9.3f}"
                f"{100 * stats['error_rate']:>7.2f}"
            )
    return "\n".join(lines)


def stats_span(window: str) -> int:
    """Sort key for window labels like '10s'."""
    try:
        return int(window.rstrip("s"))
    except ValueError:
        return 0


def run_top(args: argparse.Namespace) -> int:
    """Plain-refresh live metrics view (no curses: redraw via ANSI home)."""
    target = _target(args)
    if target is None:
        raise ServiceError(
            "'top' needs a daemon target (--socket or --http)",
            code="bad-request",
        )
    frames = 0
    try:
        while True:
            response = rpc(target, {"op": "metrics"}, timeout=args.timeout)
            if not response.get("ok", False):
                print(f"serve: {response.get('error')}", file=sys.stderr)
                return 2
            frame = render_top(response["result"])
            if sys.stdout.isatty():
                sys.stdout.write("\x1b[2J\x1b[H")
            print(frame, flush=True)
            frames += 1
            if args.count and frames >= args.count:
                return 0
            time.sleep(max(0.1, args.interval))
    except KeyboardInterrupt:
        return 0


def main(argv: list[str] | None = None) -> int:
    argv = list(argv) if argv is not None else sys.argv[1:]
    args = build_parser().parse_args(argv)
    try:
        if args.command == "run":
            return run_daemon(args, argv)
        if args.command == "top":
            return run_top(args)
        request = _request(args)
        target = _target(args)
        if target is not None:
            from .resilience import RetryPolicy

            attempts = args.retries
            if attempts is None:
                attempts = 3 if args.command in _RETRYING_OPS else 1
            response = rpc(
                target,
                request,
                timeout=args.timeout,
                retry=RetryPolicy(attempts=max(1, attempts)),
            )
        else:
            if args.command == "stop":
                raise ServiceError(
                    "'stop' needs a daemon target (--socket or --http)",
                    code="bad-request",
                )
            response = handle_request(_service(args), request)
    except ServiceError as error:
        print(f"serve: {error}", file=sys.stderr)
        return 2
    except (OSError, ValueError) as error:
        print(f"serve: cannot reach daemon: {error}", file=sys.stderr)
        return 2
    if not response.get("ok", False):
        print(f"serve: {response.get('error')}", file=sys.stderr)
        return 1 if response.get("code") in ("internal", "corrupt") else 2
    _render(args, response["result"])
    return 0


if __name__ == "__main__":
    sys.exit(main())
