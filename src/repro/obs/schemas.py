"""JSON schemas for the observability artifacts, plus a tiny validator.

CI runs a traced sweep and validates the resulting trace, metrics, and
manifest files against these schemas before uploading them as build
artifacts — so a refactor that silently changes an export format fails
the build instead of breaking downstream dashboards.

The validator implements the small JSON-Schema subset the schemas use
(``type``, ``properties``, ``required``, ``items``, ``enum``,
``minItems``) — the container ships no ``jsonschema`` package, and these
documents do not need more.
"""

from __future__ import annotations

import json
import re

_TYPES = {
    "object": dict,
    "array": list,
    "string": str,
    "integer": int,
    "number": (int, float),
    "boolean": bool,
    "null": type(None),
}

TRACE_EVENT_SCHEMA = {
    "type": "object",
    "required": ["name", "ph", "ts", "pid", "tid"],
    "properties": {
        "name": {"type": "string"},
        "cat": {"type": "string"},
        "ph": {"type": "string", "enum": ["X", "i", "M"]},
        "ts": {"type": "number"},
        "dur": {"type": "number"},
        "pid": {"type": "integer"},
        "tid": {"type": "integer"},
        "args": {"type": "object"},
    },
}

TRACE_SCHEMA = {
    "type": "object",
    "required": ["traceEvents"],
    "properties": {
        "traceEvents": {
            "type": "array",
            "minItems": 1,
            "items": TRACE_EVENT_SCHEMA,
        },
        "displayTimeUnit": {"type": "string"},
        "otherData": {"type": "object"},
    },
}

# Shared by metrics v2 and manifest v2: process peak/current RSS plus
# the streamed measure path's batch and spill counters.
MEMORY_SCHEMA = {
    "type": "object",
    "required": ["peak_rss_bytes", "current_rss_bytes", "batches"],
    "properties": {
        "peak_rss_bytes": {"type": "integer"},
        "current_rss_bytes": {"type": "integer"},
        "batches": {"type": "integer"},
        "spilled_batches": {"type": "integer"},
        "restored_batches": {"type": "integer"},
        "spill_bytes": {"type": "integer"},
        "batch_bytes": {"type": "integer"},
    },
}

# Emitted by the query daemon (metrics "serve" section, manifest ditto):
# per-endpoint latency histograms plus block-cache effectiveness.
SERVE_SECTION_SCHEMA = {
    "type": "object",
    "required": ["endpoints", "block_cache"],
    "properties": {
        "uptime_s": {"type": "number"},
        "endpoints": {"type": "object"},
        "block_cache": {
            "type": "object",
            "required": ["hits", "misses"],
            "properties": {
                "hits": {"type": "integer"},
                "misses": {"type": "integer"},
                "entries": {"type": "integer"},
                "capacity": {"type": "integer"},
            },
        },
        "ingests": {"type": "array"},
        # Present when the daemon runs with resilience features enabled
        # (worker pool, admission control, ingest breaker, WAL journal):
        # queue depth / shed counters and circuit-breaker state.
        "resilience": {
            "type": "object",
            "properties": {
                "ready": {"type": "boolean"},
                "inflight": {"type": "integer"},
                "queue_depth": {"type": "integer"},
                "max_inflight": {"type": "integer"},
                "shed": {"type": "integer"},
                "quarantined": {"type": "integer"},
                "breaker": {"type": "object"},
                "wal": {"type": "object"},
            },
        },
        # Present when live telemetry is on (the default): sliding-window
        # quantiles/qps/error rates, gauges, and the SLO report.
        "live": {
            "type": "object",
            "required": ["schema", "endpoints", "gauges"],
            "properties": {
                "schema": {"type": "integer"},
                "endpoints": {"type": "object"},
                "gauges": {"type": "object"},
                "slo": {},
                "trace_ring_events": {"type": "integer"},
            },
        },
        "degraded": {"type": "boolean"},
    },
}

METRICS_SCHEMA = {
    "type": "object",
    "required": ["schema", "counters", "caches", "memory", "timers", "shards"],
    "properties": {
        "schema": {"type": "integer"},
        "counters": {"type": "object"},
        "caches": {"type": "object"},
        "memory": MEMORY_SCHEMA,
        "timers": {"type": "object"},
        "shards": {"type": "object"},
        # Present only on daemon runs (--metrics-out from `repro serve`).
        "serve": SERVE_SECTION_SCHEMA,
    },
}

# v3: every bench JSON document and each of its rows carries a
# ``bench_schema`` stamp, so trajectory tooling can reject mixed-version
# row sets instead of misreading renamed fields.
# v4: one unified document shape for every sweep script — run-wide knobs
# live under a required ``context`` object and ``failures`` is always
# present — built by :func:`bench_document` so no script hand-rolls the
# envelope (the ad-hoc per-script shapes of v3 are gone).
BENCH_SCHEMA_VERSION = 4

BENCH_SCHEMA = {
    "type": "object",
    "required": ["bench", "bench_schema", "context", "rows", "failures"],
    "properties": {
        "bench": {"type": "string"},
        "bench_schema": {"type": "integer"},
        "context": {"type": "object"},
        "rows": {
            "type": "array",
            "items": {
                "type": "object",
                "required": ["bench_schema"],
                "properties": {"bench_schema": {"type": "integer"}},
            },
        },
        "failures": {"type": "array"},
    },
}


def bench_document(
    bench: str,
    rows: list,
    *,
    failures: list | None = None,
    **context,
) -> dict:
    """The unified bench envelope every sweep script writes.

    Rows get their ``bench_schema`` stamp here (existing stamps are
    preserved so callers can't desynchronize a row from its document),
    and run-wide knobs (scale, jobs, gates, ...) land under ``context``.
    """
    return {
        "bench": bench,
        "bench_schema": BENCH_SCHEMA_VERSION,
        "context": {
            key: value for key, value in sorted(context.items())
        },
        "rows": [
            {"bench_schema": BENCH_SCHEMA_VERSION, **row} for row in rows
        ],
        "failures": list(failures or []),
    }


# One line of BENCH_history.jsonl (the cross-run perf timeline): the
# distilled metrics of one recorded sweep run.
HISTORY_EVENT_SCHEMA = {
    "type": "object",
    "required": ["history_schema", "bench", "run", "recorded", "metrics"],
    "properties": {
        "history_schema": {"type": "integer"},
        "bench": {"type": "string"},
        "bench_schema": {"type": "integer"},
        "run": {"type": "string"},
        "source": {},  # a path string, or null for hand-seeded entries
        "recorded": {"type": "number"},
        "metrics": {"type": "object"},
        # metric -> "higher"/"lower", when the document declared polarity.
        "better": {"type": "object"},
    },
}

MANIFEST_SCHEMA = {
    "type": "object",
    "required": [
        "schema", "world", "schemas", "experiments", "timing", "runtime", "memory",
    ],
    "properties": {
        "schema": {"type": "integer"},
        "created_at": {"type": "string"},
        "argv": {"type": "array"},
        "memory": MEMORY_SCHEMA,
        "world": {
            "type": "object",
            "required": ["seed", "snapshot_dates"],
            "properties": {
                "seed": {"type": "integer"},
                "snapshot_dates": {"type": "array", "minItems": 1},
            },
        },
        "schemas": {"type": "object"},
        "experiments": {"type": "array"},
        "timing": {"type": "object"},
        "runtime": {"type": "object"},
        # Present only on daemon runs (`repro serve` shutdown manifest).
        "serve": SERVE_SECTION_SCHEMA,
        # Present only on faulted runs (fault-free manifests omit it).
        "faults": {
            "type": "object",
            "required": ["seed", "spec"],
            "properties": {
                "seed": {"type": "integer"},
                "spec": {"type": "string"},
            },
        },
        # Present only on resilient runs (journal + checkpoints active).
        "resilience": {
            "type": "object",
            "required": ["run_id", "run_dir", "status"],
            "properties": {
                "run_id": {"type": "string"},
                "run_dir": {"type": "string"},
                "status": {
                    "type": "string",
                    "enum": ["complete", "interrupted", "failed"],
                },
                "resume_count": {"type": "integer"},
                "lineage": {"type": "object"},
            },
        },
    },
}

JOURNAL_EVENT_SCHEMA = {
    "type": "object",
    "required": ["schema", "event", "run", "ts"],
    "properties": {
        "schema": {"type": "integer"},
        "event": {
            "type": "string",
            "enum": [
                "run.start",
                "run.resume",
                "run.interrupted",
                "run.complete",
                "run.failed",
                "experiment.done",
                "snapshot.done",
                "shard.start",
                "shard.done",
                "shard.restored",
                "shard.crash",
                "shard.hung",
                "shard.quarantined",
                "shard.lease",
                "shard.stolen",
                "shard.lost",
                "host.join",
                "host.lost",
                # Serving layer (repro.serve.resilience): worker-pool
                # lifecycle plus the crash-safe ingest WAL.
                "serve.start",
                "serve.ready",
                "serve.stop",
                "serve.worker.start",
                "serve.worker.lost",
                "serve.worker.restart",
                "serve.request.quarantined",
                "serve.breaker.open",
                "serve.breaker.close",
                "ingest.wal.begin",
                "ingest.wal.commit",
                "ingest.wal.replay",
                "ingest.wal.failed",
            ],
        },
        "run": {"type": "string"},
        "ts": {"type": "number"},
        "corpus": {"type": "string"},
        "snapshot": {"type": "integer"},
        "shard": {"type": "integer"},
        "attempt": {"type": "integer"},
        "attempts": {"type": "integer"},
        "seconds": {"type": "number"},
        "targets": {"type": "integer"},
        "experiment": {"type": "string"},
        "experiments": {"type": "array"},
        "reason": {"type": "string"},
        "reasons": {"type": "array"},
        "signal": {"type": "string"},
        "args": {"type": "object"},
        "config_digest": {"type": "string"},
        "resume": {"type": "integer"},
        # Distributed-executor fields (repro.dist): host/lease lifecycle.
        "host": {"type": "string"},
        "lease": {"type": "integer"},
        "pool": {"type": "integer"},
        "stolen": {"type": "boolean"},
        "victim": {"type": "string"},
        # Serving-layer fields (repro.serve.resilience): worker slots,
        # blamed requests, and WAL intent records.
        "worker": {"type": "integer"},
        "pid": {"type": "integer"},
        "exit": {"type": "integer"},
        "workers": {"type": "integer"},
        "restarts": {"type": "integer"},
        "request": {"type": "string"},
        "op": {"type": "string"},
        "corpora": {"type": "array"},
        "replay": {"type": "boolean"},
        "error": {"type": "string"},
        "failures": {"type": "integer"},
        "socket": {"type": "string"},
        "http": {"type": "string"},
    },
}

# -- distributed executor wire format ------------------------------------

#: Version stamp every repro.dist RPC message carries (field ``v``).
DIST_PROTOCOL_VERSION = 1

#: One line-JSON message on a coordinator/worker connection.  Messages
#: are strict request/response pairs; payloads ride as base64 of the
#: columnar measurement codec (the PR 2/PR 6 on-disk format doubles as
#: the wire format).
DIST_MESSAGE_SCHEMA = {
    "type": "object",
    "required": ["v", "type"],
    "properties": {
        "v": {"type": "integer"},
        "type": {
            "type": "string",
            "enum": [
                "hello",
                "welcome",
                "lease-request",
                "lease",
                "no-work",
                "result",
                "heartbeat",
                "ack",
                "shutdown",
                "error",
            ],
        },
        # hello / lease-request / result / heartbeat
        "host": {"type": "string"},
        "pool": {"type": "integer"},
        "pid": {"type": "integer"},
        # welcome
        "run": {},  # run id string, or null outside resilient runs
        "world": {"type": "object"},
        "faults": {},  # canonical fault spec string, or null
        "heartbeat_interval": {"type": "number"},
        "heartbeat_timeout": {"type": "number"},
        "cache_dir": {},  # shared store path string, or null
        # lease / result
        "gather": {"type": "integer"},
        "lease": {"type": "integer"},
        "shard": {"type": "integer"},
        "shard_count": {"type": "integer"},
        "attempt": {"type": "integer"},
        "snapshot": {"type": "integer"},
        "corpus": {"type": "string"},
        "scope": {"type": "string"},
        "domains": {"type": "array"},
        "stolen": {"type": "boolean"},
        "payload": {"type": "string"},
        "elapsed": {"type": "number"},
        "stats": {"type": "object"},
        "events": {"type": "array"},
        # result failure reporting (worker-level fault met remotely)
        "failed": {"type": "string", "enum": ["crash", "hung"]},
        # no-work
        "idle": {"type": "boolean"},
        "retry_after": {"type": "number"},
        # error
        "reason": {"type": "string"},
    },
}

PROVENANCE_SCHEMA = {
    "type": "object",
    "required": ["schema", "domain", "corpus", "snapshot", "status", "mx"],
    "properties": {
        "schema": {"type": "integer"},
        "domain": {"type": "string"},
        "corpus": {"type": "string", "enum": ["alexa", "com", "gov"]},
        "snapshot": {"type": "integer"},
        "status": {
            "type": "string",
            "enum": ["inferred", "no_mx", "no_mx_ip", "no_smtp"],
        },
        "attributions": {"type": "object"},
        "mx": {
            "type": "array",
            "items": {
                "type": "object",
                "required": ["name", "provider_id", "evidence", "ips"],
                "properties": {
                    "name": {"type": "string"},
                    "provider_id": {"type": "string"},
                    "evidence": {"type": "string", "enum": ["cert", "banner", "mx"]},
                    "corrected": {"type": "boolean"},
                    "examined": {"type": "boolean"},
                    "ips": {"type": "array"},
                },
            },
        },
        # Present only on faulted runs with injected evidence loss.
        "evidence_loss": {
            "type": "array",
            "items": {
                "type": "object",
                "required": ["lost", "reason"],
                "properties": {
                    "lost": {"type": "array", "minItems": 1},
                    "reason": {"type": "string"},
                },
            },
        },
    },
}


def validate(instance, schema: dict, path: str = "$") -> list[str]:
    """Errors of *instance* against *schema* (empty list = valid)."""
    errors: list[str] = []
    expected = schema.get("type")
    if expected is not None:
        python_type = _TYPES[expected]
        if not isinstance(instance, python_type) or (
            expected in ("integer", "number") and isinstance(instance, bool)
        ):
            return [f"{path}: expected {expected}, got {type(instance).__name__}"]
    if "enum" in schema and instance not in schema["enum"]:
        errors.append(f"{path}: {instance!r} not in {schema['enum']}")
    if isinstance(instance, dict):
        for name in schema.get("required", ()):
            if name not in instance:
                errors.append(f"{path}: missing required member {name!r}")
        for name, subschema in schema.get("properties", {}).items():
            if name in instance:
                errors.extend(validate(instance[name], subschema, f"{path}.{name}"))
    if isinstance(instance, list):
        if len(instance) < schema.get("minItems", 0):
            errors.append(
                f"{path}: {len(instance)} items < minItems {schema['minItems']}"
            )
        items = schema.get("items")
        if items is not None:
            for index, element in enumerate(instance):
                errors.extend(validate(element, items, f"{path}[{index}]"))
    return errors


def validate_file(path: str, schema: dict) -> list[str]:
    """Load a JSON document and validate it; IO/parse problems are errors."""
    try:
        with open(path) as handle:
            instance = json.load(handle)
    except (OSError, ValueError) as error:
        return [f"{path}: unreadable ({error})"]
    return validate(instance, schema, path="$")


_PROM_NAME = r"[a-zA-Z_:][a-zA-Z0-9_:]*"
_PROM_SAMPLE = re.compile(
    rf"^({_PROM_NAME})(\{{[^{{}}]*\}})? (-?\d+(\.\d+)?([eE][+-]?\d+)?|[+-]?Inf|NaN)$"
)
_PROM_LABELS = re.compile(
    rf'^{_PROM_NAME}="(?:[^"\\]|\\.)*"(?:,{_PROM_NAME}="(?:[^"\\]|\\.)*")*,?$'
)


def validate_prometheus(text: str, path: str = "<prom>") -> list[str]:
    """Errors of a Prometheus text exposition (empty list = valid).

    Checks the subset a scrape endpoint must get right: sample lines
    parse (name, optional label set, float value), label sets are
    well-formed, every ``# TYPE`` names a metric family that then
    appears, and no family is re-declared.
    """
    errors: list[str] = []
    declared: set[str] = set()
    sampled: set[str] = set()
    for number, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        if line.startswith("#"):
            parts = line.split(None, 3)
            if len(parts) >= 3 and parts[1] == "TYPE":
                family = parts[2]
                if family in declared:
                    errors.append(f"{path}:{number}: duplicate TYPE for {family}")
                declared.add(family)
            elif len(parts) >= 2 and parts[1] not in ("HELP", "TYPE"):
                errors.append(f"{path}:{number}: unknown comment {parts[1]!r}")
            continue
        match = _PROM_SAMPLE.match(line)
        if match is None:
            errors.append(f"{path}:{number}: unparseable sample {line!r}")
            continue
        name, labels = match.group(1), match.group(2)
        if labels and not _PROM_LABELS.match(labels[1:-1]):
            errors.append(f"{path}:{number}: malformed labels {labels!r}")
        sampled.add(name)
    for family in sorted(declared):
        # Histogram/summary families sample under _bucket/_sum/_count.
        if family in sampled or any(
            f"{family}{suffix}" in sampled
            for suffix in ("_bucket", "_sum", "_count")
        ):
            continue
        errors.append(f"{path}: TYPE declared but never sampled: {family}")
    return errors


def validate_prometheus_file(path: str) -> list[str]:
    try:
        with open(path) as handle:
            text = handle.read()
    except OSError as error:
        return [f"{path}: unreadable ({error})"]
    return validate_prometheus(text, path=path)


def validate_jsonl_file(path: str, schema: dict) -> list[str]:
    """Validate every line of a JSONL stream against one event schema."""
    errors: list[str] = []
    try:
        with open(path) as handle:
            for number, line in enumerate(handle, start=1):
                if not line.strip():
                    continue
                try:
                    event = json.loads(line)
                except ValueError as error:
                    errors.append(f"{path}:{number}: bad JSON ({error})")
                    continue
                errors.extend(validate(event, schema, path=f"{path}:{number}"))
    except OSError as error:
        return [f"{path}: unreadable ({error})"]
    return errors
