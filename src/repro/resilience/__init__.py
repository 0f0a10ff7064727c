"""repro.resilience: checkpointed, resumable runs with worker supervision.

Three cooperating pieces turn the measure→infer engine crash-safe:

* :mod:`repro.resilience.journal` — append-only JSONL run journals and
  the :class:`RunRecord` parser behind ``repro resume``;
* :mod:`repro.resilience.supervisor` — per-shard worker processes with
  crash detection, hung-shard watchdog, bounded restarts, and
  poison-shard quarantine;
* :mod:`repro.resilience.signals` / :mod:`repro.resilience.runner` —
  graceful SIGINT/SIGTERM shutdown and the :class:`RunContext` bundle
  (journal + shutdown flag + write-through shard checkpoints) the CLI
  threads through the execution layer.

Every sharded gather runs under the supervisor; what ``--run-dir`` /
``--runs-root`` adds is the journal, the shutdown flag and the shard
checkpoints.  Without them a run is supervised with restarts, deadline
and quarantine only, and writes nothing beyond its normal store entries.
"""

from .journal import (
    JOURNAL_NAME,
    JOURNAL_SCHEMA_VERSION,
    MANIFEST_NAME,
    PARTIAL_MANIFEST_NAME,
    RUNS_ENV,
    RunJournal,
    RunRecord,
    config_digest,
    new_run_id,
    read_events,
    runs_root,
)
from .runner import (
    BoundShardCheckpoint,
    ResumeError,
    RunContext,
    ShardCheckpointer,
    load_record,
    verify_resume_digest,
)
from .signals import RunInterrupted, ShutdownFlag, trap_shutdown
from .supervisor import (
    EXIT_INJECTED_CRASH,
    GatherSupervision,
    ProcessShardExecutor,
    ShardQuarantined,
    SupervisorOptions,
    ThreadShardExecutor,
    supervised_gather,
)

__all__ = [
    "JOURNAL_NAME",
    "JOURNAL_SCHEMA_VERSION",
    "MANIFEST_NAME",
    "PARTIAL_MANIFEST_NAME",
    "RUNS_ENV",
    "RunJournal",
    "RunRecord",
    "config_digest",
    "new_run_id",
    "read_events",
    "runs_root",
    "BoundShardCheckpoint",
    "ResumeError",
    "RunContext",
    "ShardCheckpointer",
    "load_record",
    "verify_resume_digest",
    "RunInterrupted",
    "ShutdownFlag",
    "trap_shutdown",
    "EXIT_INJECTED_CRASH",
    "GatherSupervision",
    "ProcessShardExecutor",
    "ShardQuarantined",
    "SupervisorOptions",
    "ThreadShardExecutor",
    "supervised_gather",
]
