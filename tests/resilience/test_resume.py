"""Resume CLI tests: journals, manifests, digests, and warm re-runs.

These run the CLI in-process (``main(argv)``): a resilient run completes
and journals, a resume of it reproduces identical stdout from the warm
store, and the guard rails (digest drift, occupied run dirs, missing
journals) fail with exit code 2 instead of tracebacks.  Kill-based
resume equivalence is covered by ``tests/resilience/test_signals.py``
and ``scripts/resilience_sweep.py``, which need real subprocesses.
"""

import json

import pytest

from repro.cli import main
from repro.engine.stats import reset_stats
from repro.obs.schemas import MANIFEST_SCHEMA, validate_file
from repro.resilience import (
    JOURNAL_NAME,
    MANIFEST_NAME,
    RunRecord,
    read_events,
)

SCALE = "0.2"


def resilient_run(tmp_path, capsys, *extra):
    run_dir = tmp_path / "run"
    cache = tmp_path / "cache"
    reset_stats()
    code = main([
        "tab4", "--scale", SCALE, "--cache-dir", str(cache),
        "--run-dir", str(run_dir), *extra,
    ])
    captured = capsys.readouterr()
    return code, run_dir, captured


class TestResilientRun:
    def test_completes_with_journal_and_manifest(self, tmp_path, capsys):
        code, run_dir, captured = resilient_run(tmp_path, capsys)
        assert code == 0
        assert "resilient run" in captured.err
        events = read_events(run_dir / JOURNAL_NAME)
        kinds = [event["event"] for event in events]
        assert kinds[0] == "run.start"
        assert kinds[-1] == "run.complete"
        assert "snapshot.done" in kinds and "experiment.done" in kinds
        record = RunRecord.from_dir(run_dir)
        assert record.completed and record.experiments_done == ("tab4",)
        manifest_path = run_dir / MANIFEST_NAME
        assert validate_file(str(manifest_path), MANIFEST_SCHEMA) == []
        manifest = json.loads(manifest_path.read_text())
        assert manifest["resilience"]["status"] == "complete"
        assert manifest["resilience"]["run_id"] == record.run_id

    def test_stdout_matches_plain_run(self, tmp_path, capsys):
        """Journal/checkpoint plumbing must not perturb printed artifacts."""
        reset_stats()
        assert main(["tab4", "--scale", SCALE, "--no-cache"]) == 0
        plain = capsys.readouterr().out
        code, _run_dir, captured = resilient_run(tmp_path, capsys)
        assert code == 0
        assert captured.out == plain

    def test_occupied_run_dir_is_rejected(self, tmp_path, capsys):
        code, run_dir, _ = resilient_run(tmp_path, capsys)
        assert code == 0
        reset_stats()
        assert main([
            "tab4", "--scale", SCALE, "--no-cache", "--run-dir", str(run_dir),
        ]) == 2
        assert "journal" in capsys.readouterr().err


class TestResume:
    def test_warm_resume_reproduces_stdout(self, tmp_path, capsys):
        code, run_dir, first = resilient_run(tmp_path, capsys)
        assert code == 0
        reset_stats()
        assert main(["resume", "--run-dir", str(run_dir)]) == 0
        resumed = capsys.readouterr()
        assert resumed.out == first.out
        assert "already completed; re-running warm" in resumed.err
        record = RunRecord.from_dir(run_dir)
        assert record.completed
        assert record.resume_count == 1

    def test_batched_run_and_resume_keep_stdout(self, tmp_path, capsys):
        """Streamed gathers (--batch-domains) are invisible to resume.

        A batched resilient run must print exactly what the plain
        unbatched run prints, and resuming it must reproduce that byte
        stream again from batch-plan-keyed checkpoints.
        """
        reset_stats()
        assert main(["tab4", "--scale", SCALE, "--no-cache"]) == 0
        plain = capsys.readouterr().out
        code, run_dir, first = resilient_run(
            tmp_path, capsys, "--batch-domains", "7"
        )
        assert code == 0
        assert first.out == plain
        reset_stats()
        assert main([
            "resume", "--run-dir", str(run_dir), "--batch-domains", "7",
        ]) == 0
        assert capsys.readouterr().out == plain

    def test_parallel_batched_run_and_resume_keep_stdout(self, tmp_path, capsys):
        """Batches of at least 64 domains shard across supervised workers.

        Their shard checkpoints key on the batch plan; the resilient run
        and its resume must still print exactly what the plain run
        prints.
        """
        reset_stats()
        assert main(["tab4", "--scale", SCALE, "--no-cache"]) == 0
        plain = capsys.readouterr().out
        code, run_dir, first = resilient_run(
            tmp_path, capsys, "--jobs", "2", "--batch-domains", "100"
        )
        assert code == 0
        assert first.out == plain
        reset_stats()
        assert main(["resume", "--run-dir", str(run_dir)]) == 0
        assert capsys.readouterr().out == plain

    def test_jobs_override_keeps_stdout(self, tmp_path, capsys):
        code, run_dir, first = resilient_run(tmp_path, capsys)
        assert code == 0
        reset_stats()
        assert main(["resume", "--run-dir", str(run_dir), "--jobs", "2"]) == 0
        assert capsys.readouterr().out == first.out

    def test_digest_drift_is_rejected(self, tmp_path, capsys):
        code, run_dir, _ = resilient_run(tmp_path, capsys)
        assert code == 0
        journal_path = run_dir / JOURNAL_NAME
        events = read_events(journal_path)
        events[0]["config_digest"] = "0" * 64
        journal_path.write_text(
            "".join(json.dumps(event) + "\n" for event in events)
        )
        reset_stats()
        assert main(["resume", "--run-dir", str(run_dir)]) == 2
        assert "digest mismatch" in capsys.readouterr().err

    def test_missing_journal_is_rejected(self, tmp_path, capsys):
        assert main(["resume", "--run-dir", str(tmp_path / "nope")]) == 2
        assert "journal" in capsys.readouterr().err

    def test_run_id_requires_a_runs_root(self, monkeypatch, capsys):
        monkeypatch.delenv("REPRO_RUNS", raising=False)
        assert main(["resume", "r20260101-000000-abcdef"]) == 2
        assert "--runs-root" in capsys.readouterr().err

    def test_resume_needs_an_argument(self, capsys):
        with pytest.raises(SystemExit):
            main(["resume"])


class TestRunsRoot:
    def test_runs_root_allocates_and_resumes_by_id(self, tmp_path, capsys):
        root = tmp_path / "runs"
        cache = tmp_path / "cache"
        reset_stats()
        assert main([
            "tab4", "--scale", SCALE, "--cache-dir", str(cache),
            "--runs-root", str(root),
        ]) == 0
        first = capsys.readouterr()
        run_dirs = [path for path in root.iterdir() if path.is_dir()]
        assert len(run_dirs) == 1
        run_id = run_dirs[0].name
        reset_stats()
        assert main(["resume", run_id, "--runs-root", str(root)]) == 0
        assert capsys.readouterr().out == first.out
