#!/usr/bin/env python
"""Kill/resume differential sweep: resumed runs must be byte-identical.

The resilience layer's core promise is that an interrupted run, resumed,
converges to exactly the bytes an uninterrupted run produces — same
stdout, same artifact-store entries.  This harness checks that promise
the hard way: it launches real ``python -m repro`` subprocesses, kills
them at randomized-but-seeded points (SIGKILL for the crash story,
SIGINT for the graceful-shutdown story), resumes via ``repro resume``
until the run completes, and then compares

* final stdout against an uninterrupted reference run of the same
  configuration, byte for byte;
* every artifact-store entry against the reference store, byte for byte
  (which also proves shard checkpoints were cleaned up — the reference
  store has none);
* the run journal against ``JOURNAL_EVENT_SCHEMA``.

A separate **poison gate** runs with ``--faults worker.crash=1.0``: every
worker attempt dies, so the run must terminate (not hang) within the
restart budget, exit nonzero, and name the quarantined shard in its
diagnosis.

Scenarios cover jobs∈{1,4}, both executors, and one batched gather
(``--batch-domains 100``: batch-plan-keyed shard checkpoints, with
batches large enough to shard at the default scale).  Everything is
seeded (``--seed`` drives the kill delays), so a CI failure replays
locally.

Usage::

    PYTHONPATH=src python scripts/resilience_sweep.py --seed 1
    PYTHONPATH=src python scripts/resilience_sweep.py --seed 1 \\
        --check --json resilience-sweep.json --keep-dir sweep-artifacts
"""

from __future__ import annotations

import argparse
import json
import os
import random
import shutil
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from repro.obs import schemas
from repro.resilience import JOURNAL_NAME

SUBPROCESS_TIMEOUT = 180.0
MAX_RESUMES = 5
DIST_HOSTS = 3

#: (name, jobs, executor, signal, extra args) — jobs∈{1,4}, both
#: executors, both interruption styles, unbatched and batched.  The
#: reference run of a scenario gets the same extra args as its victim.
SCENARIOS = (
    ("p4-sigkill", 4, "process", signal.SIGKILL, ()),
    ("p4-sigint", 4, "process", signal.SIGINT, ()),
    ("t4-sigint", 4, "thread", signal.SIGINT, ()),
    ("j1-sigkill", 1, "process", signal.SIGKILL, ()),
    ("p4-b100-sigkill", 4, "process", signal.SIGKILL,
     ("--batch-domains", "100")),
)


def repro_command(args, *, jobs: int, cache_dir: Path, extra=()) -> list[str]:
    return [
        sys.executable, "-m", "repro", args.experiment,
        "--scale", str(args.scale),
        "--jobs", str(jobs),
        "--cache-dir", str(cache_dir),
        *extra,
    ]


def run_env(executor: str) -> dict:
    env = dict(os.environ)
    env["REPRO_EXECUTOR"] = executor
    env.pop("REPRO_CACHE", None)
    env.pop("REPRO_JOBS", None)
    env.pop("REPRO_RUNS", None)
    env["PYTHONPATH"] = str(Path(__file__).resolve().parent.parent / "src")
    return env


def run_to_completion(command, env) -> tuple[int, bytes, bytes, float]:
    started = time.monotonic()
    result = subprocess.run(
        command, env=env, capture_output=True, timeout=SUBPROCESS_TIMEOUT
    )
    return result.returncode, result.stdout, result.stderr, time.monotonic() - started


def run_and_kill(command, env, delay: float, kill_signal) -> tuple[int | None, bool]:
    """Start the command, signal it after *delay* seconds.

    Returns (returncode, was_signalled); was_signalled is False when the
    run won the race and completed before the signal fired.
    """
    proc = subprocess.Popen(
        command, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL
    )
    try:
        proc.wait(timeout=delay)
        return proc.returncode, False
    except subprocess.TimeoutExpired:
        pass
    proc.send_signal(kill_signal)
    try:
        proc.wait(timeout=60.0)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
    return proc.returncode, True


def store_entries(root: Path) -> dict[str, bytes]:
    return {
        str(path.relative_to(root)): path.read_bytes()
        for path in sorted(root.glob("*/*.rsto"))
    }


def compare_stores(reference: Path, candidate: Path) -> list[str]:
    failures = []
    ref_entries = store_entries(reference)
    cand_entries = store_entries(candidate)
    missing = sorted(set(ref_entries) - set(cand_entries))
    extra = sorted(set(cand_entries) - set(ref_entries))
    if missing:
        failures.append(f"store missing entries: {missing}")
    if extra:
        # Extra entries include any leaked shard checkpoints.
        failures.append(f"store has extra entries (leaked checkpoints?): {extra}")
    for name in sorted(set(ref_entries) & set(cand_entries)):
        if ref_entries[name] != cand_entries[name]:
            failures.append(f"store entry differs: {name}")
    return failures


def run_scenario(
    args, name, jobs, executor, kill_signal, extra, rng, work: Path
) -> dict:
    env = run_env(executor)
    scenario_dir = work / name
    ref_cache = scenario_dir / "ref-cache"
    victim_cache = scenario_dir / "victim-cache"
    run_dir = scenario_dir / "run"
    scenario_dir.mkdir(parents=True)

    rc, ref_stdout, _, ref_wall = run_to_completion(
        repro_command(args, jobs=jobs, cache_dir=ref_cache, extra=extra), env
    )
    if rc != 0:
        return {"name": name, "failures": [f"reference run exited {rc}"]}

    victim = repro_command(
        args, jobs=jobs, cache_dir=victim_cache,
        extra=(*extra, "--run-dir", str(run_dir)),
    )
    journal_path = run_dir / JOURNAL_NAME
    delay = ref_wall * rng.uniform(0.3, 0.8)
    kills = 0
    interrupted = False
    # A kill can land during interpreter startup, before the journal
    # exists; there is nothing to resume then, so relaunch with a later
    # kill point (the run dir is reusable until a journal appears).
    for _ in range(4):
        rc, signalled = run_and_kill(victim, env, delay, kill_signal)
        if signalled:
            kills += 1
        interrupted = signalled
        if not signalled or journal_path.is_file():
            break
        delay += 0.15 * ref_wall

    resume = [
        sys.executable, "-m", "repro", "resume", "--run-dir", str(run_dir),
    ]
    resumes = 0
    final_stdout = None
    if not interrupted and rc == 0:
        # The run won the race against the kill; its output still must
        # match the reference, via one warm resume (exercises the
        # completed-run resume path).
        rc, final_stdout, stderr, _ = run_to_completion(resume, env)
        resumes += 1
    else:
        while resumes < MAX_RESUMES:
            resumes += 1
            if resumes == 1 and interrupted:
                # Kill the first resume too, at a fresh seeded point —
                # multi-resume lineages must also converge.
                rc, signalled = run_and_kill(
                    resume, env, ref_wall * rng.uniform(0.2, 0.8), kill_signal
                )
                if signalled:
                    kills += 1
                    continue
                if rc != 0:
                    break
                rc, final_stdout, stderr, _ = run_to_completion(resume, env)
                break
            rc, final_stdout, stderr, _ = run_to_completion(resume, env)
            break

    failures: list[str] = []
    if rc != 0 or final_stdout is None:
        failures.append(f"run never completed (last exit {rc})")
    else:
        if final_stdout != ref_stdout:
            failures.append("final stdout differs from the uninterrupted reference")
        failures.extend(compare_stores(ref_cache, victim_cache))
    if journal_path.is_file():
        failures.extend(
            schemas.validate_jsonl_file(
                str(journal_path), schemas.JOURNAL_EVENT_SCHEMA
            )
        )
    elif kills:
        failures.append("no journal written before the kill")
    return {
        "name": name,
        "jobs": jobs,
        "executor": executor,
        "extra_args": list(extra),
        "signal": signal.Signals(kill_signal).name,
        "kill_delay_seconds": round(delay, 3),
        "kills": kills,
        "resumes": resumes,
        "failures": failures,
    }


def spawn_dist_worker(socket_path: Path, host_id: str, env) -> subprocess.Popen:
    return subprocess.Popen(
        [
            sys.executable, "-m", "repro", "dist", "worker",
            "--connect", str(socket_path), "--host-id", host_id,
        ],
        env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
    )


def run_dist_scenario(args, rng, work: Path) -> dict:
    """Distributed gate: 3 simulated hosts, one SIGKILLed whole mid-run.

    A ``repro dist coordinator`` run over three worker-host processes,
    with the hash-pure ``host.netsplit`` channel armed, one whole host
    SIGKILLed at a seeded point, and a replacement host joining
    elastically.  The coordinator recovers host loss live by re-leasing;
    should the entire fleet die, ``repro resume`` completes the
    journaled run locally.  Either way the gate is the same as every
    other scenario: stdout and artifact-store bytes must match a local,
    never-failed reference run exactly.
    """
    env = run_env("process")
    scenario_dir = work / "dist-hostkill"
    ref_cache = scenario_dir / "ref-cache"
    dist_cache = scenario_dir / "dist-cache"
    run_dir = scenario_dir / "run"
    scenario_dir.mkdir(parents=True)

    rc, ref_stdout, _, ref_wall = run_to_completion(
        repro_command(args, jobs=4, cache_dir=ref_cache), env
    )
    if rc != 0:
        return {"name": "dist-hostkill", "failures": [f"reference run exited {rc}"]}

    socket_path = scenario_dir / "coordinator.sock"
    coordinator = subprocess.Popen(
        [
            sys.executable, "-m", "repro", "dist", "coordinator",
            "--socket", str(socket_path),
            "--hosts", str(DIST_HOSTS),
            "--heartbeat-timeout", "1.0",
            "--heartbeat-interval", "0.2",
            "--stall-timeout", "45",
            "--",
            args.experiment, "--scale", str(args.scale), "--jobs", "4",
            "--cache-dir", str(dist_cache), "--run-dir", str(run_dir),
            "--faults", f"host.netsplit=0.4,seed={args.seed}",
        ],
        env=env, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
    )
    workers: list[subprocess.Popen] = []
    kills = 0
    kill_delay = ref_wall * rng.uniform(0.25, 0.6)
    try:
        deadline = time.monotonic() + 60.0
        while not socket_path.exists():
            if coordinator.poll() is not None or time.monotonic() > deadline:
                coordinator.kill()
                coordinator.communicate()
                return {
                    "name": "dist-hostkill",
                    "failures": ["coordinator socket never appeared"],
                }
            time.sleep(0.05)
        workers = [
            spawn_dist_worker(socket_path, f"sweep-h{i}", env)
            for i in range(DIST_HOSTS)
        ]
        # Whole-host SIGKILL at a seeded point.  The dist run is slower
        # than the local reference (payload shipping, heartbeats), so a
        # delay calibrated against ref_wall lands mid-run.
        try:
            coordinator.wait(timeout=kill_delay)
        except subprocess.TimeoutExpired:
            victim = workers[rng.randrange(DIST_HOSTS)]
            if victim.poll() is None:
                victim.send_signal(signal.SIGKILL)
                kills += 1
            # Elastic join: a spare host replaces the lost capacity.
            workers.append(spawn_dist_worker(socket_path, "sweep-spare", env))
        try:
            stdout, _ = coordinator.communicate(timeout=SUBPROCESS_TIMEOUT)
            rc = coordinator.returncode
        except subprocess.TimeoutExpired:
            coordinator.kill()
            stdout, _ = coordinator.communicate()
            rc = -1
    finally:
        if coordinator.poll() is None:
            coordinator.kill()
            coordinator.communicate()
        for worker in workers:
            try:
                worker.wait(timeout=15)
            except subprocess.TimeoutExpired:
                worker.kill()
                worker.wait()

    final_stdout = stdout if rc == 0 else None
    resume = [
        sys.executable, "-m", "repro", "resume", "--run-dir", str(run_dir),
    ]
    resumes = 0
    while final_stdout is None and resumes < MAX_RESUMES:
        resumes += 1
        rc, out, _, _ = run_to_completion(resume, env)
        if rc == 0:
            final_stdout = out

    failures: list[str] = []
    if final_stdout is None:
        failures.append(f"dist run never completed (last exit {rc})")
    else:
        if final_stdout != ref_stdout:
            failures.append("dist stdout differs from the local reference")
        failures.extend(compare_stores(ref_cache, dist_cache))
    journal_path = run_dir / JOURNAL_NAME
    events: list[str] = []
    if journal_path.is_file():
        failures.extend(
            schemas.validate_jsonl_file(
                str(journal_path), schemas.JOURNAL_EVENT_SCHEMA
            )
        )
        for line in journal_path.read_text().splitlines():
            try:
                events.append(json.loads(line).get("event"))
            except json.JSONDecodeError:
                continue
    else:
        failures.append("dist run wrote no journal")
    if events.count("host.join") < DIST_HOSTS:
        failures.append(
            f"journal records {events.count('host.join')} host.join events "
            f"(want >= {DIST_HOSTS})"
        )
    if "shard.lease" not in events:
        failures.append("journal records no shard.lease events")
    if kills and "host.lost" not in events:
        failures.append("SIGKILLed host never journalled host.lost")
    return {
        "name": "dist-hostkill",
        "hosts": DIST_HOSTS,
        "kill_delay_seconds": round(kill_delay, 3),
        "kills": kills,
        "resumes": resumes,
        "host_join_events": events.count("host.join"),
        "host_lost_events": events.count("host.lost"),
        "stolen_events": events.count("shard.stolen"),
        "failures": failures,
    }


def run_poison_gate(args, work: Path) -> dict:
    """worker.crash=1.0 must quarantine loudly, never hang."""
    env = run_env("process")
    cache = work / "poison-cache"
    command = repro_command(
        args, jobs=4, cache_dir=cache, extra=("--faults", "worker.crash=1.0")
    )
    failures: list[str] = []
    started = time.monotonic()
    try:
        result = subprocess.run(
            command, env=env, capture_output=True, timeout=SUBPROCESS_TIMEOUT
        )
    except subprocess.TimeoutExpired:
        return {
            "name": "poison",
            "failures": ["poison run hung past the subprocess timeout"],
        }
    elapsed = time.monotonic() - started
    stderr = result.stderr.decode(errors="replace")
    if result.returncode == 0:
        failures.append("poison run exited 0 (quarantine never fired)")
    if "quarantined" not in stderr:
        failures.append("diagnosis does not mention quarantine")
    if "shard #" not in stderr:
        failures.append("diagnosis does not name the poisoned shard")
    return {
        "name": "poison",
        "exit_code": result.returncode,
        "elapsed_seconds": round(elapsed, 3),
        "failures": failures,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1, help="kill-point seed")
    parser.add_argument(
        "--experiment", default="tab4", help="experiment to run (default tab4)"
    )
    parser.add_argument(
        "--scale", type=float, default=0.2, help="corpus scale (default 0.2)"
    )
    parser.add_argument("--json", metavar="PATH", help="write results as JSON")
    parser.add_argument(
        "--keep-dir", metavar="PATH", default=None,
        help="keep work dirs (journals, manifests, stores) under PATH "
             "instead of a deleted tempdir — CI uploads these as artifacts",
    )
    parser.add_argument(
        "--check", action="store_true",
        help="exit 1 when any scenario fails (CI mode)",
    )
    parser.add_argument(
        "--dist", action="store_true",
        help="run the distributed-executor gate (3 simulated hosts, "
             "whole-host SIGKILL + netsplit) instead of the kill/resume "
             "scenarios",
    )
    args = parser.parse_args(argv)

    rng = random.Random(args.seed)
    if args.keep_dir:
        work = Path(args.keep_dir)
        if work.exists():
            shutil.rmtree(work)
        work.mkdir(parents=True)
        cleanup = None
    else:
        cleanup = tempfile.TemporaryDirectory(prefix="resilience-sweep-")
        work = Path(cleanup.name)

    print(
        f"resilience sweep: experiment={args.experiment} scale={args.scale} "
        f"seed={args.seed}",
        file=sys.stderr,
    )
    results = []
    try:
        if args.dist:
            result = run_dist_scenario(args, rng, work)
            results.append(result)
            status = "ok" if not result["failures"] else "FAIL"
            print(
                f"  dist-hostkill: {status} "
                f"(hosts={result.get('hosts', '?')}, "
                f"kills={result.get('kills', '?')}, "
                f"host_lost={result.get('host_lost_events', '?')}, "
                f"resumes={result.get('resumes', '?')})",
                file=sys.stderr,
            )
        else:
            for name, jobs, executor, kill_signal, extra in SCENARIOS:
                result = run_scenario(
                    args, name, jobs, executor, kill_signal, extra, rng, work
                )
                results.append(result)
                status = "ok" if not result["failures"] else "FAIL"
                print(
                    f"  {name}: {status} "
                    f"(kills={result.get('kills', '?')}, "
                    f"resumes={result.get('resumes', '?')})",
                    file=sys.stderr,
                )
            poison = run_poison_gate(args, work)
            results.append(poison)
            print(
                f"  poison: {'ok' if not poison['failures'] else 'FAIL'} "
                f"(exit={poison.get('exit_code', '?')}, "
                f"{poison.get('elapsed_seconds', '?')}s)",
                file=sys.stderr,
            )
    finally:
        if cleanup is not None:
            cleanup.cleanup()

    failures = [
        f"{result['name']}: {failure}"
        for result in results
        for failure in result["failures"]
    ]
    document = {
        "seed": args.seed,
        "experiment": args.experiment,
        "scale": args.scale,
        "scenarios": results,
        "failures": failures,
    }
    if args.json:
        with open(args.json, "w") as handle:
            json.dump(document, handle, indent=2, sort_keys=True)
            handle.write("\n")
        print(f"wrote {args.json}", file=sys.stderr)
    if failures:
        for failure in failures:
            print(f"GATE FAILED: {failure}", file=sys.stderr)
        return 1 if args.check else 0
    print("all resilience gates passed", file=sys.stderr)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
