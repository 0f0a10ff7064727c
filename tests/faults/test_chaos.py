"""Integration tests for the chaos harness and evidence-loss provenance."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.core.types import DomainStatus
from repro.engine import EngineOptions
from repro.engine.stats import STATS
from repro.experiments import tab1_2_3
from repro.experiments.common import StudyContext
from repro.faults import FaultInjector, FaultPlan, resolve_plan
from repro.obs import provenance
from repro.world.build import WorldConfig
from repro.world.entities import DatasetTag

REPO = Path(__file__).resolve().parents[2]
CONFIG = WorldConfig(seed=7, alexa_size=150, com_size=80, gov_size=40)


class TestChaosSweepScript:
    @pytest.fixture(scope="class")
    def sweep(self, tmp_path_factory):
        out = tmp_path_factory.mktemp("chaos") / "sweep.json"
        table = out.with_suffix(".md")
        completed = subprocess.run(
            [
                sys.executable, "scripts/chaos_sweep.py",
                "--rates", "0,0.3", "--seed", "1", "--scale", "0.2",
                # The default tolerance is sized for rate 0.2; this test
                # sweeps to 0.3, where a uniform plan costs ~0.66.
                "--tolerance", "0.75",
                "--check", "--json", str(out), "--table", str(table),
            ],
            cwd=REPO,
            env={**os.environ, "PYTHONPATH": "src"},
            capture_output=True,
            text=True,
            timeout=600,
        )
        assert completed.returncode == 0, completed.stderr
        return json.loads(out.read_text()), table.read_text(), completed

    def test_gates_pass(self, sweep):
        document, _table, _completed = sweep
        assert document["bench"] == "chaos-sweep"
        assert document["failures"] == []

    def test_rate_zero_is_byte_identical_to_baseline(self, sweep):
        document, _table, _completed = sweep
        baseline = document["context"]["baseline"]
        zero = next(row for row in document["rows"] if row["rate"] == 0.0)
        assert zero["digests"] == baseline["digests"]
        assert zero["cache_keys"] == baseline["cache_keys"]
        assert zero["fault_counters"] == {}

    def test_faulted_run_degrades_and_counts(self, sweep):
        document, _table, _completed = sweep
        faulted = next(row for row in document["rows"] if row["rate"] == 0.3)
        baseline = document["context"]["baseline"]
        assert faulted["digests"] != baseline["digests"]
        assert faulted["accuracy"] < baseline["accuracy"]
        assert sum(faulted["fault_counters"].values()) > 0
        # The ladder falls downward: strictly fewer cert-tier wins.
        assert (
            faulted["tier_shares"]["cert"] <= baseline["tier_shares"]["cert"]
        )

    def test_table_artifact_shape(self, sweep):
        _document, table, _completed = sweep
        lines = table.strip().splitlines()
        assert lines[0].startswith("| rate | accuracy |")
        assert len(lines) == 2 + 2  # header, separator, one row per rate


class TestEvidenceLossProvenance:
    @pytest.fixture(scope="class")
    def faulted_ctx(self):
        return StudyContext.create(
            CONFIG,
            engine=EngineOptions(),
            store=None,
            faults=FaultPlan.uniform(0.3, seed=2),
        )

    def find_lossy_record(self, ctx):
        last = len(ctx.world.snapshot_dates) - 1
        for domain in ctx.domains(DatasetTag.ALEXA):
            record = provenance.explain(ctx, domain, last, dataset=DatasetTag.ALEXA)
            if record and record.get("evidence_loss"):
                return record
        raise AssertionError("no domain lost evidence at rate 0.3?")

    def test_explain_reports_injected_losses(self, faulted_ctx):
        record = self.find_lossy_record(faulted_ctx)
        for loss in record["evidence_loss"]:
            assert loss["lost"]
            assert loss["reason"]
        rendered = provenance.render_explanation(record)
        assert "evidence loss (fault injection)" in rendered

    def test_explain_does_not_perturb_fault_counters(self, faulted_ctx):
        last = len(faulted_ctx.world.snapshot_dates) - 1
        domain = faulted_ctx.domains(DatasetTag.ALEXA)[0]
        provenance.explain(faulted_ctx, domain, last, dataset=DatasetTag.ALEXA)
        before = {
            name: count
            for name, count in STATS.counters.items()
            if name.startswith("faults.")
        }
        for target in faulted_ctx.domains(DatasetTag.ALEXA)[:16]:
            provenance.explain(faulted_ctx, target, last, dataset=DatasetTag.ALEXA)
        after = {
            name: count
            for name, count in STATS.counters.items()
            if name.startswith("faults.")
        }
        assert after == before  # replays are pure, never counted

    def test_fault_free_records_have_no_loss_section(self, ctx, last_snapshot):
        domain = ctx.domains(DatasetTag.ALEXA)[0]
        record = provenance.explain(ctx, domain, last_snapshot, dataset=DatasetTag.ALEXA)
        assert record is not None
        assert "evidence_loss" not in record
        assert "evidence loss" not in provenance.render_explanation(record)

    def test_pipeline_tallies_evidence_counters(self, faulted_ctx):
        last = len(faulted_ctx.world.snapshot_dates) - 1
        faulted_ctx.priority(DatasetTag.ALEXA, last)
        tallied = [
            name for name in STATS.counters if name.startswith("faults.evidence.")
        ]
        assert any(name.startswith("faults.evidence.tier.") for name in tallied)


class TestMonotoneFallback:
    def test_decision_sets_nest_across_rates(self):
        low = FaultInjector(FaultPlan.uniform(0.1, seed=9))
        high = FaultInjector(FaultPlan.uniform(0.4, seed=9))
        from datetime import date

        day = date(2021, 6, 8)
        addresses = [f"11.0.{block}.{host}" for block in range(4) for host in range(16)]
        dropped_low = {a for a in addresses if low.scan_dropped(a, day)}
        dropped_high = {a for a in addresses if high.scan_dropped(a, day)}
        assert dropped_low <= dropped_high
        assert len(dropped_high) > len(dropped_low)


class TestFaultedShowcase:
    def test_showcase_without_mx_renders_as_missing_data(self):
        """``repro tab1-3 --scale 0.25 --faults 0.1``, in process: the DNS
        faults leave netflix.com with no MX, and Tables 1-3 still render,
        showing that row as missing data."""
        ctx = StudyContext.create(
            WorldConfig(seed=7).scaled(0.25),
            engine=EngineOptions(),
            store=None,
            faults=resolve_plan("0.1", seed=7),
        )
        result = tab1_2_3.run(ctx)
        assert result.measurements["netflix.com"].primary_mx == ()
        assert result.inferences["netflix.com"].status is DomainStatus.NO_MX
        rendered = result.render()
        row = next(
            line for line in rendered.splitlines()
            if line.startswith("netflix.com") and "no MX observed" in line
        )
        assert row.split()[-2:] == ["N/A", "N/A"]
