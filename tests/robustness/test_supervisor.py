"""Supervised execution: hang kills, crash reschedules, quarantine.

Sabotage specs stand in for real-world failure (OOM kills, deadlocks)
so every path is deterministic: ``("kill", code)`` makes the worker die
mid-protocol, ``("hang", s)`` makes it go silent, ``("raise", msg)``
makes the job raise.  The supervisor must convert each into either a
recovered reschedule or a loud, provenance-rich quarantine — never a
silently missing result.
"""

import json
from dataclasses import replace

import pytest

from repro.analysis.parallel import SweepJob
from repro.robustness.resilience import Checkpoint, FailureRecord
from repro.robustness.supervisor import (
    SupervisedSweepExecutor,
    load_quarantine_record,
    quarantine_record_path,
    write_quarantine_record,
)


def probe(value):
    """Tiny deterministic picklable job."""
    return {"value": value * 2}


def _jobs(n=2):
    return [
        SweepJob(
            label=f"j{i}",
            fn=probe,
            args=(i,),
            provenance={
                "seed": 40 + i,
                "engine": "fast",
                "config_sha256": "cafe" * 16,
                "batch_window": 4096,
            },
        )
        for i in range(n)
    ]


def _sabotage(label, models):
    """Sabotage ``label`` per ``models``: {attempt: spec} ({0: spec}
    sabotages every attempt)."""

    def sabotage_for(lab, attempt):
        if lab != label:
            return None
        return models.get(0) or models.get(attempt)

    return sabotage_for


class TestRecovery:
    def test_killed_worker_is_detected_and_rescheduled(self):
        executor = SupervisedSweepExecutor(
            2,
            retries=2,
            backoff_s=0.01,
            poll_s=0.01,
            sabotage_for=_sabotage("j0", {1: ("kill", 9)}),
        )
        outcome = executor.run(_jobs())
        assert outcome.complete
        assert outcome.results["j0"] == {"value": 0}
        assert executor.report.crashes_detected == 1
        assert executor.report.reschedules == 1

    def test_hung_worker_is_killed_at_deadline(self):
        executor = SupervisedSweepExecutor(
            2,
            retries=1,
            backoff_s=0.01,
            deadline_s=0.3,
            poll_s=0.01,
            sabotage_for=_sabotage("j1", {1: ("hang", 30.0)}),
        )
        outcome = executor.run(_jobs())
        assert outcome.complete
        assert executor.report.hangs_killed == 1

    def test_raise_sabotage_travels_the_failure_path(self):
        executor = SupervisedSweepExecutor(
            2,
            retries=0,
            backoff_s=0.01,
            poll_s=0.01,
            sabotage_for=_sabotage("j0", {1: ("raise", "boom")}),
        )
        outcome = executor.run(_jobs())
        (failure,) = outcome.failures
        assert failure.error_type == "FaultInjectionError"
        assert "boom" in failure.message
        assert failure.traceback  # worker-side traceback crossed the pipe


def explode(value):
    raise RuntimeError(f"poison {value}")


class _QuarantineContract:
    """Quarantine tests shared by both backends.  ``poisoned`` gives
    ``(make_executor, jobs, error_type)`` where job j0 fails every
    attempt."""

    def test_poison_job_quarantined_with_full_provenance(
        self, tmp_path, poisoned
    ):
        make, jobs, error_type = poisoned
        qdir = tmp_path / "quarantine"
        executor = make(
            retries=1, quarantine_dir=qdir, manifest_id="deadbeef" * 8
        )
        outcome = executor.run(jobs)
        assert outcome.results["j1"] == {"value": 2}  # sweep continued
        (failure,) = outcome.failures
        assert failure.label == "j0"
        assert failure.error_type == error_type
        assert failure.attempts == 2  # retries + 1, kills count
        # enrichment: job provenance + sweep manifest id
        assert failure.seed == 40
        assert failure.engine == "fast"
        assert failure.config_sha256 == "cafe" * 16
        assert failure.batch_window == 4096
        assert failure.manifest_id == "deadbeef" * 8
        # the standalone record round-trips
        assert failure.record_path
        assert executor.report.record_paths == {"j0": failure.record_path}
        record = load_quarantine_record(failure.record_path)
        assert record.to_dict() == failure.to_dict()

    def test_quarantined_failure_lands_in_checkpoint(self, tmp_path, poisoned):
        make, jobs, error_type = poisoned
        path = tmp_path / "ck.json"
        checkpoint = Checkpoint(path, serialize=dict, deserialize=dict)
        make(retries=0, checkpoint=checkpoint).run(jobs)
        payload = json.loads(path.read_text())
        (record,) = payload["failures"]
        assert record["error_type"] == error_type
        assert record["seed"] == 40


class TestQuarantine(_QuarantineContract):
    """Process backend: j0's worker is killed on every attempt."""

    @pytest.fixture
    def poisoned(self):
        def make(**kwargs):
            return SupervisedSweepExecutor(
                2,
                backoff_s=0.01,
                poll_s=0.01,
                sabotage_for=_sabotage("j0", {0: ("kill", 9)}),
                **kwargs,
            )

        return make, _jobs(), "WorkerCrashError"

    def test_record_path_sanitizes_label(self, tmp_path):
        path = quarantine_record_path(tmp_path, "a/b c:d")
        assert path.name == "a_b_c_d.failure.json"
        record = FailureRecord(
            label="a/b c:d", attempts=1, error_type="E", message="m"
        )
        written = write_quarantine_record(record, tmp_path)
        assert written == path and path.exists()
        assert record.record_path == str(path)


class TestInlineQuarantine(_QuarantineContract):
    """Inline backend: j0's job raises on every attempt."""

    @pytest.fixture
    def poisoned(self):
        jobs = _jobs()
        jobs[0] = replace(jobs[0], fn=explode)

        def make(**kwargs):
            executor = SupervisedSweepExecutor(1, backoff_s=0.01, **kwargs)
            assert executor.inline
            return executor

        return make, jobs, "RuntimeError"


class TestContractCompatibility:
    def test_serial_delegation_unchanged(self):
        executor = SupervisedSweepExecutor(1, retries=0)
        assert executor.inline
        outcome = executor.run(_jobs())
        assert outcome.results == {"j0": {"value": 0}, "j1": {"value": 2}}

    def test_backend_selection(self):
        """Inline only at ``jobs == 1`` with nothing a separate process
        must honour; a deadline or sabotage forces the process backend."""
        assert SupervisedSweepExecutor(1).inline
        assert not SupervisedSweepExecutor(2).inline
        assert not SupervisedSweepExecutor(1, deadline_s=5.0).inline
        assert not SupervisedSweepExecutor(
            1, sabotage_for=lambda label, attempt: None
        ).inline

    def test_single_slot_process_backend_injects_sabotage(self):
        executor = SupervisedSweepExecutor(
            1,
            retries=2,
            backoff_s=0.01,
            poll_s=0.01,
            sabotage_for=_sabotage("j0", {1: ("kill", 9)}),
        )
        outcome = executor.run(_jobs())
        assert outcome.complete
        assert executor.report.crashes_detected == 1
        assert executor.report.reschedules == 1

    def test_resume_skips_completed_jobs(self, tmp_path):
        path = tmp_path / "ck.json"
        checkpoint = Checkpoint(path, serialize=dict, deserialize=dict)
        SupervisedSweepExecutor(2, checkpoint=checkpoint).run(_jobs())
        checkpoint2 = Checkpoint(path, serialize=dict, deserialize=dict)
        again = SupervisedSweepExecutor(2, checkpoint=checkpoint2).run(_jobs())
        assert sorted(again.resumed) == ["j0", "j1"]

    def test_ordered_reassembly(self):
        jobs = _jobs(4)
        outcome = SupervisedSweepExecutor(2).run(jobs)
        assert list(outcome.results) == [j.label for j in jobs]


class TestFailureRecordEnrichment:
    """Satellite: the enriched record schema stays backward-compatible."""

    def test_legacy_payload_backfills_defaults(self):
        legacy = {
            "label": "old",
            "attempts": 3,
            "error_type": "ValueError",
            "message": "pre-enrichment record",
        }
        record = FailureRecord.from_dict(legacy)
        assert record.seed is None
        assert record.engine == ""
        assert record.batch_window is None
        assert record.manifest_id == ""
        assert record.traceback == ""
        assert record.record_path == ""
        # and re-serialization emits the full enriched schema
        assert set(record.to_dict()) >= {
            "seed", "engine", "config_sha256", "batch_window",
            "manifest_id", "traceback", "record_path",
        }

    def test_apply_provenance_fills_only_defaults(self):
        record = FailureRecord(
            label="x", attempts=1, error_type="E", message="m", engine="object"
        )
        record.apply_provenance(
            {"seed": 5, "engine": "fast", "batch_window": 4096}
        )
        assert record.seed == 5
        assert record.engine == "object"  # existing value wins
        assert record.batch_window == 4096
