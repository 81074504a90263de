"""Retry, graceful degradation, and checkpoint/resume for sweeps.

These run on the sweep executor's inline backend (``jobs == 1``), where
jobs execute in this process, so closures can count their own calls.
"""

import json
import time

import pytest

import repro.robustness.supervisor as supervisor
from repro.analysis import experiment
from repro.analysis.experiment import SimulationBudget
from repro.analysis.parallel import SweepJob
from repro.common.errors import SimulationTimeout
from repro.robustness.resilience import Checkpoint, FailureRecord
from repro.robustness.supervisor import SupervisedSweepExecutor

from tests.conftest import run_spec_pairs


def _jobs(*pairs):
    """Inline-backend jobs from ``(label, callable)`` pairs."""
    return [SweepJob(label, fn) for label, fn in pairs]


def _run(pairs, **kwargs):
    kwargs.setdefault("backoff_s", 0.0)
    executor = SupervisedSweepExecutor(1, **kwargs)
    assert executor.inline
    return executor.run(_jobs(*pairs))


class _FakeClock:
    """The supervisor's ``time`` module with a clock that only sleep
    advances, so backoff waits are recorded exactly."""

    def __init__(self):
        self.now = 0.0
        self.sleeps = []

    def monotonic(self):
        return self.now

    def sleep(self, seconds):
        self.sleeps.append(seconds)
        self.now += seconds

    def __getattr__(self, name):
        return getattr(time, name)


class TestRetries:
    def test_all_jobs_succeed_first_try(self):
        outcome = _run([("a", lambda: 1), ("b", lambda: 2)])
        assert outcome.results == {"a": 1, "b": 2}
        assert outcome.complete
        assert outcome.ordered_results(["b", "a"]) == [2, 1]

    def test_transient_failure_is_retried(self):
        calls = {"n": 0}

        def flaky():
            calls["n"] += 1
            if calls["n"] < 3:
                raise RuntimeError("transient")
            return "ok"

        events = []
        outcome = _run(
            [("flaky", flaky)],
            retries=2,
            on_event=lambda label, event: events.append(event),
        )
        assert outcome.results["flaky"] == "ok"
        assert calls["n"] == 3
        assert outcome.complete
        assert events == ["retry", "retry", "ok"]

    def test_backoff_is_exponential(self, monkeypatch):
        clock = _FakeClock()
        monkeypatch.setattr(supervisor, "time", clock)

        def always_fails():
            raise RuntimeError("no")

        outcome = _run([("bad", always_fails)], retries=3, backoff_s=0.5)
        assert clock.sleeps == [0.5, 1.0, 2.0]
        assert outcome.failures[0].attempts == 4

    def test_exhausted_job_becomes_failure_record(self):
        def always_fails():
            raise ValueError("deterministic bug")

        outcome = _run(
            [("good", lambda: 7), ("bad", always_fails), ("after", lambda: 8)],
            retries=1,
        )
        # Graceful degradation: the good jobs' results survive.
        assert outcome.results == {"good": 7, "after": 8}
        assert not outcome.complete
        (failure,) = outcome.failures
        assert failure.label == "bad"
        assert failure.attempts == 2
        assert failure.error_type == "ValueError"
        assert "deterministic bug" in failure.message
        assert "deterministic bug" in failure.traceback

    def test_keyboard_interrupt_is_not_swallowed(self):
        def interrupted():
            raise KeyboardInterrupt

        with pytest.raises(KeyboardInterrupt):
            _run([("x", interrupted)])


class TestCheckpoint:
    def _checkpoint(self, path):
        return Checkpoint(
            path, serialize=lambda r: {"v": r}, deserialize=lambda p: p["v"]
        )

    def test_checkpoint_written_and_resumed(self, tmp_path):
        path = tmp_path / "ckpt.json"
        ran = []

        def job(label, value):
            def thunk():
                ran.append(label)
                return value

            return (label, thunk)

        first = _run(
            [job("a", 1), job("b", 2)], checkpoint=self._checkpoint(path)
        )
        assert first.results == {"a": 1, "b": 2}
        payload = json.loads(path.read_text())
        assert payload["kind"] == "sweep_checkpoint"
        assert set(payload["completed"]) == {"a", "b"}

        ran.clear()
        second = _run(
            [job("a", 1), job("b", 2), job("c", 3)],
            checkpoint=self._checkpoint(path),
        )
        assert ran == ["c"]  # completed jobs were not re-run
        assert second.resumed == ["a", "b"]
        assert second.results == {"a": 1, "b": 2, "c": 3}

    def test_failed_jobs_are_retried_on_resume(self, tmp_path):
        path = tmp_path / "ckpt.json"
        healthy = {"now": False}

        def sometimes():
            if not healthy["now"]:
                raise RuntimeError("down")
            return 42

        jobs = [("ok", lambda: 1), ("sick", sometimes)]
        first = _run(jobs, retries=1, checkpoint=self._checkpoint(path))
        assert [f.label for f in first.failures] == ["sick"]

        healthy["now"] = True
        second = _run(jobs, retries=1, checkpoint=self._checkpoint(path))
        assert second.resumed == ["ok"]
        assert second.results["sick"] == 42
        assert second.complete
        # The stale failure record is gone from the checkpoint too.
        payload = json.loads(path.read_text())
        assert payload["failures"] == []

    def test_rejects_foreign_json(self, tmp_path):
        path = tmp_path / "other.json"
        path.write_text(json.dumps({"schema": 1, "kind": "spec_sweep"}))
        ckpt = self._checkpoint(path)
        with pytest.raises(ValueError):
            ckpt.load()

    def test_failure_record_roundtrip(self):
        record = FailureRecord("lbl", 3, "RuntimeError", "boom")
        assert FailureRecord.from_dict(record.to_dict()) == record


class TestSweepIntegration:
    def test_resilient_sweep_returns_results(self, tmp_path):
        outcome = run_spec_pairs(
            [("specrand", "specrand")],
            4_000,
            checkpoint_path=tmp_path / "sweep.json",
        )
        assert outcome.complete
        (result,) = outcome.results.values()
        assert result.baseline.cycles > 0
        # Resume: nothing re-runs, the result round-trips the serializer.
        again = run_spec_pairs(
            [("specrand", "specrand")],
            4_000,
            checkpoint_path=tmp_path / "sweep.json",
        )
        assert again.resumed == [result.label]
        restored = again.results[result.label]
        assert restored.timecache.cycles == result.timecache.cycles
        assert restored.normalized_time == pytest.approx(
            result.normalized_time
        )

    def test_budget_timeout_becomes_failure_record(self):
        """One forced timeout must not sink the sweep: the other pair
        completes and the timeout is recorded."""
        tight = SimulationBudget(max_instructions=100)
        outcome = run_spec_pairs(
            [("specrand", "specrand")], 4_000, budget=tight, retries=0
        )
        (failure,) = outcome.failures
        assert failure.error_type == "SimulationTimeout"
        assert failure.seed == 0xBEEF  # provenance at jobs == 1 too
        assert not outcome.results

    def test_partial_results_with_one_failure(self, monkeypatch):
        # Sweep cells dispatch through ExperimentJob's kind table.
        real = experiment.run_spec_pair_experiment

        def sabotaged(config, a, b, **kwargs):
            if a == "lbm":
                raise SimulationTimeout("forced")
            return real(config, a, b, **kwargs)

        monkeypatch.setitem(experiment._EXPERIMENT_KINDS, "spec_pair", sabotaged)
        outcome = run_spec_pairs(
            [("specrand", "specrand"), ("lbm", "lbm")], 4_000, retries=0
        )
        assert len(outcome.results) == 1
        (failure,) = outcome.failures
        assert failure.error_type == "SimulationTimeout"
        assert "lbm" in failure.label.lower()


def test_experiment_budget_passthrough():
    """A generous budget changes nothing about the result."""
    from repro.analysis.experiment import run_spec_pair_experiment
    from repro.common.config import scaled_experiment_config

    config = scaled_experiment_config(num_cores=1)
    unbudgeted = run_spec_pair_experiment(
        config, "specrand", "specrand", instructions=3_000
    )
    budgeted = run_spec_pair_experiment(
        config,
        "specrand",
        "specrand",
        instructions=3_000,
        budget=SimulationBudget(wall_clock_s=120.0, max_instructions=10**9),
    )
    assert budgeted.timecache.cycles == unbudgeted.timecache.cycles
    assert budgeted.baseline.cycles == unbudgeted.baseline.cycles
