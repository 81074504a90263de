"""The sweep executor: retry/backoff, checkpointing, quarantine, supervision.

Every artifact the repo regenerates is a sweep of independent cells
(:class:`~repro.analysis.parallel.SweepJob`).  :class:`SupervisedSweepExecutor`
runs them all with one contract and two backends that only differ in
*where* an attempt executes:

* **inline** — each attempt runs in this process, one at a time.  It is
  chosen for ``jobs == 1`` unless the caller sets ``deadline_s`` or
  ``sabotage_for``, which only a separate process can honour.  A
  :class:`KeyboardInterrupt` raised by the job propagates (the operator
  wins; the checkpoint keeps the progress);
* **process** — up to ``jobs`` concurrent ``multiprocessing.Process``
  workers (from ``mp.get_context()``), each owning one attempt, one
  result pipe and one shared heartbeat cell.  A worker that dies without
  a result (OOM kill, segfault, a chaos injection) is a
  ``WorkerCrashError``; one silent past ``deadline_s`` is killed as a
  ``WorkerHungError``.

Both backends run the same per-attempt body (:func:`_run_attempt`: the
job's derived global-RNG seed, an optional obs shard) and feed one
scheduler:

* **retry/backoff** — a failed attempt (raise, crash or hang) is
  rescheduled after ``backoff_s * 2**(n-1)`` seconds; a job failing
  ``retries + 1`` attempts is quarantined as an enriched
  :class:`~repro.robustness.resilience.FailureRecord` (seed, engine,
  config hash, batch window, manifest id, traceback), written as a
  standalone record under ``quarantine_dir``, and the sweep *continues*;
* **checkpoint/resume** — this process is the only checkpoint writer;
  completed labels are loaded up front and not re-run, failed ones get
  a fresh chance;
* **ordered reassembly** — results, failures and resumed labels come
  back in submission order, so checkpoints and exported tables are
  byte-identical at any ``jobs``.
"""

from __future__ import annotations

import multiprocessing as mp
import os
import random
import time
from collections import deque
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

from repro.analysis.parallel import SweepJob, derive_job_seed, resolve_jobs
from repro.common.errors import FaultInjectionError, SweepExecutionError
from repro.robustness import safeio
from repro.robustness.resilience import (
    Checkpoint,
    FailureRecord,
    SweepOutcome,
    format_exception,
)

FAILURE_RECORD_SCHEMA = 1

#: worker-side sabotage spec injected by the chaos layer:
#: ("kill", exit_code) | ("hang", seconds) | ("raise", message)
Sabotage = Optional[tuple]

#: job completion events mapped onto trace event kinds
_SWEEP_EVENT_KINDS = {
    "ok": "sweep.job_done",
    "failed": "sweep.job_failed",
    "resumed": "sweep.job_resumed",
}


def quarantine_record_path(
    quarantine_dir: Union[str, Path], label: str
) -> Path:
    """Where one label's quarantine record lives (label made file-safe)."""
    safe = "".join(c if c.isalnum() or c in "._-" else "_" for c in label)
    return Path(quarantine_dir) / f"{safe}.failure.json"


def write_quarantine_record(
    record: FailureRecord, quarantine_dir: Union[str, Path]
) -> Path:
    """Persist one quarantined job's full provenance as a standalone,
    crash-safe JSON document; stamps ``record.record_path``."""
    path = quarantine_record_path(quarantine_dir, record.label)
    record.record_path = str(path)
    payload = {
        "schema": FAILURE_RECORD_SCHEMA,
        "kind": "failure_record",
        **record.to_dict(),
    }
    safeio.write_json_atomic(payload, path)
    return path


def load_quarantine_record(path: Union[str, Path]) -> FailureRecord:
    payload = safeio.read_json_verified(
        path, expected_kind="failure_record",
        expected_schema=FAILURE_RECORD_SCHEMA,
    )
    return FailureRecord.from_dict(payload)


@dataclass
class _Attempt:
    """One attempt's outcome: a result or a flattened failure."""

    label: str
    ok: bool
    result: object = None
    error_type: str = ""
    message: str = ""
    duration_s: float = 0.0
    traceback: str = ""


def _write_shard_quiet(session, obs_dir, attempt: int, ok: bool) -> None:
    """Persist an attempt's obs shard; observability must never fail a
    job that itself succeeded, so errors are swallowed."""
    try:
        from repro.obs.shards import write_shard

        write_shard(session, obs_dir, attempt=attempt, ok=ok)
    except Exception:  # pragma: no cover - defensive
        pass


def _run_attempt(
    job: SweepJob, child_seed: int, attempt: int, obs_dir
) -> _Attempt:
    """One job attempt, shared by both backends.

    Reseeds the process-global ``random``/NumPy generators from the
    job's derived seed, then runs the job.  With ``obs_dir`` set, the
    attempt runs under an installed :class:`~repro.obs.spans.ObsSession`
    (systems the job constructs report kernel phases into it) inside a
    ``job:<label>`` span, and the session lands as a crash-safe shard
    (:mod:`repro.obs.shards`) whether the job succeeds or raises.
    An :class:`Exception` is flattened to strings, so nothing depends on
    an exception class being picklable; anything else (an interrupt)
    propagates — inline to the caller, in a worker as a crash.
    """
    import numpy as np

    random.seed(child_seed)
    np.random.seed(child_seed & 0xFFFFFFFF)
    started = time.perf_counter()
    session = None
    if obs_dir is not None:
        from repro.obs.spans import ObsSession, session_scope

        session = ObsSession(label=job.label)
        session.meta["attempt"] = attempt
        session.meta["provenance"] = dict(job.provenance)
    try:
        if session is None:
            result = job.run()
        else:
            with session_scope(session), session.span(
                f"job:{job.label}", "sweep"
            ):
                result = job.run()
    except Exception as exc:  # noqa: BLE001 - flattened into the attempt
        if session is not None:
            _write_shard_quiet(session, obs_dir, attempt, ok=False)
        return _Attempt(
            label=job.label,
            ok=False,
            error_type=type(exc).__name__,
            message=str(exc),
            duration_s=time.perf_counter() - started,
            traceback=format_exception(exc),
        )
    if session is not None:
        _write_shard_quiet(session, obs_dir, attempt, ok=True)
    return _Attempt(
        label=job.label,
        ok=True,
        result=result,
        duration_s=time.perf_counter() - started,
    )


def _raise_injected(message: str) -> None:
    raise FaultInjectionError(message)


def _supervised_worker(
    job: SweepJob,
    child_seed: int,
    conn,
    beat,
    sabotage: Sabotage,
    attempt: int = 1,
    obs_dir=None,
) -> None:
    """Worker-process body: one job attempt, result down the pipe.

    No retry loop here — the *supervisor* owns attempts, because a hung
    attempt can only be retried by killing this process.  The heartbeat
    cell is stamped when work starts; a cooperative job may keep
    stamping it via ``repro_heartbeat`` in its kwargs, but the default
    contract is simply "finish within the deadline".  A killed or hung
    worker leaves no obs shard, which the merge treats as "nothing
    recorded", not an error.
    """
    beat.value = time.monotonic()
    if sabotage is not None:
        kind, param = sabotage
        if kind == "hang":
            # A stuck worker: alive but silent.  time.sleep models any
            # non-progressing state the supervisor cannot distinguish.
            time.sleep(float(param))
        elif kind == "kill":
            # Die without a word, mid-protocol: no result ever crosses
            # the pipe (models OOM-kill / segfault / power loss).
            conn.close()
            os._exit(int(param))
        elif kind == "raise":
            job = replace(job, fn=_raise_injected, args=(str(param),), kwargs={})
    conn.send(_run_attempt(job, child_seed, attempt, obs_dir))
    conn.close()


@dataclass
class _Slot:
    """One attempt in flight; ``process`` is None on the inline backend."""

    job: SweepJob
    attempt: int
    started: float
    process: Optional[mp.Process] = None
    conn: object = None
    beat: object = None


@dataclass
class SupervisionReport:
    """What the supervisor did beyond plain execution (for scorecards)."""

    hangs_killed: int = 0
    crashes_detected: int = 0
    reschedules: int = 0
    quarantined: List[str] = field(default_factory=list)
    record_paths: Dict[str, str] = field(default_factory=dict)


class SupervisedSweepExecutor:
    """Run sweep jobs with retries, checkpointing and quarantine.

    Knobs:

    * ``jobs`` — concurrent attempts (``None`` = one per CPU); ``1``
      with no ``deadline_s``/``sabotage_for`` selects the inline
      backend, anything else the process backend;
    * ``retries``/``backoff_s`` — a job runs at most ``retries + 1``
      times; the n-th retry waits ``backoff_s * 2**(n-1)`` seconds;
    * ``deadline_s`` — per-attempt wall-clock lease.  A worker whose
      heartbeat is older than this is killed and the job rescheduled
      (counting as one attempt).  ``None`` disables hang detection
      (crash detection stays on);
    * ``poll_s`` — supervisor loop cadence (also the in-flight
      heartbeat event cadence of the process backend);
    * ``checkpoint`` — resume from and record into this checkpoint;
    * ``on_event(label, event)`` — progress callback with events
      ``"resumed" | "ok" | "retry" | "failed"``;
    * ``base_seed`` — root of each job's derived global-RNG seed;
    * ``tracer`` — receives ``sweep.begin``/``job_done``/``job_failed``/
      ``job_resumed``/``heartbeat``/``end`` events (emitted from this
      process only);
    * ``quarantine_dir`` — where exhausted jobs' failure records are
      written; ``None`` keeps records only in the outcome/checkpoint;
    * ``manifest_id`` — the sweep's run-manifest fingerprint, stamped
      onto every failure record for cross-subsystem traceability;
    * ``sabotage_for`` — chaos seam: maps ``(label, attempt)`` to a
      worker sabotage spec; never set in production;
    * ``obs_dir`` — telemetry directory (:mod:`repro.obs.shards`): each
      attempt writes a span/counter shard here, the loop drops
      heartbeats for ``repro obs top``, and the merged Perfetto trace +
      aggregate counters are written when the sweep finishes.

    After :meth:`run`, :attr:`report` describes the supervision actions
    (kills, crashes, reschedules, quarantined labels).
    """

    def __init__(
        self,
        jobs: Optional[int] = None,
        *,
        retries: int = 2,
        backoff_s: float = 0.5,
        deadline_s: Optional[float] = None,
        poll_s: float = 0.02,
        checkpoint: Optional[Checkpoint] = None,
        on_event: Optional[Callable[[str, str], None]] = None,
        base_seed: int = 0,
        tracer=None,
        quarantine_dir: Optional[Union[str, Path]] = None,
        manifest_id: str = "",
        sabotage_for: Optional[Callable[[str, int], Sabotage]] = None,
        obs_dir: Optional[Union[str, Path]] = None,
    ) -> None:
        self.jobs = resolve_jobs(jobs)
        self.retries = retries
        self.backoff_s = backoff_s
        self.deadline_s = deadline_s
        self.poll_s = poll_s
        self.checkpoint = checkpoint
        self.on_event = on_event
        self.base_seed = base_seed
        self.tracer = tracer
        self.quarantine_dir = (
            Path(quarantine_dir) if quarantine_dir is not None else None
        )
        self.manifest_id = manifest_id
        self.sabotage_for = sabotage_for
        self.obs_dir = Path(obs_dir) if obs_dir is not None else None
        self.report = SupervisionReport()
        self._total = 0
        self._completed = 0
        self._failed = 0

    @property
    def inline(self) -> bool:
        """Whether attempts run in this process (the inline backend)."""
        return (
            self.jobs == 1
            and self.deadline_s is None
            and self.sabotage_for is None
        )

    # ------------------------------------------------------------------
    # events
    # ------------------------------------------------------------------
    def _notify(self, label: str, event: str) -> None:
        if self.on_event is not None:
            self.on_event(label, event)

    def _emit(self, kind: str, **args: object) -> None:
        if self.tracer is not None and self.tracer.enabled:
            self.tracer.emit(kind, src="sweep", args=args)

    def _job_event(self, label: str, event: str, **extra: object) -> None:
        """Fan one job completion out to the callback and the tracer."""
        self._notify(label, event)
        self._completed += 1
        if event == "failed":
            self._failed += 1
        self._emit(_SWEEP_EVENT_KINDS[event], label=label, **extra)
        self._emit(
            "sweep.heartbeat",
            done=self._completed,
            total=self._total,
            failed=self._failed,
        )

    # ------------------------------------------------------------------
    # running
    # ------------------------------------------------------------------
    def run(self, sweep_jobs: Sequence[SweepJob]) -> SweepOutcome:
        """Run every job; never raises for job failures (they become
        :class:`FailureRecord` entries)."""
        labels = [job.label for job in sweep_jobs]
        if len(set(labels)) != len(labels):
            raise ValueError("sweep job labels must be unique")
        self.report = SupervisionReport()
        self._total = len(sweep_jobs)
        self._completed = 0
        self._failed = 0
        self._emit("sweep.begin", n_jobs=len(sweep_jobs), workers=self.jobs)
        resumed: Dict[str, object] = {}
        if self.checkpoint is not None:
            self.checkpoint.load()
            for label in labels:
                prior = self.checkpoint.result_for(label)
                if prior is not None:
                    resumed[label] = prior
                    self._job_event(label, "resumed")
        finished, failed = self._drain(
            [job for job in sweep_jobs if job.label not in resumed]
        )
        # Ordered reassembly: submission order, whatever the completion
        # order was.
        outcome = SweepOutcome()
        for label in labels:
            if label in resumed:
                outcome.results[label] = resumed[label]
                outcome.resumed.append(label)
            elif label in finished:
                outcome.results[label] = finished[label]
            else:
                outcome.failures.append(failed[label])
        self._emit(
            "sweep.end",
            ok=len(outcome.results),
            failed=len(outcome.failures),
            resumed=len(outcome.resumed),
        )
        return outcome

    def map(self, sweep_jobs: Sequence[SweepJob]) -> List[object]:
        """Run jobs and return results in submission order, raising
        :class:`SweepExecutionError` if any job failed (after every job
        has finished, so one bad cell cannot abort its siblings)."""
        outcome = self.run(sweep_jobs)
        if outcome.failures:
            first = outcome.failures[0]
            raise SweepExecutionError(
                f"{len(outcome.failures)} of {len(sweep_jobs)} sweep jobs "
                f"failed; first: {first.label}: {first.error_type}: "
                f"{first.message}"
            )
        return outcome.ordered_results([job.label for job in sweep_jobs])

    def _drain(
        self, sweep_jobs: Sequence[SweepJob]
    ) -> Tuple[Dict[str, object], Dict[str, FailureRecord]]:
        """Run ``sweep_jobs`` to completion on the selected backend;
        returns ``(results, failure records)`` keyed by label."""
        inline = self.inline
        ctx = mp.get_context()
        pending = deque((job, 1) for job in sweep_jobs)
        slots: List[_Slot] = []
        finished: Dict[str, object] = {}
        failed: Dict[str, FailureRecord] = {}
        backoff_until: Dict[str, float] = {}
        # Supervisor-side trace slices (wall-clock ns): one per attempt
        # window, merged as the pid-1 track of the combined trace.
        sup_spans: List[Dict] = []
        launch_wall: Dict[str, int] = {}
        obs_dir = str(self.obs_dir) if self.obs_dir is not None else None
        hb_next = 0.0

        def write_heartbeat(status: str) -> None:
            from repro.obs import shards as obs_shards

            now_mono = time.monotonic()
            obs_shards.write_heartbeat(
                obs_dir,
                status=status,
                done=self._completed,
                total=self._total,
                failed=self._failed,
                in_flight=[
                    {
                        "label": slot.job.label,
                        "attempt": slot.attempt,
                        "age_s": round(now_mono - slot.started, 3),
                        "pid": slot.process.pid
                        if slot.process is not None
                        else os.getpid(),
                    }
                    for slot in slots
                ],
                quarantined=self.report.quarantined,
            )

        def launch(job: SweepJob, attempt: int) -> None:
            launch_wall[job.label] = time.time_ns()
            slot = _Slot(job=job, attempt=attempt, started=time.monotonic())
            slots.append(slot)
            if inline:
                return  # the attempt runs when the slot is reaped
            parent_conn, child_conn = ctx.Pipe(duplex=False)
            slot.conn = parent_conn
            slot.beat = ctx.Value("d", time.monotonic())
            sabotage = (
                self.sabotage_for(job.label, attempt)
                if self.sabotage_for is not None
                else None
            )
            slot.process = ctx.Process(
                target=_supervised_worker,
                args=(
                    job,
                    derive_job_seed(self.base_seed, job.label),
                    child_conn,
                    slot.beat,
                    sabotage,
                    attempt,
                    obs_dir,
                ),
                daemon=True,
            )
            slot.process.start()
            child_conn.close()

        def settle(slot: _Slot, attempt: _Attempt) -> None:
            """A slot produced a terminal attempt outcome."""
            label = slot.job.label
            if obs_dir is not None:
                start_ns = launch_wall.get(label, time.time_ns())
                sup_spans.append(
                    {
                        "name": f"job:{label}",
                        "cat": "sweep",
                        "ts": start_ns,
                        "dur_ns": time.time_ns() - start_ns,
                        "args": {
                            "attempt": slot.attempt,
                            "status": "ok"
                            if attempt.ok
                            else attempt.error_type or "failed",
                        },
                    }
                )
            if attempt.ok:
                finished[label] = attempt.result
                if self.checkpoint is not None:
                    self.checkpoint.record_success(label, attempt.result)
                self._job_event(
                    label,
                    "ok",
                    attempts=slot.attempt,
                    duration_s=round(attempt.duration_s, 6),
                )
                return
            if slot.attempt <= self.retries:
                # Reschedule (crash, hang, or raise) with backoff.
                self.report.reschedules += 1
                backoff_until[label] = (
                    time.monotonic()
                    + self.backoff_s * 2 ** (slot.attempt - 1)
                )
                pending.append((slot.job, slot.attempt + 1))
                self._notify(label, "retry")
                return
            record = FailureRecord(
                label=label,
                attempts=slot.attempt,
                error_type=attempt.error_type,
                message=attempt.message,
                traceback=attempt.traceback,
            ).apply_provenance(slot.job.provenance)
            record.manifest_id = record.manifest_id or self.manifest_id
            failed[label] = record
            self.report.quarantined.append(label)
            if self.quarantine_dir is not None:
                path = write_quarantine_record(record, self.quarantine_dir)
                self.report.record_paths[label] = str(path)
            if self.checkpoint is not None:
                self.checkpoint.record_failure(record)
            self._job_event(
                label,
                "failed",
                attempts=slot.attempt,
                error_type=attempt.error_type,
                duration_s=round(attempt.duration_s, 6),
            )

        def receive(slot: _Slot) -> Optional[_Attempt]:
            """The worker's delivered attempt, if one is in the pipe."""
            if not slot.conn.poll():
                return None
            try:
                return slot.conn.recv()
            except (EOFError, OSError):
                return None

        def reap(slot: _Slot) -> Optional[_Attempt]:
            """Poll one slot; a terminal outcome or None if still running."""
            if slot.process is None:
                return _run_attempt(
                    slot.job,
                    derive_job_seed(self.base_seed, slot.job.label),
                    slot.attempt,
                    obs_dir,
                )
            received = receive(slot)
            if received is None and not slot.process.is_alive():
                slot.process.join()
                # Drain once more: the result may have been flushed into
                # the pipe between the poll above and the death check.
                received = receive(slot)
                if received is None:
                    # Died without delivering: crash (chaos kill, OOM, ...).
                    slot.conn.close()
                    self.report.crashes_detected += 1
                    return _Attempt(
                        label=slot.job.label,
                        ok=False,
                        error_type="WorkerCrashError",
                        message=(
                            f"worker exited with code "
                            f"{slot.process.exitcode} before delivering a "
                            f"result"
                        ),
                        duration_s=time.monotonic() - slot.started,
                    )
            if received is not None:
                slot.process.join()
                slot.conn.close()
                return received
            last_beat = max(slot.beat.value, slot.started)
            if (
                self.deadline_s is not None
                and time.monotonic() - last_beat > self.deadline_s
            ):
                # Hung: alive but past its lease.  Kill and account.
                slot.process.kill()
                slot.process.join()
                slot.conn.close()
                self.report.hangs_killed += 1
                return _Attempt(
                    label=slot.job.label,
                    ok=False,
                    error_type="WorkerHungError",
                    message=(
                        f"no heartbeat for {self.deadline_s}s; worker "
                        f"killed by supervisor"
                    ),
                    duration_s=time.monotonic() - slot.started,
                )
            return None

        try:
            while pending or slots:
                now = time.monotonic()
                if obs_dir is not None and now >= hb_next:
                    # Throttled: the heartbeat file is for human-cadence
                    # consumers (repro obs top), not the poll loop.
                    write_heartbeat("running")
                    hb_next = now + max(self.poll_s, 0.5)
                while pending and len(slots) < self.jobs:
                    job, attempt = pending[0]
                    wait = backoff_until.get(job.label, 0.0) - time.monotonic()
                    if wait > 0:
                        if slots:
                            break
                        # Nothing in flight: sleep the backoff out.
                        time.sleep(wait)
                    pending.popleft()
                    launch(job, attempt)
                progressed = False
                for slot in list(slots):
                    outcome = reap(slot)
                    if outcome is not None:
                        slots.remove(slot)
                        settle(slot, outcome)
                        progressed = True
                if slots and not progressed:
                    self._emit(
                        "sweep.heartbeat",
                        done=self._completed,
                        total=self._total,
                        failed=self._failed,
                        in_flight=len(slots),
                    )
                    time.sleep(self.poll_s)
        finally:
            for slot in slots:  # only on raise/interrupt
                if slot.process is not None:
                    slot.process.kill()
                    slot.process.join()

        if obs_dir is not None:
            write_heartbeat("done")
            try:
                from repro.obs.shards import write_merged

                write_merged(obs_dir, sup_spans)
            except Exception:  # pragma: no cover - obs must not fail a sweep
                pass
        return finished, failed
