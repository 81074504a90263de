"""The sweep job spec: what one independent sweep cell is.

Every paper sweep is embarrassingly parallel: each (workload,
configuration) cell is an independent deterministic simulation.  A
:class:`SweepJob` describes one such cell — a label, a module-level
callable and its arguments — and
:class:`~repro.robustness.supervisor.SupervisedSweepExecutor` runs a
list of them, in this process or across worker processes, with the same
retry, checkpoint and quarantine contract either way.

Each cell seeds its own :class:`~repro.common.rng.DeterministicRng` from
its config, so results never depend on execution order or worker count.
As a belt-and-braces measure every attempt also reseeds the *global*
``random`` and ``numpy`` generators from :func:`derive_job_seed`, so
even code that accidentally reached for a global RNG stays
reproducible per job.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import Callable, Dict, Optional, Tuple

from repro.common.rng import DeterministicRng


def default_jobs() -> int:
    """The default worker count: every CPU the machine offers."""
    return os.cpu_count() or 1


def resolve_jobs(jobs: Optional[int]) -> int:
    """Normalize a ``--jobs`` value: ``None`` means all CPUs, floors at 1."""
    if jobs is None:
        return default_jobs()
    return max(1, int(jobs))


def derive_job_seed(base_seed: int, label: str) -> int:
    """Deterministic child seed for one job, keyed by its label.

    Uses :meth:`DeterministicRng.fork` (stable crc32 derivation), so the
    seed a job gets depends only on ``(base_seed, label)`` — never on
    worker identity, submission order, or ``PYTHONHASHSEED``.
    """
    return DeterministicRng(base_seed).fork(label).seed


@dataclass(frozen=True)
class SweepJob:
    """One picklable sweep cell: a module-level callable plus arguments.

    Worker processes receive jobs by pickling, so ``fn`` must be an
    importable top-level function, not a closure.
    """

    label: str
    fn: Callable[..., object]
    args: Tuple = ()
    kwargs: Dict = field(default_factory=dict)
    #: optional provenance stamped onto a FailureRecord if this job is
    #: quarantined (keys: seed, engine, config_sha256, batch_window,
    #: manifest_id) — see FailureRecord.apply_provenance
    provenance: Dict = field(default_factory=dict)

    def run(self) -> object:
        return self.fn(*self.args, **self.kwargs)
