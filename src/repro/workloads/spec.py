"""SPEC-style experiment construction: two processes on one core.

Reproduces the paper's single-core methodology: two benchmark processes
are time-sliced on one core by the round-robin scheduler; the shared
software between them is libc, kernel text, and — for same-benchmark
pairs — the benchmark binary itself.
"""

from __future__ import annotations

from typing import Dict, Hashable, Optional, Tuple

from repro.cpu.program import TraceProgram
from repro.os.kernel import Kernel
from repro.os.process import Task
from repro.workloads.generator import WorkloadBuilder
from repro.workloads.profiles import spec_profile


def build_spec_pair(
    kernel: Kernel,
    bench_a: str,
    bench_b: str,
    instructions: int,
    seed: int = 0xBEEF,
    programs: Optional[Dict[Hashable, TraceProgram]] = None,
) -> Tuple[Task, Task]:
    """Create the two processes of one Table II row on core 0.

    Both tasks execute ``instructions`` instructions; the run completes
    when both exit, and normalized execution time is taken over the
    makespan (fixed work, variable time).  ``programs`` is a
    :func:`~repro.cpu.program.shared_programs` table: builds of one
    experiment that share it replay the same two streams.
    """
    builder = WorkloadBuilder(kernel, seed=seed, programs=programs)
    _, task_a = builder.build_process(
        spec_profile(bench_a), instance=0, instructions=instructions, affinity=0
    )
    _, task_b = builder.build_process(
        spec_profile(bench_b), instance=1, instructions=instructions, affinity=0
    )
    kernel.submit(task_a)
    kernel.submit(task_b)
    return task_a, task_b
