"""PARSEC-style experiment construction: 2 threads on 2 cores.

Reproduces the paper's multithreaded methodology (system-emulation mode
with the clone syscall placing the second thread on another core): one
process, one address space, two tasks pinned to different cores.  The
threads partition the data working set (each owns half) but share the
program text, the shared libraries, a shared read-mostly region, and the
kernel — so first accesses occur only at the shared LLC, never in the
private L1s (Figure 9b's key observation).
"""

from __future__ import annotations

from typing import Dict, Hashable, Optional, Tuple

from repro.common.errors import ConfigError
from repro.common.rng import DeterministicRng
from repro.cpu.isa import Compute, Exit, Ifetch, Load, Store
from repro.cpu.program import ProgramGen, TraceProgram, trace_program
from repro.os.kernel import Kernel
from repro.os.process import Task
from repro.workloads.generator import (
    CODE_BASE,
    DATA_BASE,
    KERNEL_BASE,
    KERNEL_LINES,
    LIB_BASE,
    WorkloadBuilder,
)
from repro.workloads.profiles import BenchmarkProfile, parsec_profile

#: region of the data segment both threads read (shared input data)
SHARED_DATA_FRACTION = 0.125


def _thread_program(
    profile: BenchmarkProfile,
    thread_id: int,
    instructions: int,
    line_bytes: int,
    rng: DeterministicRng,
) -> TraceProgram:
    """One PARSEC thread, drawn on the program's first start."""
    return trace_program(
        f"{profile.name}.t{thread_id}",
        _thread_ops(profile, thread_id, instructions, line_bytes, rng),
    )


def _thread_ops(
    profile: BenchmarkProfile,
    thread_id: int,
    instructions: int,
    line_bytes: int,
    rng: DeterministicRng,
) -> ProgramGen:
    """One thread's ops: private partition + shared read-mostly region.

    Ops are interned per address, as in the SPEC generator.
    """
    ws = profile.data_lines
    shared_lines = max(1, int(ws * SHARED_DATA_FRACTION))
    private_lines = max(1, (ws - shared_lines) // 2)
    private_base_line = shared_lines + thread_id * private_lines
    hot_lines = max(1, int(private_lines * profile.hot_set_fraction))
    # Hot loop: profile fields and rng draws bound to locals.  randbelow(n)
    # draws exactly what randint(0, n - 1) does, so the stream is unchanged.
    ifetch_every = profile.ifetch_every
    lib_lines = profile.shared_lib_lines
    code_lines = profile.code_lines
    mem_ratio = profile.mem_ratio
    stream_fraction = profile.stream_fraction
    stream_accesses_per_line = profile.stream_accesses_per_line
    hot_fraction = profile.hot_fraction
    write_ratio = profile.write_ratio
    random = rng.random
    randbelow = rng.randbelow
    loads: Dict[int, Load] = {}
    stores: Dict[int, Store] = {}
    ifetches: Dict[int, Ifetch] = {}
    computes = (None, Compute(1), Compute(2), Compute(3), Compute(4))
    retired = 0
    stream_pos = 0
    stream_in_line = 0
    code_pos = thread_id  # threads start in different code regions
    since_ifetch = 0
    while retired < instructions:
        since_ifetch += 1
        if since_ifetch >= ifetch_every:
            since_ifetch = 0
            r = random()
            if r < 0.1 and lib_lines > 0:
                addr = LIB_BASE + randbelow(lib_lines) * line_bytes
            elif r < 0.13:
                addr = KERNEL_BASE + randbelow(KERNEL_LINES) * line_bytes
            else:
                code_pos = (code_pos + 1) % code_lines
                addr = CODE_BASE + code_pos * line_bytes
            op = ifetches.get(addr)
            if op is None:
                op = ifetches[addr] = Ifetch(addr)
            yield op
            retired += 1
            continue
        if random() < mem_ratio:
            if random() < 0.08:
                # read the shared input region (cross-thread sharing)
                addr = DATA_BASE + randbelow(shared_lines) * line_bytes
                write = False
            else:
                if random() < stream_fraction:
                    stream_in_line += 1
                    if stream_in_line >= stream_accesses_per_line:
                        stream_in_line = 0
                        stream_pos = (stream_pos + 1) % private_lines
                    index = private_base_line + stream_pos
                elif random() < hot_fraction:
                    index = private_base_line + randbelow(hot_lines)
                else:
                    index = private_base_line + randbelow(private_lines)
                addr = DATA_BASE + index * line_bytes
                write = random() < write_ratio
            if write:
                op = stores.get(addr)
                if op is None:
                    op = stores[addr] = Store(addr)
            else:
                op = loads.get(addr)
                if op is None:
                    op = loads[addr] = Load(addr)
            yield op
            retired += 1
        else:
            burst = 1 + randbelow(4)
            yield computes[burst]
            retired += burst
    yield Exit()


def build_parsec_workload(
    kernel: Kernel,
    bench: str,
    instructions_per_thread: int,
    seed: int = 0xFACE,
    programs: Optional[Dict[Hashable, TraceProgram]] = None,
) -> Tuple[Task, Task]:
    """One PARSEC process with two threads pinned to cores 0 and 1.

    ``programs`` is a :func:`~repro.cpu.program.shared_programs` table:
    builds of one experiment that share it replay the same two streams.
    """
    if kernel.config.hierarchy.num_hw_contexts < 2:
        raise ConfigError("PARSEC workloads need two hardware contexts")
    profile = parsec_profile(bench)
    profile.validate()
    builder = WorkloadBuilder(kernel, seed=seed, programs=programs)
    line_bytes = builder.line_bytes

    process = kernel.create_process(profile.name)
    aspace = process.address_space
    code_seg = kernel.phys.allocate_segment(
        f"{profile.name}.text", profile.code_lines * line_bytes
    )
    aspace.map_segment(code_seg, CODE_BASE)
    aspace.map_segment(builder._lib_segment(profile.shared_lib_lines), LIB_BASE)
    aspace.map_segment(kernel.phys.segment("kernel.text"), KERNEL_BASE)
    data_seg = kernel.phys.allocate_segment(
        f"{profile.name}.data", profile.data_lines * line_bytes
    )
    aspace.map_segment(data_seg, DATA_BASE)

    tasks = []
    for thread_id in (0, 1):
        program = builder.shared_program(
            f"{profile.name}.t{thread_id}",
            instructions_per_thread,
            lambda thread_id=thread_id: _thread_program(
                profile,
                thread_id,
                instructions_per_thread,
                line_bytes,
                builder.rng.fork(f"t{thread_id}"),
            ),
        )
        tasks.append(process.spawn(program, affinity=thread_id))
    t0, t1 = tasks
    kernel.submit(t0)
    kernel.submit(t1)
    return t0, t1
