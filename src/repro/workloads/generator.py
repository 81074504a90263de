"""Turn a :class:`BenchmarkProfile` into a runnable process.

:class:`WorkloadBuilder` lays out a process's address space (private
data, private or shared benchmark text, shared libc, shared kernel text)
on a :class:`~repro.os.kernel.Kernel` and produces a lazy generator
program that emits the profile's instruction/memory mix until a target
instruction count is reached.

Everything is deterministic given the seed, so a baseline run and a
TimeCache run of the same experiment execute the *identical* operation
stream — the normalized-execution-time comparisons of Figures 7/9/10
compare cycles over fixed work.
"""

from __future__ import annotations

from typing import List, Tuple

from repro.common.rng import DeterministicRng
from repro.cpu.isa import Compute, Exit, Ifetch, Load, Store
from repro.cpu.program import Program, ProgramGen
from repro.os.kernel import Kernel
from repro.workloads.profiles import BenchmarkProfile

#: virtual layout, common to every synthetic process
CODE_BASE = 0x0400000
LIB_BASE = 0x2000000
KERNEL_BASE = 0x3000000
DATA_BASE = 0x8000000

#: shared kernel text size, in lines (mapped into every process)
KERNEL_LINES = 96


class WorkloadBuilder:
    """Builds synthetic benchmark processes on a kernel."""

    def __init__(self, kernel: Kernel, seed: int = 0xBEEF) -> None:
        self.kernel = kernel
        self.rng = DeterministicRng(seed)
        self.line_bytes = kernel.config.hierarchy.line_bytes
        # One shared kernel text for the whole machine, one shared libc.
        self._kernel_seg = kernel.phys.allocate_segment(
            "kernel.text", KERNEL_LINES * self.line_bytes, content_key="kernel"
        )
        self._lib_segments: dict = {}

    # ------------------------------------------------------------------
    def _lib_segment(self, lines: int):
        """The shared libc segment, grown to the largest request seen.

        All processes map the same physical libc; a benchmark's
        ``shared_lib_lines`` selects how much of it the benchmark uses.
        """
        if "libc" not in self._lib_segments:
            self._lib_segments["libc"] = self.kernel.phys.allocate_segment(
                "libc.text", 512 * self.line_bytes, content_key="libc-2.31"
            )
        return self._lib_segments["libc"]

    def build_process(
        self,
        profile: BenchmarkProfile,
        instance: int,
        instructions: int,
        affinity: int = 0,
    ):
        """Create one process + task running ``profile``.

        Benchmark text is allocated with a content key, so two instances
        of the same benchmark automatically share their binary's physical
        pages (the ``2Xfoo`` configuration: same content, deduplicated by
        the loader), while different benchmarks get distinct pages.
        """
        profile.validate()
        name = f"{profile.name}.{instance}"
        process = self.kernel.create_process(name)
        aspace = process.address_space
        line_bytes = self.line_bytes

        code_seg = self.kernel.phys.allocate_segment(
            f"{name}.text",
            profile.code_lines * line_bytes,
            content_key=f"bin-{profile.name}",
        )
        aspace.map_segment(code_seg, CODE_BASE)
        aspace.map_segment(self._lib_segment(profile.shared_lib_lines), LIB_BASE)
        aspace.map_segment(self._kernel_seg, KERNEL_BASE)
        data_seg = self.kernel.phys.allocate_segment(
            f"{name}.data", profile.data_lines * line_bytes
        )
        aspace.map_segment(data_seg, DATA_BASE)

        program = self._make_program(profile, instructions, seed_tag=name)
        task = process.spawn(program, affinity=affinity)
        return process, task

    # ------------------------------------------------------------------
    def _make_program(
        self, profile: BenchmarkProfile, instructions: int, seed_tag: str
    ) -> Program:
        """The lazy op stream implementing the profile's behavior."""
        rng = self.rng.fork(seed_tag)
        line_bytes = self.line_bytes

        def factory() -> ProgramGen:
            yield from _profile_ops(profile, instructions, rng, line_bytes)
            yield Exit()

        return Program(profile.name, factory)


def _profile_ops(
    profile: BenchmarkProfile,
    instructions: int,
    rng: DeterministicRng,
    line_bytes: int,
) -> ProgramGen:
    """The profile's operation mix (without the trailing ``Exit``).

    Shared by the process programs and the reference-stream producers so
    both draw the identical deterministic stream for a given rng state.
    """
    hot_lines = max(1, int(profile.data_lines * profile.hot_set_fraction))
    ws_lines = profile.data_lines
    lib_lines = profile.shared_lib_lines
    code_lines = profile.code_lines
    # Hot loop: profile fields and rng draws bound to locals.  randbelow(n)
    # draws exactly what randint(0, n - 1) does, so the stream is unchanged.
    ifetch_every = profile.ifetch_every
    syscall_every = profile.syscall_every
    mem_ratio = profile.mem_ratio
    stream_fraction = profile.stream_fraction
    stream_accesses_per_line = profile.stream_accesses_per_line
    hot_fraction = profile.hot_fraction
    write_ratio = profile.write_ratio
    random = rng.random
    randbelow = rng.randbelow
    retired = 0
    stream_pos = randbelow(ws_lines)
    stream_in_line = 0
    code_pos = 0
    since_ifetch = 0
    since_syscall = 0
    while retired < instructions:
        # Instruction fetch stream: walk the code footprint, with
        # a slice of fetches landing in the shared library.
        since_ifetch += 1
        if since_ifetch >= ifetch_every:
            since_ifetch = 0
            if random() < 0.15 and lib_lines > 0:
                addr = LIB_BASE + randbelow(lib_lines) * line_bytes
            else:
                code_pos = (code_pos + 1) % code_lines
                if random() < 0.1:  # branch: jump somewhere
                    code_pos = randbelow(code_lines)
                addr = CODE_BASE + code_pos * line_bytes
            yield Ifetch(addr)
            retired += 1
            continue

        # Occasional syscall: a burst through shared kernel text.
        since_syscall += 1
        if since_syscall >= syscall_every:
            since_syscall = 0
            start = randbelow(KERNEL_LINES - 4)
            for k in range(4):
                yield Ifetch(KERNEL_BASE + (start + k) * line_bytes)
            retired += 4
            continue

        if random() < mem_ratio:
            # Data access: streaming, hot, or cold.
            if random() < stream_fraction:
                stream_in_line += 1
                if stream_in_line >= stream_accesses_per_line:
                    stream_in_line = 0
                    stream_pos = (stream_pos + 1) % ws_lines
                index = stream_pos
            elif random() < hot_fraction:
                index = randbelow(hot_lines)
            else:
                index = randbelow(ws_lines)
            addr = DATA_BASE + index * line_bytes
            if random() < write_ratio:
                yield Store(addr)
            else:
                yield Load(addr)
            retired += 1
        else:
            # A run of ALU work between memory operations.
            burst = 1 + randbelow(4)
            yield Compute(burst)
            retired += burst


def profile_reference_stream(
    profile: BenchmarkProfile,
    accesses: int,
    seed: int = 0xBEEF,
    line_bytes: int = 64,
) -> Tuple[List[int], str]:
    """A profile's bare memory-reference stream as ``(vaddrs, kinds)``.

    Strips the compute bursts out of the operation mix, leaving the
    load/store/ifetch sequence with the profile's address distributions
    intact — the shape the batched access drivers consume directly
    (``kinds`` is a code string, one ``L``/``S``/``I`` per address).
    No kernel is needed; virtual addresses use the standard layout
    bases, so the stream can be replayed raw against a hierarchy or
    wrapped into :class:`~repro.cpu.isa.AccessRun` chunks.
    """
    profile.validate()
    rng = DeterministicRng(seed).fork(f"stream-{profile.name}")
    vaddrs: List[int] = []
    kinds: List[str] = []
    # Memory ops are ~mem_ratio of retired instructions; oversize the
    # instruction budget and stop at the access target.
    budget = max(64, int(accesses * 4))
    while len(vaddrs) < accesses:
        for op in _profile_ops(profile, budget, rng, line_bytes):
            if isinstance(op, Load):
                vaddrs.append(op.vaddr)
                kinds.append("L")
            elif isinstance(op, Store):
                vaddrs.append(op.vaddr)
                kinds.append("S")
            elif isinstance(op, Ifetch):
                vaddrs.append(op.vaddr)
                kinds.append("I")
            if len(vaddrs) >= accesses:
                break
    return vaddrs, "".join(kinds)
