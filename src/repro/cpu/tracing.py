"""Record and replay operation traces.

A recorded trace decouples workload *generation* from *simulation*: the
same operation stream can be replayed against different configurations
(baseline vs TimeCache vs partitioning) or saved to disk for regression
experiments.  The format is line-oriented text — one op per line — so
traces diff cleanly and can be inspected or hand-written.

Format::

    L <vaddr-hex>     load
    S <vaddr-hex>     store
    I <vaddr-hex>     instruction fetch
    R <kinds> <vaddr-hex>...   batched access run (kinds: L/S/I codes)
    F <vaddr-hex>     clflush
    C <count>         compute burst
    T                 rdtsc
    B                 fence (barrier)
    Y                 sched_yield
    Z <cycles>        sleep
    X                 exit

:func:`replay_ops` replays a memory-op stream straight into a
:class:`~repro.core.timecache.TimeCacheSystem` (no CPU/OS layers),
either scalar or coalesced through the batched access path — the two
modes produce identical results by construction.
"""

from __future__ import annotations

from pathlib import Path
from typing import Callable, Iterable, Iterator, List, Optional, Tuple, Union

from repro.common.errors import ProgramError
from repro.core.timecache import TimeCacheSystem
from repro.cpu.isa import (
    AccessRun,
    Compute,
    Exit,
    Fence,
    Flush,
    Ifetch,
    Load,
    Op,
    Rdtsc,
    SleepOp,
    Store,
    YieldOp,
)
from repro.cpu.program import Program, trace_program
from repro.memsys.hierarchy import AccessKind, AccessResult

_KIND_OF_CODE = {
    "L": AccessKind.LOAD,
    "S": AccessKind.STORE,
    "I": AccessKind.IFETCH,
}
_CODE_OF_TYPE = {Load: "L", Store: "S", Ifetch: "I"}


def format_op(op: Op) -> str:
    """One trace line for one operation."""
    if isinstance(op, Load):
        return f"L {op.vaddr:x}"
    if isinstance(op, Store):
        return f"S {op.vaddr:x}"
    if isinstance(op, Ifetch):
        return f"I {op.vaddr:x}"
    if isinstance(op, AccessRun):
        addrs = " ".join(f"{v:x}" for v in op.vaddrs)
        return f"R {op.kinds} {addrs}"
    if isinstance(op, Flush):
        return f"F {op.vaddr:x}"
    if isinstance(op, Compute):
        return f"C {op.instructions}"
    if isinstance(op, Rdtsc):
        return "T"
    if isinstance(op, Fence):
        return "B"
    if isinstance(op, YieldOp):
        return "Y"
    if isinstance(op, SleepOp):
        return f"Z {op.cycles}"
    if isinstance(op, Exit):
        return "X"
    raise ProgramError(f"cannot serialize {op!r}")


def parse_op(line: str) -> Op:
    """Inverse of :func:`format_op`; raises on malformed lines."""
    parts = line.split()
    if not parts:
        raise ProgramError("empty trace line")
    kind = parts[0]
    try:
        if kind == "L":
            return Load(int(parts[1], 16))
        if kind == "S":
            return Store(int(parts[1], 16))
        if kind == "I":
            return Ifetch(int(parts[1], 16))
        if kind == "R":
            return AccessRun(
                [int(p, 16) for p in parts[2:]], kinds=parts[1]
            )
        if kind == "F":
            return Flush(int(parts[1], 16))
        if kind == "C":
            return Compute(int(parts[1]))
        if kind == "T":
            return Rdtsc()
        if kind == "B":
            return Fence()
        if kind == "Y":
            return YieldOp()
        if kind == "Z":
            return SleepOp(int(parts[1]))
        if kind == "X":
            return Exit()
    except (IndexError, ValueError) as exc:
        raise ProgramError(f"malformed trace line {line!r}") from exc
    raise ProgramError(f"unknown trace op {kind!r}")


def record_program(program: Program, max_ops: int = 10_000_000) -> List[Op]:
    """Materialize a program's operation stream.

    Only valid for programs whose control flow does not depend on
    operation results (workload traces do; attackers that branch on
    measured latency do not — recording those raises).
    """
    ops: List[Op] = []
    gen = program.start()
    try:
        op = next(gen)
        while True:
            ops.append(op)
            if len(ops) > max_ops:
                raise ProgramError(
                    f"trace of {program.name} exceeds {max_ops} ops"
                )
            op = gen.send(None)
    except StopIteration:
        return ops


def save_trace(ops: Iterable[Op], path: Union[str, Path]) -> int:
    """Write a trace file; returns the number of ops written."""
    count = 0
    with open(path, "w") as handle:
        for op in ops:
            handle.write(format_op(op) + "\n")
            count += 1
    return count


def load_trace(path: Union[str, Path]) -> List[Op]:
    """Read a trace file back into operations (comments allowed: ``#``)."""
    ops: List[Op] = []
    with open(path) as handle:
        for raw in handle:
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            ops.append(parse_op(line))
    return ops


def trace_file_program(name: str, path: Union[str, Path]) -> Program:
    """A restartable program replaying a trace file, parsed here so a
    malformed line fails now rather than at the first start."""
    return trace_program(name, load_trace(path))


def iter_trace_ops(lines: Iterable[str]) -> Iterator[Op]:
    """Streaming parser for very large traces (no materialization)."""
    for raw in lines:
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        yield parse_op(line)


def replay_ops(
    system: TimeCacheSystem,
    ops: Iterable[Op],
    ctx: int = 0,
    translate: Optional[Callable[[int], int]] = None,
    batch: bool = True,
    now: int = 0,
) -> Tuple[List[AccessResult], int]:
    """Replay an operation stream straight into ``system``.

    The CPU and OS layers are bypassed: operations execute back-to-back
    on hardware context ``ctx`` with the blocking time rule (one issue
    cycle plus the full latency of every memory access; compute bursts
    cost their instruction count).  With ``batch=True`` consecutive
    load/store/ifetch operations — and ``AccessRun`` payloads — are
    coalesced through :meth:`TimeCacheSystem.access_batch`;
    ``batch=False`` replays strictly scalar.  Both modes produce
    identical results, timing, and final cache state (the engine
    equivalence fuzz locks this in).  Flushes, computes, fences, and the
    other non-access operations are batch boundaries.  Sleeps advance
    the replay cursor by their full duration (there is no scheduler to
    block on); ``Exit`` stops the replay.

    Returns ``(results, now)``: one :class:`AccessResult` per memory
    access in stream order, and the final cursor value.
    """
    if translate is None:
        translate = lambda v: v  # noqa: E731 - identity mapping
    results: List[AccessResult] = []
    pending_addrs: List[int] = []
    pending_kinds: List[str] = []

    def drain(cursor: int) -> int:
        if not pending_addrs:
            return cursor
        codes = set(pending_kinds)
        kinds = (
            _KIND_OF_CODE[pending_kinds[0]]
            if len(codes) == 1
            else [_KIND_OF_CODE[c] for c in pending_kinds]
        )
        if batch:
            outcome = system.access_batch(
                ctx, pending_addrs, kinds, now=cursor, advance=1
            )
            results.extend(outcome.results)
            cursor = outcome.now
        else:
            kind_seq = (
                [kinds] * len(pending_addrs)
                if isinstance(kinds, AccessKind)
                else kinds
            )
            for addr, kind in zip(pending_addrs, kind_seq):
                result = system.access(ctx, addr, kind, cursor)
                results.append(result)
                cursor += 1 + result.latency
        pending_addrs.clear()
        pending_kinds.clear()
        return cursor

    for op in ops:
        code = _CODE_OF_TYPE.get(type(op))
        if code is not None:
            pending_addrs.append(translate(op.vaddr))
            pending_kinds.append(code)
            continue
        if isinstance(op, AccessRun):
            pending_addrs.extend(translate(v) for v in op.vaddrs)
            pending_kinds.extend(
                op.kinds * len(op.vaddrs) if len(op.kinds) == 1 else op.kinds
            )
            continue
        now = drain(now)
        if isinstance(op, Flush):
            result = system.flush(ctx, translate(op.vaddr), now)
            now += 1 + result.latency
        elif isinstance(op, Compute):
            now += op.instructions
        elif isinstance(op, (Rdtsc, Fence, YieldOp)):
            now += 1
        elif isinstance(op, SleepOp):
            now += 1 + op.cycles
        elif isinstance(op, Exit):
            break
        else:
            raise ProgramError(f"cannot replay {op!r}")
    now = drain(now)
    return results, now
