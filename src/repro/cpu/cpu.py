"""The hardware-context executor (blocking, TimingSimpleCPU-style).

One :class:`HardwareContext` models one logical CPU (a core thread).  It
runs at most one task's generator at a time, advancing a core-local cycle
count by one cycle per instruction plus the full latency of every memory
operation — the blocking model the paper's gem5 evaluation uses.

Scheduling decisions (who runs next, quantum expiry, context-switch cost)
belong to the OS layer.  The executor runs a *slice* of operations per
call, within an operation count and a core-local time bound the kernel
sets, and reports how the slice ended so the kernel can react.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Callable, Optional

from repro.common.errors import ProgramError
from repro.common.stats import StatGroup
from repro.core.timecache import TimeCacheSystem
from repro.cpu.isa import (
    AccessRun,
    Compute,
    Exit,
    Fence,
    Flush,
    Ifetch,
    Load,
    Rdtsc,
    SleepOp,
    Store,
    YieldOp,
)
from repro.cpu.program import ProgramGen
from repro.memsys.hierarchy import AccessKind

#: AccessRun kind code -> access kind
_KIND_OF_CODE = {
    "L": AccessKind.LOAD,
    "S": AccessKind.STORE,
    "I": AccessKind.IFETCH,
}
_LOAD = AccessKind.LOAD
_STORE = AccessKind.STORE
_IFETCH = AccessKind.IFETCH


class StepEvent(enum.Enum):
    """What ended a :meth:`HardwareContext.step` call."""

    RUNNING = "running"
    YIELDED = "yielded"
    SLEEPING = "sleeping"
    EXITED = "exited"


@dataclass(frozen=True)
class StepOutcome:
    """Result of one :meth:`HardwareContext.step` call."""

    event: StepEvent
    #: core-local wake time for SLEEPING, else None
    wake_at: Optional[int] = None
    #: operations the call executed (generator exhaustion counts as one)
    ops: int = 1


_RUNNING = StepEvent.RUNNING
_EXITED = StepEvent.EXITED
#: interned one-op outcomes (what a bare ``step()`` usually returns)
_ONE_OP = {
    event: StepOutcome(event)
    for event in (StepEvent.RUNNING, StepEvent.YIELDED, StepEvent.EXITED)
}
#: ``until`` when the caller sets no time bound
_NO_BOUND = float("inf")


#: translates a task virtual address to a physical address
Translator = Callable[[int], int]


class HardwareContext:
    """One logical CPU executing one task generator at a time."""

    def __init__(self, ctx_id: int, system: TimeCacheSystem) -> None:
        self.ctx_id = ctx_id
        self.system = system
        #: core-local cycle counter (monotone for the context's lifetime)
        self.local_time = 0
        self.stats = StatGroup(f"ctx{ctx_id}")
        self._gen: Optional[ProgramGen] = None
        self._translate: Optional[Translator] = None
        self._pending_result: object = None

    # ------------------------------------------------------------------
    def install(self, gen: ProgramGen, translate: Translator) -> None:
        """Bind a task's generator and address translation to this context."""
        self._gen = gen
        self._translate = translate
        self._pending_result = None

    def uninstall(self) -> None:
        self._gen = None
        self._translate = None
        self._pending_result = None

    @property
    def busy(self) -> bool:
        return self._gen is not None

    @property
    def instructions(self) -> int:
        return self.stats.get("instructions")

    # ------------------------------------------------------------------
    def step(self, max_ops: int = 1, until: Optional[int] = None) -> StepOutcome:
        """Execute a slice of the installed task's operations.

        Operations run back to back until one of these happens: ``max_ops``
        operations have run, an operation leaves ``local_time >= until``,
        or the task yields, sleeps or exits.  At least one operation
        always runs, so a bare ``step()`` executes exactly one.  Each
        operation sees the same clock and sends the same result back as it
        would one step at a time; the kernel picks the bounds so that a
        slice ends exactly where it would otherwise switch contexts.

        The instruction and access counters are added once per call, also
        when the program or the memory system raises mid-slice.
        """
        if max_ops < 1:
            raise ValueError(f"step needs max_ops >= 1, got {max_ops}")
        gen = self._gen
        translate = self._translate
        if gen is None or translate is None:
            raise ProgramError(f"ctx{self.ctx_id}: no task installed")
        bound = _NO_BOUND if until is None else until
        send = gen.send
        access = self.system.access
        ctx_id = self.ctx_id
        result = self._pending_result
        event = _RUNNING
        wake_at = None
        ops = loads = stores = ifetches = flushes = other = 0
        try:
            while True:
                try:
                    op = send(result)
                except StopIteration:
                    ops += 1
                    event = _EXITED
                    result = None
                    break
                ops += 1
                cls = type(op)
                # translate() runs before local_time is read: a TLB walk
                # charges the core clock ahead of the access it serves.
                if cls is Load:
                    paddr = translate(op.vaddr)
                    result = access(ctx_id, paddr, _LOAD, self.local_time)
                    self.local_time += 1 + result.latency
                    loads += 1
                elif cls is Compute:
                    self.local_time += op.instructions
                    other += op.instructions
                    result = None
                elif cls is Ifetch:
                    paddr = translate(op.vaddr)
                    result = access(ctx_id, paddr, _IFETCH, self.local_time)
                    self.local_time += 1 + result.latency
                    ifetches += 1
                elif cls is Store:
                    paddr = translate(op.vaddr)
                    result = access(ctx_id, paddr, _STORE, self.local_time)
                    self.local_time += 1 + result.latency
                    stores += 1
                elif cls is AccessRun:
                    paddrs = [translate(v) for v in op.vaddrs]
                    codes = op.kinds
                    if len(codes) == 1:
                        kinds = _KIND_OF_CODE[codes]
                        codes = codes * len(paddrs)
                    else:
                        kinds = [_KIND_OF_CODE[c] for c in codes]
                    batch = self.system.access_batch(
                        ctx_id, paddrs, kinds, now=self.local_time, advance=1
                    )
                    # batch.now is exactly local_time + sum(1 + latency)
                    # over the run: the clock the scalar sequence reaches.
                    self.local_time = batch.now
                    loads += codes.count("L")
                    stores += codes.count("S")
                    ifetches += codes.count("I")
                    result = batch.results
                elif cls is Flush:
                    paddr = translate(op.vaddr)
                    result = self.system.flush(ctx_id, paddr, self.local_time)
                    self.local_time += 1 + result.latency
                    flushes += 1
                elif cls is Rdtsc:
                    self.local_time += 1
                    other += 1
                    result = self.local_time
                elif cls is Fence:
                    self.local_time += 1
                    other += 1
                    result = None
                elif cls is YieldOp:
                    self.local_time += 1
                    other += 1
                    result = None
                    event = StepEvent.YIELDED
                    break
                elif cls is SleepOp:
                    self.local_time += 1
                    other += 1
                    result = None
                    event = StepEvent.SLEEPING
                    wake_at = self.local_time + op.cycles
                    break
                elif cls is Exit:
                    other += 1
                    result = None
                    event = _EXITED
                    break
                else:
                    raise ProgramError(f"unknown operation {op!r}")
                if ops >= max_ops or self.local_time >= bound:
                    break
        finally:
            self._pending_result = result
            instructions = loads + stores + ifetches + flushes + other
            if instructions:
                stats = self.stats
                stats.counter("instructions").add(instructions)
                for name, count in (("loads", loads), ("stores", stores),
                                    ("ifetches", ifetches), ("flushes", flushes)):
                    if count:
                        stats.counter(name).add(count)
        if ops == 1 and wake_at is None:
            return _ONE_OP[event]
        return StepOutcome(event, wake_at, ops)
