"""The simulation driver: dispatch, quanta, context switches, stepping.

:class:`Kernel` owns a :class:`~repro.core.timecache.TimeCacheSystem`, one
:class:`~repro.cpu.cpu.HardwareContext` per logical CPU, and a round-robin
scheduler.  It advances the machine by always stepping the busy hardware
context with the *lowest* core-local time (exact event ordering across
cores, the way a conservative discrete-event simulator would), enforcing
the quantum, and performing context switches.  Each step runs a slice:
the picked context executes operations until its quantum ends or another
context would become the lowest-time pick (conservative lookahead), so
the machine executes the same operations in the same order as it would
one operation at a time.

A context switch is where the paper's software support runs: the kernel
calls :meth:`TimeCacheSystem.context_switch`, which saves the outgoing
task's s-bits, restores the incoming task's, and runs the timestamp
comparator; the returned bookkeeping cost plus the fixed switch cost is
charged to the incoming task's core-local time — mirroring how the paper
adds the measured 1.08 us DMA latency to each switch in gem5.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

from repro.common.config import SimConfig
from repro.common.errors import SchedulerError, SimulationTimeout
from repro.core.timecache import TimeCacheSystem
from repro.cpu.cpu import HardwareContext, StepEvent
from repro.os.process import Process, Task, TaskStatus
from repro.os.scheduler import RoundRobinScheduler
from repro.os.tlb import Tlb, tlb_wrapped_translator
from repro.os.vm import PhysicalMemory


@dataclass
class RunSummary:
    """What a :meth:`Kernel.run` call produced."""

    steps: int
    context_switches: int
    per_task_instructions: Dict[str, int] = field(default_factory=dict)
    per_task_cycles: Dict[str, int] = field(default_factory=dict)
    per_ctx_local_time: Dict[int, int] = field(default_factory=dict)

    @property
    def total_instructions(self) -> int:
        return sum(self.per_task_instructions.values())

    @property
    def makespan(self) -> int:
        """Largest core-local completion time across contexts."""
        return max(self.per_ctx_local_time.values(), default=0)


class Kernel:
    """Simulated OS kernel driving the whole machine."""

    def __init__(self, config: SimConfig) -> None:
        config.validate()
        self.config = config
        self.system = TimeCacheSystem(config)
        self.phys = PhysicalMemory()
        n_ctx = config.hierarchy.num_hw_contexts
        self.contexts: List[HardwareContext] = [
            HardwareContext(i, self.system) for i in range(n_ctx)
        ]
        self.scheduler = RoundRobinScheduler(n_ctx, config.quantum_cycles)
        self._current: Dict[int, Optional[Task]] = {i: None for i in range(n_ctx)}
        #: task whose s-bits are live on each hw context (CR3 analogue)
        self._resident: Dict[int, Optional[int]] = {i: None for i in range(n_ctx)}
        self._slice_start: Dict[int, int] = {i: 0 for i in range(n_ctx)}
        self._tlbs: Dict[int, Optional[Tlb]] = {
            i: (
                Tlb(config.tlb_entries, config.tlb_walk_cycles)
                if config.tlb_entries
                else None
            )
            for i in range(n_ctx)
        }
        self._dispatch_instr: Dict[int, int] = {i: 0 for i in range(n_ctx)}
        self._dispatch_time: Dict[int, int] = {i: 0 for i in range(n_ctx)}
        self.context_switches = 0
        self.tasks: List[Task] = []

    # ------------------------------------------------------------------
    # Setup API
    # ------------------------------------------------------------------
    def create_process(self, name: str) -> Process:
        from repro.os.vm import AddressSpace

        return Process(name, AddressSpace(name, self.phys))

    def fork_process(self, parent: Process, name: Optional[str] = None) -> Process:
        """Unix-style fork: the child shares every parent page copy-on-
        write.  Until a write breaks sharing, parent and child touch the
        same physical lines — exactly the sharing the paper's intro says
        TimeCache makes safe to exploit for memory savings.
        """
        from repro.os.vm import AddressSpace

        child_name = name if name is not None else f"{parent.name}.child"
        child = Process(child_name, AddressSpace(child_name, self.phys))
        parent_space = parent.address_space
        child_space = child.address_space
        # Mirror the parent's mappings page by page, COW-protected on
        # both sides for data; the model marks only the child COW and
        # leaves the parent in place (single-writer approximation).
        for vpage, ppage in parent_space._vpage_to_ppage.items():
            child_space._vpage_to_ppage[vpage] = ppage
            child_space._cow_pages[vpage] = True
        child_space._segments.update(parent_space._segments)
        return child

    def submit(self, task: Task) -> None:
        """Admit a task to its (affinity) run queue."""
        ctx = self.scheduler.admit(task)
        task.affinity = ctx  # pin where it landed; no migration by default
        self.tasks.append(task)

    # ------------------------------------------------------------------
    # Dispatch / switch
    # ------------------------------------------------------------------
    def _dispatch(self, ctx_id: int) -> Optional[Task]:
        hw = self.contexts[ctx_id]
        task = self.scheduler.next_task(ctx_id, hw.local_time)
        if task is None:
            return None
        if self._resident[ctx_id] != task.tid:
            cost = self.system.context_switch(
                self._resident[ctx_id], task.tid, ctx_id, now=hw.local_time
            )
            hw.local_time += self.config.context_switch_cycles + cost.total
            self._resident[ctx_id] = task.tid
            self.context_switches += 1
            tlb = self._tlbs[ctx_id]
            if tlb is not None:
                tlb.flush()  # CR3 write
        translator = task.translator()
        tlb = self._tlbs[ctx_id]
        if tlb is not None:
            def charge(cycles: int, hw=hw) -> None:
                hw.local_time += cycles

            translator = tlb_wrapped_translator(tlb, translator, charge)
        hw.install(task.generator(), translator)
        self._current[ctx_id] = task
        self._slice_start[ctx_id] = hw.local_time
        self._dispatch_instr[ctx_id] = hw.instructions
        self._dispatch_time[ctx_id] = hw.local_time
        return task

    def _undispatch(self, ctx_id: int) -> Task:
        hw = self.contexts[ctx_id]
        task = self._current[ctx_id]
        if task is None:
            raise SchedulerError(f"ctx{ctx_id}: nothing to undispatch")
        task.instructions += hw.instructions - self._dispatch_instr[ctx_id]
        task.cycles += hw.local_time - self._dispatch_time[ctx_id]
        hw.uninstall()
        self._current[ctx_id] = None
        return task

    # ------------------------------------------------------------------
    # The stepping loop
    # ------------------------------------------------------------------
    def _ctx_has_work(self, ctx_id: int) -> bool:
        return self._current[ctx_id] is not None or self.scheduler.pending(ctx_id) > 0

    def _slice_bound(self, ctx_id: int) -> Optional[int]:
        """The core-local time at which ``ctx_id`` must stop running.

        The earliest of its quantum end (only while its queue holds
        another task, runnable or asleep) and, for every other context
        with work, the time at which that context becomes the
        :meth:`_pick_context` choice: lowest local time first, ties to the
        lower context id.  ``None`` when nothing bounds the slice.
        """
        bound: Optional[int] = None
        if self.scheduler.pending(ctx_id) > 0:
            bound = self._slice_start[ctx_id] + self.scheduler.quantum_cycles
        for other_id, other in enumerate(self.contexts):
            if other_id == ctx_id or not self._ctx_has_work(other_id):
                continue
            limit = other.local_time + (1 if ctx_id < other_id else 0)
            if bound is None or limit < bound:
                bound = limit
        return bound

    def _pick_context(self) -> Optional[int]:
        """The busy context with the lowest core-local time."""
        best: Optional[int] = None
        best_time = None
        for ctx_id, hw in enumerate(self.contexts):
            if not self._ctx_has_work(ctx_id):
                continue
            if best_time is None or hw.local_time < best_time:
                best = ctx_id
                best_time = hw.local_time
        return best

    def instructions_executed(self) -> int:
        """Instructions retired so far, including the running slices."""
        total = sum(t.instructions for t in self.tasks)
        for ctx_id, task in self._current.items():
            if task is not None:
                hw = self.contexts[ctx_id]
                total += hw.instructions - self._dispatch_instr[ctx_id]
        return total

    def run(
        self,
        max_steps: int = 50_000_000,
        stop_when: Optional[Callable[["Kernel"], bool]] = None,
        stop_check_interval: int = 256,
        wall_clock_budget_s: Optional[float] = None,
        instruction_budget: Optional[int] = None,
    ) -> RunSummary:
        """Run until every task exits, ``stop_when`` fires, or ``max_steps``.

        ``stop_when`` is evaluated every ``stop_check_interval`` steps so
        open-ended programs (a looping attacker) can be stopped once the
        interesting task (the victim) finishes.

        ``wall_clock_budget_s`` / ``instruction_budget`` arm the watchdog:
        unlike ``max_steps`` (which truncates silently), exceeding either
        budget raises :class:`SimulationTimeout` so a sweep runner can
        record the failure and move on (checked every
        ``stop_check_interval`` steps, like ``stop_when``).

        A step is one executed operation.  The loop runs them in slices
        that end at every multiple of ``stop_check_interval``, so every
        check fires at the same step number as it would one step at a
        time.
        """
        if max_steps < 0:
            raise ValueError(f"max_steps must be >= 0, got {max_steps}")
        if stop_check_interval < 1:
            raise ValueError(
                f"stop_check_interval must be >= 1, got {stop_check_interval}"
            )
        deadline = (
            time.monotonic() + wall_clock_budget_s
            if wall_clock_budget_s is not None
            else None
        )
        if deadline is None:
            return self._run_loop(
                max_steps, stop_when, stop_check_interval,
                deadline, wall_clock_budget_s, instruction_budget,
            )
        # Arm the cooperative seam: a single kernel step may execute a
        # whole batched AccessRun, so the hierarchy re-checks the same
        # deadline between its internal windows.
        hierarchy = self.system.hierarchy
        hierarchy.batch_deadline = deadline
        try:
            return self._run_loop(
                max_steps, stop_when, stop_check_interval,
                deadline, wall_clock_budget_s, instruction_budget,
            )
        finally:
            hierarchy.batch_deadline = None

    def _run_loop(
        self,
        max_steps: int,
        stop_when: Optional[Callable[["Kernel"], bool]],
        stop_check_interval: int,
        deadline: Optional[float],
        wall_clock_budget_s: Optional[float],
        instruction_budget: Optional[int],
    ) -> RunSummary:
        steps = 0
        while steps < max_steps:
            if steps % stop_check_interval == 0:
                if stop_when is not None and stop_when(self):
                    break
                if deadline is not None and time.monotonic() > deadline:
                    raise SimulationTimeout(
                        f"wall-clock budget {wall_clock_budget_s}s exceeded "
                        f"after {steps} steps"
                    )
                if (
                    instruction_budget is not None
                    and self.instructions_executed() > instruction_budget
                ):
                    raise SimulationTimeout(
                        f"instruction budget {instruction_budget} exceeded "
                        f"after {steps} steps"
                    )
            ctx_id = self._pick_context()
            if ctx_id is None:
                break  # machine fully idle: all tasks exited
            hw = self.contexts[ctx_id]
            task = self._current[ctx_id]
            if task is None:
                task = self._dispatch(ctx_id)
                if task is None:
                    # Only sleepers remain on this queue: skid the core's
                    # clock forward to the earliest wake time.
                    wake = self.scheduler.earliest_wake(ctx_id)
                    if wake is None:
                        raise SchedulerError(
                            f"ctx{ctx_id} claims work but has none"
                        )
                    hw.local_time = max(hw.local_time, wake)
                    continue
            outcome = hw.step(
                min(stop_check_interval - steps % stop_check_interval,
                    max_steps - steps),
                self._slice_bound(ctx_id),
            )
            steps += outcome.ops
            event = outcome.event
            if event is StepEvent.RUNNING:
                if (
                    hw.local_time - self._slice_start[ctx_id]
                    >= self.scheduler.quantum_cycles
                    and self.scheduler.pending(ctx_id) > 0
                ):
                    preempted = self._undispatch(ctx_id)
                    self.scheduler.requeue(preempted, ctx_id)
                continue
            if event is StepEvent.YIELDED:
                yielded = self._undispatch(ctx_id)
                self.scheduler.requeue(yielded, ctx_id)
                continue
            if event is StepEvent.SLEEPING:
                sleeper = self._undispatch(ctx_id)
                assert outcome.wake_at is not None
                self.scheduler.put_to_sleep(sleeper, ctx_id, outcome.wake_at)
                continue
            if event is StepEvent.EXITED:
                finished = self._undispatch(ctx_id)
                finished.exit()
                continue
            raise SchedulerError(f"unhandled step event {event}")
        return self._summary(steps)

    def _summary(self, steps: int) -> RunSummary:
        summary = RunSummary(steps=steps, context_switches=self.context_switches)
        for task in self.tasks:
            summary.per_task_instructions[task.name] = task.instructions
            summary.per_task_cycles[task.name] = task.cycles
        for ctx_id, hw in enumerate(self.contexts):
            summary.per_ctx_local_time[ctx_id] = hw.local_time
        return summary

    # ------------------------------------------------------------------
    def task_done(self, task: Task) -> bool:
        return task.status is TaskStatus.EXITED

    def all_done(self) -> bool:
        return all(t.status is TaskStatus.EXITED for t in self.tasks)
