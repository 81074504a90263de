"""Slice execution equals the one-operation-at-a-time kernel loop.

``Kernel.run`` lets the picked context run a whole slice per CPU call,
bounded by its quantum end and by the lookahead to the next context's
turn.  The reference below is the loop it replaced: it steps one
operation at a time and re-applies the pick and preempt rules after
each.  Every observable result of a run must be identical under both.
"""

import dataclasses
import re
import time

import pytest

from repro.analysis import tournament
from repro.common import scaled_experiment_config
from repro.common.errors import SchedulerError, SimulationTimeout
from repro.cpu.cpu import StepEvent
from repro.cpu.isa import Compute, Exit, Load
from repro.cpu.program import Program
from repro.os.kernel import Kernel
from repro.workloads.parsec import build_parsec_workload
from repro.workloads.spec import build_spec_pair

from tests.conftest import tiny_config


def reference_run_loop(kernel, max_steps, stop_when, stop_check_interval,
                       deadline, wall_clock_budget_s, instruction_budget):
    """``Kernel._run_loop`` as it was before slices: one op per step."""
    steps = 0
    while steps < max_steps:
        if steps % stop_check_interval == 0:
            if stop_when is not None and stop_when(kernel):
                break
            if deadline is not None and time.monotonic() > deadline:
                raise SimulationTimeout(
                    f"wall-clock budget {wall_clock_budget_s}s exceeded "
                    f"after {steps} steps"
                )
            if (instruction_budget is not None
                    and kernel.instructions_executed() > instruction_budget):
                raise SimulationTimeout(
                    f"instruction budget {instruction_budget} exceeded "
                    f"after {steps} steps"
                )
        ctx_id = kernel._pick_context()
        if ctx_id is None:
            break
        hw = kernel.contexts[ctx_id]
        if kernel._current[ctx_id] is None and kernel._dispatch(ctx_id) is None:
            wake = kernel.scheduler.earliest_wake(ctx_id)
            if wake is None:
                raise SchedulerError(f"ctx{ctx_id} claims work but has none")
            hw.local_time = max(hw.local_time, wake)
            continue
        outcome = hw.step()
        assert outcome.ops == 1
        steps += 1
        event = outcome.event
        if event is StepEvent.RUNNING:
            if (hw.local_time - kernel._slice_start[ctx_id]
                    >= kernel.scheduler.quantum_cycles
                    and kernel.scheduler.pending(ctx_id) > 0):
                kernel.scheduler.requeue(kernel._undispatch(ctx_id), ctx_id)
        elif event is StepEvent.YIELDED:
            kernel.scheduler.requeue(kernel._undispatch(ctx_id), ctx_id)
        elif event is StepEvent.SLEEPING:
            sleeper = kernel._undispatch(ctx_id)
            kernel.scheduler.put_to_sleep(sleeper, ctx_id, outcome.wake_at)
        else:
            kernel._undispatch(ctx_id).exit()
    return kernel._summary(steps)


@pytest.fixture
def reference(monkeypatch):
    """Calling ``reference()`` switches Kernel.run to the one-op loop."""
    return lambda: monkeypatch.setattr(Kernel, "_run_loop", reference_run_loop)


def observe(config, build, **run_kwargs):
    """Everything a run exposes: summary, machine stats, CPU stats."""
    kernel = Kernel(config)
    build(kernel)
    try:
        summary = dataclasses.asdict(kernel.run(**run_kwargs))
        for per_task in ("per_task_instructions", "per_task_cycles"):
            # task names end in a process-wide task id ("lbm.0/lbm#3")
            summary[per_task] = {
                re.sub(r"#\d+$", "", name): value
                for name, value in summary[per_task].items()
            }
    except SimulationTimeout as exc:
        summary = {"timeout": str(exc),
                   "instructions": kernel.instructions_executed()}
    return {
        "summary": summary,
        "stats": kernel.system.stats_snapshot(),
        "cpu": [hw.stats.snapshot() for hw in kernel.contexts],
        "local_time": [hw.local_time for hw in kernel.contexts],
    }


def assert_same_runs(reference, config, build, **run_kwargs):
    sliced = observe(config, build, **run_kwargs)
    reference()
    assert sliced == observe(config, build, **run_kwargs)
    return sliced


def spec_pair(a, b, instructions=20_000):
    return lambda kernel: build_spec_pair(kernel, a, b, instructions)


@pytest.mark.parametrize("engine", ["object", "fast"])
@pytest.mark.parametrize("tlb_entries", [0, 16])
def test_spec_pair_at_short_quantum(reference, engine, tlb_entries):
    config = dataclasses.replace(
        scaled_experiment_config(quantum_cycles=20_000, engine=engine),
        tlb_entries=tlb_entries,
    )
    build = spec_pair("namd", "lbm")
    run = assert_same_runs(reference, config, build)
    assert run["summary"]["context_switches"] > 4
    # the insecure baseline takes other fills and evictions
    assert_same_runs(reference, config.baseline(), build)


@pytest.mark.parametrize("engine", ["object", "fast"])
def test_parsec_two_cores(reference, engine):
    config = scaled_experiment_config(num_cores=2, engine=engine)
    run = assert_same_runs(
        reference, config,
        lambda kernel: build_parsec_workload(kernel, "fluidanimate", 15_000),
    )
    assert all(t > 0 for t in run["local_time"])


def test_max_steps_truncation_mid_slice(reference):
    config = scaled_experiment_config(quantum_cycles=20_000, engine="fast")
    run = assert_same_runs(
        reference, config, spec_pair("lbm", "namd"),
        max_steps=7777, stop_check_interval=100,
    )
    assert run["summary"]["steps"] == 7777


def test_stop_when_fires_at_the_same_step(reference):
    config = scaled_experiment_config(quantum_cycles=20_000, engine="object")
    run = assert_same_runs(
        reference, config, spec_pair("milc", "zeusmp"),
        stop_check_interval=7,
        stop_when=lambda kernel: kernel.instructions_executed() > 12_000,
    )
    assert run["summary"]["steps"] % 7 == 0


def test_instruction_budget_raises_at_the_same_step(reference):
    config = scaled_experiment_config(quantum_cycles=20_000, engine="fast")
    run = assert_same_runs(
        reference, config, spec_pair("lbm", "namd"),
        instruction_budget=9_000, stop_check_interval=64,
    )
    assert "instruction budget 9000 exceeded after" in run["summary"]["timeout"]


def test_equal_clocks_interleave_by_context_id(reference):
    """Cores whose clocks tie run lowest context id first, slice or not.

    Each program logs every resume into one shared list, so the log is
    the machine's global operation order."""

    def interleaving():
        log = []

        def program(name, costs):
            def factory():
                for i, cost in enumerate(costs * 40):
                    log.append((name, i))
                    yield Compute(cost) if cost else Load(0x10000 + 0x40 * (i % 8))
                yield Exit()

            return Program(name, factory)

        kernel = Kernel(tiny_config(num_cores=2))
        shared = kernel.phys.allocate_segment("shared", 4096)
        for ctx, costs in ((0, [1, 2, 3, 0]), (1, [3, 2, 1, 0]), (1, [2, 2])):
            process = kernel.create_process(f"p{ctx}")
            process.address_space.map_segment(shared, 0x10000)
            kernel.submit(process.spawn(program(f"p{ctx}", costs), affinity=ctx))
        kernel.run()
        return log

    sliced = interleaving()
    reference()
    assert sliced == interleaving()


@pytest.mark.parametrize("attack", list(tournament.ATTACKS))
def test_attack_collectors(reference, attack):
    spec = tournament.ATTACKS[attack]
    populations = []
    for use_reference in (False, True):
        if use_reference:
            reference()
        populations.append([
            spec.collect(tournament.cell_config(attack, defense, "fast", 7), 7, True)
            for defense in ("baseline", "timecache")
        ])
    assert populations[0] == populations[1]
