"""Unit tests for the hardware-context executor."""

import pytest

from repro.common.errors import ProgramError
from repro.core.timecache import TimeCacheSystem
from repro.cpu.cpu import HardwareContext, StepEvent
from repro.cpu.isa import (
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

from tests.conftest import tiny_config

identity = lambda vaddr: vaddr  # noqa: E731 - trivial translator


@pytest.fixture
def ctx():
    return HardwareContext(0, TimeCacheSystem(tiny_config()))


def run_ops(ctx, ops):
    def gen():
        for op in ops:
            yield op

    ctx.install(gen(), identity)
    outcomes = []
    while True:
        outcome = ctx.step()
        outcomes.append(outcome)
        if outcome.event is StepEvent.EXITED:
            break
    return outcomes


def test_requires_installed_task(ctx):
    with pytest.raises(ProgramError):
        ctx.step()


def test_load_charges_latency(ctx):
    run_ops(ctx, [Load(0x1000), Exit()])
    lat = ctx.system.config.hierarchy.latency
    assert ctx.local_time == 1 + (lat.l1_hit + lat.l2_hit + lat.dram)
    assert ctx.stats.get("loads") == 1


def test_compute_counts_instructions(ctx):
    run_ops(ctx, [Compute(10), Exit()])
    assert ctx.stats.get("instructions") == 11  # 10 + Exit
    assert ctx.local_time == 10


def test_rdtsc_returns_local_time(ctx):
    seen = []

    def gen():
        t0 = yield Rdtsc()
        yield Compute(100)
        t1 = yield Rdtsc()
        seen.append(t1 - t0)
        yield Exit()

    ctx.install(gen(), identity)
    while ctx.step().event is not StepEvent.EXITED:
        pass
    assert seen == [101]  # 100 compute + 1 rdtsc


def test_load_result_sent_back(ctx):
    results = []

    def gen():
        r = yield Load(0x1000)
        results.append(r)
        yield Exit()

    ctx.install(gen(), identity)
    while ctx.step().event is not StepEvent.EXITED:
        pass
    assert results[0].level == "DRAM"


def test_yield_and_sleep_events(ctx):
    def gen():
        yield YieldOp()
        yield SleepOp(500)
        yield Exit()

    ctx.install(gen(), identity)
    assert ctx.step().event is StepEvent.YIELDED
    outcome = ctx.step()
    assert outcome.event is StepEvent.SLEEPING
    assert outcome.wake_at == ctx.local_time + 500
    assert ctx.step().event is StepEvent.EXITED


def test_generator_exhaustion_is_exit(ctx):
    def gen():
        yield Compute(1)

    ctx.install(gen(), identity)
    assert ctx.step().event is StepEvent.RUNNING
    assert ctx.step().event is StepEvent.EXITED


def test_fence_and_flush_and_store_and_ifetch(ctx):
    run_ops(ctx, [Store(0x1000), Ifetch(0x2000), Fence(), Flush(0x1000), Exit()])
    assert ctx.stats.get("stores") == 1
    assert ctx.stats.get("ifetches") == 1
    assert ctx.stats.get("flushes") == 1


def test_translation_applied(ctx):
    ctx.install(iter([Load(0x10)]), lambda v: v + 0x5000)
    # install expects a generator; wrap properly
    def gen():
        yield Load(0x10)

    ctx.install(gen(), lambda v: v + 0x5000)
    ctx.step()
    hier = ctx.system.hierarchy
    assert hier.l1d[0].resident(hier.line_addr(0x5010))


def test_uninstall_clears_state(ctx):
    def gen():
        yield Compute(1)

    ctx.install(gen(), identity)
    ctx.step()
    ctx.uninstall()
    assert not ctx.busy
    with pytest.raises(ProgramError):
        ctx.step()


# ----------------------------------------------------------------------
# slices: step(max_ops, until)
# ----------------------------------------------------------------------
def install_ops(ctx, ops):
    def gen():
        for op in ops:
            yield op

    ctx.install(gen(), identity)


def test_bare_step_runs_one_op(ctx):
    install_ops(ctx, [Compute(3), Compute(4), Exit()])
    outcome = ctx.step()
    assert (outcome.event, outcome.ops) == (StepEvent.RUNNING, 1)
    assert ctx.local_time == 3


def test_step_stops_at_max_ops(ctx):
    install_ops(ctx, [Compute(1)] * 10 + [Exit()])
    outcome = ctx.step(max_ops=4)
    assert (outcome.event, outcome.ops) == (StepEvent.RUNNING, 4)
    assert ctx.local_time == 4
    assert ctx.instructions == 4


def test_step_stops_after_the_op_that_crosses_until(ctx):
    install_ops(ctx, [Compute(10)] * 5 + [Exit()])
    # 10, 20, 30: the third op is the first to reach until=25
    outcome = ctx.step(max_ops=100, until=25)
    assert (outcome.event, outcome.ops) == (StepEvent.RUNNING, 3)
    assert ctx.local_time == 30
    # a bound already passed still runs one op
    assert ctx.step(max_ops=100, until=0).ops == 1
    assert ctx.local_time == 40


def test_step_stops_on_reaching_until_exactly(ctx):
    install_ops(ctx, [Compute(5)] * 4 + [Exit()])
    assert ctx.step(max_ops=100, until=10).ops == 2


@pytest.mark.parametrize(
    "last, event",
    [(YieldOp(), StepEvent.YIELDED), (SleepOp(500), StepEvent.SLEEPING),
     (Exit(), StepEvent.EXITED)],
)
def test_step_stops_on_scheduling_events(ctx, last, event):
    install_ops(ctx, [Compute(2), Load(0x1000), Compute(2), last, Compute(1)])
    outcome = ctx.step(max_ops=100)
    assert (outcome.event, outcome.ops) == (event, 4)
    assert ctx.instructions == 2 + 1 + 2 + 1
    if event is StepEvent.SLEEPING:
        assert outcome.wake_at == ctx.local_time + 500


def test_generator_exhaustion_ends_a_slice_as_one_op(ctx):
    install_ops(ctx, [Compute(2), Compute(2)])
    outcome = ctx.step(max_ops=100)
    assert (outcome.event, outcome.ops) == (StepEvent.EXITED, 3)
    assert ctx.instructions == 4


def test_slice_sends_each_result_back(ctx):
    seen = []

    def gen():
        t0 = yield Rdtsc()
        r = yield Load(0x1000)
        t1 = yield Rdtsc()
        seen.extend([r.level, t1 - t0])
        yield Exit()

    ctx.install(gen(), identity)
    assert ctx.step(max_ops=100).event is StepEvent.EXITED
    lat = ctx.system.config.hierarchy.latency
    assert seen == ["DRAM", 1 + (1 + lat.l1_hit + lat.l2_hit + lat.dram)]


def test_counters_are_complete_when_the_program_raises_mid_slice(ctx):
    def gen():
        yield Load(0x1000)
        yield Store(0x2000)
        yield Ifetch(0x3000)
        yield Compute(5)
        raise RuntimeError("program bug")

    ctx.install(gen(), identity)
    with pytest.raises(RuntimeError, match="program bug"):
        ctx.step(max_ops=100)
    assert ctx.stats.snapshot() == {
        "ctx0.instructions": 8,
        "ctx0.loads": 1,
        "ctx0.stores": 1,
        "ctx0.ifetches": 1,
    }


def test_unknown_op_raises_without_counting_it(ctx):
    install_ops(ctx, [Compute(2), object()])
    with pytest.raises(ProgramError, match="unknown operation"):
        ctx.step(max_ops=100)
    assert ctx.instructions == 2


def test_tlb_walk_mid_slice_lands_in_local_time(ctx):
    from repro.os.tlb import Tlb, tlb_wrapped_translator

    tlb = Tlb(4, 30)

    def charge(cycles):
        ctx.local_time += cycles

    def gen():
        yield Compute(1)
        yield Load(0x1000)  # TLB miss: a 30-cycle walk
        yield Load(0x1000)  # TLB hit, L1 hit
        yield Exit()

    ctx.install(gen(), tlb_wrapped_translator(tlb, identity, charge))
    assert ctx.step(max_ops=100).event is StepEvent.EXITED
    lat = ctx.system.config.hierarchy.latency
    miss = 1 + lat.l1_hit + lat.l2_hit + lat.dram
    assert ctx.local_time == 1 + 30 + miss + 1 + lat.l1_hit


def test_step_rejects_a_non_positive_op_budget(ctx):
    install_ops(ctx, [Exit()])
    for bad in (0, -1):
        with pytest.raises(ValueError, match="max_ops"):
            ctx.step(max_ops=bad)
