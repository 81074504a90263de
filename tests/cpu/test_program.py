"""Unit tests for program wrappers."""

import weakref

import pytest

from repro.common.errors import ProgramError
from repro.cpu.isa import Compute, Load
from repro.cpu.program import (
    Program,
    looping_program,
    shared_programs,
    trace_program,
)


def test_program_restartable():
    def factory():
        yield Compute(1)
        yield Compute(2)

    program = Program("p", factory)
    ops1 = list(program.start())
    ops2 = list(program.start())
    assert len(ops1) == len(ops2) == 2


def test_trace_program_replays_fixed_ops():
    program = trace_program("t", [Load(1), Load(2)])
    first = [op.vaddr for op in program.start()]
    second = [op.vaddr for op in program.start()]
    assert first == second == [1, 2]


def test_trace_program_materializes_generator_input():
    program = trace_program("t", (Load(i) for i in range(3)))
    assert len(list(program.start())) == 3
    assert len(list(program.start())) == 3  # generator input not consumed


def test_trace_program_draws_on_first_start_not_at_creation():
    drawn = []

    def ops():
        for i in range(3):
            drawn.append(i)
            yield Load(i)

    program = trace_program("t", ops())
    assert drawn == []
    assert [op.vaddr for op in program.start()] == [0, 1, 2]
    assert [op.vaddr for op in program.start()] == [0, 1, 2]
    assert drawn == [0, 1, 2]  # drawn once, replayed after


def test_trace_program_whose_first_draw_fails_is_not_replayed_truncated():
    def ops():
        yield Load(1)
        raise RuntimeError("generator bug")

    program = trace_program("t", ops())
    with pytest.raises(RuntimeError):
        program.start()
    with pytest.raises(ProgramError, match="first draw failed"):
        program.start()


def test_shared_programs_frees_every_program_on_exit():
    with pytest.raises(RuntimeError):
        with shared_programs() as programs:
            programs["a"] = trace_program("a", [Load(1)])
            programs["b"] = trace_program("b", [Load(2)])
            assert [op.vaddr for op in programs["a"].start()] == [1]
            held = [weakref.ref(program) for program in programs.values()]
            # a reference cycle, as a finished kernel forms around its
            # programs, must not keep them alive past the exit either
            cycle = {"programs": list(programs.values())}
            cycle["self"] = cycle
            del cycle
            raise RuntimeError("the experiment failed")
    assert programs == {}
    assert [ref() for ref in held] == [None, None]


def test_looping_program_bounded():
    program = looping_program("l", lambda i: [Load(i)], iterations=4)
    assert [op.vaddr for op in program.start()] == [0, 1, 2, 3]


def test_looping_program_unbounded_is_lazy():
    program = looping_program("l", lambda i: [Load(i)], iterations=None)
    gen = program.start()
    assert next(gen).vaddr == 0
    assert next(gen).vaddr == 1  # still going; no materialization
