"""Program wrappers for generator-based simulated code.

A *program* is a zero-argument callable returning a generator that yields
:mod:`repro.cpu.isa` operations and receives each operation's result via
``send``.  :class:`Program` names the callable; :func:`trace_program`
turns an operation sequence (a trace) into a program that draws it once
and replays it on every start, which is how the workload generators feed
the CPU.  :func:`shared_programs` lets the configurations of one
experiment replay the same drawn streams.
"""

from __future__ import annotations

import gc
from contextlib import contextmanager
from typing import (
    Callable,
    Dict,
    Generator,
    Hashable,
    Iterable,
    Iterator,
    List,
    Optional,
)

from repro.common.errors import ProgramError
from repro.cpu.isa import Op

#: what the CPU sends back into the generator after each op
ProgramGen = Generator[Op, object, None]


class Program:
    """A named generator factory, restartable for repeated runs."""

    def __init__(self, name: str, factory: Callable[[], ProgramGen]) -> None:
        self.name = name
        self._factory = factory

    def start(self) -> ProgramGen:
        """Instantiate a fresh generator for one execution."""
        return self._factory()

    def __repr__(self) -> str:  # pragma: no cover
        return f"Program({self.name!r})"


class TraceProgram(Program):
    """A program that replays one fixed operation sequence.

    ``ops`` is drawn into a list on the first :meth:`start`, not at
    creation, so building a process costs nothing until it runs; every
    start replays that list (e.g. a baseline run and a TimeCache run
    over the identical trace).
    """

    def __init__(self, name: str, ops: Iterable[Op]) -> None:
        self.name = name
        self._source: Optional[Iterable[Op]] = ops
        self._ops: Optional[List[Op]] = None

    def start(self) -> ProgramGen:
        ops = self._ops
        if ops is None:
            # Take the source first: a draw that raises must not leave a
            # half-consumed generator for the next start to replay.
            source, self._source = self._source, None
            if source is None:
                raise ProgramError(
                    f"program {self.name!r} has no stream: its first draw failed"
                )
            ops = self._ops = list(source)
        return _replay(ops)


def _replay(ops: List[Op]) -> ProgramGen:
    for op in ops:
        yield op


def trace_program(name: str, ops: Iterable[Op]) -> TraceProgram:
    """A program that replays ``ops``, drawn once on its first start."""
    return TraceProgram(name, ops)


@contextmanager
def shared_programs() -> Iterator[Dict[Hashable, TraceProgram]]:
    """A program table the configurations of one experiment share.

    A workload builder given the table reuses the program it already
    holds for a process instead of making a new one, so every
    configuration replays the stream the first one drew.  On exit the
    table is cleared and the cycle collector runs once: the kernels that
    ran the programs are reference cycles holding the recorded streams
    and their caches' arrays, and left to the collector's own schedule
    they pile up across experiments (peak RSS then climbs pass over
    pass).
    """
    programs: Dict[Hashable, TraceProgram] = {}
    try:
        yield programs
    finally:
        programs.clear()
        gc.collect()


def looping_program(
    name: str,
    make_ops: Callable[[int], Iterable[Op]],
    iterations: Optional[int] = None,
) -> Program:
    """A program generating ops lazily, iteration by iteration.

    ``make_ops(i)`` produces the ops of iteration ``i``; ``iterations``
    bounds the loop (None = run until the scheduler's instruction budget
    stops the task).
    """

    def factory() -> ProgramGen:
        i = 0
        while iterations is None or i < iterations:
            for op in make_ops(i):
                yield op
            i += 1

    return Program(name, factory)
