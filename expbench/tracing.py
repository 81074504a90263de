"""Outside-in layer tracing for the experiment benchmark.

Nothing under ``src/`` knows this module exists.  :func:`install` wraps
the public functions at each layer boundary of the simulator, from the
outside, and every wrapped call records into the active
:class:`LayerTracer`:

* a *path*: the semicolon-joined names of the open wrapped calls, root
  first (the folded-stack key);
* self time: the call's duration minus the durations of the wrapped
  calls it covers, accumulated per path;
* for the coarse boundaries (experiments, cells, kernel runs, context
  switches, collectors, scoring) a kept span ``(path, start, end)``.

Per-op boundaries (generator ops, CPU steps, memory accesses, access
listeners) are aggregated per path instead of kept as spans: a SPEC pair
makes millions of them.

The wrappers cost time of their own, and that cost stays in the self
times: the benchmark reports it once, as ``bench.trace_overhead``.

Worker processes (the defense matrix runs each cell in a forked worker)
inherit the wrappers.  :func:`cell_runner` resets the tracer in the
worker, runs the cell under an ``analysis.cell`` call, and ships the
worker's aggregate home inside the cell's result under
:data:`PAYLOAD_KEY`; the parent pops it before checking the cell.
"""

from __future__ import annotations

import dataclasses
import os
import time
from typing import Callable, Dict, List, Optional, Tuple

perf_ns = time.perf_counter_ns

#: result-dict key that carries a worker's measurements to the parent
PAYLOAD_KEY = "__expbench__"
#: kept spans per process are capped; aggregates are never dropped
MAX_SPANS = 20_000


class LayerTracer:
    """Per-process record of wrapped calls: self time and calls per path,
    named tallies, kernel-phase tallies and the kept coarse spans."""

    def __init__(self) -> None:
        #: open frames: [path, start_ns, covered_child_ns]
        self.stack: List[list] = [["", 0, 0]]
        self.self_ns: Dict[str, int] = {}
        self.calls: Dict[str, int] = {}
        self.counts: Dict[str, float] = {}
        self.spans: List[Tuple[str, int, int]] = []
        self.phases = None  # repro.obs.spans.PhaseAccumulator, lazily
        self._paths: Dict[Tuple[str, str], str] = {}

    def path_for(self, parent: str, name: str) -> str:
        key = (parent, name)
        path = self._paths.get(key)
        if path is None:
            path = self._paths[key] = f"{parent};{name}" if parent else name
        return path

    def add(self, name: str, value: float) -> None:
        self.counts[name] = self.counts.get(name, 0) + value

    def phase_accumulator(self):
        if self.phases is None:
            from repro.obs.spans import PhaseAccumulator

            self.phases = PhaseAccumulator()
        return self.phases

    # ------------------------------------------------------------------
    def payload(self) -> Dict:
        """JSON-safe aggregate (what a worker ships home)."""
        return {
            "pid": os.getpid(),
            "self_ns": dict(self.self_ns),
            "calls": dict(self.calls),
            "counts": dict(self.counts),
            "phases": self.phases.to_payload() if self.phases else {},
            "spans": list(self.spans[:MAX_SPANS]),
        }


_ACTIVE: Optional[LayerTracer] = None


def activate(tracer: Optional[LayerTracer]) -> Optional[LayerTracer]:
    global _ACTIVE
    previous, _ACTIVE = _ACTIVE, tracer
    return previous


def traced(name: str, fn: Callable, keep: bool = False) -> Callable:
    """``fn`` wrapped as a call named ``name`` (``layer.what``)."""

    def wrapper(*args, **kwargs):
        tr = _ACTIVE
        if tr is None:
            return fn(*args, **kwargs)
        stack = tr.stack
        parent = stack[-1]
        path = tr.path_for(parent[0], name)
        frame = [path, 0, 0]
        stack.append(frame)
        frame[1] = start = perf_ns()
        try:
            return fn(*args, **kwargs)
        finally:
            end = perf_ns()
            stack.pop()
            dur = end - start
            parent[2] += dur
            tr.self_ns[path] = tr.self_ns.get(path, 0) + dur - frame[2]
            tr.calls[path] = tr.calls.get(path, 0) + 1
            if keep and len(tr.spans) < MAX_SPANS:
                tr.spans.append((path, start, end))

    wrapper.__wrapped__ = fn  # type: ignore[attr-defined]
    wrapper.__name__ = getattr(fn, "__name__", name)
    wrapper.__doc__ = getattr(fn, "__doc__", None)
    return wrapper


class TracedGen:
    """A task generator whose every resume is a call named ``name``."""

    __slots__ = ("gen", "name")

    def __init__(self, gen, name: str) -> None:
        self.gen = gen
        self.name = name

    def __iter__(self):
        return self

    def __next__(self):
        return self.send(None)

    def send(self, value):
        tr = _ACTIVE
        if tr is None:
            return self.gen.send(value)
        stack = tr.stack
        parent = stack[-1]
        path = tr.path_for(parent[0], self.name)
        frame = [path, 0, 0]
        stack.append(frame)
        frame[1] = start = perf_ns()
        try:
            return self.gen.send(value)
        finally:
            dur = perf_ns() - start
            stack.pop()
            parent[2] += dur
            tr.self_ns[path] = tr.self_ns.get(path, 0) + dur - frame[2]
            tr.calls[path] = tr.calls.get(path, 0) + 1

    def throw(self, *args):
        return self.gen.throw(*args)

    def close(self) -> None:
        self.gen.close()


# ----------------------------------------------------------------------
# the layer boundaries
# ----------------------------------------------------------------------
_INSTALLED: List[Tuple[object, str, object]] = []
_ABSENT = object()


def _patch(owner, attr: str, replacement) -> None:
    _INSTALLED.append((owner, attr, vars(owner).get(attr, _ABSENT)))
    setattr(owner, attr, replacement)


def uninstall() -> None:
    """Put back everything :func:`install` / :func:`install_cell_meter`
    replaced."""
    while _INSTALLED:
        owner, attr, original = _INSTALLED.pop()
        if isinstance(owner, dict):
            owner.clear()
            owner.update(original)
        elif original is _ABSENT:
            delattr(owner, attr)
        else:
            setattr(owner, attr, original)


def install_cell_meter() -> None:
    """The minimum the untraced defense matrix needs from its workers:
    per-cell busy time and simulated instructions (see cell_runner)."""
    from repro.analysis.parallel import SweepJob
    from repro.os.kernel import Kernel

    _patch(SweepJob, "run", cell_runner(SweepJob.run, traced_cell=False))
    _patch(Kernel, "run", _kernel_run(Kernel.run, traced_run=False))


def install() -> None:
    """Wrap every layer boundary (undone by :func:`uninstall`)."""
    import repro.analysis.comparison as comparison
    import repro.analysis.defense_matrix as defense_matrix
    import repro.analysis.experiment as experiment
    import repro.analysis.tournament as tournament
    import repro.security.stats as security_stats
    from repro.analysis.parallel import SweepJob
    from repro.core.timecache import TimeCacheSystem
    from repro.cpu.cpu import HardwareContext
    from repro.defenses import defense_names, get_defense
    from repro.os.kernel import Kernel

    # analysis: experiments and cells (the unit of work)
    for fn in ("run_spec_pair_experiment", "run_parsec_experiment"):
        _patch(experiment, fn, traced("analysis.experiment", getattr(experiment, fn), keep=True))
    _patch(defense_matrix, "run_overhead_cell",
           traced("analysis.overhead_cell", defense_matrix.run_overhead_cell, keep=True))
    _patch(SweepJob, "run", cell_runner(SweepJob.run, traced_cell=True))
    _patch(defense_matrix, "run_defense_matrix",
           traced("analysis.sweep", defense_matrix.run_defense_matrix, keep=True))

    # workloads: program construction, and every op the generators yield
    for module in (experiment, comparison):
        for fn in ("build_spec_pair", "build_parsec_workload"):
            if fn in module.__dict__:
                _patch(module, fn, traced("workloads.build", module.__dict__[fn]))
    install_original = HardwareContext.install

    def install_gen(self, gen, translate):
        tr = _ACTIVE
        if tr is not None:
            tr.add("os.dispatches", 1)
            in_attack = "attacks.collect" in tr.stack[-1][0]
            gen = TracedGen(gen, "attacks.next" if in_attack else "workloads.next")
        return install_original(self, gen, translate)

    _patch(HardwareContext, "install", install_gen)

    # cpu: one executed operation (generator and memory calls are children)
    _patch(HardwareContext, "step", traced("cpu.step", HardwareContext.step))

    # os: the kernel's run loop (steps and switches are children)
    _patch(Kernel, "run", _kernel_run(Kernel.run, traced_run=True))

    # core: the context switch (defense hooks are children)
    switch = traced("core.switch", TimeCacheSystem.context_switch, keep=True)

    def context_switch(self, *args, **kwargs):
        cost = switch(self, *args, **kwargs)
        tr = _ACTIVE
        if tr is not None:
            tr.add("sim.switch_cost_cycles", cost.total)
        return cost

    _patch(TimeCacheSystem, "context_switch", context_switch)

    # memsys: machine construction and every access through the facade
    build_system = traced("memsys.build", TimeCacheSystem.__init__)

    def system_init(self, config):
        build_system(self, config)
        tr = _ACTIVE
        if tr is not None:
            self.hierarchy.kernel_profiler = tr.phase_accumulator()
            _wrap_defense_hooks(self)

    _patch(TimeCacheSystem, "__init__", system_init)
    _patch(TimeCacheSystem, "access", traced("memsys.access", TimeCacheSystem.access))
    _patch(TimeCacheSystem, "flush", traced("memsys.access", TimeCacheSystem.flush))
    batch = traced("memsys.access_batch", TimeCacheSystem.access_batch)

    def access_batch(self, ctx, addrs, *args, **kwargs):
        tr = _ACTIVE
        if tr is not None:
            tr.add("memsys.batch_accesses", len(addrs))
        return batch(self, ctx, addrs, *args, **kwargs)

    _patch(TimeCacheSystem, "access_batch", access_batch)

    # defenses: the per-switch hook (listeners are wrapped per system)
    for name in defense_names():
        defense = get_defense(name)
        _patch(defense, "on_context_switch",
               traced("defenses.switch_hook", defense.on_context_switch))

    # attacks: each collector (both arms of one cell)
    _INSTALLED.append((tournament.ATTACKS, "", dict(tournament.ATTACKS)))
    for name, spec in list(tournament.ATTACKS.items()):
        collect = traced("attacks.collect", spec.collect, keep=True)

        def collect_counted(config, seed, quick, _collect=collect):
            neg, pos = _collect(config, seed, quick)
            tr = _ACTIVE
            if tr is not None:
                tr.add("attacks.samples", len(neg) + len(pos))
            return neg, pos

        tournament.ATTACKS[name] = dataclasses.replace(spec, collect=collect_counted)

    # security: scoring and its bootstrap
    _patch(tournament, "score_populations",
           traced("security.score", tournament.score_populations, keep=True))
    bootstrap = traced("security.bootstrap", security_stats.bootstrap_auc)

    def bootstrap_auc(negatives, positives, **kwargs):
        tr = _ACTIVE
        if tr is not None:
            tr.add("security.resamples", kwargs.get("n_boot", 500))
        return bootstrap(negatives, positives, **kwargs)

    _patch(security_stats, "bootstrap_auc", bootstrap_auc)


def _wrap_defense_hooks(system) -> None:
    """Wrap the per-access hooks a defense attached to ``system``:
    hierarchy listeners and the facade address remap."""
    if system.defense is None:
        return
    hierarchy = system.hierarchy
    for attr in ("pre_access_listeners", "post_access_listeners"):
        hooks = getattr(hierarchy, attr)
        hooks[:] = [
            h if hasattr(h, "__wrapped__") else traced("defenses.listener", h)
            for h in hooks
        ]
    if system._addr_offset is not None and not hasattr(system._addr_offset, "__wrapped__"):
        system._addr_offset = traced("defenses.remap", system._addr_offset)


def _kernel_run(run: Callable, traced_run: bool) -> Callable:
    """Kernel.run, tallying the simulated work each call retires."""
    timed = traced("os.run", run, keep=True) if traced_run else run

    def kernel_run(self, *args, **kwargs):
        tr = _ACTIVE
        if tr is None:
            return timed(self, *args, **kwargs)
        llc = self.system.hierarchy.llc.stats
        instr0 = self.instructions_executed()
        switches0 = self.context_switches
        local0 = sum(hw.local_time for hw in self.contexts)
        miss0 = llc.get("misses") - llc.get("cold_misses")
        first0 = llc.get("first_access_misses")
        summary = timed(self, *args, **kwargs)
        tr.add("sim.instructions", self.instructions_executed() - instr0)
        tr.add("sim.context_switches", self.context_switches - switches0)
        tr.add("sim.core_cycles", sum(hw.local_time for hw in self.contexts) - local0)
        tr.add("sim.llc_misses", llc.get("misses") - llc.get("cold_misses") - miss0)
        tr.add("sim.llc_first_access_misses", llc.get("first_access_misses") - first0)
        return summary

    return kernel_run


def cell_runner(run: Callable, traced_cell: bool) -> Callable:
    """SweepJob.run that measures the cell inside whichever process runs it.

    In a worker (any process but the one that called :func:`install`),
    the tracer starts empty, the cell runs, and the worker's aggregate
    rides home in the result dict under :data:`PAYLOAD_KEY`.
    """
    home = os.getpid()
    timed = traced("analysis.cell", run, keep=True) if traced_cell else run

    def job_run(self):
        # A worker starts from an empty tracer; so does an in-process
        # cell when nothing is tracing (it still needs its tallies).
        own = os.getpid() != home or _ACTIVE is None
        previous = activate(LayerTracer()) if own else None
        tracer = _ACTIVE
        start = perf_ns()
        try:
            result = timed(self)
        finally:
            busy_ns = perf_ns() - start
            if own:
                activate(previous)
        if isinstance(result, dict):
            payload: Dict = {"busy_ns": busy_ns}
            if own:
                payload.update(
                    tracer.payload() if traced_cell else {"counts": dict(tracer.counts)}
                )
            result = {**result, PAYLOAD_KEY: payload}
        return result

    return job_run
