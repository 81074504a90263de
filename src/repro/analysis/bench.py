"""Perf benchmark harness: time the hot paths, gate regressions.

``repro bench`` times a handful of representative workloads and writes
one ``BENCH_<name>.json`` per workload (median over repeated runs plus
machine metadata), giving the repository a perf trajectory that CI can
watch.  The workloads:

* ``single_config``     — one baseline-vs-TimeCache SPEC pair experiment
  (the unit of every sweep);
* ``comparator``        — the gate-level ``compare_sram`` scan vs the
  vectorized ``fast_compare`` over the same timestamp array;
* ``hierarchy_access``  — raw access throughput through the modeled
  L1/LLC hierarchy with TimeCache enabled;
* ``hierarchy_access_batched`` — ``access_batch`` throughput over the
  hot/cold reference trace, with the same trace driven scalar recorded
  alongside (``batch_speedup``);
* ``hierarchy_access_traced`` — the same access trace under the
  observability layer: no tracer, a disabled tracer (the production
  default, gated at <5% overhead), and an enabled tracer streaming
  JSONL;
* ``fill_kernel``       — a cold sweep of distinct lines through
  ``access_batch``: every access is a miss + fill, so the median times
  the batched fill path end to end (events/s in ``extra``);
* ``evict_kernel``      — the same sweep against a warmed hierarchy:
  every fill must evict a victim first, timing victim selection +
  eviction bookkeeping at steady state;
* ``sbit_miss_kernel``  — context switch to a fresh task, then re-touch
  an L1-resident working set: every access is a first-access s-bit miss
  on a resident line (TimeCache's signature event), timing the batched
  s-bit miss-resolution cohort;
* ``sweep_parallel``    — a small SPEC pair sweep at ``--jobs 1`` vs
  ``--jobs N``, recording the process-pool speedup.

The engine-shaped workloads (``single_config``, ``hierarchy_access``,
``hierarchy_access_batched``, ``sweep_parallel``) accept
``engine="object"|"fast"`` and, under the
fast engine, record under a ``_fast``-suffixed name so a baseline file
holds one entry per engine.  A workload can also *decline* to produce a
number — ``sweep_parallel`` on a single-CPU machine reports
``skipped: insufficient_cpus`` instead of a meaningless median — and
skipped entries are ignored on both sides of the baseline comparison.

Comparison mode (``--baseline PATH``) loads a committed baseline (see
``benchmarks/perf/BASELINE.json``) and *fails* — returns regressions —
when any shared workload's median exceeds the baseline by more than
``threshold`` (default 20%).  Hosted CI runners have noisy, alien
hardware, so the perf-smoke job runs the comparison warn-only; the
comparison logic itself is strict and unit-tested.
"""

from __future__ import annotations

import os
import platform
import statistics
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Union

import numpy as np

BENCH_SCHEMA = 1
#: relative slowdown vs baseline that counts as a regression
DEFAULT_THRESHOLD = 0.20
#: workloads that take an ``engine=`` keyword and get a ``_fast`` suffix
ENGINE_AWARE = (
    "single_config",
    "hierarchy_access",
    "hierarchy_access_batched",
    "hierarchy_access_traced",
    "fill_kernel",
    "evict_kernel",
    "sbit_miss_kernel",
    "sweep_parallel",
)


@dataclass
class BenchResult:
    """Timing for one benchmark workload.

    ``skipped`` holds a machine-readable reason when the workload could
    not produce a meaningful number on this host (``runs`` is empty and
    ``median_s`` reads 0.0); baseline comparison ignores such entries.
    """

    name: str
    runs: List[float]
    extra: Dict[str, float] = field(default_factory=dict)
    skipped: Optional[str] = None

    @property
    def median_s(self) -> float:
        return statistics.median(self.runs) if self.runs else 0.0

    def to_dict(self, meta: Optional[Mapping] = None) -> Dict:
        payload: Dict = {
            "schema": BENCH_SCHEMA,
            "kind": "bench_result",
            "name": self.name,
            "median_s": self.median_s,
            "runs": list(self.runs),
            "extra": dict(self.extra),
        }
        if self.skipped:
            payload["skipped"] = self.skipped
        if meta is not None:
            payload["meta"] = dict(meta)
        return payload


def machine_metadata() -> Dict:
    """Where a measurement came from — medians are only comparable
    against a baseline taken on similar hardware."""
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "machine": platform.machine(),
        "cpu_count": os.cpu_count(),
        "taken_at": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
    }


def _time_runs(fn: Callable[[], object], repeats: int) -> List[float]:
    runs: List[float] = []
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        runs.append(time.perf_counter() - start)
    return runs


# --------------------------------------------------------------------------
# workloads


def bench_single_config(quick: bool = False, engine: str = "object") -> BenchResult:
    """One SPEC pair experiment — the unit of work every sweep repeats."""
    from repro.analysis.experiment import run_spec_pair_experiment
    from repro.common.config import scaled_experiment_config

    instructions = 4_000 if quick else 40_000
    config = scaled_experiment_config(
        num_cores=1, llc_kib=32, seed=0xBEEF, engine=engine
    )
    runs = _time_runs(
        lambda: run_spec_pair_experiment(
            config, "wrf", "wrf", instructions=instructions, seed=0xBEEF
        ),
        repeats=3 if quick else 5,
    )
    return BenchResult(
        name="single_config",
        runs=runs,
        extra={"instructions": float(instructions)},
    )


def bench_comparator(quick: bool = False) -> BenchResult:
    """Gate-level bit-serial scan vs the vectorized functional path.

    The headline number (``runs``) times ``fast_compare`` — the path the
    experiments take on every context switch; ``extra`` records the
    gate-level ``compare_sram`` median over the same array and the
    resulting speedup.
    """
    from repro.core.comparator import BitSerialComparator
    from repro.core.timestamp import TimestampDomain

    words = 4_096 if quick else 16_384
    domain = TimestampDomain(bits=16)
    comparator = BitSerialComparator(domain)
    rng = np.random.default_rng(0xC0FFEE)
    tc_values = rng.integers(0, domain.modulus, size=words, dtype=np.int64)
    ts = int(domain.modulus // 2)
    repeats = 5 if quick else 9

    fast_runs = _time_runs(lambda: comparator.fast_compare(tc_values, ts), repeats)
    sram_runs = _time_runs(
        lambda: comparator.compare_values(tc_values, ts), repeats
    )
    fast_median = statistics.median(fast_runs)
    sram_median = statistics.median(sram_runs)
    return BenchResult(
        name="comparator",
        runs=fast_runs,
        extra={
            "words": float(words),
            "sram_median_s": sram_median,
            "fast_median_s": fast_median,
            "fast_speedup": sram_median / fast_median if fast_median else 0.0,
        },
    )


def bench_hierarchy_access(
    quick: bool = False, engine: str = "object"
) -> BenchResult:
    """Raw access throughput through the modeled hierarchy."""
    import dataclasses

    from repro.common.rng import DeterministicRng
    from repro.core.timecache import TimeCacheSystem
    from repro.memsys.hierarchy import AccessKind
    from repro.robustness.campaign import campaign_config

    accesses = 20_000 if quick else 100_000
    config = campaign_config(seed=7)
    if engine != config.hierarchy.engine:
        config = dataclasses.replace(
            config,
            hierarchy=dataclasses.replace(config.hierarchy, engine=engine),
        )
    system = TimeCacheSystem(config)
    line_bytes = system.config.hierarchy.line_bytes
    rng = DeterministicRng(7)
    pool = [0x10000 + i * line_bytes for i in range(256)]
    addrs = [rng.choice(pool) for _ in range(accesses)]
    # Drive the hierarchy entry point directly so the measurement is the
    # per-access engine path, not the facade's clock bookkeeping.
    access = system.hierarchy.access
    load = AccessKind.LOAD

    def drive() -> None:
        now = 0
        for addr in addrs:
            latency = access(0, addr, load, now).latency
            now += latency if latency > 0 else 1

    runs = _time_runs(drive, repeats=3 if quick else 5)
    return BenchResult(
        name="hierarchy_access",
        runs=runs,
        extra={
            "accesses": float(accesses),
            "accesses_per_s": accesses / statistics.median(runs),
        },
    )


def bench_hierarchy_access_batched(
    quick: bool = False, engine: str = "object"
) -> BenchResult:
    """Batched-run throughput through the modeled hierarchy.

    Drives the shared hot/cold reference trace (99.5% of loads over 8
    hot lines — the cache-friendly regime real workload phases spend
    most of their time in, and the one the batched path exists for)
    through ``access_batch`` in one run per repeat.  ``extra`` records
    the *same trace* driven through the scalar ``access`` loop and the
    resulting ``batch_speedup``, so the number is honest about what
    batching buys on identical work.  The miss-heavy uniform trace of
    ``hierarchy_access`` is deliberately left to the scalar arm.
    """
    import dataclasses

    from repro.analysis.runner import hot_cold_reference_trace
    from repro.core.timecache import TimeCacheSystem
    from repro.memsys.hierarchy import AccessKind
    from repro.robustness.campaign import campaign_config

    accesses = 20_000 if quick else 100_000
    config = campaign_config(seed=7)
    if engine != config.hierarchy.engine:
        config = dataclasses.replace(
            config,
            hierarchy=dataclasses.replace(config.hierarchy, engine=engine),
        )
    addrs = hot_cold_reference_trace(
        accesses, line_bytes=config.hierarchy.line_bytes, seed=7
    )
    load = AccessKind.LOAD
    repeats = 3 if quick else 5

    def drive_batched() -> None:
        system = TimeCacheSystem(config)
        system.hierarchy.access_batch(0, addrs, load, now=0, advance=0)

    def drive_scalar() -> None:
        system = TimeCacheSystem(config)
        access = system.hierarchy.access
        now = 0
        for addr in addrs:
            now += access(0, addr, load, now).latency

    runs = _time_runs(drive_batched, repeats)
    scalar_runs = _time_runs(drive_scalar, repeats)
    median = statistics.median(runs)
    scalar_median = statistics.median(scalar_runs)
    return BenchResult(
        name="hierarchy_access_batched",
        runs=runs,
        extra={
            "accesses": float(accesses),
            "accesses_per_s": accesses / median,
            "scalar_median_s": scalar_median,
            "batch_speedup": scalar_median / median if median else 0.0,
        },
    )


#: accesses per timed slice of ``bench_hierarchy_access_traced``
TRACED_SLICE_ACCESSES = 250


def bench_hierarchy_access_traced(
    quick: bool = False, engine: str = "object"
) -> BenchResult:
    """Tracing overhead on the raw-access hot path.

    Drives the ``hierarchy_access`` trace through three systems: no
    tracer at all, a *disabled* tracer (the production default — it
    attaches nothing, so the hot path must be untouched), and an
    *enabled* tracer streaming JSONL to a temp file.  Each round is cut
    into slices of ``TRACED_SLICE_ACCESSES`` accesses, and the arms take
    turns slice by slice (in rotating order), so clock drift and
    host noise hit all three equally.  ``runs`` (the baseline-gated
    number) is the disabled arm's time per round; ``extra`` records the
    three medians plus slice-paired overhead ratios —
    ``overhead_disabled`` is locked under 5% by
    ``tests/obs/test_bench_traced.py``.
    """
    import dataclasses
    import tempfile

    from repro.common.rng import DeterministicRng
    from repro.core.timecache import TimeCacheSystem
    from repro.memsys.hierarchy import AccessKind
    from repro.obs.sinks import JsonlSink
    from repro.obs.tracer import Tracer
    from repro.robustness.campaign import campaign_config

    accesses = 20_000 if quick else 100_000
    config = campaign_config(seed=7)
    if engine != config.hierarchy.engine:
        config = dataclasses.replace(
            config,
            hierarchy=dataclasses.replace(config.hierarchy, engine=engine),
        )
    line_bytes = config.hierarchy.line_bytes
    rng = DeterministicRng(7)
    pool = [0x10000 + i * line_bytes for i in range(256)]
    addrs = [rng.choice(pool) for _ in range(accesses)]
    slices = [
        addrs[i : i + TRACED_SLICE_ACCESSES]
        for i in range(0, accesses, TRACED_SLICE_ACCESSES)
    ]

    def build_drive(
        tracer: Optional[Tracer] = None,
    ) -> Callable[[List[int], int], int]:
        system = TimeCacheSystem(config)
        if tracer is not None:
            tracer.attach(system)
        access = system.hierarchy.access
        load = AccessKind.LOAD

        def drive(chunk: List[int], now: int) -> int:
            for addr in chunk:
                latency = access(0, addr, load, now).latency
                now += latency if latency > 0 else 1
            return now

        return drive

    repeats = 3 if quick else 5
    with tempfile.TemporaryDirectory() as tmp:
        sink = JsonlSink(Path(tmp) / "bench_trace.jsonl")
        enabled_tracer = Tracer(sink)
        drives = [
            build_drive(),
            build_drive(Tracer(enabled=False)),
            build_drive(enabled_tracer),
        ]
        for drive in drives:  # warm-up: fills + first misses
            now = 0
            for chunk in slices:
                now = drive(chunk, now)
        # slice_times[arm] lists every timed slice, round after round
        slice_times: List[List[float]] = [[] for _ in drives]
        turn = 0
        for _ in range(repeats):
            nows = [0] * len(drives)
            for chunk in slices:
                # rotate the order so no arm always runs after the enabled one
                turn += 1
                for k in range(len(drives)):
                    arm = (turn + k) % len(drives)
                    start = time.perf_counter()
                    nows[arm] = drives[arm](chunk, nows[arm])
                    slice_times[arm].append(time.perf_counter() - start)
        events = float(sink.emitted)
        enabled_tracer.close()
    per_round = len(slices)
    plain_runs, disabled_runs, enabled_runs = (
        [sum(times[i : i + per_round]) for i in range(0, len(times), per_round)]
        for times in slice_times
    )
    plain_slices, disabled_slices, enabled_slices = slice_times
    return BenchResult(
        name="hierarchy_access_traced",
        runs=disabled_runs,
        extra={
            "accesses": float(accesses),
            "plain_median_s": statistics.median(plain_runs),
            "disabled_median_s": statistics.median(disabled_runs),
            "enabled_median_s": statistics.median(enabled_runs),
            # Slice j of every arm simulates the same accesses from the
            # same cache state, close together in time; the overhead is
            # the median of those paired ratios (a ratio of minima would
            # compare slices of different work and different moments).
            "overhead_disabled": _paired_overhead(disabled_slices, plain_slices),
            "overhead_enabled": _paired_overhead(enabled_slices, plain_slices),
            "slices": float(len(plain_slices)),
            "events": events,
        },
    )


def _paired_overhead(runs: List[float], reference: List[float]) -> float:
    """Median over pairs of ``runs[i] / reference[i]``, minus one."""
    return statistics.median(r / ref for r, ref in zip(runs, reference)) - 1.0


def _kernel_bench_setup(engine: str, l1_kib: int = 4, llc_kib: int = 128):
    """System factory + AccessKind for the kernel-level microbenches."""
    from repro.common.config import scaled_experiment_config
    from repro.core.timecache import TimeCacheSystem
    from repro.memsys.hierarchy import AccessKind

    config = scaled_experiment_config(
        l1_kib=l1_kib, llc_kib=llc_kib, seed=7, engine=engine
    )
    line = config.hierarchy.line_bytes
    return (lambda: TimeCacheSystem(config)), line, AccessKind.LOAD


def _timed_batches(make_system, addrs, load, repeats, warm_passes=0):
    """Time ``access_batch`` over ``addrs`` on a fresh system per repeat,
    optionally warming the hierarchy with untimed passes first."""
    runs: List[float] = []
    for _ in range(repeats):
        system = make_system()
        for _ in range(warm_passes):
            system.hierarchy.access_batch(0, addrs, load, now=0, advance=0)
        start = time.perf_counter()
        system.hierarchy.access_batch(0, addrs, load, now=0, advance=0)
        runs.append(time.perf_counter() - start)
    return runs


def _kernel_phase_extra(make_system, addrs, load, warm_passes=0):
    """Per-phase time breakdown from one extra *untimed* instrumented pass.

    Runs the same batch once more on a fresh system with a
    :class:`~repro.obs.spans.PhaseAccumulator` attached, so the timed
    runs above stay uninstrumented while the result still records where
    the kernel spends its time.  Keys are flattened into ``extra`` as
    ``phase_<name>_s`` / ``phase_share_<name>`` floats.
    """
    from repro.obs.spans import PhaseAccumulator

    system = make_system()
    for _ in range(warm_passes):
        system.hierarchy.access_batch(0, addrs, load, now=0, advance=0)
    acc = PhaseAccumulator()
    system.hierarchy.kernel_profiler = acc
    system.hierarchy.access_batch(0, addrs, load, now=0, advance=0)
    system.hierarchy.kernel_profiler = None
    summary = acc.summary()
    extra: Dict[str, float] = {
        "phase_total_s": summary["total_ns"] / 1e9,
    }
    for phase, ns in summary["phase_ns"].items():
        extra[f"phase_{phase}_s"] = ns / 1e9
    for phase, share in summary["phase_share"].items():
        extra[f"phase_share_{phase}"] = round(share, 4)
    for key in ("windows", "events", "cuts", "replans"):
        extra[f"phase_{key}"] = float(summary[key])
    if "plan_events_per_s" in summary:
        extra["plan_events_per_s"] = summary["plan_events_per_s"]
    return extra


def bench_fill_kernel(quick: bool = False, engine: str = "object") -> BenchResult:
    """Batched miss + fill throughput: a cold sweep of distinct lines.

    Every access is an L1 miss that fills both levels (the pool fits
    the LLC, so the sweep exercises the vectorized fill kernel, not
    the LLC-capacity scalar boundary).  ``events_per_s`` is the
    kernel-level number the vectorized fill path is gated on.
    """
    make_system, line, load = _kernel_bench_setup(engine, llc_kib=1024)
    events = 4_000 if quick else 12_000
    addrs = [i * line for i in range(events)]
    runs = _timed_batches(
        make_system, addrs, load, repeats=5 if quick else 9
    )
    median = statistics.median(runs)
    extra = {
        "events": float(events),
        "events_per_s": events / median if median else 0.0,
    }
    extra.update(_kernel_phase_extra(make_system, addrs, load))
    return BenchResult(name="fill_kernel", runs=runs, extra=extra)


def bench_evict_kernel(quick: bool = False, engine: str = "object") -> BenchResult:
    """Batched L1 eviction throughput: a working set that fits the LLC
    but overflows the L1 many times over, driven at steady state.

    The hierarchy is warmed with an untimed pass first, so every timed
    access is an L1 miss whose fill has to select a victim and evict it
    (victim rehearsal, dirty/counter bookkeeping, tag maintenance)
    before re-installing the line from an LLC hit.
    """
    make_system, line, load = _kernel_bench_setup(engine)
    events = 20_000 if quick else 100_000
    pool = 1_500
    addrs = [((i * 131) % pool) * line for i in range(events)]
    runs = _timed_batches(
        make_system, addrs, load, repeats=3 if quick else 5, warm_passes=1
    )
    median = statistics.median(runs)
    extra = {
        "events": float(events),
        "events_per_s": events / median if median else 0.0,
    }
    extra.update(_kernel_phase_extra(make_system, addrs, load, warm_passes=1))
    return BenchResult(name="evict_kernel", runs=runs, extra=extra)


def bench_sbit_miss_kernel(
    quick: bool = False, engine: str = "object"
) -> BenchResult:
    """Batched s-bit first-access-miss throughput.

    A working set resident in a large L1 is re-touched right after a
    context switch to a brand-new task: the tags all hit but every
    s-bit is clear, so each access is TimeCache's forced first-access
    miss on a resident line — the event the defense makes ubiquitous
    and the batched cohort path exists for.  Each timed run performs
    several switch + full-sweep rounds.
    """
    make_system, line, load = _kernel_bench_setup(engine, l1_kib=64, llc_kib=256)
    lines_resident = 768
    rounds = 4 if quick else 16
    addrs = [i * line for i in range(lines_resident)]
    events = lines_resident * rounds
    repeats = 3 if quick else 5
    runs: List[float] = []
    for _ in range(repeats):
        system = make_system()
        # warm: fill the working set into L1 for task 0
        out = system.hierarchy.access_batch(0, addrs, load, now=0, advance=0)
        now = out.now
        task = 0
        start = time.perf_counter()
        for _ in range(rounds):
            task += 1
            cost = system.context_switch(task - 1, task, 0, now)
            now += cost.dma_cycles
            out = system.hierarchy.access_batch(0, addrs, load, now=now, advance=0)
            now = out.now
        runs.append(time.perf_counter() - start)
    median = statistics.median(runs)
    return BenchResult(
        name="sbit_miss_kernel",
        runs=runs,
        extra={
            "events": float(events),
            "rounds": float(rounds),
            "events_per_s": events / median if median else 0.0,
        },
    )


def bench_sweep_parallel(
    quick: bool = False, jobs: Optional[int] = None, engine: str = "object"
) -> BenchResult:
    """A small SPEC pair sweep in process vs across worker processes.

    ``runs`` times the parallel sweep; ``extra`` records the serial
    median and the speedup — the number the tentpole exists to move.
    On a single-CPU machine (or with one worker) worker processes cannot
    beat the in-process run, so the bench reports
    ``skipped: insufficient_cpus`` rather than a meaningless speedup.
    """
    from repro.analysis.parallel import resolve_jobs
    from repro.analysis.runner import spec_pair_sweep

    workers = resolve_jobs(jobs)
    cpus = os.cpu_count() or 1
    if cpus < 2 or workers < 2:
        return BenchResult(
            name="sweep_parallel",
            runs=[],
            extra={"cpus": float(cpus), "jobs": float(workers)},
            skipped="insufficient_cpus",
        )
    pairs = [("wrf", "wrf"), ("milc", "milc"), ("perlbench", "perlbench"),
             ("gobmk", "gobmk")]
    instructions = 8_000 if quick else 40_000
    repeats = 1 if quick else 3

    serial_runs = _time_runs(
        lambda: spec_pair_sweep(
            pairs=pairs, instructions=instructions, jobs=1, engine=engine
        ),
        repeats,
    )
    parallel_runs = _time_runs(
        lambda: spec_pair_sweep(
            pairs=pairs, instructions=instructions, jobs=workers, engine=engine
        ),
        repeats,
    )
    serial_median = statistics.median(serial_runs)
    parallel_median = statistics.median(parallel_runs)
    return BenchResult(
        name="sweep_parallel",
        runs=parallel_runs,
        extra={
            "pairs": float(len(pairs)),
            "instructions": float(instructions),
            "jobs": float(workers),
            "serial_median_s": serial_median,
            "parallel_median_s": parallel_median,
            "speedup": serial_median / parallel_median if parallel_median else 0.0,
        },
    )


#: name -> workload; iteration order is execution order
BENCHMARKS: Dict[str, Callable[..., BenchResult]] = {
    "single_config": bench_single_config,
    "comparator": bench_comparator,
    "hierarchy_access": bench_hierarchy_access,
    "hierarchy_access_batched": bench_hierarchy_access_batched,
    "hierarchy_access_traced": bench_hierarchy_access_traced,
    "fill_kernel": bench_fill_kernel,
    "evict_kernel": bench_evict_kernel,
    "sbit_miss_kernel": bench_sbit_miss_kernel,
    "sweep_parallel": bench_sweep_parallel,
}


def _validate_names(names: Optional[Sequence[str]]) -> List[str]:
    selected = list(BENCHMARKS) if not names else list(names)
    unknown = [n for n in selected if n not in BENCHMARKS]
    if unknown:
        raise ValueError(
            f"unknown benchmark(s) {unknown}; known: {sorted(BENCHMARKS)}"
        )
    return selected


def _bench_kwargs(name: str, quick: bool, jobs: Optional[int], engine: str) -> Dict:
    kwargs: Dict = {"quick": quick}
    if name == "sweep_parallel":
        kwargs["jobs"] = jobs
    if name in ENGINE_AWARE:
        kwargs["engine"] = engine
    return kwargs


def _result_name(name: str, engine: str) -> str:
    return f"{name}_fast" if engine == "fast" and name in ENGINE_AWARE else name


def run_benchmarks(
    names: Optional[Sequence[str]] = None,
    quick: bool = False,
    jobs: Optional[int] = None,
    engine: str = "object",
) -> Dict[str, BenchResult]:
    """Run the named workloads (all by default), in registry order.

    With ``engine="fast"`` the engine-aware workloads run against the
    struct-of-arrays engine and record under ``<name>_fast`` so the two
    engines keep separate baseline entries.
    """
    results: Dict[str, BenchResult] = {}
    for name in _validate_names(names):
        result = BENCHMARKS[name](**_bench_kwargs(name, quick, jobs, engine))
        result.name = _result_name(name, engine)
        results[result.name] = result
    return results


def profile_benchmarks(
    names: Optional[Sequence[str]] = None,
    quick: bool = False,
    jobs: Optional[int] = None,
    engine: str = "object",
    output_dir: Union[str, Path] = ".",
) -> List[Path]:
    """Run each workload once under cProfile; write the stats dumps.

    One ``BENCH_profile_<name>.pstats`` per workload, loadable with
    ``python -m pstats`` or ``snakeviz`` — so hot-path work starts from
    measurements instead of guesses.  Profiled runs are slower than
    timed ones; they do not produce ``BenchResult`` timings.
    """
    import cProfile

    out = Path(output_dir)
    paths: List[Path] = []
    for name in _validate_names(names):
        fn = BENCHMARKS[name]
        kwargs = _bench_kwargs(name, quick, jobs, engine)
        profiler = cProfile.Profile()
        profiler.enable()
        try:
            fn(**kwargs)
        finally:
            profiler.disable()
        path = out / f"BENCH_profile_{_result_name(name, engine)}.pstats"
        profiler.dump_stats(path)
        paths.append(path)
    return paths


def write_results(
    results: Mapping[str, BenchResult],
    output_dir: Union[str, Path] = ".",
) -> List[Path]:
    """Write one ``BENCH_<name>.json`` per result; returns the paths."""
    from repro.analysis.export import save_json

    meta = machine_metadata()
    out = Path(output_dir)
    paths: List[Path] = []
    for name, result in results.items():
        paths.append(save_json(result.to_dict(meta), out / f"BENCH_{name}.json"))
    return paths


# --------------------------------------------------------------------------
# baseline comparison


def _baseline_entry(result: BenchResult) -> Dict:
    entry: Dict = {"median_s": result.median_s, "extra": dict(result.extra)}
    if result.skipped:
        entry["skipped"] = result.skipped
    return entry


def baseline_payload(results: Mapping[str, BenchResult]) -> Dict:
    return {
        "schema": BENCH_SCHEMA,
        "kind": "bench_baseline",
        "meta": machine_metadata(),
        "benches": {
            name: _baseline_entry(result) for name, result in results.items()
        },
    }


def write_baseline(
    results: Mapping[str, BenchResult], path: Union[str, Path]
) -> Path:
    """Persist the current medians as the committed baseline."""
    from repro.analysis.export import save_json

    return save_json(baseline_payload(results), path)


def load_baseline(path: Union[str, Path]) -> Dict[str, float]:
    """Baseline medians keyed by bench name.

    Entries recorded as skipped (or with a zero median, which is what a
    skipped bench serializes as) carry no timing information and are
    dropped, so they can never anchor a regression comparison.
    """
    import json

    with open(path) as handle:
        payload = json.load(handle)
    if payload.get("kind") != "bench_baseline":
        raise ValueError(f"{path}: not a bench baseline file")
    return {
        name: float(entry["median_s"])
        for name, entry in payload.get("benches", {}).items()
        if not entry.get("skipped") and float(entry.get("median_s", 0.0)) > 0
    }


def compare_to_baseline(
    results: Mapping[str, BenchResult],
    baseline: Mapping[str, float],
    threshold: float = DEFAULT_THRESHOLD,
) -> List[str]:
    """Regression messages for every shared bench that got slower.

    A bench regresses when ``current > baseline * (1 + threshold)``.
    Benches present on only one side are ignored (new benches must not
    fail the gate retroactively).  An empty list means the gate passes.
    """
    regressions: List[str] = []
    for name, result in results.items():
        if result.skipped:
            continue
        base = baseline.get(name)
        if base is None or base <= 0:
            continue
        ratio = result.median_s / base
        if ratio > 1.0 + threshold:
            regressions.append(
                f"{name}: {result.median_s:.4f}s vs baseline {base:.4f}s "
                f"({ratio:.2f}x, threshold {1.0 + threshold:.2f}x)"
            )
    return regressions


def render_results(results: Mapping[str, BenchResult]) -> str:
    """One line per bench: median plus the most interesting extras."""
    lines = []
    for name, result in results.items():
        if result.skipped:
            lines.append(f"{name:<18} skipped ({result.skipped})")
            continue
        extras = ""
        if "speedup" in result.extra:
            extras = f"  speedup {result.extra['speedup']:.2f}x"
        elif "fast_speedup" in result.extra:
            extras = f"  fast_speedup {result.extra['fast_speedup']:.1f}x"
        elif "accesses_per_s" in result.extra:
            extras = f"  {result.extra['accesses_per_s']:,.0f} accesses/s"
        elif "events_per_s" in result.extra:
            extras = f"  {result.extra['events_per_s']:,.0f} events/s"
        lines.append(
            f"{name:<18} median {result.median_s:.4f}s over "
            f"{len(result.runs)} run(s){extras}"
        )
        if "phase_total_s" in result.extra:
            from repro.obs.spans import KERNEL_PHASES

            parts = []
            for phase in KERNEL_PHASES:
                share = result.extra.get(f"phase_share_{phase}", 0.0)
                if share:
                    parts.append(f"{phase} {share:.0%}")
            if parts:
                lines.append(
                    f"  phases ({result.extra['phase_total_s']:.4f}s): "
                    + "  ".join(parts)
                )
        speedup = result.extra.get("batch_speedup")
        if speedup is not None and speedup < 1.0:
            lines.append(
                f"  !! {name}: batching is SLOWER than the scalar loop "
                f"(batch_speedup {speedup:.2f}x) — known cost on the "
                f"object engine, see benchmarks/perf/README.md"
            )
    return "\n".join(lines)
