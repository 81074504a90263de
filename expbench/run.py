#!/usr/bin/env python3
"""Experiment-level benchmark of the TimeCache reproduction.

    python3 expbench/run.py --workload spec_pairs --seed 7 --seconds 20 --trace 0

Runs one workload (``spec_pairs``, ``parsec_2core`` or
``defense_matrix``, see ``expbench/README.md``) in whole passes until
``--seconds`` have elapsed, checks every simulated output, and prints
the metrics: one ``name value unit`` line each, then one JSON object as
the last line of standard output.

``--trace 0`` measures the end-to-end metrics.  ``--trace 1`` alternates
untraced and traced passes: the traced ones wrap every layer boundary
from the outside (``expbench/tracing.py``) and give the per-layer
metrics, the pair gives ``bench.trace_overhead``, and the spans land in
``--out-dir``.

Exit status: 0 when every output checked out, 1 when any unit failed
its check, raised or was quarantined, 2 when the simulator sources are
missing.
"""

from __future__ import annotations

import argparse
import json
import math
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional, Sequence

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
EXPECTED = BENCH_DIR / "expected.json"

#: (name, unit) of the end-to-end metrics in the result object
END_TO_END = (
    ("setup_s", "s"),
    ("sim_kips", "kinstr/s"),
    ("exp_s_p50", "s"),
    ("cells_per_s", "1/s"),
    ("peak_rss_mib", "MiB"),
)


def parse_args(argv: Optional[Sequence[str]]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", default="full", help="full (default) or tiny")
    parser.add_argument("--expected", type=Path, default=EXPECTED,
                        help="expected-outputs file to check against")
    parser.add_argument("--out-dir", type=Path, default=Path(".expbench"),
                        help="where --trace 1 writes its spans")
    parser.add_argument("--make-expected", action="store_true",
                        help="write --expected from object-engine runs and exit")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def peak_rss_mib(with_children: bool) -> float:
    kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if with_children:
        kib += resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return kib / 1024.0


def measure_setup(args: argparse.Namespace, reps: int) -> List[float]:
    """Wall seconds of ``reps`` fresh interpreters each doing the
    workload's set-up (imports, configs, jobs, workload construction)."""
    command = [
        sys.executable, str(Path(__file__).resolve()), "--setup-probe",
        "--workload", args.workload, "--seed", str(args.seed), "--scale", args.scale,
    ]
    times = []
    for _ in range(reps):
        start = time.perf_counter()
        subprocess.run(command, check=True, cwd=ROOT, stdout=subprocess.DEVNULL)
        times.append(time.perf_counter() - start)
    return times


def run_passes(workload, seed: int, seconds: float):
    """Whole passes until ``seconds`` have elapsed (at least one)."""
    passes = []
    start = time.perf_counter()
    while not passes or time.perf_counter() - start < seconds:
        passes.append(workload.run_pass(seed))
    return passes


def end_to_end(workload, passes, setup_times, rss_mib) -> Dict[str, float]:
    """Throughputs are medians over passes, so one pass slowed by a
    neighbour on the host does not move them."""
    units = [u for p in passes for u in p.units if u.outputs is not None]
    return {
        "setup_s": statistics.median(setup_times),
        "sim_kips": statistics.median(workload.sim_kips(p) for p in passes),
        "exp_s_p50": statistics.median(u.seconds for u in units),
        "cells_per_s": statistics.median(
            sum(u.outputs is not None for u in p.units) / p.wall_s for p in passes
        ),
        "peak_rss_mib": rss_mib,
    }


def tail_line(seconds: Sequence[float]) -> str:
    """The unit-time sample count, and the highest whole percentile that
    still has at least ten samples above it."""
    n = len(seconds)
    line = f"unit seconds: n={n}, p50 {statistics.median(seconds):.4g} s"
    q = int(100 * (n - 10) / n) if n > 10 else 0
    if q > 50:
        line += f", p{q} {statistics.quantiles(seconds, n=100)[q - 1]:.4g} s"
    return line


def traced_run(args, workload, tracing, layers):
    """Alternate untraced and traced passes; per-layer metrics.

    The untraced passes give ``bench.trace_overhead``.  Self times are
    raw: span duration minus the wrapped child spans it covers, with the
    wrappers' own cost left in.
    """
    from expbench.workloads import DefenseMatrix

    in_workers = isinstance(workload, DefenseMatrix)
    untraced, traced = [], []
    #: the traced passes' wall, measured around the wrapped call
    traced_wall = 0.0
    #: (pid, self_ns, calls, counts, phases, spans) per traced process
    records = []
    start = time.perf_counter()
    while not traced or time.perf_counter() - start < args.seconds:
        if in_workers:
            tracing.install_cell_meter()
        try:
            untraced.append(workload.run_pass(args.seed))
        finally:
            tracing.uninstall()
        tracer = tracing.LayerTracer()
        tracing.install()
        tracing.activate(tracer)
        try:
            run = tracing.traced("bench.pass", workload.run_pass, keep=True)
            began = time.perf_counter()
            traced.append(run(args.seed))
            traced_wall += time.perf_counter() - began
        finally:
            tracing.activate(None)
            tracing.uninstall()
        if in_workers:
            records.append((1, {}, {}, {}, {}, tracer.spans))
        else:
            phases = tracer.phases.to_payload() if tracer.phases else {}
            records.append(
                (1, tracer.self_ns, tracer.calls, tracer.counts, phases, tracer.spans)
            )
    for ran in traced:
        for unit in ran.units:
            p = unit.payload
            if p and "self_ns" in p:
                records.append(
                    (p["pid"], p["self_ns"], p["calls"], p["counts"], p["phases"],
                     [tuple(s) for s in p["spans"]])
                )

    merged = layers.Merged()
    for _, self_ns, calls, counts, phases, _ in records:
        merged.absorb(self_ns, calls, counts, phases)
    trace_overhead = (
        statistics.median(p.wall_s for p in traced)
        / statistics.median(p.wall_s for p in untraced)
        - 1.0
    )
    metrics = layers.layer_metrics(
        merged,
        traced_wall_s=traced_wall,
        busy_s=sum(u.seconds for p in traced for u in p.units),
        jobs=traced[0].info.get("jobs", 1),
        retries=sum(p.retries for p in traced),
        quarantined=sum(1 for p in traced for u in p.units if u.error == "quarantined"),
        trace_overhead=trace_overhead,
    )
    pids: Dict[int, int] = {}
    span_sets = [(pids.setdefault(r[0], len(pids) + 1), r[5]) for r in records]
    written = layers.write_trace(args.out_dir, f"{workload.name}-seed{args.seed}", merged, span_sets)
    return untraced + traced, metrics, merged, traced_wall, written


def print_layer_table(merged, metrics: Dict[str, float], traced_wall_s: float, layers) -> None:
    per_layer = merged.layer_self_s()
    busy_s = metrics["analysis.busy_s"]
    total = sum(per_layer.values())
    print(f"layer self time over the traced passes (wall {traced_wall_s:.3f} s, "
          f"busy {busy_s:.3f} s, self total {total:.3f} s):")
    for layer in layers.LAYERS:
        seconds = per_layer.get(layer, 0.0)
        share = seconds / total if total else 0.0
        print(f"  {layer:<10} {seconds:10.4f} s  {share:7.2%}")
    print(f"  bench.trace_overhead {metrics['bench.trace_overhead']:.3f} "
          f"(traced / untraced pass wall - 1)")


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: simulator sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(ROOT)]
    from expbench import layers, tracing
    from expbench import workloads as wl

    if args.workload not in wl.WORKLOADS or args.scale not in wl.SCALES:
        print(f"error: unknown workload {args.workload!r} or scale {args.scale!r}; "
              f"workloads: {sorted(wl.WORKLOADS)}", file=sys.stderr)
        return 2
    scale = wl.SCALES[args.scale]
    workload = wl.WORKLOADS[args.workload](scale)
    if args.setup_probe:
        workload.setup(args.seed)
        return 0
    if args.make_expected:
        payload = {"seed": args.seed, "workloads": {}}
        for name, make in wl.WORKLOADS.items():
            payload["workloads"][name] = wl.make_expected(make(scale), args.seed)
        args.expected.write_text(json.dumps(payload, indent=1, sort_keys=True) + "\n")
        print(f"wrote {args.expected}")
        return 0

    in_workers = isinstance(workload, wl.DefenseMatrix)
    workload.setup(args.seed)  # untimed warm-up: lazy imports, first allocations
    if args.trace:
        passes, metrics, merged, traced_wall, written = traced_run(
            args, workload, tracing, layers
        )
        names = layers.LAYER_METRICS
    else:
        if in_workers:
            tracing.install_cell_meter()
        try:
            passes = run_passes(workload, args.seed, args.seconds)
        finally:
            tracing.uninstall()
        rss = peak_rss_mib(with_children=in_workers)
        names = END_TO_END
    report = wl.check(workload, args.seed, passes, wl.load_expected(args.expected))
    if not args.trace:
        setup_times = measure_setup(args, scale.setup_reps)
        metrics = end_to_end(workload, passes, setup_times, rss)

    error_rate = report.failed / report.attempted
    paper_err = workload.paper_err_pp(passes)
    units = sum(len(p.units) for p in passes)
    print(f"workload {workload.name}: {len(passes)} passes, {units} units, "
          f"seed {args.seed}, checked against {report.mode}")
    for problem in report.problems:
        print(f"CHECK FAILED: {problem}")
    if args.trace:
        print_layer_table(merged, metrics, traced_wall, layers)
        for path in written:
            print(f"wrote {path}")
    else:
        print(tail_line([u.seconds for p in passes for u in p.units if u.outputs is not None]))
    for name, unit in names:
        print(f"{name:<30} {metrics[name]:>16.6g} {unit}")
    print(f"{'error_rate':<30} {error_rate:>16.6g} fraction")
    print(f"{'paper_err_pp':<30} {paper_err:>16.6g} pp")
    result = {
        "correct": report.failed == 0,
        "attempted": report.attempted,
        "failed": report.failed,
        "metrics": {
            name: {"value": _finite(metrics[name]), "unit": unit} for name, unit in names
        },
    }
    print(json.dumps(result))
    return 0 if report.failed == 0 else 1


def _finite(value: float) -> float:
    return value if math.isfinite(value) else 0.0


if __name__ == "__main__":
    sys.exit(main())
