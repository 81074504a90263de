"""Per-layer metrics from the traced passes, and the span export.

Input is the merged tracer data of the traced passes: self
nanoseconds and call counts per path, the named tallies the wrappers
made, and the kernel-phase tallies.  A path's layer is the prefix of
its last call name (``memsys.access`` -> ``memsys``).
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Dict, Iterable, List, Tuple

#: report order of the layer table; "bench" is the harness's own loop
LAYERS = (
    "workloads",
    "cpu",
    "os",
    "core",
    "memsys",
    "defenses",
    "attacks",
    "security",
    "analysis",
    "bench",
)

#: (name, unit) of every per-layer metric, in BENCHMARK.json order
LAYER_METRICS: Tuple[Tuple[str, str], ...] = (
    ("workloads.ops", "count"),
    ("workloads.self_s", "s"),
    ("workloads.ns_per_op", "ns"),
    ("cpu.steps", "count"),
    ("cpu.self_s", "s"),
    ("cpu.instr_per_step", "instr/step"),
    ("os.self_s", "s"),
    ("os.dispatches", "count"),
    ("os.context_switches", "count"),
    ("core.switch_calls", "count"),
    ("core.switch_s", "s"),
    ("core.sim_bookkeeping_frac", "fraction"),
    ("memsys.access_calls", "count"),
    ("memsys.batch_calls", "count"),
    ("memsys.accesses_per_call", "acc/call"),
    ("memsys.self_s", "s"),
    ("memsys.ns_per_access", "ns"),
    ("memsys.kernel_share", "fraction"),
    ("memsys.phase_classify_s", "s"),
    ("memsys.phase_plan_s", "s"),
    ("memsys.phase_rehearse_s", "s"),
    ("memsys.phase_apply_s", "s"),
    ("memsys.phase_fallback_s", "s"),
    ("memsys.sim_llc_mpki", "mpki"),
    ("memsys.sim_first_access_mpki", "mpki"),
    ("defenses.hook_calls", "count"),
    ("defenses.hook_s", "s"),
    ("attacks.collect_s", "s"),
    ("attacks.samples", "count"),
    ("security.score_s", "s"),
    ("security.resamples", "count"),
    ("security.ns_per_resample", "ns"),
    ("analysis.self_s", "s"),
    ("analysis.busy_s", "s"),
    ("analysis.utilization", "fraction"),
    ("analysis.overhead_s", "s"),
    ("analysis.retries", "count"),
    ("analysis.quarantined", "count"),
    ("bench.trace_overhead", "fraction"),
)


def leaf(path: str) -> str:
    return path.rsplit(";", 1)[-1]


def layer_of(path: str) -> str:
    return leaf(path).split(".", 1)[0]


class Merged:
    """Tracer data summed over processes and traced passes."""

    def __init__(self) -> None:
        self.self_ns: Dict[str, float] = {}
        self.calls: Dict[str, int] = {}
        self.counts: Dict[str, float] = {}
        self.phases: Dict[str, int] = {}

    def absorb(self, self_ns: Dict, calls: Dict, counts: Dict, phases: Dict) -> None:
        for target, source in (
            (self.self_ns, self_ns),
            (self.calls, calls),
            (self.counts, counts),
            (self.phases, phases),
        ):
            for key, value in source.items():
                target[key] = target.get(key, 0) + value

    def self_s(self, *names: str) -> float:
        """Self seconds of calls whose leaf is one of ``names`` (or, for a
        bare layer name, any call of that layer)."""
        total = 0.0
        for path, ns in self.self_ns.items():
            name = leaf(path)
            if name in names or name.split(".", 1)[0] in names:
                total += ns
        return total / 1e9

    def n_calls(self, *names: str) -> int:
        total = 0
        for path, n in self.calls.items():
            name = leaf(path)
            if name in names or name.split(".", 1)[0] in names:
                total += n
        return total

    def layer_self_s(self) -> Dict[str, float]:
        out = {layer: 0.0 for layer in LAYERS}
        for path, ns in self.self_ns.items():
            out[layer_of(path)] = out.get(layer_of(path), 0.0) + ns / 1e9
        return out


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(
    merged: Merged,
    *,
    traced_wall_s: float,
    busy_s: float,
    jobs: int,
    retries: int,
    quarantined: int,
    trace_overhead: float,
) -> Dict[str, float]:
    """Every per-layer metric, by name."""
    c = merged.counts
    instructions = c.get("sim.instructions", 0)
    ops = merged.n_calls("workloads.next")
    steps = merged.n_calls("cpu.step")
    scalar_calls = merged.n_calls("memsys.access")
    batch_calls = merged.n_calls("memsys.access_batch")
    accesses = scalar_calls + c.get("memsys.batch_accesses", 0)
    resamples = c.get("security.resamples", 0)
    phases = merged.phases
    kernel_acc = phases.get("batch_accesses", 0)
    fallback_acc = phases.get("scalar_accesses", 0)
    capacity_s = jobs * traced_wall_s
    values = {
        "workloads.ops": ops,
        "workloads.self_s": merged.self_s("workloads"),
        "workloads.ns_per_op": _ratio(merged.self_s("workloads.next") * 1e9, ops),
        "cpu.steps": steps,
        "cpu.self_s": merged.self_s("cpu"),
        "cpu.instr_per_step": _ratio(instructions, steps),
        "os.self_s": merged.self_s("os"),
        "os.dispatches": c.get("os.dispatches", 0),
        "os.context_switches": c.get("sim.context_switches", 0),
        "core.switch_calls": merged.n_calls("core.switch"),
        "core.switch_s": merged.self_s("core.switch"),
        "core.sim_bookkeeping_frac": _ratio(
            c.get("sim.switch_cost_cycles", 0), c.get("sim.core_cycles", 0)
        ),
        "memsys.access_calls": scalar_calls,
        "memsys.batch_calls": batch_calls,
        "memsys.accesses_per_call": _ratio(accesses, scalar_calls + batch_calls),
        "memsys.self_s": merged.self_s("memsys"),
        "memsys.ns_per_access": _ratio(
            merged.self_s("memsys.access", "memsys.access_batch") * 1e9, accesses
        ),
        "memsys.kernel_share": _ratio(kernel_acc, kernel_acc + fallback_acc),
    }
    for phase in ("classify", "plan", "rehearse", "apply", "fallback"):
        values[f"memsys.phase_{phase}_s"] = phases.get(f"{phase}_ns", 0) / 1e9
    values.update(
        {
            "memsys.sim_llc_mpki": _ratio(c.get("sim.llc_misses", 0) * 1000, instructions),
            "memsys.sim_first_access_mpki": _ratio(
                c.get("sim.llc_first_access_misses", 0) * 1000, instructions
            ),
            "defenses.hook_calls": merged.n_calls("defenses"),
            "defenses.hook_s": merged.self_s("defenses"),
            "attacks.collect_s": merged.self_s("attacks"),
            "attacks.samples": c.get("attacks.samples", 0),
            "security.score_s": merged.self_s("security"),
            "security.resamples": resamples,
            "security.ns_per_resample": _ratio(
                merged.self_s("security.bootstrap") * 1e9, resamples
            ),
            "analysis.self_s": merged.self_s("analysis"),
            "analysis.busy_s": busy_s,
            "analysis.utilization": _ratio(busy_s, capacity_s),
            "analysis.overhead_s": capacity_s - busy_s,
            "analysis.retries": retries,
            "analysis.quarantined": quarantined,
            "bench.trace_overhead": trace_overhead,
        }
    )
    return values


# ----------------------------------------------------------------------
# export
# ----------------------------------------------------------------------
def write_trace(
    out_dir: Path,
    stem: str,
    merged: Merged,
    span_sets: Iterable[Tuple[int, List[Tuple[str, int, int]]]],
) -> List[Path]:
    """Write the kept spans as a Perfetto/Chrome trace (one process track
    per OS process) and the self times as folded stacks."""
    from repro.obs.spans import Span, SpanProfiler, folded_to_lines

    out_dir.mkdir(parents=True, exist_ok=True)
    span_sets = list(span_sets)
    epoch = min((s[1] for _, spans in span_sets for s in spans), default=0)
    slices: List[Dict] = []
    for pid, spans in span_sets:
        profiler = SpanProfiler()
        profiler.epoch_ns = epoch
        profiler.spans = [
            Span(leaf(path), layer_of(path), tuple(path.split(";")), start, end, {})
            for path, start, end in spans
        ]
        slices.extend(profiler.to_perfetto_slices(pid=pid, tid=1))
    trace_path = out_dir / f"{stem}.trace.json"
    trace_path.write_text(json.dumps({"traceEvents": slices}))
    folded_path = out_dir / f"{stem}.folded"
    folded = {path: int(ns) for path, ns in merged.self_ns.items()}
    folded_path.write_text("\n".join(folded_to_lines(folded)) + "\n")
    return [trace_path, folded_path]
