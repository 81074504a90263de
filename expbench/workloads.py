"""The benchmark's three workloads and how their outputs are checked.

A workload runs in *passes*.  One pass is the workload's whole unit
list once: every SPEC row, every PARSEC row, or one full defense
matrix.  A unit is one experiment (a row under both configurations) or
one matrix cell.  Every pass of a run repeats the same inputs, which
all derive from the run's ``--seed``.

Each unit yields a JSON-safe *outputs* dict of simulated results only
(no wall-clock fields) under a canonical label that does not name the
engine, so fast-engine outputs compare directly with object-engine ones.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

#: the seed whose outputs are committed in expected.json
DEFAULT_SEED = 7

#: Table II SPEC rows: miss-heavy, hit-heavy, then mixed pairs
SPEC_ROWS: Tuple[Tuple[str, str], ...] = (
    ("lbm", "lbm"),
    ("milc", "milc"),
    ("leslie3d", "leslie3d"),
    ("libquantum", "libquantum"),
    ("namd", "namd"),
    ("specrand", "specrand"),
    ("gromacs", "gromacs"),
    ("namd", "lbm"),
    ("leslie3d", "gobmk"),
    ("milc", "zeusmp"),
)
#: Table II PARSEC rows (2 threads on 2 cores)
PARSEC_ROWS: Tuple[str, ...] = (
    "fluidanimate",
    "raytrace",
    "blackscholes",
    "x264",
    "swaptions",
    "facesim",
)

#: cell fields that are host timing, not simulated output
MATRIX_TIMING_FIELDS = ("wall_s", "acc_per_s")
#: score fields drawn from the cell's bootstrap, whose seed derives from
#: the cell label (engine included)
BOOTSTRAP_FIELDS = ("ci_low", "ci_high", "leak")


@dataclass(frozen=True)
class Scale:
    """How big one pass is.  ``full`` is the benchmark, at the
    instructions per process/thread the ``repro`` driver's Table II runs
    use by default (``--instructions 150000``); ``tiny`` exists for the
    benchmark's own tests."""

    spec_rows: Tuple[Tuple[str, str], ...]
    spec_instructions: int
    parsec_rows: Tuple[str, ...]
    parsec_instructions: int
    #: None = every attack in the tournament registry
    matrix_attacks: Optional[Tuple[str, ...]]
    matrix_quick: bool
    matrix_boot: int
    setup_reps: int


SCALES: Dict[str, Scale] = {
    "full": Scale(
        spec_rows=SPEC_ROWS,
        spec_instructions=150_000,
        parsec_rows=PARSEC_ROWS,
        parsec_instructions=150_000,
        matrix_attacks=None,
        matrix_quick=False,
        matrix_boot=500,
        setup_reps=9,
    ),
    "tiny": Scale(
        spec_rows=SPEC_ROWS[:2],
        spec_instructions=4_000,
        parsec_rows=PARSEC_ROWS[:2],
        parsec_instructions=3_000,
        matrix_attacks=("flush_reload",),
        matrix_quick=True,
        matrix_boot=50,
        setup_reps=2,
    ),
}


@dataclass
class Unit:
    """One experiment or matrix cell as it ran."""

    label: str
    outputs: Optional[Dict] = None
    seconds: float = 0.0
    instructions: int = 0
    error: str = ""
    #: the worker's measurements (defense matrix cells only)
    payload: Optional[Dict] = None


@dataclass
class Pass:
    wall_s: float
    units: List[Unit]
    retries: int = 0
    #: extra figures the workload reports (paper_err_pp inputs, jobs)
    info: Dict = field(default_factory=dict)


def stats_digest(stats: Dict) -> str:
    return hashlib.sha256(json.dumps(stats, sort_keys=True).encode()).hexdigest()


def _run_outputs(run) -> Dict:
    return {
        "cycles": run.cycles,
        "instructions": run.instructions,
        "context_switches": run.context_switches,
        "stats_sha256": stats_digest(run.stats),
    }


def geomean(values: Sequence[float]) -> float:
    return math.exp(sum(math.log(v) for v in values) / len(values))


def jobs_for_host() -> int:
    """``nproc``: the CPUs this process may run on."""
    return len(os.sched_getaffinity(0))


# ----------------------------------------------------------------------
# workloads
# ----------------------------------------------------------------------
class Workload:
    name = ""

    def __init__(self, scale: Scale) -> None:
        self.scale = scale

    def params(self) -> Dict:
        raise NotImplementedError

    def setup(self, seed: int) -> None:
        """Everything a pass builds before its first simulated op."""
        raise NotImplementedError

    def run_pass(self, seed: int, engine: str = "fast") -> Pass:
        raise NotImplementedError

    def reference(self, seed: int, unit: Unit) -> Dict:
        """``unit``'s outputs recomputed untimed on the object engine."""
        raise NotImplementedError

    def paper_err_pp(self, passes: Sequence[Pass]) -> float:
        raise NotImplementedError

    def sim_kips(self, ran: Pass) -> float:
        """Thousand simulated instructions per host second in one pass."""
        return sum(u.instructions for u in ran.units if u.outputs) / ran.wall_s / 1000.0


class _ExperimentWorkload(Workload):
    """Table II rows run serially in this process, one experiment each."""

    cores = 1
    paper: Dict[str, Tuple[float, float, float]] = {}

    def rows(self) -> Sequence:
        raise NotImplementedError

    def instructions(self) -> int:
        raise NotImplementedError

    def label(self, row) -> str:
        raise NotImplementedError

    def experiment(self, config, row, seed: int):
        raise NotImplementedError

    def build(self, kernel, row, seed: int) -> None:
        raise NotImplementedError

    def config(self, seed: int, engine: str):
        from repro.common.config import scaled_experiment_config

        return scaled_experiment_config(num_cores=self.cores, seed=seed, engine=engine)

    def params(self) -> Dict:
        return {
            "rows": [self.label(row) for row in self.rows()],
            "instructions": self.instructions(),
            "cores": self.cores,
        }

    def setup(self, seed: int) -> None:
        from repro.os.kernel import Kernel

        config = self.config(seed, "fast")
        for row in self.rows():
            for variant in (config.baseline(), config):
                self.build(Kernel(variant), row, seed)

    def _unit(self, config, row, seed: int) -> Unit:
        unit = Unit(self.label(row))
        start = time.perf_counter()
        try:
            result = self.experiment(config, row, seed)
        except Exception as exc:  # noqa: BLE001 - counted, not fatal
            unit.error = f"{type(exc).__name__}: {exc}"
        else:
            unit.outputs = {
                "baseline": _run_outputs(result.baseline),
                "timecache": _run_outputs(result.timecache),
            }
            unit.instructions = result.baseline.instructions + result.timecache.instructions
        unit.seconds = time.perf_counter() - start
        return unit

    def run_pass(self, seed: int, engine: str = "fast") -> Pass:
        config = self.config(seed, engine)
        start = time.perf_counter()
        units = [self._unit(config, row, seed) for row in self.rows()]
        return Pass(time.perf_counter() - start, units, info={"jobs": 1})

    def reference(self, seed: int, unit: Unit) -> Dict:
        row = next(r for r in self.rows() if self.label(r) == unit.label)
        ref = self._unit(self.config(seed, "object"), row, seed)
        if ref.error:
            raise RuntimeError(ref.error)
        return ref.outputs

    def paper_err_pp(self, passes: Sequence[Pass]) -> float:
        """|geomean simulated TimeCache overhead - the paper's| over the
        rows, in percentage points (first pass; every pass is equal)."""
        units = [u for u in passes[0].units if u.outputs]
        if not units:
            return float("nan")
        sim = geomean(
            [u.outputs["timecache"]["cycles"] / u.outputs["baseline"]["cycles"] for u in units]
        )
        paper = geomean([self.paper[u.label][0] for u in units])
        return abs(sim - paper) * 100.0


class SpecPairs(_ExperimentWorkload):
    name = "spec_pairs"
    cores = 1

    @property
    def paper(self):
        from repro.workloads.mixes import PAPER_TABLE2_SPEC

        return PAPER_TABLE2_SPEC

    def rows(self):
        return self.scale.spec_rows

    def instructions(self) -> int:
        return self.scale.spec_instructions

    def label(self, row) -> str:
        from repro.workloads.mixes import pair_label

        return pair_label(*row)

    def experiment(self, config, row, seed: int):
        from repro.analysis import experiment

        return experiment.run_spec_pair_experiment(
            config, row[0], row[1], instructions=self.instructions(), seed=seed
        )

    def build(self, kernel, row, seed: int) -> None:
        from repro.workloads.spec import build_spec_pair

        build_spec_pair(kernel, row[0], row[1], self.instructions(), seed=seed)


class Parsec2Core(_ExperimentWorkload):
    name = "parsec_2core"
    cores = 2

    @property
    def paper(self):
        from repro.workloads.mixes import PAPER_TABLE2_PARSEC

        return PAPER_TABLE2_PARSEC

    def rows(self):
        return self.scale.parsec_rows

    def instructions(self) -> int:
        return self.scale.parsec_instructions

    def label(self, row) -> str:
        return row

    def experiment(self, config, row, seed: int):
        from repro.analysis import experiment

        return experiment.run_parsec_experiment(
            config, row, instructions_per_thread=self.instructions(), seed=seed
        )

    def build(self, kernel, row, seed: int) -> None:
        from repro.workloads.parsec import build_parsec_workload

        build_parsec_workload(kernel, row, self.instructions(), seed=seed)


def cell_outputs(cell: Dict) -> Dict:
    """A matrix cell's simulated fields: no timing, no engine name."""
    return {
        k: v
        for k, v in cell.items()
        if k not in MATRIX_TIMING_FIELDS and k not in ("engine", "label")
    }


class DefenseMatrix(Workload):
    name = "defense_matrix"

    def params(self) -> Dict:
        return {
            "attacks": list(self.scale.matrix_attacks or ()) or "all",
            "quick": self.scale.matrix_quick,
            "n_boot": self.scale.matrix_boot,
        }

    def _kwargs(self, seed: int) -> Dict:
        return dict(
            attacks=self.scale.matrix_attacks,
            seeds=(seed,),
            quick=self.scale.matrix_quick,
            n_boot=self.scale.matrix_boot,
        )

    def setup(self, seed: int) -> None:
        from repro.analysis import defense_matrix

        defense_matrix.matrix_jobs(**self._kwargs(seed))

    def run_pass(self, seed: int, engine: str = "fast") -> Pass:
        """One full matrix; ``engine`` is ignored, the matrix runs both."""
        from repro.analysis import defense_matrix
        from expbench.tracing import PAYLOAD_KEY

        retries = []
        jobs = jobs_for_host()
        start = time.perf_counter()
        outcome = defense_matrix.run_defense_matrix(
            jobs=jobs,
            on_event=lambda label, event: retries.append(label) if event == "retry" else None,
            **self._kwargs(seed),
        )
        wall = time.perf_counter() - start
        units: List[Unit] = []
        for label in outcome.labels:
            cell = outcome.cells.get(label)
            if cell is None:
                units.append(Unit(label, error="quarantined"))
                continue
            payload = cell.pop(PAYLOAD_KEY, None)
            unit = Unit(label, outputs=cell_outputs(cell), payload=payload)
            if payload is not None:
                unit.seconds = payload["busy_ns"] / 1e9
                unit.instructions = int(payload.get("counts", {}).get("sim.instructions", 0))
            units.append(unit)
        info = {"jobs": jobs}
        timecache = outcome.cells.get(defense_matrix.overhead_label("timecache", "fast"))
        if timecache is not None:
            info["timecache_slowdown"] = timecache["slowdown"]
        return Pass(wall, units, retries=len(retries), info=info)

    def sim_kips(self, ran: Pass) -> float:
        """Over the SPEC overhead cells only, per second of their busy time
        in the workers: their instruction counts are fixed, while the
        attack cells' vary with the seed and the pass wall carries the
        executor's scheduling."""
        cells = [u for u in ran.units if u.outputs and u.label.startswith("overhead|")]
        seconds = sum(u.seconds for u in cells)
        return sum(u.instructions for u in cells) / seconds / 1000.0 if seconds else 0.0

    def jobs(self, seed: int) -> Dict:
        from repro.analysis import defense_matrix

        return {job.label: job for job in defense_matrix.matrix_jobs(**self._kwargs(seed))}

    def object_cell(self, seed: int, label: str) -> Dict:
        """The object engine's outputs for matrix cell ``label``, whichever
        engine the label names.

        The tournament seeds each cell's bootstrap from its label, engine
        included, so a fast cell's interval fields come from a different
        resample stream than its object twin's.  The reference for a fast
        cell is therefore the object engine's latency populations scored
        under the fast cell's bootstrap seed, exactly as
        ``run_tournament_cell`` scores them.
        """
        from repro.analysis import defense_matrix, tournament
        from repro.analysis.parallel import derive_job_seed

        kind, defense, _ = label.split("|")
        if kind == "overhead":
            _, _, instructions, job_seed = self.jobs(seed)[label].args
            return cell_outputs(
                defense_matrix.run_overhead_cell(defense, "object", instructions, job_seed)
            )
        config = tournament.cell_config(kind, defense, "object", seed)
        neg, pos = tournament.ATTACKS[kind].collect(config, seed, self.scale.matrix_quick)
        score = tournament.score_populations(
            neg,
            pos,
            n_boot=self.scale.matrix_boot,
            seed=derive_job_seed(tournament.BOOT_SEED_ROOT, label),
        )
        return {"attack": kind, "defense": defense, "seeds": [seed], **score}

    def reference(self, seed: int, unit: Unit) -> Dict:
        return self.object_cell(seed, unit.label)

    def paper_err_pp(self, passes: Sequence[Pass]) -> float:
        """|simulated TimeCache slowdown on the overhead pair - the
        paper's Table II figure for that pair|, in percentage points."""
        from repro.analysis.defense_matrix import OVERHEAD_BENCH
        from repro.workloads.mixes import PAPER_TABLE2_SPEC, pair_label

        slowdown = passes[0].info.get("timecache_slowdown")
        if slowdown is None:
            return float("nan")
        paper = PAPER_TABLE2_SPEC[pair_label(OVERHEAD_BENCH, OVERHEAD_BENCH)][0]
        return abs(slowdown - paper) * 100.0


WORKLOADS: Dict[str, Callable[[Scale], Workload]] = {
    SpecPairs.name: SpecPairs,
    Parsec2Core.name: Parsec2Core,
    DefenseMatrix.name: DefenseMatrix,
}


# ----------------------------------------------------------------------
# output checks
# ----------------------------------------------------------------------
def make_expected(workload: Workload, seed: int) -> Dict:
    """The reference outputs of one workload, from the object engine
    (the oracle)."""
    if isinstance(workload, DefenseMatrix):
        outputs = {label: workload.object_cell(seed, label) for label in workload.jobs(seed)}
    else:
        ran = workload.run_pass(seed, engine="object")
        bad = [u.label for u in ran.units if u.error or u.outputs is None]
        if bad:
            raise RuntimeError(f"reference run failed for {bad}")
        outputs = {u.label: u.outputs for u in ran.units}
    return {"params": workload.params(), "outputs": outputs}


@dataclass
class CheckReport:
    attempted: int = 0
    failed: int = 0
    problems: List[str] = field(default_factory=list)
    mode: str = ""

    def fail(self, message: str, count: int = 1) -> None:
        self.failed += count
        if len(self.problems) < 20:
            self.problems.append(message)


def check(
    workload: Workload,
    seed: int,
    passes: Sequence[Pass],
    expected: Optional[Dict],
) -> CheckReport:
    """Check every unit of every pass.

    With the committed expected outputs for this seed and scale, every
    unit is compared against them.  Otherwise every pass must repeat the
    first, every fast cell of the matrix must equal its object twin, and
    one unit (chosen by the seed) is re-run untimed on the object engine.
    Errors, quarantined cells and cell retries count as failures too: a
    retried cell raised, crashed or hung before it succeeded.
    """
    report = CheckReport()
    entry = (expected or {}).get("workloads", {}).get(workload.name)
    use_expected = (
        expected is not None
        and expected.get("seed") == seed
        and entry is not None
        and entry.get("params") == json.loads(json.dumps(workload.params()))
    )
    report.mode = "expected outputs" if use_expected else "object-engine cross-check"
    first: Dict[str, Dict] = {}
    for number, ran in enumerate(passes):
        if ran.retries:
            report.attempted += ran.retries
            report.fail(f"pass {number}: {ran.retries} cell retries", count=ran.retries)
        for unit in ran.units:
            report.attempted += 1
            if unit.error or unit.outputs is None:
                report.fail(f"pass {number} {unit.label}: {unit.error or 'no output'}")
                continue
            if use_expected:
                want = entry["outputs"].get(unit.label)
            else:
                want = first.setdefault(unit.label, unit.outputs)
            if want != unit.outputs:
                report.fail(f"pass {number} {unit.label}: outputs differ from {report.mode}")
    if use_expected:
        return report
    for label, outputs in first.items():
        twin = first.get(label[: -len("|fast")] + "|object") if label.endswith("|fast") else None
        if twin is not None and _drop(twin, BOOTSTRAP_FIELDS) != _drop(outputs, BOOTSTRAP_FIELDS):
            report.fail(f"{label}: fast engine differs from its object twin")
    fast = [u for u in passes[0].units if u.outputs and not u.label.endswith("|object")]
    if not fast:
        return report
    unit = fast[seed % len(fast)]
    report.attempted += 1
    try:
        reference = workload.reference(seed, unit)
    except Exception as exc:  # noqa: BLE001 - counted
        report.fail(f"object reference for {unit.label} raised {type(exc).__name__}: {exc}")
        return report
    if reference != unit.outputs:
        report.fail(f"{unit.label}: fast engine differs from the object engine")
    return report


def _drop(outputs: Dict, fields: Sequence[str]) -> Dict:
    return {k: v for k, v in outputs.items() if k not in fields}


def load_expected(path) -> Optional[Dict]:
    try:
        with open(path) as handle:
            return json.load(handle)
    except FileNotFoundError:
        return None
