"""The benchmark's own tests, at the tiny scale.

Run with ``python -m pytest expbench/tests`` from the repository root.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
RUN = ROOT / "expbench" / "run.py"
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def run_bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(RUN), *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=300,
    )


def result_of(proc: subprocess.CompletedProcess) -> dict:
    return json.loads(proc.stdout.strip().splitlines()[-1])


def printed(proc: subprocess.CompletedProcess, name: str) -> float:
    for line in proc.stdout.splitlines():
        fields = line.split()
        if fields and fields[0] == name:
            return float(fields[1])
    raise AssertionError(f"{name} not printed")


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("trace", ["0", "1"])
def test_every_metric_is_emitted_with_its_unit(workload, trace, tmp_path):
    proc = run_bench(
        "--workload", workload, "--seed", "3", "--seconds", "0.2",
        "--trace", trace, "--scale", "tiny", "--out-dir", str(tmp_path),
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    result = result_of(proc)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = SPEC["per_layer"] if trace == "1" else SPEC["end_to_end"]
    assert {n: m["unit"] for n, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in declared
    }
    for metric in declared:
        assert f"{metric['name']} " in proc.stdout
    assert printed(proc, "error_rate") == 0.0
    printed(proc, "paper_err_pp")
    if trace == "1":
        assert (tmp_path / f"{workload}-seed3.trace.json").is_file()
        assert (tmp_path / f"{workload}-seed3.folded").is_file()
    else:
        assert all(m["value"] > 0 for m in result["metrics"].values())


@pytest.fixture(scope="module")
def tiny_expected(tmp_path_factory) -> Path:
    path = tmp_path_factory.mktemp("expected") / "expected.json"
    proc = run_bench(
        "--workload", "spec_pairs", "--seed", "7", "--scale", "tiny",
        "--make-expected", "--expected", str(path),
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    return path


@pytest.mark.parametrize("workload", ["spec_pairs", "defense_matrix"])
def test_expected_outputs_pass_and_a_doctored_one_fails(workload, tiny_expected, tmp_path):
    args = ("--workload", workload, "--seed", "7", "--seconds", "0.2", "--scale", "tiny")
    good = run_bench(*args, "--expected", str(tiny_expected))
    assert good.returncode == 0, good.stdout + good.stderr
    assert "checked against expected outputs" in good.stdout

    doctored = json.loads(tiny_expected.read_text())
    outputs = doctored["workloads"][workload]["outputs"]
    label = sorted(outputs)[0]
    if workload == "spec_pairs":
        outputs[label]["timecache"]["cycles"] += 1
    else:
        outputs[label]["n_neg"] += 1
    path = tmp_path / "doctored.json"
    path.write_text(json.dumps(doctored))
    bad = run_bench(*args, "--expected", str(path))
    assert bad.returncode != 0
    result = result_of(bad)
    assert result["correct"] is False and result["failed"] >= 1
    assert printed(bad, "error_rate") > 0
    assert "CHECK FAILED" in bad.stdout


def test_a_retried_cell_fails_the_run(tmp_path, monkeypatch, capsys):
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from expbench import run as bench_run
    from repro.analysis.parallel import SweepJob

    claimed = tmp_path / "raised"
    run_cell = SweepJob.run

    def raise_once(self):
        # Workers are forked, so the one failure is claimed through a file.
        try:
            os.close(os.open(claimed, os.O_CREAT | os.O_EXCL))
        except FileExistsError:
            return run_cell(self)
        raise RuntimeError("injected cell failure")

    monkeypatch.setattr(SweepJob, "run", raise_once)
    status = bench_run.main([
        "--workload", "defense_matrix", "--seed", "3", "--seconds", "0.2",
        "--trace", "0", "--scale", "tiny",
    ])
    out = capsys.readouterr().out
    assert claimed.exists()
    assert status == 1
    assert "CHECK FAILED: pass 0: 1 cell retries" in out
    result = json.loads(out.strip().splitlines()[-1])
    assert result["correct"] is False and result["failed"] == 1
    error_rate = next(float(l.split()[1]) for l in out.splitlines() if l.startswith("error_rate"))
    assert error_rate > 0


def _traced(workload_name: str, tmp_path: Path):
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from expbench import layers, tracing
    from expbench import run as bench_run
    from expbench import workloads as wl

    workload = wl.WORKLOADS[workload_name](wl.SCALES["tiny"])
    workload.setup(3)
    args = argparse.Namespace(seed=3, seconds=0.2, out_dir=tmp_path)
    return bench_run.traced_run(args, workload, tracing, layers)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_layer_self_times_fit_in_the_traced_wall(workload, tmp_path):
    passes, metrics, merged, traced_wall, _ = _traced(workload, tmp_path)
    self_total = sum(merged.layer_self_s().values())
    jobs = passes[-1].info["jobs"]
    # the matrix's self times are worker time: up to jobs x wall
    assert 0 < self_total <= jobs * traced_wall
    if jobs == 1:
        assert self_total <= traced_wall
    assert metrics["analysis.busy_s"] <= jobs * traced_wall
    assert metrics["bench.trace_overhead"] > -1.0


def test_tracing_leaves_the_simulator_unpatched(tmp_path):
    _traced("spec_pairs", tmp_path)
    from repro.core.timecache import TimeCacheSystem
    from repro.cpu.cpu import HardwareContext

    assert not hasattr(HardwareContext.step, "__wrapped__")
    assert "__init__" in vars(TimeCacheSystem)
    assert not hasattr(TimeCacheSystem.access, "__wrapped__")


def test_fails_without_the_simulator_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(ROOT / "expbench", tmp_path / "expbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "expbench/run.py", "--workload", "spec_pairs",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
