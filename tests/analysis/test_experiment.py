"""Tests for the experiment harness (small workloads, full pipeline)."""

import weakref

import pytest

from repro.analysis.comparison import compare_defenses
from repro.analysis.defense_matrix import run_overhead_cell
from repro.analysis.experiment import (
    _run_configured,
    run_parsec_experiment,
    run_spec_pair_experiment,
)
from repro.cpu.program import TraceProgram
from repro.workloads.parsec import build_parsec_workload
from repro.workloads.spec import build_spec_pair
from repro.analysis.tables import (
    render_figure_series,
    render_mpki_table,
    render_table2,
    summarize_overheads,
)

from tests.conftest import tiny_config


@pytest.fixture(scope="module")
def spec_result():
    return run_spec_pair_experiment(
        tiny_config(quantum=3_000), "namd", "namd", instructions=6_000
    )


@pytest.fixture(scope="module")
def parsec_result():
    return run_parsec_experiment(
        tiny_config(num_cores=2), "swaptions", instructions_per_thread=5_000
    )


class TestSpecExperiment:
    def test_runs_both_configurations(self, spec_result):
        assert spec_result.baseline.cycles > 0
        assert spec_result.timecache.cycles > 0
        assert spec_result.label == "2Xnamd"

    def test_identical_work_both_sides(self, spec_result):
        assert (
            spec_result.baseline.instructions
            == spec_result.timecache.instructions
        )

    def test_timecache_never_faster(self, spec_result):
        """Same instruction stream; the defense only adds delay."""
        assert spec_result.normalized_time >= 1.0

    def test_first_access_misses_only_under_timecache(self, spec_result):
        base_fa = sum(
            lvl.first_access_misses
            for lvl in spec_result.baseline.level_mpki.values()
        )
        tc_fa = sum(
            lvl.first_access_misses
            for lvl in spec_result.timecache.level_mpki.values()
        )
        assert base_fa == 0.0
        assert tc_fa > 0.0

    def test_mpki_increases_under_timecache(self, spec_result):
        assert spec_result.timecache.llc_mpki >= spec_result.baseline.llc_mpki

    def test_bookkeeping_is_small_share(self, spec_result):
        assert 0.0 <= spec_result.bookkeeping_fraction < 0.05


class TestParsecExperiment:
    def test_no_l1_first_accesses(self, parsec_result):
        tc = parsec_result.timecache.level_mpki
        assert tc["L1I"].first_access_misses == 0.0
        assert tc["L1D"].first_access_misses == 0.0

    def test_llc_first_accesses_exist(self, parsec_result):
        assert parsec_result.timecache.llc_first_access_mpki > 0.0

    def test_overhead_nonnegative(self, parsec_result):
        assert parsec_result.normalized_time >= 1.0


class TestRenderers:
    def test_table2_contains_rows_and_geomean(self, spec_result):
        text = render_table2([spec_result])
        assert "2Xnamd" in text
        assert "geomean" in text

    def test_table2_with_paper_columns(self, spec_result):
        text = render_table2(
            [spec_result], paper={"2Xnamd": (1.0108, 0.1623, 0.2181)}
        )
        assert "1.0108" in text

    def test_mpki_table(self, parsec_result):
        text = render_mpki_table([parsec_result])
        assert "LLC fa-MPKI" in text
        assert "swaptions" in text

    def test_figure_series(self):
        text = render_figure_series("Fig 10", [("2MB", 1.0113), ("4MB", 1.004)])
        assert "Fig 10" in text and "2MB" in text

    def test_summary_aggregates(self, spec_result):
        summary = summarize_overheads([spec_result])
        assert summary["geomean_normalized_time"] >= 1.0
        assert summary["max_overhead"] >= 0.0
        assert 0 <= summary["mean_bookkeeping_fraction"] < 1


class TestSharedStreams:
    """Every configuration of an experiment replays one drawn stream per
    process, and the streams are freed when the experiment returns."""

    @pytest.fixture
    def started(self, monkeypatch):
        """(id, weak reference) of every trace program started, per start.

        The table keeps every program alive until the experiment
        returns, so the ids name distinct programs."""
        starts = []
        start = TraceProgram.start

        def spy(program):
            starts.append((id(program), weakref.ref(program)))
            return start(program)

        monkeypatch.setattr(TraceProgram, "start", spy)
        return starts

    @pytest.mark.parametrize(
        "configs, run",
        [
            (2, lambda: run_spec_pair_experiment(tiny_config(), "namd", "lbm", 3_000)),
            (
                2,
                lambda: run_parsec_experiment(
                    tiny_config(num_cores=2), "swaptions", 3_000
                ),
            ),
            (2, lambda: run_overhead_cell("timecache", "object", 2_000, 7)),
            (3, lambda: compare_defenses(tiny_config(), "namd", "namd", 2_000)),
        ],
        ids=["spec_pair", "parsec", "overhead_cell", "compare_defenses"],
    )
    def test_one_stream_per_process_replayed_then_freed(
        self, started, configs, run
    ):
        run()
        assert len({key for key, _ in started}) == 2  # processes or threads
        assert len(started) == 2 * configs
        assert [ref() for _, ref in started] == [None] * len(started)

    @pytest.mark.parametrize(
        "config, experiment, build",
        [
            (
                tiny_config(quantum=3_000),
                lambda c: run_spec_pair_experiment(c, "namd", "gromacs", 4_000),
                lambda k: build_spec_pair(k, "namd", "gromacs", 4_000),
            ),
            (
                tiny_config(num_cores=2),
                lambda c: run_parsec_experiment(c, "x264", 3_000),
                lambda k: build_parsec_workload(k, "x264", 3_000),
            ),
        ],
        ids=["spec_pair", "parsec"],
    )
    def test_replayed_runs_match_runs_that_draw_their_own(
        self, config, experiment, build
    ):
        shared = experiment(config)
        for run, cfg in (
            (shared.baseline, config.baseline()),
            (shared.timecache, config),
        ):
            own = _run_configured(cfg, build)
            assert (run.cycles, run.stats) == (own.cycles, own.stats)
