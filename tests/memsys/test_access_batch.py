"""Focused ``access_batch`` tests: boundary straddling and API contract.

The differential fuzz in ``test_engine_equivalence.py`` covers random
traces; here we pin down the *deliberately awkward* cases — partial
batches that straddle flushes, capacity evictions, and context switches —
plus the argument-validation contract, on both engines, and the fast
engine's choice between its kernels and the scalar reference loop.
"""

import pytest

from repro.common.config import scaled_experiment_config
from repro.common.errors import SimulationError
from repro.core import TimeCacheSystem
from repro.memsys import AccessKind

LINE = 64
LOAD = AccessKind.LOAD
STORE = AccessKind.STORE
IFETCH = AccessKind.IFETCH


def _config(engine, **tc):
    cfg = scaled_experiment_config(seed=3, engine=engine)
    if tc:
        cfg = cfg.with_timecache(**tc)
    return cfg


def _snapshot(system):
    final = {}
    for cache in system.hierarchy.all_caches():
        final[cache.name] = (
            cache.sbits.tolist(),
            cache.tc.tolist(),
            cache.valid.tolist(),
            sorted(cache.resident_line_addrs()),
        )
    return final


def _observe(results):
    return [(r.latency, r.level, r.first_access) for r in results]


def _run_scalar(system, ctx, addrs, kinds, now, advance=1):
    out = []
    cursor = now
    for addr, kind in zip(addrs, kinds):
        result = system.access(ctx, addr, kind, cursor)
        cursor += advance + result.latency
        out.append(result)
    return out, cursor


@pytest.mark.parametrize("engine", ["object", "fast"])
@pytest.mark.parametrize("tc_enabled", [False, True])
def test_eviction_straddling_batch_matches_scalar(engine, tc_enabled):
    """One big batch touching far more lines than the caches hold forces
    fills and evictions mid-batch; results and state must match the
    scalar loop exactly."""
    # 600 distinct lines, revisited, overflow every level of the scaled
    # config's hierarchy, so the vectorized path repeatedly falls back.
    addrs = [(i * 37 % 600) * LINE for i in range(2000)]
    kinds = [LOAD if i % 5 else IFETCH for i in range(2000)]
    tc = {} if tc_enabled else {"enabled": False}
    batched = TimeCacheSystem(_config(engine, **tc))
    outcome = batched.access_batch(0, addrs, kinds, now=0, advance=1)
    scalar = TimeCacheSystem(_config(engine, **tc))
    expected, cursor = _run_scalar(scalar, 0, addrs, kinds, 0)
    assert _observe(outcome.results) == _observe(expected)
    assert outcome.now == cursor
    assert _snapshot(batched) == _snapshot(scalar)
    assert batched.stats_snapshot() == scalar.stats_snapshot()


@pytest.mark.parametrize("engine", ["object", "fast"])
def test_flush_boundary_between_batches(engine):
    """Flushes between partial batches must behave exactly like flushes
    between scalar accesses (invalidation, then first-access refills)."""
    addrs = [i * LINE for i in range(48)]
    batched = TimeCacheSystem(_config(engine))
    scalar = TimeCacheSystem(_config(engine))

    first = batched.access_batch(0, addrs, LOAD, now=0, advance=1)
    ref_first, cursor = _run_scalar(scalar, 0, addrs, [LOAD] * 48, 0)
    for addr in addrs[::3]:
        batched.flush(0, addr, first.now)
        scalar.flush(0, addr, cursor)
    second = batched.access_batch(0, addrs, LOAD, now=first.now, advance=1)
    ref_second, _ = _run_scalar(scalar, 0, addrs, [LOAD] * 48, cursor)

    assert _observe(first.results) == _observe(ref_first)
    assert _observe(second.results) == _observe(ref_second)
    # The flushed lines leave L1 and miss again; the untouched lines in
    # between still hit there.
    assert all(r.level != "L1" for r in second.results[::3])
    assert all(r.level == "L1" for r in second.results[1::3])
    assert _snapshot(batched) == _snapshot(scalar)


@pytest.mark.parametrize("engine", ["object", "fast"])
def test_context_switch_between_batches(engine):
    """A context switch between partial batches: the incoming task's
    s-bits get comparator-repaired, so re-accesses slow down identically
    on both paths."""
    addrs = [i * LINE for i in range(40)]
    batched = TimeCacheSystem(_config(engine))
    scalar = TimeCacheSystem(_config(engine))

    b1 = batched.access_batch(0, addrs, LOAD, now=0, advance=1)
    _, cursor = _run_scalar(scalar, 0, addrs, [LOAD] * 40, 0)
    cost_b = batched.context_switch(0, 1, 0, b1.now)
    cost_s = scalar.context_switch(0, 1, 0, cursor)
    assert (cost_b.dma_cycles, cost_b.comparator_cycles) == (
        cost_s.dma_cycles,
        cost_s.comparator_cycles,
    )
    b2 = batched.access_batch(0, addrs, LOAD, now=b1.now, advance=1)
    ref2, _ = _run_scalar(scalar, 0, addrs, [LOAD] * 40, cursor)
    assert _observe(b2.results) == _observe(ref2)
    # New task, no saved s-bits: every re-access is a first access again.
    assert all(r.first_access for r in b2.results)
    assert _snapshot(batched) == _snapshot(scalar)


@pytest.mark.parametrize("engine", ["object", "fast"])
def test_store_heavy_and_mixed_kind_batches(engine):
    """Uniform-store batches (a permanent fallback on the fast engine)
    and interleaved load/store/ifetch batches both match the scalar
    loop."""
    addrs = [(i % 37) * LINE for i in range(150)]
    stores = TimeCacheSystem(_config(engine))
    out = stores.access_batch(0, addrs, STORE, now=5, advance=1)
    ref_sys = TimeCacheSystem(_config(engine))
    ref, cursor = _run_scalar(ref_sys, 0, addrs, [STORE] * 150, 5)
    assert _observe(out.results) == _observe(ref)
    assert out.now == cursor
    assert _snapshot(stores) == _snapshot(ref_sys)

    kinds = [(LOAD, STORE, IFETCH)[i % 3] for i in range(150)]
    mixed = TimeCacheSystem(_config(engine))
    out2 = mixed.access_batch(0, addrs, kinds, now=5, advance=1)
    ref_sys2 = TimeCacheSystem(_config(engine))
    ref2, cursor2 = _run_scalar(ref_sys2, 0, addrs, kinds, 5)
    assert _observe(out2.results) == _observe(ref2)
    assert out2.now == cursor2
    assert _snapshot(mixed) == _snapshot(ref_sys2)


@pytest.mark.parametrize("engine", ["object", "fast"])
def test_small_batch_and_empty_batch(engine):
    """Batches below the fast engine's vectorization threshold (and the
    empty batch) still go through the API and match the scalar loop."""
    system = TimeCacheSystem(_config(engine))
    empty = system.access_batch(0, [], LOAD, now=9)
    assert empty.results == [] and empty.now == 9

    addrs = [i * LINE for i in range(5)]
    out = system.access_batch(0, addrs, LOAD, now=9, advance=1)
    ref_sys = TimeCacheSystem(_config(engine))
    _run_scalar(ref_sys, 0, [], [], 0)
    ref, cursor = _run_scalar(ref_sys, 0, addrs, [LOAD] * 5, 9)
    assert _observe(out.results) == _observe(ref)
    assert out.now == cursor


@pytest.mark.parametrize("engine", ["object", "fast"])
def test_advance_zero_charges_latency_only(engine):
    system = TimeCacheSystem(_config(engine))
    addrs = [i * LINE for i in range(40)]
    out = system.access_batch(0, addrs, LOAD, now=0, advance=0)
    assert out.now == sum(r.latency for r in out.results)


@pytest.mark.parametrize("engine", ["object", "fast"])
def test_batch_argument_validation(engine):
    """Bad arguments raise SimulationError on both engines before any
    access runs: a rejected batch leaves stats and clock untouched, both
    below the fast engine's vectorization threshold (8 accesses, the
    reference loop) and above it (64, the kernel route)."""
    for n in (8, 64):
        system = TimeCacheSystem(_config(engine))
        many = [i * LINE for i in range(n)]
        stats = system.stats_snapshot()
        now = system.clock.now

        def rejected(match, ctx=0, kinds=LOAD, **kwargs):
            with pytest.raises(SimulationError, match=match):
                system.access_batch(ctx, many, kinds, **kwargs)
            assert system.stats_snapshot() == stats, (n, match)
            assert system.clock.now == now, (n, match)

        rejected("advance", advance=-1)
        rejected("kinds has", kinds=[LOAD, STORE])
        rejected("non-decreasing", nows=list(range(n - 1, -1, -1)))
        rejected("nows has", nows=[0, 1, 2])
        rejected("one-dimensional", nows=[[t] for t in range(n)])
        rejected("out of range", ctx=99)


@pytest.mark.parametrize("engine", ["object", "fast"])
def test_nows_pins_issue_times(engine):
    """Explicit per-access issue times: results match issuing each access
    scalar at the same pinned time, and the returned now is the last
    pinned time."""
    addrs = [(i % 50) * LINE for i in range(200)]
    nows = [i * 3 for i in range(200)]
    system = TimeCacheSystem(_config(engine))
    out = system.access_batch(0, addrs, LOAD, nows=nows)
    ref_sys = TimeCacheSystem(_config(engine))
    ref = [ref_sys.access(0, a, LOAD, t) for a, t in zip(addrs, nows)]
    assert _observe(out.results) == _observe(ref)
    assert out.now == nows[-1]
    assert _snapshot(system) == _snapshot(ref_sys)


def test_fast_and_object_batches_agree_with_listeners():
    """An attached post-access listener forces the fast engine's batch
    through the scalar reference path; both engines must still agree."""
    seen = {"object": [], "fast": []}
    outs = {}
    for engine in ("object", "fast"):
        system = TimeCacheSystem(_config(engine))
        record = seen[engine].append
        system.hierarchy.post_access_listeners.append(
            lambda ctx, addr, kind, now, result, record=record: record(
                (ctx, addr, kind, now, result.latency)
            )
        )
        addrs = [(i * 11 % 90) * LINE for i in range(120)]
        outs[engine] = system.access_batch(0, addrs, LOAD, now=0, advance=1)
    assert seen["object"] == seen["fast"]
    assert _observe(outs["object"].results) == _observe(outs["fast"].results)
    assert outs["object"].now == outs["fast"].now


#: features the batched kernels do not model -> how a test turns one on
GATED = {
    "max_sharers": lambda cfg: cfg.with_timecache(max_sharers=1),
    "cat_partition": lambda cfg: cfg.with_partitioning(2),
    "cache_listeners": lambda cfg: cfg,  # an InvariantChecker, below
}


def _profiled_batch(engine, gate=None):
    from repro.obs.spans import PhaseAccumulator
    from repro.robustness.invariants import InvariantChecker

    addrs = [(i * 11 % 90) * LINE for i in range(128)]
    kinds = [LOAD if i % 5 else IFETCH for i in range(128)]
    cfg = _config(engine)
    if gate is not None:
        cfg = GATED[gate](cfg)
    system = TimeCacheSystem(cfg)
    if gate == "cache_listeners":
        InvariantChecker(system, check_on_access=False).attach()
    prof = system.hierarchy.kernel_profiler = PhaseAccumulator()
    out = system.access_batch(0, addrs, kinds, now=0, advance=1)
    observed = (
        _observe(out.results),
        out.now,
        system.stats_snapshot(),
        _snapshot(system),
    )
    return prof, observed, len(addrs)


@pytest.mark.parametrize("gate", sorted(GATED))
def test_gated_batch_runs_the_reference_loop(gate):
    """A batch under a feature the kernels do not model runs the scalar
    reference loop whole — no kernel window, every access scalar — and
    matches the object engine exactly."""
    prof, fast, n = _profiled_batch("fast", gate)
    assert prof.windows == prof.batch_accesses == 0
    assert prof.scalar_accesses == n
    assert fast == _profiled_batch("object", gate)[1]


def test_default_batch_takes_the_kernel():
    prof, fast, _ = _profiled_batch("fast")
    assert prof.windows > 0
    assert fast == _profiled_batch("object")[1]


@pytest.mark.parametrize("engine", ["object", "fast"])
def test_expired_batch_deadline_raises_cooperatively(engine):
    """An armed (and already expired) ``batch_deadline`` interrupts a
    batched run on both engines instead of letting it finish — the seam
    the kernel watchdog arms so one huge AccessRun cannot overshoot its
    wall-clock budget (satellite of the supervision PR)."""
    import time

    from repro.common.errors import SimulationTimeout

    system = TimeCacheSystem(_config(engine))
    hierarchy = system.hierarchy
    addrs = [i * LINE for i in range(256)]
    hierarchy.batch_deadline = time.monotonic() - 1.0
    with pytest.raises(SimulationTimeout, match="batched access run"):
        system.access_batch(0, addrs, LOAD)
    with pytest.raises(SimulationTimeout):
        system.access_batch(0, addrs, LOAD, nows=list(range(256)))
    # disarming restores normal execution on the same hierarchy
    hierarchy.batch_deadline = None
    out = system.access_batch(0, addrs, LOAD)
    assert len(out.results) == len(addrs)


# ---------------------------------------------------------------------------
# Adversarial window shapes for the vectorized miss-resolution kernels
# ---------------------------------------------------------------------------


def _assert_batch_matches_scalar(engine, addrs, kinds, advance=1, tc=None):
    tc = tc or {}
    batched = TimeCacheSystem(_config(engine, **tc))
    outcome = batched.access_batch(0, addrs, kinds, now=0, advance=advance)
    scalar = TimeCacheSystem(_config(engine, **tc))
    if isinstance(kinds, AccessKind):
        kinds = [kinds] * len(addrs)
    expected, cursor = _run_scalar(scalar, 0, addrs, kinds, 0, advance)
    assert _observe(outcome.results) == _observe(expected)
    assert outcome.now == cursor
    assert _snapshot(batched) == _snapshot(scalar)
    assert batched.stats_snapshot() == scalar.stats_snapshot()
    return batched, scalar


@pytest.mark.parametrize("engine", ["object", "fast"])
@pytest.mark.parametrize("tc_enabled", [False, True])
def test_all_miss_window_matches_scalar(engine, tc_enabled):
    """A window of nothing but cold misses — no simple hit anywhere — must
    retire through the fill kernels bit-identically to the scalar loop."""
    addrs = [i * LINE for i in range(1500)]
    tc = {} if tc_enabled else {"enabled": False}
    _assert_batch_matches_scalar(engine, addrs, LOAD, tc=tc)


@pytest.mark.parametrize("engine", ["object", "fast"])
def test_same_set_conflict_storm(engine):
    """Every access maps to one cache set (stride covers any power-of-two
    set count up to 64): chained same-set victim selections inside a
    single window must pick the exact victims the in-order loop would."""
    addrs = [((i * 13 % 40) * 64) * LINE for i in range(1200)]
    kinds = [LOAD if i % 7 else IFETCH for i in range(1200)]
    _assert_batch_matches_scalar(engine, addrs, kinds)


@pytest.mark.parametrize("engine", ["object", "fast"])
def test_window_boundary_evictions(engine, monkeypatch):
    """With the adaptive window clamped tiny, evictions land on every
    window boundary; re-entry state (etag mirrors, LRU stamps, s-bits)
    must carry across boundaries exactly."""
    from repro.memsys.fastengine import FastHierarchy

    monkeypatch.setattr(FastHierarchy, "_BATCH_WINDOW_MAX", 32)
    addrs = [(i * 37 % 700) * LINE for i in range(1400)]
    _assert_batch_matches_scalar(engine, addrs, LOAD)


@pytest.mark.parametrize("engine", ["object", "fast"])
def test_stores_to_just_filled_lines(engine):
    """A store immediately following the load that filled its line (same
    window) must hit the freshly filled slot and set the dirty bit, not
    re-fill: the store path has to see in-window fills."""
    addrs, kinds = [], []
    for i in range(400):
        line = (i * 3 % 500) * LINE
        addrs += [line, line]
        kinds += [LOAD, STORE]
    _assert_batch_matches_scalar(engine, addrs, kinds)


@pytest.mark.parametrize("engine", ["object", "fast"])
def test_replan_invalidation_rescans_new_hazards(engine):
    """Regression: when a re-planned round invalidates a prior stale-miss
    conversion (``bad``), the same schedule change can make an *earlier*
    position newly stale — here the store at index 13 hits a line the
    round-two schedule evicts at index 12.  The cut must cover the
    earliest hazard of either kind, not just the invalidated conversion
    (shrunk from a milc profile stream that raised KeyError in apply)."""
    import dataclasses

    from tests.conftest import tiny_config

    lines = [
        2097237, 2097205, 2097225, 2097157, 2097165, 2097161, 2097225,
        2097233, 2097393, 2097237, 2097177, 2097253, 2097157, 2097393,
        2097177, 2097273, 2097233, 2097218, 2097199, 2097200, 2097394,
        65558, 2097165, 2097274, 2097204, 2097163, 2097260, 524295,
        2097394, 2097394, 2097219, 2097253,
    ]
    codes = "LSLSLLSSLSLLLSLLLLSLLILLLLLILSLL"
    addrs = [line * LINE for line in lines]
    kinds = [{"L": LOAD, "S": STORE, "I": IFETCH}[c] for c in codes]
    cfg = tiny_config()
    cfg = dataclasses.replace(
        cfg, hierarchy=dataclasses.replace(cfg.hierarchy, engine=engine)
    )
    batched = TimeCacheSystem(cfg)
    outcome = batched.access_batch(0, addrs, kinds, now=0, advance=1)
    scalar = TimeCacheSystem(cfg)
    expected, cursor = _run_scalar(scalar, 0, addrs, kinds, 0, 1)
    assert _observe(outcome.results) == _observe(expected)
    assert outcome.now == cursor
    assert _snapshot(batched) == _snapshot(scalar)
    assert batched.stats_snapshot() == scalar.stats_snapshot()


@pytest.mark.parametrize("engine", ["object", "fast"])
def test_repeated_line_touches_last_write_wins(engine):
    """Many touches of the same line inside one window: the replacement
    stamp scatter uses duplicate indices, and numpy's last-write-wins
    ordering must leave exactly the scalar loop's final stamp (regression
    for the duplicate-index scatter contract the LRU plan relies on)."""
    addrs = []
    for i in range(50):
        addrs += [0, LINE * 3, 0, 0, LINE * 3]
    addrs += [i * LINE for i in range(30)]  # then some churn
    batched, scalar = _assert_batch_matches_scalar(engine, addrs, LOAD)
    if engine == "fast":
        for cb, cs in zip(
            batched.hierarchy.all_caches(), scalar.hierarchy.all_caches()
        ):
            assert cb.last_flat.tolist() == cs.last_flat.tolist(), cb.name
            assert cb.filled_flat.tolist() == cs.filled_flat.tolist(), cb.name


@pytest.mark.parametrize("engine", ["object", "fast"])
def test_deadline_expiry_mid_kernel_leaves_consistent_state(
    engine, monkeypatch
):
    """A ``batch_deadline`` that expires *between kernel windows* must
    raise ``SimulationTimeout`` with the hierarchy at a state the scalar
    loop could have produced: some exact prefix of the stream applied,
    never a half-applied window."""
    import repro.memsys.hierarchy as hier_mod
    from repro.common.errors import SimulationTimeout

    addrs = [(i * 37 % 600) * LINE for i in range(1200)]
    system = TimeCacheSystem(_config(engine))

    # deterministic clock: the first deadline check passes, the second
    # one fails, so the run dies mid-batch no matter how fast the host
    # is (the object engine checks every 1024 accesses, the fast engine
    # between kernel windows)
    ticks = iter(range(10_000))
    monkeypatch.setattr(hier_mod.time, "monotonic", lambda: next(ticks))
    system.hierarchy.batch_deadline = 0.5
    with pytest.raises(SimulationTimeout, match="batched access run"):
        system.access_batch(0, addrs, LOAD, now=0, advance=1)
    monkeypatch.undo()
    state = _snapshot(system)

    # the surviving state must equal the scalar replay of some prefix
    scalar = TimeCacheSystem(_config(engine))
    prefixes = [_snapshot(scalar)]
    cursor = 0
    for addr in addrs:
        cursor += 1 + scalar.access(0, addr, LOAD, cursor).latency
        prefixes.append(_snapshot(scalar))
    assert state in prefixes


@pytest.mark.parametrize("engine", ["object", "fast"])
def test_unarmed_deadline_costs_nothing_and_changes_nothing(engine):
    """With no deadline armed (the default), batched results are
    untouched by the seam."""
    addrs = [(i * 7 % 80) * LINE for i in range(300)]
    armed = TimeCacheSystem(_config(engine))
    assert armed.hierarchy.batch_deadline is None
    plain = TimeCacheSystem(_config(engine))
    a = armed.access_batch(0, addrs, LOAD)
    b = plain.access_batch(0, addrs, LOAD)
    assert _observe(a.results) == _observe(b.results)
    assert _snapshot(armed) == _snapshot(plain)
