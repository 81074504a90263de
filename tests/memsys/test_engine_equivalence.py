"""Differential fuzz: the fast engine must be bit-identical to the object one.

Each scenario replays the same seeded random trace through both engines and
asserts that every ``AccessResult`` (latency, level, first_access), every
context-switch cost, the full stats snapshot, and the final architectural
state (s-bits, Tc, valid bits, resident tags per cache) agree exactly.

Eleven scenarios x twenty seeds = 220 random traces, covering the defense
on and off, context switches, multi-core stores and coherence, SMT sibling
contexts, FTM comparison mode, prefetch, the fifo/random replacement
policies, limited-pointer sharer eviction, the DRAM-latency-on-first-access
hardening, narrow-timestamp rollover, and CAT way partitioning.
"""

import dataclasses

import pytest

from repro.common.config import scaled_experiment_config
from repro.common.rng import DeterministicRng
from repro.core import TimeCacheSystem
from repro.memsys import AccessKind

SEEDS = range(20)

KINDS = (
    AccessKind.LOAD,
    AccessKind.LOAD,
    AccessKind.LOAD,
    AccessKind.STORE,
    AccessKind.IFETCH,
)


def _replace_hierarchy(cfg, **changes):
    return dataclasses.replace(
        cfg, hierarchy=dataclasses.replace(cfg.hierarchy, **changes)
    )


def _with_replacement(cfg, policy):
    hier = cfg.hierarchy
    return dataclasses.replace(
        cfg,
        hierarchy=dataclasses.replace(
            hier,
            l1i=dataclasses.replace(hier.l1i, replacement=policy),
            l1d=dataclasses.replace(hier.l1d, replacement=policy),
            llc=dataclasses.replace(hier.llc, replacement=policy),
        ),
    )


# name -> (config factory taking engine + seed, contexts, switches?)
def _base(engine, seed):
    return scaled_experiment_config(seed=seed, engine=engine)


SCENARIOS = {
    "baseline_off": (lambda e, s: _base(e, s).baseline(), 1, False),
    "tc_on": (_base, 1, False),
    "tc_on_switches": (_base, 1, True),
    "two_cores_stores": (
        lambda e, s: scaled_experiment_config(num_cores=2, seed=s, engine=e),
        2,
        True,
    ),
    "smt_siblings": (
        lambda e, s: _replace_hierarchy(_base(e, s), threads_per_core=2),
        2,
        True,
    ),
    "ftm_mode": (
        lambda e, s: scaled_experiment_config(
            num_cores=2, seed=s, engine=e
        ).with_timecache(enabled=False, ftm_mode=True),
        2,
        True,
    ),
    "prefetch_fifo": (
        lambda e, s: _with_replacement(
            _replace_hierarchy(_base(e, s), next_line_prefetch=True), "fifo"
        ),
        1,
        False,
    ),
    "random_max_sharers": (
        lambda e, s: _with_replacement(
            scaled_experiment_config(num_cores=2, seed=s, engine=e), "random"
        ).with_timecache(max_sharers=1),
        2,
        True,
    ),
    "dram_first_access": (
        lambda e, s: _base(e, s).with_timecache(
            dram_latency_on_first_access=True
        ),
        1,
        False,
    ),
    "narrow_timestamp_rollover": (
        lambda e, s: _base(e, s).with_timecache(timestamp_bits=8),
        1,
        True,
    ),
    "cat_partition": (lambda e, s: _base(e, s).with_partitioning(2), 1, True),
}


def _run_trace(
    config,
    seed,
    contexts,
    switches,
    n=500,
    pool=192,
    traced=False,
    batched=False,
    kinds=KINDS,
    stride=1,
):
    """Drive one system with a seeded random trace; return observables.

    With ``traced`` an obs Tracer is attached for the whole trace and the
    emitted event stream comes back as the fourth observable — on the fast
    engine the listener forces every access through the event-emitting
    slow routes, so this also fuzzes those against the object model.

    With ``batched`` the *identical* (ctx, addr, kind, now) stream is
    issued through ``access_batch`` in randomly sized same-context
    chunks (pinned issue times via ``nows``), with context switches as
    batch boundaries — the split sizes come from a separate rng so the
    trace itself is unchanged.
    """
    system = TimeCacheSystem(config)
    tracer = ring = None
    if traced:
        from repro.obs import RingBufferSink, Tracer

        ring = RingBufferSink()
        tracer = Tracer(ring)
        tracer.attach(system)
    rng = DeterministicRng(seed * 7919 + 13)
    events = []
    now = 0
    task_of_ctx = {ctx: ctx for ctx in range(contexts)}
    next_task = contexts
    split_rng = DeterministicRng(seed * 104_729 + 7)
    pending = []  # same-context (addr, kind, now) accesses not yet issued
    pending_ctx = None
    limit = split_rng.randint(1, 120)

    def flush_pending():
        nonlocal limit
        if not pending:
            return
        outcome = system.access_batch(
            pending_ctx,
            [p[0] for p in pending],
            [p[1] for p in pending],
            nows=[p[2] for p in pending],
        )
        for result in outcome.results:
            events.append((result.latency, result.level, result.first_access))
        pending.clear()
        limit = split_rng.randint(1, 120)

    for i in range(n):
        now += rng.randint(1, 50)
        ctx = rng.randint(0, contexts - 1) if contexts > 1 else 0
        addr = (rng.randint(0, pool - 1) * stride) << 6
        kind = kinds[rng.randint(0, len(kinds) - 1)]
        if batched:
            if pending and (pending_ctx != ctx or len(pending) >= limit):
                flush_pending()
            pending_ctx = ctx
            pending.append((addr, kind, now))
        else:
            result = system.access(ctx, addr, kind, now)
            events.append((result.latency, result.level, result.first_access))
        if switches and i % 97 == 96:
            flush_pending()
            ctx = rng.randint(0, contexts - 1) if contexts > 1 else 0
            if rng.randint(0, 2) == 0:
                next_task += 1
            incoming = rng.randint(0, next_task - 1)
            cost = system.context_switch(task_of_ctx[ctx], incoming, ctx, now)
            task_of_ctx[ctx] = incoming
            events.append(
                (
                    "switch",
                    cost.dma_cycles,
                    cost.comparator_cycles,
                    cost.rollover_reset,
                )
            )
    flush_pending()
    final = {}
    for cache in system.hierarchy.all_caches():
        final[cache.name] = (
            cache.sbits.tolist(),
            cache.tc.tolist(),
            cache.valid.tolist(),
            sorted(cache.resident_line_addrs()),
        )
    trace = None
    if traced:
        tracer.detach()
        trace = [
            (e.kind, e.src, e.ctx, e.ts, tuple(sorted(e.args.items())))
            for e in ring.events
        ]
        assert ring.dropped == 0
    return events, system.stats_snapshot(), final, trace


@pytest.mark.parametrize("scenario", sorted(SCENARIOS))
@pytest.mark.parametrize("seed", SEEDS)
def test_engines_agree(scenario, seed):
    make_config, contexts, switches = SCENARIOS[scenario]
    obj = _run_trace(
        make_config("object", seed), seed, contexts, switches
    )
    fast = _run_trace(
        make_config("fast", seed), seed, contexts, switches
    )
    assert obj[0] == fast[0], f"{scenario}: access/switch streams diverge"
    assert obj[1] == fast[1], f"{scenario}: stats snapshots diverge"
    assert obj[2] == fast[2], f"{scenario}: final cache state diverges"


@pytest.mark.parametrize("scenario", sorted(SCENARIOS))
@pytest.mark.parametrize("seed", range(10))
def test_batched_path_matches_scalar(scenario, seed):
    """``access_batch`` must be bit-identical to the scalar loop — access
    results, switch costs, stats, and final s-bits/Tc — on both engines,
    with batches split at random sizes and every context switch."""
    make_config, contexts, switches = SCENARIOS[scenario]
    scalar = _run_trace(make_config("fast", seed), seed, contexts, switches)
    batched = _run_trace(
        make_config("fast", seed), seed, contexts, switches, batched=True
    )
    obj_batched = _run_trace(
        make_config("object", seed), seed, contexts, switches, batched=True
    )
    assert batched[0] == scalar[0], f"{scenario}: batched results diverge"
    assert batched[1] == scalar[1], f"{scenario}: batched stats diverge"
    assert batched[2] == scalar[2], f"{scenario}: batched final state diverges"
    assert obj_batched[0] == scalar[0], f"{scenario}: object batch diverges"
    assert obj_batched[1] == scalar[1], f"{scenario}: object batch stats"
    assert obj_batched[2] == scalar[2], f"{scenario}: object batch state"


#: adversarial stream shapes for the vectorized miss-resolution kernels:
#: every entry is deliberately dominated by the events the batched fast
#: path used to fall back to scalar for (fills, evictions, stores) —
#: name -> (config factory, contexts, switches, _run_trace overrides)
STRESS_SCENARIOS = {
    # pool far beyond LLC capacity: nearly every access misses and the
    # fill/evict kernels run back to back through every level
    "eviction_heavy": (_base, 1, True, {"pool": 1500}),
    # every line lands in the same set (stride covers any power-of-two
    # set count up to 64): chained same-set victim selection
    "conflict_heavy": (_base, 1, False, {"pool": 48, "stride": 64}),
    # mostly stores, two cores with switches: the batched store/dirty
    # path plus store-probes on shared lines
    "store_heavy": (
        lambda e, s: scaled_experiment_config(num_cores=2, seed=s, engine=e),
        2,
        True,
        {
            "pool": 96,
            "kinds": (
                AccessKind.STORE,
                AccessKind.STORE,
                AccessKind.STORE,
                AccessKind.LOAD,
                AccessKind.IFETCH,
            ),
        },
    ),
}


@pytest.mark.parametrize("scenario", sorted(STRESS_SCENARIOS))
@pytest.mark.parametrize("seed", range(8))
def test_kernel_stress_streams(scenario, seed):
    """Eviction-heavy, conflict-heavy, and store-heavy streams hammer the
    vectorized fill/evict/store kernels; the batched fast path must stay
    bit-identical to the scalar loop and to the object engine."""
    make_config, contexts, switches, kw = STRESS_SCENARIOS[scenario]
    scalar = _run_trace(
        make_config("fast", seed), seed, contexts, switches, **kw
    )
    batched = _run_trace(
        make_config("fast", seed), seed, contexts, switches, batched=True, **kw
    )
    obj_batched = _run_trace(
        make_config("object", seed),
        seed,
        contexts,
        switches,
        batched=True,
        **kw,
    )
    assert batched[0] == scalar[0], f"{scenario}: batched results diverge"
    assert batched[1] == scalar[1], f"{scenario}: batched stats diverge"
    assert batched[2] == scalar[2], f"{scenario}: batched final state diverges"
    assert obj_batched[0] == scalar[0], f"{scenario}: object batch diverges"
    assert obj_batched[1] == scalar[1], f"{scenario}: object batch stats"
    assert obj_batched[2] == scalar[2], f"{scenario}: object batch state"


#: scenarios re-fuzzed with a tracer attached (subset: traced runs take the
#: fast engine's slow routes, so the cheap scenarios cover the event paths)
TRACED_SCENARIOS = (
    "baseline_off",
    "tc_on_switches",
    "two_cores_stores",
    "random_max_sharers",
    "narrow_timestamp_rollover",
)


@pytest.mark.parametrize("scenario", TRACED_SCENARIOS)
@pytest.mark.parametrize("seed", range(5))
def test_engines_emit_identical_event_streams(scenario, seed):
    """Both engines must produce the *same trace*, event for event —
    kind, source cache, context, timestamp, and payload, in order."""
    make_config, contexts, switches = SCENARIOS[scenario]
    obj = _run_trace(
        make_config("object", seed), seed, contexts, switches, traced=True
    )
    fast = _run_trace(
        make_config("fast", seed), seed, contexts, switches, traced=True
    )
    assert obj[3] == fast[3], f"{scenario}: trace event streams diverge"
    assert obj[0] == fast[0], f"{scenario}: access/switch streams diverge"
    assert obj[1] == fast[1], f"{scenario}: stats snapshots diverge"
    assert obj[2] == fast[2], f"{scenario}: final cache state diverges"


@pytest.mark.parametrize("scenario", TRACED_SCENARIOS)
@pytest.mark.parametrize("seed", range(3))
def test_batched_traced_event_streams(scenario, seed):
    """With a tracer attached the batched path (which then takes the
    scalar reference route) must emit the identical event stream."""
    make_config, contexts, switches = SCENARIOS[scenario]
    scalar = _run_trace(
        make_config("fast", seed), seed, contexts, switches, traced=True
    )
    batched = _run_trace(
        make_config("fast", seed),
        seed,
        contexts,
        switches,
        traced=True,
        batched=True,
    )
    assert batched[3] == scalar[3], f"{scenario}: traced streams diverge"
    assert batched[0] == scalar[0], f"{scenario}: batched results diverge"
    assert batched[1] == scalar[1], f"{scenario}: batched stats diverge"
    assert batched[2] == scalar[2], f"{scenario}: batched state diverges"


def test_fast_engine_rejects_unsupported_policy():
    from repro.common.config import ConfigError

    config = _with_replacement(
        scaled_experiment_config(engine="fast"), "tree-plru"
    )
    with pytest.raises(ConfigError, match="tree-plru"):
        TimeCacheSystem(config)


# ---------------------------------------------------------------------------
# the defense zoo: every registered defense fuzzed reference-vs-fast
# ---------------------------------------------------------------------------
from repro.defenses import defense_names  # noqa: E402


def _defense_config(name, engine, seed):
    """Each defense on the same two-core machine, via its own
    ``configure`` transform — exactly how a tournament cell builds it."""
    from repro.defenses import get_defense

    return get_defense(name).configure(
        scaled_experiment_config(num_cores=2, seed=seed, engine=engine)
    )


@pytest.mark.parametrize("defense", defense_names())
@pytest.mark.parametrize("seed", range(8))
def test_defense_engines_agree(defense, seed):
    """Under every registered defense the fast engine must stay
    bit-identical to the object one — access results, switch costs
    (including the defense's own contribution), stats, final state."""
    obj = _run_trace(
        _defense_config(defense, "object", seed), seed, 2, True
    )
    fast = _run_trace(
        _defense_config(defense, "fast", seed), seed, 2, True
    )
    assert obj[0] == fast[0], f"{defense}: access/switch streams diverge"
    assert obj[1] == fast[1], f"{defense}: stats snapshots diverge"
    assert obj[2] == fast[2], f"{defense}: final cache state diverges"


@pytest.mark.parametrize("defense", defense_names())
@pytest.mark.parametrize("seed", range(4))
def test_defense_batched_matches_scalar(defense, seed):
    """``access_batch`` under each defense — whether it runs the
    in-kernel batched path (timecache, copy_on_access) or the announced
    scalar fallback (selective_flush's listeners) — must match the
    scalar loop on both engines."""
    scalar = _run_trace(_defense_config(defense, "fast", seed), seed, 2, True)
    batched = _run_trace(
        _defense_config(defense, "fast", seed), seed, 2, True, batched=True
    )
    obj_batched = _run_trace(
        _defense_config(defense, "object", seed), seed, 2, True, batched=True
    )
    assert batched[0] == scalar[0], f"{defense}: batched results diverge"
    assert batched[1] == scalar[1], f"{defense}: batched stats diverge"
    assert batched[2] == scalar[2], f"{defense}: batched final state diverges"
    assert obj_batched[0] == scalar[0], f"{defense}: object batch diverges"
    assert obj_batched[1] == scalar[1], f"{defense}: object batch stats"
    assert obj_batched[2] == scalar[2], f"{defense}: object batch state"


@pytest.mark.parametrize("defense", defense_names())
@pytest.mark.parametrize("seed", range(3))
def test_defense_traced_event_streams(defense, seed):
    """Both engines must emit the identical trace under each defense —
    including the flush events a flushing defense issues at switches."""
    obj = _run_trace(
        _defense_config(defense, "object", seed), seed, 2, True, traced=True
    )
    fast = _run_trace(
        _defense_config(defense, "fast", seed), seed, 2, True, traced=True
    )
    assert obj[3] == fast[3], f"{defense}: trace event streams diverge"
    assert obj[0] == fast[0], f"{defense}: access/switch streams diverge"
    assert obj[1] == fast[1], f"{defense}: stats snapshots diverge"
    assert obj[2] == fast[2], f"{defense}: final cache state diverges"
