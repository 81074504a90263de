"""The tracing-overhead benchmark and its <5% disabled-overhead gate."""

from repro.analysis.bench import (
    BENCHMARKS,
    ENGINE_AWARE,
    bench_hierarchy_access_traced,
)
from repro.obs.sinks import RingBufferSink
from repro.obs.tracer import Tracer
from repro.os.kernel import Kernel
from repro.robustness.campaign import campaign_config

#: the acceptance bound: a constructed-but-disabled tracer must not
#: slow the raw-access hot path by 5% or more
DISABLED_OVERHEAD_BOUND = 0.05


def test_traced_bench_is_registered():
    assert BENCHMARKS["hierarchy_access_traced"] is bench_hierarchy_access_traced
    assert "hierarchy_access_traced" in ENGINE_AWARE


def hot_path(kernel: Kernel) -> dict:
    """Everything a tracer can hook on a kernel's access and switch paths."""
    hierarchy = kernel.system.hierarchy
    return {
        "access": getattr(hierarchy.access, "__func__", hierarchy.access),
        "pre_access_listeners": list(hierarchy.pre_access_listeners),
        "post_access_listeners": list(hierarchy.post_access_listeners),
        "cache_listeners": [
            (cache.name, cache.event_listener, list(cache._event_listeners))
            for cache in hierarchy.all_caches()
        ],
        "obs_tracer": kernel.system.obs_tracer,
        "event_hook": kernel.scheduler.event_hook,
    }


def test_disabled_tracer_leaves_the_hot_path_identical():
    config = campaign_config(seed=7)
    plain = Kernel(config)
    disabled = Kernel(config)
    Tracer(enabled=False).attach_kernel(disabled)
    assert hot_path(disabled) == hot_path(plain)
    # the comparison does see an attached tracer
    enabled = Kernel(config)
    Tracer(RingBufferSink()).attach_kernel(enabled)
    assert hot_path(enabled) != hot_path(plain)


def test_disabled_tracing_overhead_under_five_percent():
    result = bench_hierarchy_access_traced(quick=True)
    assert result.skipped is None
    assert len(result.runs) == 3
    # median of the slice-paired disabled/plain ratios; the plain and
    # disabled arms run identical code, so this is noise around zero
    assert result.extra["overhead_disabled"] < DISABLED_OVERHEAD_BOUND, (
        "a disabled tracer must leave the hot path untouched; measured "
        f"{result.extra['overhead_disabled']:.1%}"
    )
    # the enabled arm actually traced something
    assert result.extra["events"] > 0
    assert result.extra["enabled_median_s"] > 0
