"""The multi-level memory hierarchy with the TimeCache access protocol.

This module implements the blocking access path of a TimingSimpleCPU-style
system — private L1I/L1D per core, a shared inclusive LLC, DRAM — plus the
three TimeCache behaviors the paper adds to a conventional cache:

1. An access is a hit only if the tag matches **and** the accessing
   hardware context's s-bit is set.
2. On a tag hit with a clear s-bit (a *first access*), the request is
   still sent down the hierarchy; the response data is discarded but its
   latency is observed, and the probe stops at the first lower level whose
   s-bit for the context is set (or at DRAM).
3. Fills set the requester's s-bit and clear everyone else's; evictions
   and invalidations clear all s-bits of the slot.

With ``TimeCacheConfig.enabled == False`` the very same code paths model
the unmodified baseline cache, which is what every experiment compares
against.
"""

from __future__ import annotations

import enum
import time
from dataclasses import dataclass, replace
from time import perf_counter_ns
from typing import (
    Callable,
    Dict,
    List,
    NamedTuple,
    Optional,
    Sequence,
    Tuple,
    Union,
)

import numpy as np

from repro.common.clock import GlobalClock
from repro.common.config import HierarchyConfig, TimeCacheConfig
from repro.common.errors import SimulationError, SimulationTimeout
from repro.common.rng import DeterministicRng
from repro.common.stats import StatGroup
from repro.memsys.cache import Cache
from repro.memsys.coherence import Directory
from repro.memsys.dram import Dram
from repro.memsys.line import CacheLine, LineState


class AccessKind(enum.Enum):
    """The three access types the CPU issues."""

    IFETCH = "ifetch"
    LOAD = "load"
    STORE = "store"


@dataclass(frozen=True)
class AccessResult:
    """Outcome of one memory access.

    ``level`` names where the request was ultimately serviced ("L1", "LLC",
    "DRAM", "remote"); ``first_access`` is True when TimeCache delayed a
    tag hit because the context's s-bit was clear at the outermost level
    that held the line.
    """

    latency: int
    level: str
    first_access: bool


class BatchResult(NamedTuple):
    """Outcome of one :meth:`MemoryHierarchy.access_batch` call.

    ``results`` holds one :class:`AccessResult` per access, in issue
    order; ``now`` is the cycle cursor after the last access — the value
    a caller passes as ``now`` to the next batch to continue the same
    stream (in ``nows`` mode it is simply the last issue time).
    """

    results: List[AccessResult]
    now: int


#: what callers may pass as the ``kinds`` argument of ``access_batch``
KindsArg = Union[AccessKind, Sequence[AccessKind]]


def check_batch_args(
    n: int,
    kinds: KindsArg,
    advance: int,
    nows: Optional[Sequence[int]],
) -> Tuple[KindsArg, Optional[np.ndarray]]:
    """Validate the arguments of an ``access_batch`` call of ``n``
    accesses before any of them runs, so a rejected batch leaves no
    trace on either engine.

    Returns ``kinds`` as a single AccessKind or a list of ``n``, and
    ``nows`` as ``None`` or a one-dimensional int64 array.
    """
    if advance < 0:
        raise SimulationError(f"advance cannot be negative: {advance}")
    if not isinstance(kinds, AccessKind):
        kinds = list(kinds)
        if len(kinds) != n:
            raise SimulationError(
                f"kinds has {len(kinds)} entries for {n} addresses"
            )
    if nows is None:
        return kinds, None
    times = np.asarray(nows, dtype=np.int64)
    if times.ndim != 1:
        raise SimulationError(
            f"nows must be one-dimensional, got shape {times.shape}"
        )
    if times.size != n:
        raise SimulationError(f"nows has {times.size} entries for {n} addresses")
    back = np.flatnonzero(np.diff(times) < 0)
    if back.size:
        k = int(back[0])
        raise SimulationError(
            f"nows must be non-decreasing ({times[k + 1]} after {times[k]})"
        )
    return kinds, times


class MemoryHierarchy:
    """Private L1s per core + shared inclusive LLC + DRAM + directory."""

    def __init__(
        self,
        config: HierarchyConfig,
        timecache: Optional[TimeCacheConfig] = None,
        clock: Optional[GlobalClock] = None,
        rng: Optional[DeterministicRng] = None,
    ) -> None:
        config.validate()
        self.config = config
        self.tc_config = timecache if timecache is not None else TimeCacheConfig()
        self.tc_config.validate()
        self.clock = clock if clock is not None else GlobalClock()
        #: wall-clock (``time.monotonic``) deadline armed by the kernel
        #: watchdog: batched access runs check it cooperatively between
        #: windows and raise :class:`SimulationTimeout`, so one huge
        #: ``AccessRun`` cannot overshoot the budget by a whole batch
        self.batch_deadline: Optional[float] = None
        self.line_shift = config.line_bytes.bit_length() - 1
        self._tc_mask = (1 << self.tc_config.timestamp_bits) - 1
        lat = config.latency
        self.latency = lat
        rng = rng if rng is not None else DeterministicRng()

        threads = config.threads_per_core
        all_ctxs = list(range(config.num_cores * threads))
        self.l1i: List[Cache] = []
        self.l1d: List[Cache] = []
        for core in range(config.num_cores):
            ctxs = all_ctxs[core * threads : (core + 1) * threads]
            self.l1i.append(
                self._make_cache(
                    replace(config.l1i, name=f"L1I{core}"),
                    ctxs,
                    lat.l1_hit,
                    rng.fork(f"l1i{core}"),
                    max_sharers=self.tc_config.max_sharers,
                )
            )
            self.l1d.append(
                self._make_cache(
                    replace(config.l1d, name=f"L1D{core}"),
                    ctxs,
                    lat.l1_hit,
                    rng.fork(f"l1d{core}"),
                    max_sharers=self.tc_config.max_sharers,
                )
            )
        self.llc = self._make_cache(
            config.llc,
            all_ctxs,
            lat.l2_hit,
            rng.fork("llc"),
            max_sharers=self.tc_config.max_sharers,
        )
        self.dram = Dram(lat.dram)
        self.directory = Directory()
        self.stats = StatGroup("hierarchy")
        self.c_accesses = self.stats.bound_counter("accesses")
        self._private_name_map: Dict[str, Cache] = {
            cache.name: cache for cache in self.private_caches()
        }
        #: CAT-style partitioning state: security domain per hw context
        #: (programmed by the OS at context switches) and the LLC way
        #: range per domain.  Empty/None when partitioning is off.
        self._domain_of_ctx: Dict[int, int] = {}
        self._partition_domains = 0
        #: observation hooks (repro.robustness).  Pre-listeners run before
        #: an access mutates any state, post-listeners after it completes;
        #: both receive the *line* address.  Empty lists cost nothing on
        #: the hot path.
        self.pre_access_listeners: List[
            Callable[[int, int, AccessKind, int], None]
        ] = []
        self.post_access_listeners: List[
            Callable[[int, int, AccessKind, int, AccessResult], None]
        ] = []
        #: optional :class:`repro.obs.spans.PhaseAccumulator` recording
        #: where batched-access *wall-clock* goes.  ``None`` keeps every
        #: batch path on its pre-existing ``is None`` branch; an
        #: installed :class:`~repro.obs.spans.ObsSession` points this at
        #: its accumulator when the owning system is constructed.
        self.kernel_profiler = None

    def _make_cache(
        self,
        config,
        hw_contexts,
        hit_latency: int,
        rng: DeterministicRng,
        max_sharers: int = 0,
    ) -> Cache:
        """Cache factory; the fast engine overrides this single seam to
        substitute its struct-of-arrays implementation while reusing the
        topology/rng-fork wiring above (fork names are part of the
        deterministic contract between the engines)."""
        return Cache(
            config, hw_contexts, hit_latency, rng, max_sharers=max_sharers
        )

    # ------------------------------------------------------------------
    # CAT-style way partitioning (the comparison baseline)
    # ------------------------------------------------------------------
    def enable_partitioning(self, domains: int) -> None:
        """Split the LLC ways into ``domains`` equal fill regions."""
        if domains < 1 or domains > self.llc.ways:
            raise SimulationError(
                f"cannot split {self.llc.ways} ways into {domains} domains"
            )
        self._partition_domains = domains

    @property
    def partitioning_enabled(self) -> bool:
        return self._partition_domains > 0

    def set_domain(self, ctx: int, domain: int) -> None:
        """Program the security domain of a hardware context (the MSR
        write an Apparition/Catalyst-style kernel performs per switch)."""
        if self._partition_domains and not 0 <= domain < self._partition_domains:
            raise SimulationError(f"domain {domain} out of range")
        self._domain_of_ctx[ctx] = domain

    def _llc_allowed_ways(self, ctx: int) -> Optional[range]:
        if not self._partition_domains:
            return None
        domain = self._domain_of_ctx.get(ctx, 0)
        per_domain = self.llc.ways // self._partition_domains
        start = domain * per_domain
        # the last domain absorbs any remainder ways
        end = (
            self.llc.ways
            if domain == self._partition_domains - 1
            else start + per_domain
        )
        return range(start, end)

    def domain_ways(self, domain: int) -> range:
        per_domain = self.llc.ways // max(1, self._partition_domains)
        start = domain * per_domain
        end = (
            self.llc.ways
            if domain == self._partition_domains - 1
            else start + per_domain
        )
        return range(start, end)

    def flush_domain_ways(self, domain: int) -> int:
        """Flush every LLC line in a domain's ways plus the private
        caches (the Apparition flush at a context switch).  Returns the
        number of LLC lines flushed (the cost driver)."""
        flushed = 0
        ways = list(self.domain_ways(domain))
        for tag in self.llc.resident_tags_in_ways(ways):
            self._flush_line_everywhere(tag)
            flushed += 1
        self.stats.counter("domain_flushes").add()
        return flushed

    def flush_private_caches(self, core: int) -> int:
        """Flush a core's L1I/L1D entirely (per-switch private flush)."""
        flushed = 0
        for cache in (self.l1i[core], self.l1d[core]):
            for line_addr in cache.resident_line_addrs():
                evicted = cache.invalidate(line_addr)
                if evicted is not None:
                    if evicted.dirty:
                        self._writeback_to_llc(line_addr)
                    self.directory.remove_sharer(line_addr, cache.name)
                    flushed += 1
        return flushed

    def _flush_line_everywhere(self, line: int) -> None:
        dirty = False
        for cache in self.private_caches():
            evicted = cache.invalidate(line)
            if evicted is not None:
                dirty = dirty or evicted.dirty
        llc_line = self.llc.invalidate(line)
        if llc_line is not None:
            dirty = dirty or llc_line.dirty
        self.directory.drop_line(line)
        if dirty:
            self.dram.writeback(line)

    # ------------------------------------------------------------------
    # Topology helpers
    # ------------------------------------------------------------------
    def core_of_ctx(self, ctx: int) -> int:
        core = ctx // self.config.threads_per_core
        if not 0 <= core < self.config.num_cores:
            raise SimulationError(f"hardware context {ctx} out of range")
        return core

    def line_addr(self, addr: int) -> int:
        return addr >> self.line_shift

    def private_caches(self) -> List[Cache]:
        return self.l1i + self.l1d

    def all_caches(self) -> List[Cache]:
        return self.private_caches() + [self.llc]

    def _truncate(self, now: int) -> int:
        """Truncate a full cycle count to the Tc timestamp width."""
        return now & self._tc_mask

    @property
    def timecache_enabled(self) -> bool:
        return self.tc_config.enabled

    @property
    def _llc_first_access_guard(self) -> bool:
        """Whether the LLC applies the first-access discipline — under
        TimeCache, and under the FTM comparison mode (LLC-only)."""
        return self.tc_config.enabled or self.tc_config.ftm_mode

    def _llc_sbit_ctx(self, ctx: int) -> int:
        """The identity the LLC tracks visibility by.

        TimeCache: the hardware context (per-thread).  FTM: the physical
        core (directory presence bits are per core — which is exactly why
        FTM cannot separate time-sliced processes or SMT siblings)."""
        if self.tc_config.ftm_mode:
            return self.core_of_ctx(ctx) * self.config.threads_per_core
        return ctx

    # ------------------------------------------------------------------
    # The access protocol
    # ------------------------------------------------------------------
    def access(self, ctx: int, addr: int, kind: AccessKind, now: int) -> AccessResult:
        """Perform one blocking memory access by hardware context ``ctx``.

        ``now`` is the issuing core's local cycle count; fills are
        timestamped with it (truncated to the Tc width).  Returns the
        total observed latency and where the data came from.
        """
        line = self.line_addr(addr)
        core = self.core_of_ctx(ctx)
        l1 = self.l1i[core] if kind is AccessKind.IFETCH else self.l1d[core]
        is_write = kind is AccessKind.STORE
        if is_write and kind is AccessKind.IFETCH:
            raise SimulationError("instruction fetches cannot write")
        self.clock.advance_to(now)
        if self.pre_access_listeners:
            for listener in self.pre_access_listeners:
                listener(ctx, line, kind, now)
        result = self._access_l1(l1, line, ctx, is_write, now)
        self.c_accesses.add()
        if self.post_access_listeners:
            for listener in self.post_access_listeners:
                listener(ctx, line, kind, now, result)
        return result

    #: scalar batched accesses between cooperative deadline checks
    _DEADLINE_CHECK_EVERY = 1024

    def _check_batch_deadline(self, done: int, total: int) -> None:
        """Raise :class:`SimulationTimeout` if the armed wall-clock
        deadline has passed (no-op when none is armed)."""
        deadline = self.batch_deadline
        if deadline is not None and time.monotonic() > deadline:
            raise SimulationTimeout(
                f"wall-clock budget exceeded inside a batched access run "
                f"({done}/{total} accesses executed)"
            )

    def access_batch(
        self,
        ctx: int,
        addrs: Sequence[int],
        kinds: KindsArg = AccessKind.LOAD,
        now: int = 0,
        advance: int = 1,
        nows: Optional[Sequence[int]] = None,
    ) -> BatchResult:
        """Execute a run of same-context accesses; the scalar reference.

        The semantics are *defined* as exactly this loop over
        :meth:`access`: each access issues at the current cycle cursor,
        then the cursor moves by ``advance`` plus the observed latency —
        the blocking TimingSimpleCPU rule (``advance=1`` matches the CPU
        model's one cycle per retired op; ``advance=0`` charges latency
        only, which is what the throughput benchmarks drive).

        Alternatively ``nows`` pins every access to an explicit issue
        time (one non-decreasing entry per address); the returned cursor
        is then the last issue time.  ``kinds`` is either a single
        :class:`AccessKind` applied to the whole run or one per address.

        Every argument is validated before the first access runs, so a
        rejected batch changes no state.  The fast engine overrides this
        with its vectorized kernels, which the differential fuzz checks
        against this loop, and sends every batch they cannot retire here.
        """
        kinds, times = check_batch_args(len(addrs), kinds, advance, nows)
        prof = self.kernel_profiler
        if prof is None:
            return self._access_batch_scalar(ctx, addrs, kinds, now, advance, times)
        t0 = perf_counter_ns()
        try:
            return self._access_batch_scalar(ctx, addrs, kinds, now, advance, times)
        finally:
            # On this path everything is scalar work — which, for the
            # object engine, *is* the phase breakdown: 100% fallback.
            prof.fallback_ns += perf_counter_ns() - t0
            prof.scalar_accesses += len(addrs)

    def _access_batch_scalar(
        self,
        ctx: int,
        addrs: Sequence[int],
        kinds: KindsArg,
        now: int,
        advance: int,
        times: Optional[np.ndarray],
    ) -> BatchResult:
        n = len(addrs)
        kseq = [kinds] * n if isinstance(kinds, AccessKind) else kinds
        results: List[AccessResult] = []
        append = results.append
        access = self.access
        if times is not None:
            issue = times.tolist()
            for idx, (addr, kind, when) in enumerate(zip(addrs, kseq, issue)):
                if idx % self._DEADLINE_CHECK_EVERY == 0:
                    self._check_batch_deadline(idx, n)
                append(access(ctx, int(addr), kind, when))
            return BatchResult(results, issue[-1] if issue else now)
        cursor = now
        for idx, (addr, kind) in enumerate(zip(addrs, kseq)):
            if idx % self._DEADLINE_CHECK_EVERY == 0:
                self._check_batch_deadline(idx, n)
            result = access(ctx, int(addr), kind, cursor)
            append(result)
            cursor += advance + result.latency
        return BatchResult(results, cursor)

    def _access_l1(
        self, l1: Cache, line: int, ctx: int, is_write: bool, now: int
    ) -> AccessResult:
        l1.c_accesses.add()
        pos = l1.lookup(line)
        if pos is not None:
            set_idx, way = pos
            first = self.timecache_enabled and not l1.sbit_is_set(set_idx, way, ctx)
            if first:
                # First access: tag hit, s-bit clear.  Probe downward for
                # latency; data stays where it is; set the s-bit so later
                # accesses are plain hits.
                l1.c_first_access_misses.add()
                below, level = self._probe_llc(line, ctx, now)
                l1.set_sbit(set_idx, way, ctx)
                latency = l1.hit_latency + below
            else:
                l1.c_hits.add()
                latency, level = l1.hit_latency, "L1"
            l1.touch(set_idx, way, now)
            if is_write:
                latency += self._store_upgrade(l1, line, set_idx, way, now)
            return AccessResult(latency, level, first)

        l1.c_misses.add()
        below, level, llc_first = self._access_llc(l1, line, ctx, is_write, now)
        self._fill_private(l1, line, ctx, is_write, now)
        if self.config.next_line_prefetch:
            self._prefetch_next_line(l1, line + 1, ctx, now)
        return AccessResult(l1.hit_latency + below, level, llc_first)

    def _prefetch_next_line(
        self, l1: Cache, line: int, ctx: int, now: int
    ) -> None:
        """Next-line prefetch on a demand miss (off the critical path).

        The prefetch is issued on behalf of ``ctx``: fills set only its
        s-bit, exactly like a demand fill, so prefetching never weakens
        the first-access discipline for anyone else.
        """
        if l1.lookup(line) is not None:
            return
        l1.stats.counter("prefetches").add()
        llc = self.llc
        if llc.lookup(line) is None:
            self.dram.access(line)  # background fetch; latency hidden
            _, victim = llc.fill(
                line,
                self._llc_sbit_ctx(ctx),
                self._truncate(now),
                LineState.SHARED,
                allowed_ways=self._llc_allowed_ways(ctx),
            )
            if victim is not None:
                self._handle_llc_eviction(victim)
            self.directory.add_sharer(line, l1.name)
        else:
            self.directory.add_sharer(line, l1.name)
        _, victim = l1.fill(line, ctx, self._truncate(now), LineState.SHARED)
        if victim is not None:
            self._handle_private_eviction(l1, victim)

    def _access_llc(
        self, l1: Cache, line: int, ctx: int, is_write: bool, now: int
    ) -> Tuple[int, str, bool]:
        """L1-miss path: get the line from LLC (or DRAM through it).

        Returns (latency below L1, service level, first_access_at_llc).
        """
        llc = self.llc
        llc.c_accesses.add()
        sctx = self._llc_sbit_ctx(ctx)
        pos = llc.lookup(line)
        if pos is not None:
            set_idx, way = pos
            extra, level = self._coherence_on_access(l1, line, is_write, now)
            first = self._llc_first_access_guard and not llc.sbit_is_set(
                set_idx, way, sctx
            )
            if first:
                llc.c_first_access_misses.add()
                dram_latency = self.dram.access(line)  # data discarded
                # Any cache-to-cache transfer overlaps the DRAM probe: the
                # response is released only when DRAM answers, so a remote
                # owner is indistinguishable from plain memory (the
                # Section VII-B coherence-attack mitigation).
                latency = llc.hit_latency + max(dram_latency, extra)
                level = "DRAM"
                llc.set_sbit(set_idx, way, sctx)
            else:
                llc.c_hits.add()
                latency = llc.hit_latency + extra
                if level == "":
                    level = "LLC"
            llc.touch(set_idx, way, now)
            if is_write:
                self.directory.set_owner(line, l1.name)
            else:
                self.directory.add_sharer(line, l1.name)
            return latency, level, first

        llc.c_misses.add()
        dram_latency = self.dram.access(line)
        _, victim = llc.fill(
            line,
            sctx,
            self._truncate(now),
            LineState.SHARED,
            allowed_ways=self._llc_allowed_ways(ctx),
        )
        wb = 0
        if victim is not None:
            wb = self._handle_llc_eviction(victim)
        if is_write:
            self.directory.set_owner(line, l1.name)
        else:
            self.directory.add_sharer(line, l1.name)
        return llc.hit_latency + dram_latency + wb, "DRAM", False

    def _probe_llc(self, line: int, ctx: int, now: int) -> Tuple[int, str]:
        """First-access probe below an L1 that holds the line.

        An inclusive LLC must also hold the line.  If the context's LLC
        s-bit is set the probe is serviced at LLC latency; otherwise the
        probe continues to DRAM (and the LLC s-bit is set, recording the
        context's first access at that level too).  No data moves.

        With ``dram_latency_on_first_access`` (Section VII-B hardening)
        the probe always pays DRAM latency.
        """
        llc = self.llc
        pos = llc.lookup(line)
        if pos is None:
            raise SimulationError(
                f"inclusion violated: line {line:#x} in an L1 but not in LLC"
            )
        set_idx, way = pos
        llc.c_accesses.add()
        llc.touch(set_idx, way, now)
        sctx = self._llc_sbit_ctx(ctx)
        sbit = llc.sbit_is_set(set_idx, way, sctx)
        if sbit and not self.tc_config.dram_latency_on_first_access:
            llc.c_hits.add()
            return llc.hit_latency, "LLC"
        if not sbit:
            llc.c_first_access_misses.add()
            llc.set_sbit(set_idx, way, sctx)
        return llc.hit_latency + self.dram.access(line), "DRAM"

    # ------------------------------------------------------------------
    # Fills, evictions, coherence
    # ------------------------------------------------------------------
    def _fill_private(
        self, l1: Cache, line: int, ctx: int, is_write: bool, now: int
    ) -> None:
        state = LineState.MODIFIED if is_write else LineState.SHARED
        new_line, victim = l1.fill(line, ctx, self._truncate(now), state, dirty=is_write)
        if is_write:
            self._invalidate_other_private(l1, line)
            self.directory.set_owner(line, l1.name)
        if victim is not None:
            self._handle_private_eviction(l1, victim)

    def _store_upgrade(
        self, l1: Cache, line: int, set_idx: int, way: int, now: int
    ) -> int:
        """A store hit: dirty the line, invalidate other private copies."""
        l1.mark_dirty(set_idx, way)
        self._invalidate_other_private(l1, line)
        self.directory.set_owner(line, l1.name)
        return 0

    def _invalidate_other_private(self, requester: Cache, line: int) -> None:
        for cache in self.private_caches():
            if cache.name == requester.name:
                continue
            evicted = cache.invalidate(line)
            if evicted is not None:
                if evicted.dirty:
                    self._writeback_to_llc(line)
                self.directory.remove_sharer(line, cache.name)

    def _coherence_on_access(
        self, requester_l1: Cache, line: int, is_write: bool, now: int
    ) -> Tuple[int, str]:
        """Handle a remote modified copy on an LLC hit.

        Returns (extra latency, level label or "").  A load pulls the dirty
        line out of the owner's L1 (cache-to-cache transfer, downgrading
        the owner to SHARED); a write invalidates every other private copy.
        """
        extra = 0
        level = ""
        owner = self.directory.owner(line)
        if owner and owner != requester_l1.name:
            owner_cache = self._private_by_name(owner)
            pos = owner_cache.lookup(line)
            if pos is not None:
                set_idx, way = pos
                if owner_cache.is_dirty(set_idx, way):
                    extra += self.latency.remote_transfer
                    level = "remote"
                    owner_cache.downgrade(set_idx, way)
                    self._writeback_to_llc(line)
            self.directory.clear_owner(line)
        if is_write:
            self._invalidate_other_private(requester_l1, line)
        return extra, level

    def _private_by_name(self, name: str) -> Cache:
        try:
            return self._private_name_map[name]
        except KeyError:
            raise SimulationError(f"unknown private cache {name!r}") from None

    def _writeback_to_llc(self, line: int) -> None:
        pos = self.llc.lookup(line)
        if pos is None:
            raise SimulationError(
                f"writeback of line {line:#x} but LLC does not hold it"
            )
        set_idx, way = pos
        self.llc.mark_dirty(set_idx, way)

    def _handle_private_eviction(self, l1: Cache, victim: CacheLine) -> None:
        line = victim.tag
        if victim.dirty:
            self._writeback_to_llc(line)
            l1.c_writebacks.add()
        self.directory.remove_sharer(line, l1.name)

    def _handle_llc_eviction(self, victim: CacheLine) -> int:
        """Back-invalidate an evicted LLC line from every private cache.

        Returns the extra latency charged to the access that caused the
        eviction (dirty writeback cost only; back-invalidations are
        metadata operations off the critical path).
        """
        line = victim.tag
        dirty = victim.dirty
        for cache_name in self.directory.drop_line(line):
            cache = self._private_by_name(cache_name)
            evicted = cache.invalidate(line)
            if evicted is not None and evicted.dirty:
                dirty = True
        self.llc.c_back_invalidations.add()
        if dirty:
            self.dram.writeback(line)
            self.llc.c_writebacks.add()
            return self.latency.writeback
        return 0

    # ------------------------------------------------------------------
    # clflush
    # ------------------------------------------------------------------
    def flush(self, ctx: int, addr: int, now: int) -> AccessResult:
        """clflush: remove the line from every cache level.

        Latency is data-dependent (cached lines take longer) unless
        ``constant_time_flush`` is set — the Section VII-C mitigation,
        which makes flush+flush attacks blind.
        """
        line = self.line_addr(addr)
        self.clock.advance_to(now)
        was_cached = False
        dirty = False
        for cache in self.private_caches():
            evicted = cache.invalidate(line)
            if evicted is not None:
                was_cached = True
                dirty = dirty or evicted.dirty
        llc_line = self.llc.invalidate(line)
        if llc_line is not None:
            was_cached = True
            dirty = dirty or llc_line.dirty
        self.directory.drop_line(line)
        if dirty:
            self.dram.writeback(line)
        self.stats.counter("flushes").add()
        if self.tc_config.constant_time_flush:
            latency = self.latency.flush_cached
        else:
            latency = (
                self.latency.flush_cached if was_cached else self.latency.flush_uncached
            )
        return AccessResult(latency, "flush", False)

    # ------------------------------------------------------------------
    # Introspection used by tests and the analysis harness
    # ------------------------------------------------------------------
    def caches_for_ctx(self, ctx: int) -> List[Cache]:
        """Every cache the context's accesses can touch (L1I, L1D, LLC)."""
        core = self.core_of_ctx(ctx)
        return [self.l1i[core], self.l1d[core], self.llc]

    def check_inclusion(self) -> None:
        """Raise if any private line is missing from the LLC (test hook)."""
        for cache in self.private_caches():
            for line in cache.resident_line_addrs():
                if not self.llc.resident(line):
                    raise SimulationError(
                        f"{cache.name} holds {line:#x} but LLC does not"
                    )

    def total_first_access_misses(self) -> int:
        return sum(c.stats.get("first_access_misses") for c in self.all_caches())
