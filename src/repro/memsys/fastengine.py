"""Struct-of-arrays fast engine for the memory hierarchy hot path.

The reference model (:mod:`repro.memsys.cache`, :mod:`.hierarchy`) spends
most of every access allocating and chasing Python objects: a
:class:`~repro.memsys.line.CacheLine` per way, a ``CacheSet`` per set, a
``StatGroup`` dict lookup per counter bump, and a frozen dataclass per
result.  This module provides a second, **semantics-identical** engine
that keeps the same per-slot state in struct-of-arrays form:

* ``tags`` / ``dirty`` / ``last_used`` / ``filled_at`` — numpy arrays
  shaped ``(num_sets, ways)`` with flat views, wrapped in memoryviews
  for the scalar paths (a memoryview scalar read costs about half a
  numpy scalar index, and the batched kernels gather/scatter the same
  buffers wholesale);
* ``tc`` / ``sbits`` / ``valid`` — **canonical numpy arrays with the
  exact dtype and shape of the object engine's**, because the
  context-switch comparator, the fault injector, and the invariant
  checker all read and mutate them in place (``cache.tc[s, w] = ...``
  must keep working against either engine);
* per-slot s-bits packed as per-way int64 context bitmasks — one bit per
  hardware context column, the same convention as the object engine;
* statistics as bare integer attributes (``n_hits`` etc.) snapshotted on
  demand through a ``StatGroup``-compatible adapter.

Equivalence is not aspirational: ``tests/memsys/test_engine_equivalence``
differentially fuzzes both engines over random traces (TimeCache on/off,
context switches, multi-core stores, fault hooks) and asserts identical
``AccessResult`` streams, stat snapshots, and final s-bit/Tc state.  The
contract requires mirroring some subtle reference behaviors exactly:

* ``fill`` stamps ``last_used = filled_at = tc_now`` with the *truncated*
  timestamp while ``touch`` uses the full cycle count — LRU order mixes
  the two, so the fast engine stores exactly the same mixed values;
* victim selection tie-breaks on the lowest way index via a strictly-less
  scan, and a free way (first empty index) always wins;
* the random policy draws from the same :class:`DeterministicRng` fork in
  the same global order.

Supported replacement policies: ``lru``, ``fifo``, ``random``.  The
``tree-plru`` and ``srrip`` policies keep per-way state inside policy
objects and stay object-engine-only; configuring them with
``engine="fast"`` raises :class:`~repro.common.errors.ConfigError`.
"""

from __future__ import annotations

from typing import (
    Any,
    Callable,
    Dict,
    List,
    NamedTuple,
    Optional,
    Sequence,
    Tuple,
)

from time import perf_counter_ns

import numpy as np

from repro.common.config import CacheConfig
from repro.common.errors import ConfigError, SimulationError
from repro.common.rng import DeterministicRng
from repro.common.stats import Counter, StatGroup
from repro.memsys.hierarchy import (
    AccessKind,
    AccessResult,
    BatchResult,
    KindsArg,
    MemoryHierarchy,
    check_batch_args,
)
from repro.memsys.line import LineState

_IFETCH = AccessKind.IFETCH
_STORE = AccessKind.STORE
#: counter name -> FastCache attribute.  "accesses" is NOT here: every
#: access outcome bumps exactly one of hits/misses/first_access_misses
#: (plus ``n_accesses`` for the one probe outcome that bumps neither), so
#: the access count is derived on read instead of bumped on every access.
_STAT_FIELDS: Dict[str, str] = {
    "back_invalidations": "n_back_invalidations",
    "cold_misses": "n_cold_misses",
    "dirty_evictions": "n_dirty_evictions",
    "evictions": "n_evictions",
    "fills": "n_fills",
    "first_access_misses": "n_first_access_misses",
    "hits": "n_hits",
    "invalidations": "n_invalidations",
    "misses": "n_misses",
    "prefetches": "n_prefetches",
    "sbit_restores": "n_sbit_restores",
    "sharer_evictions": "n_sharer_evictions",
    "writebacks": "n_writebacks",
}


class EvictedLine(NamedTuple):
    """What the fast engine returns for a displaced line.

    Duck-compatible with the ``.tag`` / ``.dirty`` reads the hierarchy's
    eviction, writeback, and flush paths perform on a ``CacheLine``.
    """

    tag: int
    dirty: bool


class _FieldCounter:
    """A ``Counter``-shaped handle that reads/writes a FastCache field."""

    __slots__ = ("name", "_cache", "_attr")

    def __init__(self, cache: "FastCache", name: str, attr: str) -> None:
        self.name = name
        self._cache = cache
        self._attr = attr

    @property
    def value(self) -> int:
        return getattr(self._cache, self._attr)

    def add(self, amount: int = 1) -> None:
        if amount < 0:
            raise ValueError(f"counter {self.name} cannot decrease")
        setattr(
            self._cache, self._attr, getattr(self._cache, self._attr) + amount
        )

    def reset(self) -> None:
        setattr(self._cache, self._attr, 0)


class _AccessesCounter:
    """Counter handle for the derived ``accesses`` total.

    ``value`` sums the outcome counters; ``add`` lands in the
    ``n_accesses`` adjustment slot (also bumped by the one probe outcome
    that records no hit/miss/first counter).
    """

    __slots__ = ("name", "_cache")

    def __init__(self, cache: "FastCache") -> None:
        self.name = "accesses"
        self._cache = cache

    @property
    def value(self) -> int:
        c = self._cache
        return c.n_hits + c.n_misses + c.n_first_access_misses + c.n_accesses

    def add(self, amount: int = 1) -> None:
        if amount < 0:
            raise ValueError("counter accesses cannot decrease")
        self._cache.n_accesses += amount

    def reset(self) -> None:
        self._cache.n_accesses = 0


class FastStats:
    """``StatGroup``-compatible view over a FastCache's bare counters.

    Counter presence in :meth:`snapshot` mirrors the lazy/bound-counter
    protocol of the object engine: a counter appears once it has been
    incremented.  Unknown counter names are supported through a side
    table so external instrumentation keeps working.
    """

    __slots__ = ("name", "_cache", "_extra")

    def __init__(self, cache: "FastCache") -> None:
        self.name = cache.name
        self._cache = cache
        self._extra: Dict[str, _FieldCounter] = {}

    def counter(self, name: str):
        if name == "accesses":
            return _AccessesCounter(self._cache)
        attr = _STAT_FIELDS.get(name)
        if attr is not None:
            return _FieldCounter(self._cache, name, attr)
        counter = self._extra.get(name)
        if counter is None:
            counter = Counter(name)
            self._extra[name] = counter
        return counter

    def get(self, name: str) -> int:
        cache = self._cache
        if name == "accesses":
            return (
                cache.n_hits
                + cache.n_misses
                + cache.n_first_access_misses
                + cache.n_accesses
            )
        attr = _STAT_FIELDS.get(name)
        if attr is not None:
            return getattr(cache, attr)
        counter = self._extra.get(name)
        return counter.value if counter is not None else 0

    def snapshot(self) -> Dict[str, int]:
        items: Dict[str, int] = {}
        cache = self._cache
        accesses = (
            cache.n_hits
            + cache.n_misses
            + cache.n_first_access_misses
            + cache.n_accesses
        )
        if accesses:
            items["accesses"] = accesses
        for key, attr in _STAT_FIELDS.items():
            value = getattr(cache, attr)
            if value:
                items[key] = value
        for key, counter in self._extra.items():
            items[key] = counter.value
        prefix = self.name
        return {f"{prefix}.{key}": items[key] for key in sorted(items)}

    def reset(self) -> None:
        self._cache.n_accesses = 0
        for attr in _STAT_FIELDS.values():
            setattr(self._cache, attr, 0)
        for counter in self._extra.values():
            counter.reset()


class FastCache:
    """Struct-of-arrays drop-in for :class:`repro.memsys.cache.Cache`.

    Implements the same public surface the hierarchy, the context-switch
    engine, the fault models, and the invariant checker use — lookup,
    fill/evict/invalidate, s-bit save/restore/clear, slot accessors —
    with identical observable behavior.  ``fill`` returns only the
    displaced :class:`EvictedLine` (or None); there is no CacheLine
    object to hand back.
    """

    __slots__ = (
        "config",
        "name",
        "hit_latency",
        "line_bytes",
        "num_sets",
        "ways",
        "max_sharers",
        "_set_mask",
        "_ctx_to_col",
        "_ctx_bit_of",
        "tc",
        "sbits",
        "valid",
        "tc_flat",
        "sbits_flat",
        "valid_flat",
        "tc_mv",
        "sbits_mv",
        "valid_mv",
        "tags_np",
        "tags_flat",
        "tags_mv",
        "dirty_np",
        "dirty_flat",
        "last_np",
        "last_flat",
        "filled_np",
        "filled_flat",
        "_tags",
        "_dirty",
        "_last_used",
        "_filled_at",
        "_tag_to_way",
        "_occ",
        "_policy",
        "_victim_stamps",
        "_set_rngs",
        "_ever_filled",
        "event_listener",
        "_event_listeners",
        "stats",
        "n_accesses",
        "n_hits",
        "n_misses",
        "n_first_access_misses",
        "n_fills",
        "n_evictions",
        "n_dirty_evictions",
        "n_cold_misses",
        "n_invalidations",
        "n_writebacks",
        "n_back_invalidations",
        "n_prefetches",
        "n_sharer_evictions",
        "n_sbit_restores",
    )

    def __init__(
        self,
        config: CacheConfig,
        hw_contexts: Sequence[int],
        hit_latency: int,
        rng: Optional[DeterministicRng] = None,
        max_sharers: int = 0,
    ) -> None:
        config.validate()
        if not hw_contexts:
            raise SimulationError(f"{config.name}: needs >= 1 hardware context")
        if max_sharers < 0:
            raise SimulationError(f"{config.name}: max_sharers cannot be negative")
        policy = config.replacement.lower()
        if policy not in ("lru", "fifo", "random"):
            raise ConfigError(
                f"{config.name}: the fast engine supports lru/fifo/random "
                f"replacement, not {config.replacement!r}; use engine='object'"
            )
        self.config = config
        self.name = config.name
        self.hit_latency = hit_latency
        self.line_bytes = config.line_bytes
        self.num_sets = config.num_sets
        self.ways = config.ways
        self._set_mask = self.num_sets - 1
        self._ctx_to_col: Dict[int, int] = {
            ctx: i for i, ctx in enumerate(hw_contexts)
        }
        if len(self._ctx_to_col) != len(hw_contexts):
            raise SimulationError(f"{config.name}: duplicate hardware contexts")
        self._ctx_bit_of: Dict[int, int] = {
            ctx: 1 << col for ctx, col in self._ctx_to_col.items()
        }
        self.max_sharers = max_sharers
        # Canonical TimeCache metadata: same dtype/shape as the object
        # engine, mutated in place by the comparator and the fault models.
        self.tc = np.zeros((self.num_sets, self.ways), dtype=np.int64)
        self.sbits = np.zeros((self.num_sets, self.ways), dtype=np.int64)
        self.valid = np.zeros((self.num_sets, self.ways), dtype=bool)
        # Flat views share memory with the 2-D arrays; scalar indexing on
        # a 1-D view is the cheapest numpy access the hot path gets.
        self.tc_flat = self.tc.reshape(-1)
        self.sbits_flat = self.sbits.reshape(-1)
        self.valid_flat = self.valid.reshape(-1)
        # Memoryviews over the same buffers: scalar reads/writes through a
        # memoryview cost roughly half a numpy scalar index, and every
        # external in-place numpy mutation (comparator, fault models)
        # remains visible through them.
        self.tc_mv = memoryview(self.tc_flat)
        self.sbits_mv = memoryview(self.sbits_flat)
        self.valid_mv = memoryview(self.valid_flat)
        # Architectural slot state: numpy arrays (set * ways + way flat
        # order) so the batched kernels can gather/scatter whole windows,
        # with memoryview aliases for the scalar paths.  MESI-lite keeps
        # line state in lockstep with the dirty flag (MODIFIED iff dirty,
        # else SHARED), so the fast engine stores only the dirty bit;
        # ``state_at`` derives the enum on demand.  ``_tags`` IS
        # ``tags_mv`` — one buffer, no mirror to keep in lockstep.
        self.tags_np = np.full((self.num_sets, self.ways), -1, dtype=np.int64)
        self.tags_flat = self.tags_np.reshape(-1)
        self.tags_mv = memoryview(self.tags_flat)
        self._tags: memoryview = self.tags_mv
        self.dirty_np = np.zeros((self.num_sets, self.ways), dtype=bool)
        self.dirty_flat = self.dirty_np.reshape(-1)
        self._dirty: memoryview = memoryview(self.dirty_flat)
        self.last_np = np.zeros((self.num_sets, self.ways), dtype=np.int64)
        self.last_flat = self.last_np.reshape(-1)
        self._last_used: memoryview = memoryview(self.last_flat)
        self.filled_np = np.zeros((self.num_sets, self.ways), dtype=np.int64)
        self.filled_flat = self.filled_np.reshape(-1)
        self._filled_at: memoryview = memoryview(self.filled_flat)
        self._tag_to_way: List[Dict[int, int]] = [
            {} for _ in range(self.num_sets)
        ]
        self._occ: List[int] = [0] * self.num_sets
        self._policy = policy
        # Victim-scan stamp source, aliasing the recency lists (which are
        # mutated in place, never rebound): last_used for LRU, filled_at
        # for FIFO, None for random.
        if policy == "lru":
            self._victim_stamps: Optional[memoryview] = self._last_used
        elif policy == "fifo":
            self._victim_stamps = self._filled_at
        else:
            self._victim_stamps = None
        # The object engine hands ONE shared rng to every set's random
        # policy (or a per-set default when rng is None); mirror both so
        # the draw sequence is identical.
        if policy == "random":
            if rng is not None:
                self._set_rngs = [rng] * self.num_sets
            else:
                self._set_rngs = [
                    DeterministicRng(self.ways) for _ in range(self.num_sets)
                ]
        else:
            self._set_rngs = []
        self._ever_filled: set = set()
        self.event_listener: Optional[Callable[[str, int, int, int], None]] = None
        self._event_listeners: List[Callable[[str, int, int, int], None]] = []
        self.stats = FastStats(self)
        self.n_accesses = 0
        self.n_hits = 0
        self.n_misses = 0
        self.n_first_access_misses = 0
        self.n_fills = 0
        self.n_evictions = 0
        self.n_dirty_evictions = 0
        self.n_cold_misses = 0
        self.n_invalidations = 0
        self.n_writebacks = 0
        self.n_back_invalidations = 0
        self.n_prefetches = 0
        self.n_sharer_evictions = 0
        self.n_sbit_restores = 0

    # ------------------------------------------------------------------
    # Addressing helpers (object-engine API)
    # ------------------------------------------------------------------
    def set_index(self, line_addr: int) -> int:
        return line_addr & self._set_mask

    def tag(self, line_addr: int) -> int:
        return line_addr

    def ctx_column(self, ctx: int) -> int:
        try:
            return self._ctx_to_col[ctx]
        except KeyError:
            raise SimulationError(
                f"{self.name}: hardware context {ctx} does not share this cache"
            ) from None

    def ctx_bit(self, ctx: int) -> int:
        return 1 << self.ctx_column(ctx)

    @property
    def contexts(self) -> List[int]:
        return list(self._ctx_to_col)

    # ------------------------------------------------------------------
    # Lookup / fill / evict
    # ------------------------------------------------------------------
    def lookup(self, line_addr: int) -> Optional[Tuple[int, int]]:
        set_idx = line_addr & self._set_mask
        way = self._tag_to_way[set_idx].get(line_addr)
        if way is None:
            return None
        return set_idx, way

    def touch(self, set_idx: int, way: int, now: int) -> None:
        self._last_used[set_idx * self.ways + way] = now

    def sbit_is_set(self, set_idx: int, way: int, ctx: int) -> bool:
        return bool(self.sbits_mv[set_idx * self.ways + way] & self.ctx_bit(ctx))

    def set_sbit(self, set_idx: int, way: int, ctx: int) -> None:
        bit = self._ctx_bit_of.get(ctx)
        if bit is None:
            self.ctx_column(ctx)  # raises the object engine's error
        idx = set_idx * self.ways + way
        current = self.sbits_mv[idx]
        if (
            self.max_sharers
            and not current & bit
            and bin(current).count("1") >= self.max_sharers
        ):
            lowest = current & -current
            current &= ~lowest
            self.n_sharer_evictions += 1
        self.sbits_mv[idx] = current | bit
        if self.event_listener is not None:
            self.event_listener("sbit_set", set_idx, way, ctx)

    def add_event_listener(
        self, listener: Callable[[str, int, int, int], None]
    ) -> None:
        """Register a listener without displacing existing observers (the
        same chaining contract as the object engine's Cache).  Note that
        any non-None ``event_listener`` makes the hot paths fall back to
        the event-emitting slow routes — tracing is honest but costs."""
        if self.event_listener is not None and not self._event_listeners:
            self._event_listeners.append(self.event_listener)
        self._event_listeners.append(listener)
        self._rebind_listeners()

    def remove_event_listener(
        self, listener: Callable[[str, int, int, int], None]
    ) -> None:
        self._event_listeners.remove(listener)
        self._rebind_listeners()

    def _rebind_listeners(self) -> None:
        listeners = self._event_listeners
        if not listeners:
            self.event_listener = None
        elif len(listeners) == 1:
            self.event_listener = listeners[0]
        else:
            chain = tuple(listeners)

            def fanout(
                event: str, set_idx: int, way: int, ctx: int, _chain=chain
            ) -> None:
                for fn in _chain:
                    fn(event, set_idx, way, ctx)

            self.event_listener = fanout

    def _victim_way(self, set_idx: int) -> int:
        """Full set: pick the way to evict, mirroring the policies'
        strictly-less / first-index tie-break scans exactly."""
        base = set_idx * self.ways
        stamps = self._victim_stamps
        if stamps is None:
            return self._set_rngs[set_idx].randint(0, self.ways - 1)
        best_way = 0
        best = stamps[base]
        for way in range(1, self.ways):
            stamp = stamps[base + way]
            if stamp < best:
                best = stamp
                best_way = way
        return best_way

    def _victim_way_in(self, set_idx: int, allowed_ways) -> int:
        """CAT-masked victim: free allowed way, else LRU within the mask
        (always LRU regardless of policy, like ``choose_victim_in``)."""
        base = set_idx * self.ways
        tags = self._tags
        for way in allowed_ways:
            if tags[base + way] < 0:
                return way
        best_way = -1
        best = None
        stamps = self._last_used
        for way in allowed_ways:
            stamp = stamps[base + way]
            if best is None or stamp < best:
                best = stamp
                best_way = way
        if best_way < 0:
            raise SimulationError("empty allowed-way mask")
        return best_way

    def fill(
        self,
        line_addr: int,
        ctx: int,
        tc_now: int,
        state: LineState,
        dirty: bool = False,
        allowed_ways=None,
    ) -> Optional[EvictedLine]:
        """Install ``line_addr``; returns the displaced line or None.

        Same semantics as the object engine's fill (fill rule, Tc stamp,
        victim choice) — but returns only the victim, since there is no
        CacheLine object to return for the installed slot.
        """
        set_idx = line_addr & self._set_mask
        ways = self.ways
        base = set_idx * ways
        tags = self._tags
        victim: Optional[EvictedLine] = None
        if allowed_ways is None:
            if self._occ[set_idx] < ways:
                way = 0
                while tags[base + way] >= 0:
                    way += 1
            else:
                way = self._victim_way(set_idx)
                victim = self._evict(set_idx, way)
        else:
            way = self._victim_way_in(set_idx, allowed_ways)
            if tags[base + way] >= 0:
                victim = self._evict(set_idx, way)
        if line_addr in self._tag_to_way[set_idx]:
            raise SimulationError(
                f"duplicate tag {line_addr:#x} in set {set_idx}"
            )
        idx = base + way
        tags[idx] = line_addr
        self._dirty[idx] = dirty
        # CacheLine.__init__ stamps both recency fields with the
        # (truncated) fill time; touch() later overwrites with full time.
        self._last_used[idx] = tc_now
        self._filled_at[idx] = tc_now
        self._tag_to_way[set_idx][line_addr] = way
        self._occ[set_idx] += 1
        self.tc_mv[idx] = tc_now
        self.sbits_mv[idx] = self._ctx_bit_of[ctx]
        self.valid_mv[idx] = True
        if self.event_listener is not None:
            self.event_listener("fill", set_idx, way, ctx)
        self.n_fills += 1
        if line_addr not in self._ever_filled:
            self._ever_filled.add(line_addr)
            self.n_cold_misses += 1
        return victim

    def _evict(self, set_idx: int, way: int) -> EvictedLine:
        idx = set_idx * self.ways + way
        tag = self._tags[idx]
        if tag < 0:
            raise SimulationError(f"remove from empty way {way}")
        was_dirty = self._dirty[idx]
        self._tags[idx] = -1
        del self._tag_to_way[set_idx][tag]
        self._occ[set_idx] -= 1
        self.sbits_mv[idx] = 0
        self.valid_mv[idx] = False
        if self.event_listener is not None:
            self.event_listener("evict", set_idx, way, -1)
        self.n_evictions += 1
        if was_dirty:
            self.n_dirty_evictions += 1
        return EvictedLine(tag, was_dirty)

    def invalidate(self, line_addr: int) -> Optional[EvictedLine]:
        set_idx = line_addr & self._set_mask
        way = self._tag_to_way[set_idx].get(line_addr)
        if way is None:
            return None
        idx = set_idx * self.ways + way
        was_dirty = self._dirty[idx]
        self._tags[idx] = -1
        del self._tag_to_way[set_idx][line_addr]
        self._occ[set_idx] -= 1
        self.sbits_mv[idx] = 0
        self.valid_mv[idx] = False
        if self.event_listener is not None:
            self.event_listener("invalidate", set_idx, way, -1)
        self.n_invalidations += 1
        return EvictedLine(line_addr, was_dirty)

    def resident(self, line_addr: int) -> bool:
        return (
            self._tag_to_way[line_addr & self._set_mask].get(line_addr)
            is not None
        )

    def resident_line_addrs(self) -> List[int]:
        addrs: List[int] = []
        for mapping in self._tag_to_way:
            addrs.extend(mapping)
        return addrs

    @property
    def occupancy(self) -> int:
        return sum(self._occ)

    # ------------------------------------------------------------------
    # Engine-generic slot accessors (see Cache for the contract)
    # ------------------------------------------------------------------
    def mark_dirty(self, set_idx: int, way: int) -> None:
        idx = set_idx * self.ways + way
        if self._tags[idx] < 0:
            raise SimulationError(f"{self.name}: mark_dirty on empty slot")
        self._dirty[idx] = True

    def is_dirty(self, set_idx: int, way: int) -> bool:
        idx = set_idx * self.ways + way
        return self._tags[idx] >= 0 and self._dirty[idx]

    def downgrade(self, set_idx: int, way: int) -> None:
        idx = set_idx * self.ways + way
        if self._tags[idx] < 0:
            raise SimulationError(f"{self.name}: downgrade on empty slot")
        self._dirty[idx] = False

    def resident_tags_in_ways(self, ways: Sequence[int]) -> List[int]:
        tags_out: List[int] = []
        tags = self._tags
        for set_idx in range(self.num_sets):
            base = set_idx * self.ways
            for way in ways:
                tag = tags[base + way]
                if tag >= 0:
                    tags_out.append(tag)
        return tags_out

    # ------------------------------------------------------------------
    # Context-switch support (identical array code to the object engine)
    # ------------------------------------------------------------------
    def save_sbits(self, ctx: int) -> np.ndarray:
        col = self.ctx_column(ctx)
        return ((self.sbits >> col) & 1).astype(bool)

    def restore_sbits(self, ctx: int, saved: Optional[np.ndarray]) -> None:
        col = self.ctx_column(ctx)
        bit = np.int64(1) << col
        self.sbits &= ~bit
        if saved is not None:
            if saved.shape != (self.num_sets, self.ways):
                raise SimulationError(
                    f"{self.name}: saved s-bit shape {saved.shape} != "
                    f"{(self.num_sets, self.ways)}"
                )
            self.sbits |= (saved & self.valid).astype(np.int64) << col
        self.n_sbit_restores += 1

    def clear_sbits_where(self, ctx: int, mask: np.ndarray) -> int:
        col = self.ctx_column(ctx)
        bit = np.int64(1) << col
        before = int(np.count_nonzero(self.sbits & bit))
        self.sbits[mask] &= ~bit
        after = int(np.count_nonzero(self.sbits & bit))
        return before - after

    def clear_all_sbits(self, ctx: int) -> None:
        bit = np.int64(1) << self.ctx_column(ctx)
        self.sbits &= ~bit

    def sbit_save_bytes(self) -> int:
        return (self.config.num_lines + 7) // 8

    def sbit_save_transfers(self, transfer_bytes: int = 64) -> int:
        bytes_needed = self.sbit_save_bytes()
        return (bytes_needed + transfer_bytes - 1) // transfer_bytes

    def counters_into(self, registry, prefix=None, set_groups: int = 4) -> None:
        """Engine-equivalent twin of :meth:`Cache.counters_into`: same
        dotted tree from the same positional arrays."""
        from repro.obs.counters import cache_sbit_census

        name = prefix if prefix is not None else self.name
        for key, value in self.stats.snapshot().items():
            leaf = key.split(".", 1)[1] if "." in key else key
            registry.slot(f"{name}.{leaf}").value += int(value)
        cache_sbit_census(self, registry, f"{name}.", set_groups)


class _FastHierarchyStats(StatGroup):
    """Hierarchy StatGroup whose ``accesses`` counter is derived on read.

    Every hierarchy access bumps exactly one private-cache outcome
    counter (hit, miss, or first-access miss), so the hierarchy access
    total is their sum — no per-access bump needed.  The hierarchy's
    ``n_accesses`` is an adjustment slot for external ``add()`` calls
    (and for rebasing after a reset)."""

    def __init__(self, hier: "FastHierarchy") -> None:
        super().__init__("hierarchy")
        self._hier = hier

    def _sync(self) -> None:
        hier = self._hier
        total = hier.n_accesses
        for cache in hier._private_list:
            total += cache.n_hits + cache.n_misses + cache.n_first_access_misses
        if total or "accesses" in self._counters:
            self.counter("accesses").value = total

    def get(self, name: str) -> int:
        self._sync()
        return super().get(name)

    def snapshot(self) -> Dict[str, int]:
        self._sync()
        return super().snapshot()

    def reset(self) -> None:
        super().reset()
        # Rebase so the derived total reads zero while the (unreset)
        # cache counters keep counting from here.
        hier = self._hier
        hier.n_accesses = -sum(
            c.n_hits + c.n_misses + c.n_first_access_misses
            for c in hier._private_list
        )


class FastHierarchy(MemoryHierarchy):
    """The memory hierarchy driven through :class:`FastCache` levels.

    Reuses the reference topology construction (identical rng fork names,
    so random replacement draws match) and all cold paths — partitioning
    flushes, clflush, inclusion checks — which run unchanged against the
    engine-generic cache surface.  Only the per-access path is overridden,
    with the reference semantics inlined over struct-of-arrays state.
    """

    def __init__(self, config, timecache=None, clock=None, rng=None) -> None:
        super().__init__(config, timecache=timecache, clock=clock, rng=rng)
        threads = config.threads_per_core
        contexts = range(config.num_cores * threads)
        self._l1i_of_ctx = [self.l1i[ctx // threads] for ctx in contexts]
        self._l1d_of_ctx = [self.l1d[ctx // threads] for ctx in contexts]
        self._sctx_of = [self._llc_sbit_ctx(ctx) for ctx in contexts]
        self._private_list = self.l1i + self.l1d
        self._tc_enabled = self.tc_config.enabled
        self._llc_guard = self.tc_config.enabled or self.tc_config.ftm_mode
        self._dram_first = self.tc_config.dram_latency_on_first_access
        self._prefetch_on = config.next_line_prefetch
        #: interned AccessResult instances keyed by (latency, level,
        #: first) — the value set is tiny and the dataclass is frozen, so
        #: sharing instances is safe and skips ~0.5us of construction.
        self._results: Dict[Tuple[int, str, bool], AccessResult] = {}
        #: adjustment slot for the derived hierarchy "accesses" counter
        #: (external add()s and reset rebasing; see _FastHierarchyStats)
        self.n_accesses = 0
        self.stats = _FastHierarchyStats(self)
        self.c_accesses = self.stats.bound_counter("accesses")
        llc = self.llc
        #: per-context L1 hot entries: the cache plus every per-access
        #: attribute (masks, slot lists, memoryviews, this context's
        #: s-bit) resolved once, so the hot path does one list index and
        #: one tuple unpack instead of a dozen attribute/dict loads.
        #: Everything captured is set once and mutated only in place.
        #: The two pre-interned results cover the dominant outcomes (pure
        #: L1 hit, clean LLC hit) without building a lookup key.
        interned = self._intern_result

        def l1_entry(l1: FastCache, ctx: int):
            return (
                l1,
                l1.name,
                l1._set_mask,
                l1._tag_to_way,
                l1.ways,
                l1.hit_latency,
                l1._ctx_bit_of[ctx],
                l1.sbits_mv,
                l1.tc_mv,
                l1.valid_mv,
                l1._tags,
                l1.tags_mv,
                l1._dirty,
                l1._last_used,
                l1._filled_at,
                l1._occ,
                l1._victim_stamps,
                l1._ever_filled,
                interned(l1.hit_latency, "L1"),
                interned(l1.hit_latency + llc.hit_latency, "LLC"),
                range(1, l1.ways),
            )

        self._hot_l1i = [
            l1_entry(self._l1i_of_ctx[ctx], ctx) for ctx in contexts
        ]
        self._hot_l1d = [
            l1_entry(self._l1d_of_ctx[ctx], ctx) for ctx in contexts
        ]
        #: LLC hot state, unpacked only on the L1-miss path; lbit_of maps
        #: each hardware context to its LLC s-bit (via the SMT sibling
        #: representative when llc_sbits_per_core collapses threads)
        self._hot_llc = (
            llc._set_mask,
            llc._tag_to_way,
            llc.ways,
            llc.hit_latency,
            llc.sbits_mv,
            llc._last_used,
            [llc._ctx_bit_of[self._sctx_of[ctx]] for ctx in contexts],
        )
        #: invariant hot state, unpacked once per access (one attribute
        #: load instead of a dozen); everything here is set once and
        #: never rebound (the listener lists mutate only in place)
        self._hot = (
            self.line_shift,
            self._tc_mask,
            self._hot_l1i,
            self._hot_l1d,
            self._sctx_of,
            self._results,
            self.directory._owner,
            self.directory._sharers,
            self.dram,
            llc,
            self.clock,
            self._tc_enabled,
            self._llc_guard,
            self._prefetch_on,
            self.pre_access_listeners,
            self.post_access_listeners,
            self._hot_llc,
        )

    def _make_cache(
        self, config, hw_contexts, hit_latency, rng, max_sharers=0
    ) -> FastCache:
        return FastCache(
            config, hw_contexts, hit_latency, rng, max_sharers=max_sharers
        )

    def _intern_result(
        self, latency: int, level: str, first: bool = False
    ) -> AccessResult:
        key = (latency, level, first)
        result = self._results.get(key)
        if result is None:
            result = AccessResult(latency, level, first)
            self._results[key] = result
        return result

    # ------------------------------------------------------------------
    # The access protocol, inlined
    # ------------------------------------------------------------------
    def access(self, ctx: int, addr: int, kind: AccessKind, now: int) -> AccessResult:
        (
            line_shift,
            tc_mask,
            hot_l1i,
            hot_l1d,
            sctx_of,
            results,
            owners,
            all_sharers,
            dram,
            llc,
            clock,
            tc_enabled,
            llc_guard,
            prefetch_on,
            pre_listeners,
            post_listeners,
            hot_llc,
        ) = self._hot
        if ctx < 0:
            raise SimulationError(f"hardware context {ctx} out of range")
        try:
            (
                l1,
                l1name,
                set_mask,
                t2w_of_set,
                ways,
                hit_latency,
                bit,
                sbits_mv,
                tc_mv,
                valid_mv,
                tags,
                tags_mv,
                dirty,
                last_used,
                filled_at,
                occ,
                victim_stamps,
                ever_filled,
                hit_result,
                llc_hit_result,
                upper_ways,
            ) = (hot_l1i if kind is _IFETCH else hot_l1d)[ctx]
        except IndexError:
            raise SimulationError(
                f"hardware context {ctx} out of range"
            ) from None
        is_write = kind is _STORE
        line = addr >> line_shift
        if now > clock._now:
            clock._now = now
        if pre_listeners:
            for listener in pre_listeners:
                listener(ctx, line, kind, now)
        set_idx = line & set_mask
        t2w = t2w_of_set[set_idx]
        if line in t2w:
            way = t2w[line]
            idx = set_idx * ways + way
            if tc_enabled and not (sbits_mv[idx] & bit):
                l1.n_first_access_misses += 1
                below, level = self._probe_llc(line, ctx, now)
                if l1.event_listener is None and l1.max_sharers == 0:
                    sbits_mv[idx] |= bit
                else:
                    l1.set_sbit(set_idx, way, ctx)
                latency = hit_latency + below
                key = (latency, level, True)
                result = results.get(key)
                if result is None:
                    result = AccessResult(latency, level, True)
                    results[key] = result
            else:
                l1.n_hits += 1
                result = hit_result
            last_used[idx] = now
            if is_write:
                # Store upgrade: dirty the slot, invalidate other private
                # copies, take ownership (the inlined _store_upgrade).
                dirty[idx] = True
                self._invalidate_other_private(l1, line)
                owners[line] = l1name
                sharers = all_sharers.get(line)
                if sharers is None:
                    sharers = all_sharers[line] = set()
                sharers.add(l1name)
        else:
            l1.n_misses += 1
            first = False
            result = None
            # -------- LLC (the inlined _access_llc) --------
            (
                llc_set_mask,
                llc_t2w_of_set,
                llc_ways,
                llc_hit_lat,
                llc_sbits_mv,
                llc_last_used,
                lbit_of,
            ) = hot_llc
            lset = line & llc_set_mask
            lway = llc_t2w_of_set[lset].get(line)
            if lway is not None:
                lidx = lset * llc_ways + lway
                owner = owners.get(line) if owners else None
                if owner is not None and owner != l1name:
                    extra, level = self._remote_owner_transfer(line, owner)
                else:
                    extra = 0
                    level = ""
                if is_write:
                    self._invalidate_other_private(l1, line)
                lbit = lbit_of[ctx]
                if llc_guard and not (llc_sbits_mv[lidx] & lbit):
                    first = True
                    llc.n_first_access_misses += 1
                    dram_latency = dram.access(line)
                    below = llc_hit_lat + (
                        dram_latency if dram_latency > extra else extra
                    )
                    level = "DRAM"
                    if llc.event_listener is None and llc.max_sharers == 0:
                        llc_sbits_mv[lidx] |= lbit
                    else:
                        llc.set_sbit(lset, lway, sctx_of[ctx])
                else:
                    llc.n_hits += 1
                    below = llc_hit_lat + extra
                    if level == "":
                        level = "LLC"
                        if not extra:
                            result = llc_hit_result
                llc_last_used[lidx] = now
                if is_write:
                    owners[line] = l1name
                sharers = all_sharers.get(line)
                if sharers is None:
                    sharers = all_sharers[line] = set()
                sharers.add(l1name)
            else:
                below, level = self._llc_miss(
                    l1, line, ctx, sctx_of[ctx], is_write, now
                )
            # -------- L1 fill (the inlined _fill_private) --------
            if l1.event_listener is not None:
                self._fill_private(l1, line, ctx, is_write, now)
            else:
                base = set_idx * ways
                vtag = -1
                if occ[set_idx] < ways:
                    way = 0
                    while tags[base + way] >= 0:
                        way += 1
                    idx = base + way
                    occ[set_idx] += 1
                    valid_mv[idx] = True
                else:
                    if victim_stamps is None:
                        way = l1._set_rngs[set_idx].randint(0, ways - 1)
                    else:
                        way = 0
                        best = victim_stamps[base]
                        for w in upper_ways:
                            stamp = victim_stamps[base + w]
                            if stamp < best:
                                best = stamp
                                way = w
                    idx = base + way
                    vtag = tags[idx]
                    vdirty = dirty[idx]
                    del t2w[vtag]
                    l1.n_evictions += 1
                    if vdirty:
                        l1.n_dirty_evictions += 1
                    # No s-bit/valid clears here: the slot is refilled
                    # just below, which overwrites sbits and leaves valid
                    # True — the same final state the evict-then-install
                    # pair of the reference engine produces.
                tnow = now & tc_mask
                tags[idx] = line
                dirty[idx] = is_write
                last_used[idx] = tnow
                filled_at[idx] = tnow
                t2w[line] = way
                tc_mv[idx] = tnow
                sbits_mv[idx] = bit
                l1.n_fills += 1
                if line not in ever_filled:
                    ever_filled.add(line)
                    l1.n_cold_misses += 1
                if is_write:
                    self._invalidate_other_private(l1, line)
                    owners[line] = l1name
                    sharers = all_sharers.get(line)
                    if sharers is None:
                        sharers = all_sharers[line] = set()
                    sharers.add(l1name)
                if vtag >= 0:
                    if vdirty:
                        self._writeback_to_llc(vtag)
                        l1.n_writebacks += 1
                    sharers = all_sharers.get(vtag)
                    if sharers is not None:
                        # Unlike Directory.remove_sharer, leave the emptied
                        # set in place: every public reader treats empty and
                        # absent identically, and the next fill of this line
                        # reuses the set instead of reallocating one.
                        sharers.discard(l1name)
                    if owners and owners.get(vtag) == l1name:
                        del owners[vtag]
            if prefetch_on:
                self._prefetch_next_line(l1, line + 1, ctx, now)
            if result is None:
                latency = hit_latency + below
                key = (latency, level, first)
                result = results.get(key)
                if result is None:
                    result = AccessResult(latency, level, first)
                    results[key] = result
        if post_listeners:
            for listener in post_listeners:
                listener(ctx, line, kind, now, result)
        return result

    # ------------------------------------------------------------------
    # Batched access execution (vectorized)
    # ------------------------------------------------------------------
    #: below this batch size the numpy fixed costs beat the win
    _BATCH_MIN = 32
    #: scalar accesses executed after each vectorized window stops at a
    #: boundary, before reclassifying (amortizes classification cost when
    #: boundaries cluster — a miss usually drags dependent misses along)
    _BATCH_SCALAR_RUN = 8
    #: adaptive classification-window bounds (the miss-resolution kernels
    #: retire whole windows, so the ceiling is set by classification cost
    #: amortization, not by boundary density)
    _BATCH_WINDOW_MIN = 32
    _BATCH_WINDOW_MAX = 4096
    #: re-plan rounds allowed per window before a stale reference
    #: cuts the window instead (0 disables conversion entirely)
    _BATCH_REPLANS = 1

    def access_batch(
        self,
        ctx: int,
        addrs,
        kinds: KindsArg = AccessKind.LOAD,
        now: int = 0,
        advance: int = 1,
        nows=None,
    ) -> BatchResult:
        """Vectorized run of same-context accesses, on one of two routes.

        A batch the miss-resolution kernels can retire exactly goes to
        :meth:`_access_batch_kernel` (docs/internals.md §15), which
        classifies whole windows with numpy and retires hits, first-access
        misses, fills/evictions, and stores without re-entering the scalar
        loop.  Every other batch runs :meth:`MemoryHierarchy.access_batch`,
        the scalar reference loop (see :meth:`_kernel_takes`).

        Semantics (results, counters, final s-bit/Tc/LRU state, clock)
        are identical to the reference loop's, which the differential fuzz
        enforces, and both routes validate every argument before the
        first access runs.
        """
        n = len(addrs)
        if not self._kernel_takes(ctx, n, kinds):
            return MemoryHierarchy.access_batch(
                self, ctx, addrs, kinds, now=now, advance=advance, nows=nows
            )
        kinds, nows_np = check_batch_args(n, kinds, advance, nows)
        addrs_np = np.asarray(addrs, dtype=np.int64)
        lines = addrs_np >> self.line_shift
        if isinstance(kinds, AccessKind):
            uniform: Optional[AccessKind] = kinds
            kseq: Optional[List[AccessKind]] = None
            is_ifetch = is_store = None
            has_store = False
            need_i = kinds is _IFETCH
        else:
            uniform = None
            kseq = kinds
            is_ifetch = np.fromiter(
                (k is _IFETCH for k in kseq), dtype=bool, count=n
            )
            is_store = np.fromiter(
                (k is _STORE for k in kseq), dtype=bool, count=n
            )
            has_store = bool(is_store.any())
            need_i = bool(is_ifetch.any())
        return self._access_batch_kernel(
            ctx,
            addrs_np,
            lines,
            uniform,
            kseq,
            is_ifetch,
            is_store,
            has_store,
            need_i,
            nows_np,
            now,
            advance,
            self._l1d_of_ctx[ctx],
            self._l1i_of_ctx[ctx],
        )

    def _kernel_takes(self, ctx: int, n: int, kinds: KindsArg) -> bool:
        """Whether the kernels retire this batch; every other batch runs
        the scalar reference loop.

        Below ``_BATCH_MIN`` accesses the numpy fixed costs beat the win;
        every store is a boundary, so an all-store batch has no vector
        work; hierarchy pre/post access listeners must observe every
        access in order; an out-of-range ``ctx`` raises on the loop's
        first access.  The remaining gates are features the kernels do
        not model: cache event listeners need a callback per event,
        ``max_sharers`` rewrites s-bit sets on install, and CAT
        partitions constrain victim ways.
        """
        if (
            n < self._BATCH_MIN
            or kinds is _STORE
            or self.pre_access_listeners
            or self.post_access_listeners
            or not 0 <= ctx < len(self._l1d_of_ctx)
        ):
            return False
        caches = (self._l1d_of_ctx[ctx], self._l1i_of_ctx[ctx], self.llc)
        return (
            all(c.event_listener is None and c.max_sharers == 0 for c in caches)
            and self._llc_allowed_ways(ctx) is None
        )

    def _access_batch_kernel(
        self,
        ctx: int,
        addrs_np,
        lines,
        uniform: Optional[AccessKind],
        kseq: Optional[List[AccessKind]],
        is_ifetch,
        is_store,
        has_store: bool,
        need_i: bool,
        nows_np,
        now: int,
        advance: int,
        l1d: FastCache,
        l1i: FastCache,
    ) -> BatchResult:
        """Retire whole classified windows — hits, first-access misses,
        fills/evictions, and stores — without the scalar fallback.

        Per adaptive window (pipeline detailed in docs/internals.md §15):

        1. **classify** — one gathered compare per way against the
           per-context effective-tag arrays splits the window into simple
           hits and *specials* (first accesses, misses, stores).
        2. **plan** (read-only) — a sparse walk over the specials groups
           them into cohorts, derives each miss/store outcome from entry
           state, and cuts the window at the first position whose
           classification an earlier special invalidates (same line as
           an earlier event, second fill into one set, ...).  Events the
           kernels cannot retire exactly (foreign owner transfer, LLC
           eviction, store with a remote copy, prefetch side effects)
           become a scalar boundary instead.
        3. **victim rehearsal** (read-only) — LRU victims for evicting
           fills come from an overlay copy of the recency stamps with
           the window's earlier touches scattered in; a later reference
           to a chosen victim line shrinks the cut, since its
           classification is stale once the line is gone.
        4. **apply** — bulk counters, one last-write-wins LRU scatter per
           cache, the s-bit/Tc cohort scatters for first-access misses,
           then a sparse in-order event loop for fills/evictions/stores
           (tag→way dicts, dirty writebacks, ``_ever_filled``, directory
           bookkeeping) against live state.

        Nothing mutates before the cut is final, so a
        :class:`SimulationTimeout` between windows always observes a
        consistent retired prefix, and every cut reason is guaranteed to
        make progress on the next window's reclassification.
        """
        n = int(lines.shape[0])
        llc = self.llc
        dram = self.dram
        clock = self.clock
        directory = self.directory
        owners = directory._owner
        all_sharers = directory._sharers
        tc_enabled = self._tc_enabled
        llc_guard = self._llc_guard
        dram_first = self._dram_first
        ev_ok = not self._prefetch_on
        tc_mask = self._tc_mask
        sctx = self._sctx_of[ctx]
        private_list = self._private_list
        dram_acc = dram.access
        intern = self._intern_result
        shared = LineState.SHARED

        d_mask, d_ways, d_bit = l1d._set_mask, l1d.ways, l1d._ctx_bit_of[ctx]
        i_mask, i_ways, i_bit = l1i._set_mask, l1i.ways, l1i._ctx_bit_of[ctx]
        cinfo = {
            False: (l1d, d_mask, d_ways, d_bit),
            True: (l1i, i_mask, i_ways, i_bit),
        }
        llc_mask, llc_ways = llc._set_mask, llc.ways
        llc_t2w = llc._tag_to_way
        llc_occ = llc._occ
        llc_sbits_mv = llc.sbits_mv
        llc_tags_f = llc._tags
        lbit = llc._ctx_bit_of[sctx]
        # Both L1s share one latency knob (built with latency.l1_hit).
        l1_lat = l1d.hit_latency
        llc_lat = llc.hit_latency
        step = advance + l1_lat
        lat_llc = l1_lat + llc_lat
        lat_dram = lat_llc + dram.latency
        hit_res = intern(l1_lat, "L1")
        res_llc_hit = intern(lat_llc, "LLC")
        res_llc_first = intern(lat_llc, "LLC", True)
        res_dram = intern(lat_dram, "DRAM")
        res_dram_first = intern(lat_dram, "DRAM", True)

        prim = uniform is _IFETCH
        if uniform is not None:
            keys: Tuple[bool, ...] = (prim,)
        else:
            keys = (False, True) if need_i else (False,)

        # Per-context effective tags: tag match AND s-bit set collapse to
        # one gathered compare (-2 never matches a line address).  With
        # Tc disabled the live flat tags serve directly — fills update
        # them in place, so no rebuild is ever needed.
        etf: Dict[bool, Any] = {}
        for kf in keys:
            l1c = cinfo[kf][0]
            if tc_enabled:
                etf[kf] = np.where(
                    (l1c.sbits & cinfo[kf][3]) != 0, l1c.tags_np, -2
                ).reshape(-1)
            else:
                etf[kf] = l1c.tags_flat
        stale = False

        results: List[AccessResult] = []
        extend = results.extend
        append = results.append
        check_deadline = self._check_batch_deadline
        scalar_access = self.access
        wmin = self._BATCH_WINDOW_MIN
        wmax = self._BATCH_WINDOW_MAX
        replan_cap = self._BATCH_REPLANS
        arange = np.arange(min(wmax, n), dtype=np.int64)
        # reusable per-window scratch: latencies, their prefix sum, and
        # issue times are rebuilt every re-plan round, so allocating them
        # once is a measurable win at large windows
        lat_buf = np.empty(min(wmax, n), dtype=np.int64)
        cs_buf = np.empty_like(lat_buf)
        t_buf = np.empty_like(lat_buf)
        adv_ar = advance * arange if advance else None
        # evicted-line scan LUT: when line addresses are small ints a
        # reusable byte mask makes the membership test one gather
        # instead of a sort-based isin per round
        lmax = int(lines.max()) if n else -1
        vmask = (
            np.zeros(lmax + 1, dtype=bool)
            if 0 <= lmax < (1 << 22)
            else None
        )
        window = min(256, wmax)
        cursor = now
        i = 0
        # Wall-clock phase profiler (repro.obs.spans.PhaseAccumulator).
        # ``None`` is the common case and costs one load per window plus
        # guarded branches at the phase boundaries; when installed, each
        # boundary adds one perf_counter_ns call and an int add.  The
        # replan loop can break out of the plan walk directly, so ``_reh``
        # tracks whether the open segment is plan or rehearsal time.
        prof = self.kernel_profiler
        while i < n:
            check_deadline(i, n)
            if prof is not None:
                _t0 = perf_counter_ns()
            if stale:
                # a scalar run moved tags/s-bits under the etag mirrors
                for kf in keys:
                    l1c = cinfo[kf][0]
                    etf[kf] = np.where(
                        (l1c.sbits & cinfo[kf][3]) != 0, l1c.tags_np, -2
                    ).reshape(-1)
                stale = False
            j = i + window
            if j > n:
                j = n
            m = j - i
            sl = lines[i:j]
            if uniform is None:
                sif = is_ifetch[i:j]
                sst = is_store[i:j]
            else:
                sif = sst = None
            # ---- phase 1: classify -------------------------------------
            hits = {}
            slots_c = {}
            for kf in keys:
                cways = cinfo[kf][2]
                base = (sl & cinfo[kf][1]) * cways
                cetf = etf[kf]
                h = cetf[base] == sl
                wsel = np.zeros(m, dtype=np.int64)
                for w in range(1, cways):
                    eqw = cetf[base + w] == sl
                    wsel[eqw] = w
                    h |= eqw
                hits[kf] = h
                slots_c[kf] = base + wsel
            if uniform is not None:
                simple = hits[prim]
            elif need_i:
                simple = np.where(sif, hits[True], hits[False])
            else:
                simple = hits[False].copy()
            if sst is not None and has_store:
                simple &= ~sst
            nspec = m - int(np.count_nonzero(simple))
            if prof is not None:
                _tp = perf_counter_ns()
                prof.classify_ns += _tp - _t0
                prof.windows += 1

            if nspec == 0:
                # whole window is simple hits: touch + count + results
                if nows_np is not None:
                    times = nows_np[i:j]
                else:
                    times = cursor + step * arange[:m]
                    cursor += step * m
                if uniform is not None:
                    l1u = cinfo[prim][0]
                    l1u.last_flat[slots_c[prim]] = times
                    l1u.n_hits += m
                elif need_i:
                    di = ~sif
                    nd = int(np.count_nonzero(di))
                    if nd:
                        l1d.last_flat[slots_c[False][di]] = times[di]
                        l1d.n_hits += nd
                    if nd < m:
                        l1i.last_flat[slots_c[True][sif]] = times[sif]
                        l1i.n_hits += m - nd
                else:
                    l1d.last_flat[slots_c[False]] = times
                    l1d.n_hits += m
                extend([hit_res] * m)
                t_last = int(times[m - 1])
                if t_last > clock._now:
                    clock._now = t_last
                if prof is not None:
                    prof.apply_ns += perf_counter_ns() - _tp
                    prof.batch_accesses += m
                i = j
                if m == window and window < wmax:
                    window <<= 1
                continue

            # ---- phase 2: plan (read-only walk over the specials) ------
            # A reference to a line evicted earlier in the window was
            # classified against entry state that no longer holds it.
            # Rather than cutting the window there, convert the stale
            # positions into forced misses and re-plan (the numpy
            # classification is reused; only the cheap sparse phases
            # rerun), falling back to a cut after a few rounds.
            stale_pos: set = set()
            replans = 0
            _reh = False
            while True:
                nsm = ~simple
                ns_pos = np.nonzero(nsm)[0].tolist()
                ns_lines = sl[nsm].tolist()
                if uniform is None:
                    ns_if = sif[nsm].tolist()
                    ns_st = sst[nsm].tolist()
                else:
                    ns_if = ns_st = None
                cut = m
                hard = False
                # line → (cache, way-or--2, set, llc_sbit_known_set): every
                # line an event has already acted on this window.  Way -2
                # means "installed by an in-window fill": the slot is
                # resolved by the rehearsal (plan-time) and the live
                # tag→way dict (apply-time).  The last element records
                # whether the event guaranteed the line's LLC s-bit is set
                # (probes and fills do), which a later re-fill of the same
                # line needs because entry LLC state went stale.
                inwin: Dict[int, Tuple[bool, int, int, bool]] = {}
                occ_sim: Dict[Tuple[bool, int], int] = {}
                locc_sim: Dict[int, int] = {}
                # line → LLC slot of an in-window LLC fill: fill() scans
                # for the first free way, so the plan can rehearse the
                # choice and later re-fills see a valid LLC hit
                llc_new: Dict[int, int] = {}
                llc_taken: Dict[int, set] = {}
                b_first: Dict[bool, dict] = {False: {}, True: {}}
                b_pos: list = []
                b_slot: list = []
                b_lidx: list = []
                b_line: list = []
                b_isif: list = []
                bhits: list = []  # (pos, slot, is_ifetch) — extra plain hits
                pend: list = []  # (pos, line, is_ifetch, counts_as_hit)
                # (pos, is_if, is_st, code, line, set, way, lidx, flag, lat,
                # result); codes: 0 store-hit, 1 store-probe, 2 miss with an
                # LLC hit, 3 miss with an LLC fill (lidx carries the LLC set)
                events: list = []
                evicting: list = []  # event indices that displace an L1 line
                for sx in range(len(ns_pos)):
                    q = ns_pos[sx]
                    line = ns_lines[sx]
                    if ns_if is None:
                        e_if = prim
                        e_st = False
                    else:
                        e_if = ns_if[sx]
                        e_st = ns_st[sx]
                    l1c, cmask, cways, cbit = cinfo[e_if]
                    forced = bool(stale_pos) and q in stale_pos
                    prev_lsb = False
                    refill = False
                    if forced:
                        fprev = inwin.get(line)
                        if fprev is not None:
                            # filled in-window, then evicted: plan a second
                            # fill, carrying what the first one established
                            # about the LLC s-bit (entry state is stale)
                            if fprev[0] != e_if:
                                cut = q
                                break
                            prev_lsb = fprev[3]
                            refill = True
                        prev = None
                    else:
                        prev = inwin.get(line)
                    if prev is not None:
                        # an earlier event already resolved this line: it is
                        # resident with the s-bit set, so this is a plain hit
                        # (or a store upgrade of one)
                        p_if, p_w, p_set, _p_lsb = prev
                        if p_if != e_if:
                            # cross-cache replay would need LLC re-planning
                            cut = q
                            break
                        if not e_st:
                            if p_w >= 0:
                                bhits.append((q, p_set * cways + p_w, e_if))
                            else:
                                pend.append((q, line, e_if, True))
                            continue
                        other_copy = False
                        for c in private_list:
                            if (
                                c is not l1c
                                and c._tag_to_way[line & c._set_mask].get(line)
                                is not None
                            ):
                                other_copy = True
                                break
                        if other_copy:
                            # entry state may still hold a foreign copy the
                            # in-window events never checked — invalidating
                            # it is scalar work
                            cut = q
                            hard = True
                            break
                        events.append(
                            (q, e_if, True, 0, line, p_set, p_w, -1, False,
                             l1_lat, hit_res)
                        )
                        if p_w < 0:
                            pend.append((q, line, e_if, False))
                        continue
                    set_ = line & cmask
                    # a forced (stale-converted) position is a miss even
                    # though entry state still shows the line resident
                    w = None if forced else l1c._tag_to_way[set_].get(line)
                    b_own = b_first[e_if]
                    b_other = b_first[not e_if]
                    if w is not None and not e_st:
                        # resident, s-bit clear: a first-access miss (B)
                        bprev = b_own.get(line)
                        if bprev is not None:
                            # repeat: the first probe set the s-bit, so this
                            # retires as a plain hit
                            bhits.append((q, bprev[1], e_if))
                            continue
                        if line in b_other:
                            # the other cache's probe already set the shared
                            # LLC s-bit; the entry-state plan is stale
                            cut = q
                            break
                        lset = line & llc_mask
                        lw = llc_t2w[lset].get(line)
                        if lw is None:
                            # inclusion violated — the scalar path raises it
                            cut = q
                            hard = True
                            break
                        slot = set_ * cways + w
                        b_pos.append(q)
                        b_slot.append(slot)
                        b_lidx.append(lset * llc_ways + lw)
                        b_line.append(line)
                        b_isif.append(e_if)
                        b_own[line] = (q, slot)
                        continue
                    if w is not None:
                        # resident store: upgrade (dirty + ownership), with a
                        # probe first when the s-bit is clear
                        bprev = b_own.get(line)
                        if line in b_other:
                            cut = q
                            break
                        other_copy = False
                        for c in private_list:
                            if (
                                c is not l1c
                                and c._tag_to_way[line & c._set_mask].get(line)
                                is not None
                            ):
                                other_copy = True
                                break
                        if other_copy:
                            # invalidating the remote copy is scalar work
                            cut = q
                            hard = True
                            break
                        idx = set_ * cways + w
                        lsbk = True
                        if bprev is not None or not tc_enabled or (
                            l1c.sbits_mv[idx] & cbit
                        ):
                            # s-bit already set (possibly by an earlier B,
                            # which also set the LLC s-bit; a plain L1
                            # s-bit says nothing about the LLC's)
                            lsbk = bprev is not None
                            events.append(
                                (q, e_if, True, 0, line, set_, w, -1, False,
                                 l1_lat, hit_res)
                            )
                        else:
                            lset = line & llc_mask
                            lw = llc_t2w[lset].get(line)
                            if lw is None:
                                cut = q
                                hard = True
                                break
                            lidx = lset * llc_ways + lw
                            lsb = bool(llc_sbits_mv[lidx] & lbit)
                            if lsb and not dram_first:
                                events.append(
                                    (q, e_if, True, 1, line, set_, w, lidx,
                                     True, lat_llc, res_llc_first)
                                )
                            else:
                                events.append(
                                    (q, e_if, True, 1, line, set_, w, lidx,
                                     lsb, lat_dram, res_dram_first)
                                )
                        inwin[line] = (e_if, w, set_, lsbk)
                        continue
                    # not resident in its L1: a real miss
                    if not ev_ok:
                        # the next-line prefetch issues extra fills/fetches
                        cut = q
                        hard = True
                        break
                    if line in b_own or line in b_other:
                        cut = q
                        break
                    owner = owners.get(line)
                    if owner is not None and owner != l1c.name:
                        # foreign owner transfer (possible dirty pull)
                        cut = q
                        hard = True
                        break
                    if e_st:
                        other_copy = False
                        for c in private_list:
                            if (
                                c is not l1c
                                and c._tag_to_way[line & c._set_mask].get(line)
                                is not None
                            ):
                                other_copy = True
                                break
                        if other_copy:
                            cut = q
                            hard = True
                            break
                    lset = line & llc_mask
                    lw = llc_t2w[lset].get(line)
                    if lw is not None:
                        lidx = lset * llc_ways + lw
                        if (
                            llc_guard
                            and not prev_lsb
                            and not (llc_sbits_mv[lidx] & lbit)
                        ):
                            ev = (q, e_if, e_st, 2, line, set_, -1, lidx,
                                  True, lat_dram, res_dram_first)
                        else:
                            ev = (q, e_if, e_st, 2, line, set_, -1, lidx,
                                  False, lat_llc, res_llc_hit)
                    elif refill and line in llc_new:
                        # the first fill installed the line in the LLC at
                        # a rehearsed way: the re-fill is an LLC hit
                        ev = (q, e_if, e_st, 2, line, set_, -1,
                              llc_new[line], False, lat_llc, res_llc_hit)
                    elif refill:
                        cut = q
                        break
                    else:
                        locc = locc_sim.get(lset)
                        if locc is None:
                            locc = llc_occ[lset]
                        if locc >= llc_ways:
                            # LLC eviction (back-invalidations) stays scalar
                            cut = q
                            hard = True
                            break
                        locc_sim[lset] = locc + 1
                        lbase = lset * llc_ways
                        taken = llc_taken.get(lset)
                        lwf = 0
                        while llc_tags_f[lbase + lwf] >= 0 or (
                            taken is not None and lwf in taken
                        ):
                            lwf += 1
                        if taken is None:
                            llc_taken[lset] = {lwf}
                        else:
                            taken.add(lwf)
                        llc_new[line] = lbase + lwf
                        ev = (q, e_if, e_st, 3, line, set_, -1, lset, False,
                              lat_dram, res_dram)
                    okey = (e_if, set_)
                    occ = occ_sim.get(okey)
                    if occ is None:
                        occ = l1c._occ[set_]
                    if occ >= cways:
                        if l1c._victim_stamps is None:
                            # random replacement draws from the per-set rng —
                            # a rehearsed draw could not be rolled back
                            cut = q
                            hard = True
                            break
                        evicting.append(len(events))
                    else:
                        occ_sim[okey] = occ + 1
                    events.append(ev)
                    inwin[line] = (e_if, -2, set_, True)

                # ---- latencies and issue times -----------------------------
                nb_all = len(b_pos)
                if nb_all:
                    b_pos_np = np.array(b_pos, dtype=np.int64)
                    b_lidx_np = np.array(b_lidx, dtype=np.int64)
                    b_sb = (llc.sbits_flat[b_lidx_np] & lbit) != 0
                cs = None
                if nows_np is not None:
                    times = nows_np[i : i + cut]
                else:
                    lat = lat_buf[:cut]
                    lat.fill(l1_lat)
                    if nb_all:
                        if dram_first:
                            lat[b_pos_np] = lat_dram
                        else:
                            lat[b_pos_np] = np.where(b_sb, lat_llc, lat_dram)
                    for ev in events:
                        lat[ev[0]] = ev[9]
                    cs = np.cumsum(lat, out=cs_buf[:cut])
                    times = np.subtract(cs, lat, out=t_buf[:cut])
                    if adv_ar is not None:
                        times += adv_ar[:cut]
                    times += cursor

                # ---- LRU touch plan (also feeds the victim rehearsal) ------
                touch = {}
                for kf in keys:
                    if uniform is not None:
                        touch[kf] = simple.copy()
                    elif kf:
                        touch[kf] = simple & sif
                    else:
                        touch[kf] = simple & ~sif if need_i else simple.copy()
                for q, slot, f in bhits:
                    touch[f][q] = True
                    slots_c[f][q] = slot
                for x in range(nb_all):
                    f = b_isif[x]
                    touch[f][b_pos[x]] = True
                    slots_c[f][b_pos[x]] = b_slot[x]
                for ev in events:
                    # resident stores touch like hits (pending slots — way
                    # -2, stores to in-window fills — patch after rehearsal)
                    if ev[3] <= 1 and ev[6] >= 0:
                        f = ev[1]
                        touch[f][ev[0]] = True
                        slots_c[f][ev[0]] = ev[5] * cinfo[f][2] + ev[6]

                if prof is not None:
                    _t1 = perf_counter_ns()
                    prof.plan_ns += _t1 - _tp
                    prof.events += len(events)
                    _tp = _t1
                    _reh = True

                # ---- phase 3: victim rehearsal + stale-victim hazard -------
                # Replay every fill of a cache, in order, against an overlay
                # of its replacement stamps (touches scattered in for LRU,
                # truncated fill stamps for both policies) plus a tag
                # overlay, so chained same-set fills pick the exact victims
                # the in-order scalar loop would.
                victim_of: Dict[int, int] = {}
                fill_slot: Dict[int, int] = {}
                fill_seq: Dict[int, list] = {}
                vline_ev: Dict[Tuple[int, bool], list] = {}
                vlines: list = []
                if evicting or pend:
                    evset = set(evicting)
                    for kf in keys:
                        fills_c = [
                            ei
                            for ei, ev in enumerate(events)
                            if ev[1] == kf and ev[3] >= 2
                        ]
                        if not fills_c:
                            continue
                        has_ev = any(ei in evset for ei in fills_c)
                        pend_c = [p for p in pend if p[2] == kf]
                        if not has_ev and not pend_c:
                            continue
                        l1c, _, cways, _ = cinfo[kf]
                        tags_live = l1c.tags_flat
                        sim_tags: Dict[int, int] = {}
                        tpos = tsl = tt = None
                        # the overlay lives as a plain list: the arrays are
                        # a few hundred slots and the loop is scalar, where
                        # list indexing beats numpy call overhead
                        if not has_ev:
                            # only pending-hit slots are needed: a free-way
                            # sim suffices, no stamp overlay
                            ov = None
                        elif l1c._victim_stamps is l1c._filled_at:
                            # FIFO: touches never move the fill stamps
                            ov = l1c.filled_flat.copy()
                        else:
                            ov = l1c.last_flat.copy()
                            tpos = np.nonzero(touch[kf][:cut])[0]
                            tsl = slots_c[kf][tpos]
                            tt = times[tpos]
                        done = 0
                        pi = 0
                        npc = len(pend_c)
                        fpos = np.array(
                            [events[ei][0] for ei in fills_c],
                            dtype=np.int64,
                        )
                        if ov is not None:
                            ftimes = (times[fpos] & tc_mask).tolist()
                        if tpos is not None:
                            uptos = np.searchsorted(tpos, fpos).tolist()
                            if npc:
                                ptimes = times[
                                    np.array(
                                        [p[0] for p in pend_c],
                                        dtype=np.int64,
                                    )
                                ].tolist()
                        for fx, ei in enumerate(fills_c):
                            ev = events[ei]
                            if tpos is not None:
                                upto = uptos[fx]
                                if upto > done:
                                    ov[tsl[done:upto]] = tt[done:upto]
                                    done = upto
                                # pending hits touch the slot their fill
                                # resolved to (always an earlier fill here)
                                while pi < npc and pend_c[pi][0] < ev[0]:
                                    ov[fill_slot[pend_c[pi][1]]] = ptimes[pi]
                                    pi += 1
                            base = ev[5] * cways
                            if ei in evset:
                                fw = int(ov[base : base + cways].argmin())
                                idx = base + fw
                                vline = sim_tags.get(idx)
                                if vline is None:
                                    vline = int(tags_live[idx])
                                victim_of[ei] = fw
                                vlines.append(vline)
                                vkey = (vline, kf)
                                evs = vline_ev.get(vkey)
                                if evs is None:
                                    vline_ev[vkey] = [ev[0]]
                                else:
                                    evs.append(ev[0])
                            else:
                                fw = 0
                                while True:
                                    idx = base + fw
                                    tag = sim_tags.get(idx)
                                    if tag is None:
                                        tag = tags_live[idx]
                                    if tag < 0:
                                        break
                                    fw += 1
                            if ov is not None:
                                ov[idx] = ftimes[fx]
                            sim_tags[idx] = ev[4]
                            fill_slot[ev[4]] = idx
                            fs = fill_seq.get(ev[4])
                            if fs is None:
                                fill_seq[ev[4]] = [(ev[0], idx)]
                            else:
                                fs.append((ev[0], idx))
                # any later reference to an evicted line was classified
                # against entry state that no longer holds it: convert
                # those positions to forced misses and re-plan (or cut)
                stale_new: list = []
                respec_new: list = []
                bad = -1
                if vlines:
                    # in-window refills (converted misses) make later
                    # references to the same line valid pends again
                    refills: Dict[Tuple[int, bool], list] = {}
                    if stale_pos:
                        for ev in events:
                            if ev[3] >= 2:
                                refills.setdefault(
                                    (ev[4], ev[1]), []
                                ).append(ev[0])
                        # conversions shift LRU stamps, which can shift
                        # victim choices: every prior conversion must
                        # stay justified (line evicted, not since
                        # refilled, before the position) under the
                        # re-planned schedule, else its forced miss
                        # would double-fill a still-resident line
                        for p0 in sorted(stale_pos):
                            if p0 >= cut:
                                break
                            kf0 = (
                                prim
                                if uniform is not None
                                else bool(sif[p0])
                            )
                            key0 = (int(sl[p0]), kf0)
                            laste0 = -1
                            for x in vline_ev.get(key0, ()):
                                if x < p0:
                                    laste0 = x
                                else:
                                    break
                            lastr0 = -1
                            for x in refills.get(key0, ()):
                                if x < p0:
                                    lastr0 = x
                                else:
                                    break
                            if laste0 < 0 or lastr0 > laste0:
                                bad = p0
                                break
                    # the scan still runs with ``bad`` set: the same
                    # re-planned schedule that invalidated a prior
                    # conversion can make a reference *before* ``bad``
                    # newly stale, and the cut must cover that too
                    seen_new: set = set()
                    if vmask is not None and 0 <= min(vlines) and max(
                        vlines
                    ) <= lmax:
                        vl = np.array(vlines, dtype=np.int64)
                        vmask[vl] = True
                        matches = np.nonzero(vmask[sl[:cut]])[0]
                        vmask[vl] = False
                    else:
                        matches = np.nonzero(
                            np.isin(
                                sl[:cut],
                                np.array(vlines, dtype=np.int64),
                            )
                        )[0]
                    for p in matches.tolist():
                        if p in stale_pos:
                            continue
                        # only the evicting cache's own references went
                        # stale; the other L1's state is untouched
                        kf_p = (
                            prim if uniform is not None else bool(sif[p])
                        )
                        key = (int(sl[p]), kf_p)
                        evs = vline_ev.get(key)
                        if evs is None:
                            continue
                        laste = -1
                        for x in evs:
                            if x < p:
                                laste = x
                            else:
                                break
                        if laste < 0:
                            continue
                        lastr = -1
                        for x in refills.get(key, ()):
                            if x < p:
                                lastr = x
                            else:
                                break
                        if lastr > laste:
                            # refilled since the eviction: the reference
                            # is valid again, but a still-simple plan
                            # points at the pre-eviction slot — reroute
                            # it through the walk to land as a pend
                            if bool(simple[p]):
                                respec_new.append(p)
                            continue
                        # convert only the first stale reference per
                        # line: once it refills, the rest become pends
                        if key in seen_new:
                            continue
                        seen_new.add(key)
                        stale_new.append(p)
                elif stale_pos:
                    # the re-plan lost every eviction (an earlier cut):
                    # no conversion before the cut can be justified
                    for p0 in sorted(stale_pos):
                        if p0 < cut:
                            bad = p0
                        break
                if bad >= 0:
                    # unstable fixpoint: cut just before the first
                    # contested position — the invalidated conversion or
                    # the earliest newly-stale reference, whichever comes
                    # first; the plan ahead of the cut carries no known
                    # hazard
                    if stale_new or respec_new:
                        bad = min(bad, min(stale_new + respec_new))
                    if bad < cut:
                        cut = bad
                        hard = False
                    break
                if not stale_new and not respec_new:
                    break
                if replans >= replan_cap:
                    # not converging: cut at the first stale reference
                    pmin = min(stale_new + respec_new)
                    if pmin < cut:
                        cut = pmin
                        hard = False
                    break
                replans += 1
                stale_pos.update(stale_new)
                simple[
                    np.array(stale_new + respec_new, dtype=np.int64)
                ] = False
                if prof is not None:
                    _t1 = perf_counter_ns()
                    prof.rehearse_ns += _t1 - _tp
                    prof.replans += 1
                    _tp = _t1
                    _reh = False

            if prof is not None:
                _t1 = perf_counter_ns()
                if _reh:
                    prof.rehearse_ns += _t1 - _tp
                else:
                    prof.plan_ns += _t1 - _tp
                _tp = _t1

            # ---- drop planned work past a shrunken cut -----------------
            C = cut
            while events and events[-1][0] >= C:
                events.pop()
            if nb_all and b_pos[-1] >= C:
                nbk = int(np.searchsorted(b_pos_np, C))
                b_pos_np = b_pos_np[:nbk]
                b_lidx_np = b_lidx_np[:nbk]
                b_sb = b_sb[:nbk]
                b_pos = b_pos[:nbk]
                b_slot = b_slot[:nbk]
                b_line = b_line[:nbk]
                b_isif = b_isif[:nbk]
                nb_all = nbk
            times = times[:C]
            if nows_np is not None:
                adv = 0
            else:
                adv = advance * C + (int(cs[C - 1]) if C else 0)

            # pending hits are plain hits; their LRU touches land on fill
            # slots, so they are applied after the event loop (a fill's
            # truncated stamp must not clobber a later touch)
            for q, _line, f, counts in pend:
                if q >= C:
                    break
                if counts:
                    cinfo[f][0].n_hits += 1

            # ---- phase 4: apply ----------------------------------------
            if C:
                if uniform is not None:
                    cinfo[prim][0].n_hits += int(
                        np.count_nonzero(simple[:C])
                    )
                elif need_i:
                    sc = simple[:C]
                    nhi = int(np.count_nonzero(sc & sif[:C]))
                    l1i.n_hits += nhi
                    l1d.n_hits += int(np.count_nonzero(sc)) - nhi
                else:
                    l1d.n_hits += int(np.count_nonzero(simple[:C]))
                for q, _slot, f in bhits:
                    if q < C:
                        cinfo[f][0].n_hits += 1

                if nb_all:
                    # first-access-miss cohort: LLC probes in bulk
                    llc.last_flat[b_lidx_np] = times[b_pos_np]
                    clear = b_lidx_np[~b_sb]
                    nclear = int(clear.shape[0])
                    nsb = nb_all - nclear
                    if nclear:
                        llc.sbits_flat[clear] |= lbit
                        llc.n_first_access_misses += nclear
                    if dram_first:
                        llc.n_accesses += nsb
                        dram.c_accesses.add(nb_all)
                    else:
                        llc.n_hits += nsb
                        if nclear:
                            dram.c_accesses.add(nclear)
                    b_slot_np = np.array(b_slot, dtype=np.int64)
                    b_line_np = np.array(b_line, dtype=np.int64)
                    if len(keys) == 1:
                        kf0 = keys[0]
                        l1c = cinfo[kf0][0]
                        l1c.sbits_flat[b_slot_np] |= cinfo[kf0][3]
                        etf[kf0][b_slot_np] = b_line_np
                        l1c.n_first_access_misses += nb_all
                    else:
                        fmask = np.array(b_isif, dtype=bool)
                        for kf in keys:
                            selm = fmask if kf else ~fmask
                            ssel = b_slot_np[selm]
                            nsel = int(ssel.shape[0])
                            if nsel:
                                l1c = cinfo[kf][0]
                                l1c.sbits_flat[ssel] |= cinfo[kf][3]
                                etf[kf][ssel] = b_line_np[selm]
                                l1c.n_first_access_misses += nsel

                # one position-ordered (last-write-wins) scatter per cache
                for kf in keys:
                    tm = touch[kf][:C]
                    if tm.any():
                        cinfo[kf][0].last_flat[slots_c[kf][:C][tm]] = (
                            times[tm]
                        )

                chunk = [hit_res] * C
                if nb_all:
                    if dram_first:
                        for p in b_pos:
                            chunk[p] = res_dram_first
                    else:
                        sbl = b_sb.tolist()
                        for x in range(nb_all):
                            chunk[b_pos[x]] = (
                                res_llc_first if sbl[x] else res_dram_first
                            )

                lastfill: Dict[Tuple[bool, int], int] = {}
                for eix, ev in enumerate(events):
                    (q, e_if, e_st, code, line, set_, w, lidx, flag,
                     _elat, eres) = ev
                    chunk[q] = eres
                    l1c, cmask, cways, cbit = cinfo[e_if]
                    t = int(times[q])
                    if code == 0:
                        # store hit: dirty + ownership (no other copies —
                        # the walk gated on that); a pending way (-2,
                        # store to an in-window fill) resolves live since
                        # the fill has already installed by this point
                        l1c.n_hits += 1
                        if w < 0:
                            w = l1c._tag_to_way[set_][line]
                        l1c._dirty[set_ * cways + w] = True
                        owners[line] = l1c.name
                        sh = all_sharers.get(line)
                        if sh is None:
                            sh = all_sharers[line] = set()
                        sh.add(l1c.name)
                        continue
                    if code == 1:
                        # store to a resident line, s-bit clear: probe
                        # the LLC, set both s-bits, then upgrade
                        l1c.n_first_access_misses += 1
                        llc._last_used[lidx] = t
                        if flag:
                            if dram_first:
                                llc.n_accesses += 1
                                dram_acc(line)
                            else:
                                llc.n_hits += 1
                        else:
                            llc.n_first_access_misses += 1
                            llc_sbits_mv[lidx] |= lbit
                            dram_acc(line)
                        idx = set_ * cways + w
                        l1c.sbits_mv[idx] |= cbit
                        if tc_enabled:
                            etf[e_if][idx] = line
                        l1c._dirty[idx] = True
                        owners[line] = l1c.name
                        sh = all_sharers.get(line)
                        if sh is None:
                            sh = all_sharers[line] = set()
                        sh.add(l1c.name)
                        continue
                    # codes 2/3: a real L1 miss
                    l1c.n_misses += 1
                    tnow = t & tc_mask
                    if code == 2:
                        # LLC hit (possibly a first access at the LLC)
                        if flag:
                            llc.n_first_access_misses += 1
                            dram_acc(line)
                            llc_sbits_mv[lidx] |= lbit
                        else:
                            llc.n_hits += 1
                        llc._last_used[lidx] = t
                        if e_st:
                            owners[line] = l1c.name
                        sh = all_sharers.get(line)
                        if sh is None:
                            sh = all_sharers[line] = set()
                        sh.add(l1c.name)
                    else:
                        # LLC miss: DRAM fetch + fill (never a victim —
                        # full LLC sets were cut as a scalar boundary)
                        llc.n_misses += 1
                        dram_acc(line)
                        llc.fill(line, sctx, tnow, shared)
                        if e_st:
                            directory.set_owner(line, l1c.name)
                        else:
                            directory.add_sharer(line, l1c.name)
                    # L1 fill (mirrors the inlined _fill_private)
                    tags = l1c._tags
                    t2w = l1c._tag_to_way[set_]
                    base = set_ * cways
                    fw = victim_of.get(eix)
                    if fw is None:
                        fw = 0
                        while tags[base + fw] >= 0:
                            fw += 1
                        idx = base + fw
                        l1c._occ[set_] += 1
                        l1c.valid_mv[idx] = True
                        vtag = -1
                    else:
                        idx = base + fw
                        vtag = tags[idx]
                        vdirty = l1c._dirty[idx]
                        del t2w[vtag]
                        l1c.n_evictions += 1
                        if vdirty:
                            l1c.n_dirty_evictions += 1
                    tags[idx] = line
                    if pend:
                        lastfill[(e_if, idx)] = q
                    l1c._dirty[idx] = e_st
                    l1c._last_used[idx] = tnow
                    l1c._filled_at[idx] = tnow
                    t2w[line] = fw
                    l1c.tc_mv[idx] = tnow
                    l1c.sbits_mv[idx] = cbit
                    if tc_enabled:
                        etf[e_if][idx] = line
                    l1c.n_fills += 1
                    ef = l1c._ever_filled
                    if line not in ef:
                        ef.add(line)
                        l1c.n_cold_misses += 1
                    if e_st:
                        owners[line] = l1c.name
                        sh = all_sharers.get(line)
                        if sh is None:
                            sh = all_sharers[line] = set()
                        sh.add(l1c.name)
                    if vtag >= 0:
                        if vdirty:
                            self._writeback_to_llc(vtag)
                            l1c.n_writebacks += 1
                        sh = all_sharers.get(vtag)
                        if sh is not None:
                            # like the scalar path: leave the emptied
                            # sharer set in place for reuse
                            sh.discard(l1c.name)
                        if owners and owners.get(vtag) == l1c.name:
                            del owners[vtag]

                # pending-hit touches, in order, skipping slots a later
                # in-window fill re-took (the refill stamp stands, as in
                # the scalar order)
                for q, line, f, _counts in pend:
                    if q >= C:
                        break
                    # resolve to the fill preceding this position (a line
                    # can fill more than once when evicted in-window)
                    fs = fill_seq[line]
                    slot = fs[0][1]
                    for qq, ii in fs:
                        if qq < q:
                            slot = ii
                        else:
                            break
                    if lastfill.get((f, slot), -1) < q:
                        cinfo[f][0].last_flat[slot] = times[q]

                extend(chunk)
                t_last = int(times[C - 1])
                if t_last > clock._now:
                    clock._now = t_last
                if nows_np is None:
                    cursor += adv
                i += C

            if prof is not None:
                _t1 = perf_counter_ns()
                prof.apply_ns += _t1 - _tp
                prof.batch_accesses += C
                if C < m:
                    prof.cuts += 1
                _tp = _t1

            if C == m:
                if m == window and window < wmax:
                    window <<= 1
                continue
            if window > wmin and C < (m >> 1):
                window >>= 1
            if hard or C == 0:
                # the cut access is inherently scalar (or defensive
                # progress): run a short scalar burst, then reclassify
                _ib = i
                run_end = i + self._BATCH_SCALAR_RUN
                if run_end > n:
                    run_end = n
                if nows_np is not None:
                    while i < run_end:
                        kind = uniform if kseq is None else kseq[i]
                        append(
                            scalar_access(
                                ctx, int(addrs_np[i]), kind, int(nows_np[i])
                            )
                        )
                        i += 1
                else:
                    while i < run_end:
                        kind = uniform if kseq is None else kseq[i]
                        r = scalar_access(ctx, int(addrs_np[i]), kind, cursor)
                        append(r)
                        cursor += advance + r.latency
                        i += 1
                if prof is not None:
                    prof.fallback_ns += perf_counter_ns() - _tp
                    prof.scalar_accesses += i - _ib
                if tc_enabled:
                    stale = True
        final_now = int(nows_np[n - 1]) if nows_np is not None else cursor
        return BatchResult(results, final_now)

    def _remote_owner_transfer(self, line: int, owner: str) -> Tuple[int, str]:
        """Slow half of _coherence_on_access: a foreign private cache owns
        the line; pull it out if dirty (cache-to-cache transfer)."""
        extra = 0
        level = ""
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
        return extra, level

    def _llc_miss(
        self, l1: FastCache, line: int, ctx: int, sctx: int, is_write: bool, now: int
    ) -> Tuple[int, str]:
        llc = self.llc
        llc.n_misses += 1
        dram_latency = self.dram.access(line)
        victim = llc.fill(
            line,
            sctx,
            now & self._tc_mask,
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
        return llc.hit_latency + dram_latency + wb, "DRAM"

    def _probe_llc(self, line: int, ctx: int, now: int) -> Tuple[int, str]:
        llc = self.llc
        set_idx = line & llc._set_mask
        way = llc._tag_to_way[set_idx].get(line)
        if way is None:
            raise SimulationError(
                f"inclusion violated: line {line:#x} in an L1 but not in LLC"
            )
        idx = set_idx * llc.ways + way
        llc._last_used[idx] = now
        sctx = self._sctx_of[ctx]
        sbit = llc.sbits_mv[idx] & llc._ctx_bit_of[sctx]
        if sbit:
            if not self._dram_first:
                llc.n_hits += 1
                return llc.hit_latency, "LLC"
            # Hidden-latency probe: the one outcome that records no
            # hit/first counter, so the derived access count needs the
            # explicit adjustment bump.
            llc.n_accesses += 1
        else:
            llc.n_first_access_misses += 1
            if llc.event_listener is None and llc.max_sharers == 0:
                llc.sbits_mv[idx] |= llc._ctx_bit_of[sctx]
            else:
                llc.set_sbit(set_idx, way, sctx)
        return llc.hit_latency + self.dram.access(line), "DRAM"

    # ------------------------------------------------------------------
    # Fills, evictions, coherence
    # ------------------------------------------------------------------
    def _fill_private(
        self, l1: FastCache, line: int, ctx: int, is_write: bool, now: int
    ) -> None:
        state = LineState.MODIFIED if is_write else LineState.SHARED
        victim = l1.fill(
            line, ctx, now & self._tc_mask, state, dirty=is_write
        )
        if is_write:
            self._invalidate_other_private(l1, line)
            self.directory.set_owner(line, l1.name)
        if victim is not None:
            self._handle_private_eviction(l1, victim)

    def _prefetch_next_line(
        self, l1: FastCache, line: int, ctx: int, now: int
    ) -> None:
        if l1._tag_to_way[line & l1._set_mask].get(line) is not None:
            return
        l1.n_prefetches += 1
        llc = self.llc
        if llc._tag_to_way[line & llc._set_mask].get(line) is None:
            self.dram.access(line)  # background fetch; latency hidden
            victim = llc.fill(
                line,
                self._sctx_of[ctx],
                now & self._tc_mask,
                LineState.SHARED,
                allowed_ways=self._llc_allowed_ways(ctx),
            )
            if victim is not None:
                self._handle_llc_eviction(victim)
            self.directory.add_sharer(line, l1.name)
        else:
            self.directory.add_sharer(line, l1.name)
        victim = l1.fill(line, ctx, now & self._tc_mask, LineState.SHARED)
        if victim is not None:
            self._handle_private_eviction(l1, victim)

    def _invalidate_other_private(self, requester: FastCache, line: int) -> None:
        for cache in self._private_list:
            if cache is requester:
                continue
            evicted = cache.invalidate(line)
            if evicted is not None:
                if evicted.dirty:
                    self._writeback_to_llc(line)
                self.directory.remove_sharer(line, cache.name)

    def _writeback_to_llc(self, line: int) -> None:
        llc = self.llc
        set_idx = line & llc._set_mask
        way = llc._tag_to_way[set_idx].get(line)
        if way is None:
            raise SimulationError(
                f"writeback of line {line:#x} but LLC does not hold it"
            )
        idx = set_idx * llc.ways + way
        llc._dirty[idx] = True

    def _handle_private_eviction(self, l1: FastCache, victim: EvictedLine) -> None:
        line = victim.tag
        if victim.dirty:
            self._writeback_to_llc(line)
            l1.n_writebacks += 1
        self.directory.remove_sharer(line, l1.name)

    def _handle_llc_eviction(self, victim: EvictedLine) -> int:
        line = victim.tag
        dirty = victim.dirty
        for cache_name in self.directory.drop_line(line):
            cache = self._private_name_map[cache_name]
            evicted = cache.invalidate(line)
            if evicted is not None and evicted.dirty:
                dirty = True
        llc = self.llc
        llc.n_back_invalidations += 1
        if dirty:
            self.dram.writeback(line)
            llc.n_writebacks += 1
            return self.latency.writeback
        return 0
