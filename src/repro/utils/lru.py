"""One bounded LRU cache and the registry of per-process caches.

Campaigns re-run the same programs constantly (MABFuzz arms replay their
seeds, mutants duplicate each other), so each process keeps four caches
keyed by program content: golden traces, DUT runs, compiled traces and
superblock tables.  All four are a :class:`BoundedLRU`, registered here by
name through :func:`process_cache`, so one knob bounds them all
(:func:`configure_process_caches`, fed by the engine's ``cache_entries``)
and one function reports their counters (:func:`process_cache_stats`).

Registered names and the counters they report:

* ``dut_cache`` -- instrumented DUT runs (:mod:`repro.exec.cache`);
* ``shared_golden`` -- golden traces shared across a worker's trials;
* ``compiled_trace`` -- pre-decoded programs (:mod:`repro.isa.compiled`);
* ``superblock`` -- per-program superblock tables (same module).

Caches are process-local by design: workers build their own, so no
locking is needed, and cached values are shared objects that callers
treat as read-only.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Callable, Dict, Hashable, Optional, TypeVar

#: default capacity of every process cache; the engine-level
#: ``cache_entries`` knob overrides it per batch.
DEFAULT_CACHE_ENTRIES = 4096


class BoundedLRU:
    """A dict bounded to ``max_entries``, spilling least-recently-used first.

    ``hits``/``misses`` count :meth:`lookup` outcomes and ``evictions``
    counts spills, whether an insert or a shrinking :meth:`configure`
    caused them.  Values must not be ``None`` (that is the miss marker).
    """

    def __init__(self, max_entries: int = DEFAULT_CACHE_ENTRIES) -> None:
        if max_entries < 1:
            raise ValueError("max_entries must be >= 1")
        self.max_entries = max_entries
        self._entries: "OrderedDict[Hashable, object]" = OrderedDict()
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def lookup(self, key: Hashable):
        """Return the entry for ``key`` (or ``None``), updating counters/LRU."""
        cached = self._entries.get(key)
        if cached is not None:
            self.hits += 1
            self._entries.move_to_end(key)
            return cached
        self.misses += 1
        return None

    def insert(self, key: Hashable, value: object) -> None:
        """Store ``value`` under ``key``, spilling the LRU entry if full."""
        if key in self._entries:
            self._entries.move_to_end(key)
            self._entries[key] = value
            return
        while len(self._entries) >= self.max_entries:
            self._entries.popitem(last=False)
            self.evictions += 1
        self._entries[key] = value

    def configure(self, max_entries: int) -> None:
        """Re-bound the cache, spilling LRU entries down to the new capacity."""
        if max_entries < 1:
            raise ValueError("max_entries must be >= 1")
        self.max_entries = max_entries
        while len(self._entries) > self.max_entries:
            self._entries.popitem(last=False)
            self.evictions += 1

    def clear(self) -> None:
        self._entries.clear()

    def stats(self) -> Dict[str, int]:
        return {"hits": self.hits, "misses": self.misses,
                "evictions": self.evictions, "entries": len(self._entries),
                "max_entries": self.max_entries}

    def __len__(self) -> int:
        return len(self._entries)


CacheT = TypeVar("CacheT", bound=BoundedLRU)

#: this process's caches by name, in registration order.
_PROCESS_CACHES: Dict[str, BoundedLRU] = {}
#: the bound the last :func:`configure_process_caches` call set.
_BOUND = DEFAULT_CACHE_ENTRIES


def process_cache(name: str,
                  factory: Callable[[int], CacheT] = BoundedLRU) -> CacheT:
    """The calling process's cache called ``name``, created on first use.

    ``factory(max_entries)`` builds it at the current process bound.  Hot
    paths keep the returned object in a module global rather than calling
    this per lookup.
    """
    cache = _PROCESS_CACHES.get(name)
    if cache is None:
        cache = _PROCESS_CACHES[name] = factory(_BOUND)
    return cache


def configure_process_caches(cache_entries: Optional[int]) -> None:
    """Re-bound every process cache (``None`` = :data:`DEFAULT_CACHE_ENTRIES`).

    Called by the batch executor before every batch with the engine's
    ``cache_entries`` knob, so a worker always runs a batch under exactly
    the capacity that batch was planned with -- a previous grid's bound
    never leaks into the next.  Shrinking spills LRU entries immediately
    (the spill's evictions still count: callers snapshot counters *before*
    configuring, see :func:`repro.exec.batching.execute_batch`).  A cache
    created later starts at the same bound.
    """
    global _BOUND
    bound = DEFAULT_CACHE_ENTRIES if cache_entries is None else cache_entries
    if bound < 1:
        raise ValueError("max_entries must be >= 1")
    _BOUND = bound
    for cache in _PROCESS_CACHES.values():
        cache.configure(bound)


def process_cache_stats() -> Dict[str, int]:
    """Cumulative ``<name>_hits/_misses/_evictions`` of every process cache."""
    stats: Dict[str, int] = {}
    for name, cache in _PROCESS_CACHES.items():
        stats[f"{name}_hits"] = cache.hits
        stats[f"{name}_misses"] = cache.misses
        stats[f"{name}_evictions"] = cache.evictions
    return stats
