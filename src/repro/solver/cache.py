"""Normalized solver-query cache: memoized sat/unsat results and models.

Queries are keyed on their :func:`~repro.solver.terms.canonical_query`
form — identical up to a bijective renaming of variables and function
symbols — so structurally repeated work (sibling branch flips, repeated
validity candidates, re-runs of the same search) is answered from memory.

Models are stored *canonically* (values indexed by the canonical variable
and function numbering) and translated back through the asking query's own
leaves on a hit, so a cache populated by one :class:`TermManager` serves
queries from any other.

Determinism contract
--------------------
Only **stateless** solves are cached: each :class:`~repro.solver.smt.Solver`
miss solves its query on a fresh :class:`~repro.solver.session.SolverSession`
with no history, so its answer is a pure function of the canonical key.  A hit therefore returns exactly what a cold solve would
have computed, which makes cache *population order* unobservable — the
property campaigns rely on for reproducible output regardless of worker
count and of what a shared disk cache already holds.  Incremental sessions
(:mod:`repro.solver.session`) carry solver state across queries and are
deliberately **not** routed through this cache.

Hits and misses are counted in the default metrics registry as
``solver.cache.hits`` / ``solver.cache.misses``.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from contextlib import contextmanager
from typing import Dict, Iterator, Optional, Tuple

from ..obs.metrics import default_registry
from .terms import CanonicalQuery, FunctionSymbol

__all__ = [
    "CachedResult",
    "QueryCache",
    "default_cache",
    "set_default_cache",
    "use_cache",
]


class CachedResult:
    """One memoized solver verdict in canonical (renamed) form.

    ``int_values`` maps canonical variable indices to model values,
    ``bool_values`` likewise for boolean variables, and ``tables`` maps
    canonical function indices to finite ``args -> value`` tables.  All of
    it is immutable once stored — entries are shared between threads.
    """

    __slots__ = ("sat", "iterations", "int_values", "bool_values", "tables", "default")

    def __init__(
        self,
        sat: bool,
        iterations: int,
        int_values: Optional[Dict[int, int]] = None,
        bool_values: Optional[Dict[int, bool]] = None,
        tables: Optional[Dict[int, Dict[Tuple[int, ...], int]]] = None,
        default: int = 0,
    ) -> None:
        self.sat = sat
        self.iterations = iterations
        self.int_values = dict(int_values or {})
        self.bool_values = dict(bool_values or {})
        self.tables = {k: dict(v) for k, v in (tables or {}).items()}
        self.default = default


class QueryCache:
    """A thread-safe LRU of canonical query results.

    The lock only guards the OrderedDict bookkeeping; entries themselves
    are immutable, so readers never see a half-written result.

    With ``disk`` set (a :class:`~repro.solver.diskcache.DiskCache`), the
    cache gains a persistent second tier: a memory miss falls through to
    disk — a disk hit is promoted into memory and counted as a hit — and
    every store is written through, so the directory accumulates verdicts
    across processes and runs.  The disk tier serves the same canonical
    entries the memory tier does, so attaching it cannot change any
    generated suite, only how often the solver actually runs.
    """

    def __init__(self, capacity: int = 4096, disk: Optional[object] = None) -> None:
        if capacity < 1:
            raise ValueError("cache capacity must be positive")
        self.capacity = capacity
        #: optional persistent tier (duck-typed: lookup/store like ours)
        self.disk = disk
        self._entries: "OrderedDict[Tuple[object, ...], CachedResult]" = OrderedDict()
        self._lock = threading.Lock()
        self.hits = 0
        self.misses = 0
        #: memory misses answered by the disk tier (subset of ``hits``)
        self.disk_hits = 0

    def lookup(self, key: Tuple[object, ...]) -> Optional[CachedResult]:
        """Return the entry for ``key`` (refreshing its LRU position)."""
        with self._lock:
            entry = self._entries.get(key)
            if entry is not None:
                self._entries.move_to_end(key)
        from_disk = False
        if entry is None and self.disk is not None:
            entry = self.disk.lookup(key)
            if entry is not None:
                from_disk = True
                with self._lock:
                    self._entries[key] = entry
                    self._entries.move_to_end(key)
                    while len(self._entries) > self.capacity:
                        self._entries.popitem(last=False)
        with self._lock:
            if entry is not None:
                self.hits += 1
                if from_disk:
                    self.disk_hits += 1
            else:
                self.misses += 1
        registry = default_registry()
        if registry.enabled:
            registry.counter(
                "solver.cache.hits" if entry is not None else "solver.cache.misses"
            ).inc()
        return entry

    def store(self, key: Tuple[object, ...], entry: CachedResult) -> None:
        """Insert ``entry``, evicting the least recently used on overflow."""
        with self._lock:
            self._entries[key] = entry
            self._entries.move_to_end(key)
            while len(self._entries) > self.capacity:
                self._entries.popitem(last=False)
        if self.disk is not None:
            self.disk.store(key, entry)

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def clear(self) -> None:
        """Drop the memory tier and reset counters (disk files persist)."""
        with self._lock:
            self._entries.clear()
            self.hits = 0
            self.misses = 0
            self.disk_hits = 0

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0


#: process-wide cache shared by every stateless solver query
_default: Optional[QueryCache] = QueryCache()


def default_cache() -> Optional[QueryCache]:
    """The process-wide query cache (None when caching is disabled)."""
    return _default


def set_default_cache(cache: Optional[QueryCache]) -> Optional[QueryCache]:
    """Install ``cache`` as the process default (None disables caching)."""
    global _default
    old = _default
    _default = cache
    return old


@contextmanager
def use_cache(cache: Optional[QueryCache]) -> Iterator[Optional[QueryCache]]:
    """Scoped :func:`set_default_cache` — for tests and cold-solver runs."""
    old = set_default_cache(cache)
    try:
        yield cache
    finally:
        set_default_cache(old)
