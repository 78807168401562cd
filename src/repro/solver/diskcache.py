"""Persistent on-disk solver-query cache, shared across processes and runs.

The in-memory :class:`~repro.solver.cache.QueryCache` dies with its
process, so every ``repro run``/``repro campaign``/``repro serve``
invocation used to start solving from a cold corpus.  :class:`DiskCache`
keeps memoized verdicts on disk, **content-addressed** by the same
:func:`~repro.solver.terms.canonical_query` key the memory cache uses —
the SHA-256 of the canonical key's printed form names the entry's file, so
structurally identical queries (up to variable/function renaming) from any
process, any :class:`~repro.solver.terms.TermManager`, and any run land on
the same entry.

Since the shared content-addressed store landed, :class:`DiskCache` is a
thin adapter over the ``solver/`` namespace of a
:class:`~repro.store.ContentStore` rooted at its directory — the
``--store-dir``/``store_dir=`` directory, which is the only way to
attach it::

    <store-dir>/
        solver/
            ab/
                ab3f...e2.json        # one canonical verdict per file
        journal.jsonl                 # store access journal (LRU order)

The store owns the write discipline (atomic temp + ``os.replace``, safe
concurrent writers across processes and machines), corrupt-entry
quarantine, eviction, and the access journal; this module owns the
solver-specific payload schema and the digesting of canonical keys.
**Content digests and payloads are unchanged** from the pre-store flat
layout — only the fanout moved under ``solver/``.  A directory still
holding the old flat layout is not read: it opens cold, which is
answer-neutral (every verdict is recomputed to the same answer).

Invalidation
------------
Every entry embeds a format header (:data:`DISKCACHE_FORMAT`).  An entry
with the wrong header, malformed JSON (truncated write, disk corruption),
or a payload that fails shape validation is treated as a **miss** — never
an error — counted as ``solver.diskcache.skipped``, and **quarantined on
first detection** (counted by the store as ``store.solver.quarantined``)
so a poisoned entry costs one failed parse ever, not one per lookup
until the next store happens to replace it.  Bumping :data:`DISKCACHE_FORMAT`
therefore self-invalidates a whole cache directory without tooling.

Determinism contract
--------------------
Identical to the memory cache (see :mod:`repro.solver.cache`): only
stateless solves are stored, a hit returns exactly what a cold solve would
have computed, so cache population order — and disk-cache warmth — is
unobservable in generated test suites.

Hits, misses, stores, and skipped (corrupt) entries are counted in the
default metrics registry as ``solver.diskcache.*`` (and, via the store,
as ``store.solver.*``).
"""

from __future__ import annotations

import hashlib
import os
import threading
from typing import Dict, Optional, Tuple

from ..obs.metrics import default_registry
from ..store import ContentStore
from .cache import CachedResult

__all__ = ["DISKCACHE_FORMAT", "DiskCache"]

#: bump to invalidate every existing cache directory (schema changes,
#: canonical-key changes, solver behaviour changes)
DISKCACHE_FORMAT = 1


def _encode(entry: CachedResult) -> Dict[str, object]:
    """JSON-serializable form of a canonical cached verdict."""
    return {
        "format": DISKCACHE_FORMAT,
        "sat": bool(entry.sat),
        "iterations": int(entry.iterations),
        "default": int(entry.default),
        "ints": [[idx, value] for idx, value in sorted(entry.int_values.items())],
        "bools": [[idx, value] for idx, value in sorted(entry.bool_values.items())],
        "tables": [
            [fidx, [[list(args), value] for args, value in sorted(table.items())]]
            for fidx, table in sorted(entry.tables.items())
        ],
    }


def _decode(payload: object) -> CachedResult:
    """Rebuild a :class:`CachedResult`; raises on any shape violation."""
    if not isinstance(payload, dict):
        raise ValueError("disk cache entry is not an object")
    if payload.get("format") != DISKCACHE_FORMAT:
        raise ValueError(
            f"disk cache entry format {payload.get('format')!r} "
            f"!= {DISKCACHE_FORMAT}"
        )
    return CachedResult(
        sat=bool(payload["sat"]),
        iterations=int(payload["iterations"]),
        int_values={int(i): int(v) for i, v in payload["ints"]},
        bool_values={int(i): bool(v) for i, v in payload["bools"]},
        tables={
            int(fidx): {
                tuple(int(a) for a in args): int(value) for args, value in rows
            }
            for fidx, rows in payload["tables"]
        },
        default=int(payload["default"]),
    )


class DiskCache:
    """Content-addressed persistent store of canonical solver verdicts.

    Safe to share across threads and processes; see the module docstring
    for the write discipline.  Normally attached as the second tier of a
    :class:`~repro.solver.cache.QueryCache` (``QueryCache(disk=...)``)
    rather than consulted directly.
    """

    def __init__(self, directory: str) -> None:
        self.directory = os.path.abspath(directory)
        self._store = ContentStore(self.directory)
        self._lock = threading.Lock()
        self.hits = 0
        self.misses = 0
        self.stores = 0
        #: entries found on disk but unreadable (corrupt/stale format)
        self.skipped = 0

    # -- addressing --------------------------------------------------------

    @property
    def content_store(self) -> ContentStore:
        """The shared content-addressed store this cache lives in."""
        return self._store

    def path_for(self, key: Tuple[object, ...]) -> str:
        """The entry file a canonical key is addressed to."""
        digest = hashlib.sha256(repr(key).encode("utf-8")).hexdigest()
        return self._store.path_for("solver", digest)

    # -- lookup / store ----------------------------------------------------

    def lookup(self, key: Tuple[object, ...]) -> Optional[CachedResult]:
        """The stored verdict for ``key``, or None (miss or unreadable)."""
        path = self.path_for(key)
        entry: Optional[CachedResult] = None
        payload, corrupt = self._store.load_entry(
            "solver", path, expected_format=DISKCACHE_FORMAT
        )
        if payload is not None:
            try:
                entry = _decode(payload)
            except (ValueError, KeyError, TypeError):
                # shape violation the store's format check let through:
                # quarantine it here, same one-parse-ever policy
                self._store.quarantine("solver", path)
                corrupt = True
        with self._lock:
            if entry is not None:
                self.hits += 1
            else:
                self.misses += 1
                if corrupt:
                    self.skipped += 1
        registry = default_registry()
        if registry.enabled:
            registry.counter(
                "solver.diskcache.hits" if entry is not None
                else "solver.diskcache.misses"
            ).inc()
            if corrupt:
                registry.counter("solver.diskcache.skipped").inc()
        return entry

    def store(self, key: Tuple[object, ...], entry: CachedResult) -> None:
        """Persist ``entry`` under ``key`` (atomic write-rename; best effort).

        Disk trouble (full volume, permissions) downgrades to not caching —
        the computed result is already in the caller's hands.
        """
        if not self._store.save("solver", self.path_for(key), _encode(entry)):
            return
        with self._lock:
            self.stores += 1
        registry = default_registry()
        if registry.enabled:
            registry.counter("solver.diskcache.stores").inc()

    # -- introspection -----------------------------------------------------

    def __len__(self) -> int:
        """Number of entry files currently on disk (walks the namespace)."""
        count = 0
        top = os.path.join(self.directory, "solver")
        for _dirpath, _dirnames, filenames in os.walk(top):
            count += sum(
                1 for name in filenames
                if name.endswith(".json") and not name.startswith(".tmp-")
            )
        return count

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0
