"""Shared content-addressed store: solver cache, corpora, crash buckets.

One sharded on-disk store (:class:`~repro.store.cas.ContentStore`) holds
every artifact kind a fleet wants to reuse across campaigns:

- ``solver/`` — canonical solver verdicts (the disk tier of the query
  cache; :mod:`repro.solver.diskcache` is a thin adapter over it);
- ``corpus/`` — generated test inputs, grouped by program-source SHA-256
  and entry point, so a new campaign over a known program can seed from
  prior campaigns' tests (``--seed-from-store``);
- ``crashes/`` — deduplicated crash-bucket records, grouped by
  program-source SHA-256 so identical ``ExceptionClass@line`` buckets
  from *different* programs never collide.

See docs/STORAGE.md for the layout, the write discipline, eviction, and
the multi-machine sharing caveats.
"""

from .cas import (
    CORPUS_ENTRY_FORMAT,
    CRASH_RECORD_FORMAT,
    ContentStore,
    corpus_group,
    crash_group,
    input_digest,
    record_search_outputs,
    source_sha,
    stored_seed_vectors,
)

__all__ = [
    "ContentStore",
    "CORPUS_ENTRY_FORMAT",
    "CRASH_RECORD_FORMAT",
    "corpus_group",
    "crash_group",
    "input_digest",
    "record_search_outputs",
    "source_sha",
    "stored_seed_vectors",
]
