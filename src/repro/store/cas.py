"""The sharded content-addressed store shared by every artifact kind.

Layout
------
One root directory, one subdirectory per namespace, two-level fan-out
below that so no directory ever grows large::

    <root>/
        solver/
            ab/ab3f...e2.json          # flat: one entry per digest
        corpus/
            1f/1f09...77/              # grouped: one dir per group,
                9c4a...d1.json         #   one entry per digest
        crashes/
            1f/1f09...77/
                0b7e...aa.json
        quarantine/                    # corrupt entries, moved aside
        journal.jsonl                  # append-only access journal

``solver/`` is **flat**: the entry digest alone addresses the file.
``corpus/`` and ``crashes/`` are **grouped**: entries that belong
together (same program source and entry point) live in one group
directory named by the group digest, so seeding a campaign can
enumerate exactly the entries for one program without walking the
whole namespace.

Write discipline
----------------
Entries are published with a private temp file + :func:`os.replace` in
the target directory, so concurrent writers — worker processes of one
campaign, or whole machines sharing the directory over a common
filesystem — race benignly: readers only ever see absent or complete
files, and the last writer wins with an equivalent payload (an entry is
a pure function of its digest).  No locks, no coordination.  The access
journal is append-only with ``O_APPEND`` and one small line per access
(well under ``PIPE_BUF``), so concurrent appends never tear.

Invalidation and quarantine
---------------------------
Every entry embeds a ``format`` header.  An unreadable entry (truncated
write, corruption, stale format) is treated as a miss and **moved to
``quarantine/``** on first detection — never deleted outright, never
fatal — so a poisoned entry costs one failed parse ever and stays
inspectable.  ``verify`` sweeps a whole store the same way.

Eviction
--------
:meth:`ContentStore.gc` bounds the store to a byte budget by evicting
the least-recently-used entries first, using the persisted access
journal as the recency order (entries never journaled rank oldest).
Eviction is answer-preserving by construction: a store entry is a pure
function of its digest, so losing one costs a recomputation, never a
different answer.  ``gc`` also compacts the journal, folding evicted
history into a cumulative totals line so lifetime hit/store/eviction
counts survive compaction.

Metrics: ``store.<namespace>.{hits,misses,stores,evictions,quarantined}``
in the default registry.
"""

from __future__ import annotations

import hashlib
import json
import os
from typing import Dict, Iterable, Iterator, List, Optional, Tuple

from ..atomic import publish_atomic
from ..obs.metrics import default_registry

__all__ = [
    "ContentStore",
    "NAMESPACES",
    "CORPUS_ENTRY_FORMAT",
    "CRASH_RECORD_FORMAT",
    "source_sha",
    "corpus_group",
    "crash_group",
    "input_digest",
    "record_search_outputs",
    "stored_seed_vectors",
]

#: the namespaces one store root carries
NAMESPACES = ("solver", "corpus", "crashes")

#: namespaces whose entries live in per-group directories
GROUPED_NAMESPACES = ("corpus", "crashes")

#: format header of corpus-namespace entries (bump to self-invalidate)
CORPUS_ENTRY_FORMAT = 1

#: format header of crash-bucket records
CRASH_RECORD_FORMAT = 1

_JOURNAL = "journal.jsonl"
_QUARANTINE = "quarantine"


# -- digest helpers ----------------------------------------------------------


def source_sha(source: str) -> str:
    """The SHA-256 identity of a program's source text."""
    return hashlib.sha256(source.encode("utf-8")).hexdigest()


def corpus_group(src_sha: str, entry: str) -> str:
    """The corpus group digest for one (program source, entry point)."""
    return hashlib.sha256(f"{src_sha}//{entry}".encode("utf-8")).hexdigest()


def crash_group(src_sha: str) -> str:
    """The crash-bucket group digest for one program source."""
    return hashlib.sha256(f"crashes//{src_sha}".encode("utf-8")).hexdigest()


def input_digest(inputs: Dict[str, int]) -> str:
    """The digest naming one test-input vector (order-insensitive)."""
    canonical = repr(tuple(sorted((str(k), int(v)) for k, v in inputs.items())))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


# -- the store ---------------------------------------------------------------


class ContentStore:
    """One sharded content-addressed store root; see the module docstring.

    Safe to share across threads, processes, and machines (over a common
    filesystem).  ``tenant`` tags this handle's journal lines so a
    service fleet sharing one store can account accesses per tenant.
    """

    def __init__(self, root: str, tenant: str = "") -> None:
        self.root = os.path.abspath(root)
        self.tenant = tenant
        os.makedirs(self.root, exist_ok=True)
        #: per-namespace in-process counters (lifetime totals live in the
        #: journal; these cover this handle only)
        self.counters: Dict[str, int] = {}

    # -- addressing --------------------------------------------------------

    def path_for(self, namespace: str, digest: str) -> str:
        """The file a flat-namespace digest is addressed to."""
        return os.path.join(
            self.root, namespace, digest[:2], digest + ".json"
        )

    def group_dir(self, namespace: str, group: str) -> str:
        """The directory a grouped-namespace group lives in."""
        return os.path.join(self.root, namespace, group[:2], group)

    def group_path(self, namespace: str, group: str, digest: str) -> str:
        """The file a grouped-namespace entry is addressed to."""
        return os.path.join(self.group_dir(namespace, group), digest + ".json")

    def _journal_path(self) -> str:
        return os.path.join(self.root, _JOURNAL)

    # -- counters ----------------------------------------------------------

    def _count(self, namespace: str, what: str, by: int = 1) -> None:
        name = f"store.{namespace}.{what}"
        self.counters[name] = self.counters.get(name, 0) + by
        registry = default_registry()
        if registry.enabled:
            registry.counter(name).inc(by)

    # -- the access journal ------------------------------------------------

    def _journal(self, op: str, namespace: str, relpath: str) -> None:
        """Append one access line (O_APPEND; atomic under PIPE_BUF)."""
        line: Dict[str, object] = {"op": op, "ns": namespace, "p": relpath}
        if self.tenant:
            line["t"] = self.tenant
        data = (json.dumps(line, sort_keys=True) + "\n").encode("utf-8")
        try:
            fd = os.open(
                self._journal_path(),
                os.O_WRONLY | os.O_APPEND | os.O_CREAT,
                0o644,
            )
            try:
                os.write(fd, data)
            finally:
                os.close(fd)
        except OSError:
            pass  # accounting is best-effort, never load-bearing

    def read_journal(self) -> Tuple[Dict[str, Dict[str, int]], Dict[str, int],
                                    Dict[str, int]]:
        """Fold the journal: (per-ns op totals, per-tenant accesses,
        last-access order per relative path).

        The totals dict maps ``hits``/``stores``/``evictions`` to
        per-namespace counts; the order dict maps each journaled path to
        the line number of its *latest* access (higher = more recent).
        """
        totals: Dict[str, Dict[str, int]] = {
            "hits": {}, "misses": {}, "stores": {}, "evictions": {}
        }
        tenants: Dict[str, int] = {}
        order: Dict[str, int] = {}
        try:
            handle = open(self._journal_path(), "r", encoding="utf-8")
        except OSError:
            return totals, tenants, order
        with handle:
            for seq, raw in enumerate(handle):
                raw = raw.strip()
                if not raw:
                    continue
                try:
                    line = json.loads(raw)
                except json.JSONDecodeError:
                    continue  # torn tail of a dying writer
                if not isinstance(line, dict):
                    continue
                op = line.get("op")
                if op == "totals":
                    # a compaction summary: fold its cumulative counts
                    for kind in totals:
                        for ns, count in dict(line.get(kind, {})).items():
                            totals[kind][str(ns)] = (
                                totals[kind].get(str(ns), 0) + int(count)
                            )
                    for tenant, count in dict(line.get("tenants", {})).items():
                        tenants[str(tenant)] = (
                            tenants.get(str(tenant), 0) + int(count)
                        )
                    continue
                ns = str(line.get("ns", "?"))
                path = str(line.get("p", ""))
                if path and op in ("hit", "store", "touch"):
                    order[path] = seq
                kind = {
                    "hit": "hits",
                    "miss": "misses",
                    "store": "stores",
                    "evict": "evictions",
                }
                bucket = kind.get(str(op))
                if bucket is None:
                    # "touch" lines (compaction recency markers) carry
                    # order only; counts live in the totals line
                    continue
                totals[bucket][ns] = totals[bucket].get(ns, 0) + 1
                tenant = str(line.get("t", "") or "")
                if tenant:
                    tenants[tenant] = tenants.get(tenant, 0) + 1
        return totals, tenants, order

    # -- load / save -------------------------------------------------------

    def load_entry(
        self,
        namespace: str,
        path: str,
        expected_format: Optional[int] = None,
    ) -> Tuple[Optional[Dict[str, object]], bool]:
        """``(payload, corrupt)`` for the entry at ``path``.

        ``payload`` is None on a miss; ``corrupt`` is True when the miss
        was an unreadable entry (now quarantined).  ``expected_format``
        (when given) is checked against the entry's ``format`` header; a
        mismatch is corruption-by-staleness and quarantines the same way.
        """
        payload: Optional[Dict[str, object]] = None
        corrupt = False
        try:
            with open(path, "r", encoding="utf-8") as handle:
                loaded = json.load(handle)
            if not isinstance(loaded, dict):
                corrupt = True
            elif (
                expected_format is not None
                and loaded.get("format") != expected_format
            ):
                corrupt = True
            else:
                payload = loaded
        except FileNotFoundError:
            pass
        except (OSError, ValueError):
            corrupt = True
        if corrupt:
            self.quarantine(namespace, path)
        if payload is None:
            self._count(namespace, "misses")
            self._journal("miss", namespace, "")
            return None, corrupt
        self._count(namespace, "hits")
        self._journal("hit", namespace, os.path.relpath(path, self.root))
        return payload, False

    def load(
        self,
        namespace: str,
        path: str,
        expected_format: Optional[int] = None,
    ) -> Optional[Dict[str, object]]:
        """The entry at ``path``, or None (miss, or quarantined corrupt)."""
        payload, _corrupt = self.load_entry(
            namespace, path, expected_format=expected_format
        )
        return payload

    def save(
        self, namespace: str, path: str, payload: Dict[str, object]
    ) -> bool:
        """Publish ``payload`` at ``path`` (atomic temp + replace).

        Disk trouble downgrades to not storing — the artifact is already
        in the caller's hands.  Returns True when the entry landed.
        """
        data = json.dumps(payload, sort_keys=True)
        try:
            os.makedirs(os.path.dirname(path), exist_ok=True)
            with publish_atomic(path) as handle:
                handle.write(data)
        except OSError:
            return False
        self._count(namespace, "stores")
        self._journal("store", namespace, os.path.relpath(path, self.root))
        return True

    def quarantine(self, namespace: str, path: str) -> bool:
        """Move a corrupt entry aside (one failed parse ever, inspectable).

        A concurrent writer republishing the path first just wins: we
        move whatever is there, and the next store recreates the entry.
        """
        dest_dir = os.path.join(self.root, _QUARANTINE)
        name = f"{namespace}--{os.path.basename(path)}"
        try:
            os.makedirs(dest_dir, exist_ok=True)
            os.replace(path, os.path.join(dest_dir, name))
        except OSError:
            return False
        self._count(namespace, "quarantined")
        return True

    # -- grouped-namespace helpers ----------------------------------------

    def load_group(
        self,
        namespace: str,
        group: str,
        expected_format: Optional[int] = None,
    ) -> List[Tuple[str, Dict[str, object]]]:
        """Every readable entry of one group, sorted by digest.

        The sort makes downstream consumers (campaign seeding) a pure
        function of the store state, independent of directory order.
        """
        directory = self.group_dir(namespace, group)
        try:
            names = sorted(
                n for n in os.listdir(directory)
                if n.endswith(".json") and not n.startswith(".tmp-")
            )
        except OSError:
            return []
        out: List[Tuple[str, Dict[str, object]]] = []
        for name in names:
            payload = self.load(
                namespace,
                os.path.join(directory, name),
                expected_format=expected_format,
            )
            if payload is not None:
                out.append((name[: -len(".json")], payload))
        return out

    # -- maintenance: stats / gc / verify / export -------------------------

    def _walk_entries(self) -> Iterator[Tuple[str, str, int, float]]:
        """Yield (namespace, relpath, size, mtime) for every entry file."""
        for namespace in NAMESPACES:
            top = os.path.join(self.root, namespace)
            for dirpath, _dirnames, filenames in os.walk(top):
                for name in filenames:
                    if not name.endswith(".json") or name.startswith(".tmp-"):
                        continue
                    path = os.path.join(dirpath, name)
                    try:
                        info = os.stat(path)
                    except OSError:
                        continue  # evicted/replaced underneath us
                    yield (
                        namespace,
                        os.path.relpath(path, self.root),
                        info.st_size,
                        info.st_mtime,
                    )

    def stats(self) -> Dict[str, object]:
        """Per-namespace entry counts and bytes, plus lifetime journal
        totals (hits, stores, evictions, per-tenant accesses)."""
        namespaces: Dict[str, Dict[str, int]] = {
            ns: {"entries": 0, "bytes": 0} for ns in NAMESPACES
        }
        for namespace, _relpath, size, _mtime in self._walk_entries():
            namespaces[namespace]["entries"] += 1
            namespaces[namespace]["bytes"] += size
        totals, tenants, _order = self.read_journal()
        out: Dict[str, object] = {
            "root": self.root,
            "namespaces": namespaces,
            "total_bytes": sum(n["bytes"] for n in namespaces.values()),
            "hits": totals["hits"],
            "misses": totals["misses"],
            "stores": totals["stores"],
            "evictions": totals["evictions"],
            "tenants": tenants,
        }
        hit_rates: Dict[str, float] = {}
        for ns in NAMESPACES:
            hits = totals["hits"].get(ns, 0)
            lookups = hits + totals["misses"].get(ns, 0)
            if lookups:
                hit_rates[ns] = round(hits / lookups, 4)
        out["hit_rates"] = hit_rates
        return out

    def gc(self, max_bytes: int) -> Dict[str, int]:
        """Evict least-recently-used entries until the store fits
        ``max_bytes``; compacts the journal.  Returns per-namespace
        eviction counts (empty when nothing had to go).

        Recency comes from the journal; entries never journaled (e.g.
        copied in by hand and never since read) rank oldest, ties break
        by path so two gcs over identical state agree.
        """
        totals, tenants, order = self.read_journal()
        entries = list(self._walk_entries())
        total = sum(size for _ns, _p, size, _m in entries)
        evicted: Dict[str, int] = {}
        if total > max_bytes:
            entries.sort(key=lambda e: (order.get(e[1], -1), e[1]))
            for namespace, relpath, size, _mtime in entries:
                if total <= max_bytes:
                    break
                path = os.path.join(self.root, relpath)
                try:
                    os.unlink(path)
                except OSError:
                    continue
                total -= size
                evicted[namespace] = evicted.get(namespace, 0) + 1
                order.pop(relpath, None)
                self._count(namespace, "evictions")
                # prune now-empty group/fanout dirs, best effort
                parent = os.path.dirname(path)
                while parent != self.root:
                    try:
                        os.rmdir(parent)
                    except OSError:
                        break
                    parent = os.path.dirname(parent)
        for namespace, count in evicted.items():
            totals["evictions"][namespace] = (
                totals["evictions"].get(namespace, 0) + count
            )
        self._compact_journal(totals, tenants, order)
        return evicted

    def _compact_journal(
        self,
        totals: Dict[str, Dict[str, int]],
        tenants: Dict[str, int],
        order: Dict[str, int],
    ) -> None:
        """Rewrite the journal: one cumulative totals line, then one
        access line per live path in recency order (atomic replace).

        Lines appended by concurrent writers between our read and the
        replace are lost to *recency* (their counts too) — acceptable
        drift for an advisory LRU; the entries themselves are untouched.
        """
        lines = [
            json.dumps(
                {
                    "op": "totals",
                    "hits": totals["hits"],
                    "misses": totals["misses"],
                    "stores": totals["stores"],
                    "evictions": totals["evictions"],
                    "tenants": tenants,
                },
                sort_keys=True,
            )
        ]
        live = {
            relpath for _ns, relpath, _size, _mtime in self._walk_entries()
        }
        ns_of = lambda relpath: relpath.split(os.sep, 1)[0]  # noqa: E731
        for relpath, _seq in sorted(order.items(), key=lambda kv: kv[1]):
            if relpath in live:
                # "touch": preserves recency without recounting as a hit
                lines.append(
                    json.dumps(
                        {"op": "touch", "ns": ns_of(relpath), "p": relpath},
                        sort_keys=True,
                    )
                )
        try:
            with publish_atomic(self._journal_path()) as handle:
                handle.write("\n".join(lines) + "\n")
        except OSError:
            pass

    def verify(self) -> Dict[str, int]:
        """Parse every entry; quarantine the unreadable.  Returns
        ``{"checked": n, "quarantined": n}``."""
        checked = 0
        quarantined = 0
        for namespace, relpath, _size, _mtime in list(self._walk_entries()):
            path = os.path.join(self.root, relpath)
            checked += 1
            try:
                with open(path, "r", encoding="utf-8") as handle:
                    payload = json.load(handle)
                if not isinstance(payload, dict) or not isinstance(
                    payload.get("format"), int
                ):
                    raise ValueError("not a store entry")
            except FileNotFoundError:
                checked -= 1  # evicted underneath us; nothing to verify
            except (OSError, ValueError):
                if self.quarantine(namespace, path):
                    quarantined += 1
        return {"checked": checked, "quarantined": quarantined}

    def export(self, namespace: str, dest: str) -> int:
        """Copy every entry of one namespace into ``dest`` (same relative
        layout, atomic per file).  Returns the number exported."""
        import shutil

        if namespace not in NAMESPACES:
            raise ValueError(
                f"unknown namespace {namespace!r} "
                f"(known: {', '.join(NAMESPACES)})"
            )
        count = 0
        for ns, relpath, _size, _mtime in self._walk_entries():
            if ns != namespace:
                continue
            src = os.path.join(self.root, relpath)
            target = os.path.join(os.path.abspath(dest), relpath)
            os.makedirs(os.path.dirname(target), exist_ok=True)
            try:
                with open(src, "rb") as source:
                    with publish_atomic(target) as handle:
                        # byte-exact: an unreadable entry exports as is
                        shutil.copyfileobj(source, handle.buffer)
            except OSError:
                continue
            count += 1
        return count


# -- corpus and crash records ------------------------------------------------


def record_search_outputs(
    store: ContentStore,
    src_sha: str,
    entry: str,
    corpus: Iterable[Dict[str, object]],
    crashes: Iterable[Dict[str, object]],
) -> None:
    """Record one search's corpus entries and crash buckets in ``store``.

    ``corpus`` holds ``{inputs, returned, error, error_message}`` dicts
    and ``crashes`` ``{bucket, message, count}`` dicts (the shapes a
    :class:`~repro.engine.runner.JobResult` carries).  Write-side only:
    corpus entries land under ``corpus/<group>/`` keyed by the digest of
    their input vector, crash buckets under ``crashes/<group>/`` keyed
    by the digest of the bucket string, both grouped by the program's
    source SHA-256 (plus entry point, for corpora).  Entries already
    present are left untouched, so re-running against a warm store is
    write-free.
    """
    group = corpus_group(src_sha, entry)
    for test in corpus:
        inputs = test.get("inputs")
        if not isinstance(inputs, dict):
            continue
        path = store.group_path("corpus", group, input_digest(inputs))
        if os.path.exists(path):
            continue
        store.save(
            "corpus",
            path,
            {
                "format": CORPUS_ENTRY_FORMAT,
                "source_sha": src_sha,
                "entry": entry,
                "inputs": {str(k): int(v) for k, v in inputs.items()},
                "returned": test.get("returned"),
                "error": test.get("error"),
                "error_message": test.get("error_message"),
            },
        )
    group = crash_group(src_sha)
    for crash in crashes:
        bucket = str(crash.get("bucket", "?"))
        path = store.group_path("crashes", group, source_sha(bucket))
        if os.path.exists(path):
            continue
        store.save(
            "crashes",
            path,
            {
                "format": CRASH_RECORD_FORMAT,
                "source_sha": src_sha,
                "entry": entry,
                "bucket": bucket,
                "message": str(crash.get("message", "")),
                "count": int(crash.get("count", 0) or 0),
            },
        )


def stored_seed_vectors(
    store: ContentStore, src_sha: str, entry: str
) -> List[Dict[str, int]]:
    """The input vectors of every stored corpus entry for one program
    source and entry point, sorted by digest — which makes a search
    seeded from them a pure function of the store state."""
    stored = store.load_group(
        "corpus",
        corpus_group(src_sha, entry),
        expected_format=CORPUS_ENTRY_FORMAT,
    )
    return [
        {str(k): int(v) for k, v in dict(payload["inputs"]).items()}
        for _digest, payload in stored
        if isinstance(payload.get("inputs"), dict)
    ]
