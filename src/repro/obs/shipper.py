"""Cross-process journal shipping: worker shards → one campaign stream.

PR 1's :class:`~repro.obs.journal.RunJournal` is strictly per-process:
one search session, one JSONL file.  The multi-process campaign engine
(:mod:`repro.engine.runner`) runs many sessions in many worker processes
at once, so campaign-wide telemetry needs a shipping layer:

- **Shards** — each worker writes its job's journal to a private *shard*
  file under ``<telemetry-dir>/shards/``, named by the job key (plus a
  short content hash so hostile key characters cannot collide after
  sanitization).  The first event of every shard is a ``shard_opened``
  header carrying the job key and worker pid, so a shard is
  self-describing even if renamed.
- **Merging** — :func:`merge_shards` folds every shard into one ordered
  campaign stream, ``campaign.jsonl``.  Merge order is **deterministic**:
  events are ordered by ``(job key, seq)``, never by arrival time or
  worker id, so the merged stream is identical at any ``--workers`` value
  (the same discipline that keeps the campaign digest worker-count
  invariant).  Each merged event gains ``job`` (its shard's key) and
  ``gseq`` (its position in the merged order).
- **Tailing** — :class:`ShardReader` incrementally reads complete lines
  appended to the shard directory since the last poll, which is what
  lets ``repro stats --follow`` watch a *running* campaign without any
  coordination with the workers (shards are append-only; a partial final
  line is simply not yielded yet).
- **Aggregation** — :class:`CampaignStats` folds shard events and
  checkpointed job results into per-job rollups (coverage, solve rate,
  cache hit rate, ladder downgrades, crash buckets) for the live view
  and the ``repro stats <campaign-dir>`` table.

Everything here is read-side or append-only: shipping telemetry can
never perturb search answers, and suite/campaign digests are
byte-identical with telemetry on or off.
"""

from __future__ import annotations

import hashlib
import json
import os
import re
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, Iterator, List, Optional, Tuple

from ..atomic import publish_atomic
from .journal import RunJournal, _ENCODE

if TYPE_CHECKING:  # pragma: no cover - engine imports this package
    from ..engine.runner import JobResult

__all__ = [
    "SHARD_DIR",
    "CAMPAIGN_JOURNAL",
    "shard_path",
    "open_shard",
    "list_shards",
    "iter_shard_events",
    "merge_shards",
    "ShardReader",
    "ShardReaderGroup",
    "JobTelemetry",
    "CampaignStats",
]

#: shard files live under <telemetry-dir>/shards/
SHARD_DIR = "shards"
#: the merged campaign event stream file name
CAMPAIGN_JOURNAL = "campaign.jsonl"

#: shard journals flush every N events: fresh enough for a live tail,
#: far cheaper than one flush syscall per event
SHARD_FLUSH_EVERY = 16

_UNSAFE = re.compile(r"[^A-Za-z0-9._-]+")


def _shard_name(job_key: str) -> str:
    """Filesystem-safe shard file name for a job key (collision-proof)."""
    stem = _UNSAFE.sub("_", job_key)[:80].strip("_") or "job"
    digest = hashlib.sha256(job_key.encode("utf-8")).hexdigest()[:8]
    return f"{stem}-{digest}.jsonl"


def shard_path(telemetry_dir: str, job_key: str) -> str:
    """The shard file a job's journal is shipped to."""
    return os.path.join(telemetry_dir, SHARD_DIR, _shard_name(job_key))


def open_shard(
    telemetry_dir: str, job_key: str, worker_pid: int = 0
) -> RunJournal:
    """Open (truncating) a job's shard journal and write its header.

    The ``shard_opened`` header event tags the whole shard with the job
    key and worker pid; the merger reads it back, so the shard's file
    name is a convenience, not a source of truth.
    """
    path = shard_path(telemetry_dir, job_key)
    os.makedirs(os.path.dirname(path), exist_ok=True)
    journal = RunJournal(path, flush_every=SHARD_FLUSH_EVERY)
    journal.emit("shard_opened", job=job_key, worker=int(worker_pid))
    return journal


def iter_shard_events(path: str) -> Iterator[Dict[str, object]]:
    """Parse one shard's events, skipping corrupt/truncated lines."""
    try:
        handle = open(path, "r", encoding="utf-8")
    except OSError:
        return
    with handle:
        for line in handle:
            line = line.strip()
            if not line:
                continue
            try:
                event = json.loads(line)
            except json.JSONDecodeError:
                continue  # a write cut short mid-line; never fatal
            if isinstance(event, dict):
                yield event


def list_shards(telemetry_dir: str) -> List[Tuple[str, str]]:
    """``(job_key, path)`` for every readable shard, sorted by job key.

    The job key comes from the ``shard_opened`` header (first parseable
    event); a shard with no readable header is skipped.  Sorting by job
    key (file name as tie-break) is what makes every downstream
    consumer's ordering deterministic.
    """
    directory = os.path.join(telemetry_dir, SHARD_DIR)
    try:
        names = sorted(os.listdir(directory))
    except OSError:
        return []
    shards: List[Tuple[str, str]] = []
    for name in names:
        if not name.endswith(".jsonl"):
            continue
        path = os.path.join(directory, name)
        for event in iter_shard_events(path):
            if event.get("kind") == "shard_opened" and event.get("job"):
                shards.append((str(event["job"]), path))
            break
    shards.sort()
    return shards


def merge_shards(
    telemetry_dir: str, out_path: Optional[str] = None
) -> Tuple[str, int]:
    """Merge every shard into one ordered ``campaign.jsonl``.

    Events are ordered by ``(job key, seq)`` — a pure function of shard
    contents, independent of worker count and completion order — and
    tagged with ``job`` and a global ``gseq``.  The stream is written to
    a temp file and published atomically, so a concurrent ``--follow``
    reader only ever sees an absent or complete file.  Returns
    ``(path, merged event count)``.
    """
    out_path = out_path or os.path.join(telemetry_dir, CAMPAIGN_JOURNAL)
    shards = list_shards(telemetry_dir)
    count = 0
    os.makedirs(os.path.dirname(out_path) or ".", exist_ok=True)
    with publish_atomic(out_path) as handle:
        for job_key, path in shards:
            events = sorted(
                iter_shard_events(path),
                key=lambda e: int(e.get("seq", 0)),  # type: ignore[call-overload]
            )
            for event in events:
                event["job"] = job_key
                event["gseq"] = count
                handle.write(_ENCODE(event) + "\n")
                count += 1
    return out_path, count


class ShardReader:
    """Incremental reader over a growing shard directory.

    ``poll()`` returns the complete events appended since the previous
    poll, as ``(job_key, event)`` pairs in deterministic ``(job key,
    seq)`` order *within the poll batch*.  Bytes after the last newline
    are left for the next poll (the writer may be mid-line).  New shards
    appearing between polls are picked up automatically.
    """

    def __init__(self, telemetry_dir: str) -> None:
        self.telemetry_dir = telemetry_dir
        self._offsets: Dict[str, int] = {}
        self._jobs: Dict[str, str] = {}

    def poll(self) -> List[Tuple[str, Dict[str, object]]]:
        directory = os.path.join(self.telemetry_dir, SHARD_DIR)
        try:
            names = sorted(os.listdir(directory))
        except OSError:
            return []
        batch: List[Tuple[str, Dict[str, object]]] = []
        for name in names:
            if not name.endswith(".jsonl"):
                continue
            path = os.path.join(directory, name)
            offset = self._offsets.get(path, 0)
            try:
                with open(path, "r", encoding="utf-8") as handle:
                    handle.seek(offset)
                    chunk = handle.read()
            except OSError:
                continue
            if not chunk:
                continue
            complete, _, _partial = chunk.rpartition("\n")
            if not complete:
                continue
            self._offsets[path] = offset + len(complete.encode("utf-8")) + 1
            for line in complete.split("\n"):
                line = line.strip()
                if not line:
                    continue
                try:
                    event = json.loads(line)
                except json.JSONDecodeError:
                    continue
                if not isinstance(event, dict):
                    continue
                if event.get("kind") == "shard_opened" and event.get("job"):
                    self._jobs[path] = str(event["job"])
                job = self._jobs.get(path, os.path.splitext(name)[0])
                batch.append((job, event))
        batch.sort(key=lambda pair: (pair[0], int(pair[1].get("seq", 0))))  # type: ignore[call-overload]
        return batch


class ShardReaderGroup:
    """One incremental tail over *many* telemetry directories.

    The campaign service ships every campaign's shards into its own
    directory (the campaign dir doubles as the telemetry dir), but the
    shared fleet has exactly one heartbeat watchdog — this group is the
    demux between the two: :meth:`watch` lazily registers a directory,
    :meth:`poll` folds every registered reader's new events into one
    batch, deterministically ordered by ``(directory, job key, seq)``.
    Re-watching a directory is a no-op, so callers can re-assert the
    in-flight set every tick without resetting offsets.
    """

    def __init__(self) -> None:
        self._readers: Dict[str, ShardReader] = {}

    def watch(self, telemetry_dir: Optional[str]) -> None:
        if not telemetry_dir:
            return
        key = os.path.abspath(telemetry_dir)
        if key not in self._readers:
            self._readers[key] = ShardReader(telemetry_dir)

    def poll(self) -> List[Tuple[str, Dict[str, object]]]:
        batch: List[Tuple[str, Dict[str, object]]] = []
        for directory in sorted(self._readers):
            batch.extend(self._readers[directory].poll())
        return batch


@dataclass
class JobTelemetry:
    """Live rollup of one job, folded from shard events and/or its
    checkpointed :class:`~repro.engine.runner.JobResult`."""

    key: str
    state: str = "running"
    #: supervisor attempts observed (attempt-ledger lines + the result)
    attempts: int = 1
    scheduler: str = ""
    worker: int = 0
    runs: int = 0
    paths: int = 0
    tests: int = 0
    errors: int = 0
    divergences: int = 0
    solver_queries: int = 0
    sat_queries: int = 0
    solver_calls: int = 0
    deferred: int = 0
    abandoned: int = 0
    coverage: Optional[float] = None
    seconds: float = 0.0
    events: int = 0
    downgrades: Dict[str, int] = field(default_factory=dict)
    crashes: Dict[str, int] = field(default_factory=dict)
    cache: Dict[str, int] = field(default_factory=dict)

    @property
    def solve_rate(self) -> Optional[float]:
        """SAT answers per solver query (None before the first query)."""
        if not self.solver_queries:
            return None
        return self.sat_queries / self.solver_queries

    @property
    def cache_hit_rate(self) -> Optional[float]:
        hits = self.cache.get("hits", 0) + self.cache.get("disk_hits", 0)
        misses = self.cache.get("misses", 0)
        total = hits + misses
        return hits / total if total else None

    @property
    def disk_hit_rate(self) -> Optional[float]:
        hits = self.cache.get("disk_hits", 0)
        total = hits + self.cache.get("disk_misses", 0)
        return hits / total if total else None


class CampaignStats:
    """Campaign-wide aggregation for the live view and rollup tables.

    Two inputs, folded in any order:

    - :meth:`consume` — one shard/campaign-stream event (live tail);
    - :meth:`fold_result` — one checkpointed
      :class:`~repro.engine.runner.JobResult` (authoritative once a job
      finished; overwrites the event-derived approximation for that job).
    """

    def __init__(self) -> None:
        self.jobs: Dict[str, JobTelemetry] = {}
        self.total_events = 0
        #: scheduler/engine counters aggregated from finished job metrics
        self.counters: Dict[str, int] = {}

    # -- input: journal events --------------------------------------------

    def job(self, key: str) -> JobTelemetry:
        entry = self.jobs.get(key)
        if entry is None:
            entry = self.jobs[key] = JobTelemetry(key=key)
        return entry

    def consume(self, job_key: str, event: Dict[str, object]) -> None:
        job = self.job(job_key)
        if job.state == "done-checkpointed":
            # the checkpointed result already summarized this job exactly
            self.total_events += 1
            return
        job.events += 1
        self.total_events += 1
        kind = event.get("kind")
        if kind == "shard_opened":
            job.worker = int(event.get("worker", 0))  # type: ignore[call-overload]
        elif kind == "search_started":
            job.scheduler = str(event.get("scheduler", ""))
        elif kind == "run_executed":
            job.runs = max(job.runs, int(event.get("run", 0)) + 1)  # type: ignore[call-overload]
            coverage = event.get("coverage")
            if coverage is not None:
                job.coverage = float(coverage)  # type: ignore[arg-type]
            cache = event.get("cache")
            if isinstance(cache, dict):
                job.cache = {
                    str(k): int(v) for k, v in cache.items()  # type: ignore[call-overload]
                }
        elif kind == "test_generated":
            job.tests += 1
        elif kind == "solver_query":
            job.solver_queries += 1
            if event.get("sat"):
                job.sat_queries += 1
        elif kind == "error_found":
            job.errors += 1
        elif kind == "divergence_detected":
            job.divergences += 1
        elif kind == "crash_contained":
            bucket = str(event.get("bucket", "?"))
            job.crashes[bucket] = job.crashes.get(bucket, 0) + 1
        elif kind == "flip_downgraded":
            rung = str(event.get("rung", "?"))
            job.downgrades[rung] = job.downgrades.get(rung, 0) + 1
        elif kind == "flip_deferred":
            job.deferred += 1
        elif kind == "flip_abandoned":
            job.abandoned += 1
        elif kind == "search_finished":
            job.state = "done"
            job.runs = int(event.get("runs", job.runs))  # type: ignore[call-overload]
            job.paths = int(event.get("paths", job.paths))  # type: ignore[call-overload]
            job.errors = int(event.get("errors", job.errors))  # type: ignore[call-overload]
            job.divergences = int(  # type: ignore[call-overload]
                event.get("divergences", job.divergences)
            )
            job.solver_calls = int(  # type: ignore[call-overload]
                event.get("solver_calls", job.solver_calls)
            )
            job.seconds = float(event.get("seconds", job.seconds))  # type: ignore[arg-type]
            coverage = event.get("coverage")
            if coverage is not None:
                job.coverage = float(coverage)  # type: ignore[arg-type]
        elif kind == "job_finished":
            if not event.get("ok", True):
                job.state = "failed"

    # -- input: checkpointed job results -----------------------------------

    def fold_result(self, result: "JobResult") -> None:
        """Fold one checkpointed job result (authoritative)."""
        job = self.job(result.key)
        if result.quarantined:
            job.state = "quarantined"
        elif not result.ok:
            job.state = "failed"
        else:
            job.state = "done-checkpointed"
        job.attempts = max(job.attempts, result.attempts)
        job.scheduler = result.scheduler
        job.worker = result.worker_pid
        job.runs = result.runs
        job.paths = result.paths
        job.tests = len(result.corpus)
        job.errors = len(result.errors)
        job.divergences = result.divergences
        job.solver_calls = result.solver_calls
        job.deferred = result.deferred_flips
        job.abandoned = result.abandoned_flips
        job.seconds = result.seconds
        job.coverage = (
            float(result.coverage) if result.coverage is not None else None
        )
        job.downgrades = dict(result.downgrades)
        job.crashes = {}
        for crash in result.crashes:
            bucket = str(crash.get("bucket", "?"))
            job.crashes[bucket] = job.crashes.get(bucket, 0) + int(
                crash.get("count", 1)  # type: ignore[call-overload]
            )
        job.cache = dict(result.cache)
        counters = result.metrics.get("counters")
        if isinstance(counters, dict):
            queries = counters.get("smt.checks")
            if queries:
                job.solver_queries = int(queries)
                job.sat_queries = int(counters.get("smt.sat", 0))
            for name, value in counters.items():
                name = str(name)
                if name.startswith(
                    ("search.scheduler.", "engine.", "kernel.", "store.")
                ):
                    self.counters[name] = self.counters.get(name, 0) + int(value)

    def fold_checkpoint(self, campaign_dir: str) -> int:
        """Fold ``<dir>/jobs.jsonl`` as resume reads it (through
        :class:`~repro.engine.runner.CampaignCheckpoint`); returns how
        many finished jobs were folded."""
        from ..engine.runner import CampaignCheckpoint

        if not os.path.isdir(campaign_dir):
            return 0  # a read-only view must not create the directory
        checkpoint = CampaignCheckpoint(campaign_dir)
        for key, failed in checkpoint.failed_attempts().items():
            # N failed attempts: the job is on (or ended after) attempt N+1
            job = self.job(key)
            job.attempts = max(job.attempts, failed + 1)
        for result in checkpoint:
            self.fold_result(result)
        return len(checkpoint)

    # -- derived totals ----------------------------------------------------

    def ordered_jobs(self) -> List[JobTelemetry]:
        return [self.jobs[key] for key in sorted(self.jobs)]

    @property
    def finished_jobs(self) -> int:
        return sum(
            1 for j in self.jobs.values() if j.state.startswith("done")
        ) + self.failed_jobs + self.quarantined_jobs

    @property
    def failed_jobs(self) -> int:
        return sum(1 for j in self.jobs.values() if j.state == "failed")

    @property
    def quarantined_jobs(self) -> int:
        return sum(1 for j in self.jobs.values() if j.state == "quarantined")

    @property
    def running_jobs(self) -> int:
        return sum(1 for j in self.jobs.values() if j.state == "running")

    def crash_buckets(self) -> Dict[str, int]:
        out: Dict[str, int] = {}
        for job in self.jobs.values():
            for bucket, count in job.crashes.items():
                out[bucket] = out.get(bucket, 0) + count
        return out

    def downgrade_totals(self) -> Dict[str, int]:
        out: Dict[str, int] = {}
        for job in self.jobs.values():
            for rung, count in job.downgrades.items():
                out[rung] = out.get(rung, 0) + count
        return out

    def cache_totals(self) -> Dict[str, int]:
        out: Dict[str, int] = {}
        for job in self.jobs.values():
            for name, value in job.cache.items():
                out[name] = out.get(name, 0) + value
        return out
