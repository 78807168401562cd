"""Multi-process campaign execution: the worker pool and its job protocol.

The unit of distribution is a :class:`~repro.engine.planner.SearchJob` —
source text plus plain-data options — and the unit of result is a
:class:`JobResult` — a picklable, JSON-able summary (counts, per-job suite
digest, corpus entries, metrics snapshot).  Nothing heavier ever crosses a
process boundary: workers rebuild :class:`~repro.solver.terms.TermManager`,
interpreter, and search state privately from the job, which is what makes
the pool **spawn-safe** (no reliance on fork sharing module state) and the
output independent of worker count.

Execution model
---------------
:class:`ProcessPoolRunner` with ``workers=1`` runs jobs in-process
(no pool, no pickling) — the reference execution every other
configuration must reproduce.  With ``workers>1`` it keeps a spawn-context
:class:`~concurrent.futures.ProcessPoolExecutor`; each worker handles many
jobs, installing a *fresh* per-job fault plan, metrics registry, and query
cache so a job's behaviour is a pure function of the job (plus the shared
on-disk cache, whose hits are answer-preserving by construction).  Results
are merged in sorted job-key order regardless of completion order, so the
campaign digest is byte-identical at every ``--workers`` value.

Failure containment mirrors PR 3's worker-thread story one level up,
and every dispatch runs under the recovery ladder of
:class:`~repro.engine.supervisor.CampaignSupervisor` (deadlines →
heartbeat watchdog → bounded retry → quarantine):

- the ``worker-proc`` fault site fires in the parent at dispatch time,
  standing in for a worker process killed mid-job; the job is recomputed
  in-process and the kill counted (``engine.worker_kills``);
- a genuinely broken pool (:class:`BrokenProcessPool`, a wedged worker
  the watchdog had to kill) is rebuilt once before the remaining jobs
  downgrade to in-process execution;
- a job whose *search* blows up returns ``ok=False`` with the error
  message — one bad program never takes down the campaign.

Campaign checkpointing (:class:`CampaignCheckpoint`) journals finished
jobs and failed supervisor attempts to ``<dir>/jobs.jsonl``; a rerun
pointed at the same directory skips finished jobs, feeds the saved
results straight to the merger, and never re-fires spent attempts.
"""

from __future__ import annotations

import json
import os
import time
from dataclasses import dataclass, field
from typing import (
    TYPE_CHECKING, Callable, Dict, Iterator, List, Optional, Sequence, Tuple,
    Union,
)

from ..errors import DeadlineExceeded, ReproError, SearchInterrupted
from ..faults import (
    FaultPlan,
    NULL_PLAN,
    use_fault_plan,
    use_hang_request,
)

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from .merger import Campaign
    from .supervisor import SupervisorConfig
from ..lang.natives import NativeRegistry
from ..lang.parser import parse_program
from ..obs import Observability
from ..obs.metrics import MetricsRegistry, default_registry, use_registry
from ..obs.tracer import Tracer
from ..search.corpus import TestCorpus
from ..search.report import suite_digest
from ..solver.cache import QueryCache, use_cache
from ..symbolic.concolic import ConcretizationMode
from .planner import SearchJob

__all__ = [
    "JobResult",
    "ProcessPoolRunner",
    "CampaignCheckpoint",
    "build_natives",
    "run_job",
    "search_outputs",
]

#: JobResult payload schema version (checkpointed campaigns self-invalidate)
#: v4: added ``source_sha`` (program-source identity for store grouping
#: and collision-free campaign-level crash buckets)
JOB_RESULT_FORMAT = 4

#: traceback frames kept in :attr:`JobResult.error_trace` for diagnosis
ERROR_TRACE_FRAMES = 5


def build_natives(name: str) -> NativeRegistry:
    """Resolve a job's natives-registry name inside the worker process."""
    if name == "paper":
        from ..apps.paper_programs import make_paper_natives

        return make_paper_natives()
    if name == "hashes":
        from ..apps.hashes import standard_registry

        return standard_registry(width=4)
    if name == "none":
        return NativeRegistry()
    raise ReproError(f"unknown natives registry {name!r}")


@dataclass
class JobResult:
    """Picklable summary of one finished (or failed) search job."""

    key: str
    ok: bool = True
    #: frontier scheduler the job's search ran under
    scheduler: str = ""
    #: error message of a job that failed outright (ok=False)
    error: str = ""
    #: truncated traceback tail of a failed job (diagnostics only: never
    #: part of the campaign digest, which folds ``error`` — tracebacks
    #: carry absolute paths that would break digest portability)
    error_trace: str = ""
    #: the search ended on a (contained) SearchInterrupted
    interrupted: bool = False
    #: the job ran past its wall-clock deadline (partial result salvaged;
    #: under a supervisor this attempt failed and the job is retried)
    deadline_exceeded: bool = False
    #: the job's worker process was killed and the job recomputed in-process
    killed_worker: bool = False
    #: attempts the supervisor spent on this job (1 = first try succeeded)
    attempts: int = 1
    #: the job exhausted its attempt budget; this is its last salvaged
    #: partial result, recorded so the campaign completes without it
    quarantined: bool = False
    #: the supervisor's watchdog declared this job's worker stalled at
    #: least once (heartbeat silence) before the job finished
    stalled: bool = False
    worker_pid: int = 0
    #: SHA-256 of the job's program source (the store's grouping identity;
    #: also what keeps campaign-level crash buckets collision-free across
    #: programs sharing an ``ExceptionClass@line``)
    source_sha: str = ""
    runs: int = 0
    paths: int = 0
    errors: List[str] = field(default_factory=list)
    crashes: List[Dict[str, object]] = field(default_factory=list)
    downgrades: Dict[str, int] = field(default_factory=dict)
    deferred_flips: int = 0
    abandoned_flips: int = 0
    divergences: int = 0
    solver_calls: int = 0
    coverage: Optional[float] = None
    suite_digest: str = ""
    #: generated tests (TestCorpus entry dicts)
    corpus: List[Dict[str, object]] = field(default_factory=list)
    seconds: float = 0.0
    generate_seconds: float = 0.0
    execute_seconds: float = 0.0
    #: in-memory + disk query-cache counters for this job
    cache: Dict[str, int] = field(default_factory=dict)
    #: metrics registry snapshot (counters/gauges/histograms)
    metrics: Dict[str, object] = field(default_factory=dict)

    @property
    def error_count(self) -> int:
        return len(self.errors)

    def to_payload(self) -> Dict[str, object]:
        """JSON-able dict (campaign --json, checkpoint journal)."""
        return {
            "format": JOB_RESULT_FORMAT,
            "key": self.key,
            "ok": self.ok,
            "scheduler": self.scheduler,
            "error": self.error,
            "error_trace": self.error_trace,
            "interrupted": self.interrupted,
            "deadline_exceeded": self.deadline_exceeded,
            "killed_worker": self.killed_worker,
            "attempts": self.attempts,
            "quarantined": self.quarantined,
            "stalled": self.stalled,
            "worker_pid": self.worker_pid,
            "source_sha": self.source_sha,
            "runs": self.runs,
            "paths": self.paths,
            "errors": list(self.errors),
            "crashes": [dict(c) for c in self.crashes],
            "downgrades": dict(self.downgrades),
            "deferred_flips": self.deferred_flips,
            "abandoned_flips": self.abandoned_flips,
            "divergences": self.divergences,
            "solver_calls": self.solver_calls,
            "coverage": self.coverage,
            "suite_digest": self.suite_digest,
            "corpus": [dict(e) for e in self.corpus],
            "seconds": round(self.seconds, 6),
            "generate_seconds": round(self.generate_seconds, 6),
            "execute_seconds": round(self.execute_seconds, 6),
            "cache": dict(self.cache),
            "metrics": self.metrics,
        }

    @classmethod
    def from_payload(cls, payload: Dict[str, object]) -> "JobResult":
        if payload.get("format") != JOB_RESULT_FORMAT:
            raise ReproError(
                f"job result format {payload.get('format')!r} "
                f"!= {JOB_RESULT_FORMAT}"
            )
        return cls(
            key=str(payload["key"]),
            ok=bool(payload["ok"]),
            scheduler=str(payload.get("scheduler", "")),
            error=str(payload.get("error", "")),
            error_trace=str(payload.get("error_trace", "")),
            interrupted=bool(payload.get("interrupted", False)),
            deadline_exceeded=bool(payload.get("deadline_exceeded", False)),
            killed_worker=bool(payload.get("killed_worker", False)),
            attempts=int(payload.get("attempts", 1)),
            quarantined=bool(payload.get("quarantined", False)),
            stalled=bool(payload.get("stalled", False)),
            worker_pid=int(payload.get("worker_pid", 0)),
            source_sha=str(payload.get("source_sha", "")),
            runs=int(payload.get("runs", 0)),
            paths=int(payload.get("paths", 0)),
            errors=[str(e) for e in payload.get("errors", [])],
            crashes=[dict(c) for c in payload.get("crashes", [])],
            downgrades={
                str(k): int(v)
                for k, v in dict(payload.get("downgrades", {})).items()
            },
            deferred_flips=int(payload.get("deferred_flips", 0)),
            abandoned_flips=int(payload.get("abandoned_flips", 0)),
            divergences=int(payload.get("divergences", 0)),
            solver_calls=int(payload.get("solver_calls", 0)),
            coverage=payload.get("coverage"),  # type: ignore[arg-type]
            suite_digest=str(payload.get("suite_digest", "")),
            corpus=[dict(e) for e in payload.get("corpus", [])],
            seconds=float(payload.get("seconds", 0.0)),
            generate_seconds=float(payload.get("generate_seconds", 0.0)),
            execute_seconds=float(payload.get("execute_seconds", 0.0)),
            cache={
                str(k): int(v) for k, v in dict(payload.get("cache", {})).items()
            },
            metrics=dict(payload.get("metrics", {})),
        )

    def summary(self) -> str:
        if not self.ok:
            label = "QUARANTINED" if self.quarantined else "FAILED"
            return f"{label}: {self.error}"
        extra = ""
        if self.crashes:
            extra += f" crashes={len(self.crashes)}"
        if self.interrupted:
            extra += " interrupted"
        if self.killed_worker:
            extra += " (worker killed; recomputed)"
        if self.attempts > 1:
            extra += f" (attempt {self.attempts})"
        cov = f"{self.coverage:.0%}" if self.coverage is not None else "n/a"
        return (
            f"runs={self.runs} paths={self.paths} errors={len(self.errors)} "
            f"divergences={self.divergences} coverage={cov}" + extra
        )


def _trace_tail(exc: BaseException) -> str:
    """Last :data:`ERROR_TRACE_FRAMES` traceback frames of ``exc``.

    Enough to diagnose a quarantined job straight from ``jobs.jsonl``
    without re-running it; elided frames are marked so a deep recursion
    doesn't balloon the checkpoint.
    """
    import traceback

    frames = traceback.format_tb(exc.__traceback__)
    tail = frames[-ERROR_TRACE_FRAMES:]
    head = (
        [f"  ... {len(frames) - ERROR_TRACE_FRAMES} frames elided ...\n"]
        if len(frames) > ERROR_TRACE_FRAMES
        else []
    )
    return "".join(head + tail + [f"{type(exc).__name__}: {exc}"]).rstrip()


def _job_cache(store_dir: Optional[str]) -> QueryCache:
    """A fresh per-job memory cache, backed by the store's ``solver/``
    namespace when a store directory is given."""
    if store_dir:
        from ..solver.diskcache import DiskCache

        return QueryCache(disk=DiskCache(store_dir))
    return QueryCache()


def _open_telemetry_shard(
    telemetry_dir: str, job_key: str, registry: MetricsRegistry
):
    """Open the job's journal shard; a failed open disables telemetry for
    this job (counted once), never the job itself."""
    from ..obs.shipper import open_shard

    try:
        return open_shard(telemetry_dir, job_key, os.getpid())
    except OSError:
        if registry.enabled:
            registry.counter("obs.shipper.open_errors").inc()
        return None


def _seal_shard(shard, out: JobResult) -> None:
    """Emit the shard's terminal ``job_finished`` event and close it."""
    if shard is None:
        return
    shard.emit(
        "job_finished",
        ok=out.ok,
        error=out.error,
        runs=out.runs,
        paths=out.paths,
        errors=len(out.errors),
        divergences=out.divergences,
        coverage=out.coverage,
        seconds=round(out.seconds, 6),
        suite_digest=out.suite_digest,
    )
    shard.close()


def search_outputs(result) -> Tuple[List[dict], List[dict]]:
    """A finished search's corpus and crash buckets as plain dicts — the
    shapes :class:`JobResult` carries and
    :func:`~repro.store.record_search_outputs` persists."""
    corpus = TestCorpus()
    corpus.add_from_search(result)
    tests = [
        {
            "inputs": entry.input_dict(),
            "returned": entry.returned,
            "error": entry.error,
            "error_message": entry.error_message,
        }
        for entry in corpus
    ]
    crashes = [
        {
            "bucket": c.bucket,
            "count": c.count,
            "message": c.message,
            "run_index": c.run_index,
        }
        for c in result.crashes
    ]
    return tests, crashes


def run_job(
    job: SearchJob,
    fault_spec: str = "",
    telemetry_dir: Optional[str] = None,
    hang: bool = False,
    store_dir: Optional[str] = None,
    seed_from_store: bool = False,
    store_tenant: str = "",
) -> JobResult:
    """Execute one job to completion in the current process.

    Importable at module top level (the process pool pickles it by
    reference).  Installs job-private ambient state — fresh fault plan,
    fresh metrics registry, fresh memory cache over the shared disk cache —
    so the result is a pure function of ``(job, disk cache contents)``,
    and disk-cache hits are answer-preserving by the cache's contract.

    With ``telemetry_dir`` set, the job's journal (spans, solver queries,
    per-run coverage heartbeats) streams to a private shard under
    ``<telemetry_dir>/shards/`` for the parent to tail and merge.
    Telemetry is strictly read-side: the generated suite and its digest
    are byte-identical with telemetry on or off.

    ``store_dir`` points at a shared content-addressed store
    (:class:`~repro.store.ContentStore`): its ``solver/`` namespace is
    the disk query cache, and the job's generated corpus and crash
    buckets are persisted into it.  ``seed_from_store=True``
    additionally seeds the search with every stored corpus entry
    recorded for this program source and entry point — deterministic
    given the store state, off by default so legacy digests stay
    byte-identical.  ``store_tenant``
    tags the store's access journal for per-tenant accounting.

    ``hang=True`` arms the injected ``hang`` fault for this job: the
    search wedges at its next run boundary until its deadline (or an
    external stop) reclaims it.  The supervisor passes it only on a
    job's first attempt, which is what keeps retries answer-preserving.
    """
    from ..search.directed import DirectedSearch, SearchConfig
    from ..store import (
        ContentStore,
        record_search_outputs,
        source_sha,
        stored_seed_vectors,
    )

    out = JobResult(
        key=job.key,
        scheduler=str(job.config.get("scheduler", "dfs")),
        worker_pid=os.getpid(),
        source_sha=source_sha(job.source),
    )
    plan = FaultPlan.parse(fault_spec) if fault_spec else NULL_PLAN
    registry = MetricsRegistry()
    cache = _job_cache(store_dir)
    store = (
        ContentStore(store_dir, tenant=store_tenant) if store_dir else None
    )
    shard = None
    start = time.perf_counter()
    try:
        program = parse_program(job.source)
        natives = build_natives(job.natives)
        mode = ConcretizationMode(job.strategy)
        options = dict(job.config)
        if seed_from_store and store is not None and "seed_corpus" not in options:
            # seed with the prior corpora recorded for this exact program
            # source + entry point; sorted-by-digest order makes the
            # seeded search a pure function of the store state
            with use_registry(registry):
                seeds = stored_seed_vectors(store, out.source_sha, job.entry)
            if seeds:
                options["seed_corpus"] = seeds
        config = SearchConfig.from_options(**options)
        with use_fault_plan(plan), use_registry(registry), use_cache(cache), \
                use_hang_request(hang):
            obs: Optional[Observability] = None
            if telemetry_dir:
                shard = _open_telemetry_shard(telemetry_dir, job.key, registry)
                if shard is not None:
                    obs = Observability(
                        tracer=Tracer(journal=shard),
                        metrics=registry,
                        journal=shard,
                    )
            search = DirectedSearch.for_mode(
                program, job.entry, natives, mode, config, obs=obs
            )
            try:
                result = search.run(dict(job.seed))
            except SearchInterrupted as exc:
                if isinstance(exc, DeadlineExceeded):
                    out.deadline_exceeded = True
                result = getattr(exc, "partial_result", None)
                if result is None:
                    raise
    except Exception as exc:  # noqa: BLE001 - contained per-job failure
        out.ok = False
        out.error = f"{type(exc).__name__}: {exc}"
        out.error_trace = _trace_tail(exc)
        if isinstance(exc, DeadlineExceeded):
            out.deadline_exceeded = True
        out.seconds = time.perf_counter() - start
        _seal_shard(shard, out)
        out.metrics = registry.snapshot()
        return out
    out.seconds = time.perf_counter() - start
    out.interrupted = result.interrupted
    out.runs = result.runs
    out.paths = result.distinct_paths
    out.errors = [str(e) for e in result.errors]
    out.corpus, out.crashes = search_outputs(result)
    out.downgrades = dict(result.downgrades)
    out.deferred_flips = result.deferred_flips
    out.abandoned_flips = result.abandoned_flips
    out.divergences = result.divergences
    out.solver_calls = result.solver_calls
    out.coverage = (
        round(result.coverage.ratio(), 4) if result.coverage else None
    )
    out.suite_digest = suite_digest(result)
    out.generate_seconds = result.time_generating
    out.execute_seconds = result.time_executing
    if store is not None:
        with use_registry(registry):
            record_search_outputs(
                store, out.source_sha, job.entry, out.corpus, out.crashes
            )
    disk = cache.disk
    out.cache = {
        "hits": cache.hits,
        "misses": cache.misses,
        "disk_hits": disk.hits if disk is not None else 0,
        "disk_misses": disk.misses if disk is not None else 0,
        "disk_stores": disk.stores if disk is not None else 0,
        "disk_skipped": disk.skipped if disk is not None else 0,
    }
    _seal_shard(shard, out)
    out.metrics = registry.snapshot()
    return out


def _ensure_importable_by_children() -> None:
    """Make sure spawned workers can import this package.

    Spawned children re-import :mod:`repro` from scratch; if the parent
    found it through a ``sys.path`` entry that is not in ``PYTHONPATH``
    (the usual ``PYTHONPATH=src`` dev setup covers it, an in-process
    ``sys.path.insert`` does not), export that entry so the child's
    interpreter sees it too.
    """
    package_root = os.path.dirname(
        os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    )
    existing = os.environ.get("PYTHONPATH", "")
    parts = existing.split(os.pathsep) if existing else []
    if package_root not in parts:
        os.environ["PYTHONPATH"] = (
            os.pathsep.join([package_root] + parts) if parts else package_root
        )


class ProcessPoolRunner:
    """Run a batch of jobs across worker processes (or in-process).

    Results come back in the *given job order* whatever the completion
    order; downstream merging re-sorts by key anyway.  ``progress`` (if
    given) is called with each finished :class:`JobResult` as it lands,
    in completion order — display only, never ordering-relevant.

    The runner owns *where* jobs execute; every dispatch is driven by a
    :class:`~repro.engine.supervisor.CampaignSupervisor`, which owns
    *whether they keep running* (deadlines, the heartbeat watchdog,
    bounded retry, quarantine, pool rebuilds, graceful shutdown — see
    :mod:`repro.engine.supervisor`).  At the default policy a healthy
    campaign behaves exactly as before; the supervisor only shows its
    hand when something wedges, dies, or a shutdown is requested.
    """

    def __init__(
        self,
        workers: int = 1,
        fault_spec: str = "",
        telemetry_dir: Optional[str] = None,
        supervisor: Optional["SupervisorConfig"] = None,
        store_dir: Optional[str] = None,
        seed_from_store: bool = False,
    ) -> None:
        if workers < 1:
            raise ReproError(f"workers must be >= 1 (got {workers})")
        self.workers = workers
        self.fault_spec = fault_spec
        #: when set, every job ships its journal shard under this directory
        self.telemetry_dir = telemetry_dir
        #: shared content-addressed store (solver disk cache, corpora,
        #: crash buckets)
        self.store_dir = os.path.abspath(store_dir) if store_dir else None
        #: seed each job's search from the store's prior corpora (OFF by
        #: default: classic campaigns stay byte-identical)
        self.seed_from_store = seed_from_store
        #: supervision policy (None = defaults: 2 attempts, no deadline)
        self.supervisor_config = supervisor
        #: the supervisor of the most recent :meth:`run` (its
        #: pool-rebuild tally feeds the report)
        self.last_supervisor = None

    # -- execution ---------------------------------------------------------

    def run(
        self,
        jobs: Union["Campaign", Sequence[SearchJob]],
        progress: Optional[Callable[[JobResult], None]] = None,
    ) -> List[JobResult]:
        """Run ``jobs`` under supervision; results in job order.

        ``jobs`` is a plain job sequence or a
        :class:`~repro.engine.merger.Campaign`, whose checkpoint
        persists each failed attempt and each finished job as it lands,
        making a SIGKILL'd campaign resumable without re-firing spent
        attempts.  Raises :class:`~repro.errors.SearchInterrupted` when
        a shutdown was requested mid-campaign (finished jobs are
        checkpointed first).
        """
        from .supervisor import CampaignSupervisor

        supervisor = CampaignSupervisor(self, self.supervisor_config)
        self.last_supervisor = supervisor
        return supervisor.run(jobs, progress)

    def serve(
        self,
        source,
        progress: Optional[Callable[[JobResult], None]] = None,
    ) -> int:
        """Serve job leases from ``source`` until it runs dry.

        The open-ended counterpart of :meth:`run` for the campaign
        service: ``source`` is a
        :class:`~repro.engine.supervisor.JobLeaseSource` whose leases
        carry their own campaign's checkpoint and telemetry directory.
        Returns the number of jobs settled.
        """
        from .supervisor import CampaignSupervisor

        supervisor = CampaignSupervisor(self, self.supervisor_config)
        self.last_supervisor = supervisor
        return supervisor.serve(source, progress)


class CampaignCheckpoint:
    """Per-job completion and attempt journal for interrupt-safe campaigns.

    Two kinds of JSONL lines under ``<dir>/jobs.jsonl``:

    - a **result** line (a :class:`JobResult` payload, distinguished by
      its ``format`` field) — the job is done and a rerun skips it;
    - an **attempt** line (``{"attempt_of": key, "attempt": n, "outcome":
      ..., ...}``) — one *failed* supervisor attempt, persisted so a
      killed-and-resumed campaign continues the attempt count instead of
      re-firing spent attempts (a job that already burned its budget is
      quarantined immediately on resume, not retried from scratch).

    Loading tolerates truncated tails (a write cut short by the
    interruption that the checkpoint exists to survive) and stale formats
    by skipping them.  It is the one reader of ``jobs.jsonl``: resume and
    ``repro stats`` see the same finished jobs and attempt counts.
    """

    FILENAME = "jobs.jsonl"

    def __init__(self, directory: str) -> None:
        self.directory = os.path.abspath(directory)
        os.makedirs(self.directory, exist_ok=True)
        self.path = os.path.join(self.directory, self.FILENAME)
        self._done: Dict[str, JobResult] = {}
        self._attempts: Dict[str, int] = {}
        self._last_attempt: Dict[str, Dict[str, object]] = {}
        self._load()
        self._broken = False

    def _load(self) -> None:
        self._torn_tail = False
        try:
            with open(self.path, "r", encoding="utf-8") as handle:
                for raw in handle:
                    # a last line without its newline is a torn write
                    self._torn_tail = not raw.endswith("\n")
                    line = raw.strip()
                    if not line:
                        continue
                    try:
                        payload = json.loads(line)
                    except json.JSONDecodeError:
                        continue
                    if not isinstance(payload, dict):
                        continue
                    if "attempt_of" in payload:
                        key = str(payload["attempt_of"])
                        self._attempts[key] = max(
                            self._attempts.get(key, 0),
                            int(payload.get("attempt", 0) or 0),
                        )
                        self._last_attempt[key] = payload
                        continue
                    try:
                        result = JobResult.from_payload(payload)
                    except (ReproError, KeyError, ValueError, TypeError):
                        continue
                    self._done[result.key] = result
        except FileNotFoundError:
            pass

    def __iter__(self) -> Iterator[JobResult]:
        """Every saved result, in journal order."""
        return iter(list(self._done.values()))

    def failed_attempts(self) -> Dict[str, int]:
        """Failed attempts already spent, per job key with any."""
        return dict(self._attempts)

    def completed(self, key: str) -> Optional[JobResult]:
        """The saved result for ``key``, if this campaign already ran it."""
        return self._done.get(key)

    def attempts(self, key: str) -> int:
        """Failed attempts already spent on ``key`` (this run + prior runs)."""
        return self._attempts.get(key, 0)

    def last_attempt(self, key: str) -> Optional[Dict[str, object]]:
        """The most recent attempt-ledger line for ``key`` (for quarantine
        salvage on resume), or None."""
        return self._last_attempt.get(key)

    def record(self, result: JobResult) -> None:
        """Append one finished job (flushed immediately; best effort)."""
        self._done[result.key] = result
        self._append(result.to_payload())

    def record_attempt(
        self,
        key: str,
        attempt: int,
        outcome: str,
        error: str = "",
        partial: Optional[JobResult] = None,
    ) -> None:
        """Append one failed attempt to the ledger (flushed immediately).

        ``outcome`` names the failure class (``deadline``, ``error``,
        ``pool``, ``stalled``, ``timeout``); ``partial`` carries the
        attempt's salvaged partial result, kept so a quarantine after a
        kill→resume can still surface the best result seen.
        """
        line: Dict[str, object] = {
            "attempt_of": key,
            "attempt": int(attempt),
            "outcome": outcome,
        }
        if error:
            line["error"] = error
        if partial is not None:
            line["partial"] = partial.to_payload()
        self._attempts[key] = max(self._attempts.get(key, 0), int(attempt))
        self._last_attempt[key] = line
        self._append(line)

    def _append(self, payload: Dict[str, object]) -> None:
        if self._broken:
            return
        try:
            with open(self.path, "a", encoding="utf-8") as handle:
                if self._torn_tail:
                    # start past the fragment, or the two share one line
                    handle.write("\n")
                    self._torn_tail = False
                handle.write(json.dumps(payload, sort_keys=True))
                handle.write("\n")
                handle.flush()
        except OSError:
            # same policy as the run journal: count once, then disable
            self._broken = True
            registry = default_registry()
            if registry.enabled:
                registry.counter("engine.checkpoint_errors").inc()

    def __len__(self) -> int:
        return len(self._done)
