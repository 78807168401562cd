"""Campaigns: one lifecycle, one report, one handle contract.

:class:`Campaign` is the lifecycle every campaign goes through, whether
a batch :class:`repro.api.Client` or the ``repro serve`` scheduler runs
it: **plan** (expand the spec into jobs), **resume** (serve finished
jobs from the checkpoint, leave the rest pending), **settle** (record
each finished job, in memory and as its ``jobs.jsonl`` result line) and
**report** (one merge over every settled result).  Report totals are
read off the results, so a campaign reports the same numbers however
often it was resumed and whichever front door ran it.

The merge is **order-insensitive by construction**: whatever order the
pool finished jobs in, :class:`ResultMerger` sorts them by job key before
folding, so the merged corpus, crash buckets, ladder stats, aggregated
metrics, and above all the **campaign digest** are byte-identical at any
``--workers`` value — the same determinism discipline checkpoint/resume
holds within one search, one level up.

The campaign digest is a SHA-256 over ``(key, ok, suite_digest | error)``
per job in sorted-key order.  It deliberately excludes timings, cache
counters, worker pids, and containment flags (a recomputed job after a
worker kill yields the same suite, so the kill is invisible here).
"""

from __future__ import annotations

import hashlib
import time
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Sequence

from ..obs.shipper import merge_shards
from .planner import BatchPlanner, CampaignSpec, SearchJob
from .runner import CampaignCheckpoint, JobResult

__all__ = [
    "TERMINAL",
    "Campaign",
    "CampaignHandle",
    "CampaignReport",
    "ResultMerger",
]

#: campaign states with nothing left to wait for
TERMINAL = ("done", "cancelled", "failed")


@dataclass
class CampaignReport:
    """Everything a campaign produced, in canonical (sorted-key) order."""

    jobs: List[JobResult] = field(default_factory=list)
    campaign_digest: str = ""
    #: wall-clock seconds for the whole campaign (parent-side)
    seconds: float = 0.0
    #: worker-process kills contained during execution
    killed_workers: int = 0
    #: jobs served from a campaign checkpoint instead of re-run
    resumed_jobs: int = 0
    #: supervisor retry dispatches (attempts beyond each job's first)
    retried_jobs: int = 0
    #: keys of jobs quarantined after exhausting their attempt budget
    quarantined_jobs: List[str] = field(default_factory=list)
    #: jobs the heartbeat watchdog declared stalled at least once
    stalled_jobs: int = 0
    #: worker pools rebuilt after a break or a wedged worker
    pool_rebuilds: int = 0
    #: crash buckets aggregated across jobs: bucket -> total count
    crash_buckets: Dict[str, int] = field(default_factory=dict)
    #: degradation-ladder downgrades aggregated across jobs
    downgrades: Dict[str, int] = field(default_factory=dict)
    #: selected counters aggregated across job metric snapshots
    counters: Dict[str, int] = field(default_factory=dict)
    #: total seconds inside SMT checks, summed over jobs
    smt_check_seconds: float = 0.0
    #: telemetry directory the campaign shipped journal shards to ("" = off)
    telemetry_dir: str = ""
    #: events in the merged campaign journal (0 when telemetry is off)
    journal_events: int = 0

    # -- derived totals ----------------------------------------------------

    @property
    def ok_jobs(self) -> List[JobResult]:
        return [j for j in self.jobs if j.ok]

    @property
    def failed_jobs(self) -> List[JobResult]:
        return [j for j in self.jobs if not j.ok]

    @property
    def total_runs(self) -> int:
        return sum(j.runs for j in self.jobs)

    @property
    def total_paths(self) -> int:
        return sum(j.paths for j in self.jobs)

    @property
    def total_errors(self) -> int:
        return sum(len(j.errors) for j in self.jobs)

    @property
    def total_divergences(self) -> int:
        return sum(j.divergences for j in self.jobs)

    @property
    def total_solver_calls(self) -> int:
        return sum(j.solver_calls for j in self.jobs)

    @property
    def total_tests(self) -> int:
        return sum(len(j.corpus) for j in self.jobs)

    def cache_totals(self) -> Dict[str, int]:
        """Query-cache counters summed across jobs."""
        totals: Dict[str, int] = {}
        for job in self.jobs:
            for name, value in job.cache.items():
                totals[name] = totals.get(name, 0) + value
        return totals

    def disk_cache_stats(self) -> Dict[str, object]:
        """Shared disk-cache rollup: hits/misses/stores/corrupt-skips and
        the derived hit rate (None before the first lookup)."""
        totals = self.cache_totals()
        hits = totals.get("disk_hits", 0)
        misses = totals.get("disk_misses", 0)
        lookups = hits + misses
        return {
            "hits": hits,
            "misses": misses,
            "stores": totals.get("disk_stores", 0),
            "corrupt_skipped": totals.get("disk_skipped", 0),
            "hit_rate": round(hits / lookups, 4) if lookups else None,
        }

    def merged_corpus(self) -> List[Dict[str, object]]:
        """Every generated test, tagged with its job key, in key order."""
        merged: List[Dict[str, object]] = []
        for job in self.jobs:
            for entry in job.corpus:
                tagged = dict(entry)
                tagged["job"] = job.key
                merged.append(tagged)
        return merged

    def summary(self) -> str:
        parts = [
            f"jobs={len(self.jobs)}",
            f"runs={self.total_runs}",
            f"paths={self.total_paths}",
            f"errors={self.total_errors}",
            f"divergences={self.total_divergences}",
            f"tests={self.total_tests}",
        ]
        if self.failed_jobs:
            parts.append(f"failed={len(self.failed_jobs)}")
        if self.crash_buckets:
            parts.append(f"crash_buckets={len(self.crash_buckets)}")
        if self.killed_workers:
            parts.append(f"killed_workers={self.killed_workers}")
        if self.resumed_jobs:
            parts.append(f"resumed={self.resumed_jobs}")
        if self.retried_jobs:
            parts.append(f"retried={self.retried_jobs}")
        if self.stalled_jobs:
            parts.append(f"stalled={self.stalled_jobs}")
        if self.pool_rebuilds:
            parts.append(f"pool_rebuilds={self.pool_rebuilds}")
        if self.quarantined_jobs:
            parts.append(f"quarantined={len(self.quarantined_jobs)}")
        return " ".join(parts)

    def to_payload(self) -> Dict[str, object]:
        """JSON-able form of the whole report (campaign --json)."""
        cache = self.cache_totals()
        return {
            "campaign_digest": self.campaign_digest,
            "jobs": [j.to_payload() for j in self.jobs],
            "totals": {
                "jobs": len(self.jobs),
                "failed_jobs": len(self.failed_jobs),
                "runs": self.total_runs,
                "paths": self.total_paths,
                "errors": self.total_errors,
                "divergences": self.total_divergences,
                "solver_calls": self.total_solver_calls,
                "tests": self.total_tests,
                "killed_workers": self.killed_workers,
                "resumed_jobs": self.resumed_jobs,
                "retried_jobs": self.retried_jobs,
                "quarantined_jobs": list(self.quarantined_jobs),
                "stalled_jobs": self.stalled_jobs,
                "pool_rebuilds": self.pool_rebuilds,
            },
            "crash_buckets": dict(self.crash_buckets),
            "downgrades": dict(self.downgrades),
            "cache": cache,
            "disk_cache": self.disk_cache_stats(),
            "counters": dict(self.counters),
            "smt_check_seconds": round(self.smt_check_seconds, 6),
            "seconds": round(self.seconds, 6),
            "telemetry_dir": self.telemetry_dir,
            "journal_events": self.journal_events,
        }

    @classmethod
    def from_payload(cls, payload: Dict[str, object]) -> "CampaignReport":
        """Rebuild a report from :meth:`to_payload` (service ``result.json``).

        The round-trip preserves everything a client can observe —
        jobs, digest, totals, buckets — so a report fetched by ticket
        is interchangeable with the one the campaign returned live.
        """
        totals = payload.get("totals", {})
        if not isinstance(totals, dict):
            totals = {}
        return cls(
            jobs=[
                JobResult.from_payload(dict(j))
                for j in payload.get("jobs", [])  # type: ignore[union-attr]
            ],
            campaign_digest=str(payload.get("campaign_digest", "")),
            seconds=float(payload.get("seconds", 0.0)),  # type: ignore[arg-type]
            killed_workers=int(totals.get("killed_workers", 0)),
            resumed_jobs=int(totals.get("resumed_jobs", 0)),
            retried_jobs=int(totals.get("retried_jobs", 0)),
            quarantined_jobs=[
                str(k) for k in totals.get("quarantined_jobs", [])
            ],
            stalled_jobs=int(totals.get("stalled_jobs", 0)),
            pool_rebuilds=int(totals.get("pool_rebuilds", 0)),
            crash_buckets={
                str(k): int(v)  # type: ignore[call-overload]
                for k, v in dict(payload.get("crash_buckets", {})).items()
            },
            downgrades={
                str(k): int(v)  # type: ignore[call-overload]
                for k, v in dict(payload.get("downgrades", {})).items()
            },
            counters={
                str(k): int(v)  # type: ignore[call-overload]
                for k, v in dict(payload.get("counters", {})).items()
            },
            smt_check_seconds=float(
                payload.get("smt_check_seconds", 0.0)  # type: ignore[arg-type]
            ),
            telemetry_dir=str(payload.get("telemetry_dir", "")),
            journal_events=int(payload.get("journal_events", 0)),  # type: ignore[call-overload]
        )


class ResultMerger:
    """Fold job results into a :class:`CampaignReport` deterministically."""

    #: counters lifted from job metric snapshots into the merged view
    AGGREGATED_COUNTERS = (
        "smt.checks",
        "smt.sat",
        "smt.unsat",
        "solver.cache.hits",
        "solver.cache.misses",
        "solver.diskcache.hits",
        "solver.diskcache.misses",
        "solver.diskcache.stores",
        "solver.diskcache.skipped",
        "search.runs",
        "search.divergences",
        "search.errors",
    )

    #: counter prefixes folded wholesale (per-scheduler queue/selection
    #: counters and per-namespace content-store counters: names depend on
    #: which schedulers/namespaces the campaign touched)
    AGGREGATED_PREFIXES = ("search.scheduler.", "store.")

    def merge(
        self,
        results: Sequence[JobResult],
        seconds: float = 0.0,
        killed_workers: int = 0,
        resumed_jobs: int = 0,
        retried_jobs: int = 0,
        pool_rebuilds: int = 0,
    ) -> CampaignReport:
        """Fold ``results`` into one report.

        Quarantines and stalls are read off the results themselves, so
        a resumed campaign reports the ones its checkpoint carries.
        """
        ordered = sorted(results, key=lambda r: r.key)
        keys = [r.key for r in ordered]
        if len(set(keys)) != len(keys):
            dupes = sorted({k for k in keys if keys.count(k) > 1})
            raise ValueError(f"duplicate job keys in campaign: {dupes}")
        report = CampaignReport(
            jobs=list(ordered),
            seconds=seconds,
            killed_workers=killed_workers,
            resumed_jobs=resumed_jobs,
            retried_jobs=retried_jobs,
            quarantined_jobs=[r.key for r in ordered if r.quarantined],
            stalled_jobs=sum(1 for r in ordered if r.stalled),
            pool_rebuilds=pool_rebuilds,
        )
        digest = hashlib.sha256()
        for job in ordered:
            digest.update(
                repr(
                    (job.key, job.ok, job.suite_digest if job.ok else job.error)
                ).encode("utf-8")
            )
            for crash in job.crashes:
                bucket = str(crash.get("bucket", "?"))
                # campaign-level buckets are qualified by the program's
                # source identity: two programs raising the same
                # ``ExceptionClass@line`` must not collapse into one
                # bucket.  Per-job buckets (which feed suite digests)
                # stay unqualified.  Display-side only — the campaign
                # digest never folds campaign-level buckets.
                if job.source_sha:
                    bucket = f"{job.source_sha[:12]}:{bucket}"
                report.crash_buckets[bucket] = report.crash_buckets.get(
                    bucket, 0
                ) + int(crash.get("count", 1))  # type: ignore[call-overload]
            for rung, count in job.downgrades.items():
                report.downgrades[rung] = report.downgrades.get(rung, 0) + count
            counters = job.metrics.get("counters", {})
            if isinstance(counters, dict):
                for name in self.AGGREGATED_COUNTERS:
                    value = counters.get(name)
                    if value:
                        report.counters[name] = report.counters.get(
                            name, 0
                        ) + int(value)  # type: ignore[call-overload]
                for name, value in counters.items():
                    if value and any(
                        str(name).startswith(p) for p in self.AGGREGATED_PREFIXES
                    ):
                        report.counters[str(name)] = report.counters.get(
                            str(name), 0
                        ) + int(value)  # type: ignore[call-overload]
            histograms = job.metrics.get("histograms", {})
            if isinstance(histograms, dict):
                check = histograms.get("smt.check_seconds", {})
                if isinstance(check, dict):
                    report.smt_check_seconds += float(check.get("total", 0.0))
        report.campaign_digest = digest.hexdigest()
        return report


class Campaign:
    """One campaign's lifecycle: plan → resume → settle → report.

    Construction plans and resumes: every job whose result line is in
    the checkpoint is settled already (its attempt ledger and result are
    authoritative — nothing re-runs, no spent attempt fires again), the
    rest are :attr:`pending` in job order.  A runner settles each job it
    finishes through :meth:`settle`; :meth:`report` merges once.
    """

    def __init__(
        self,
        jobs: Sequence[SearchJob],
        checkpoint_dir: Optional[str] = None,
        telemetry_dir: Optional[str] = None,
    ) -> None:
        self.jobs = list(jobs)
        #: the result journal and attempt ledger (None = not resumable)
        self.checkpoint = (
            CampaignCheckpoint(checkpoint_dir) if checkpoint_dir else None
        )
        #: where the jobs ship their telemetry shards (None = off)
        self.telemetry_dir = telemetry_dir
        #: settled results by key (checkpoint-loaded + freshly settled)
        self.results: Dict[str, JobResult] = {}
        #: jobs with no result yet, in job (sorted key) order
        self.pending: List[SearchJob] = []
        for job in self.jobs:
            saved = (
                self.checkpoint.completed(job.key)
                if self.checkpoint is not None
                else None
            )
            if saved is None:
                self.pending.append(job)
            else:
                self.results[job.key] = saved
        #: jobs served from the checkpoint instead of re-run
        self.resumed = len(self.results)
        self.started = time.perf_counter()

    @classmethod
    def plan(
        cls,
        spec: CampaignSpec,
        checkpoint_dir: Optional[str] = None,
        telemetry_dir: Optional[str] = None,
    ) -> "Campaign":
        """Expand ``spec`` with :class:`BatchPlanner` and resume it."""
        return cls(BatchPlanner().expand(spec), checkpoint_dir, telemetry_dir)

    @property
    def finished(self) -> bool:
        return len(self.results) == len(self.jobs)

    def settle(self, result: JobResult) -> None:
        """Record one finished job (ok, failed, or quarantined)."""
        self.results[result.key] = result
        if self.checkpoint is not None:
            self.checkpoint.record(result)

    def ordered_results(self) -> List[JobResult]:
        """Settled results in job order."""
        return [self.results[j.key] for j in self.jobs if j.key in self.results]

    def merge_telemetry(self) -> int:
        """Fold the shards into ``campaign.jsonl``; events merged.

        Best effort: shipping never fails a campaign, so an I/O error
        merges nothing.
        """
        if not self.telemetry_dir:
            return 0
        try:
            return merge_shards(self.telemetry_dir)[1]
        except OSError:
            return 0

    def report(self, pool_rebuilds: int = 0) -> CampaignReport:
        """Merge every settled result into the campaign's report."""
        results = list(self.results.values())
        report = ResultMerger().merge(
            results,
            seconds=time.perf_counter() - self.started,
            killed_workers=sum(1 for r in results if r.killed_worker),
            resumed_jobs=self.resumed,
            retried_jobs=sum(max(0, r.attempts - 1) for r in results),
            pool_rebuilds=pool_rebuilds,
        )
        if self.telemetry_dir:
            report.telemetry_dir = self.telemetry_dir
            report.journal_events = self.merge_telemetry()
        return report


class CampaignHandle:
    """One submitted campaign: observe, wait, cancel, fetch.

    The contract both backends honour (local background execution and
    the ``repro serve`` service):

    - :meth:`status` — ``queued`` | ``running`` | ``done`` |
      ``cancelled`` | ``failed``; :meth:`done` — terminal yet?
    - :meth:`wait` — block for the :class:`CampaignReport`; raises
      :class:`~repro.errors.SearchInterrupted` on cancellation/shutdown
      and :class:`~repro.errors.ReproError` on failure or timeout.
    - :meth:`result` — the report, if already finished (never blocks).
    - :meth:`cancel` — request cooperative cancellation: jobs already
      running finish (their results are kept), nothing new starts.
    - :meth:`stream_events` — iterate telemetry events as they land.

    ``ticket`` is the submission's content-addressed identity (SHA-256
    of spec + options + tenant): equal campaigns get equal tickets.
    """

    ticket: str

    def status(self) -> str:
        raise NotImplementedError

    def done(self) -> bool:
        return self.status() in TERMINAL

    def wait(self, timeout: Optional[float] = None) -> CampaignReport:
        raise NotImplementedError

    def result(self) -> CampaignReport:
        raise NotImplementedError

    def cancel(self) -> bool:
        raise NotImplementedError

    def stream_events(
        self, poll: float = 0.2, timeout: Optional[float] = None
    ) -> Iterator[Dict[str, object]]:
        raise NotImplementedError

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.ticket[:12]}, {self.status()})"
