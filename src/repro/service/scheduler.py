"""The service scheduler: many campaigns, one fleet, deterministic leases.

:class:`ServiceScheduler` is the
:class:`~repro.engine.supervisor.JobLeaseSource` behind ``repro
serve``.  Each :meth:`lease` call made while a fleet slot is free
re-scans the durable queue (new submissions and cancel markers are
picked up between any two leases), then grants one job under the
policy:

1. **fleet** — nothing is granted while every worker of the fleet
   holds a lease (leases are returned by completion or release);
2. **quota** — a tenant at its concurrent-lease quota is skipped;
3. **priority** — among eligible campaigns, highest priority wins;
4. **fair share** — ties go to the tenant with the fewest jobs
   currently leased (a tenant flooding the queue cannot starve the
   others: each of its finished jobs hands the comparison back);
5. **FIFO** — remaining ties go to the earliest submission, then jobs
   in sorted key order within a campaign.

Preemption is **job-granular by construction**: the fleet throttle
grants a lease only when a fleet slot is free, so a higher-priority
submission wins the *next* slot, never a running job.

Everything the scheduler decides is recoverable: activation plans jobs
with the same :class:`~repro.engine.planner.BatchPlanner` expansion a
standalone campaign uses, completed jobs are filtered through the
campaign's ``jobs.jsonl`` checkpoint, and a finished campaign's report
is merged from checkpointed results — so a server killed at any point
resumes by re-reading the state dir, spends no attempt twice, and
produces a campaign digest byte-identical to an uninterrupted
standalone run (job results are pure functions of the job plus the
shared disk cache; interleaving cannot change them).

One cross-campaign invariant: a job *key* is leased by at most one
campaign at a time.  Two tenants submitting overlapping specs produce
jobs with equal keys; serializing those leases keeps the supervisor's
heartbeat routing and the scheduler's completion routing unambiguous
(and has no digest effect — equal keys mean equal jobs).
"""

from __future__ import annotations

import time
from typing import Callable, Dict, List, Optional

from ..engine.merger import ResultMerger
from ..engine.planner import BatchPlanner, CampaignSpec, SearchJob
from ..engine.runner import CampaignCheckpoint, JobResult
from ..engine.supervisor import JobLease, JobLeaseSource
from ..errors import ReproError
from ..faults import NULL_PLAN
from ..obs.shipper import merge_shards
from .state import ServiceState, SubmissionRecord

__all__ = ["ServiceScheduler"]


class _ActiveCampaign:
    """In-memory execution state of one activated submission."""

    __slots__ = (
        "record",
        "spec",
        "jobs",
        "pending",
        "leased",
        "results",
        "checkpoint",
        "directory",
        "resumed",
        "cancelled",
        "started",
    )

    def __init__(
        self,
        record: SubmissionRecord,
        spec: CampaignSpec,
        jobs: List[SearchJob],
        checkpoint: CampaignCheckpoint,
        directory: str,
    ) -> None:
        self.record = record
        self.spec = spec
        self.jobs = jobs
        #: jobs with no result yet, in sorted key order
        self.pending: List[SearchJob] = []
        #: keys currently granted to the fleet
        self.leased: set = set()
        #: settled results by key (checkpoint-loaded + freshly completed)
        self.results: Dict[str, JobResult] = {}
        self.checkpoint = checkpoint
        self.directory = directory
        #: jobs served from the checkpoint instead of re-run (restart)
        self.resumed = 0
        self.cancelled = False
        self.started = time.perf_counter()


class ServiceScheduler(JobLeaseSource):
    """Lease jobs from every queued campaign under the service policy."""

    def __init__(
        self,
        state: ServiceState,
        default_quota: int = 0,
        quotas: Optional[Dict[str, int]] = None,
        fault_plan=None,
        idle_exit: bool = False,
        log: Optional[Callable[[str], None]] = None,
        workers: int = 0,
    ) -> None:
        self.state = state
        #: fleet size: max jobs leased at once across every tenant
        #: (0 = unlimited)
        self.workers = int(workers)
        #: max jobs a tenant may have leased at once (0 = unlimited)
        self.default_quota = int(default_quota)
        #: per-tenant quota overrides
        self.quotas = {str(k): int(v) for k, v in (quotas or {}).items()}
        #: plan consulted at the ``service`` fault site, once per lease
        self.plan = fault_plan if fault_plan is not None else NULL_PLAN
        #: when True, ``outstanding()`` goes False once nothing is active
        self.idle_exit = idle_exit
        self._log = log or (lambda message: None)
        #: activated campaigns by ticket, in activation order
        self._active: Dict[str, _ActiveCampaign] = {}
        #: cross-campaign lease routing: job key -> owning ticket
        self._leased_keys: Dict[str, str] = {}
        #: tickets already ingested (any terminal or active status)
        self._seen: set = set()

    # -- queue ingestion ---------------------------------------------------

    def refresh(self) -> None:
        """Fold queue changes: new submissions, restarts, cancellations."""
        for record in self.state.records():
            if record.ticket in self._seen:
                continue
            if record.status in ("done", "cancelled", "failed"):
                self._seen.add(record.ticket)
                continue
            self._seen.add(record.ticket)
            self._activate(record)
        for ticket in list(self._active):
            if self.state.cancel_requested(ticket):
                self._cancel(self._active[ticket])

    def _activate(self, record: SubmissionRecord) -> None:
        """Plan a queued/recovered submission onto the fleet."""
        directory = self.state.campaign_dir(record.ticket)
        try:
            # only these two options are read: records written by older
            # versions may carry the removed thread-count and
            # execution-core options, which were digest-neutral
            spec = CampaignSpec.from_payload(record.spec).with_overrides(
                scheduler=record.options.get("scheduler"),  # type: ignore[arg-type]
                job_deadline=record.options.get("job_deadline"),  # type: ignore[arg-type]
            )
            jobs = BatchPlanner().expand(spec)
        except ReproError as exc:
            # a submission that cannot even plan is the client's bug,
            # never the fleet's: record it and keep serving the rest
            record.status = "failed"
            record.error = str(exc)
            self.state.update(record)
            self._log(f"[{record.ticket[:12]}] failed to plan: {exc}")
            return
        checkpoint = CampaignCheckpoint(directory)
        campaign = _ActiveCampaign(record, spec, jobs, checkpoint, directory)
        for job in jobs:
            saved = checkpoint.completed(job.key)
            if saved is not None:
                # restart recovery: the attempt ledger and result lines
                # in jobs.jsonl are authoritative — nothing is re-run,
                # no spent attempt fires again
                campaign.results[job.key] = saved
                campaign.resumed += 1
            else:
                campaign.pending.append(job)
        resumed = f", {campaign.resumed} resumed" if campaign.resumed else ""
        self._log(
            f"[{record.ticket[:12]}] activated: {len(jobs)} jobs"
            f"{resumed} (tenant={record.tenant}, priority={record.priority})"
        )
        if record.status != "running":
            record.status = "running"
            self.state.update(record)
        self._active[record.ticket] = campaign
        if not campaign.pending and not campaign.leased:
            # fully served by the checkpoint (e.g. killed after the last
            # job landed but before finalize): finish it right here
            self._finalize(campaign, "done")

    def _cancel(self, campaign: _ActiveCampaign) -> None:
        if not campaign.cancelled:
            campaign.cancelled = True
            campaign.pending.clear()
            self._log(
                f"[{campaign.record.ticket[:12]}] cancel requested: "
                f"{len(campaign.leased)} leased jobs will finish"
            )
        if not campaign.leased:
            self._finalize(campaign, "cancelled")

    # -- the JobLeaseSource protocol ---------------------------------------

    def lease(self) -> Optional[JobLease]:
        if 0 < self.workers <= len(self._leased_keys):
            return None  # every fleet slot is taken
        self.refresh()
        campaign, job = self._pick()
        if campaign is None or job is None:
            return None
        campaign.pending.remove(job)
        campaign.leased.add(job.key)
        self._leased_keys[job.key] = campaign.record.ticket
        # the ``service`` fault site: a stand-in for killing the server
        # right here, lease granted but job not yet dispatched — nothing
        # durable records the lease, so a restarted server re-leases it
        # and the recovered digest matches an uninterrupted run
        self.plan.fire("service")
        return JobLease(
            job=job,
            checkpoint=campaign.checkpoint,
            telemetry_dir=campaign.directory,
            tenant=campaign.record.tenant,
        )

    def _pick(self) -> "tuple[Optional[_ActiveCampaign], Optional[SearchJob]]":
        inflight = self._tenant_inflight()
        candidates = [
            c
            for c in self._active.values()
            if c.pending and not c.cancelled and not self._throttled(c, inflight)
        ]
        candidates.sort(
            key=lambda c: (
                -c.record.priority,
                inflight.get(c.record.tenant, 0),
                c.record.seq,
                c.record.ticket,
            )
        )
        for campaign in candidates:
            for job in campaign.pending:
                if job.key not in self._leased_keys:
                    return campaign, job
        return None, None

    def _throttled(
        self, campaign: _ActiveCampaign, inflight: Dict[str, int]
    ) -> bool:
        tenant = campaign.record.tenant
        quota = self.quotas.get(tenant, self.default_quota)
        return quota > 0 and inflight.get(tenant, 0) >= quota

    def _tenant_inflight(self) -> Dict[str, int]:
        counts: Dict[str, int] = {}
        for ticket in self._leased_keys.values():
            campaign = self._active.get(ticket)
            if campaign is not None:
                tenant = campaign.record.tenant
                counts[tenant] = counts.get(tenant, 0) + 1
        return counts

    def outstanding(self) -> bool:
        if self._active:
            return True
        return not self.idle_exit

    def completed(self, result: JobResult) -> None:
        ticket = self._leased_keys.pop(result.key, None)
        campaign = self._active.get(ticket) if ticket else None
        if campaign is None:
            return
        campaign.leased.discard(result.key)
        campaign.results[result.key] = result
        campaign.checkpoint.record(result)
        if campaign.cancelled:
            if not campaign.leased:
                self._finalize(campaign, "cancelled")
        elif len(campaign.results) == len(campaign.jobs):
            self._finalize(campaign, "done")

    def released(self, job: SearchJob) -> None:
        ticket = self._leased_keys.pop(job.key, None)
        campaign = self._active.get(ticket) if ticket else None
        if campaign is None:
            return
        campaign.leased.discard(job.key)
        campaign.pending.append(job)
        campaign.pending.sort(key=lambda j: j.key)

    # -- finalization ------------------------------------------------------

    def _finalize(self, campaign: _ActiveCampaign, status: str) -> None:
        """Merge, publish ``result.json``, mark the record terminal."""
        record = campaign.record
        results = list(campaign.results.values())
        report = ResultMerger().merge(
            results,
            seconds=time.perf_counter() - campaign.started,
            killed_workers=sum(1 for r in results if r.killed_worker),
            resumed_jobs=campaign.resumed,
            retried_jobs=sum(max(0, r.attempts - 1) for r in results),
        )
        try:
            _, report.journal_events = merge_shards(campaign.directory)
            report.telemetry_dir = campaign.directory
        except OSError:
            report.telemetry_dir = campaign.directory
        self.state.write_result(record.ticket, report)
        record.status = status
        self.state.update(record)
        self._active.pop(record.ticket, None)
        self._log(
            f"[{record.ticket[:12]}] {status}: {report.summary()} "
            f"digest={report.campaign_digest}"
        )
