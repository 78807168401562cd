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

The scheduler owns queue policy only.  Each activated submission is a
:class:`~repro.engine.merger.Campaign` — the same plan → resume →
settle → report lifecycle a standalone campaign goes through, over the
campaign's ``jobs.jsonl`` checkpoint — so a server killed at any point
resumes by re-reading the state dir, spends no attempt twice, and
produces a report (digest and totals) identical to an uninterrupted
standalone run (job results are pure functions of the job plus the
shared disk cache; interleaving cannot change them).

One cross-campaign invariant: a job *key* is leased by at most one
campaign at a time.  Two tenants submitting overlapping specs produce
jobs with equal keys; serializing those leases keeps the supervisor's
heartbeat routing and the scheduler's completion routing unambiguous
(and has no digest effect — equal keys mean equal jobs).
"""

from __future__ import annotations

from typing import Callable, Dict, Optional, Set

from ..engine.merger import TERMINAL, Campaign
from ..engine.planner import CampaignSpec, SearchJob
from ..engine.runner import JobResult
from ..engine.supervisor import JobLease, JobLeaseSource
from ..errors import ReproError
from ..faults import NULL_PLAN
from .state import ServiceState, SubmissionRecord

__all__ = ["ServiceScheduler"]


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
        self._active: Dict[str, Campaign] = {}
        #: the submission record of each active campaign
        self._records: Dict[str, SubmissionRecord] = {}
        #: active campaigns whose cancellation is being honoured
        self._cancelled: Set[str] = set()
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
            self._seen.add(record.ticket)
            if record.status not in TERMINAL:
                self._activate(record)
        for ticket in list(self._active):
            if self.state.cancel_requested(ticket):
                self._cancel(ticket)

    def _activate(self, record: SubmissionRecord) -> None:
        """Plan (and resume) a queued/recovered submission onto the fleet."""
        directory = self.state.campaign_dir(record.ticket)
        try:
            # only these two options are read: records written by older
            # versions may carry the removed thread-count and
            # execution-core options, which were digest-neutral
            spec = CampaignSpec.from_payload(record.spec).with_overrides(
                scheduler=record.options.get("scheduler"),  # type: ignore[arg-type]
                job_deadline=record.options.get("job_deadline"),  # type: ignore[arg-type]
            )
            campaign = Campaign.plan(spec, directory, directory)
        except ReproError as exc:
            # a submission that cannot even plan is the client's bug,
            # never the fleet's: record it and keep serving the rest
            record.status = "failed"
            record.error = str(exc)
            self.state.update(record)
            self._log(f"[{record.ticket[:12]}] failed to plan: {exc}")
            return
        resumed = f", {campaign.resumed} resumed" if campaign.resumed else ""
        self._log(
            f"[{record.ticket[:12]}] activated: {len(campaign.jobs)} jobs"
            f"{resumed} (tenant={record.tenant}, priority={record.priority})"
        )
        if record.status != "running":
            record.status = "running"
            self.state.update(record)
        self._active[record.ticket] = campaign
        self._records[record.ticket] = record
        if campaign.finished:
            # fully served by the checkpoint (e.g. killed after the last
            # job landed but before finalize): finish it right here
            self._finalize(record.ticket, "done")

    def _cancel(self, ticket: str) -> None:
        leased = self._leased(ticket)
        if ticket not in self._cancelled:
            self._cancelled.add(ticket)
            self._active[ticket].pending.clear()
            self._log(
                f"[{ticket[:12]}] cancel requested: "
                f"{leased} leased jobs will finish"
            )
        if not leased:
            self._finalize(ticket, "cancelled")

    # -- the JobLeaseSource protocol ---------------------------------------

    def lease(self) -> Optional[JobLease]:
        if 0 < self.workers <= len(self._leased_keys):
            return None  # every fleet slot is taken
        self.refresh()
        ticket, job = self._pick()
        if ticket is None or job is None:
            return None
        campaign = self._active[ticket]
        campaign.pending.remove(job)
        self._leased_keys[job.key] = ticket
        # the ``service`` fault site: a stand-in for killing the server
        # right here, lease granted but job not yet dispatched — nothing
        # durable records the lease, so a restarted server re-leases it
        # and the recovered digest matches an uninterrupted run
        self.plan.fire("service")
        return JobLease(
            job=job,
            checkpoint=campaign.checkpoint,
            telemetry_dir=campaign.telemetry_dir,
            tenant=self._records[ticket].tenant,
        )

    def fault_state(self) -> Optional[Dict[str, object]]:
        return self.state.load_fault_state()

    def save_fault_state(self, state: Dict[str, object]) -> None:
        self.state.save_fault_state(state)

    def _pick(self) -> "tuple[Optional[str], Optional[SearchJob]]":
        inflight = self._tenant_inflight()
        candidates = [
            ticket
            for ticket, campaign in self._active.items()
            if campaign.pending
            and ticket not in self._cancelled
            and not self._throttled(self._records[ticket].tenant, inflight)
        ]
        records = self._records
        candidates.sort(
            key=lambda t: (
                -records[t].priority,
                inflight.get(records[t].tenant, 0),
                records[t].seq,
                t,
            )
        )
        for ticket in candidates:
            for job in self._active[ticket].pending:
                if job.key not in self._leased_keys:
                    return ticket, job
        return None, None

    def _throttled(self, tenant: str, inflight: Dict[str, int]) -> bool:
        quota = self.quotas.get(tenant, self.default_quota)
        return quota > 0 and inflight.get(tenant, 0) >= quota

    def _tenant_inflight(self) -> Dict[str, int]:
        counts: Dict[str, int] = {}
        for ticket in self._leased_keys.values():
            record = self._records.get(ticket)
            if record is not None:
                counts[record.tenant] = counts.get(record.tenant, 0) + 1
        return counts

    def _leased(self, ticket: str) -> int:
        """Jobs of ``ticket``'s campaign currently granted to the fleet."""
        return sum(1 for owner in self._leased_keys.values() if owner == ticket)

    def outstanding(self) -> bool:
        if self._active:
            return True
        return not self.idle_exit

    def completed(self, result: JobResult) -> None:
        ticket = self._leased_keys.pop(result.key, None)
        campaign = self._active.get(ticket) if ticket else None
        if campaign is None:
            return
        campaign.settle(result)
        if ticket in self._cancelled:
            if not self._leased(ticket):
                self._finalize(ticket, "cancelled")
        elif campaign.finished:
            self._finalize(ticket, "done")

    def released(self, job: SearchJob) -> None:
        ticket = self._leased_keys.pop(job.key, None)
        campaign = self._active.get(ticket) if ticket else None
        if campaign is None:
            return
        campaign.pending.append(job)
        campaign.pending.sort(key=lambda j: j.key)

    # -- finalization ------------------------------------------------------

    def _finalize(self, ticket: str, status: str) -> None:
        """Report, publish ``result.json``, mark the record terminal."""
        record = self._records[ticket]
        report = self._active[ticket].report()
        self.state.write_result(ticket, report)
        record.status = status
        self.state.update(record)
        del self._active[ticket], self._records[ticket]
        self._cancelled.discard(ticket)
        self._log(
            f"[{ticket[:12]}] {status}: {report.summary()} "
            f"digest={report.campaign_digest}"
        )
