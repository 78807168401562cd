"""The service's durable state machine: a fanout-dir submission queue.

Layout under a ``--state-dir``::

    <state-dir>/
      queue/
        <ticket>.json     one submission record (atomic temp+rename)
        <ticket>.cancel   cancellation marker (empty file)
      campaigns/
        <ticket>/
          jobs.jsonl      the campaign's checkpoint + attempt ledger
          shards/         per-job telemetry shards (heartbeats, events)
          campaign.jsonl  merged telemetry stream (written at finalize)
          result.json     the finished CampaignReport payload

Everything is plain files with atomic publication (write to a temp
file in the same directory, then :func:`os.replace`), so a SIGKILL'd
server never leaves a half-written record, and a concurrent client
only ever observes an absent or complete file.  There is no lock and
no daemon-side socket: clients *submit* by dropping a record into
``queue/``, *cancel* by dropping a marker, and *observe* by reading —
the server is the only writer of campaign state, clients are the only
writers of submissions.

Tickets are **content-addressed**: the SHA-256 of the canonical JSON of
``(spec payload, options, tenant)``.  Resubmitting an identical
campaign is therefore idempotent (same ticket, same record, one
execution), and a ticket is a *campaign digest* in the submission
sense: it names what was asked for, while the report's
``campaign_digest`` names what came out.
"""

from __future__ import annotations

import hashlib
import json
import os
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from ..atomic import publish_atomic
from ..engine.merger import TERMINAL, CampaignReport
from ..errors import ReproError

__all__ = [
    "QUEUE_DIR",
    "CAMPAIGNS_DIR",
    "RESULT_FILE",
    "SUBMISSION_FORMAT",
    "submission_ticket",
    "SubmissionRecord",
    "ServiceState",
    "is_service_dir",
]

#: submissions live under <state-dir>/queue/
QUEUE_DIR = "queue"
#: per-campaign working directories live under <state-dir>/campaigns/
CAMPAIGNS_DIR = "campaigns"
#: the finished report payload inside a campaign directory
RESULT_FILE = "result.json"
#: the supervisor's dispatch-time fault-plan counters (faulted servers only)
FAULT_STATE_FILE = "fault_state.json"

#: submission record schema version (stale records self-invalidate)
SUBMISSION_FORMAT = 1

#: submission lifecycle states, in the order they normally occur
STATUSES = ("queued", "running") + TERMINAL


def submission_ticket(
    spec_payload: Dict[str, object],
    options: Dict[str, object],
    tenant: str,
) -> str:
    """Content-addressed ticket for a submission (SHA-256 hex).

    A pure function of *what was asked for* — the spec payload, the
    per-submission option overrides, and the tenant — so identical
    submissions dedup onto one campaign.  Priority is deliberately
    excluded: resubmitting the same work at a different priority should
    find the existing campaign, not fork a second one.
    """
    blob = json.dumps(
        {"spec": spec_payload, "options": options, "tenant": tenant},
        sort_keys=True,
        separators=(",", ":"),
    )
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


@dataclass
class SubmissionRecord:
    """One durable submission: a campaign spec plus queueing metadata."""

    ticket: str
    #: tenant the submission bills against (fair-share + quota unit)
    tenant: str = "default"
    #: higher wins the next free fleet slot; never preempts a running job
    priority: int = 0
    #: submission order within this state dir (FIFO tie-break)
    seq: int = 0
    status: str = "queued"
    #: CampaignSpec payload (see CampaignSpec.as_payload)
    spec: Dict[str, object] = field(default_factory=dict)
    #: per-submission overrides: scheduler, job_deadline
    options: Dict[str, object] = field(default_factory=dict)
    #: why a failed submission failed (planning error, bad spec, ...)
    error: str = ""
    #: unix time of submission (informational; ordering uses seq)
    submitted_at: float = 0.0

    def to_payload(self) -> Dict[str, object]:
        return {
            "format": SUBMISSION_FORMAT,
            "ticket": self.ticket,
            "tenant": self.tenant,
            "priority": self.priority,
            "seq": self.seq,
            "status": self.status,
            "spec": dict(self.spec),
            "options": dict(self.options),
            "error": self.error,
            "submitted_at": self.submitted_at,
        }

    @classmethod
    def from_payload(cls, payload: Dict[str, object]) -> "SubmissionRecord":
        if payload.get("format") != SUBMISSION_FORMAT:
            raise ReproError(
                f"submission format {payload.get('format')!r} "
                f"!= {SUBMISSION_FORMAT}"
            )
        status = str(payload.get("status", "queued"))
        if status not in STATUSES:
            raise ReproError(f"unknown submission status {status!r}")
        return cls(
            ticket=str(payload["ticket"]),
            tenant=str(payload.get("tenant", "default")),
            priority=int(payload.get("priority", 0)),  # type: ignore[call-overload]
            seq=int(payload.get("seq", 0)),  # type: ignore[call-overload]
            status=status,
            spec=dict(payload.get("spec", {})),
            options=dict(payload.get("options", {})),
            error=str(payload.get("error", "")),
            submitted_at=float(payload.get("submitted_at", 0.0)),  # type: ignore[arg-type]
        )


def is_service_dir(path: str) -> bool:
    """Does ``path`` look like a service state dir (has a ``queue/``)?"""
    return os.path.isdir(os.path.join(path, QUEUE_DIR))


class ServiceState:
    """Read/write access to one state dir, shared by server and clients."""

    def __init__(self, state_dir: str) -> None:
        self.state_dir = os.path.abspath(state_dir)
        self.queue_dir = os.path.join(self.state_dir, QUEUE_DIR)
        self.campaigns_dir = os.path.join(self.state_dir, CAMPAIGNS_DIR)
        os.makedirs(self.queue_dir, exist_ok=True)
        os.makedirs(self.campaigns_dir, exist_ok=True)

    # -- paths -------------------------------------------------------------

    def record_path(self, ticket: str) -> str:
        return os.path.join(self.queue_dir, f"{ticket}.json")

    def cancel_path(self, ticket: str) -> str:
        return os.path.join(self.queue_dir, f"{ticket}.cancel")

    def campaign_dir(self, ticket: str) -> str:
        """The campaign's working directory (created on demand).

        It doubles as the campaign's checkpoint *and* telemetry
        directory, so ``repro stats <dir>`` and the supervisor's
        heartbeat watchdog work on it unchanged.
        """
        path = os.path.join(self.campaigns_dir, ticket)
        os.makedirs(path, exist_ok=True)
        return path

    # -- submissions -------------------------------------------------------

    def submit(
        self,
        spec_payload: Dict[str, object],
        priority: int = 0,
        tenant: str = "default",
        options: Optional[Dict[str, object]] = None,
    ) -> "tuple[SubmissionRecord, bool]":
        """Durably enqueue a submission; returns ``(record, created)``.

        Content-addressed dedup: an identical pending or finished
        submission is returned as-is (``created=False``) instead of
        being queued twice.
        """
        options = dict(options or {})
        ticket = submission_ticket(spec_payload, options, tenant)
        existing = self.load(ticket)
        if existing is not None:
            return existing, False
        record = SubmissionRecord(
            ticket=ticket,
            tenant=str(tenant),
            priority=int(priority),
            seq=self._next_seq(),
            status="queued",
            spec=dict(spec_payload),
            options=options,
            submitted_at=time.time(),
        )
        self.update(record)
        return record, True

    def load(self, ticket: str) -> Optional[SubmissionRecord]:
        try:
            with open(self.record_path(ticket), "r", encoding="utf-8") as f:
                payload = json.load(f)
        except (OSError, json.JSONDecodeError):
            return None
        if not isinstance(payload, dict):
            return None
        try:
            return SubmissionRecord.from_payload(payload)
        except (ReproError, KeyError, ValueError, TypeError):
            return None

    def records(self) -> List[SubmissionRecord]:
        """Every readable submission, in ``(seq, ticket)`` order."""
        try:
            names = os.listdir(self.queue_dir)
        except OSError:
            return []
        out: List[SubmissionRecord] = []
        for name in names:
            if not name.endswith(".json"):
                continue
            record = self.load(name[: -len(".json")])
            if record is not None:
                out.append(record)
        out.sort(key=lambda r: (r.seq, r.ticket))
        return out

    def update(self, record: SubmissionRecord) -> None:
        """Atomically (re)publish a submission record."""
        with publish_atomic(self.record_path(record.ticket)) as handle:
            json.dump(record.to_payload(), handle, sort_keys=True, indent=2)
            handle.write("\n")

    def _next_seq(self) -> int:
        return max((r.seq for r in self.records()), default=0) + 1

    # -- cancellation ------------------------------------------------------

    def request_cancel(self, ticket: str) -> bool:
        """Drop a cancel marker; False when the ticket is unknown.

        Cancellation is cooperative and job-granular, mapping onto the
        engine's interrupt machinery: pending jobs are dropped, jobs
        already running finish normally (their results are kept), and
        the campaign finalizes as ``cancelled`` with a partial report.
        """
        record = self.load(ticket)
        if record is None:
            return False
        with open(self.cancel_path(ticket), "a", encoding="utf-8"):
            pass
        return True

    def cancel_requested(self, ticket: str) -> bool:
        return os.path.exists(self.cancel_path(ticket))

    # -- results -----------------------------------------------------------

    def result_path(self, ticket: str) -> str:
        return os.path.join(self.campaigns_dir, ticket, RESULT_FILE)

    def write_result(self, ticket: str, report: CampaignReport) -> None:
        with publish_atomic(self.result_path(ticket)) as handle:
            json.dump(report.to_payload(), handle, sort_keys=True)
            handle.write("\n")

    def load_result(self, ticket: str) -> Optional[CampaignReport]:
        try:
            with open(self.result_path(ticket), "r", encoding="utf-8") as f:
                payload = json.load(f)
        except (OSError, json.JSONDecodeError):
            return None
        if not isinstance(payload, dict):
            return None
        try:
            return CampaignReport.from_payload(payload)
        except (ReproError, KeyError, ValueError, TypeError):
            return None

    # -- dispatch-time fault plan -------------------------------------------

    @property
    def fault_state_path(self) -> str:
        return os.path.join(self.state_dir, FAULT_STATE_FILE)

    def save_fault_state(self, state: Dict[str, object]) -> None:
        """Keep the supervisor's fault-plan counters across a restart."""
        with publish_atomic(self.fault_state_path) as handle:
            json.dump(state, handle, sort_keys=True)
            handle.write("\n")

    def load_fault_state(self) -> Optional[Dict[str, object]]:
        """The counters :meth:`save_fault_state` kept, or None."""
        try:
            with open(self.fault_state_path, "r", encoding="utf-8") as f:
                payload = json.load(f)
        except (OSError, json.JSONDecodeError):
            return None
        return payload if isinstance(payload, dict) else None

    # -- lookup ------------------------------------------------------------

    def resolve(self, prefix: str) -> str:
        """Expand a ticket prefix to the full ticket (errors if ambiguous)."""
        prefix = prefix.strip()
        if not prefix:
            raise ReproError("empty ticket")
        matches = sorted(
            r.ticket for r in self.records() if r.ticket.startswith(prefix)
        )
        if not matches:
            raise ReproError(
                f"no submission matches ticket {prefix!r} "
                f"in {self.state_dir}"
            )
        if len(matches) > 1:
            raise ReproError(
                f"ticket prefix {prefix!r} is ambiguous "
                f"({len(matches)} matches); use more characters"
            )
        return matches[0]
