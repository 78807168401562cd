"""The client surface of the campaign service.

:class:`ServiceClient` talks to a server through the state dir alone —
no socket, no RPC.  Submitting drops a durable record into ``queue/``
(the server picks it up on its next lease), cancellation drops a
marker, progress streams by tailing the campaign's telemetry shards,
and results are read back from ``result.json`` — which works even
after the server has exited, because the state dir *is* the service.

:class:`ServiceHandle` is the ticket-scoped view:
``handle.wait()``, ``handle.stream_events()``, ``handle.result()``,
``handle.cancel()`` — a :class:`repro.api.CampaignHandle`, returned
as-is by :class:`repro.api.Client` when a ``state_dir`` is given.
"""

from __future__ import annotations

import time
from typing import Dict, Iterator, List, Optional

from ..engine.merger import TERMINAL, CampaignHandle, CampaignReport
from ..engine.planner import resolve_spec
from ..errors import ReproError, SearchInterrupted
from ..obs.shipper import ShardReader
from .state import ServiceState, SubmissionRecord

__all__ = ["ServiceClient", "ServiceHandle"]

class ServiceHandle(CampaignHandle):
    """One submission, addressed by ticket; all methods re-read disk."""

    def __init__(self, state: ServiceState, ticket: str) -> None:
        self._state = state
        self.ticket = ticket

    def record(self) -> SubmissionRecord:
        record = self._state.load(self.ticket)
        if record is None:
            raise ReproError(
                f"submission {self.ticket[:12]} vanished from "
                f"{self._state.state_dir}"
            )
        return record

    def status(self) -> str:
        """``queued`` | ``running`` | ``done`` | ``cancelled`` | ``failed``."""
        return self.record().status

    def wait(
        self, timeout: Optional[float] = None, poll: float = 0.2
    ) -> CampaignReport:
        """Block until terminal; return the report.

        Raises :class:`SearchInterrupted` if the submission was
        cancelled, :class:`ReproError` if it failed or ``timeout``
        (seconds) elapsed first.  Requires a running server to make
        progress — this client never executes jobs itself.
        """
        deadline = None if timeout is None else time.monotonic() + timeout
        while True:
            status = self.status()
            if status in TERMINAL:
                break
            if deadline is not None and time.monotonic() >= deadline:
                raise ReproError(
                    f"timed out after {timeout:g}s waiting for "
                    f"{self.ticket[:12]} (status: {status}) — "
                    f"is `repro serve` running on this state dir?"
                )
            time.sleep(poll)
        if status == "failed":
            raise ReproError(
                f"submission {self.ticket[:12]} failed: {self.record().error}"
            )
        if status == "cancelled":
            report = self._state.load_result(self.ticket)
            raise SearchInterrupted(
                f"submission {self.ticket[:12]} was cancelled "
                f"({len(report.jobs) if report else 0} jobs completed)",
            )
        return self.result()

    def result(self) -> CampaignReport:
        """The finished report; raises if not (yet) available."""
        report = self._state.load_result(self.ticket)
        if report is None:
            raise ReproError(
                f"no result yet for {self.ticket[:12]} "
                f"(status: {self.status()})"
            )
        return report

    def cancel(self) -> bool:
        """Request cooperative cancellation; False if already terminal."""
        if self.done():
            return False
        return self._state.request_cancel(self.ticket)

    def stream_events(
        self, poll: float = 0.2, timeout: Optional[float] = None
    ) -> Iterator[Dict[str, object]]:
        """Yield telemetry events as the campaign runs (tail the shards).

        Events are the journal stream each job ships (``job_started``,
        per-N-runs heartbeats, ``job_finished`` seals), tagged with the
        owning ``job`` key.  The iterator ends once the submission is
        terminal and the shards have gone quiet; it never raises on
        cancellation (the point of streaming is to watch whatever
        happened).
        """
        reader = ShardReader(self._state.campaign_dir(self.ticket))
        deadline = None if timeout is None else time.monotonic() + timeout
        while True:
            events = reader.poll()
            for job, event in events:
                yield dict(event, job=job)
            status = self.status()
            if status in TERMINAL and not events:
                # one last drain: a seal written between poll() and
                # status() would otherwise be dropped
                for job, event in reader.poll():
                    yield dict(event, job=job)
                return
            if deadline is not None and time.monotonic() >= deadline:
                return
            if not events:
                time.sleep(poll)


class ServiceClient:
    """Submit, observe, and fetch campaigns against one state dir."""

    def __init__(self, state_dir: str) -> None:
        self.state = ServiceState(state_dir)

    def submit(
        self,
        spec,
        priority: int = 0,
        tenant: str = "default",
        scheduler: Optional[str] = None,
        job_deadline: Optional[float] = None,
    ) -> ServiceHandle:
        """Enqueue a campaign; returns its handle immediately.

        ``spec`` accepts everything :meth:`repro.api.Client.submit` does:
        a :class:`~repro.engine.planner.CampaignSpec`, a payload dict,
        the literal ``"paper"``, or a spec-file path.  Identical
        submissions (same spec, options, tenant) dedup onto the
        existing ticket rather than queueing twice.
        """
        payload = resolve_spec(spec).as_payload()
        options: Dict[str, object] = {}
        if scheduler is not None:
            options["scheduler"] = scheduler
        if job_deadline is not None:
            options["job_deadline"] = job_deadline
        record, _created = self.state.submit(
            payload, priority=priority, tenant=tenant, options=options
        )
        return ServiceHandle(self.state, record.ticket)

    def handle(self, ticket: str) -> ServiceHandle:
        """A handle for an existing submission (ticket prefixes allowed)."""
        return ServiceHandle(self.state, self.state.resolve(ticket))

    def submissions(self) -> List[SubmissionRecord]:
        """Every submission in the state dir, in submission order."""
        return self.state.records()
