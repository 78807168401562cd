"""The ``repro serve`` loop: one fleet serving every queued campaign.

:class:`CampaignService` wires the pieces together: a
:class:`~repro.service.state.ServiceState` over the ``--state-dir``, a
:class:`~repro.service.scheduler.ServiceScheduler` as the lease
source, and a :class:`~repro.engine.runner.ProcessPoolRunner` whose
supervisor drives the shared worker fleet in serve mode.  All of PR
8's recovery ladder applies per leased job — cooperative deadlines,
the heartbeat watchdog (tailing each campaign's own shard directory),
bounded deterministic retry against the campaign's attempt ledger, and
quarantine — while graceful shutdown (SIGINT/SIGTERM) drains in-flight
jobs, releases unstarted leases back to their campaigns, and exits
with a resume hint.  A *non*-graceful death (SIGKILL, power loss) is
recovered the same way a restart is: everything the scheduler needs is
on disk.
"""

from __future__ import annotations

from typing import Callable, Dict, Optional

from ..engine.runner import JobResult, ProcessPoolRunner
from ..engine.supervisor import SupervisorConfig
from ..errors import SearchInterrupted
from ..faults import FaultPlan, current_fault_plan
from .scheduler import ServiceScheduler
from .state import ServiceState

__all__ = ["CampaignService"]


class CampaignService:
    """Run the scheduler loop over a state dir until idle or stopped."""

    def __init__(
        self,
        state_dir: str,
        workers: int = 1,
        fault_plan: str = "",
        max_attempts: Optional[int] = None,
        stall_timeout: Optional[float] = None,
        default_quota: int = 0,
        quotas: Optional[Dict[str, int]] = None,
        poll_interval: Optional[float] = None,
        idle_exit: bool = False,
        progress: Optional[Callable[[JobResult], None]] = None,
        log: Optional[Callable[[str], None]] = None,
        store_dir: Optional[str] = None,
        store_max_bytes: Optional[int] = None,
        seed_from_store: bool = False,
    ) -> None:
        self.state = ServiceState(state_dir)
        policy: Dict[str, object] = {}
        if max_attempts is not None:
            policy["max_attempts"] = max_attempts
        if stall_timeout is not None:
            # always safe here: every leased job ships shards into its
            # campaign's own directory, so the watchdog has heartbeats
            # to tail no matter how the campaign was submitted
            policy["stall_timeout"] = stall_timeout
        if poll_interval is not None:
            policy["poll_interval"] = poll_interval
        config = SupervisorConfig(**policy)  # type: ignore[arg-type]
        self.runner = ProcessPoolRunner(
            workers=workers,
            fault_spec=fault_plan,
            telemetry_dir=None,
            supervisor=config.validate(),
            store_dir=store_dir,
            seed_from_store=seed_from_store,
        )
        #: gc budget applied to the shared store when the serve loop exits
        self.store_max_bytes = store_max_bytes
        plan = (
            FaultPlan.parse(fault_plan) if fault_plan else current_fault_plan()
        )
        self.scheduler = ServiceScheduler(
            self.state,
            default_quota=default_quota,
            quotas=quotas,
            fault_plan=plan,
            idle_exit=idle_exit,
            log=log,
            workers=workers,
        )
        self._progress = progress

    def serve(self) -> int:
        """Lease and run jobs until the queue drains (or forever).

        Returns the number of jobs settled by this server process.  A
        graceful shutdown raises :class:`SearchInterrupted` with a
        ``repro serve`` resume hint after releasing unstarted leases;
        re-running the hinted command resumes every affected campaign
        from its checkpoint.
        """
        try:
            settled = self.runner.serve(self.scheduler, progress=self._progress)
            self._gc_store()
            return settled
        except SearchInterrupted as exc:
            for campaign in self.scheduler._active.values():
                # publish what telemetry there is, so `repro stats` on
                # the interrupted campaign shows the truth
                campaign.merge_telemetry()
            if exc.resume_hint is None:
                exc.resume_hint = f"repro serve --state-dir {self.state.state_dir}"
            exc.checkpoint_dir = self.state.state_dir
            raise

    def _gc_store(self) -> None:
        """Enforce the store's size budget once the fleet is quiet.

        Eviction is answer-neutral: a re-run recomputes anything evicted
        and lands on byte-identical digests, so gc can run at any quiet
        point without coordinating with tenants.
        """
        if self.runner.store_dir is None or self.store_max_bytes is None:
            return
        from ..store import ContentStore

        ContentStore(self.runner.store_dir).gc(self.store_max_bytes)
