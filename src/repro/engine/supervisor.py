"""Campaign supervision: deadlines, watchdog, bounded retry, quarantine.

:class:`~repro.engine.runner.ProcessPoolRunner` owns *where* jobs run
(in-process or a spawn-safe pool); this module owns *whether they keep
running*.  :class:`CampaignSupervisor` wraps every job dispatch in a
recovery ladder, cheapest reclaim first:

1. **deadline** — the worker reclaims itself: the search kernel checks
   its wall-clock budget at every run boundary and raises
   :class:`~repro.errors.DeadlineExceeded`, salvaging the partial suite
   (see :meth:`repro.search.kernel.SearchKernel._check_deadline`).  The
   deadline is the job's own (``job.config["job_deadline"]``, from
   ``--job-deadline`` on ``campaign``/``submit``), so the parent always
   supervises against the budget the worker actually enforces;
2. **watchdog** — the parent reclaims a non-cooperative worker: it tails
   the telemetry shards' ``run_executed`` heartbeats and declares a job
   *stalled* after ``stall_timeout`` seconds of silence, plus a
   defensive per-future timeout of ``2 × deadline +``
   :data:`DEADLINE_GRACE` for workers wedged past even that.  Both
   clocks start when the job starts running in a worker, never while it
   waits in the pool's queue;
3. **retry** — a deadline-blown/killed/stalled attempt is retried up to
   ``max_attempts`` with deterministic (no-jitter) backoff of
   :data:`RETRY_BACKOFF` seconds per earlier attempt.  Every
   failed attempt is persisted to the campaign checkpoint's attempt
   ledger, so a killed-and-resumed campaign continues the count instead
   of re-firing spent attempts.  Retries are **answer-preserving**: the
   dispatch-time fault decisions (``hang``, ``pool``, ``worker-proc``)
   are consumed once per *lease*, never per attempt, so a retried job
   reproduces the fault-free result and campaign digests stay
   byte-identical at every ``--workers`` value.  Only *infrastructure*
   failures spend attempts — a job whose search fails deterministically
   (``ok=False``) is a result, not a fault, and is recorded directly;
4. **quarantine** — a job that exhausts its budget is recorded
   ``quarantined`` with its last salvaged partial result and the
   campaign completes without it, surfaced in the report and in
   ``repro stats`` instead of taking the campaign down.

A broken pool (:class:`BrokenProcessPool`, a wedged worker the watchdog
had to kill) is **rebuilt** up to :data:`MAX_POOL_REBUILDS` times — every
job in flight on the old pool is an innocent bystander (which job
poisoned a genuinely broken pool is unknowable) and is re-dispatched
without spending attempts; only the *injected* ``pool`` fault, decided
at dispatch time, charges its target's attempt so the retry path stays
deterministic.  Past the rebuild budget the campaign downgrades to
in-process execution.  In-process dispatches (a one-worker fleet,
worker-proc containment, post-kill retries, the downgraded pool) block
the dispatch loop while they run, so they are deferred until nothing is
in flight — heartbeat and timeout supervision of pooled jobs is never
suspended.

**One loop, two entry points.**  Every job reaches the fleet as a
:class:`JobLease` pulled from a :class:`JobLeaseSource`; how many jobs
are in flight is the source's policy, not the loop's.
:meth:`CampaignSupervisor.run` wraps one batch
:class:`~repro.engine.merger.Campaign` in a fixed source that leases
its pending jobs at once, in job order (so a batch pool is fed
eagerly); :meth:`CampaignSupervisor.serve` takes the campaign service's
scheduler (:mod:`repro.service`), which leases one job per free fleet
slot from many campaigns, each lease carrying its own campaign's
checkpoint, telemetry directory and tenant.  Either way a finished job
is handed to the source, which settles it into its campaign.  The
watchdog tails every in-flight lease's telemetry directory through one
:class:`~repro.obs.shipper.ShardReaderGroup`.

Shutdown: the loop polls the process-wide interrupt flag
(:mod:`repro.interrupt`) between dispatches.  On SIGINT/SIGTERM it
drains in-flight jobs for :data:`DRAIN_TIMEOUT` seconds (completed results
are checkpointed), hands un-run leases back to the source
(:meth:`JobLeaseSource.released`), and raises
:class:`~repro.errors.SearchInterrupted` so the CLI exits 3 with a
resume hint.  Partial results produced *by* the shutdown itself are
discarded, never checkpointed — resume re-runs those jobs and the
resumed digest matches an uninterrupted run.

Everything is metered (``engine.supervisor.*`` counters) and journaled
(``job_retried`` / ``job_stalled`` / ``job_quarantined`` /
``pool_rebuilt`` events to the current journal).
"""

from __future__ import annotations

import time
from collections import deque
from dataclasses import dataclass
from typing import Callable, Deque, Dict, List, Optional, Sequence, Union

from ..errors import ReproError, SearchInterrupted
from ..faults import FaultPlan, current_fault_plan
from ..interrupt import interrupt_requested
from ..obs.journal import current_journal
from ..obs.metrics import default_registry
from .merger import Campaign
from .planner import SearchJob
from .runner import JobResult, run_job

__all__ = [
    "SupervisorConfig",
    "CampaignSupervisor",
    "JobLease",
    "JobLeaseSource",
]

#: seconds slept before attempt N: ``RETRY_BACKOFF * (N - 1)``
#: (deterministic, no jitter — jitter would make campaign wall time a
#: random variable for nothing: jobs never thundering-herd a shared
#: resource the way clients of one server do)
RETRY_BACKOFF = 0.05
#: slack added to the defensive parent-side future timeout
#: (``2 * job_deadline + DEADLINE_GRACE``, from each job's own deadline)
#: so a worker that is merely slow to reach its cooperative check is not
#: shot
DEADLINE_GRACE = 5.0
#: broken/wedged pools rebuilt before downgrading to in-process
MAX_POOL_REBUILDS = 1
#: seconds granted to in-flight jobs when a shutdown is requested
DRAIN_TIMEOUT = 5.0


@dataclass(frozen=True)
class SupervisorConfig:
    """Supervision policy knobs; validated, deterministic, picklable."""

    #: attempts per job before quarantine (1 = never retry)
    max_attempts: int = 2
    #: heartbeat silence (seconds) before the watchdog declares a worker
    #: stalled; 0 disables.  Needs telemetry shards to tail, and should
    #: comfortably exceed one shard flush interval (shards buffer
    #: :data:`~repro.obs.shipper.SHARD_FLUSH_EVERY` events)
    stall_timeout: float = 0.0
    #: event-loop wait quantum (watchdog resolution)
    poll_interval: float = 0.2

    def validate(self) -> "SupervisorConfig":
        if self.max_attempts < 1:
            raise ReproError(f"max_attempts must be >= 1 (got {self.max_attempts})")
        if self.stall_timeout < 0:
            raise ReproError(
                f"stall_timeout must be >= 0 (got {self.stall_timeout})"
            )
        if self.poll_interval <= 0:
            raise ReproError(
                f"poll_interval must be > 0 (got {self.poll_interval})"
            )
        return self


@dataclass(frozen=True)
class JobLease:
    """One job granted to the fleet, with its campaign's surroundings.

    The lease is the unit of the supervisor's dispatch protocol: the
    source decides *which* job runs next (plan order, or the service's
    priority, fair-share and quotas); the lease pins *where its side
    effects go* — the owning campaign's attempt ledger and telemetry
    directory — so jobs from different campaigns interleave on one
    fleet without sharing state.
    """

    job: SearchJob
    #: the owning campaign's :class:`~repro.engine.runner.CampaignCheckpoint`
    #: (results and failed attempts are journaled there), or None
    checkpoint: Optional[object] = None
    #: the owning campaign's telemetry directory (heartbeat shards), or None
    telemetry_dir: Optional[str] = None
    #: the owning campaign's tenant — tags content-store journal lines so
    #: one shared store accounts per tenant
    tenant: str = ""


class JobLeaseSource:
    """Protocol for the sources :class:`CampaignSupervisor` drives.

    A duck-typed base: the supervisor calls these six methods, and
    subclassing supplies the fault-state pair, which keeps nothing.  The
    loop leases until ``lease`` returns None, so the source alone
    decides how many jobs are in flight.
    ``lease`` may raise :class:`~repro.errors.SearchInterrupted` (e.g.
    the injected ``service`` fault site) — the supervisor tears the
    fleet down and lets it propagate.
    """

    def lease(self) -> Optional[JobLease]:
        """The next job to dispatch, or None when nothing is ready."""
        raise NotImplementedError

    def outstanding(self) -> bool:
        """Could there be more work to lease?  False ends the loop once
        nothing leased is still running."""
        raise NotImplementedError

    def completed(self, result: JobResult) -> None:
        """One leased job finished (ok, failed, or quarantined)."""
        raise NotImplementedError

    def released(self, job: SearchJob) -> None:
        """A granted lease was abandoned un-run (shutdown); re-queue it."""
        raise NotImplementedError

    def fault_state(self) -> Optional[Dict[str, object]]:
        """Dispatch-time fault-plan counters an earlier run of this
        source saved (see :meth:`save_fault_state`), or None."""
        return None

    def save_fault_state(self, state: Dict[str, object]) -> None:
        """Keep the dispatch-time fault plan's counters, saved before the
        leases that moved them are dispatched, so a restarted source
        continues the plan instead of firing it again."""


class _PlanSource(JobLeaseSource):
    """A batch campaign as a lease source: every pending job at once, in
    job order.

    Eager leasing keeps a batch pool's queue full (capping it at the
    fleet size measurably slows the 96-job paper matrix); nothing is
    ever re-queued, because a shutdown ends a batch and its resume
    re-plans from the checkpoint.
    """

    def __init__(self, campaign: Campaign, telemetry_dir) -> None:
        self.campaign = campaign
        self._leases = deque(
            JobLease(job, campaign.checkpoint, telemetry_dir)
            for job in campaign.pending
        )

    def lease(self) -> Optional[JobLease]:
        return self._leases.popleft() if self._leases else None

    def outstanding(self) -> bool:
        return bool(self._leases)

    def completed(self, result: JobResult) -> None:
        self.campaign.settle(result)

    def released(self, job: SearchJob) -> None:
        pass


class _JobState:
    """Supervision bookkeeping for one job across its attempts."""

    __slots__ = (
        "job",
        "deadline",
        "killed",
        "hang",
        "pool",
        "attempts",
        "stalled",
        "inprocess",
        "result",
        "last_outcome",
        "last_error",
        "last_partial",
        "started_at",
        "last_seen",
        "checkpoint",
        "telemetry",
        "tenant",
    )

    def __init__(
        self,
        job: SearchJob,
        killed: bool,
        hang: bool,
        pool: bool,
        spent: int,
        checkpoint=None,
        telemetry: Optional[str] = None,
        tenant: str = "",
    ) -> None:
        self.job = job
        #: the job's own cooperative deadline (0 = none)
        self.deadline = float(job.config.get("job_deadline", 0.0) or 0.0)
        #: the job's worker was killed (the dispatch-time ``worker-proc``
        #: decision, or a real death) and the job recomputed in-process
        self.killed = killed
        #: injected ``hang`` — armed for the first attempt only
        self.hang = hang
        #: injected ``pool`` break — first attempt only
        self.pool = pool
        #: failed attempts spent (includes prior runs via the ledger)
        self.attempts = spent
        self.stalled = False
        #: force in-process execution (worker-proc containment, or a
        #: worker death whose retry must be guaranteed to complete)
        self.inprocess = killed
        self.result: Optional[JobResult] = None
        self.last_outcome = ""
        self.last_error = ""
        self.last_partial: Optional[JobResult] = None
        #: when the pooled attempt started running (None while queued)
        self.started_at: Optional[float] = None
        self.last_seen = 0.0
        #: where this job's results/attempts are journaled (its campaign)
        self.checkpoint = checkpoint
        #: where this job's heartbeat shards land (its campaign)
        self.telemetry = telemetry
        #: per-tenant accounting tag for the shared content store
        self.tenant = tenant


class CampaignSupervisor:
    """Drive leased jobs to completion under the recovery ladder.

    Built per :meth:`ProcessPoolRunner.run` / ``.serve`` call; exposes
    its ``retries`` and ``pool_rebuilds`` tallies (a report reads every
    other total off the job results themselves).
    """

    def __init__(
        self, runner, config: Optional[SupervisorConfig] = None
    ) -> None:
        self.runner = runner
        self.config = (config or SupervisorConfig()).validate()
        #: the batch campaign's checkpoint (named in the shutdown message)
        self.checkpoint = None
        #: retry dispatches performed (attempts beyond each job's first)
        self.retries = 0
        #: pools rebuilt after a break or a wedged worker
        self.pool_rebuilds = 0
        #: run every dispatch in-process: a one-worker fleet, or a pool
        #: downgraded after its rebuild budget ran out
        self._serial_only = False
        self._fleet = 1
        self._executor = None
        self._source: JobLeaseSource = _PlanSource(Campaign(()), None)
        self._progress: Optional[Callable[[JobResult], None]] = None
        #: in-flight jobs by key, for heartbeat routing (a source never
        #: leases one key twice at a time)
        self._by_key: Dict[str, _JobState] = {}
        #: jobs settled (finished or quarantined) by this supervisor
        self._settled = 0
        #: dispatch-time fault decisions (worker-proc, hang, pool) by
        #: campaign directory and job key, saved with the plan's counters
        self._decisions: Dict[str, List[bool]] = {}

    # -- entry points ------------------------------------------------------

    def run(
        self,
        jobs: Union[Campaign, Sequence[SearchJob]],
        progress: Optional[Callable[[JobResult], None]] = None,
    ) -> List[JobResult]:
        """Run a batch to completion; settled results in job order.

        ``jobs`` is a :class:`~repro.engine.merger.Campaign`, whose
        pending jobs run and settle into it, or a plain job sequence
        (a campaign with no checkpoint).  A one-worker runner, or a
        batch of at most one pending job, runs in-process with no pool.
        Raises :class:`SearchInterrupted` on a requested shutdown after
        draining; everything finished by then is checkpointed.
        """
        campaign = jobs if isinstance(jobs, Campaign) else Campaign(jobs)
        self.checkpoint = campaign.checkpoint
        self._progress = progress
        self._drive(
            _PlanSource(campaign, self.runner.telemetry_dir),
            min(self.runner.workers, len(campaign.pending)),
        )
        return campaign.ordered_results()

    def serve(
        self,
        source: JobLeaseSource,
        progress: Optional[Callable[[JobResult], None]] = None,
    ) -> int:
        """Serve leases from ``source`` until it has nothing outstanding.

        Finished jobs are handed to ``source.completed`` before
        ``progress``.  Returns the number of jobs settled.
        """
        self._progress = progress
        return self._drive(source, self.runner.workers)

    # -- the dispatch loop -------------------------------------------------

    def _drive(self, source: JobLeaseSource, fleet: int) -> int:
        """Lease, dispatch, collect and watch until ``source`` runs dry."""
        from concurrent.futures import FIRST_COMPLETED, wait
        from ..obs.shipper import ShardReaderGroup

        cfg = self.config
        # dispatch-time fault decisions, one consultation per lease per
        # site in lease order (job order for a batch) — independent of
        # pool size and attempt count
        plan = (
            FaultPlan.parse(self.runner.fault_spec)
            if self.runner.fault_spec
            else current_fault_plan()
        )
        # a restarted source continues its plan: the counters, and the
        # decisions of jobs leased before the restart (see _lease_state)
        saved = (source.fault_state() if plan.enabled else None) or {}
        plan.restore_state(saved.get("plan", {}))  # type: ignore[arg-type]
        self._decisions = dict(saved.get("decisions", {}))  # type: ignore[arg-type]
        self._source = source
        self._fleet = fleet
        self._serial_only = fleet <= 1
        self._settled = 0
        # leased jobs waiting for a dispatch: fresh leases and retries
        queue: Deque[_JobState] = deque()
        inflight: Dict[object, _JobState] = {}
        reader = ShardReaderGroup() if cfg.stall_timeout > 0 else None
        try:
            while True:
                # every exit from this loop passes through this check: a
                # shutdown flagged anywhere — including by an in-process
                # dispatch or a collected shutdown artifact — raises here
                # instead of falling out with jobs silently dropped
                if interrupt_requested():
                    self._shutdown(queue, inflight)
                leased = False
                lease = source.lease()
                while lease is not None:
                    queue.append(self._lease_state(lease, plan))
                    leased = True
                    lease = source.lease()
                if leased and plan.enabled:
                    source.save_fault_state(
                        {"plan": plan.state(), "decisions": self._decisions}
                    )
                deferred: List[_JobState] = []
                while queue and not interrupt_requested():
                    state = queue.popleft()
                    if (state.inprocess or self._serial_only) and inflight:
                        # an in-process job runs synchronously right
                        # here, suspending heartbeat/timeout supervision
                        # of everything already in flight: hold it until
                        # the pool is idle
                        deferred.append(state)
                        continue
                    self._dispatch(state, queue, inflight)
                queue.extend(deferred)
                if interrupt_requested():
                    self._shutdown(queue, inflight)
                if not inflight:
                    if queue:
                        continue
                    if not source.outstanding():
                        return self._settled
                    if not leased:
                        time.sleep(cfg.poll_interval)
                    continue
                if reader is not None:
                    for state in inflight.values():
                        reader.watch(state.telemetry)
                done, _ = wait(
                    list(inflight),
                    timeout=cfg.poll_interval,
                    return_when=FIRST_COMPLETED,
                )
                pool_broke = False
                for future in done:
                    state = inflight.pop(future, None)
                    if state is None:
                        continue  # already reassigned by a pool rebuild
                    if self._collect(state, future, queue, inflight):
                        pool_broke = True
                        break
                if inflight and not pool_broke:
                    self._watch(inflight, queue, reader)
        finally:
            self._teardown_pool()

    def _lease_state(self, lease: JobLease, plan: FaultPlan) -> _JobState:
        """Wrap one lease in supervision bookkeeping.

        The fault sites are consulted in a frozen order (worker-proc,
        then hang, then pool); each site counts separately, so fault
        plans fire on the same jobs whatever the leasing pattern.  A job
        is consulted once: re-leased after a restart, it keeps its
        decisions while its first (faulted) attempt is unrecorded, and
        has none once that attempt is spent.
        """
        job = lease.job
        checkpoint = lease.checkpoint
        spent = checkpoint.attempts(job.key) if checkpoint is not None else 0
        # the owning campaign's directory tells apart equal job keys of
        # two campaigns on one fleet
        where = checkpoint.directory if checkpoint is not None else ""
        key = f"{where}//{job.key}"
        flags = self._decisions.get(key)
        if flags is None:
            flags = self._decisions[key] = [
                plan.should_fire(site) for site in ("worker-proc", "hang", "pool")
            ]
        elif spent:
            flags = [False, False, False]
        state = _JobState(
            job,
            *flags,
            spent=spent,
            checkpoint=checkpoint,
            telemetry=lease.telemetry_dir,
            tenant=lease.tenant,
        )
        if state.killed:
            self._count("engine.worker_kills")
        self._by_key[job.key] = state
        return state

    def _dispatch(
        self,
        state: _JobState,
        queue: Deque[_JobState],
        inflight: Dict[object, _JobState],
    ) -> None:
        cfg = self.config
        if state.result is not None:
            return
        if state.attempts >= cfg.max_attempts:
            self._quarantine(state)
            return
        attempt = state.attempts + 1
        if state.pool:
            # injected pool break "while the job runs": the attempt dies
            # with the pool, jobs in flight are innocent bystanders —
            # re-dispatched on the fresh pool without spending attempts
            # (with no pool yet, the attempt is spent and nothing else)
            state.pool = False
            self._fail_attempt(
                state, attempt, "pool", "injected pool break (fault plan)"
            )
            queue.append(state)
            if self._executor is not None:
                self._rebuild_pool("injected pool break", queue, inflight)
            return
        inprocess = state.inprocess or self._serial_only
        # a "killed" worker's hang is moot
        hang = state.hang and not state.killed
        state.hang = False
        if hang and not self._hang_reclaimable(state, inprocess):
            # nothing is armed to reclaim the wedged search: spending the
            # attempt without wedging the whole campaign is the only
            # sane move
            self._fail_attempt(
                state,
                attempt,
                "hang",
                "injected hang with no deadline or watchdog to reclaim it",
            )
            queue.append(state)
            return
        self._backoff(attempt)
        if inprocess:
            # one-worker fleet / worker-proc containment / post-kill
            # retry / downgraded pool: run in the parent, which
            # guarantees completion
            result = run_job(
                state.job,
                self.runner.fault_spec,
                state.telemetry,
                hang=hang,
                store_dir=self.runner.store_dir,
                seed_from_store=self.runner.seed_from_store,
                store_tenant=state.tenant,
            )
            if result.interrupted and interrupt_requested():
                # shutdown artifact: the job is un-run, and the loop's
                # post-dispatch check raises
                queue.append(state)
                return
            self._settle(state, attempt, result, queue)
            return
        future = self._ensure_executor().submit(
            run_job,
            state.job,
            self.runner.fault_spec,
            state.telemetry,
            hang,
            self.runner.store_dir,
            self.runner.seed_from_store,
            state.tenant,
        )
        state.started_at = None
        inflight[future] = state

    def _collect(
        self,
        state: _JobState,
        future,
        queue: Deque[_JobState],
        inflight: Dict[object, _JobState],
    ) -> bool:
        """Fold one finished future; True when the pool broke under it."""
        from concurrent.futures.process import BrokenProcessPool

        attempt = state.attempts + 1
        try:
            result = future.result()
        except BrokenProcessPool:
            # the pool died, but *which* in-flight job poisoned it is
            # unknowable from here — this future merely surfaced first.
            # Every in-flight job (this one included) is an innocent
            # bystander: re-dispatch all of them without spending
            # attempts.  A genuinely poisonous job is still bounded,
            # because rebuilds are capped and the downgraded in-process
            # path has no pool to break
            queue.append(state)
            self._rebuild_pool("broken process pool", queue, inflight)
            return True
        except Exception as exc:  # noqa: BLE001 - per-future containment
            # the worker died or its result could not cross the process
            # boundary; count the kill and guarantee the retry completes
            # by running it in-process
            self._count("engine.worker_kills")
            state.killed = state.inprocess = True
            self._fail_attempt(
                state, attempt, "killed", f"{type(exc).__name__}: {exc}"
            )
            queue.append(state)
            return False
        if result.interrupted and interrupt_requested():
            # shutdown artifact: un-run, and the loop's top-of-iteration
            # check raises even when this was the last in-flight future
            queue.append(state)
            return False
        self._settle(state, attempt, result, queue)
        return False

    def _watch(
        self,
        inflight: Dict[object, _JobState],
        queue: Deque[_JobState],
        reader,
    ) -> None:
        """Stall + defensive-timeout pass over the in-flight jobs."""
        cfg = self.config
        now = time.monotonic()
        if reader is not None:
            for job_key, _event in reader.poll():
                seen = self._by_key.get(job_key)
                if seen is not None:
                    seen.last_seen = now
        wedged = []
        for future, state in inflight.items():
            watched = reader is not None and bool(state.telemetry)
            if not (watched or state.deadline > 0) or future.done():
                continue
            if state.started_at is None:
                # queued behind busy workers is not silence: both clocks
                # start when the job starts running
                if future.running():
                    state.started_at = state.last_seen = now
                continue
            if watched and now - state.last_seen > cfg.stall_timeout:
                wedged.append((future, state, "stalled"))
            elif state.deadline > 0 and now > (
                state.started_at + self._time_limit(state)
            ):
                wedged.append((future, state, "timeout"))
        if not wedged:
            return
        # a wedged worker can only be reclaimed by killing its process,
        # which takes the whole pool down: fail the culprits' attempts,
        # re-dispatch the innocents for free, rebuild
        for future, state, outcome in wedged:
            inflight.pop(future, None)
            future.cancel()
            if outcome == "stalled":
                state.stalled = True
                self._count("engine.supervisor.stalled")
                self._emit(
                    "job_stalled",
                    job=state.job.key,
                    silence=round(cfg.stall_timeout, 3),
                )
                detail = (
                    f"no heartbeat for {cfg.stall_timeout:g}s; worker killed"
                )
            else:
                detail = (
                    "worker overran the defensive deadline "
                    f"({self._time_limit(state):g}s); killed"
                )
            self._fail_attempt(state, state.attempts + 1, outcome, detail)
            queue.append(state)
        self._rebuild_pool("wedged worker", queue, inflight)

    # -- pool lifecycle ----------------------------------------------------

    def _ensure_executor(self):
        if self._executor is None:
            from concurrent.futures import ProcessPoolExecutor
            import multiprocessing as mp

            from .runner import _ensure_importable_by_children

            _ensure_importable_by_children()
            self._executor = ProcessPoolExecutor(
                max_workers=self._fleet,
                mp_context=mp.get_context("spawn"),
            )
        return self._executor

    def _teardown_pool(self) -> None:
        executor, self._executor = self._executor, None
        if executor is None:
            return
        procs = list(getattr(executor, "_processes", {}).values() or [])
        try:
            executor.shutdown(wait=False, cancel_futures=True)
        except Exception:  # noqa: BLE001 - teardown is best effort
            pass
        for proc in procs:
            try:
                proc.terminate()
            except Exception:  # noqa: BLE001
                pass

    def _rebuild_pool(
        self,
        reason: str,
        queue: Deque[_JobState],
        inflight: Dict[object, _JobState],
    ) -> None:
        """Tear the pool down; its in-flight jobs re-dispatch for free."""
        queue.extend(inflight.values())
        inflight.clear()
        self._teardown_pool()
        if self.pool_rebuilds >= MAX_POOL_REBUILDS:
            # rebuild budget exhausted: the rest of the campaign runs
            # in-process — same results, slower wall clock
            self._serial_only = True
            self._emit("pool_downgraded", reason=reason)
            return
        self.pool_rebuilds += 1
        self._count("engine.supervisor.pool_rebuilds")
        self._emit("pool_rebuilt", reason=reason, rebuilds=self.pool_rebuilds)
        # the executor itself is rebuilt lazily on the next dispatch

    # -- attempt accounting ------------------------------------------------

    def _failure(self, result: JobResult) -> Optional[str]:
        """The failure outcome of an attempt, or None when it stands.

        Only *infrastructure* failures (deadline here; killed / stalled /
        timeout at their detection sites; the injected ``pool`` fault at
        dispatch — a *real* pool break charges nobody) spend attempts.
        A job
        whose search fails deterministically (``ok=False``) is a result,
        not a fault: the execution model makes re-running it
        answer-preserving by construction, so a retry could only
        reproduce the same error — it is recorded directly, exactly as
        an unsupervised campaign would.
        """
        if result.deadline_exceeded:
            return "deadline"
        return None

    def _settle(
        self,
        state: _JobState,
        attempt: int,
        result: JobResult,
        queue: Deque[_JobState],
    ) -> None:
        outcome = self._failure(result)
        if outcome is None:
            self._finish(state, attempt, result)
            return
        if outcome == "deadline":
            self._count("engine.supervisor.deadline_exceeded")
            error = f"job deadline exceeded after {result.runs} runs"
        else:
            error = result.error
        self._fail_attempt(state, attempt, outcome, error, partial=result)
        queue.append(state)

    def _fail_attempt(
        self,
        state: _JobState,
        attempt: int,
        outcome: str,
        error: str = "",
        partial: Optional[JobResult] = None,
    ) -> None:
        state.attempts = attempt
        state.last_outcome = outcome
        state.last_error = error
        if partial is not None:
            state.last_partial = partial
        if state.checkpoint is not None:
            state.checkpoint.record_attempt(
                state.job.key, attempt, outcome, error=error, partial=partial
            )
        if attempt < self.config.max_attempts:
            self.retries += 1
            self._count("engine.supervisor.retries")
            self._emit(
                "job_retried",
                job=state.job.key,
                attempt=attempt + 1,
                outcome=outcome,
                error=error,
            )

    def _finish(self, state: _JobState, attempt: int, result: JobResult) -> None:
        result.attempts = attempt
        result.stalled = state.stalled
        if state.killed:
            result.killed_worker = True
        self._land(state, result)

    def _quarantine(self, state: _JobState) -> None:
        """Exhausted attempts: record the poison job and move on."""
        outcome, error = state.last_outcome, state.last_error
        partial = state.last_partial
        if partial is None and state.checkpoint is not None:
            # resume path: rebuild the salvage from the attempt ledger
            ledger = state.checkpoint.last_attempt(state.job.key)
            if ledger:
                outcome = outcome or str(ledger.get("outcome", ""))
                error = error or str(ledger.get("error", ""))
                saved = ledger.get("partial")
                if isinstance(saved, dict):
                    try:
                        partial = JobResult.from_payload(saved)
                    except (ReproError, KeyError, ValueError, TypeError):
                        partial = None
        result = partial if partial is not None else JobResult(
            key=state.job.key,
            scheduler=str(state.job.config.get("scheduler", "dfs")),
        )
        result.ok = False
        result.quarantined = True
        result.attempts = state.attempts
        result.stalled = state.stalled or result.stalled
        if state.killed:
            result.killed_worker = True
        result.error = (
            f"quarantined after {state.attempts} attempts "
            f"(last failure: {outcome or 'unknown'}"
            + (f": {error}" if error else "")
            + ")"
        )
        self._count("engine.supervisor.quarantined")
        self._emit(
            "job_quarantined",
            job=state.job.key,
            attempts=state.attempts,
            outcome=outcome,
            error=result.error,
        )
        self._land(state, result)

    def _land(self, state: _JobState, result: JobResult) -> None:
        """Settle a job for good: hand its result to the source, then
        to ``progress``."""
        state.result = result
        self._by_key.pop(state.job.key, None)
        self._settled += 1
        self._source.completed(result)
        if self._progress is not None:
            self._progress(result)

    # -- shutdown ----------------------------------------------------------

    def _shutdown(
        self, queue: Deque[_JobState], inflight: Dict[object, _JobState]
    ) -> None:
        """Drain, hand un-run leases back to the source, raise."""
        pending = list(queue) + list(inflight.values())
        self._drain(inflight)
        for state in pending:
            if state.result is None:
                self._source.released(state.job)
        reason = interrupt_requested() or "signal"
        self._count("engine.supervisor.shutdowns")
        directory = (
            self.checkpoint.directory if self.checkpoint is not None else None
        )
        message = f"campaign interrupted by {reason}"
        if directory:
            message += "; finished jobs are checkpointed"
        raise SearchInterrupted(message, checkpoint_dir=directory)

    def _drain(self, inflight: Dict[object, _JobState]) -> None:
        """Give in-flight jobs :data:`DRAIN_TIMEOUT` seconds to land."""
        if not inflight:
            return
        from concurrent.futures import FIRST_COMPLETED, wait

        deadline = time.monotonic() + DRAIN_TIMEOUT
        while inflight and time.monotonic() < deadline:
            done, _ = wait(
                list(inflight), timeout=0.1, return_when=FIRST_COMPLETED
            )
            for future in done:
                state = inflight.pop(future, None)
                if state is None:
                    continue
                try:
                    result = future.result()
                except Exception:  # noqa: BLE001 - draining is best effort
                    continue
                if result.interrupted:
                    continue  # shutdown artifact; resume re-runs it
                if self._failure(result) is None:
                    self._finish(state, state.attempts + 1, result)
        inflight.clear()

    # -- small helpers -----------------------------------------------------

    def _hang_reclaimable(self, state: _JobState, inprocess: bool) -> bool:
        """Can *anything* reclaim a wedged search for this dispatch?"""
        if state.deadline > 0:
            return True  # the kernel reclaims itself at the job's deadline
        # the watchdog kills pool workers, never the parent process
        return bool(
            not inprocess and self.config.stall_timeout > 0 and state.telemetry
        )

    def _time_limit(self, state: _JobState) -> float:
        """The defensive timeout of a running attempt (deadline > 0)."""
        return 2.0 * state.deadline + DEADLINE_GRACE

    def _backoff(self, attempt: int) -> None:
        if attempt > 1:
            time.sleep(RETRY_BACKOFF * (attempt - 1))

    def _count(self, name: str) -> None:
        registry = default_registry()
        if registry.enabled:
            registry.counter(name).inc()

    def _emit(self, kind: str, **fields: object) -> None:
        current_journal().emit(kind, **fields)
