"""The stable library surface of :mod:`repro`.

Everything a library user needs lives behind a small set of names —

- :func:`generate_tests` — one directed search over one program;
- :class:`Client` / :class:`CampaignHandle` — submit campaigns and
  watch them run: locally (a background campaign in this process) or
  against a ``repro serve`` state dir (the campaign service);
- :func:`replay` — re-execute a saved corpus and report outcome drift —

plus the types they accept and return, re-exported here.  The CLI
subcommands (``repro run``, ``repro campaign``, ``repro serve`` /
``submit``, ``repro replay``) are thin wrappers over these same
classes, so library and shell users hit identical code paths.

The campaign model is *submit → handle*::

    from repro.api import Client

    client = Client(workers=4, store_dir=".repro-store")
    handle = client.submit("paper")
    for event in handle.stream_events():   # optional: watch it run
        ...
    report = handle.wait()
    print(report.summary(), report.campaign_digest)

The same two calls against a service state dir submit to a running
``repro serve`` fleet instead (and return even if the server finishes
the campaign days later — results are durable)::

    client = Client(state_dir="/var/run/repro")
    handle = client.submit("paper", priority=2, tenant="ci")
    report = handle.wait(timeout=600)

Deep imports (``from repro.search.directed import DirectedSearch``, …)
keep working, but only the names in :data:`__all__` here are covered by
the compatibility promise documented in docs/API.md.
"""

from __future__ import annotations

import threading
import time
from typing import Callable, Dict, Iterator, List, Optional, Union

from .engine.merger import (
    Campaign,
    CampaignHandle,
    CampaignReport,
    ResultMerger,
)
from .engine.planner import (
    BatchPlanner,
    CampaignSpec,
    SearchJob,
    resolve_spec,
    resolve_strategy,
)
from .engine.runner import JobResult, ProcessPoolRunner
from .engine.supervisor import SupervisorConfig
from .errors import ReproError, SearchInterrupted
from .interrupt import clear_interrupt, interrupt_requested, request_interrupt
from .lang.ast import Program
from .lang.natives import NativeRegistry
from .lang.parser import parse_program
from .obs import Observability
from .search.corpus import ReplayReport, TestCorpus
from .search.directed import DirectedSearch, SearchConfig, SearchResult
from .search.report import suite_digest
from .service.client import ServiceClient
from .service.state import submission_ticket

__all__ = [
    # functions
    "generate_tests",
    "replay",
    # the campaign client surface
    "Client",
    "CampaignHandle",
    "ServiceClient",
    # campaign types
    "BatchPlanner",
    "CampaignReport",
    "CampaignSpec",
    "JobResult",
    "ProcessPoolRunner",
    "ResultMerger",
    "SearchJob",
    # search types
    "SearchConfig",
    "SearchResult",
    # corpus types
    "ReplayReport",
    "TestCorpus",
    # helpers
    "suite_digest",
]


def _as_program(source: Union[str, Program]) -> Program:
    return source if isinstance(source, Program) else parse_program(source)


def _default_entry(program: Program, requested: Optional[str]) -> str:
    if requested:
        if requested not in program.functions:
            raise ReproError(f"program has no function {requested!r}")
        return requested
    if "main" in program.functions:
        return "main"
    return next(iter(program.functions))


def _default_natives() -> NativeRegistry:
    from .apps.hashes import standard_registry

    return standard_registry(width=4)


def generate_tests(
    source: Union[str, Program],
    *,
    entry: Optional[str] = None,
    strategy: str = "hotg",
    config: Optional[Union[SearchConfig, Dict[str, object]]] = None,
    natives: Optional[NativeRegistry] = None,
    seed: Optional[Dict[str, int]] = None,
    obs: Optional[Observability] = None,
    _search_hook: Optional[Callable[[DirectedSearch], None]] = None,
) -> SearchResult:
    """Run one directed search over ``source`` and return its result.

    ``source`` is MiniC text (or an already-parsed :class:`Program`);
    ``strategy`` is ``"hotg"`` (higher-order, the paper's contribution),
    ``"dart"``/``"unsound"``, ``"sound"``, or ``"delayed"``; ``config``
    is a :class:`SearchConfig` or a dict of its options (validated by
    :meth:`SearchConfig.from_options`); ``natives`` defaults to the hash
    zoo the CLI exposes; ``seed`` entries default to 0 per entry-point
    parameter.
    """
    from .symbolic.concolic import ConcretizationMode

    program = _as_program(source)
    entry_fn = _default_entry(program, entry)
    mode = ConcretizationMode(resolve_strategy(strategy))
    if config is None:
        search_config = SearchConfig()
    elif isinstance(config, SearchConfig):
        search_config = config.validate()
    else:
        search_config = SearchConfig.from_options(**config)
    registry = natives if natives is not None else _default_natives()
    given = dict(seed or {})
    inputs = {
        param: int(given.get(param, 0))
        for param in program.function(entry_fn).params
    }
    search = DirectedSearch.for_mode(
        program, entry_fn, registry, mode, search_config, obs=obs
    )
    if _search_hook is not None:
        # private: lets the CLI reach the live search (sample store for
        # reports) without widening the stable surface
        _search_hook(search)
    return search.run(inputs)


# ---------------------------------------------------------------------------
# The campaign client surface
# ---------------------------------------------------------------------------


class _LocalHandle(CampaignHandle):
    """A campaign running on a background thread of *this* process.

    ``submit`` validates and plans synchronously (bad specs fail fast,
    in the caller's stack), then hands the planned
    :class:`~repro.engine.merger.Campaign` to a daemon thread that runs
    it on a :class:`ProcessPoolRunner` — the lifecycle a served
    campaign goes through too, so digests, checkpoints, report totals,
    telemetry, and the interrupt contract match.  ``wait`` re-raises
    whatever the campaign raised (notably :class:`SearchInterrupted` on
    shutdown, preserving the CLI's exit-3 + resume-hint behaviour).
    """

    def __init__(
        self,
        ticket: str,
        telemetry: Optional[str],
        progress: Optional[Callable[[JobResult], None]],
    ) -> None:
        self.ticket = ticket
        self._telemetry = telemetry
        self._progress = progress
        self._report: Optional[CampaignReport] = None
        self._error: Optional[BaseException] = None
        self._cancelled = False
        #: results as they land, for telemetry-less stream_events
        self._landed: List[JobResult] = []
        self._streamed = 0
        self._thread: Optional[threading.Thread] = None

    def _alive(self) -> bool:
        return self._thread is not None and self._thread.is_alive()

    def _start(self, execute: Callable[[], CampaignReport]) -> None:
        def _run() -> None:
            try:
                self._report = execute()
            except BaseException as exc:  # noqa: BLE001 - re-raised in wait()
                self._error = exc
            finally:
                # a cancel() sets the process-wide interrupt flag; once
                # this campaign has honoured it, clear it so the *next*
                # campaign in this process starts clean
                if self._cancelled and interrupt_requested() == "cancel":
                    clear_interrupt()

        self._thread = threading.Thread(
            target=_run, name=f"repro-campaign-{self.ticket[:12]}", daemon=True
        )
        self._thread.start()

    def _note(self, result: JobResult) -> None:
        self._landed.append(result)
        if self._progress is not None:
            self._progress(result)

    def status(self) -> str:
        if self._alive():
            return "running"
        if self._error is not None:
            if isinstance(self._error, SearchInterrupted):
                return "cancelled"
            return "failed"
        return "done"

    def wait(self, timeout: Optional[float] = None) -> CampaignReport:
        deadline = None if timeout is None else time.monotonic() + timeout
        while self._alive():
            # short joins keep the *caller's* thread responsive to
            # signals: Ctrl-C lands here, flags the interrupt, and the
            # campaign thread shuts down gracefully
            self._thread.join(0.2)
            if (
                deadline is not None
                and time.monotonic() >= deadline
                and self._alive()
            ):
                raise ReproError(
                    f"timed out after {timeout:g}s waiting for campaign "
                    f"{self.ticket[:12]} (still running)"
                )
        if self._error is not None:
            raise self._error
        assert self._report is not None
        return self._report

    def result(self) -> CampaignReport:
        if self._alive():
            raise ReproError(
                f"no result yet for {self.ticket[:12]} (status: running)"
            )
        if self._error is not None:
            raise self._error
        assert self._report is not None
        return self._report

    def cancel(self) -> bool:
        if not self._alive():
            return False
        self._cancelled = True
        request_interrupt("cancel")
        return True

    def stream_events(
        self, poll: float = 0.2, timeout: Optional[float] = None
    ) -> Iterator[Dict[str, object]]:
        """Yield events as the campaign runs.

        With a telemetry directory configured this tails the journal
        shards (the full per-run event stream); without one it degrades
        to synthetic ``job_finished`` events, one per landed job.
        """
        reader = None
        if self._telemetry:
            from .obs.shipper import ShardReader

            reader = ShardReader(self._telemetry)
        deadline = None if timeout is None else time.monotonic() + timeout
        while True:
            got = False
            if reader is not None:
                for job, event in reader.poll():
                    got = True
                    yield dict(event, job=job)
            else:
                while self._streamed < len(self._landed):
                    result = self._landed[self._streamed]
                    self._streamed += 1
                    got = True
                    yield {
                        "kind": "job_finished",
                        "job": result.key,
                        "ok": result.ok,
                        "tests": len(result.corpus),
                    }
            if not self._alive() and not got:
                return
            if deadline is not None and time.monotonic() >= deadline:
                return
            if not got:
                time.sleep(poll)


class Client:
    """Submit campaigns; get :class:`CampaignHandle`\\ s back.

    Two backends behind one surface:

    - **local** (default): each :meth:`submit` runs the campaign on a
      background thread of this process, with the worker pool, solver
      cache, telemetry, and supervision policy configured here.
    - **service** (``state_dir=...``): each :meth:`submit` drops a
      durable submission into a ``repro serve`` state dir and returns
      immediately; the server's fleet runs it (priority, tenant
      fair-share, and quotas apply), and the handle observes by
      reading the state dir — even across server restarts.

    Execution-environment knobs (``workers``, ``store_dir``,
    ``telemetry``, supervision) live on the client; per-campaign
    choices (the spec, the ``scheduler`` override, ``priority``,
    ``tenant``) live on :meth:`submit`.
    """

    def __init__(
        self,
        state_dir: Optional[str] = None,
        *,
        workers: int = 1,
        telemetry: Optional[str] = None,
        fault_plan: str = "",
        job_deadline: Optional[float] = None,
        max_attempts: Optional[int] = None,
        stall_timeout: Optional[float] = None,
        store_dir: Optional[str] = None,
        store_max_bytes: Optional[int] = None,
        seed_from_store: bool = False,
    ) -> None:
        self.workers = workers
        self.telemetry = telemetry
        self.fault_plan = fault_plan
        self.job_deadline = job_deadline
        self.max_attempts = max_attempts
        self.stall_timeout = stall_timeout
        #: shared content-addressed store: the solver disk cache, and
        #: where corpora and crash buckets are persisted
        self.store_dir = store_dir
        #: when set, the store is gc'd to this budget after each local
        #: campaign finishes
        self.store_max_bytes = store_max_bytes
        #: seed searches from the store's prior corpora (deterministic
        #: given the store state; OFF preserves classic digests exactly)
        self.seed_from_store = seed_from_store
        self._service = (
            ServiceClient(state_dir) if state_dir is not None else None
        )

    # -- submission --------------------------------------------------------

    def submit(
        self,
        spec: Union[str, CampaignSpec, Dict[str, object]],
        *,
        priority: int = 0,
        tenant: str = "default",
        checkpoint: Optional[str] = None,
        scheduler: Optional[str] = None,
        progress: Optional[Callable[[JobResult], None]] = None,
    ) -> CampaignHandle:
        """Submit one campaign; returns its handle.

        ``spec`` is a :class:`CampaignSpec`, a dict in the same shape, a
        path to a ``.toml``/``.json`` spec file, or ``"paper"`` for the
        built-in paper-example suite.  ``scheduler`` overrides the
        spec's scheduler list with one frontier scheduler for every job.
        The report's ``campaign_digest`` is byte-identical at every
        ``workers`` value, under retries, and — because job results are
        pure functions of the job and the solver cache — whether the
        campaign ran alone or interleaved with others on a service
        fleet.

        Local mode validates and plans synchronously: a bad spec —
        including an unknown or out-of-range ``config`` option — raises
        :class:`~repro.errors.ReproError` here, not from the handle.
        ``checkpoint`` and ``progress`` are local-only (the service
        checkpoints every campaign in its own state-dir slot and
        streams progress via the handle);
        ``priority`` and ``tenant`` only schedule anything in service
        mode, but always participate in the content-addressed ticket.
        """
        if self._service is not None:
            if checkpoint is not None:
                raise ReproError(
                    "checkpoint= is local-only: the service checkpoints "
                    "every campaign under its state dir automatically"
                )
            if progress is not None:
                raise ReproError(
                    "progress= is local-only: stream a service campaign "
                    "with handle.stream_events()"
                )
            return self._service.submit(
                spec,
                priority=priority,
                tenant=tenant,
                scheduler=scheduler,
                job_deadline=self.job_deadline,
            )
        return self._submit_local(
            spec,
            tenant=tenant,
            checkpoint=checkpoint,
            scheduler=scheduler,
            progress=progress,
        )

    def handle(self, ticket: str) -> CampaignHandle:
        """Re-attach to an existing service submission by ticket
        (prefixes allowed).  Service mode only: local campaigns live
        and die with the handle returned by :meth:`submit`."""
        if self._service is None:
            raise ReproError(
                "handle() needs a service client — construct "
                "Client(state_dir=...) to re-attach to submissions"
            )
        return self._service.handle(ticket)

    # -- the local backend -------------------------------------------------

    def _submit_local(
        self,
        spec: Union[str, CampaignSpec, Dict[str, object]],
        *,
        tenant: str,
        checkpoint: Optional[str],
        scheduler: Optional[str],
        progress: Optional[Callable[[JobResult], None]],
    ) -> CampaignHandle:
        resolved = resolve_spec(spec).with_overrides(
            scheduler=scheduler, job_deadline=self.job_deadline
        )
        # supervision policy; the parent's defensive timeouts key off
        # each job's own deadline (the spec's, possibly overridden above)
        policy_kwargs: Dict[str, object] = {}
        if self.max_attempts is not None:
            policy_kwargs["max_attempts"] = int(self.max_attempts)
        if self.stall_timeout is not None:
            if float(self.stall_timeout) > 0 and not self.telemetry:
                # without shards to tail the watchdog would silently
                # never arm — reject rather than let a wedged worker
                # hang a campaign whose operator asked for stall
                # detection
                raise ReproError(
                    "stall_timeout needs a telemetry directory: the "
                    "heartbeat watchdog tails telemetry shards (pass "
                    "--telemetry DIR, or --follow-telemetry with "
                    "--checkpoint)"
                )
            policy_kwargs["stall_timeout"] = float(self.stall_timeout)
        campaign = Campaign.plan(resolved, checkpoint, self.telemetry)
        options: Dict[str, object] = {}
        if scheduler is not None:
            options["scheduler"] = scheduler
        if self.job_deadline is not None:
            options["job_deadline"] = self.job_deadline
        ticket = submission_ticket(resolved.as_payload(), options, tenant)
        spec_label = spec if isinstance(spec, str) else "<spec>"
        handle = _LocalHandle(ticket, self.telemetry, progress)
        runner = ProcessPoolRunner(
            workers=self.workers,
            fault_spec=self.fault_plan,
            telemetry_dir=self.telemetry,
            supervisor=SupervisorConfig(**policy_kwargs),  # type: ignore[arg-type]
            store_dir=self.store_dir,
            seed_from_store=self.seed_from_store,
        )

        def _execute() -> CampaignReport:
            try:
                runner.run(campaign, progress=handle._note)
            except SearchInterrupted as exc:
                # graceful shutdown: finished jobs are already
                # checkpointed; publish what telemetry there is and
                # surface how to resume
                if exc.resume_hint is None and checkpoint:
                    exc.resume_hint = (
                        f"repro campaign {spec_label} --checkpoint {checkpoint}"
                    )
                campaign.merge_telemetry()
                raise
            report = campaign.report(
                pool_rebuilds=runner.last_supervisor.pool_rebuilds
            )
            if self.store_dir and self.store_max_bytes is not None:
                from .store import ContentStore

                # answer-neutral by the store's contract: anything
                # evicted is recomputed to byte-identical content on
                # the next run
                ContentStore(self.store_dir).gc(self.store_max_bytes)
            return report

        handle._start(_execute)
        return handle


def replay(
    corpus: Union[str, TestCorpus],
    source: Union[str, Program],
    *,
    entry: Optional[str] = None,
    natives: Optional[NativeRegistry] = None,
) -> ReplayReport:
    """Re-execute a saved corpus against ``source``; report outcome drift.

    ``corpus`` is a :class:`TestCorpus` or a path to one saved as JSON.
    A mismatch means the program's behaviour changed since the corpus was
    recorded — a regression (or a fix) worth inspecting.
    """
    tests = corpus if isinstance(corpus, TestCorpus) else TestCorpus.load(corpus)
    program = _as_program(source)
    entry_fn = _default_entry(program, entry)
    registry = natives if natives is not None else _default_natives()
    return tests.replay(program, entry_fn, registry)
