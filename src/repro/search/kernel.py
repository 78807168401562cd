"""The staged search kernel behind :class:`~repro.search.directed.DirectedSearch`.

One iteration of the directed search is a five-stage pipeline:

1. **execute** — run the program concolically on an input vector
   (:meth:`SearchKernel.execute`; crash containment lives here);
2. **derive flips** — the run's candidate branch flips, a pure function
   of its recorded path constraint (:meth:`SearchKernel.derive_flips`);
3. **schedule** — ask the session's :class:`~repro.search.scheduler.FrontierScheduler`
   which pending run to expand and in which flip order
   (:meth:`SearchKernel.schedule`; the ``scheduler`` fault site and the
   per-scheduler metrics live here);
4. **solve** — produce inputs for one flip, via the checkpoint replay
   log or the solver degradation ladder (:meth:`SearchKernel.solve_flip`);
5. **reconstitute** — execute the generated inputs, fold the child into
   the search state, and push it back onto the scheduler
   (:meth:`SearchKernel.reconstitute`).

All mutable loop state lives in one explicit :class:`SearchState` — the
scheduler queue, the path/input dedupe sets, and the deferred-flip retry
queue.  A checkpoint never stores it: resume replays the decision log,
which rebuilds the same state (see :mod:`repro.search.checkpoint`).

Stage boundaries are refactoring seams, not behaviour changes: under the
``dfs`` scheduler the kernel reproduces the pre-kernel monolith's suite
byte-for-byte (CI gates the paper-suite digest on it), and the
determinism contracts of the checkpoint replay (kill → resume) and the
degradation ladder hold for every scheduler (docs/SEARCH.md spells out
the contract).

Every stage is also a **profiling span**: the kernel opens a tracer span
per stage (labels ``execute``, ``derive``, ``schedule``, ``generate``,
``reconstitute`` — see :data:`repro.obs.export.KERNEL_STAGES`) and, when
metrics are live, records per-stage duration histograms
(``kernel.stage.<stage>_seconds``) with per-scheduler attribution
(``kernel.stage.<stage>_seconds.<scheduler>`` for the scheduler-policy
stages) plus live query-cache hit-rate gauges (``kernel.cache.*``).
With an enabled journal each run additionally emits a ``run_executed``
event carrying cumulative coverage and cache counters — the signal the
campaign live view (``repro stats --follow``) renders.  All of it is
answer-preserving: profiling reads clocks and counters, never search
state.
"""

from __future__ import annotations

import re
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

from ..errors import (
    DeadlineExceeded,
    ReproError,
    ResourceLimitError,
    RunBudgetExhausted,
    SearchInterrupted,
)
from ..faults import consume_hang_request, current_fault_plan, set_fault_plan
from ..interrupt import check_interrupt
from ..obs import Observability
from ..solver.budget import DEFAULT_BUDGET, DEGRADED_BUDGET, use_budget
from ..solver.terms import Term, TermManager
from ..symbolic.concolic import ConcolicResult, PathCondition
from ..core.post import negatable_indices
from ..core.samples import SampleStore
from .backends import satisfy
from .checkpoint import CheckpointWriter, ReplayCursor
from .directed import CrashReport, ErrorReport, ExecutionRecord, SearchResult
from .request import GeneratedTest, GenerationRequest, TestGenBackend, import_request
from .scheduler import FrontierItem, FrontierScheduler

__all__ = ["SearchKernel", "SearchState"]

#: sentinel: the flip was queued for the end-of-search retry phase
_DEFERRED = object()
#: sentinel: the run budget is gone; end the search gracefully
_STOP = object()

#: flips are derived only from a run's conditions at indices below this
MAX_CONDITIONS_PER_RUN = 64
#: budget multiplier for the end-of-search retry of deferred flips
DEFER_SCALE = 4.0


def _app_subterms(term: Term) -> List[Term]:
    """Every distinct UF application occurring in ``term`` (outermost too)."""
    out: List[Term] = []
    seen: Set[Term] = set()
    stack = [term]
    while stack:
        t = stack.pop()
        if t in seen:
            continue
        seen.add(t)
        if t.is_app:
            out.append(t)
        stack.extend(t.args)
    return out


def _var_names(term: Term) -> Set[str]:
    """Names of the variables occurring in ``term``."""
    names: Set[str] = set()
    stack = [term]
    while stack:
        t = stack.pop()
        if t.is_var and t.name:
            names.add(t.name)
        stack.extend(t.args)
    return names


@dataclass
class SearchState:
    """The kernel's explicit mutable state.

    Everything the expansion loop reads or writes between stages lives
    here: the scheduler (owning the pending frontier), the dedupe sets,
    the deferred-flip queue, and the stop flag.
    """

    scheduler: FrontierScheduler
    #: path keys of every distinct execution path seen
    seen_paths: Set[Tuple[Tuple[int, bool], ...]] = field(default_factory=set)
    #: every input vector executed (seed, children, probes)
    seen_inputs: Set[Tuple[Tuple[str, int], ...]] = field(default_factory=set)
    #: flips queued for the end-of-search escalated retry
    deferred: List[Tuple[ExecutionRecord, int, GenerationRequest]] = field(
        default_factory=list
    )
    #: the run budget is exhausted; the expansion loop must end
    stop: bool = False


class SearchKernel:
    """One search session's staged expansion loop.

    Built by :meth:`DirectedSearch.run` per session; owns the
    :class:`SearchState` and drives the execute → derive → schedule →
    solve → reconstitute pipeline until the scheduler drains, the run
    budget is gone, or ``stop_on_first_error`` fires.
    """

    def __init__(
        self,
        *,
        engine,
        entry: str,
        backend: TestGenBackend,
        store: SampleStore,
        config,
        obs: Observability,
        result: SearchResult,
        scheduler: FrontierScheduler,
        ckpt: Optional[CheckpointWriter] = None,
        replay: Optional[ReplayCursor] = None,
    ) -> None:
        self.engine = engine
        self.entry = entry
        self.backend = backend
        self.store = store
        self.config = config
        self.obs = obs
        self.result = result
        self.state = SearchState(scheduler=scheduler)
        self._ckpt = ckpt
        self._replay = replay
        self._suspended_plan = None
        self._probe_log: List[Dict[str, int]] = []
        #: monotonic instant the session's wall-clock budget runs out
        #: (None = no deadline); armed by :meth:`search`
        self._deadline: Optional[float] = None

    # -- stage profiling ---------------------------------------------------

    #: stages whose cost depends on the scheduler policy; their histograms
    #: get an extra per-scheduler series for attribution
    _SCHEDULER_STAGES = frozenset({"schedule", "generate"})

    def _observe_stage(self, stage: str, seconds: float) -> None:
        """Record one stage duration into the per-stage histograms."""
        metrics = self.obs.metrics
        if not metrics.enabled:
            return
        metrics.histogram(f"kernel.stage.{stage}_seconds").observe(seconds)
        if stage in self._SCHEDULER_STAGES:
            metrics.histogram(
                f"kernel.stage.{stage}_seconds.{self.state.scheduler.name}"
            ).observe(seconds)

    def _cache_counters(self) -> Dict[str, int]:
        """Cumulative query-cache counters of the session's cache (if any)."""
        from ..solver.cache import default_cache

        cache = default_cache()
        if cache is None:
            return {}
        counters = {"hits": cache.hits, "misses": cache.misses}
        disk = cache.disk
        if disk is not None:
            counters.update(
                disk_hits=disk.hits,
                disk_misses=disk.misses,
                disk_stores=disk.stores,
                disk_skipped=disk.skipped,
            )
        return counters

    def _observe_cache(self) -> None:
        """Refresh the live cache hit-rate gauges."""
        metrics = self.obs.metrics
        if not metrics.enabled:
            return
        from ..solver.cache import default_cache

        cache = default_cache()
        if cache is None:
            return
        metrics.gauge("kernel.cache.hit_rate").set(round(cache.hit_rate, 4))
        disk = cache.disk
        if disk is not None:
            metrics.gauge("kernel.cache.disk_hit_rate").set(
                round(disk.hit_rate, 4)
            )

    # -- the expansion loop ------------------------------------------------

    def search(self, seed_inputs: Dict[str, int]) -> None:
        """Run the staged pipeline from the seed until the frontier drains."""
        if self.config.job_deadline:
            self._deadline = time.monotonic() + self.config.job_deadline
        self._begin_replay()
        try:
            self._expand(seed_inputs)
        finally:
            self._end_replay()

    def _expand(self, seed_inputs: Dict[str, int]) -> None:
        result = self.result
        state = self.state
        scheduler = state.scheduler
        first = self.execute(seed_inputs, parent=None, flipped=None)
        if first is None:
            # the seed input itself crashed the program under test; the
            # contained crash record is this session's whole story
            result.distinct_paths = 0
            return
        state.seen_paths.add(first.result.path_key)
        scheduler.push(first, 0, self.derive_flips(first, 0))
        self._execute_seed_corpus()

        while scheduler and not state.stop and result.runs < self.config.max_runs:
            # the solve stages between runs can be arbitrarily slow, so
            # the loop top is an interruption point of its own (the run
            # boundary inside execute() covers the common case)
            check_interrupt()
            self._check_deadline()
            if self.obs.metrics.enabled:
                self.obs.metrics.counter(
                    f"kernel.iterations.{scheduler.name}"
                ).inc()
            item = self.schedule()
            record = item.record
            flip_order = scheduler.order_flips(record, item.indices)
            conditions = record.result.path_conditions
            for i in flip_order:
                if result.runs >= self.config.max_runs:
                    break
                request = GenerationRequest(
                    conditions=list(conditions),
                    index=i,
                    input_vars=dict(record.result.input_vars),
                    defaults=dict(record.result.inputs),
                )
                with self.obs.tracer.span("generate") as gen_span:
                    outcome = self.solve_flip(request, record)
                result.time_generating += gen_span.elapsed
                self._observe_stage("generate", gen_span.elapsed)
                self._observe_cache()
                if outcome is _STOP:
                    state.stop = True
                    break
                if outcome is _DEFERRED or outcome is None:
                    continue
                self.reconstitute(outcome, record, i, live=True)
                if result.errors and self.config.stop_on_first_error:
                    result.distinct_paths = len(state.seen_paths)
                    return
        self.drain_deferred()
        result.distinct_paths = len(state.seen_paths)

    def _execute_seed_corpus(self) -> None:
        """Execute the extra seed vectors (cross-campaign corpus seeding).

        Each vector runs like any other test — coverage, errors, crash
        containment, run budget all apply — and every *new* path it
        reaches joins the frontier with the full flip range, exactly as
        if the search had generated it.  Already-executed vectors are
        skipped, so replaying a seeded session (and seeding with the
        primary seed itself) stays deterministic.
        """
        result = self.result
        state = self.state
        for vector in self.config.seed_corpus:
            if result.runs >= self.config.max_runs or state.stop:
                break
            if self._input_key(vector) in state.seen_inputs:
                continue
            record = self.execute(dict(vector), parent=None, flipped=None)
            if record is None:
                continue  # the seed crashed the program; contained
            record.note = record.note or "corpus seed"
            if self.obs.metrics.enabled:
                self.obs.metrics.counter("search.corpus_seeds").inc()
            if record.result.path_key not in state.seen_paths:
                state.seen_paths.add(record.result.path_key)
                state.scheduler.push(record, 0, self.derive_flips(record, 0))

    # -- stage 2: derive flips ---------------------------------------------

    def derive_flips(self, record: ExecutionRecord, start: int) -> List[int]:
        """Candidate flip positions of one run: negatable conditions at
        generational positions >= ``start``, under the per-run cap."""
        with self.obs.tracer.span("derive") as span:
            flips = [
                i
                for i in negatable_indices(record.result.path_conditions)
                if start <= i < MAX_CONDITIONS_PER_RUN
            ]
        self._observe_stage("derive", span.elapsed)
        return flips

    # -- stage 3: schedule ---------------------------------------------------

    def schedule(self) -> FrontierItem:
        """Pop the next pending run from the scheduler (fault-containable).

        A scheduler that fails — the injected ``scheduler`` fault site, or
        a real policy bug — is contained by falling back to the oldest
        pending run (FIFO order), so one bad ranking never takes the
        session down.
        """
        with self.obs.tracer.span("schedule") as span:
            item = self._schedule()
        self._observe_stage("schedule", span.elapsed)
        return item

    def _schedule(self) -> FrontierItem:
        obs = self.obs
        scheduler = self.state.scheduler
        if obs.metrics.enabled:
            obs.metrics.gauge(
                f"search.scheduler.{scheduler.name}.queue_depth"
            ).set(len(scheduler))
        try:
            current_fault_plan().fire("scheduler")
            before = scheduler.promotions
            item = scheduler.select()
        except (SearchInterrupted, RunBudgetExhausted):
            raise
        except Exception as exc:  # noqa: BLE001 - contained policy failure
            if obs.metrics.enabled:
                obs.metrics.counter("search.scheduler.failures").inc()
            obs.emit(
                "scheduler_failure",
                scheduler=scheduler.name,
                error=type(exc).__name__,
                message=str(exc),
            )
            item = scheduler.select_oldest()
            before = scheduler.promotions
        if obs.metrics.enabled:
            obs.metrics.counter(
                f"search.scheduler.{scheduler.name}.selections"
            ).inc()
            if scheduler.promotions > before:
                obs.metrics.counter(
                    f"search.scheduler.{scheduler.name}.promotions"
                ).inc()
        return item

    # -- stage 4: solve (replay + degradation ladder) ------------------------

    def solve_flip(self, request: GenerationRequest, record: ExecutionRecord):
        """Inputs for one flip, via the decision log (resume) or the ladder.

        Returns a :class:`GeneratedTest`, None (no test for this flip),
        ``_DEFERRED`` (queued for the escalated retry phase), or ``_STOP``
        (the run budget is exhausted; end the search gracefully).
        """
        result = self.result
        i = request.index
        if self._replay is not None:
            entry = self._replay.take(record.index, i)
            if entry is not None:
                try:
                    return self._apply_replayed(entry, record, i, request)
                except RunBudgetExhausted:
                    return _STOP
            self._end_replay()
        result.solver_calls += 1
        self._probe_log = []
        try:
            generated, rung = self._run_ladder(request, record.index)
        except RunBudgetExhausted:
            # a multi-step probe ran out of execution budget: the strategy
            # is over, but everything produced so far stands
            self.obs.emit("run_budget_exhausted", parent=record.index, flip=i)
            return _STOP
        self._log_decision(record.index, i, rung, generated, list(self._probe_log))
        if rung == "deferred":
            result.deferred_flips += 1
            self.state.deferred.append((record, i, request))
            if self.obs.metrics.enabled:
                self.obs.metrics.counter("search.flips_deferred").inc()
            self.obs.emit("flip_deferred", parent=record.index, flip=i)
            return _DEFERRED
        return generated

    def _run_ladder(
        self, request: GenerationRequest, parent: int
    ) -> Tuple[Optional[GeneratedTest], str]:
        """The solver degradation ladder for one flip.

        full-strength query → sound concretization → unsound concretization
        → defer.  Each rung only runs when the previous one *exhausted its
        budget* (``ResourceLimitError``); a rung that answers — with a test
        or with UNSAT — ends the ladder.
        """
        try:
            return self.backend.generate(request), "full"
        except RunBudgetExhausted:
            raise
        except ResourceLimitError:
            pass
        for rung, pin in (("sound", True), ("unsound", False)):
            self._count_downgrade(rung, parent, request.index)
            try:
                with use_budget(DEGRADED_BUDGET):
                    generated = self._degraded_generate(request, pin=pin)
            except ResourceLimitError:
                continue
            if generated is not None:
                return generated, rung
            if not pin:
                # even the unconstrained concretization is UNSAT: the flip
                # is infeasible under every approximation we can afford
                return None, rung
            # sound UNSAT may be an artifact of the pins; retry without them
        return None, "deferred"

    def _count_downgrade(self, rung: str, parent: int, flip: int) -> None:
        result = self.result
        result.downgrades[rung] = result.downgrades.get(rung, 0) + 1
        if self.obs.metrics.enabled:
            self.obs.metrics.counter(f"search.downgrades.{rung}").inc()
        self.obs.emit("flip_downgraded", parent=parent, flip=flip, rung=rung)

    def _degraded_generate(
        self, request: GenerationRequest, pin: bool
    ) -> Optional[GeneratedTest]:
        """Concretized fallback for a flip whose full query blew its budget.

        Every UF application in the path constraint is replaced by its
        concrete value under the parent run's inputs and the recorded IOF
        sample table (the parent actually executed those applications, so
        recorded points are exact).  With ``pin=True`` the inputs feeding
        the applications are additionally pinned to their parent values —
        the same move the concolic SOUND mode makes — so the concrete
        values stay correct; without pins the query is cheaper but unsound
        (a generated test may diverge, which the search detects as usual).
        """
        from ..solver.evalmodel import evaluate
        from ..solver.smt import Model

        table: Dict = {}
        for (fn, args), value in self.store.as_table().items():
            table.setdefault(fn, {})[args] = value
        model = Model(ints=dict(request.defaults), functions=table)
        local = TermManager()
        cache: Dict[Term, Term] = {}
        pin_names: Set[str] = set()
        for pc in request.conditions:
            for app in _app_subterms(pc.term):
                if app not in cache:
                    cache[app] = local.mk_int(int(evaluate(app, model)))
                if pin:
                    for arg in app.args:
                        pin_names.update(_var_names(arg))
        _, degraded = import_request(request, local, cache)
        if pin:
            input_vars = degraded.input_vars
            pins = [
                PathCondition(
                    term=local.mk_eq(
                        input_vars[name], local.mk_int(request.defaults[name])
                    ),
                    is_concretization=True,
                )
                for name in sorted(pin_names)
                if name in input_vars and name in request.defaults
            ]
            degraded.conditions = pins + degraded.conditions
            degraded.index += len(pins)
        generated = satisfy(local, degraded)
        if generated is None:
            return None
        kind = "sound" if pin else "unsound"
        return GeneratedTest(
            inputs=generated.inputs,
            note=f"degraded ({kind} concretization)",
        )

    # -- checkpoint / resume -------------------------------------------------

    def _begin_replay(self) -> None:
        if self._replay is None:
            return
        # suppress fault injection while replaying: the replayed prefix
        # already consumed its share of the fault sequence in the original
        # process; the checkpointed counters are restored when going live
        self._suspended_plan = set_fault_plan(None)

    def _end_replay(self) -> None:
        if self._replay is None:
            return
        cursor = self._replay
        self._replay = None
        obs = self.obs
        if cursor.diverged:
            if obs.metrics.enabled:
                obs.metrics.counter("search.resume.divergence").inc()
            obs.emit(
                "resume_divergence",
                replayed=len(cursor.consumed),
                logged=len(cursor),
            )
        if obs.metrics.enabled:
            obs.metrics.counter("search.resume.replayed").inc(len(cursor.consumed))
        obs.emit(
            "search_resumed",
            directory=cursor.directory,
            replayed=len(cursor.consumed),
            diverged=cursor.diverged,
        )
        if self._suspended_plan is not None:
            plan = self._suspended_plan
            self._suspended_plan = None
            set_fault_plan(plan)
            if cursor.fault_state:
                # continue the interrupted fault sequence instead of
                # repeating it (a one-shot kill must not re-fire)
                plan.restore_state(cursor.fault_state)
        if self._ckpt is not None:
            self._ckpt.reset_decisions(cursor.consumed)

    def _apply_replayed(
        self,
        entry: Dict[str, object],
        record: ExecutionRecord,
        i: int,
        request: GenerationRequest,
    ):
        """Re-enact one logged decision without calling the solver."""
        result = self.result
        result.replayed_decisions += 1
        rung = str(entry.get("rung", "full"))
        for probe in entry.get("probes") or []:  # type: ignore[union-attr]
            self.probe({str(k): int(v) for k, v in dict(probe).items()})
        # reconstruct the ladder counters the live run would have recorded
        if rung in ("sound", "unsound", "deferred"):
            self._count_downgrade("sound", record.index, i)
        if rung in ("unsound", "deferred"):
            self._count_downgrade("unsound", record.index, i)
        if rung == "deferred":
            result.deferred_flips += 1
            self.state.deferred.append((record, i, request))
            if self.obs.metrics.enabled:
                self.obs.metrics.counter("search.flips_deferred").inc()
            return _DEFERRED
        if rung == "abandoned":
            result.abandoned_flips += 1
            return None
        produced = entry.get("produced")
        if produced is None:
            return None
        return GeneratedTest(
            inputs={str(k): int(v) for k, v in dict(produced).items()},  # type: ignore[arg-type]
            intermediate_runs=int(entry.get("intermediate_runs") or 0),  # type: ignore[arg-type]
            note=str(entry.get("note") or ""),
        )

    def _log_decision(
        self,
        parent: int,
        flip: int,
        rung: str,
        generated: Optional[GeneratedTest],
        probes: List[Dict[str, int]],
    ) -> None:
        if self._ckpt is None:
            return
        self._ckpt.append_decision(
            {
                "parent": parent,
                "flip": flip,
                "rung": rung,
                "produced": dict(generated.inputs) if generated is not None else None,
                "note": generated.note if generated is not None else "",
                "intermediate_runs": generated.intermediate_runs
                if generated is not None
                else 0,
                "probes": probes,
            }
        )

    def _maybe_checkpoint(self) -> None:
        if self._ckpt is None or self._replay is not None:
            return
        if self.result.runs % max(1, self.config.checkpoint_every) != 0:
            return
        self.flush_checkpoint()

    def flush_checkpoint(self) -> None:
        ckpt = self._ckpt
        if ckpt is None or not ckpt.enabled:
            return
        result = self.result
        ckpt.flush_state(current_fault_plan().state())
        if ckpt.enabled:
            if self.obs.metrics.enabled:
                self.obs.metrics.counter("search.checkpoint.writes").inc()
            self.obs.emit(
                "checkpoint_written", runs=result.runs, directory=ckpt.directory
            )

    # -- deferred retry phase ------------------------------------------------

    def drain_deferred(self) -> None:
        """End-of-search retry of deferred flips with an escalated budget."""
        if not self.state.deferred:
            return
        result = self.result
        obs = self.obs
        escalated = DEFAULT_BUDGET.scaled(DEFER_SCALE)
        queue, self.state.deferred = self.state.deferred, []
        for record, i, request in queue:
            if result.runs >= self.config.max_runs:
                break
            if self._replay is not None:
                entry = self._replay.take(record.index, i)
                if entry is not None:
                    try:
                        generated = self._apply_replayed(entry, record, i, request)
                    except RunBudgetExhausted:
                        break
                    if generated is not None and generated is not _DEFERRED:
                        self.reconstitute(generated, record, i, live=False)
                    continue
                self._end_replay()
            result.solver_calls += 1
            self._probe_log = []
            obs.emit("flip_retried", parent=record.index, flip=i)
            try:
                with use_budget(escalated):
                    generated = self.backend.generate(request)
                rung = "escalated"
            except RunBudgetExhausted:
                break
            except ResourceLimitError:
                generated = None
                rung = "abandoned"
                result.abandoned_flips += 1
                if obs.metrics.enabled:
                    obs.metrics.counter("search.flips_abandoned").inc()
                obs.emit("flip_abandoned", parent=record.index, flip=i)
            self._log_decision(record.index, i, rung, generated, list(self._probe_log))
            if generated is not None:
                self.reconstitute(generated, record, i, live=False)

    # -- stage 5: reconstitute -----------------------------------------------

    @staticmethod
    def _input_key(inputs: Dict[str, int]) -> Tuple[Tuple[str, int], ...]:
        return tuple(sorted(inputs.items()))

    def reconstitute(
        self,
        generated: GeneratedTest,
        record: ExecutionRecord,
        i: int,
        live: bool,
    ) -> Optional[ExecutionRecord]:
        """Execute a generated test and fold it into the search state.

        ``live=False`` (the deferred retry phase) still records paths and
        errors but does not push the child back onto the scheduler.
        """
        with self.obs.tracer.span("reconstitute") as span:
            child = self._reconstitute(generated, record, i, live)
        self._observe_stage("reconstitute", span.elapsed)
        return child

    def _reconstitute(
        self,
        generated: GeneratedTest,
        record: ExecutionRecord,
        i: int,
        live: bool,
    ) -> Optional[ExecutionRecord]:
        result = self.result
        state = self.state
        obs = self.obs
        conditions = record.result.path_conditions
        obs.emit(
            "test_generated",
            inputs=dict(generated.inputs),
            parent=record.index,
            flip=i,
            intermediate_runs=generated.intermediate_runs,
            note=generated.note,
        )
        key = self._input_key(generated.inputs)
        if key in state.seen_inputs:
            return None
        child = self.execute(
            generated.inputs, parent=record.index, flipped=i
        )
        if child is None:
            return None  # the child crashed; contained and bucketed
        child.intermediate_runs = generated.intermediate_runs
        child.note = generated.note
        child.diverged = self._diverged(record.result, i, child.result)
        obs.emit(
            "branch_flipped",
            parent=record.index,
            child=child.index,
            flip=i,
            branch_id=conditions[i].branch_id,
            line=conditions[i].line,
            diverged=child.diverged,
        )
        if child.diverged:
            result.divergences += 1
            obs.emit(
                "divergence_detected",
                run=child.index,
                parent=record.index,
                flip=i,
                inputs=dict(child.result.inputs),
            )
        if child.result.path_key not in state.seen_paths:
            state.seen_paths.add(child.result.path_key)
            if live:
                state.scheduler.push(
                    child, i + 1, self.derive_flips(child, i + 1)
                )
        return child

    # -- stage 1: execute ------------------------------------------------------

    def execute(
        self,
        inputs: Dict[str, int],
        parent: Optional[int],
        flipped: Optional[int],
    ) -> Optional[ExecutionRecord]:
        """Run one test; returns None when the run crashed (contained)."""
        result = self.result
        obs = self.obs
        current_fault_plan().fire("kill")
        check_interrupt()
        if consume_hang_request():
            self._hang()
        self._check_deadline()
        try:
            with obs.tracer.span("execute") as exec_span:
                run = self.engine.run(self.entry, inputs)
        except (SearchInterrupted, RunBudgetExhausted):
            raise
        except ReproError as exc:
            result.time_executing += exec_span.elapsed
            self._observe_stage("execute", exec_span.elapsed)
            self._contain_crash(exc, inputs, parent, flipped)
            return None
        result.time_executing += exec_span.elapsed
        self._observe_stage("execute", exec_span.elapsed)
        self.state.seen_inputs.add(self._input_key(inputs))
        new_samples = self.store.merge_from_run(run)
        record = ExecutionRecord(
            index=len(result.executions),
            result=run,
            parent=parent,
            flipped_index=flipped,
        )
        result.executions.append(record)
        result.runs += 1
        if result.coverage is not None:
            record.new_coverage = result.coverage.record(run.covered)
        if obs.journal.enabled:
            # the live-view heartbeat: cumulative coverage and cache
            # counters, one event per run (see repro stats --follow)
            obs.emit(
                "run_executed",
                run=record.index,
                parent=parent,
                flip=flipped,
                new_coverage=record.new_coverage,
                coverage=round(result.coverage.ratio(), 4)
                if result.coverage
                else None,
                cache=self._cache_counters(),
            )
        if new_samples and obs.journal.enabled:
            # the store appends in observation order: the last N are new
            for sample in self.store.samples()[-new_samples:]:
                obs.emit(
                    "sample_recorded",
                    run=record.index,
                    fn=sample.fn.name,
                    args=list(sample.args),
                    value=sample.value,
                )
        if run.error:
            result.errors.append(
                ErrorReport(
                    inputs=dict(inputs),
                    message=run.error_message,
                    line=run.error_line,
                    run_index=record.index,
                )
            )
            obs.emit(
                "error_found",
                run=record.index,
                inputs=dict(inputs),
                message=run.error_message,
                line=run.error_line,
            )
        self._maybe_checkpoint()
        return record

    # -- deadline and injected hangs ---------------------------------------

    def _check_deadline(self) -> None:
        """Raise :class:`DeadlineExceeded` once the wall-clock budget is gone."""
        if self._deadline is None or time.monotonic() < self._deadline:
            return
        self._deadline_expired()

    def _deadline_expired(self) -> None:
        obs = self.obs
        if obs.metrics.enabled:
            obs.metrics.counter("search.deadline_exceeded").inc()
        obs.emit(
            "deadline_exceeded",
            runs=self.result.runs,
            deadline=self.config.job_deadline,
        )
        raise DeadlineExceeded(
            f"job deadline of {self.config.job_deadline:g}s exceeded "
            f"after {self.result.runs} runs"
        )

    def _hang(self) -> None:
        """The injected ``hang`` fault: wedge at this run boundary.

        Simulates a worker stuck in an unbounded solver query: no
        progress, no heartbeats.  With a deadline armed the session
        reclaims itself (:class:`DeadlineExceeded` salvages the partial
        result); without one it wedges until an external stop request —
        in a campaign, the supervisor's watchdog — reclaims the worker.
        """
        obs = self.obs
        if obs.metrics.enabled:
            obs.metrics.counter("search.hangs_injected").inc()
        obs.emit("hang_injected", runs=self.result.runs)
        while True:
            self._check_deadline()
            check_interrupt()
            time.sleep(0.01)

    def _contain_crash(
        self,
        exc: ReproError,
        inputs: Dict[str, int],
        parent: Optional[int],
        flipped: Optional[int],
    ) -> None:
        """Record a crashing program under test as a bucketed crash outcome."""
        result = self.result
        obs = self.obs
        self.state.seen_inputs.add(self._input_key(inputs))
        run_index = result.runs
        result.runs += 1
        name = type(exc).__name__
        match = re.search(r"line (\d+)", str(exc))
        line = int(match.group(1)) if match else 0
        bucket = f"{name}@{line}"
        existing = next((c for c in result.crashes if c.bucket == bucket), None)
        if existing is not None:
            existing.count += 1
        else:
            result.crashes.append(
                CrashReport(
                    bucket=bucket,
                    error_type=name,
                    message=str(exc),
                    line=line,
                    inputs=dict(inputs),
                    run_index=run_index,
                )
            )
        if obs.metrics.enabled:
            obs.metrics.counter("search.crashes").inc()
        obs.emit(
            "crash_contained",
            run=run_index,
            bucket=bucket,
            error=name,
            line=line,
            message=str(exc),
            inputs=dict(inputs),
            parent=parent,
            flip=flipped,
        )
        self._maybe_checkpoint()

    # -- probes ------------------------------------------------------------------

    def probe(self, inputs: Dict[str, int]) -> None:
        """Execute an intermediate (multi-step) run, counting it.

        A probe vector that was already executed (as the seed, a generated
        test, or an earlier probe) is skipped outright: its samples are
        already merged into the store, so re-running it would burn run
        budget to learn nothing.  The multi-step driver then observes zero
        new samples and gives up, which is the correct verdict.

        Raises :class:`~repro.errors.RunBudgetExhausted` when the search's
        run budget is gone — the search catches it and ends the current
        strategy gracefully, preserving the partial result.
        """
        self._probe_log.append(dict(inputs))
        if self._input_key(inputs) in self.state.seen_inputs:
            return
        if self.result.runs >= self.config.max_runs:
            raise RunBudgetExhausted("run budget exhausted during multi-step probe")
        record = self.execute(inputs, parent=None, flipped=None)
        if record is not None:
            record.note = "multi-step probe"

    # -- divergence check --------------------------------------------------------

    def _diverged(
        self, parent: ConcolicResult, flipped_index: int, child: ConcolicResult
    ) -> bool:
        """Did the child fail to follow the predicted path?

        Expected: the parent's branch trace up to the flipped condition's
        occurrence, with the outcome at that occurrence negated
        (paper §3.2's divergence check).
        """
        pos = parent.path_conditions[flipped_index].path_pos
        if pos < 0:
            return False  # flipped a non-branch condition; nothing to compare
        expected = list(parent.path[:pos])
        branch_id, taken = parent.path[pos]
        expected.append((branch_id, not taken))
        return child.path[: len(expected)] != expected
