"""Systematic dynamic test generation: the directed search (paper §2).

:class:`DirectedSearch` implements the DART/SAGE-style loop: run the
program concolically, pick a recorded condition, ask a backend for inputs
that flip it, run again, repeat — tracking coverage, found errors, and
*divergences* (runs that failed to follow the path their constraint
predicted, the tell-tale of unsound path constraints, §3.2).

The loop itself lives in the staged kernel
(:class:`~repro.search.kernel.SearchKernel`: execute → derive flips →
schedule → solve → reconstitute, around an explicit
:class:`~repro.search.kernel.SearchState`); which pending run expands
next is a pluggable policy (:mod:`repro.search.scheduler` — ``dfs``,
``generational``, ``coverage``).  This module keeps the public surface:
the config, the report dataclasses, and the :class:`DirectedSearch`
session harness that owns observability installation, checkpoint
lifecycle, and resume.

Production hardening (docs/ROBUSTNESS.md) rides on top of the classic
loop without changing the generated suite on the happy path:

- **Crash containment** — a program under test that crashes the
  interpreter (step-budget blowup, array misuse, division by zero) becomes
  a recorded :class:`CrashReport`, deduplicated by ``error class @ line``
  bucket, instead of aborting the search.
- **Degradation ladder** — a solver query that exhausts its
  :class:`~repro.solver.budget.SolverBudget` is retried down a ladder of
  cheaper approximations (sound concretization → unsound concretization →
  defer to an end-of-search retry with an escalated budget → abandon).
- **Checkpoint/resume** — generation decisions are journaled to a
  checkpoint directory; resuming replays the log (re-executing the cheap,
  deterministic program runs and skipping all solving) and produces the
  same suite an uninterrupted search would have, under the same scheduler
  (the checkpoint records which; resume adopts it).
"""

from __future__ import annotations

import dataclasses
import os
import weakref
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from ..errors import ReproError, SearchInterrupted
from ..faults import current_fault_plan
from ..lang.ast import Program
from ..lang.natives import NativeRegistry
from ..obs import Observability
from ..obs.journal import set_current_journal
from ..obs.metrics import set_default_registry
from ..solver.terms import TermManager
from ..symbolic.concolic import ConcolicEngine, ConcolicResult, ConcretizationMode
from ..core.samples import SampleStore
from .backends import QuantifierFreeBackend, TestGenBackend
from .checkpoint import CheckpointWriter, ReplayCursor
from .coverage import BranchCoverage
from .scheduler import SCHEDULERS, make_scheduler, scheduler_names

__all__ = [
    "SearchConfig",
    "CrashReport",
    "ErrorReport",
    "ExecutionRecord",
    "SearchResult",
    "DirectedSearch",
]


@dataclass
class SearchConfig:
    """Tunables of the directed search."""

    #: maximum program executions (including probes and divergent runs)
    max_runs: int = 200
    #: stop as soon as the first error is found
    stop_on_first_error: bool = False
    #: per-strategy budget of intermediate multi-step runs
    max_multistep_probes: int = 4
    #: frontier scheduler (see :mod:`repro.search.scheduler`): "dfs"
    #: (classic generational order, the reproducibility baseline),
    #: "generational" (SAGE-style: expand the run that covered the most
    #: new branch outcomes first), or "coverage" (prefer flips whose
    #: branch targets are still uncovered)
    scheduler: str = "dfs"
    #: directory to persist checkpoints into (None disables checkpointing)
    checkpoint_dir: Optional[str] = None
    #: flush the advisory checkpoint snapshots every N runs (the decision
    #: log itself is appended and flushed per decision)
    checkpoint_every: int = 20
    #: checkpoint directory to resume from (replays its decision log)
    resume_from: Optional[str] = None
    #: wall-clock budget (seconds) for one search session; 0 disables.
    #: Enforced cooperatively at the kernel's run boundaries: on expiry
    #: the session raises :class:`~repro.errors.DeadlineExceeded` (a
    #: :class:`~repro.errors.SearchInterrupted`), so the partial suite is
    #: salvaged and — under a campaign supervisor — the job is retried
    job_deadline: float = 0.0
    #: extra seed input vectors executed right after the primary seed,
    #: before any flipping (cross-campaign corpus seeding: the engine
    #: fills this from the shared store's ``corpus/`` namespace when
    #: ``--seed-from-store`` is on).  Order matters and is preserved;
    #: duplicates of already-executed vectors are skipped.  Empty (the
    #: default) reproduces the classic single-seed search exactly.
    seed_corpus: Tuple[Dict[str, int], ...] = ()

    @classmethod
    def from_options(cls, **options: object) -> "SearchConfig":
        """Build a validated config from keyword options.

        This is the one supported constructor for callers outside the
        package (the :mod:`repro.api` facade, the CLI, and the benchmark
        drivers all go through it): unknown keys raise :class:`TypeError`
        instead of being silently dropped, and values are range-checked.
        """
        known = {f.name for f in dataclasses.fields(cls)}
        for key in options:
            if key not in known:
                raise TypeError(
                    f"unknown SearchConfig option {key!r} "
                    f"(known: {', '.join(sorted(known))})"
                )
        config = cls(**options)  # type: ignore[arg-type]
        config.validate()
        return config

    def validate(self) -> "SearchConfig":
        """Range-check the tunables; returns self for chaining."""
        if self.max_runs < 1:
            raise ReproError(f"max_runs must be >= 1 (got {self.max_runs})")
        if self.scheduler not in SCHEDULERS:
            raise ReproError(
                f"unknown scheduler {self.scheduler!r} "
                f"(allowed: {', '.join(scheduler_names())})"
            )
        if self.checkpoint_every < 1:
            raise ReproError(
                f"checkpoint_every must be >= 1 (got {self.checkpoint_every})"
            )
        if self.max_multistep_probes < 0:
            raise ReproError(
                f"max_multistep_probes must be >= 0 (got {self.max_multistep_probes})"
            )
        if self.job_deadline < 0:
            raise ReproError(
                f"job_deadline must be >= 0 (got {self.job_deadline})"
            )
        try:
            self.seed_corpus = tuple(
                {str(k): int(v) for k, v in dict(vector).items()}
                for vector in self.seed_corpus
            )
        except (TypeError, ValueError):
            raise ReproError(
                "seed_corpus must be a sequence of {param: int} vectors "
                f"(got {self.seed_corpus!r})"
            )
        return self


@dataclass
class ErrorReport:
    """One discovered error (``error()`` statement or failed assert)."""

    inputs: Dict[str, int]
    message: str
    line: int
    run_index: int

    def __str__(self) -> str:
        return (
            f"error at line {self.line}: {self.message!r} with inputs "
            f"{self.inputs} (run #{self.run_index})"
        )


@dataclass
class CrashReport:
    """A contained crash of the program under test (not a found error).

    ``error()`` statements and failed asserts are *findings* the search
    exists to produce (:class:`ErrorReport`); a crash is the interpreter
    itself giving up on a generated input — step-budget blowup, array
    misuse.  (Division by zero is a *modeled* runtime error — the engine
    turns it into a finding, not a crash.)  Crashes are triaged by
    ``bucket``
    (exception class @ MiniC line) so repeated instances of one defect
    collapse into a single record with a count.
    """

    bucket: str
    error_type: str
    message: str
    line: int
    #: the first input vector that hit this bucket
    inputs: Dict[str, int]
    #: run number of the first instance
    run_index: int
    count: int = 1

    def __str__(self) -> str:
        return (
            f"crash [{self.bucket}] x{self.count}: {self.message!r} "
            f"first with inputs {self.inputs} (run #{self.run_index})"
        )


@dataclass
class ExecutionRecord:
    """Bookkeeping for one executed test."""

    index: int
    result: ConcolicResult
    parent: Optional[int] = None
    flipped_index: Optional[int] = None
    diverged: bool = False
    intermediate_runs: int = 0
    #: branch outcomes this run covered for the first time
    new_coverage: int = 0
    note: str = ""


@dataclass
class SearchResult:
    """Everything a search session produced."""

    executions: List[ExecutionRecord] = field(default_factory=list)
    errors: List[ErrorReport] = field(default_factory=list)
    #: contained crashes of the program under test, deduplicated by bucket
    crashes: List[CrashReport] = field(default_factory=list)
    coverage: Optional[BranchCoverage] = None
    divergences: int = 0
    solver_calls: int = 0
    runs: int = 0
    distinct_paths: int = 0
    #: degradation-ladder downgrades per rung ("sound"/"unsound")
    downgrades: Dict[str, int] = field(default_factory=dict)
    #: flips pushed to the end-of-search escalated retry phase
    deferred_flips: int = 0
    #: deferred flips that failed even the escalated retry
    abandoned_flips: int = 0
    #: decisions replayed from a checkpoint instead of re-solved
    replayed_decisions: int = 0
    #: the session ended on a :class:`~repro.errors.SearchInterrupted`
    interrupted: bool = False
    #: wall-clock seconds spent in program execution vs test generation
    time_total: float = 0.0
    time_executing: float = 0.0
    time_generating: float = 0.0

    @property
    def found_error(self) -> bool:
        return bool(self.errors)

    def summary(self) -> str:
        cov = f"{self.coverage.ratio():.0%}" if self.coverage else "n/a"
        extra = ""
        if self.crashes:
            extra += f" crashes={len(self.crashes)}"
        if self.downgrades:
            extra += f" downgrades={sum(self.downgrades.values())}"
        if self.interrupted:
            extra += " interrupted"
        return (
            f"runs={self.runs} paths={self.distinct_paths} "
            f"errors={len(self.errors)} divergences={self.divergences} "
            f"coverage={cov}" + extra
        )

    def tree_report(self, max_rows: int = 50) -> str:
        """Human-readable genealogy of the executed tests.

        One row per execution: index, parent run and flipped condition,
        inputs, and what the run achieved (new coverage, error, probe,
        divergence).
        """
        lines = ["idx  parent  flip  inputs"]
        for record in self.executions[:max_rows]:
            parent = "-" if record.parent is None else str(record.parent)
            flip = "-" if record.flipped_index is None else str(record.flipped_index)
            badges = []
            if record.result.error:
                badges.append(f"ERROR({record.result.error_message})")
            if record.diverged:
                badges.append("DIVERGED")
            if record.new_coverage:
                badges.append(f"+{record.new_coverage}cov")
            if record.note:
                badges.append(record.note)
            badge = ("  " + " ".join(badges)) if badges else ""
            lines.append(
                f"{record.index:<4} {parent:>6}  {flip:>4}  "
                f"{record.result.inputs}{badge}"
            )
        if len(self.executions) > max_rows:
            lines.append(f"... ({len(self.executions) - max_rows} more)")
        for crash in self.crashes:
            lines.append(str(crash))
        return "\n".join(lines)


def _weak_probe_runner(search: "DirectedSearch"):
    """``search._probe_runner``, bound weakly.

    A bound method stored on the backend would make search -> backend ->
    search a reference cycle, keeping every finished search (and its
    term manager) alive until a full garbage-collection pass.
    """
    probe = weakref.WeakMethod(search._probe_runner)

    def run(inputs: Dict[str, int]) -> None:
        runner = probe()
        if runner is None:
            raise ReproError(
                "probe runner called after its DirectedSearch was released"
            )
        runner(inputs)

    return run


class DirectedSearch:
    """DART-style directed search over a MiniC program.

    Usage::

        tm = TermManager()
        engine = ConcolicEngine(prog, natives, ConcretizationMode.HIGHER_ORDER, tm)
        store = SampleStore()
        backend = HigherOrderBackend(store)
        search = DirectedSearch(engine, "foo", backend, store)
        result = search.run({"x": 33, "y": 42})

    The convenience constructor :meth:`for_mode` wires the standard
    backend for each concretization mode.

    This class is the session *harness*: it installs the observability
    slots, owns the checkpoint writer and replay cursor, and resolves the
    effective scheduler.  The expansion loop itself is the staged
    :class:`~repro.search.kernel.SearchKernel` built fresh per session.
    """

    def __init__(
        self,
        engine: ConcolicEngine,
        entry: str,
        backend: TestGenBackend,
        store: Optional[SampleStore] = None,
        config: Optional[SearchConfig] = None,
        obs: Optional[Observability] = None,
    ) -> None:
        self.engine = engine
        self.entry = entry
        self.backend = backend
        self.store = store if store is not None else SampleStore()
        self.config = config if config is not None else SearchConfig()
        #: tracer/metrics/journal bundle; the default is effectively free
        #: (real tracer for the time_* fields, no-op metrics and journal)
        self.obs = obs if obs is not None else Observability()
        self._kernel = None
        # late-bind the probe runner for multi-step backends
        if getattr(backend, "probe_runner", "absent") is None:
            backend.probe_runner = _weak_probe_runner(self)  # type: ignore[attr-defined]

    # -- construction helpers -----------------------------------------------------

    @classmethod
    def for_mode(
        cls,
        program: Program,
        entry: str,
        natives: NativeRegistry,
        mode: ConcretizationMode,
        config: Optional[SearchConfig] = None,
        manager: Optional[TermManager] = None,
        store: Optional[SampleStore] = None,
        use_antecedent: bool = True,
        obs: Optional[Observability] = None,
    ) -> "DirectedSearch":
        """Build a search with the standard backend for ``mode``."""
        from ..core.hotg import HigherOrderBackend

        tm = manager if manager is not None else TermManager()
        engine = ConcolicEngine(program, natives, mode, tm)
        store = store if store is not None else SampleStore()
        if mode is ConcretizationMode.HIGHER_ORDER:
            backend: TestGenBackend = HigherOrderBackend(
                store,
                probe_runner=None,  # wired by __init__
                use_antecedent=use_antecedent,
                max_steps=(config or SearchConfig()).max_multistep_probes,
            )
        else:
            backend = QuantifierFreeBackend()
        return cls(engine, entry, backend, store, config, obs)

    # -- the session harness ------------------------------------------------------

    def run(self, seed_inputs: Dict[str, int]) -> SearchResult:
        """Run the directed search from a seed input vector.

        Raises :class:`~repro.errors.SearchInterrupted` when the session is
        killed mid-search (injected or external); the partial result is
        attached to the exception as ``partial_result`` and — when
        checkpointing is on — the checkpoint is flushed first so
        ``SearchConfig.resume_from`` can continue the session.
        """
        from .kernel import SearchKernel  # deferred: kernel imports this module

        obs = self.obs
        result = SearchResult(coverage=BranchCoverage(self.engine.program))
        self._result = result
        replay: Optional[ReplayCursor] = None
        ckpt: Optional[CheckpointWriter] = None
        if self.config.resume_from:
            replay = ReplayCursor.load(self.config.resume_from)
        # the checkpoint records which scheduler built its decision log;
        # replaying under any other scheduler would rebuild a different
        # frontier, so resume adopts the recorded one
        scheduler_name = self.config.scheduler
        if replay is not None:
            recorded = str(replay.meta.get("scheduler") or "")
            if recorded and recorded in SCHEDULERS and recorded != scheduler_name:
                if obs.metrics.enabled:
                    obs.metrics.counter("search.resume.scheduler_override").inc()
                obs.emit(
                    "resume_scheduler_override",
                    requested=scheduler_name,
                    recorded=recorded,
                )
                scheduler_name = recorded
        if self.config.checkpoint_dir:
            resume_here = bool(
                self.config.resume_from
                and os.path.abspath(self.config.resume_from)
                == os.path.abspath(self.config.checkpoint_dir)
            )
            ckpt = CheckpointWriter(
                self.config.checkpoint_dir,
                meta={
                    "entry": self.entry,
                    "mode": self.engine.mode.value,
                    "backend": getattr(
                        self.backend, "name", type(self.backend).__name__
                    ),
                    "seed": dict(seed_inputs),
                    "fault_plan": current_fault_plan().spec(),
                    "max_runs": self.config.max_runs,
                    "scheduler": scheduler_name,
                },
                resume=resume_here,
            )
        kernel = SearchKernel(
            engine=self.engine,
            entry=self.entry,
            backend=self.backend,
            store=self.store,
            config=self.config,
            obs=obs,
            result=result,
            scheduler=make_scheduler(scheduler_name, coverage=result.coverage),
            ckpt=ckpt,
            replay=replay,
        )
        self._kernel = kernel
        obs.emit(
            "search_started",
            entry=self.entry,
            seed=dict(seed_inputs),
            mode=self.engine.mode.value,
            backend=getattr(self.backend, "name", type(self.backend).__name__),
            max_runs=self.config.max_runs,
            scheduler=scheduler_name,
            resumed=bool(self.config.resume_from),
        )
        # deep layers (SMT checks, validity verdicts) emit to the current
        # journal and record into the default registry for the duration of
        # the session
        previous_journal = set_current_journal(obs.journal)
        previous_registry = None
        if obs.metrics.enabled:
            previous_registry = set_default_registry(obs.metrics)
        interrupted: Optional[SearchInterrupted] = None
        try:
            with obs.tracer.span("search") as root:
                try:
                    kernel.search(seed_inputs)
                except SearchInterrupted as exc:
                    interrupted = exc
                    result.interrupted = True
        finally:
            # flush the final checkpoint while the session's journal and
            # registry are still installed, then restore the ambient slots
            if ckpt is not None:
                kernel.flush_checkpoint()
                ckpt.close()
            set_current_journal(previous_journal)
            if obs.metrics.enabled:
                set_default_registry(previous_registry)
        result.time_total = root.elapsed
        metrics = obs.metrics
        if metrics.enabled:
            metrics.counter("search.sessions").inc()
            metrics.counter("search.runs").inc(result.runs)
            metrics.counter("search.solver_calls").inc(result.solver_calls)
            metrics.counter("search.divergences").inc(result.divergences)
            metrics.counter("search.errors").inc(len(result.errors))
            metrics.histogram("search.session_seconds").observe(result.time_total)
        obs.emit(
            "search_finished",
            runs=result.runs,
            paths=result.distinct_paths,
            errors=len(result.errors),
            crashes=len(result.crashes),
            divergences=result.divergences,
            solver_calls=result.solver_calls,
            downgrades=dict(result.downgrades),
            deferred=result.deferred_flips,
            abandoned=result.abandoned_flips,
            interrupted=result.interrupted,
            scheduler=scheduler_name,
            coverage=round(result.coverage.ratio(), 4)
            if result.coverage
            else None,
            seconds=round(result.time_total, 6),
        )
        if interrupted is not None:
            interrupted.checkpoint_dir = self.config.checkpoint_dir
            interrupted.partial_result = result  # type: ignore[attr-defined]
            raise interrupted
        return result

    def _probe_runner(self, inputs: Dict[str, int]) -> None:
        """Multi-step probe hook, late-bound into the backend; delegates to
        the live session's kernel (see :meth:`SearchKernel.probe`)."""
        if self._kernel is None:
            raise ReproError("probe runner called outside a search session")
        self._kernel.probe(inputs)
