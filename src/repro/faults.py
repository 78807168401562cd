"""Deterministic fault injection: make the engine's failure paths testable.

Production concolic engines survive solver exhaustion, crashing programs
under test, worker failures, and disk errors.  Surviving code paths that
never run in CI rot, so this module provides a *seeded, deterministic*
:class:`FaultPlan` that forces those failures at chosen points:

========== ===============================================================
site       what fires there
========== ===============================================================
solver     :class:`~repro.errors.ResourceLimitError` at the start of an
           SMT check (stateless :class:`~repro.solver.smt.Solver` and
           :class:`~repro.solver.session.SolverSession` alike) —
           exercises the degradation ladder
interp     :class:`~repro.errors.StepBudgetExceeded` at the start of a
           concolic run — exercises crash containment
scheduler  ``RuntimeError`` when the frontier scheduler picks the next
           pending run — exercises the kernel's FIFO containment
           fallback (see :meth:`repro.search.kernel.SearchKernel.schedule`)
worker-proc ``RuntimeError`` standing in for a killed campaign worker
           *process* — exercises the batch engine's in-process recompute
           (see :mod:`repro.engine.runner`)
journal    ``OSError`` on a journal write — exercises sink disabling
checkpoint ``OSError`` on a checkpoint write — exercises checkpoint
           disabling
kill       :class:`~repro.errors.SearchInterrupted` at a run boundary —
           exercises checkpoint/resume
hang       a simulated *wedged* worker: the search kernel stops making
           progress at a run boundary (sleeping, heartbeats silent) until
           the job deadline or the supervisor's watchdog reclaims it —
           exercises deadline enforcement and stall detection.  Decided
           in the campaign parent at dispatch time (one consultation per
           job, in job order, like ``worker-proc``) and only ever applied
           to a job's *first* attempt, so retries are answer-preserving
pool       the worker pool breaks (``BrokenProcessPool`` stand-in) while
           the job runs — exercises the supervisor's rebuild-once path.
           Dispatch-time like ``hang``
service    :class:`~repro.errors.SearchInterrupted` inside the campaign
           service's scheduler, right after a job lease is granted but
           before it is dispatched — stands in for killing ``repro
           serve`` mid-lease; exercises restart recovery (the leased job
           has no result yet, so a restarted server re-leases it and the
           recovered campaign digest matches an uninterrupted run)
========== ===============================================================

A plan is a set of per-site rules, parsed from a compact spec string::

    solver:rate=0.2,seed=7;interp:at=3;journal:at=2;kill:at=25

Rule forms (per site, exactly one):

- ``at=N[+M...]`` — fire on the N-th (1-based) invocation of the site
  (multiple points joined with ``+``);
- ``every=N`` — fire on every N-th invocation;
- ``rate=P`` (with optional ``seed=S``) — fire on a pseudo-random P
  fraction of invocations.  The decision for invocation *n* is a pure
  function of ``(seed, site, n)``, so a plan replays identically across
  processes and thread schedules that preserve per-site invocation counts.

Deep layers consult the *current fault plan*, a process-wide slot that
defaults to the disabled :data:`NULL_PLAN` (same pattern as the journal
and metrics registry in :mod:`repro.obs`).  Every injected fault is
counted as ``faults.injected.<site>`` in the default metrics registry.
"""

from __future__ import annotations

import random
import threading
from contextlib import contextmanager
from typing import Dict, Iterator, List, Optional, Set, Union

from .errors import (
    FaultPlanError,
    ResourceLimitError,
    SearchInterrupted,
    StepBudgetExceeded,
)

__all__ = [
    "FaultRule",
    "FaultPlan",
    "NullFaultPlan",
    "NULL_PLAN",
    "SITES",
    "current_fault_plan",
    "set_fault_plan",
    "use_fault_plan",
    "request_hang",
    "consume_hang_request",
    "use_hang_request",
]

#: the injection sites wired through the engine
SITES = (
    "solver",
    "interp",
    "worker-proc",
    "scheduler",
    "journal",
    "checkpoint",
    "kill",
    "hang",
    "pool",
    "service",
)


class FaultRule:
    """When one site fires, as a pure function of its invocation index."""

    def __init__(
        self,
        site: str,
        at: Optional[Set[int]] = None,
        every: Optional[int] = None,
        rate: Optional[float] = None,
        seed: int = 0,
    ) -> None:
        given = sum(x is not None for x in (at, every, rate))
        if given != 1:
            raise FaultPlanError(
                f"site {site!r} needs exactly one of at=, every=, rate="
            )
        if every is not None and every < 1:
            raise FaultPlanError(f"site {site!r}: every= must be >= 1")
        if rate is not None and not 0.0 <= rate <= 1.0:
            raise FaultPlanError(f"site {site!r}: rate= must be in [0, 1]")
        self.site = site
        self.at = at
        self.every = every
        self.rate = rate
        self.seed = seed

    def fires(self, n: int) -> bool:
        """Does the rule fire on the ``n``-th (1-based) invocation?"""
        if self.at is not None:
            return n in self.at
        if self.every is not None:
            return n % self.every == 0
        assert self.rate is not None
        # deterministic per (seed, site, n): independent of thread schedule
        return random.Random(f"{self.seed}:{self.site}:{n}").random() < self.rate

    def spec(self) -> str:
        if self.at is not None:
            return f"{self.site}:at=" + "+".join(str(n) for n in sorted(self.at))
        if self.every is not None:
            return f"{self.site}:every={self.every}"
        return f"{self.site}:rate={self.rate},seed={self.seed}"


def _fault_error(site: str) -> Exception:
    """The exception the real failure mode would raise at ``site``."""
    marker = f"injected fault at site {site!r} (fault plan)"
    if site == "solver":
        return ResourceLimitError(marker)
    if site == "interp":
        return StepBudgetExceeded(marker)
    if site in ("worker-proc", "scheduler", "pool"):
        return RuntimeError(marker)
    if site == "hang":
        # never raised in practice: the hang site wedges instead of
        # raising (see request_hang); this exists for SITES completeness
        return RuntimeError(marker)
    if site in ("journal", "checkpoint"):
        return OSError(marker)
    if site in ("kill", "service"):
        return SearchInterrupted(marker)
    raise FaultPlanError(f"unknown fault site {site!r}")


class FaultPlan:
    """A seeded set of :class:`FaultRule` objects plus per-site counters.

    Counters are lock-protected (a plan may be consulted from more than
    one thread) and snapshot/restorable so an interrupted search can resume
    with its fault sequence intact.
    """

    enabled = True

    def __init__(self, rules: Optional[List[FaultRule]] = None) -> None:
        self._rules: Dict[str, FaultRule] = {}
        for rule in rules or []:
            if rule.site in self._rules:
                raise FaultPlanError(f"duplicate rules for site {rule.site!r}")
            self._rules[rule.site] = rule
        self._counts: Dict[str, int] = {site: 0 for site in SITES}
        self._fired: Dict[str, int] = {}
        self._lock = threading.Lock()

    # -- construction ------------------------------------------------------

    @classmethod
    def parse(cls, spec: str) -> "FaultPlan":
        """Parse ``site:key=value,...;site2:...`` into a plan."""
        rules: List[FaultRule] = []
        for chunk in spec.split(";"):
            chunk = chunk.strip()
            if not chunk:
                continue
            site, sep, body = chunk.partition(":")
            site = site.strip()
            if not sep or not body.strip():
                raise FaultPlanError(
                    f"bad fault rule {chunk!r} (want site:key=value[,key=value])"
                )
            if site not in SITES:
                raise FaultPlanError(
                    f"unknown fault site {site!r} (known: {', '.join(SITES)})"
                )
            at: Optional[Set[int]] = None
            every: Optional[int] = None
            rate: Optional[float] = None
            seed = 0
            for piece in body.split(","):
                key, sep, value = piece.strip().partition("=")
                if not sep:
                    raise FaultPlanError(f"bad fault option {piece!r} in {chunk!r}")
                try:
                    if key == "at":
                        at = {int(v) for v in value.split("+")}
                    elif key == "every":
                        every = int(value)
                    elif key == "rate":
                        rate = float(value)
                    elif key == "seed":
                        seed = int(value)
                    else:
                        raise FaultPlanError(
                            f"unknown fault option {key!r} in {chunk!r}"
                        )
                except ValueError:
                    raise FaultPlanError(f"bad fault value {piece!r} in {chunk!r}")
            rules.append(FaultRule(site, at=at, every=every, rate=rate, seed=seed))
        return cls(rules)

    def spec(self) -> str:
        """Round-trippable spec string of the plan's rules."""
        return ";".join(r.spec() for r in self._rules.values())

    # -- firing ------------------------------------------------------------

    def should_fire(self, site: str) -> bool:
        """Count one invocation of ``site``; decide whether it fails."""
        rule = self._rules.get(site)
        with self._lock:
            self._counts[site] = self._counts.get(site, 0) + 1
            n = self._counts[site]
        if rule is None or not rule.fires(n):
            return False
        with self._lock:
            self._fired[site] = self._fired.get(site, 0) + 1
        from .obs.metrics import default_registry  # deferred: obs imports faults

        registry = default_registry()
        if registry.enabled:
            registry.counter(f"faults.injected.{site}").inc()
        return True

    def fire(self, site: str) -> None:
        """Raise the site's failure-mode exception if the rule says so."""
        if self.should_fire(site):
            raise _fault_error(site)

    # -- introspection / persistence ---------------------------------------

    @property
    def fired(self) -> Dict[str, int]:
        """How many times each site actually failed so far."""
        with self._lock:
            return dict(self._fired)

    def state(self) -> Dict[str, object]:
        """Snapshot of the per-site counters (for checkpointing)."""
        with self._lock:
            return {"counts": dict(self._counts), "fired": dict(self._fired)}

    def restore_state(self, state: Dict[str, object]) -> None:
        """Continue an interrupted plan's counter sequence."""
        counts = state.get("counts", {})
        fired = state.get("fired", {})
        with self._lock:
            for site, n in dict(counts).items():  # type: ignore[union-attr]
                self._counts[str(site)] = int(n)
            self._fired = {str(k): int(v) for k, v in dict(fired).items()}  # type: ignore[union-attr]


class NullFaultPlan:
    """Disabled plan: nothing ever fires (the process-wide default)."""

    enabled = False
    fired: Dict[str, int] = {}

    def should_fire(self, site: str) -> bool:
        return False

    def fire(self, site: str) -> None:
        return None

    def spec(self) -> str:
        return ""

    def state(self) -> Dict[str, object]:
        return {}

    def restore_state(self, state: Dict[str, object]) -> None:
        return None


#: the process-wide disabled fault plan
NULL_PLAN = NullFaultPlan()

_current: Union[FaultPlan, NullFaultPlan] = NULL_PLAN


def current_fault_plan() -> Union[FaultPlan, NullFaultPlan]:
    """The plan injection sites consult (NULL_PLAN unless installed)."""
    return _current


def set_fault_plan(
    plan: Optional[Union[FaultPlan, NullFaultPlan]]
) -> Union[FaultPlan, NullFaultPlan]:
    """Install ``plan`` as current (None restores the null plan)."""
    global _current
    old = _current
    _current = plan if plan is not None else NULL_PLAN
    return old


@contextmanager
def use_fault_plan(
    plan: Union[FaultPlan, NullFaultPlan]
) -> Iterator[Union[FaultPlan, NullFaultPlan]]:
    """Scoped :func:`set_fault_plan`."""
    old = set_fault_plan(plan)
    try:
        yield plan
    finally:
        set_fault_plan(old)


# -- the hang request channel ----------------------------------------------
#
# The ``hang`` site is decided in the campaign *parent* (one consultation
# per job at dispatch time, so per-job fresh fault plans and retries can't
# re-fire it), but the wedging happens deep in the worker's search kernel.
# This process-wide flag is the channel between the two: the worker's
# run_job sets it for a condemned job, and the kernel consumes it at the
# next run boundary — mirroring how the kernel consults the current fault
# plan, without the kernel importing engine code.

_hang_requested = False


def request_hang(value: bool = True) -> None:
    """Arm (or disarm) the hang request for the current process's search."""
    global _hang_requested
    _hang_requested = bool(value)


def consume_hang_request() -> bool:
    """True exactly once after :func:`request_hang`; clears the flag."""
    global _hang_requested
    if _hang_requested:
        _hang_requested = False
        return True
    return False


@contextmanager
def use_hang_request(value: bool) -> Iterator[None]:
    """Scoped :func:`request_hang`; always disarms on exit."""
    request_hang(value)
    try:
        yield
    finally:
        request_hang(False)
