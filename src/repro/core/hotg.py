"""Higher-order test generation: the paper's core contribution (Section 4).

:class:`HigherOrderBackend` derives new tests from *validity proofs* of
``POST(ALT(pc)) = ∃X : A ⇒ ALT(pc)`` with universally quantified UF
symbols, where ``A`` is the antecedent of recorded IOF samples.  A validity
proof yields a :class:`~repro.solver.validity.Strategy`; interpreting the
strategy may require *learning new samples* by running intermediate tests —
the paper's multi-step test generation (Example 7), implemented by
:class:`MultiStepDriver`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence

from ..solver.terms import TermManager
from ..solver.validity import (
    AppValue,
    Sample,
    Strategy,
    ValidityChecker,
    ValidityResult,
    ValidityStatus,
)
from ..search.request import GeneratedTest, GenerationRequest, import_request
from .post import alternate_constraint
from .samples import SampleStore

__all__ = ["HigherOrderBackend", "MultiStepDriver", "ProbeOutcome", "plan_validity"]


def plan_validity(
    tm: TermManager,
    request: GenerationRequest,
    samples: Sequence[Sample],
    use_antecedent: bool = True,
) -> ValidityResult:
    """The pure planning half of higher-order generation.

    Deterministic in (the structure of) ``request`` and ``samples``: no
    probe runs, no store access, no shared mutable state — which is what
    lets :meth:`HigherOrderBackend.generate` solve it against an imported
    copy of the request.
    """
    alt = alternate_constraint(tm, request.conditions, request.index)
    checker = ValidityChecker(tm, use_antecedent=use_antecedent)
    return checker.check(
        alt,
        list(request.input_vars.values()),
        samples,
        defaults=request.defaults,
    )


@dataclass
class ProbeOutcome:
    """Result of one intermediate (probe) run in multi-step generation."""

    inputs: Dict[str, int]
    new_samples: int
    resolved: bool


class MultiStepDriver:
    """Resolves pending sample requests by running intermediate tests.

    The paper's Example 7: the strategy "set y := 10, set x := h(10)" is
    derived from a validity proof, but h(10) has never been sampled.  An
    intermediate test (with y = 10 and x arbitrary) is run so the program
    itself evaluates h at 10; the recorded sample then completes the
    strategy.

    ``probe_runner`` is a callback ``inputs -> None`` that executes the
    program concolically and merges the observed samples into ``store``
    (the directed search supplies it).
    """

    def __init__(
        self,
        store: SampleStore,
        probe_runner: Callable[[Dict[str, int]], None],
        max_steps: int = 4,
    ) -> None:
        self.store = store
        self.probe_runner = probe_runner
        self.max_steps = max_steps
        self.probes: List[ProbeOutcome] = []

    def resolve(
        self, strategy: Strategy, defaults: Dict[str, int]
    ) -> Optional[Dict[str, int]]:
        """Concretize ``strategy``, probing for missing samples as needed.

        Returns the final input vector, or None when the pending samples
        could not be learned within ``max_steps`` probe runs.
        """
        for _ in range(self.max_steps + 1):
            pending = strategy.pending(self.store.samples())
            if not pending:
                return strategy.concretize(self.store.samples())
            if len(self.probes) >= self.max_steps:
                return None
            probe_inputs = self._probe_inputs(strategy, defaults)
            before = len(self.store)
            self.probe_runner(probe_inputs)
            outcome = ProbeOutcome(
                inputs=probe_inputs,
                new_samples=len(self.store) - before,
                resolved=not strategy.pending(self.store.samples()),
            )
            self.probes.append(outcome)
            if outcome.new_samples == 0:
                # the probe taught us nothing; a further identical probe
                # would not either
                return None
        return None

    def _probe_inputs(
        self, strategy: Strategy, defaults: Dict[str, int]
    ) -> Dict[str, int]:
        """Inputs for an intermediate run: keep the strategy's concrete
        assignments (they steer execution towards the needed call sites),
        fill unresolved ones with the previous run's values."""
        inputs: Dict[str, int] = {}
        table = self.store.as_table()
        for name, value in strategy.assignments.items():
            if isinstance(value, AppValue):
                known = value.resolve(table)
                inputs[name] = known if known is not None else defaults.get(name, 0)
            else:
                inputs[name] = value
        return inputs


class HigherOrderBackend:
    """Test generation from validity proofs (paper Figure 3 + Section 4.2).

    Parameters
    ----------
    store:
        The session's IOF :class:`SampleStore`.
    probe_runner:
        Callback executing the program on given inputs and merging the
        resulting samples into ``store`` — enables multi-step generation.
    use_antecedent:
        Include recorded samples as the antecedent ``A`` (switchable for
        the Example 4 / ablation experiments).
    max_steps:
        Budget of intermediate runs per generated test.
    """

    name = "higher-order"

    def __init__(
        self,
        store: SampleStore,
        probe_runner: Optional[Callable[[Dict[str, int]], None]] = None,
        use_antecedent: bool = True,
        max_steps: int = 4,
    ) -> None:
        self.store = store
        self.probe_runner = probe_runner
        self.use_antecedent = use_antecedent
        self.max_steps = max_steps
        #: per-request validity verdicts, for experiment reporting
        self.verdicts: List[ValidityResult] = []
        #: total intermediate probe runs spent on multi-step generation
        self.total_probe_runs = 0

    def generate(self, request: GenerationRequest) -> Optional[GeneratedTest]:
        """Plan validity on a private copy of ``request``, then finish here.

        ``plan_validity`` is looked up as a module global at call time, so
        instrumentation that rebinds it sees every call.
        """
        tm, local = import_request(request)
        verdict = plan_validity(
            tm, local, self.store.samples(), use_antecedent=self.use_antecedent
        )
        return self.apply_plan(request, verdict)

    def apply_plan(
        self, request: GenerationRequest, verdict: ValidityResult
    ) -> Optional[GeneratedTest]:
        """The stateful finishing half: record the verdict, concretize the
        strategy against the *live* store, probing (multi-step) if needed.

        Strategies reference :class:`FunctionSymbol` objects, which are
        shared across term managers, so a verdict planned on an imported
        copy of the request concretizes directly against this store.
        """
        self.verdicts.append(verdict)
        if verdict.status is not ValidityStatus.VALID or verdict.strategy is None:
            return None

        strategy = verdict.strategy
        pending = strategy.pending(self.store.samples())
        if not pending:
            return GeneratedTest(
                inputs=strategy.concretize(self.store.samples()),
                note=f"validity proof ({verdict.note})",
            )
        if self.probe_runner is None:
            return None  # multi-step required but no probe runner wired
        driver = MultiStepDriver(self.store, self.probe_runner, self.max_steps)
        inputs = driver.resolve(strategy, request.defaults)
        self.total_probe_runs += len(driver.probes)
        if inputs is None:
            return None
        return GeneratedTest(
            inputs=inputs,
            intermediate_runs=len(driver.probes),
            note=f"multi-step validity proof ({len(driver.probes)} probes)",
        )
