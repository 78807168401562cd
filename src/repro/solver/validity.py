"""Validity checking and test-strategy extraction (the paper's Section 4.2).

Higher-order test generation derives new tests from *validity proofs* of
first-order formulas of the form::

    POST(pc)  =  ∃X : A ⇒ pc

where the uninterpreted function symbols ``F`` are implicitly *universally*
quantified, ``X`` are the program's input variables, and ``A`` is the
antecedent: a conjunction of recorded input-output samples
``f(c₁,…,cₙ) = c`` (the ``IOF`` table of the paper's Figure 3).

Deciding validity of ``∀F ∃X (A ⇒ pc)`` and extracting a usable test from
the proof is done with three cooperating mechanisms, all built on the
quantifier-free :class:`~repro.solver.smt.Solver`:

**Strategy verification (the key reduction).**  A *strategy* assigns every
input variable a ground term over constants and ``F``-applications of
constants (e.g. ``y := 10, x := h(10)``).  Once ``X`` is replaced by such
terms, the remaining formula has only the universal ``F``, and::

    ∀F (A ⇒ pc[σ])   is valid   ⟺   A ∧ ¬pc[σ]   is unsatisfiable

— a quantifier-free EUF+LIA query our solver decides exactly.  Every VALID
answer this module returns is backed by such an UNSAT certificate; we never
trust a heuristic guess.

**Candidate synthesis.**  Candidates come from two stages, tried in order:
  1. *sample grounding*: an SMT encoding that forces every UF application's
     arguments onto recorded sample points, so its value is fixed by ``A``
     (this generalizes the paper's §7 pre-processing trick, including hash
     collisions — the disjunction over all matching preimages);
  2. *triangular extraction*: definitional constraints ``x = f(t)`` give
     non-constant strategies such as ``x := h(10)`` whose concrete value may
     be unknown until an additional program run records the sample — the
     paper's *multi-step test generation* (Example 7).
Grounding yields at most 4 candidates and triangular extraction at most
one per conjunctive branch (8), so a check verifies at most 12.

**Adversary search (invalidity).**  To prove INVALID we exhibit a function
interpretation consistent with ``A`` under which no input works: we try a
family of total functions (sample table + constant default, offset/injective
"fresh oracle" defaults, plus counterexample models collected during
verification) and check ``∃X pc[f_adv]`` — UNSAT for any of them proves
invalidity (paper Examples 3 and 4-without-samples).

When neither a verified strategy nor an adversary is found within budget,
the result is UNKNOWN — reported honestly, never as a guess.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Dict, List, Optional, Sequence, Set, Tuple, Union

from time import perf_counter

from ..errors import ResourceLimitError, SolverError, StrategyError
from ..obs.journal import current_journal
from ..obs.metrics import default_registry
from .evalmodel import evaluate
from .session import SolverSession
from .smt import CheckResult, Model, Solver
from .terms import FunctionSymbol, Kind, Sort, Term, TermManager

__all__ = [
    "Sample",
    "SampleRequest",
    "AppValue",
    "Strategy",
    "ValidityStatus",
    "ValidityResult",
    "ValidityChecker",
]


@dataclass(frozen=True)
class Sample:
    """One recorded input-output pair ``fn(args) = value`` (paper's IOF)."""

    fn: FunctionSymbol
    args: Tuple[int, ...]
    value: int

    def __str__(self) -> str:
        inner = ",".join(map(str, self.args))
        return f"{self.fn.name}({inner})={self.value}"


@dataclass(frozen=True)
class SampleRequest:
    """A function point whose value must be learned by running the program.

    Emitted when a verified strategy assigns ``x := f(c)`` but ``f(c)`` has
    never been observed — the trigger for multi-step test generation.
    """

    fn: FunctionSymbol
    args: Tuple[int, ...]

    def __str__(self) -> str:
        inner = ",".join(map(str, self.args))
        return f"need {self.fn.name}({inner})"


@dataclass(frozen=True)
class AppValue:
    """Strategy value "``fn(args) + offset``".

    Arguments are concrete integers or *nested* :class:`AppValue` terms —
    nesting is what the paper's k-step test generation produces: the
    strategy for a 3-deep hash chain assigns ``z := h(h(5))``, resolved by
    two successive intermediate runs.  The offset admits validity proofs
    like "set x to anything other than h(10)" — witnessed by ``h(10)+1`` —
    covering disequality branches soundly.
    """

    fn: FunctionSymbol
    args: Tuple[object, ...]  # each entry: int or AppValue
    offset: int = 0

    def resolve(self, table: Dict[Tuple[FunctionSymbol, Tuple[int, ...]], int]) -> Optional[int]:
        """Evaluate against a sample table; None when a point is missing."""
        concrete_args: List[int] = []
        for a in self.args:
            if isinstance(a, AppValue):
                inner = a.resolve(table)
                if inner is None:
                    return None
                concrete_args.append(inner)
            else:
                concrete_args.append(int(a))
        value = table.get((self.fn, tuple(concrete_args)))
        return None if value is None else value + self.offset

    def innermost_requests(
        self, table: Dict[Tuple[FunctionSymbol, Tuple[int, ...]], int]
    ) -> List["SampleRequest"]:
        """The deepest unresolved points whose arguments ARE resolvable.

        These are the next samples an intermediate run can learn; outer
        points become requestable only after the inner ones resolve.
        """
        out: List[SampleRequest] = []
        concrete_args: List[int] = []
        blocked = False
        for a in self.args:
            if isinstance(a, AppValue):
                inner = a.resolve(table)
                if inner is None:
                    out.extend(a.innermost_requests(table))
                    blocked = True
                else:
                    concrete_args.append(inner)
            else:
                concrete_args.append(int(a))
        if not blocked:
            key = (self.fn, tuple(concrete_args))
            if key not in table:
                out.append(SampleRequest(self.fn, tuple(concrete_args)))
        return out

    def __str__(self) -> str:
        inner = ",".join(str(a) for a in self.args)
        suffix = ""
        if self.offset > 0:
            suffix = f"+{self.offset}"
        elif self.offset < 0:
            suffix = str(self.offset)
        return f"{self.fn.name}({inner}){suffix}"


StrategyValue = Union[int, AppValue]


@dataclass
class Strategy:
    """A test-generation strategy derived from a validity proof.

    Maps every input variable name to either a concrete integer or an
    :class:`AppValue` to be resolved against the sample store (possibly by
    running an intermediate test first).
    """

    assignments: Dict[str, StrategyValue] = field(default_factory=dict)

    def pending(self, samples: Sequence[Sample]) -> List[SampleRequest]:
        """The next sample points this strategy needs (innermost first).

        For nested applications only the currently-resolvable layer is
        reported; deeper layers become pending as samples accumulate —
        the driver of the paper's k-step generation.
        """
        table = {(s.fn, s.args): s.value for s in samples}
        out: List[SampleRequest] = []
        seen: set = set()
        for value in self.assignments.values():
            if isinstance(value, AppValue):
                for req in value.innermost_requests(table):
                    if req not in seen:
                        seen.add(req)
                        out.append(req)
        return out

    def concretize(self, samples: Sequence[Sample]) -> Dict[str, int]:
        """Resolve the strategy into concrete inputs using recorded samples.

        Raises :class:`StrategyError` if a needed sample is missing; call
        :meth:`pending` first (or drive the multi-step loop) to avoid that.
        """
        table = {(s.fn, s.args): s.value for s in samples}
        out: Dict[str, int] = {}
        for name, value in self.assignments.items():
            if isinstance(value, AppValue):
                resolved = value.resolve(table)
                if resolved is None:
                    raise StrategyError(f"unresolved sample for {value}")
                out[name] = resolved
            else:
                out[name] = value
        return out

    def __str__(self) -> str:
        parts = [f"{k} := {v}" for k, v in sorted(self.assignments.items())]
        return "[" + "; ".join(parts) + "]"


class ValidityStatus(Enum):
    VALID = "valid"
    INVALID = "invalid"
    UNKNOWN = "unknown"


@dataclass
class ValidityResult:
    """Outcome of a :meth:`ValidityChecker.check` call."""

    status: ValidityStatus
    #: A verified strategy when VALID.
    strategy: Optional[Strategy] = None
    #: A function interpretation defeating all inputs when INVALID.
    adversary: Optional[Model] = None
    #: Number of candidate strategies tried.
    candidates_tried: int = 0
    #: Human-readable note about how the verdict was reached.
    note: str = ""

    @property
    def valid(self) -> bool:
        return self.status is ValidityStatus.VALID


class ValidityChecker:
    """Decides ``∀F ∃X (A ⇒ pc)`` and extracts test strategies.

    Parameters
    ----------
    manager:
        The :class:`TermManager` that built ``pc``.
    use_antecedent:
        When False, samples are ignored in verification — reproducing the
        paper's Example 4 contrast (validity *requires* the antecedent).

    Every solver query a check spawns runs under the ambient
    :class:`~repro.solver.budget.SolverBudget` (the search kernel
    escalates it with ``use_budget`` when it retries deferred flips).
    """

    def __init__(
        self,
        manager: TermManager,
        use_antecedent: bool = True,
        enable_offsets: bool = True,
    ) -> None:
        self.tm = manager
        self.use_antecedent = use_antecedent
        #: allow offset strategies (``x := h(c) + k``); disabling them
        #: recreates the expressiveness of the paper's literal §7 prototype
        #: (ablation: disequality branches become uncoverable)
        self.enable_offsets = enable_offsets

    # -- public API -----------------------------------------------------------

    def check(
        self,
        pc: Term,
        input_vars: Sequence[Term],
        samples: Sequence[Sample] = (),
        defaults: Optional[Dict[str, int]] = None,
    ) -> ValidityResult:
        """Decide validity of ``∃X (A ⇒ pc)`` with universal UF symbols.

        ``defaults`` optionally supplies preferred values for inputs that
        the constraint leaves unconstrained (dynamic test generation reuses
        the previous run's concrete values, per the paper's Section 2).

        Each verdict (status, candidates tried, wall time) is recorded
        into the default metrics registry and emitted as a
        ``validity_check`` event on the current journal.
        """
        registry = default_registry()
        journal = current_journal()
        if not registry.enabled and not journal.enabled:
            return self._check(pc, input_vars, samples, defaults)
        start = perf_counter()
        result = self._check(pc, input_vars, samples, defaults)
        elapsed = perf_counter() - start
        registry.counter("validity.checks").inc()
        registry.counter(f"validity.{result.status.value}").inc()
        registry.counter("validity.candidates_tried").inc(result.candidates_tried)
        registry.histogram("validity.check_seconds").observe(elapsed)
        journal.emit(
            "validity_check",
            status=result.status.value,
            candidates_tried=result.candidates_tried,
            note=result.note,
            strategy=str(result.strategy) if result.strategy else None,
            seconds=round(elapsed, 6),
        )
        return result

    def _check(
        self,
        pc: Term,
        input_vars: Sequence[Term],
        samples: Sequence[Sample] = (),
        defaults: Optional[Dict[str, int]] = None,
    ) -> ValidityResult:
        tm = self.tm
        input_vars = list(input_vars)
        samples = list(samples) if self.use_antecedent else []
        antecedent = self._antecedent(samples)
        defaults = dict(defaults or {})

        if pc is tm.true_:
            strategy = Strategy(
                {v.name or "": defaults.get(v.name or "", 0) for v in input_vars}
            )
            return ValidityResult(ValidityStatus.VALID, strategy, note="trivial")
        if pc is tm.false_:
            return ValidityResult(
                ValidityStatus.INVALID, note="path constraint is false"
            )

        # One incremental session carries the antecedent through the whole
        # check: the fast-invalidity probe and every candidate verification
        # below share its assertion (and the lemmas learned refuting one
        # candidate keep pruning the next).
        session = SolverSession(tm)
        session.assert_base(antecedent)

        # Fast invalidity: if A ∧ pc has no model at all (F existential),
        # then no function consistent with A admits any input.
        if not session.check(pc).sat:
            return ValidityResult(
                ValidityStatus.INVALID,
                note="A ∧ pc unsatisfiable (no function interpretation works)",
            )

        # counter-models of failed verifications: the adversary search
        # tries them after its fixed candidates
        counter_functions: List[Model] = []
        tried = 0

        for candidate, origin in self._candidates(pc, input_vars, samples, defaults):
            tried += 1
            verdict = self._verify(pc, candidate, input_vars, session)
            if verdict is None:
                return ValidityResult(
                    ValidityStatus.VALID,
                    strategy=candidate,
                    candidates_tried=tried,
                    note=f"strategy from {origin}, verified by UNSAT of A ∧ ¬pc[σ]",
                )
            counter_functions.append(verdict)

        adversary = self._find_adversary(pc, input_vars, samples, counter_functions)
        if adversary is not None:
            return ValidityResult(
                ValidityStatus.INVALID,
                adversary=adversary,
                candidates_tried=tried,
                note="adversary function defeats every input assignment",
            )
        return ValidityResult(
            ValidityStatus.UNKNOWN,
            candidates_tried=tried,
            note="no verified strategy and no adversary within budget",
        )

    # -- antecedent ---------------------------------------------------------------

    def _antecedent(self, samples: Sequence[Sample]) -> Term:
        tm = self.tm
        conjuncts = [
            tm.mk_eq(
                tm.mk_app(s.fn, [tm.mk_int(a) for a in s.args]), tm.mk_int(s.value)
            )
            for s in samples
        ]
        return tm.mk_and(*conjuncts) if conjuncts else tm.true_

    # -- verification ----------------------------------------------------------------

    def _strategy_term(self, value: StrategyValue) -> Term:
        tm = self.tm
        if isinstance(value, AppValue):
            arg_terms = [
                self._strategy_term(a) if isinstance(a, AppValue) else tm.mk_int(a)
                for a in value.args
            ]
            app = tm.mk_app(value.fn, arg_terms)
            if value.offset:
                return tm.mk_add(app, tm.mk_int(value.offset))
            return app
        return tm.mk_int(value)

    def _verify(
        self,
        pc: Term,
        strategy: Strategy,
        input_vars: Sequence[Term],
        session: SolverSession,
    ) -> Optional[Model]:
        """Check ``∀F (A ⇒ pc[σ])`` via UNSAT of ``A ∧ ¬pc[σ]``.

        Returns None when the strategy is a valid certificate; otherwise a
        counterexample function interpretation.  ``session`` holds the
        antecedent ``A``; the query is solved as a delta on it.
        """
        tm = self.tm
        mapping: Dict[Term, Term] = {}
        for v in input_vars:
            name = v.name or ""
            if name not in strategy.assignments:
                return Model()  # incomplete strategy can never be verified
            mapping[v] = self._strategy_term(strategy.assignments[name])
        result = session.check(tm.mk_not(tm.substitute(pc, mapping)))
        if not result.sat:
            return None
        return result.model if result.model is not None else Model()

    # -- candidate generation ----------------------------------------------------------

    def _candidates(
        self,
        pc: Term,
        input_vars: Sequence[Term],
        samples: Sequence[Sample],
        defaults: Dict[str, int],
    ):
        """Yield (strategy, origin) candidates, best-first."""
        yield from self._grounded_candidates(pc, input_vars, samples, defaults)
        yield from self._triangular_candidates(pc, input_vars, samples, defaults)

    # .. stage 1: sample grounding ..................................................

    def _grounded_candidates(
        self,
        pc: Term,
        input_vars: Sequence[Term],
        samples: Sequence[Sample],
        defaults: Dict[str, int],
    ):
        """Force every UF application onto a recorded sample point.

        Builds ``pc`` with each application ``f(t̄)`` replaced by a fresh
        variable ``v`` constrained by ``OR over samples s of f:
        (t̄ = s.args ∧ v = s.value)``.  Any model of that formula is a
        constant strategy that the antecedent alone forces to satisfy pc.
        This is the general form of the paper's §7 hash-inversion trick.
        """
        tm = self.tm
        apps = pc.uf_applications()
        if not apps:
            # No imprecision at all: plain satisfiability is test generation.
            solver = Solver(tm)
            result = solver.check(pc)
            if result.sat and result.model is not None:
                yield self._model_to_strategy(
                    result.model, input_vars, defaults
                ), "plain satisfiability (no UF applications)"
            return
        by_fn: Dict[FunctionSymbol, List[Sample]] = {}
        for s in samples:
            by_fn.setdefault(s.fn, []).append(s)

        mapping: Dict[Term, Term] = {}
        selector_constraints: List[Term] = []
        feasible = True
        for app in apps:
            assert app.fn is not None
            fn_samples = by_fn.get(app.fn, [])
            if not fn_samples:
                feasible = False
                break
            fresh = tm.fresh_var(f"_gnd_{app.fn.name}_")
            rewritten_args = [tm.substitute(a, mapping) for a in app.args]
            choices = []
            for s in fn_samples:
                arg_eqs = [
                    tm.mk_eq(ra, tm.mk_int(sa))
                    for ra, sa in zip(rewritten_args, s.args)
                ]
                choices.append(
                    tm.mk_and(*(arg_eqs + [tm.mk_eq(fresh, tm.mk_int(s.value))]))
                )
            selector_constraints.append(tm.mk_or(*choices))
            mapping[app] = fresh
        if not feasible:
            return
        grounded_pc = tm.substitute(pc, mapping)
        solver = Solver(tm)
        solver.add(grounded_pc, *selector_constraints)
        blocked: List[Term] = []
        for _ in range(4):  # a few distinct groundings
            result = solver.check(*blocked)
            if not result.sat or result.model is None:
                return
            yield self._model_to_strategy(
                result.model, input_vars, defaults
            ), "sample grounding"
            diff = [
                tm.mk_ne(v, tm.mk_int(result.model.int_value(v.name or "")))
                for v in input_vars
            ]
            if not diff:
                return
            blocked.append(tm.mk_or(*diff))

    # .. stage 2: triangular / definitional extraction ...............................

    def _triangular_candidates(
        self,
        pc: Term,
        input_vars: Sequence[Term],
        samples: Sequence[Sample],
        defaults: Dict[str, int],
    ):
        """Extract strategies of shape ``y := c; x := f(y-value)``.

        Works over each conjunctive branch of ``pc``: repeatedly propagate
        definitional equalities whose right-hand side becomes ground,
        allowing UF applications at ground points (which may be unsampled —
        that is exactly multi-step test generation).  Remaining variables are
        filled by solving the residual constraint.
        """
        for conjuncts in self._conjunctive_branches(pc, limit=8):
            candidate = self._triangular_from_conjuncts(
                conjuncts, input_vars, samples, defaults
            )
            if candidate is not None:
                yield candidate, "triangular extraction"

    def _conjunctive_branches(
        self, pc: Term, limit: int
    ) -> List[List[Term]]:
        """Split ``pc`` into up to ``limit`` conjunct lists.

        Delegates to the NNF machinery so that De Morgan'd negations of
        conjunctions (e.g. flipping a strict ``&&`` condition) enumerate
        into separate branches.
        """
        from .nnf import conjunctive_branches

        return conjunctive_branches(self.tm, pc, limit)

    def _triangular_from_conjuncts(
        self,
        conjuncts: List[Term],
        input_vars: Sequence[Term],
        samples: Sequence[Sample],
        defaults: Dict[str, int],
    ) -> Optional[Strategy]:
        tm = self.tm
        sample_table = {(s.fn, s.args): s.value for s in samples}
        sigma: Dict[Term, StrategyValue] = {}
        input_set = {v for v in input_vars}

        def ground_value(t: Term) -> Optional[StrategyValue]:
            """Evaluate ``t`` under sigma to an int or a ground AppValue."""
            if t.kind is Kind.CONST_INT:
                return int(t.value)  # type: ignore[arg-type]
            if t.is_var:
                got = sigma.get(t)
                return got
            if t.kind is Kind.ADD:
                total = 0
                app: Optional[AppValue] = None
                for a in t.args:
                    v = ground_value(a)
                    if isinstance(v, AppValue):
                        if app is not None:
                            return None  # two opaque applications: not ground
                        app = v
                    elif isinstance(v, int):
                        total += v
                    else:
                        return None
                if app is not None:
                    return AppValue(app.fn, app.args, app.offset + total)
                return total
            if t.kind is Kind.NEG:
                v = ground_value(t.args[0])
                return -v if isinstance(v, int) else None
            if t.kind is Kind.MUL:
                c = ground_value(t.args[0])
                v = ground_value(t.args[1])
                if isinstance(c, int) and isinstance(v, int):
                    return c * v
                return None
            if t.is_app:
                assert t.fn is not None
                arg_vals: List[object] = []
                nested = False
                for a in t.args:
                    v = ground_value(a)
                    if isinstance(v, AppValue):
                        # prefer a recorded value; otherwise keep the
                        # nested application — multi-step will learn it
                        resolved = v.resolve(sample_table)
                        if resolved is not None:
                            v = resolved
                        else:
                            nested = True
                    if not isinstance(v, (int, AppValue)):
                        return None
                    arg_vals.append(v)
                if not nested:
                    key = (t.fn, tuple(int(a) for a in arg_vals))
                    if key in sample_table:
                        return sample_table[key]
                return AppValue(t.fn, tuple(arg_vals))
            return None

        # pass 1: propagate definitional equalities to fixpoint
        progress = True
        rounds = 0
        while progress and rounds < 50:
            progress = False
            rounds += 1
            for c in conjuncts:
                if c.kind is not Kind.EQ:
                    continue
                lhs, rhs = c.args
                for a, b in ((lhs, rhs), (rhs, lhs)):
                    if a.is_var and a in input_set and a not in sigma:
                        value = ground_value(b)
                        if value is not None:
                            sigma[a] = value
                            progress = True

        # pass 1a: disequality witnesses — a branch path often excludes a
        # whole SET of constants for one variable (e.g. op ∉ {0, 1, 2} in a
        # dispatcher); "any value outside the set" is a valid ∀-strategy.
        # Prefer the previous concrete value, else the smallest natural not
        # excluded.  Disequality against an unknown-function value t is
        # witnessed by t + 1 (an offset AppValue; multi-step learns the
        # sample, then the final input is sample + 1).
        exclusions: Dict[Term, Set[int]] = {}
        app_diseqs: List[Tuple[Term, AppValue]] = []
        for c in conjuncts:
            if c.kind is not Kind.NOT or c.args[0].kind is not Kind.EQ:
                continue
            lhs, rhs = c.args[0].args
            for a, b in ((lhs, rhs), (rhs, lhs)):
                if a.is_var and a in input_set and a not in sigma:
                    value = ground_value(b)
                    if isinstance(value, int):
                        exclusions.setdefault(a, set()).add(value)
                    elif isinstance(value, AppValue):
                        app_diseqs.append((a, value))
        for var, excluded in exclusions.items():
            if var in sigma:
                continue
            preferred = defaults.get(var.name or "", 0)
            if preferred not in excluded:
                sigma[var] = preferred
            else:
                candidate = 0
                while candidate in excluded:
                    candidate += 1
                sigma[var] = candidate
        if self.enable_offsets:
            for var, value in app_diseqs:
                if var not in sigma:
                    sigma[var] = AppValue(
                        value.fn, value.args, value.offset + 1
                    )

        # pass 1b: definitional RHS blocked only by *unconstrained* inputs:
        # give those inputs their previous concrete values (dynamic test
        # generation reuses old values for unconstrained inputs, paper §2)
        # and retry the grounding; roll back if it still fails
        progress = True
        rounds = 0
        while progress and rounds < 50:
            progress = False
            rounds += 1
            for c in conjuncts:
                if c.kind is not Kind.EQ:
                    continue
                lhs, rhs = c.args
                for a, b in ((lhs, rhs), (rhs, lhs)):
                    if not (a.is_var and a in input_set and a not in sigma):
                        continue
                    blockers = [
                        v
                        for v in b.free_vars()
                        if v in input_set and v not in sigma
                    ]
                    if not blockers:
                        continue
                    for v in blockers:
                        sigma[v] = defaults.get(v.name or "", 0)
                    value = ground_value(b)
                    if value is not None:
                        sigma[a] = value
                        progress = True
                    else:
                        for v in blockers:
                            del sigma[v]

        # pass 2: EUF unification for f(x)=f(y): make both sides ground by
        # copying an assigned argument or defaulting both to equal values.
        for c in conjuncts:
            if c.kind is not Kind.EQ:
                continue
            lhs, rhs = c.args
            if (
                lhs.is_app
                and rhs.is_app
                and lhs.fn is rhs.fn
                and lhs.fn is not None
            ):
                for x, y in zip(lhs.args, rhs.args):
                    if x.is_var and y.is_var and x in input_set and y in input_set:
                        if x in sigma and y not in sigma and isinstance(sigma[x], int):
                            sigma[y] = sigma[x]
                        elif y in sigma and x not in sigma and isinstance(sigma[y], int):
                            sigma[x] = sigma[y]
                        elif x not in sigma and y not in sigma:
                            shared = defaults.get(x.name or "", 0)
                            sigma[x] = shared
                            sigma[y] = shared

        # pass 3: fill remaining vars by solving the residual constraint
        remaining = [v for v in input_vars if v not in sigma]
        if remaining:
            mapping = {
                v: self._strategy_term(val) for v, val in sigma.items()
            }
            residual = tm.substitute(tm.mk_and(*conjuncts), mapping)
            solver = Solver(tm)
            solver.add(self._antecedent(samples))
            result = solver.check(residual)
            if not result.sat or result.model is None:
                return None
            for v in remaining:
                name = v.name or ""
                if name in result.model.ints:
                    sigma[v] = result.model.ints[name]
                else:
                    sigma[v] = defaults.get(name, 0)

        return Strategy({(v.name or ""): val for v, val in sigma.items()})

    # -- adversaries ------------------------------------------------------------------

    def _find_adversary(
        self,
        pc: Term,
        input_vars: Sequence[Term],
        samples: Sequence[Sample],
        counter_functions: List[Model],
    ) -> Optional[Model]:
        """Look for a function interpretation under which no input works."""
        tm = self.tm
        fns = sorted(pc.uf_symbols(), key=lambda f: f.name)
        if not fns:
            # UF-free: invalid iff pc itself unsatisfiable
            solver = Solver(tm)
            return Model() if not solver.check(pc).sat else None

        constants = self._interesting_constants(pc)
        fresh_base = 7_777_777
        candidates: List[Model] = []
        for default in sorted(constants | {0, 1, fresh_base}):
            candidates.append(self._table_adversary(fns, samples, default))
        candidates.extend(
            self._offset_adversaries(fns, samples, fresh_base)
        )
        candidates.extend(counter_functions)

        for adversary in candidates:
            if not self._consistent_with_samples(adversary, samples):
                continue
            grounded = self._pc_under_function(pc, adversary)
            solver = Solver(tm)
            if not solver.check(grounded).sat:
                return adversary
        return None

    def _table_adversary(
        self, fns: Sequence[FunctionSymbol], samples: Sequence[Sample], default: int
    ) -> Model:
        model = Model(default=default)
        for s in samples:
            model.functions.setdefault(s.fn, {})[s.args] = s.value
        for fn in fns:
            model.functions.setdefault(fn, {})
        return model

    def _offset_adversaries(
        self, fns: Sequence[FunctionSymbol], samples: Sequence[Sample], base: int
    ) -> List[Model]:
        """Injective 'fresh oracle' adversaries: f(x̄) = base + sum(x̄).

        Encoded via the ``offset`` marker understood by
        :meth:`_pc_under_function`; sampled points keep their
        recorded values.
        """
        out = []
        for sign in (1, -1):
            model = Model(default=base)
            model.bools["__offset__"] = True
            model.ints["__offset_sign__"] = sign
            for s in samples:
                model.functions.setdefault(s.fn, {})[s.args] = s.value
            for fn in fns:
                model.functions.setdefault(fn, {})
            out.append(model)
        return out

    def _pc_under_function(self, pc: Term, interp: Model) -> Term:
        """Rewrite ``pc`` with every UF application replaced by ``interp``.

        Each application becomes ITEs over ``interp``'s table, falling back
        to the constant ``interp.default`` — or, for an offset adversary
        (``__offset__`` set), to ``default + sign·Σargs`` with ``sign`` from
        ``__offset_sign__``.  The result encodes "pc holds when F behaves
        like ``interp``".
        """
        tm = self.tm
        offset = interp.bools.get("__offset__")
        sign = interp.ints.get("__offset_sign__", 1)
        mapping: Dict[Term, Term] = {}
        for app in pc.uf_applications():
            assert app.fn is not None
            rewritten_args = [tm.substitute(a, mapping) for a in app.args]
            expr: Term = tm.mk_int(interp.default)
            if offset:
                for ra in rewritten_args:
                    expr = tm.mk_add(expr, tm.mk_mul(tm.mk_int(sign), ra))
            table = interp.functions.get(app.fn, {})
            for args, value in sorted(table.items()):
                cond = tm.mk_and(
                    *[
                        tm.mk_eq(ra, tm.mk_int(av))
                        for ra, av in zip(rewritten_args, args)
                    ]
                )
                expr = tm.mk_ite(cond, tm.mk_int(value), expr)
            mapping[app] = expr
        return tm.substitute(pc, mapping)

    def _consistent_with_samples(
        self, adversary: Model, samples: Sequence[Sample]
    ) -> bool:
        for s in samples:
            table = adversary.functions.get(s.fn, {})
            if table.get(s.args, s.value) != s.value:
                return False
            if s.args not in table:
                # default would override the sample: the table adversaries
                # always include samples, so this only guards custom models
                return False
        return True

    # -- helpers ---------------------------------------------------------------------

    def _interesting_constants(self, pc: Term) -> Set[int]:
        out: Set[int] = set()
        for t in pc.iter_dag():
            if t.kind is Kind.CONST_INT:
                out.add(int(t.value))  # type: ignore[arg-type]
        return out

    def _model_to_strategy(
        self,
        model: Model,
        input_vars: Sequence[Term],
        defaults: Dict[str, int],
    ) -> Strategy:
        assignments: Dict[str, StrategyValue] = {}
        for v in input_vars:
            name = v.name or ""
            if name in model.ints:
                assignments[name] = model.ints[name]
            else:
                assignments[name] = defaults.get(name, 0)
        return Strategy(assignments)
