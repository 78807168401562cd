"""Incremental solver sessions: one SAT solver reused across related queries.

The from-scratch :class:`~repro.solver.smt.Solver` re-encodes every query,
which is robust but wasteful for the directed search: sibling branch flips
share almost their entire path-constraint prefix, and the retention loop in
the quantifier-free backend re-solves the same alternate constraint under a
handful of different pins.  A :class:`SolverSession` keeps the CDCL solver,
the Tseitin encoding, the integer-ITE eliminations and the Ackermann
reduction alive across checks, so each new query only pays for its delta —
and theory lemmas learned by earlier queries keep pruning later ones.

Scoping uses the standard activation-literal technique: each pushed frame
gets a fresh SAT variable ``act`` and all its root clauses are guarded as
``act -> lit``.  While the frame is live, ``act`` is passed to the SAT
solver as an assumption; popping the frame asserts the unit ``-act``, which
permanently satisfies its guard clauses.  Auxiliary constraints produced by
rewriting — integer-ITE side conditions and Ackermann functional-consistency
constraints — are owned by the frame whose formula introduced them, and the
session's rewrite caches are evicted on pop, so the *live* problem handed to
the theory solver always has the same size as a from-scratch encoding of the
live assertions (a long-running session does not accrete theory atoms).
What does survive pops: Tseitin definitions (pure definitions, globally
satisfiable) and theory-conflict lemmas (valid facts about arithmetic) —
that retention is the point of the exercise.

Because the answer to an incremental check depends on session history
(learned lemmas steer which model comes back first), sessions are *not*
routed through the normalized query cache in :mod:`repro.solver.cache`;
only stateless :class:`~repro.solver.smt.Solver` checks are.  See
``docs/PERFORMANCE.md`` for the determinism argument.

Session activity is counted in the default metrics registry as
``solver.session.push`` / ``solver.session.pop`` / ``solver.session.checks``
plus the ``solver.session.reuse_depth`` histogram maintained by
:class:`PrefixSession`.
"""

from __future__ import annotations

from time import perf_counter
from typing import Dict, List, Optional, Sequence, Set, Tuple

from ..errors import ResourceLimitError, SolverError
from ..faults import current_fault_plan
from ..obs.journal import current_journal
from ..obs.metrics import default_registry
from .budget import current_budget
from .cnf import CnfConverter
from .sat import SatSolver
from .smt import CheckResult, Model, check_theory, eliminate_int_ite
from .terms import FunctionSymbol, Kind, Sort, Term, TermManager

__all__ = ["SolverSession", "PrefixSession"]


def _theory_atoms(term: Term) -> Set[Term]:
    """Theory atoms of ``term`` as the CNF encoder would register them."""
    out: Set[Term] = set()
    for t in term.iter_dag():
        if not t.is_atom:
            continue
        if t.kind in (Kind.VAR, Kind.CONST_BOOL):
            continue
        if t.kind is Kind.EQ and t.args[0].sort is Sort.BOOL:
            continue  # boolean iff, handled propositionally
        out.add(t)
    return out


class _Frame:
    """Formulas asserted at one stack depth plus their encoding artifacts.

    ``act`` is the frame's activation literal (0 for the unguarded base
    frame).  ``original`` keeps the formulas as asserted (for model
    verification), ``flat`` their ITE-free rewrites (for model variable
    collection), ``atoms`` / ``apps`` what this frame contributes to the
    *live* sets consulted by the lazy theory loop, and ``ite_keys`` /
    ``app_keys`` which session-cache entries this frame owns — evicted when
    the frame is popped so a reappearing subterm is re-registered against a
    live definition.
    """

    __slots__ = ("act", "original", "flat", "atoms", "apps", "ite_keys", "app_keys")

    def __init__(self, act: int) -> None:
        self.act = act
        self.original: List[Term] = []
        self.flat: List[Term] = []
        self.atoms: Set[Term] = set()
        self.apps: Set[Term] = set()
        self.ite_keys: List[Term] = []
        self.app_keys: List[Term] = []


class SolverSession:
    """An incremental assertion-stack view over one persistent SAT solver.

    Usage::

        session = SolverSession(tm)
        session.assert_base(prefix_formula)      # survives forever
        session.push()
        session.assert_term(branch_negation)     # guarded by this frame
        result = session.check(extra_pin)        # pin solved as a delta
        session.pop()                            # frame retired, lemmas kept

    Base assertions are only allowed at depth 0 (a base formula added above
    a live scope could capture that scope's rewrite definitions, which die
    with it).  Unlike :class:`~repro.solver.smt.Solver`, answers may depend
    on what was solved earlier in the session (learned lemmas bias model
    search), so results are reproducible only when the sequence of session
    operations is itself reproducible.
    """

    def __init__(
        self,
        manager: Optional[TermManager] = None,
        max_iterations: Optional[int] = None,
        max_conflicts: Optional[int] = None,
        verify_models: bool = True,
    ) -> None:
        budget = current_budget()
        if max_iterations is None:
            max_iterations = budget.max_iterations
        if max_conflicts is None:
            max_conflicts = budget.max_conflicts
        self.tm = manager if manager is not None else TermManager()
        # max_conflicts is a whole-session budget: SatSolver counts
        # conflicts cumulatively, which bounds runaway sessions too.
        self._sat = SatSolver(max_conflicts=max_conflicts)
        self._cnf = CnfConverter(self.tm, self._sat)
        self._base = _Frame(0)
        self._scopes: List[_Frame] = []
        self._max_iterations = max_iterations
        self._verify_models = verify_models
        # frame-owned rewriting state: integer-ITE elimination cache and the
        # Ackermann app -> fresh-variable mapping with per-symbol history
        self._ite_cache: Dict[Term, Term] = {}
        self._app_mapping: Dict[Term, Term] = {}
        self._app_args: Dict[Term, Tuple[Term, ...]] = {}
        self._apps_by_fn: Dict[FunctionSymbol, List[Term]] = {}
        self.last_iterations = 0
        self.pushes = 0
        self.pops = 0
        self.checks = 0

    # -- assertion stack --------------------------------------------------------

    @property
    def depth(self) -> int:
        """Number of live scopes above the base frame."""
        return len(self._scopes)

    def push(self) -> None:
        """Open a scope guarded by a fresh activation literal."""
        self._scopes.append(_Frame(self._sat.new_var()))
        self.pushes += 1
        registry = default_registry()
        if registry.enabled:
            registry.counter("solver.session.push").inc()

    def pop(self) -> None:
        """Retire the innermost scope (its guard is disabled permanently)."""
        if not self._scopes:
            raise SolverError("pop without matching push")
        self._retire(self._scopes.pop())
        self.pops += 1
        registry = default_registry()
        if registry.enabled:
            registry.counter("solver.session.pop").inc()

    def _retire(self, frame: _Frame) -> None:
        self._sat.add_clause([-frame.act])
        for key in frame.ite_keys:
            self._ite_cache.pop(key, None)
        for app in frame.app_keys:
            self._app_mapping.pop(app, None)
            self._app_args.pop(app, None)
            assert app.fn is not None
            peers = self._apps_by_fn.get(app.fn)
            if peers is not None:
                peers.remove(app)

    def assert_term(self, *formulas: Term) -> None:
        """Assert formulas into the innermost scope (or the base frame)."""
        frame = self._scopes[-1] if self._scopes else self._base
        for f in formulas:
            self._assert_into(frame, f)

    def assert_base(self, *formulas: Term) -> None:
        """Assert formulas unguarded; only legal before any scope is open."""
        if self._scopes:
            raise SolverError("assert_base under a live scope")
        for f in formulas:
            self._assert_into(self._base, f)

    # -- encoding ---------------------------------------------------------------

    def _assert_into(self, frame: _Frame, formula: Term) -> None:
        lit = self._prepare(frame, formula)
        if frame.act:
            self._sat.add_clause([-frame.act, lit])
        else:
            self._sat.add_clause([lit])

    def _prepare(self, frame: _Frame, formula: Term) -> int:
        """Rewrite + encode ``formula``; record artifacts; return root literal."""
        if formula.sort is not Sort.BOOL:
            raise SolverError(f"cannot assert non-boolean term {formula}")
        # one ITE-definition cache session-wide; only non-identity rewrites
        # are owned by ``frame`` (and evicted with it): an identity entry
        # means the subtree is ITE-free, which stays true forever
        rewritten, sides = eliminate_int_ite(
            self.tm, formula, self._ite_cache, frame.ite_keys
        )
        for side in sides:
            self._assert_into(frame, side)
        pure = self._ackermannize(frame, rewritten)
        frame.original.append(formula)
        frame.flat.append(rewritten)
        frame.atoms |= _theory_atoms(pure)
        frame.apps |= {t for t in rewritten.iter_dag() if t.is_app}
        return self._cnf.literal_for(pure)

    def _ackermannize(self, frame: _Frame, term: Term) -> Term:
        """Register new UF applications incrementally and purify ``term``.

        New applications get fresh variables plus functional-consistency
        constraints against every live application of the same symbol; the
        constraints are owned by ``frame`` (the newer of the two frames
        involved in any pair), so they die no earlier than either endpoint.
        """
        tm = self.tm
        apps = sorted(
            (t for t in term.iter_dag() if t.is_app and t not in self._app_mapping),
            key=lambda t: t.tid,
        )
        constraints: List[Term] = []
        for app in apps:
            assert app.fn is not None
            new_args = tuple(tm.substitute(a, self._app_mapping) for a in app.args)
            var = tm.fresh_var(f"_app_{app.fn.name}_")
            for other in self._apps_by_fn.get(app.fn, []):
                other_args = self._app_args[other]
                if any(
                    x is not y and x.is_const and y.is_const
                    for x, y in zip(new_args, other_args)
                ):
                    # Distinct constants in some position: the antecedent of
                    # the consistency implication folds to false, so the
                    # constraint is vacuously true.  Sample antecedents pair
                    # mostly constant-argument applications, making this the
                    # common case by far.
                    continue
                arg_eqs = [tm.mk_eq(x, y) for x, y in zip(new_args, other_args)]
                constraints.append(
                    tm.mk_implies(
                        tm.mk_and(*arg_eqs),
                        tm.mk_eq(var, self._app_mapping[other]),
                    )
                )
            self._app_mapping[app] = var
            self._app_args[app] = new_args
            self._apps_by_fn.setdefault(app.fn, []).append(app)
            frame.app_keys.append(app)
        for c in constraints:
            self._assert_into(frame, c)
        return tm.substitute(term, self._app_mapping)

    # -- solving ----------------------------------------------------------------

    def check(self, *extra: Term) -> CheckResult:
        """Decide base + live scopes + ``extra``.

        Extras live in an ephemeral guarded frame that exists only for this
        check, so they are deltas: nothing they introduce outlives the call
        except Tseitin definitions and learned lemmas.
        """
        self.checks += 1
        registry = default_registry()
        journal = current_journal()
        if not registry.enabled and not journal.enabled:
            return self._check(extra)
        start = perf_counter()
        result = self._check(extra)
        elapsed = perf_counter() - start
        registry.counter("smt.checks").inc()
        registry.counter("smt.sat" if result.sat else "smt.unsat").inc()
        registry.counter("smt.lazy_iterations").inc(result.iterations)
        registry.histogram("smt.check_seconds").observe(elapsed)
        registry.counter("solver.session.checks").inc()
        journal.emit(
            "solver_query",
            solver="smt-session",
            sat=result.sat,
            iterations=result.iterations,
            assertions=len(self._base.original)
            + sum(len(s.original) for s in self._scopes)
            + len(extra),
            seconds=round(elapsed, 6),
        )
        return result

    def _check(self, extra: Tuple[Term, ...]) -> CheckResult:
        # fault-injection site: forced exhaustion before any state mutates,
        # so a degraded/retried query sees a clean session
        current_fault_plan().fire("solver")
        ext = _Frame(self._sat.new_var()) if extra else None
        registry = default_registry()
        try:
            if ext is not None:
                if registry.enabled:
                    # ephemeral extras are assertion-stack scopes too
                    registry.counter("solver.session.push").inc()
                for f in extra:
                    self._assert_into(ext, f)
            return self._solve(ext)
        finally:
            if ext is not None:
                self._retire(ext)
                if registry.enabled:
                    registry.counter("solver.session.pop").inc()

    def _solve(self, ext: Optional[_Frame]) -> CheckResult:
        live = [self._base] + self._scopes + ([ext] if ext is not None else [])
        if not any(f.original for f in live):
            return CheckResult(sat=True, model=Model())

        assumptions = [f.act for f in live if f.act]
        live_atoms: Set[Term] = set()
        live_apps: Set[Term] = set()
        flat: List[Term] = []
        originals: List[Term] = []
        for f in live:
            live_atoms |= f.atoms
            live_apps |= f.apps
            flat.extend(f.flat)
            originals.extend(f.original)

        iterations = 0
        while True:
            iterations += 1
            if iterations > self._max_iterations:
                raise ResourceLimitError(
                    f"lazy SMT loop exceeded {self._max_iterations} iterations"
                )
            sat_result = self._sat.solve(assumptions)
            if not sat_result.sat:
                self.last_iterations = iterations
                return CheckResult(sat=False, iterations=iterations)

            # restrict the theory conjunction to atoms a live assertion can
            # actually observe — retired scopes still own SAT variables, but
            # their unconstrained values must not burden (or refute) the model
            literals = self._cnf.model_literals(sat_result.model)
            theory_lits = [
                (atom, pol)
                for atom, pol in literals
                if atom.kind is not Kind.VAR and atom in live_atoms
            ]
            ok, core, int_model = check_theory(self.tm, theory_lits)
            if ok:
                model = self._build_model(
                    sat_result.model, int_model, live_apps, flat, originals
                )
                self.last_iterations = iterations
                return CheckResult(sat=True, model=model, iterations=iterations)

            # a theory-conflict core is a lemma about arithmetic, valid in
            # every scope: assert it unguarded so later checks inherit it
            blocking: List[int] = []
            for atom, pol in core:
                lit = self._cnf.literal_for(atom)
                blocking.append(-lit if pol else lit)
            if not blocking:
                raise SolverError("theory conflict produced an empty core")
            self._sat.add_clause(blocking)

    # -- model construction -----------------------------------------------------

    def _build_model(
        self,
        sat_model: Dict[int, bool],
        int_model: Dict[str, int],
        live_apps: Set[Term],
        flat: List[Term],
        originals: List[Term],
    ) -> Model:
        from .evalmodel import evaluate  # local import to avoid a cycle

        model = Model()
        for f in flat:
            for t in f.iter_dag():
                if t.is_var and t.sort is Sort.INT and t.name is not None:
                    model.ints.setdefault(t.name, int_model.get(t.name, 0))
        for name, value in int_model.items():
            model.ints.setdefault(name, value)
        for atom, svar in self._cnf.atoms.items():
            if atom.kind is Kind.VAR and atom.sort is Sort.BOOL and svar in sat_model:
                model.bools[atom.name or f"b{atom.tid}"] = sat_model[svar]
        for app in sorted(live_apps, key=lambda t: t.tid):
            assert app.fn is not None
            var = self._app_mapping[app]
            arg_values = tuple(int(evaluate(a, model)) for a in app.args)
            value = model.ints.get(var.name or "", 0)
            table = model.functions.setdefault(app.fn, {})
            existing = table.get(arg_values)
            if existing is not None and existing != value:
                raise SolverError(
                    f"inconsistent UF table for {app.fn.name}{arg_values}: "
                    f"{existing} vs {value} (Ackermann constraints violated)"
                )
            table[arg_values] = value

        # verify while helper variables (_ite/_app_ definitions) are still in
        # the model — session originals include the side conditions that
        # mention them, unlike the stateless solver's user-only assertions
        if self._verify_models:
            for f in originals:
                value = evaluate(f, model)
                if value is not True:
                    raise SolverError(
                        f"model verification failed: {f} evaluates to {value} "
                        f"under {model}"
                    )
        for name in list(model.ints):
            if name.startswith(("_app_", "_ite", "_t")):
                del model.ints[name]
        return model


class PrefixSession:
    """Path-constraint prefix reuse on top of a :class:`SolverSession`.

    A directed search asks one question per branch flip: *prefix conditions
    up to i, plus the negation of condition i*.  Consecutive questions share
    long prefixes, so this wrapper keeps the asserted conditions as a stack,
    pops only what differs from the previous question, and pushes the rest.
    The retained depth is observed as ``solver.session.reuse_depth``.

    Terms are hash-consed per manager, so prefix comparison is by identity.
    """

    def __init__(self, manager: TermManager, **session_kwargs: object) -> None:
        self.session = SolverSession(manager, **session_kwargs)
        self._stack: List[Term] = []

    def solve(self, prefix: Sequence[Term], *extra: Term) -> CheckResult:
        """Check ``prefix`` (stack-reused) plus ``extra`` assumption deltas."""
        common = 0
        limit = min(len(self._stack), len(prefix))
        while common < limit and self._stack[common] is prefix[common]:
            common += 1
        while len(self._stack) > common:
            self.session.pop()
            self._stack.pop()
        for term in prefix[common:]:
            self.session.push()
            self.session.assert_term(term)
            self._stack.append(term)
        registry = default_registry()
        if registry.enabled:
            registry.histogram("solver.session.reuse_depth").observe(common)
        return self.session.check(*extra)
