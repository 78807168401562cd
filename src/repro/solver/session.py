"""Solver sessions: the one DPLL(T) engine, one SAT solver per session.

A :class:`SolverSession` encodes its assertions once and keeps the CDCL
solver, the Tseitin encoding, the integer-ITE eliminations and the
Ackermann reduction alive across checks, so each new query only pays for
its delta — and theory lemmas learned by earlier queries keep pruning
later ones.  It is the only encoder: a stateless
:class:`~repro.solver.smt.Solver` check that misses the query cache
solves its whole goal as the base frame of one fresh session.

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

A check runs the one lazy DPLL(T) loop and model builder
(:func:`~repro.solver.smt.solve_lazily`,
:func:`~repro.solver.smt.build_model`): the live frames' activation
literals are the assumptions, their theory atoms the live-atom set, and
every SAT answer is verified against all live assertions, extras
included.

A validity check keeps one session.  It holds the antecedent as its
base; the probe of ``A ∧ pc`` and each candidate strategy's verification
are checked against it as deltas.

Because the answer to an incremental check depends on session history
(learned lemmas steer which model comes back first), sessions are *not*
routed through the normalized query cache in :mod:`repro.solver.cache`;
only stateless :class:`~repro.solver.smt.Solver` checks are, and each of
their misses solves on a session with no history.  See
``docs/PERFORMANCE.md`` for the determinism argument.

Session activity is counted in the default metrics registry as
``solver.session.push`` / ``solver.session.pop`` / ``solver.session.checks``
(calls of :meth:`SolverSession.check`) plus the
``solver.session.reuse_depth`` histogram maintained by
:class:`PrefixSession`.
"""

from __future__ import annotations

from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Set, Tuple

from ..errors import SolverError
from ..faults import current_fault_plan
from ..obs.metrics import default_registry
from .budget import current_budget
from .cnf import CnfConverter
from .sat import SatSolver
from .smt import CheckResult, Model, observe_check, solve_lazily
from .terms import FunctionSymbol, Kind, Sort, Term, TermManager

__all__ = ["SolverSession", "PrefixSession"]

def eliminate_int_ite(
    tm: TermManager, term: Term, cache: Dict[Term, Term], owned: List[Term]
) -> Tuple[Term, List[Term]]:
    """Pull integer-sorted ITE nodes out of ``term``.

    Each ``ite(c, a, b) : Int`` becomes a fresh variable ``v`` with side
    conditions ``c => v = a`` and ``not c => v = b``.  Returns the rewritten
    term and the side conditions (which the caller must also assert).
    ``cache`` is the session-wide rewrite memo; the subterms this call
    rewrites to something other than themselves are appended to ``owned``.
    """
    sides: List[Term] = []
    # explicit stack, so depth is unbounded; children are rewritten before
    # parents and left to right, the order that numbers the fresh variables
    stack: List[Tuple[Term, bool]] = [(term, False)]
    while stack:
        t, expanded = stack.pop()
        if expanded:
            new_args = tuple(cache[a] for a in t.args)
            if t.kind is Kind.ITE and t.sort is Sort.INT:
                cond, then_t, else_t = new_args
                result = tm.fresh_var("_ite")
                sides.append(tm.mk_implies(cond, tm.mk_eq(result, then_t)))
                sides.append(
                    tm.mk_implies(tm.mk_not(cond), tm.mk_eq(result, else_t))
                )
            elif new_args == t.args:
                result = t
            else:
                result = tm._rebuild(t, new_args)
            cache[t] = result
            if result is not t:
                owned.append(t)
        elif t not in cache:
            if not t.args:
                cache[t] = t
                continue
            stack.append((t, True))
            for child in reversed(t.args):
                if child not in cache:
                    stack.append((child, False))
    return cache[term], sides


def int_var_names(formulas: Iterable[Term]) -> Iterator[str]:
    """Names of the named integer variables of ``formulas``.

    In one :meth:`~repro.solver.terms.Term.iter_dag` walk shared by the
    formulas, so each name comes once, in the order the model lists it.
    """
    seen: Set[int] = set()
    for f in formulas:
        for t in f.iter_dag(seen):
            if t.kind is Kind.VAR and t.sort is Sort.INT and t.name is not None:
                yield t.name


#: atom kinds the lazy loop hands to the theory solver
_THEORY_KINDS = frozenset({Kind.EQ, Kind.LE, Kind.LT, Kind.DISTINCT})


def _theory_atoms(term: Term) -> Set[Term]:
    """Theory atoms of ``term`` as the CNF encoder would register them.

    Only the boolean skeleton is walked: below a theory atom there are
    integer terms alone (``term`` is ITE-free), so no atom hides there.
    """
    out: Set[Term] = set()
    seen: Set[int] = set()
    stack = [term]
    while stack:
        t = stack.pop()
        if t.tid in seen:
            continue
        seen.add(t.tid)
        kind = t.kind
        if kind is Kind.VAR or kind is Kind.CONST_BOOL:
            continue
        if kind in _THEORY_KINDS and not (
            kind is Kind.EQ and t.args[0].sort is Sort.BOOL
        ):
            out.add(t)
            continue
        # a connective, or a boolean iff (handled propositionally)
        stack.extend(t.args)
    return out


class _Frame:
    """Formulas asserted at one stack depth plus their encoding artifacts.

    ``act`` is the frame's activation literal (0 for the unguarded base
    frame).  ``original`` keeps the formulas as asserted (for model
    verification), ``int_vars`` the named integer variables of their
    ITE-free rewrites in walk order (the model's variables), ``atoms`` /
    ``apps`` what this frame contributes to the
    *live* sets consulted by the lazy theory loop, and ``ite_keys`` /
    ``app_keys`` which session-cache entries this frame owns — evicted when
    the frame is popped so a reappearing subterm is re-registered against a
    live definition.
    """

    __slots__ = (
        "act", "original", "int_vars", "atoms", "apps", "ite_keys", "app_keys"
    )

    def __init__(self, act: int) -> None:
        self.act = act
        self.original: List[Term] = []
        #: an ordered set: names only, first appearance first
        self.int_vars: Dict[str, None] = {}
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
    with it).  Answers may depend on what was solved earlier in the
    session (learned lemmas bias model search), so results are
    reproducible only when the sequence of session operations is itself
    reproducible; a :class:`~repro.solver.smt.Solver` miss, one base
    frame solved once, has no such history.
    """

    def __init__(self, manager: Optional[TermManager] = None) -> None:
        budget = current_budget()
        self.tm = manager if manager is not None else TermManager()
        # max_conflicts is a whole-session budget: SatSolver counts
        # conflicts cumulatively, which bounds runaway sessions too.
        self._sat = SatSolver(max_conflicts=budget.max_conflicts)
        self._cnf = CnfConverter(self.tm, self._sat)
        self._base = _Frame(0)
        self._scopes: List[_Frame] = []
        self._max_iterations = budget.max_iterations
        # frame-owned rewriting state: integer-ITE elimination cache and the
        # Ackermann app -> fresh-variable mapping with per-symbol history
        self._ite_cache: Dict[Term, Term] = {}
        self._app_mapping: Dict[Term, Term] = {}
        self._app_args: Dict[Term, Tuple[Term, ...]] = {}
        self._apps_by_fn: Dict[FunctionSymbol, List[Term]] = {}

    # -- assertion stack --------------------------------------------------------

    def push(self) -> None:
        """Open a scope guarded by a fresh activation literal."""
        self._scopes.append(_Frame(self._sat.new_var()))
        registry = default_registry()
        if registry.enabled:
            registry.counter("solver.session.push").inc()

    def pop(self) -> None:
        """Retire the innermost scope (its guard is disabled permanently)."""
        if not self._scopes:
            raise SolverError("pop without matching push")
        self._retire(self._scopes.pop())
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
        # one walk of ``rewritten`` finds its applications, for the frame's
        # live set and for the Ackermann registration alike, and its named
        # integer variables, for the model
        apps: List[Term] = []
        int_vars: List[str] = []
        for t in rewritten.iter_dag():
            if t.kind is Kind.APP:
                apps.append(t)
            elif t.kind is Kind.VAR and t.sort is Sort.INT and t.name is not None:
                int_vars.append(t.name)
        pure = self._ackermannize(frame, rewritten, apps)
        self._record(frame, formula, int_vars, pure)
        frame.apps.update(apps)
        return self._cnf.literal_for(pure)

    def _record(
        self, frame: _Frame, formula: Term, int_vars: List[str], pure: Term
    ) -> None:
        """Add an asserted formula's artifacts to ``frame``."""
        frame.original.append(formula)
        frame.int_vars.update(dict.fromkeys(int_vars))
        frame.atoms |= _theory_atoms(pure)

    def _assert_pure(self, frame: _Frame, formula: Term) -> None:
        """Assert an ITE- and application-free ``formula`` into ``frame``.

        The short path of :meth:`_assert_into` for the functional-
        consistency constraints: ITE elimination and purification would
        return ``formula`` itself, so only its artifacts are recorded.
        """
        self._record(frame, formula, list(int_var_names([formula])), formula)
        lit = self._cnf.literal_for(formula)
        self._sat.add_clause([-frame.act, lit] if frame.act else [lit])

    def _ackermannize(self, frame: _Frame, term: Term, apps: List[Term]) -> Term:
        """Ackermann's reduction: register ``term``'s new UF applications
        and purify ``term``.

        ``apps`` holds every application in ``term``.  New ones get fresh
        variables plus functional-consistency constraints against every live
        application of the same symbol::

            (arg1 = arg1' and ... and argN = argN') => a_i = a_j

        Applications are registered innermost first (by term id: children
        are always older), so the arguments of ``h(h(x))`` and the
        constraints compare the inner application's variable.  The
        constraints are owned by ``frame`` (the newer of the two frames
        involved in any pair), so they die no earlier than either endpoint.
        """
        if not apps:
            return term  # nothing to register or replace
        tm = self.tm
        new_apps = sorted(
            (t for t in apps if t not in self._app_mapping), key=lambda t: t.tid
        )
        constraints: List[Term] = []
        # an application's arguments hold only applications mapped before
        # it, so one memo serves the arguments and ``term``: no memo entry
        # is ever computed against an incomplete mapping
        memo: Dict[Term, Term] = {}
        for app in new_apps:
            assert app.fn is not None
            new_args = tuple(
                tm.substitute(a, self._app_mapping, memo) for a in app.args
            )
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
            self._assert_pure(frame, c)
        return tm.substitute(term, self._app_mapping, memo)

    # -- solving ----------------------------------------------------------------

    def check(self, *extra: Term) -> CheckResult:
        """Decide base + live scopes + ``extra``.

        Extras live in an ephemeral guarded frame that exists only for this
        check, so they are deltas: nothing they introduce outlives the call
        except Tseitin definitions and learned lemmas.  Recorded by
        :func:`~repro.solver.smt.observe_check` as ``solver="smt-session"``.
        """
        assertions = (
            len(self._base.original)
            + sum(len(s.original) for s in self._scopes)
            + len(extra)
        )
        return observe_check("smt-session", assertions, lambda: self._check(extra))

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
            result = self._solve(ext)
        finally:
            if ext is not None:
                self._retire(ext)
                if registry.enabled:
                    registry.counter("solver.session.pop").inc()
        if registry.enabled:
            registry.counter("solver.session.checks").inc()
        return result

    def _solve(self, ext: Optional[_Frame]) -> CheckResult:
        live = [self._base] + self._scopes + ([ext] if ext is not None else [])
        if not any(f.original for f in live):
            return CheckResult(sat=True, model=Model())
        live_atoms: Set[Term] = set()
        live_apps: Set[Term] = set()
        int_vars: List[str] = []
        originals: List[Term] = []
        for f in live:
            live_atoms |= f.atoms
            live_apps |= f.apps
            int_vars.extend(f.int_vars)
            originals.extend(f.original)

        # session originals include the ITE side conditions and Ackermann
        # constraints, so the goal pins the helper variables too
        return solve_lazily(
            self.tm, self._sat, self._cnf, [f.act for f in live if f.act],
            live_atoms, self._max_iterations,
            ((app, self._app_mapping[app]) for app in live_apps), int_vars,
            originals,
        )


class PrefixSession:
    """Path-constraint prefix reuse on top of a :class:`SolverSession`.

    A directed search asks one question per branch flip: *prefix conditions
    up to i, plus the negation of condition i*.  Consecutive questions share
    long prefixes, so this wrapper keeps the asserted conditions as a stack,
    pops only what differs from the previous question, and pushes the rest.
    The retained depth is observed as ``solver.session.reuse_depth``.

    Terms are hash-consed per manager, so prefix comparison is by identity.

    No search path uses it today: every backend solves its flip statelessly
    on a private copy of the request, so that a flip's answer does not
    depend on which flips were solved before it.  The class stays as the
    base for batching sibling flips of one path on one session (ROADMAP
    9(b)), and the standing benchmark's tracer still instruments
    :meth:`solve`.
    """

    def __init__(self, manager: TermManager) -> None:
        self.session = SolverSession(manager)
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
