"""SMT solver facade: quantifier-free linear integer arithmetic + EUF.

This module glues the components of the from-scratch solver into the
standard ``assert / check / model`` interface used by the rest of the
library:

- :mod:`.terms` — hash-consed formula representation,
- :mod:`.cnf` + :mod:`.sat` — boolean reasoning (CDCL),
- :mod:`.lia` — conjunctive linear integer arithmetic,
- Ackermann's reduction — uninterpreted functions become fresh integer
  variables plus functional-consistency constraints, a classical complete
  encoding of EUF into equality logic for quantifier-free formulas.

The check loop is *lazy SMT*: the SAT solver proposes boolean models, the
LIA solver refutes theory-inconsistent ones with blocking clauses built from
conflict cores, until either a theory-consistent model emerges or the
boolean abstraction is exhausted.

Every satisfiable answer is *verified* by evaluating all assertions under
the constructed model (see :mod:`.evalmodel`), so a bug anywhere in the
solver stack surfaces as a loud :class:`~repro.errors.SolverError` instead
of a silently wrong test input.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set, Tuple

from time import perf_counter

from ..errors import ResourceLimitError, SolverError
from ..faults import current_fault_plan
from ..obs.journal import current_journal
from ..obs.metrics import default_registry
from .budget import current_budget
from .cache import CachedResult, default_cache
from .cnf import CnfConverter
from .lia import LiaSolver
from .sat import SatSolver
from .terms import (
    CanonicalQuery,
    FunctionSymbol,
    Kind,
    Sort,
    Term,
    TermManager,
    canonical_query,
)

__all__ = ["Solver", "Model", "CheckResult", "ackermannize", "check_theory"]


@dataclass
class Model:
    """A first-order model: integer variables plus finite UF tables.

    ``functions`` maps each uninterpreted symbol to a finite table of
    ``args -> value`` entries; ``default`` is returned for unlisted points
    (the solver is free to choose it, mirroring the paper's observation that
    a satisfiability check "invents" function behaviour outside recorded
    points).
    """

    ints: Dict[str, int] = field(default_factory=dict)
    bools: Dict[str, bool] = field(default_factory=dict)
    functions: Dict[FunctionSymbol, Dict[Tuple[int, ...], int]] = field(
        default_factory=dict
    )
    default: int = 0

    def int_value(self, name: str) -> int:
        """Value of an integer variable (0 when unconstrained)."""
        return self.ints.get(name, self.default)

    def apply(self, fn: FunctionSymbol, args: Tuple[int, ...]) -> int:
        """Value of ``fn(args)`` under this model."""
        return self.functions.get(fn, {}).get(args, self.default)

    def __str__(self) -> str:
        parts = [f"{k}={v}" for k, v in sorted(self.ints.items())]
        parts += [f"{k}={v}" for k, v in sorted(self.bools.items())]
        for fn, table in self.functions.items():
            for args, val in sorted(table.items()):
                inner = ",".join(map(str, args))
                parts.append(f"{fn.name}({inner})={val}")
        return "{" + ", ".join(parts) + "}"


@dataclass
class CheckResult:
    """Outcome of :meth:`Solver.check`."""

    sat: bool
    model: Optional[Model] = None
    #: Number of lazy-loop iterations (SAT models proposed).
    iterations: int = 0


def eliminate_int_ite(
    tm: TermManager,
    term: Term,
    cache: Optional[Dict[Term, Term]] = None,
    owned: Optional[List[Term]] = None,
) -> Tuple[Term, List[Term]]:
    """Pull integer-sorted ITE nodes out of ``term``.

    Each ``ite(c, a, b) : Int`` becomes a fresh variable ``v`` with side
    conditions ``c => v = a`` and ``not c => v = b``.  Returns the rewritten
    term and the side conditions (which the caller must also assert).
    ``cache`` may be shared across calls (an incremental session keeps one);
    when ``owned`` is given, the subterms this call rewrites to something
    other than themselves are appended to it.
    """
    sides: List[Term] = []
    if cache is None:
        cache = {}
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
            if owned is not None and result is not t:
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


def ackermannize(
    tm: TermManager, formulas: Sequence[Term]
) -> Tuple[List[Term], Dict[Term, Term], List[Term]]:
    """Ackermann's reduction: replace UF applications by fresh variables.

    Returns ``(rewritten_formulas, app_to_var, consistency_constraints)``.
    Applications are processed innermost-first so that nested applications
    like ``h(h(x))`` are handled correctly: the outer application's argument
    list refers to the *rewritten* inner application variable, and the
    functional-consistency constraints compare rewritten arguments.

    For every pair of applications of the same symbol::

        (arg1 = arg1' and ... and argN = argN') => a_i = a_j
    """
    # Collect all applications across all formulas, innermost first (by the
    # manager's creation order: children always have smaller ids).
    apps: List[Term] = []
    seen: Set[Term] = set()
    for f in formulas:
        for t in f.iter_dag():
            if t.is_app and t not in seen:
                seen.add(t)
                apps.append(t)
    apps.sort(key=lambda t: t.tid)

    app_to_var: Dict[Term, Term] = {}
    rewritten_args: Dict[Term, Tuple[Term, ...]] = {}
    mapping: Dict[Term, Term] = {}
    for app in apps:
        new_args = tuple(tm.substitute(a, mapping) for a in app.args)
        assert app.fn is not None
        var = tm.fresh_var(f"_app_{app.fn.name}_")
        app_to_var[app] = var
        rewritten_args[app] = new_args
        mapping[app] = var

    constraints: List[Term] = []
    by_fn: Dict[FunctionSymbol, List[Term]] = {}
    for app in apps:
        assert app.fn is not None
        by_fn.setdefault(app.fn, []).append(app)
    for fn, fn_apps in by_fn.items():
        for a1, a2 in itertools.combinations(fn_apps, 2):
            args1, args2 = rewritten_args[a1], rewritten_args[a2]
            if any(
                x is not y and x.is_const and y.is_const
                for x, y in zip(args1, args2)
            ):
                # Some argument position holds two distinct constants, so the
                # implication's antecedent folds to false and the constraint
                # is vacuously true — skip building it.  Recorded samples
                # apply functions to concrete points, so almost every pair is
                # of this shape.
                continue
            arg_eqs = [tm.mk_eq(x, y) for x, y in zip(args1, args2)]
            constraints.append(
                tm.mk_implies(
                    tm.mk_and(*arg_eqs), tm.mk_eq(app_to_var[a1], app_to_var[a2])
                )
            )

    new_formulas = [tm.substitute(f, mapping) for f in formulas]
    return new_formulas, app_to_var, constraints


def check_theory(
    tm: TermManager, literals: List[Tuple[Term, bool]]
) -> Tuple[bool, List[Tuple[Term, bool]], Dict[str, int]]:
    """Check a conjunction of arithmetic literals with the LIA solver.

    Returns ``(sat, conflict_core, int_model)`` where the core entries are
    (atom, polarity) pairs from the input.  Shared by the from-scratch
    :class:`Solver` and the incremental
    :class:`~repro.solver.session.SolverSession`.  Branch and pivot limits
    come from the ambient :func:`~repro.solver.budget.current_budget`.
    """
    budget = current_budget()
    lia = LiaSolver(
        max_branches=budget.max_branches, max_pivots=budget.max_pivots
    )
    var_ids: Dict[Term, int] = {}
    new_var = lia.new_var

    for atom, pol in literals:
        if atom.kind is Kind.CONST_BOOL:
            if bool(atom.value) != pol:
                return False, [(atom, pol)], {}
            continue
        # lhs - rhs = sum(pairs) + offset, so the atom reads
        # sum(pairs) <= / = / != -offset; leaves are numbered on first sight
        pairs, offset = tm.linear_atom(atom)
        coeffs: Dict[int, int] = {}
        for leaf, c in pairs:
            idx = var_ids.get(leaf)
            if idx is None:
                idx = var_ids[leaf] = new_var(leaf.name or f"t{leaf.tid}")
            coeffs[idx] = c
        const = -offset
        tag = (atom, pol)
        if atom.kind is Kind.EQ:
            if pol:
                lia.add_eq(coeffs, const, tag)
            else:
                lia.add_diseq(coeffs, const, tag)
        elif atom.kind is Kind.LE:
            if pol:
                lia.add_le(coeffs, const, tag)
            else:
                lia.add_gt(coeffs, const, tag)
        elif pol:  # Kind.LT: linear_atom admits relational atoms only
            lia.add_lt(coeffs, const, tag)
        else:
            lia.add_ge(coeffs, const, tag)

    result = lia.check()
    if result.sat:
        model = {
            v.name or f"t{v.tid}": result.model.get(idx, 0)
            for v, idx in var_ids.items()
        }
        return True, [], model
    core = [t for t in result.core if isinstance(t, tuple) and len(t) == 2]
    if not core:
        core = list(literals)
    return False, core, {}


def result_to_cache_entry(result: CheckResult, cq: CanonicalQuery) -> CachedResult:
    """Project a :class:`CheckResult` onto the canonical numbering of ``cq``."""
    if not result.sat or result.model is None:
        return CachedResult(sat=False, iterations=result.iterations)
    int_idx: Dict[str, int] = {}
    bool_idx: Dict[str, int] = {}
    for idx, var in enumerate(cq.variables):
        name = var.name or ""
        if var.sort is Sort.INT:
            int_idx.setdefault(name, idx)
        else:
            bool_idx.setdefault(name, idx)
    fn_idx = {fn: i for i, fn in enumerate(cq.functions)}
    model = result.model
    return CachedResult(
        sat=True,
        iterations=result.iterations,
        int_values={
            int_idx[n]: v for n, v in model.ints.items() if n in int_idx
        },
        bool_values={
            bool_idx[n]: v for n, v in model.bools.items() if n in bool_idx
        },
        tables={
            fn_idx[fn]: dict(table)
            for fn, table in model.functions.items()
            if fn in fn_idx
        },
        default=model.default,
    )


def cache_entry_to_result(entry: CachedResult, cq: CanonicalQuery) -> CheckResult:
    """Rename a cached canonical result back onto the asking query's leaves."""
    if not entry.sat:
        return CheckResult(sat=False, iterations=entry.iterations)
    model = Model(default=entry.default)
    for idx, value in entry.int_values.items():
        model.ints[cq.variables[idx].name or ""] = value
    for idx, value in entry.bool_values.items():
        model.bools[cq.variables[idx].name or ""] = value
    for fidx, table in entry.tables.items():
        model.functions[cq.functions[fidx]] = dict(table)
    return CheckResult(sat=True, model=model, iterations=entry.iterations)


class Solver:
    """Incremental-feeling SMT solver for QF linear integer arithmetic + EUF.

    Usage::

        tm = TermManager()
        s = Solver(tm)
        x, y = tm.mk_var("x"), tm.mk_var("y")
        h = tm.mk_function("h", 1)
        s.add(tm.mk_eq(x, tm.mk_app(h, [y])))
        result = s.check()
        assert result.sat

    ``push``/``pop`` provide assertion scoping; each :meth:`check` call
    re-encodes from scratch (simple and robust at this project's scale).
    """

    def __init__(
        self,
        manager: Optional[TermManager] = None,
        max_iterations: Optional[int] = None,
        max_conflicts: Optional[int] = None,
        verify_models: bool = True,
        use_cache: bool = True,
    ) -> None:
        budget = current_budget()
        self.tm = manager if manager is not None else TermManager()
        self._assertions: List[Term] = []
        self._scopes: List[int] = []
        self._max_iterations = (
            max_iterations if max_iterations is not None else budget.max_iterations
        )
        self._max_conflicts = (
            max_conflicts if max_conflicts is not None else budget.max_conflicts
        )
        self._verify_models = verify_models
        #: consult the process-wide normalized query cache; safe because
        #: every _check re-encodes from scratch (the answer is a pure
        #: function of the asserted formulas)
        self._use_cache = use_cache
        self.last_iterations = 0

    # -- assertion management ---------------------------------------------------

    def add(self, *formulas: Term) -> None:
        """Assert one or more boolean terms."""
        for f in formulas:
            if f.sort is not Sort.BOOL:
                raise SolverError(f"cannot assert non-boolean term {f}")
            self._assertions.append(f)

    def push(self) -> None:
        """Open an assertion scope."""
        self._scopes.append(len(self._assertions))

    def pop(self) -> None:
        """Close the innermost assertion scope."""
        if not self._scopes:
            raise SolverError("pop without matching push")
        del self._assertions[self._scopes.pop():]

    @property
    def assertions(self) -> List[Term]:
        return list(self._assertions)

    # -- solving -----------------------------------------------------------------

    def check(self, *extra: Term) -> CheckResult:
        """Decide the conjunction of all assertions (plus ``extra``).

        Each query's verdict, lazy-loop iteration count, and wall time are
        recorded into the default metrics registry and emitted as a
        ``solver_query`` event on the current journal (both no-ops unless a
        session installed live sinks).
        """
        registry = default_registry()
        journal = current_journal()
        if not registry.enabled and not journal.enabled:
            return self._check_cached(extra)
        start = perf_counter()
        result = self._check_cached(extra)
        elapsed = perf_counter() - start
        registry.counter("smt.checks").inc()
        registry.counter("smt.sat" if result.sat else "smt.unsat").inc()
        registry.counter("smt.lazy_iterations").inc(result.iterations)
        registry.histogram("smt.check_seconds").observe(elapsed)
        journal.emit(
            "solver_query",
            solver="smt",
            sat=result.sat,
            iterations=result.iterations,
            assertions=len(self._assertions) + len(extra),
            seconds=round(elapsed, 6),
        )
        return result

    def _check_cached(self, extra: Tuple[Term, ...]) -> CheckResult:
        """Answer from the normalized query cache when possible."""
        cache = default_cache() if self._use_cache else None
        if cache is None:
            return self._check(extra)
        goal = list(self._assertions) + list(extra)
        if not goal:
            return CheckResult(sat=True, model=Model())
        cq = canonical_query(goal)
        entry = cache.lookup(cq.key)
        if entry is not None:
            result = cache_entry_to_result(entry, cq)
            self.last_iterations = result.iterations
            return result
        result = self._check(extra)
        cache.store(cq.key, result_to_cache_entry(result, cq))
        return result

    def _check(self, extra: Tuple[Term, ...]) -> CheckResult:
        tm = self.tm
        goal = list(self._assertions) + list(extra)
        if not goal:
            return CheckResult(sat=True, model=Model())
        # fault-injection site: a forced ResourceLimitError here behaves
        # exactly like real budget exhaustion mid-query
        current_fault_plan().fire("solver")

        # 1) eliminate integer ITEs
        flat: List[Term] = []
        for f in goal:
            rewritten, sides = eliminate_int_ite(tm, f)
            flat.append(rewritten)
            flat.extend(sides)

        # 2) Ackermannize UF applications
        pure, app_to_var, consistency = ackermannize(tm, flat)
        all_formulas = pure + consistency

        # 3) boolean encoding
        sat = SatSolver(max_conflicts=self._max_conflicts)
        cnf = CnfConverter(tm, sat)
        for f in all_formulas:
            cnf.assert_formula(f)

        # 4) lazy theory loop
        iterations = 0
        while True:
            iterations += 1
            if iterations > self._max_iterations:
                raise ResourceLimitError(
                    f"lazy SMT loop exceeded {self._max_iterations} iterations"
                )
            sat_result = sat.solve()
            if not sat_result.sat:
                self.last_iterations = iterations
                return CheckResult(sat=False, iterations=iterations)

            literals = cnf.model_literals(sat_result.model)
            theory_lits = [
                (atom, pol) for atom, pol in literals if atom.kind is not Kind.VAR
            ]
            ok, core, int_model = self._check_theory(theory_lits)
            if ok:
                model = self._build_model(
                    tm, sat_result.model, cnf, int_model, app_to_var, flat
                )
                self.last_iterations = iterations
                return CheckResult(sat=True, model=model, iterations=iterations)

            # block this boolean assignment via the conflicting literals
            blocking: List[int] = []
            for atom, pol in core:
                lit = cnf.literal_for(atom)
                blocking.append(-lit if pol else lit)
            if not blocking:
                raise SolverError("theory conflict produced an empty core")
            sat.add_clause(blocking)

    # -- theory checking -------------------------------------------------------------

    def _check_theory(
        self, literals: List[Tuple[Term, bool]]
    ) -> Tuple[bool, List[Tuple[Term, bool]], Dict[str, int]]:
        return check_theory(self.tm, literals)

    # -- model construction ----------------------------------------------------------

    def _build_model(
        self,
        tm: TermManager,
        sat_model: Dict[int, bool],
        cnf: CnfConverter,
        int_model: Dict[str, int],
        app_to_var: Dict[Term, Term],
        original: List[Term],
    ) -> Model:
        model = Model()
        # integer variables mentioned anywhere in the (rewritten) formulas
        for f in original:
            for t in f.iter_dag():
                if t.is_var and t.sort is Sort.INT and t.name is not None:
                    model.ints.setdefault(t.name, int_model.get(t.name, 0))
        for name, value in int_model.items():
            model.ints.setdefault(name, value)
        # boolean atoms that are plain variables
        for atom, svar in cnf.atoms.items():
            if atom.kind is Kind.VAR and atom.sort is Sort.BOOL and svar in sat_model:
                model.bools[atom.name or f"b{atom.tid}"] = sat_model[svar]
        # UF tables from Ackermann variables
        from .evalmodel import evaluate  # local import to avoid a cycle

        for app, var in sorted(app_to_var.items(), key=lambda kv: kv[0].tid):
            assert app.fn is not None
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
        # hide internal helper variables from the user-facing model
        for name in list(model.ints):
            if name.startswith(("_app_", "_ite", "_t")):
                del model.ints[name]

        if self._verify_models:
            self._verify(model, app_to_var)
        return model

    def _verify(self, model: Model, app_to_var: Dict[Term, Term]) -> None:
        from .evalmodel import evaluate

        for f in self._assertions:
            value = evaluate(f, model)
            if value is not True:
                raise SolverError(
                    f"model verification failed: {f} evaluates to {value} "
                    f"under {model}"
                )
