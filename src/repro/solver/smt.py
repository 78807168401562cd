"""SMT solver facade: quantifier-free linear integer arithmetic + EUF.

This module glues the components of the from-scratch solver into the
standard ``assert / check / model`` interface used by the rest of the
library:

- :mod:`.terms` — hash-consed formula representation,
- :mod:`.cnf` + :mod:`.sat` — boolean reasoning (CDCL),
- :mod:`.lia` — conjunctive linear integer arithmetic,
- :mod:`.session` — the one encoder: integer-ITE elimination, Ackermann's
  reduction (uninterpreted functions become fresh integer variables plus
  functional-consistency constraints, a classical complete encoding of
  EUF into equality logic for quantifier-free formulas) and Tseitin
  encoding, frame by frame.

The check loop is *lazy SMT*: the SAT solver proposes boolean models, the
LIA solver refutes theory-inconsistent ones with blocking clauses built from
conflict cores, until either a theory-consistent model emerges or the
boolean abstraction is exhausted.  There is one such loop,
:func:`solve_lazily`, and one model builder, :func:`build_model`, both
run by :class:`~repro.solver.session.SolverSession`.  The stateless
:class:`Solver` is a front over the normalized query cache: a miss solves
its whole goal as the base frame of one fresh session, so its answer is a
pure function of the goal.  Both record their checks through
:func:`observe_check`, a :class:`Solver` check once, as ``"smt"``.

Every satisfiable answer is *verified* by evaluating the whole goal under
the constructed model (see :mod:`.evalmodel`): the assertions and the
``check(*extra)`` formulas alike.  A bug anywhere in the solver stack thus
surfaces as a loud :class:`~repro.errors.SolverError` instead of a silently
wrong test input.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import (
    Callable,
    Container,
    Dict,
    Iterable,
    List,
    Optional,
    Sequence,
    Tuple,
)

from time import perf_counter

from ..errors import ResourceLimitError, SolverError
from ..faults import current_fault_plan
from ..obs.journal import current_journal
from ..obs.metrics import default_registry
from .budget import current_budget, use_budget
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

__all__ = ["Solver", "Model", "CheckResult", "check_theory"]


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


def check_theory(
    tm: TermManager, literals: List[Tuple[Term, bool]]
) -> Tuple[bool, List[Tuple[Term, bool]], Dict[str, int]]:
    """Check a conjunction of arithmetic literals with the LIA solver.

    Returns ``(sat, conflict_core, int_model)`` where the core entries are
    (atom, polarity) pairs from the input.  :func:`solve_lazily` calls it
    once per proposed boolean model.  Each literal's constraint is
    compiled once per manager (:meth:`TermManager.lia_literal`); a call
    numbers the leaves and hands the rows to :meth:`LiaSolver.add_normal`.
    Branch and pivot limits come from the ambient
    :func:`~repro.solver.budget.current_budget`.
    """
    budget = current_budget()
    lia = LiaSolver(
        max_branches=budget.max_branches, max_pivots=budget.max_pivots
    )
    # leaf term id -> LIA variable, numbered on first sight
    var_ids: Dict[int, int] = {}
    names: List[str] = []
    new_var = lia.new_var
    add = lia.add_normal
    compiled = tm.lia_literal

    for literal in literals:
        atom = literal[0]
        if atom.kind is Kind.CONST_BOOL:
            if bool(atom.value) != literal[1]:
                return False, [literal], {}
            continue
        leaves, op, pairs, const, tag = compiled(literal)
        for tid, name in leaves:
            if tid not in var_ids:
                var_ids[tid] = new_var(name)
                names.append(name)
        add(op, [(var_ids[tid], c) for tid, c in pairs], const, tag)

    result = lia.check()
    if result.sat:
        values = result.model
        model = {name: values.get(idx, 0) for idx, name in enumerate(names)}
        return True, [], model
    core = [t for t in result.core if isinstance(t, tuple) and len(t) == 2]
    if not core:
        core = list(literals)
    return False, core, {}


def solve_lazily(
    tm: TermManager,
    sat: SatSolver,
    cnf: CnfConverter,
    assumptions: Sequence[int],
    live_atoms: Container[Term],
    max_iterations: int,
    app_vars: Iterable[Tuple[Term, Term]],
    int_vars: Iterable[str],
    goal: Sequence[Term],
) -> CheckResult:
    """The lazy DPLL(T) loop of :class:`~repro.solver.session.SolverSession`.

    The SAT solver proposes a boolean model under ``assumptions``;
    :func:`check_theory` either accepts its arithmetic literals among
    ``live_atoms`` or refutes them, and the refuted assignment is blocked
    by the negated conflict core.  An accepted one becomes the answer's
    model through :func:`build_model` (``app_vars``, ``int_vars``, ``goal``).
    """
    iterations = 0
    while True:
        iterations += 1
        if iterations > max_iterations:
            raise ResourceLimitError(
                f"lazy SMT loop exceeded {max_iterations} iterations"
            )
        sat_result = sat.solve(assumptions)
        if not sat_result.sat:
            return CheckResult(sat=False, iterations=iterations)

        # restrict the theory conjunction to atoms a live assertion can
        # actually observe — a session's retired scopes still own SAT
        # variables, but their unconstrained values must not burden (or
        # refute) the model
        literals = cnf.model_literals(sat_result.model)
        theory_lits = [
            (atom, pol)
            for atom, pol in literals
            if atom.kind is not Kind.VAR and atom in live_atoms
        ]
        ok, core, int_model = check_theory(tm, theory_lits)
        if ok:
            model = build_model(
                sat_result.model, cnf, int_model, app_vars, int_vars, goal
            )
            return CheckResult(sat=True, model=model, iterations=iterations)

        # a theory-conflict core is a lemma about arithmetic, valid in
        # every scope: block it unguarded so a session's later checks
        # inherit it
        blocking: List[int] = []
        for atom, pol in core:
            lit = cnf.literal_for(atom)
            blocking.append(-lit if pol else lit)
        if not blocking:
            raise SolverError("theory conflict produced an empty core")
        sat.add_clause(blocking)


def build_model(
    sat_model: Dict[int, bool],
    cnf: CnfConverter,
    int_model: Dict[str, int],
    app_vars: Iterable[Tuple[Term, Term]],
    int_vars: Iterable[str],
    goal: Sequence[Term],
) -> Model:
    """The user-facing model of a theory-consistent SAT answer.

    Integer values cover every name of ``int_vars`` (the named integer
    variables of the ITE-free formulas, in the order the session's frames
    recorded them) and then the rest of ``int_model``; each
    ``(application, Ackermann variable)`` pair of ``app_vars`` becomes
    a UF table entry.  Every formula of ``goal`` is evaluated under the
    model while the ``_app_``/``_ite``/``_t`` helpers are still in it (a
    failure raises :class:`~repro.errors.SolverError`); then they are
    hidden.
    """
    from .evalmodel import evaluate  # local import to avoid a cycle

    model = Model()
    for name in int_vars:
        model.ints.setdefault(name, int_model.get(name, 0))
    for name, value in int_model.items():
        model.ints.setdefault(name, value)
    # boolean atoms that are plain variables
    for atom, svar in cnf.atoms.items():
        if atom.kind is Kind.VAR and atom.sort is Sort.BOOL and svar in sat_model:
            model.bools[atom.name or f"b{atom.tid}"] = sat_model[svar]
    for app, var in sorted(app_vars, key=lambda kv: kv[0].tid):
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

    for f in goal:
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


def observe_check(
    solver: str, assertions: int, run: Callable[[], CheckResult]
) -> CheckResult:
    """Run one check, recording it when a metrics or journal sink is live.

    The verdict, lazy-loop iteration count and wall time go to the
    default metrics registry (``smt.*``) and to the current journal as a
    ``solver_query`` event labelled ``solver``.
    """
    registry = default_registry()
    journal = current_journal()
    if not registry.enabled and not journal.enabled:
        return run()
    start = perf_counter()
    result = run()
    elapsed = perf_counter() - start
    registry.counter("smt.checks").inc()
    registry.counter("smt.sat" if result.sat else "smt.unsat").inc()
    registry.counter("smt.lazy_iterations").inc(result.iterations)
    registry.histogram("smt.check_seconds").observe(elapsed)
    journal.emit(
        "solver_query",
        solver=solver,
        sat=result.sat,
        iterations=result.iterations,
        assertions=assertions,
        seconds=round(elapsed, 6),
    )
    return result


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
    """SMT solver for QF linear integer arithmetic + EUF.

    Usage::

        tm = TermManager()
        s = Solver(tm)
        x, y = tm.mk_var("x"), tm.mk_var("y")
        h = tm.mk_function("h", 1)
        s.add(tm.mk_eq(x, tm.mk_app(h, [y])))
        result = s.check()
        assert result.sat

    A front over the normalized query cache: each miss solves its goal
    on one fresh :class:`~repro.solver.session.SolverSession`.  Iteration
    and conflict limits come from the
    :func:`~repro.solver.budget.current_budget` at construction.
    """

    def __init__(self, manager: Optional[TermManager] = None) -> None:
        self.tm = manager if manager is not None else TermManager()
        self._assertions: List[Term] = []
        self._budget = current_budget()

    def add(self, *formulas: Term) -> None:
        """Assert one or more boolean terms."""
        for f in formulas:
            if f.sort is not Sort.BOOL:
                raise SolverError(f"cannot assert non-boolean term {f}")
            self._assertions.append(f)

    def check(self, *extra: Term) -> CheckResult:
        """Decide the conjunction of all assertions (plus ``extra``).

        Recorded by :func:`observe_check` as ``solver="smt"``.
        """
        goal = self._assertions + list(extra)
        return observe_check("smt", len(goal), lambda: self._check_cached(goal))

    def _check_cached(self, goal: List[Term]) -> CheckResult:
        """Answer from the normalized query cache when possible.

        Safe because every :meth:`_check` solves on a fresh session: the
        answer is a pure function of the goal.  ``use_cache(None)``
        (:mod:`repro.solver.cache`) turns the cache off.
        """
        if not goal:
            return CheckResult(sat=True, model=Model())
        cache = default_cache()
        if cache is None:
            return self._check(goal)
        cq = canonical_query(goal)
        entry = cache.lookup(cq.key)
        if entry is not None:
            return cache_entry_to_result(entry, cq)
        result = self._check(goal)
        cache.store(cq.key, result_to_cache_entry(result, cq))
        return result

    def _check(self, goal: List[Term]) -> CheckResult:
        from .session import SolverSession  # local import to avoid a cycle

        # fault-injection site: a forced ResourceLimitError here behaves
        # exactly like real budget exhaustion mid-query
        current_fault_plan().fire("solver")
        with use_budget(self._budget):
            session = SolverSession(self.tm)
        session.assert_base(*goal)
        return session._solve(None)
