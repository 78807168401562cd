"""A CDCL SAT solver.

This is the boolean engine underneath the lazy SMT loop in
:mod:`repro.solver.smt`.  It implements the standard conflict-driven clause
learning architecture:

- two-watched-literal unit propagation,
- first-UIP conflict analysis with clause learning,
- non-chronological backjumping,
- VSIDS-style variable activities with exponential decay, decided from a
  :mod:`heapq` of ``(-activity, var)`` entries (the highest activity among
  unassigned variables, ties to the lowest variable),
- Luby-sequence restarts,
- incremental solving under assumptions.

Literals use the DIMACS convention: variables are positive integers, the
literal ``v`` means "v is true" and ``-v`` means "v is false".
"""

from __future__ import annotations

from dataclasses import dataclass, field
from heapq import heapify, heappop, heappush
from time import perf_counter
from typing import Dict, List, Optional, Sequence, Set, Tuple

from ..errors import ResourceLimitError, SolverError
from ..obs.metrics import default_registry

__all__ = ["SatSolver", "SatResult", "SatStats"]


@dataclass
class SatStats:
    """Counters describing the work a :class:`SatSolver` has done."""

    decisions: int = 0
    propagations: int = 0
    conflicts: int = 0
    learned_clauses: int = 0
    restarts: int = 0
    max_decision_level: int = 0

    def to_dict(self) -> Dict[str, int]:
        """Plain-dict view, the shape ``repro stats`` renders."""
        return {
            "decisions": self.decisions,
            "propagations": self.propagations,
            "conflicts": self.conflicts,
            "learned_clauses": self.learned_clauses,
            "restarts": self.restarts,
            "max_decision_level": self.max_decision_level,
        }

    def __repr__(self) -> str:
        inner = " ".join(f"{k}={v}" for k, v in self.to_dict().items())
        return f"SatStats({inner})"


@dataclass
class SatResult:
    """Outcome of a :meth:`SatSolver.solve` call."""

    sat: bool
    #: Full assignment as ``{var: bool}``; empty when unsatisfiable.
    model: Dict[int, bool] = field(default_factory=dict)
    #: Subset of failed assumptions (as literals) when UNSAT under assumptions.
    core: List[int] = field(default_factory=list)


def _luby(i: int) -> int:
    """The i-th element (1-based) of the Luby restart sequence."""
    while True:
        k = 1
        while (1 << k) - 1 < i:
            k += 1
        # now 2**(k-1) <= i <= 2**k - 1
        if i == (1 << k) - 1:
            return 1 << (k - 1)
        i -= (1 << (k - 1)) - 1


class _Clause:
    __slots__ = ("lits", "learned", "activity")

    def __init__(self, lits: List[int], learned: bool) -> None:
        self.lits = lits
        self.learned = learned
        self.activity = 0.0

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"Clause({self.lits})"


class SatSolver:
    """Conflict-driven clause-learning SAT solver.

    Usage::

        s = SatSolver()
        v1, v2 = s.new_var(), s.new_var()
        s.add_clause([v1, v2])
        s.add_clause([-v1])
        result = s.solve()
        assert result.sat and result.model[v2] is True
    """

    def __init__(
        self,
        max_conflicts: Optional[int] = None,
        enable_restarts: bool = True,
        activity_decay: float = 0.95,
    ) -> None:
        self.stats = SatStats()
        self._num_vars = 0
        self._clauses: List[_Clause] = []
        # assignment trail
        self._assign: List[int] = []       # var -> 0 unassigned, 1 true, -1 false
        self._level: List[int] = []        # var -> decision level
        self._reason: List[Optional[_Clause]] = []
        self._trail: List[int] = []
        self._trail_lim: List[int] = []
        self._qhead = 0
        # watches: literal -> clauses watching it; indexed by encoded literal
        self._watches: Dict[int, List[_Clause]] = {}
        # activity
        self._activity: List[float] = []
        self._var_inc = 1.0
        self._var_decay = activity_decay
        # decision order: a heapq of (-activity, var) entries.  Every
        # variable flagged _in_heap has an entry at its current activity;
        # entries whose activity is out of date, or whose variable is no
        # longer flagged, are stale and skipped by _decide.  Every
        # unassigned variable is flagged (_backtrack re-pushes any that
        # _decide dropped), so the first live root is the unassigned
        # variable of highest activity, ties to the lowest variable.
        self._heap: List[Tuple[float, int]] = []
        self._in_heap: List[bool] = []
        self._max_conflicts = max_conflicts
        self._enable_restarts = enable_restarts
        self._n_assumed = 0
        self._ok = True  # False once a top-level conflict is derived

    # -- problem construction ------------------------------------------------

    def new_var(self) -> int:
        """Allocate a fresh variable and return its positive index."""
        self._num_vars += 1
        self._assign.append(0)
        self._level.append(0)
        self._reason.append(None)
        self._activity.append(0.0)
        self._in_heap.append(True)
        heappush(self._heap, (-0.0, self._num_vars))
        return self._num_vars

    def num_vars(self) -> int:
        return self._num_vars

    def add_clause(self, lits: Sequence[int]) -> bool:
        """Add a clause; returns False if the formula became trivially UNSAT.

        The clause may be added at decision level 0 only (between solves or
        before the first solve); the lazy SMT loop always backtracks to the
        root before adding theory lemmas.
        """
        if self._trail_lim:
            raise SolverError("add_clause requires decision level 0")
        if not self._ok:
            return False
        assign, level, num_vars = self._assign, self._level, self._num_vars
        seen: Set[int] = set()
        out: List[int] = []
        for lit in lits:
            var = lit if lit > 0 else -lit
            if var == 0 or var > num_vars:
                raise SolverError(f"unknown variable in literal {lit}")
            if -lit in seen:
                return True  # tautology
            if lit in seen:
                continue
            val = assign[var - 1]
            if val and level[var - 1] == 0:
                if val == (1 if lit > 0 else -1):
                    return True  # already satisfied at root
                continue  # falsified at root; drop literal
            seen.add(lit)
            out.append(lit)
        if not out:
            self._ok = False
            return False
        if len(out) == 1:
            if not self._enqueue(out[0], None):
                self._ok = False
                return False
            conflict = self._propagate()
            if conflict is not None:
                self._ok = False
                return False
            return True
        clause = _Clause(out, learned=False)
        self._clauses.append(clause)
        self._watch(clause)
        return True

    def _watch(self, clause: _Clause) -> None:
        self._watches.setdefault(-clause.lits[0], []).append(clause)
        self._watches.setdefault(-clause.lits[1], []).append(clause)

    # -- assignment helpers ----------------------------------------------------

    def _value(self, lit: int) -> int:
        """1 if lit is true, -1 if false, 0 if unassigned."""
        v = self._assign[abs(lit) - 1]
        return v if lit > 0 else -v

    def _enqueue(self, lit: int, reason: Optional[_Clause]) -> bool:
        val = self._value(lit)
        if val == 1:
            return True
        if val == -1:
            return False
        var = abs(lit)
        self._assign[var - 1] = 1 if lit > 0 else -1
        self._level[var - 1] = len(self._trail_lim)
        self._reason[var - 1] = reason
        self._trail.append(lit)
        self.stats.propagations += 1
        return True

    def _propagate(self) -> Optional[_Clause]:
        """Unit propagation; returns a conflicting clause or None.

        :meth:`_value` and :meth:`_enqueue` are inlined: this loop is the
        solver's hottest.
        """
        trail, watches, assign = self._trail, self._watches, self._assign
        level, reason = self._level, self._reason
        depth = len(self._trail_lim)
        qhead = self._qhead
        enqueued = 0
        conflict_clause: Optional[_Clause] = None
        while qhead < len(trail):
            lit = trail[qhead]
            qhead += 1
            watchers = watches.get(lit)
            if not watchers:
                continue
            keep: List[_Clause] = []
            for idx, clause in enumerate(watchers):
                lits = clause.lits
                # ensure the false literal is at position 1
                first = lits[0]
                if first == -lit:
                    first = lits[0] = lits[1]
                    lits[1] = -lit
                val = assign[first - 1] if first > 0 else -assign[-first - 1]
                if val == 1:
                    keep.append(clause)
                    continue
                # look for a new literal to watch
                for k in range(2, len(lits)):
                    other = lits[k]
                    if (assign[other - 1] if other > 0 else -assign[-other - 1]) != -1:
                        lits[1], lits[k] = other, lits[1]
                        watches.setdefault(-other, []).append(clause)
                        break
                else:
                    keep.append(clause)
                    if val == -1:
                        # conflict: restore untouched watchers and report
                        keep.extend(watchers[idx + 1:])
                        conflict_clause = clause
                        break
                    var = first if first > 0 else -first
                    assign[var - 1] = 1 if first > 0 else -1
                    level[var - 1] = depth
                    reason[var - 1] = clause
                    trail.append(first)
                    enqueued += 1
            watches[lit] = keep
            if conflict_clause is not None:
                break
        self._qhead = qhead
        self.stats.propagations += enqueued
        return conflict_clause

    # -- conflict analysis --------------------------------------------------------

    def _bump(self, var: int) -> None:
        activity = self._activity
        act = activity[var - 1] = activity[var - 1] + self._var_inc
        if act > 1e100:
            for i in range(self._num_vars):
                activity[i] *= 1e-100
            self._var_inc *= 1e-100
            self._rebuild_heap()
        elif self._in_heap[var - 1]:
            heappush(self._heap, (-act, var))
            if len(self._heap) > 3 * self._num_vars:
                self._rebuild_heap()

    def _rebuild_heap(self) -> None:
        """Drop every stale entry: one entry per unassigned variable."""
        activity = self._activity
        assign = self._assign
        self._in_heap = [value == 0 for value in assign]
        self._heap = [
            (-activity[i], i + 1) for i in range(self._num_vars) if assign[i] == 0
        ]
        heapify(self._heap)

    def _analyze(self, conflict: _Clause) -> Tuple[List[int], int]:
        """First-UIP analysis; returns (learned clause, backjump level)."""
        learned: List[int] = [0]  # placeholder for the asserting literal
        seen = [False] * self._num_vars
        counter = 0
        lit = 0
        reason: Optional[_Clause] = conflict
        index = len(self._trail) - 1
        cur_level = len(self._trail_lim)

        while True:
            assert reason is not None
            for q in reason.lits:
                # skip the literal we are resolving on: the asserted literal
                # of this reason clause is the trail literal, i.e. -lit
                if q == -lit:
                    continue
                var = abs(q)
                if not seen[var - 1] and self._level[var - 1] > 0:
                    seen[var - 1] = True
                    self._bump(var)
                    if self._level[var - 1] >= cur_level:
                        counter += 1
                    else:
                        learned.append(q)
            # pick next literal to expand from the trail
            while not seen[abs(self._trail[index]) - 1]:
                index -= 1
            lit = -self._trail[index]
            var = abs(lit)
            seen[var - 1] = False
            index -= 1
            counter -= 1
            if counter == 0:
                break
            reason = self._reason[var - 1]
        learned[0] = lit

        if len(learned) == 1:
            return learned, 0
        # find the second-highest level among learned literals
        max_i = 1
        for i in range(2, len(learned)):
            if self._level[abs(learned[i]) - 1] > self._level[abs(learned[max_i]) - 1]:
                max_i = i
        learned[1], learned[max_i] = learned[max_i], learned[1]
        return learned, self._level[abs(learned[1]) - 1]

    def _backtrack(self, level: int) -> None:
        if len(self._trail_lim) <= level:
            return
        limit = self._trail_lim[level]
        for lit in reversed(self._trail[limit:]):
            var = abs(lit)
            self._assign[var - 1] = 0
            self._reason[var - 1] = None
            if not self._in_heap[var - 1]:
                self._in_heap[var - 1] = True
                heappush(self._heap, (-self._activity[var - 1], var))
        del self._trail[limit:]
        del self._trail_lim[level:]
        self._qhead = min(self._qhead, len(self._trail))

    # -- decision heuristics -------------------------------------------------------

    def _decide(self) -> int:
        """Pick the unassigned variable with maximal activity; 0 when none.

        Stale entries at the root are popped; so is the live entry of an
        assigned variable, which re-enters through :meth:`_backtrack`.
        """
        heap = self._heap
        activity = self._activity
        assign = self._assign
        in_heap = self._in_heap
        while heap:
            neg_act, var = heap[0]
            if in_heap[var - 1] and -neg_act == activity[var - 1]:
                if assign[var - 1] == 0:
                    return var
                in_heap[var - 1] = False
            heappop(heap)
        return 0

    # -- main search --------------------------------------------------------------

    def solve(self, assumptions: Sequence[int] = ()) -> SatResult:
        """Search for a model under the given assumption literals.

        Work deltas (conflicts, decisions, propagations) and wall time of
        each query are recorded into the default metrics registry — only
        here at the query boundary, never inside the inner loops.
        """
        registry = default_registry()
        if not registry.enabled:
            return self._solve(assumptions)
        start = perf_counter()
        before = (
            self.stats.conflicts,
            self.stats.decisions,
            self.stats.propagations,
        )
        result = self._solve(assumptions)
        registry.counter("sat.queries").inc()
        registry.counter("sat.sat" if result.sat else "sat.unsat").inc()
        registry.counter("sat.conflicts").inc(self.stats.conflicts - before[0])
        registry.counter("sat.decisions").inc(self.stats.decisions - before[1])
        registry.counter("sat.propagations").inc(
            self.stats.propagations - before[2]
        )
        registry.histogram("sat.solve_seconds").observe(perf_counter() - start)
        return result

    def _solve(self, assumptions: Sequence[int] = ()) -> SatResult:
        if not self._ok:
            return SatResult(sat=False)
        self._backtrack(0)
        conflict = self._propagate()
        if conflict is not None:
            self._ok = False
            return SatResult(sat=False)

        conflicts_since_restart = 0
        restart_number = 1
        restart_budget = 32 * _luby(restart_number)

        while True:
            conflict = self._propagate()
            if conflict is not None:
                self.stats.conflicts += 1
                conflicts_since_restart += 1
                if (
                    self._max_conflicts is not None
                    and self.stats.conflicts > self._max_conflicts
                ):
                    raise ResourceLimitError(
                        f"SAT conflict budget {self._max_conflicts} exhausted"
                    )
                if len(self._trail_lim) == 0:
                    self._ok = False
                    return SatResult(sat=False)
                # conflict below assumption depth: compute an assumption core
                if len(self._trail_lim) <= self._n_assumed:
                    core = self._assumption_core(conflict, assumptions)
                    self._backtrack(0)
                    return SatResult(sat=False, core=core)
                learned, back_level = self._analyze(conflict)
                back_level = max(back_level, self._n_assumed)
                self._backtrack(back_level)
                if len(learned) == 1:
                    if not self._enqueue(learned[0], None):
                        self._ok = False
                        return SatResult(sat=False)
                else:
                    clause = _Clause(learned, learned=True)
                    self._clauses.append(clause)
                    self.stats.learned_clauses += 1
                    self._watch(clause)
                    self._enqueue(learned[0], clause)
                self._var_inc /= self._var_decay
                continue

            if (
                self._enable_restarts
                and conflicts_since_restart >= restart_budget
                and len(self._trail_lim) > self._n_assumed
            ):
                self.stats.restarts += 1
                restart_number += 1
                restart_budget = 32 * _luby(restart_number)
                conflicts_since_restart = 0
                self._backtrack(self._n_assumed)
                continue

            # place assumptions first, one decision level per assumption
            pending = None
            while len(self._trail_lim) < len(assumptions):
                a = assumptions[len(self._trail_lim)]
                val = self._value(a)
                if val == -1:
                    core = self._assumption_core(None, assumptions, failed=a)
                    self._backtrack(0)
                    return SatResult(sat=False, core=core)
                if val == 1:
                    # already implied; open an empty level to keep indices aligned
                    self._trail_lim.append(len(self._trail))
                    continue
                pending = a
                break
            # only levels that hold assumptions count as assumed: a conflict
            # under ordinary decisions above them is learned from, not a core
            self._n_assumed = min(len(self._trail_lim), len(assumptions))
            if pending is not None:
                self._trail_lim.append(len(self._trail))
                self._n_assumed = len(self._trail_lim)
                self._enqueue(pending, None)
                continue

            var = self._decide()
            if var == 0:
                model = {v: a == 1 for v, a in enumerate(self._assign, 1)}
                self._backtrack(0)
                self._n_assumed = 0
                return SatResult(sat=True, model=model)
            self.stats.decisions += 1
            self._trail_lim.append(len(self._trail))
            self.stats.max_decision_level = max(
                self.stats.max_decision_level, len(self._trail_lim)
            )
            # phase saving could go here; default to False first
            self._enqueue(-var, None)

    def _assumption_core(
        self,
        conflict: Optional[_Clause],
        assumptions: Sequence[int],
        failed: Optional[int] = None,
    ) -> List[int]:
        """Conservative unsat core: the set of assumptions currently assigned.

        A precise core would resolve the conflict back through reasons; for
        the SMT loop's purposes (blocking clause minimization happens at the
        theory level) the conservative core is sufficient.
        """
        core = [a for a in assumptions if self._value(a) != 0]
        if failed is not None and failed not in core:
            core.append(failed)
        return core
