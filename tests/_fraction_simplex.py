# Reference copy of the all-``Fraction`` simplex that preceded the
# integer-first kernel in ``repro.solver.simplex``; tests/test_solver_kernels.py
# checks the kernel against it.  Verbatim apart from this header and the
# absolute import of ``repro.errors``.
"""General simplex for linear rational arithmetic (Dutertre–de Moura style).

This is the feasibility engine underneath the linear *integer* arithmetic
solver in :mod:`repro.solver.lia`.  It decides conjunctions of bound
constraints over a tableau of linear forms, produces rational models, and
explains infeasibility as a conflict set of asserted-bound *tags*.

The design follows the solver described in "A Fast Linear-Arithmetic Solver
for DPLL(T)" (Dutertre & de Moura, CAV 2006):

- every linear form gets a *slack variable* defined by a tableau row,
- asserting a constraint only adjusts variable bounds,
- a Bland-rule pivoting loop restores feasibility or yields a conflict.

All arithmetic is exact (:class:`fractions.Fraction`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.errors import ResourceLimitError, SolverError

__all__ = ["Simplex", "SimplexResult"]


@dataclass
class SimplexResult:
    """Outcome of a :meth:`Simplex.check` call."""

    sat: bool
    #: Variable assignment (rational) when satisfiable.
    model: Dict[int, Fraction] = field(default_factory=dict)
    #: Tags of asserted bounds forming an infeasible subset when UNSAT.
    core: List[object] = field(default_factory=list)


class Simplex:
    """Incremental simplex over rationals with bound assertions.

    Variables are integer indices allocated by :meth:`new_var`.  Rows are
    added with :meth:`add_row`, defining a fresh *slack* variable equal to a
    linear combination of existing variables.  Constraints are asserted as
    upper/lower bounds on any variable; each carries an opaque tag used in
    conflict explanations.
    """

    def __init__(self, max_pivots: int = 100_000) -> None:
        self._n = 0
        self._beta: List[Fraction] = []
        self._lower: List[Optional[Fraction]] = []
        self._upper: List[Optional[Fraction]] = []
        self._lower_tag: List[object] = []
        self._upper_tag: List[object] = []
        # tableau: basic var -> {nonbasic var: coefficient}
        self._rows: Dict[int, Dict[int, Fraction]] = {}
        self._basic: Set[int] = set()
        # column index: nonbasic var -> set of basic vars whose row mentions it
        self._col: Dict[int, Set[int]] = {}
        self._max_pivots = max_pivots
        self.pivot_count = 0

    # -- construction ------------------------------------------------------

    def new_var(self) -> int:
        """Allocate a fresh unbounded variable with value 0."""
        idx = self._n
        self._n += 1
        self._beta.append(Fraction(0))
        self._lower.append(None)
        self._upper.append(None)
        self._lower_tag.append(None)
        self._upper_tag.append(None)
        self._col[idx] = set()
        return idx

    def add_row(self, coeffs: Dict[int, Fraction]) -> int:
        """Define a slack variable ``s = sum(coeffs)`` and return its index.

        The linear form is expressed over currently *nonbasic or basic*
        variables; basic variables are substituted by their rows so the
        tableau stays in canonical form.
        """
        slack = self.new_var()
        row: Dict[int, Fraction] = {}
        for var, coeff in coeffs.items():
            if coeff == 0:
                continue
            if var in self._basic:
                for v2, c2 in self._rows[var].items():
                    row[v2] = row.get(v2, Fraction(0)) + coeff * c2
            else:
                row[var] = row.get(var, Fraction(0)) + coeff
        row = {v: c for v, c in row.items() if c != 0}
        self._rows[slack] = row
        self._basic.add(slack)
        for v in row:
            self._col[v].add(slack)
        self._beta[slack] = sum(
            (c * self._beta[v] for v, c in row.items()), Fraction(0)
        )
        return slack

    # -- bound assertion -----------------------------------------------------

    def assert_upper(self, var: int, bound: Fraction, tag: object) -> Optional[List[object]]:
        """Assert ``var <= bound``; returns a conflict core or None."""
        lo = self._lower[var]
        if lo is not None and bound < lo:
            return [self._lower_tag[var], tag]
        up = self._upper[var]
        if up is not None and bound >= up:
            return None  # not tighter
        self._upper[var] = bound
        self._upper_tag[var] = tag
        if var not in self._basic and self._beta[var] > bound:
            self._update(var, bound)
        return None

    def assert_lower(self, var: int, bound: Fraction, tag: object) -> Optional[List[object]]:
        """Assert ``var >= bound``; returns a conflict core or None."""
        up = self._upper[var]
        if up is not None and bound > up:
            return [self._upper_tag[var], tag]
        lo = self._lower[var]
        if lo is not None and bound <= lo:
            return None
        self._lower[var] = bound
        self._lower_tag[var] = tag
        if var not in self._basic and self._beta[var] < bound:
            self._update(var, bound)
        return None

    def snapshot(self) -> Tuple[list, list, list, list]:
        """Capture bounds state for later :meth:`restore` (used by B&B)."""
        return (
            list(self._lower),
            list(self._upper),
            list(self._lower_tag),
            list(self._upper_tag),
        )

    def restore(self, snap: Tuple[list, list, list, list]) -> None:
        """Restore bounds from a snapshot (assignments stay as-is)."""
        self._lower, self._upper, self._lower_tag, self._upper_tag = (
            list(snap[0]),
            list(snap[1]),
            list(snap[2]),
            list(snap[3]),
        )

    # -- feasibility ----------------------------------------------------------

    def _update(self, var: int, value: Fraction) -> None:
        delta = value - self._beta[var]
        if delta == 0:
            return
        for basic in self._col.get(var, ()):  # basic rows using var
            self._beta[basic] += self._rows[basic][var] * delta
        self._beta[var] = value

    def _pivot_and_update(self, xi: int, xj: int, value: Fraction) -> None:
        """Pivot basic xi with nonbasic xj, then set xi's value to ``value``."""
        row = self._rows[xi]
        a_ij = row[xj]
        theta = (value - self._beta[xi]) / a_ij
        self._beta[xi] = value
        self._beta[xj] += theta
        for basic in list(self._col.get(xj, ())):
            if basic is not xi and basic != xi:
                self._beta[basic] += self._rows[basic][xj] * theta
        self._pivot(xi, xj)

    def _pivot(self, xi: int, xj: int) -> None:
        """Swap basic xi with nonbasic xj in the tableau."""
        row = self._rows.pop(xi)
        self._basic.discard(xi)
        a_ij = row.pop(xj)
        for v in row:
            self._col[v].discard(xi)
        self._col[xj].discard(xi)
        # xj = (xi - sum_{v != j} a_v v) / a_ij
        new_row: Dict[int, Fraction] = {xi: Fraction(1) / a_ij}
        for v, c in row.items():
            new_row[v] = -c / a_ij
        self._rows[xj] = new_row
        self._basic.add(xj)
        for v in new_row:
            self._col.setdefault(v, set()).add(xj)
        # substitute xj in all other rows
        for basic in list(self._col.get(xj, ())):
            if basic == xj:
                continue
            brow = self._rows[basic]
            coeff = brow.pop(xj, None)
            if coeff is None:
                continue
            self._col[xj].discard(basic)
            for v, c in new_row.items():
                old = brow.get(v, Fraction(0))
                new = old + coeff * c
                if new == 0:
                    if v in brow:
                        del brow[v]
                        self._col[v].discard(basic)
                else:
                    brow[v] = new
                    self._col[v].add(basic)

    def check(self) -> SimplexResult:
        """Restore feasibility w.r.t. all bounds, or report a conflict."""
        while True:
            self.pivot_count += 1
            if self.pivot_count > self._max_pivots:
                raise ResourceLimitError("simplex pivot budget exhausted")
            # Bland's rule: smallest violating basic variable
            xi = None
            for var in sorted(self._basic):
                lo, up = self._lower[var], self._upper[var]
                if lo is not None and self._beta[var] < lo:
                    xi = (var, True)
                    break
                if up is not None and self._beta[var] > up:
                    xi = (var, False)
                    break
            if xi is None:
                return SimplexResult(
                    sat=True, model={v: self._beta[v] for v in range(self._n)}
                )
            var, need_increase = xi
            row = self._rows[var]
            xj = None
            for v in sorted(row):
                c = row[v]
                if need_increase:
                    can = (c > 0 and self._can_increase(v)) or (
                        c < 0 and self._can_decrease(v)
                    )
                else:
                    can = (c > 0 and self._can_decrease(v)) or (
                        c < 0 and self._can_increase(v)
                    )
                if can:
                    xj = v
                    break
            if xj is None:
                core = self._explain_row(var, need_increase)
                return SimplexResult(sat=False, core=core)
            target = self._lower[var] if need_increase else self._upper[var]
            assert target is not None
            self._pivot_and_update(var, xj, target)

    def _can_increase(self, var: int) -> bool:
        up = self._upper[var]
        return up is None or self._beta[var] < up

    def _can_decrease(self, var: int) -> bool:
        lo = self._lower[var]
        return lo is None or self._beta[var] > lo

    def _explain_row(self, var: int, need_increase: bool) -> List[object]:
        """Conflict: the violated bound of ``var`` plus blocking bounds."""
        core: List[object] = []
        if need_increase:
            core.append(self._lower_tag[var])
            for v, c in self._rows[var].items():
                core.append(self._upper_tag[v] if c > 0 else self._lower_tag[v])
        else:
            core.append(self._upper_tag[var])
            for v, c in self._rows[var].items():
                core.append(self._lower_tag[v] if c > 0 else self._upper_tag[v])
        return [t for t in core if t is not None]

    # -- introspection ----------------------------------------------------------

    def value(self, var: int) -> Fraction:
        """Current assignment of ``var``."""
        return self._beta[var]

    def bounds(self, var: int) -> Tuple[Optional[Fraction], Optional[Fraction]]:
        """Current (lower, upper) bounds of ``var``."""
        return self._lower[var], self._upper[var]
