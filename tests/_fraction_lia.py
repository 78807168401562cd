# Reference copy of the ``LiaSolver`` that ran on the all-``Fraction``
# simplex (tests/_fraction_simplex.py), plus the from-scratch
# ``check_theory`` that drove it (at the end); tests/test_solver_kernels.py
# and tests/test_theory_memo.py check ``check_theory`` against the two.
# Verbatim apart from these headers, the absolute imports, and the
# presolve's intake, which passes the coefficient tuples
# ``BoundsAnalysis`` takes.
"""Linear integer arithmetic decision procedure.

Decides conjunctions of linear constraints over integer variables:

- ``sum(c_i * x_i) <= c``  (and ``>=``, ``<``, ``>`` via normalization)
- ``sum(c_i * x_i) = c``
- ``sum(c_i * x_i) != c``

The procedure layers three classic techniques on the rational
:class:`~repro.solver.simplex.Simplex`:

1. *Normalization & tightening*: every inequality is divided by the GCD of
   its coefficients and its constant floored (sound over integers); every
   equality gets a GCD divisibility test (catching e.g. ``2x = 2y + 1``).
2. *Branch and bound* on fractional variables of the rational relaxation.
3. *Disequality splitting*: a violated ``!= c`` constraint branches into
   ``<= c-1`` and ``>= c+1``.

Conflicts are reported as cores of input-constraint *tags*.  Cores derived
from branching are unions over both branches (valid, not necessarily
minimal).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Dict, List, Optional, Sequence, Set, Tuple

from time import perf_counter

from repro.errors import ResourceLimitError
from repro.obs.metrics import default_registry
from tests._fraction_simplex import Simplex

__all__ = ["LiaSolver", "LiaResult", "LinearConstraint"]


@dataclass(frozen=True)
class LinearConstraint:
    """A normalized linear constraint ``sum(coeffs) OP const``.

    ``op`` is one of ``"<="``, ``"="``, ``"!="``.  Coefficients and the
    constant are integers; coefficient keys are solver variable indices.
    """

    coeffs: Tuple[Tuple[int, int], ...]
    op: str
    const: int
    tag: object = None

    def coeff_dict(self) -> Dict[int, int]:
        return dict(self.coeffs)


@dataclass
class LiaResult:
    """Outcome of a :meth:`LiaSolver.check` call."""

    sat: bool
    model: Dict[int, int] = field(default_factory=dict)
    core: List[object] = field(default_factory=list)
    branches: int = 0


def _normalize_le(coeffs: Dict[int, int], const: int) -> Tuple[Dict[int, int], int]:
    """Tighten ``sum <= const`` by the coefficient GCD (sound over Z)."""
    nonzero = {v: c for v, c in coeffs.items() if c != 0}
    if not nonzero:
        return {}, const
    g = 0
    for c in nonzero.values():
        g = math.gcd(g, abs(c))
    if g > 1:
        nonzero = {v: c // g for v, c in nonzero.items()}
        const //= g
    return nonzero, const


class LiaSolver:
    """One-shot solver for a conjunction of integer linear constraints.

    Usage::

        lia = LiaSolver()
        x, y = lia.new_var("x"), lia.new_var("y")
        lia.add_le({x: 1, y: -1}, -1, tag="x<y")    # x - y <= -1
        lia.add_eq({y: 1}, 5, tag="y=5")
        result = lia.check()
        assert result.sat and result.model[x] <= 4
    """

    def __init__(
        self,
        max_branches: int = 2_000,
        max_pivots: int = 200_000,
        presolve: bool = True,
    ) -> None:
        self._names: List[str] = []
        self._les: List[LinearConstraint] = []
        self._eqs: List[LinearConstraint] = []
        self._diseqs: List[LinearConstraint] = []
        self._trivially_unsat: Optional[List[object]] = None
        self._max_branches = max_branches
        self._max_pivots = max_pivots
        self._presolve = presolve
        #: True when the last check() was settled by interval propagation
        self.presolve_hit = False

    # -- construction ---------------------------------------------------------

    def new_var(self, name: Optional[str] = None) -> int:
        idx = len(self._names)
        self._names.append(name or f"v{idx}")
        return idx

    def num_vars(self) -> int:
        return len(self._names)

    def add_le(self, coeffs: Dict[int, int], const: int, tag: object = None) -> None:
        """Add ``sum(coeffs) <= const``."""
        norm, c = _normalize_le(coeffs, const)
        if not norm:
            if 0 > c:
                self._mark_unsat([tag])
            return
        self._les.append(LinearConstraint(tuple(sorted(norm.items())), "<=", c, tag))

    def add_ge(self, coeffs: Dict[int, int], const: int, tag: object = None) -> None:
        """Add ``sum(coeffs) >= const`` as ``-sum <= -const``."""
        self.add_le({v: -c for v, c in coeffs.items()}, -const, tag)

    def add_lt(self, coeffs: Dict[int, int], const: int, tag: object = None) -> None:
        """Add strict ``sum < const``, i.e. ``sum <= const - 1`` over Z."""
        self.add_le(coeffs, const - 1, tag)

    def add_gt(self, coeffs: Dict[int, int], const: int, tag: object = None) -> None:
        """Add strict ``sum > const``, i.e. ``sum >= const + 1`` over Z."""
        self.add_ge(coeffs, const + 1, tag)

    def add_eq(self, coeffs: Dict[int, int], const: int, tag: object = None) -> None:
        """Add ``sum(coeffs) = const`` (with GCD divisibility check)."""
        nonzero = {v: c for v, c in coeffs.items() if c != 0}
        if not nonzero:
            if const != 0:
                self._mark_unsat([tag])
            return
        g = 0
        for c in nonzero.values():
            g = math.gcd(g, abs(c))
        if g > 1:
            if const % g != 0:
                self._mark_unsat([tag])
                return
            nonzero = {v: c // g for v, c in nonzero.items()}
            const //= g
        self._eqs.append(LinearConstraint(tuple(sorted(nonzero.items())), "=", const, tag))

    def add_diseq(self, coeffs: Dict[int, int], const: int, tag: object = None) -> None:
        """Add ``sum(coeffs) != const``."""
        nonzero = {v: c for v, c in coeffs.items() if c != 0}
        if not nonzero:
            if const == 0:
                self._mark_unsat([tag])
            return
        self._diseqs.append(
            LinearConstraint(tuple(sorted(nonzero.items())), "!=", const, tag)
        )

    def _mark_unsat(self, core: List[object]) -> None:
        if self._trivially_unsat is None:
            self._trivially_unsat = [t for t in core if t is not None]

    # -- solving ------------------------------------------------------------------

    def check(self) -> LiaResult:
        """Decide the conjunction; returns model or conflict core.

        Query counts, verdicts, branch-and-bound effort, and wall time go
        to the default metrics registry (no-op unless a session installed
        a live one).
        """
        registry = default_registry()
        if not registry.enabled:
            return self._check()
        start = perf_counter()
        result = self._check()
        registry.counter("lia.checks").inc()
        registry.counter("lia.sat" if result.sat else "lia.unsat").inc()
        registry.counter("lia.branches").inc(result.branches)
        if self.presolve_hit:
            registry.counter("lia.presolve_conflicts").inc()
        registry.histogram("lia.check_seconds").observe(perf_counter() - start)
        return result

    def _check(self) -> LiaResult:
        self.presolve_hit = False
        if self._trivially_unsat is not None:
            return LiaResult(sat=False, core=list(self._trivially_unsat))

        if self._presolve:
            conflict_core = self._interval_presolve()
            if conflict_core is not None:
                self.presolve_hit = True
                return LiaResult(sat=False, core=conflict_core)

        sx = Simplex(max_pivots=self._max_pivots)
        var_map: List[int] = [sx.new_var() for _ in self._names]
        # one slack row per distinct linear form
        form_slack: Dict[Tuple[Tuple[int, int], ...], int] = {}

        def slack_for(coeffs: Tuple[Tuple[int, int], ...]) -> int:
            s = form_slack.get(coeffs)
            if s is None:
                s = sx.add_row({var_map[v]: Fraction(c) for v, c in coeffs})
                form_slack[coeffs] = s
            return s

        conflict: Optional[List[object]] = None
        for con in self._les:
            s = slack_for(con.coeffs)
            conflict = sx.assert_upper(s, Fraction(con.const), con.tag)
            if conflict:
                break
        if conflict is None:
            for con in self._eqs:
                s = slack_for(con.coeffs)
                conflict = sx.assert_upper(s, Fraction(con.const), con.tag)
                if conflict:
                    break
                conflict = sx.assert_lower(s, Fraction(con.const), con.tag)
                if conflict:
                    break
        if conflict:
            return LiaResult(sat=False, core=[t for t in conflict if t is not None])

        diseq_slacks = [(slack_for(d.coeffs), d) for d in self._diseqs]
        budget = [self._max_branches]
        result = self._branch(sx, var_map, diseq_slacks, budget, depth=0)
        result.branches = self._max_branches - budget[0]
        return result

    def _interval_presolve(self) -> Optional[List[object]]:
        """Interval propagation; a conflict core when provably UNSAT."""
        from repro.solver.intervals import BoundsAnalysis

        ba = BoundsAnalysis(num_vars=len(self._names))
        for con in self._les:
            ba.add_le(con.coeffs, con.const, con.tag)
        for con in self._eqs:
            ba.add_eq(con.coeffs, con.const, con.tag)
        core = ba.propagate()
        if core is None:
            return None
        return [t for t in core if t is not None]

    # -- branch & bound -------------------------------------------------------------

    def _branch(
        self,
        sx: Simplex,
        var_map: List[int],
        diseq_slacks: List[Tuple[int, LinearConstraint]],
        budget: List[int],
        depth: int,
    ) -> LiaResult:
        if budget[0] <= 0:
            raise ResourceLimitError("LIA branch budget exhausted")
        if depth > 400:
            raise ResourceLimitError("LIA branch depth exceeded")
        budget[0] -= 1

        res = sx.check()
        if not res.sat:
            return LiaResult(sat=False, core=[t for t in res.core if t is not None])

        # 1) branch on a fractional problem variable
        for i, sv in enumerate(var_map):
            val = res.model[sv]
            if val.denominator != 1:
                floor_v = Fraction(math.floor(val))
                branch_tag = ("branch-int", self._names[i])
                return self._split(
                    sx, var_map, diseq_slacks, budget, depth,
                    sv, floor_v, floor_v + 1, branch_tag, extra_core=[],
                )

        # 2) all problem vars integral; check disequalities
        violated = [
            (sv, con) for sv, con in diseq_slacks if res.model[sv] == con.const
        ]
        if violated:
            # Greedy batch repair first: assert one side of EVERY violated
            # disequality in a single pass (consistently "below"), then
            # recurse once.  For the common many-distinct-variables shape
            # this avoids the exponential per-diseq branch tree; on failure
            # fall back to sound two-way branching on the first violation.
            if len(violated) > 1:
                snap = sx.snapshot()
                ok = True
                for sv, con in violated:
                    tag = ("branch-diseq", con.tag)
                    conflict = sx.assert_upper(sv, Fraction(con.const - 1), tag)
                    if conflict is not None:
                        conflict = sx.assert_lower(
                            sv, Fraction(con.const + 1), tag
                        )
                        if conflict is not None:
                            ok = False
                            break
                if ok:
                    attempt = self._branch(
                        sx, var_map, diseq_slacks, budget, depth + 1
                    )
                    if attempt.sat:
                        return attempt
                sx.restore(snap)
            sv, con = violated[0]
            branch_tag = ("branch-diseq", con.tag)
            return self._split(
                sx, var_map, diseq_slacks, budget, depth,
                sv, Fraction(con.const - 1), Fraction(con.const + 1),
                branch_tag,
                extra_core=[con.tag] if con.tag is not None else [],
            )

        model = {i: int(res.model[sv]) for i, sv in enumerate(var_map)}
        return LiaResult(sat=True, model=model)

    def _split(
        self,
        sx: Simplex,
        var_map: List[int],
        diseq_slacks: List[Tuple[int, LinearConstraint]],
        budget: List[int],
        depth: int,
        split_var: int,
        upper_val: Fraction,
        lower_val: Fraction,
        branch_tag: object,
        extra_core: List[object],
    ) -> LiaResult:
        """Try ``split_var <= upper_val`` then ``split_var >= lower_val``."""
        snap = sx.snapshot()
        cores: List[object] = []

        conflict = sx.assert_upper(split_var, upper_val, branch_tag)
        if conflict is None:
            left = self._branch(sx, var_map, diseq_slacks, budget, depth + 1)
            if left.sat:
                return left
            cores.extend(left.core)
        else:
            cores.extend(conflict)
        sx.restore(snap)

        conflict = sx.assert_lower(split_var, lower_val, branch_tag)
        if conflict is None:
            right = self._branch(sx, var_map, diseq_slacks, budget, depth + 1)
            if right.sat:
                return right
            cores.extend(right.core)
        else:
            cores.extend(conflict)
        sx.restore(snap)

        seen: Set[object] = set()
        core: List[object] = []
        for t in cores + extra_core:
            if t is None or (isinstance(t, tuple) and t and t[0] in ("branch-int", "branch-diseq")):
                continue
            key = t
            try:
                if key in seen:
                    continue
                seen.add(key)
            except TypeError:
                pass
            core.append(t)
        return LiaResult(sat=False, core=core)


# -- the from-scratch check_theory --------------------------------------------------
# ``repro.solver.smt.check_theory`` before its literals were compiled once
# per manager: every call re-normalizes every literal through ``add_*``.
# ``lia_class`` is this module's ``LiaSolver`` or the live one.


def reference_check_theory(tm, literals, lia_class=LiaSolver):
    from repro.solver.budget import current_budget
    from repro.solver.terms import Kind

    budget = current_budget()
    lia = lia_class(
        max_branches=budget.max_branches, max_pivots=budget.max_pivots
    )
    var_ids = {}
    new_var = lia.new_var

    for atom, pol in literals:
        if atom.kind is Kind.CONST_BOOL:
            if bool(atom.value) != pol:
                return False, [(atom, pol)], {}
            continue
        pairs, offset = tm.linear_atom(atom)
        coeffs = {}
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
        elif pol:
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


def reference_check_theory_live(tm, literals):
    """:func:`reference_check_theory` on the live ``LiaSolver``."""
    from repro.solver.lia import LiaSolver as LiveLiaSolver

    return reference_check_theory(tm, literals, LiveLiaSolver)
