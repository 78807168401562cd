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
from typing import Dict, Iterable, List, Optional, Set, Tuple, TypeVar

from time import perf_counter

from ..errors import ResourceLimitError
from ..obs.metrics import default_registry
from .simplex import Simplex

__all__ = [
    "LiaSolver",
    "LiaResult",
    "LinearConstraint",
    "NormalForm",
    "normalize_constraint",
]

K = TypeVar("K")


class LinearConstraint:
    """A normalized linear constraint ``sum(coeffs) OP const``.

    ``op`` is one of ``"<="``, ``"="``, ``"!="``.  Coefficients and the
    constant are integers; ``coeffs`` holds ``(variable index, nonzero
    coefficient)`` pairs sorted by index.  A plain slotted class: a lazy
    loop builds tens of thousands of these.
    """

    __slots__ = ("coeffs", "op", "const", "tag")

    def __init__(
        self,
        coeffs: Tuple[Tuple[int, int], ...],
        op: str,
        const: int,
        tag: object = None,
    ) -> None:
        self.coeffs = coeffs
        self.op = op
        self.const = const
        self.tag = tag


@dataclass
class LiaResult:
    """Outcome of a :meth:`LiaSolver.check` call."""

    sat: bool
    model: Dict[int, int] = field(default_factory=dict)
    core: List[object] = field(default_factory=list)
    branches: int = 0


#: ops of :func:`normalize_constraint` for a constraint that holds, or
#: fails, whatever its variables are
TRUE, FALSE = "true", "false"

#: ``(op, ((key, coeff), ...), const)``: a :func:`normalize_constraint` answer
NormalForm = Tuple[str, Tuple[Tuple[K, int], ...], int]


def normalize_constraint(
    op: str, pairs: Iterable[Tuple[K, int]], const: int
) -> NormalForm:
    """Normalize ``sum(coeff * key) OP const`` over the integers.

    ``op`` is one of ``<=``, ``>=``, ``<``, ``>``, ``=``, ``!=``.  The
    answer's op is ``<=``, ``=`` or ``!=`` with the zero coefficients
    dropped and the rest kept in input order: ``>=`` and ``>`` are
    negated, strict bounds move the constant by one, an inequality is
    divided by its coefficient GCD with the constant floored, and an
    equality is divided by its GCD when that divides the constant.  It is
    :data:`TRUE` or :data:`FALSE` (with no pairs) when no variable is left
    or the GCD test refutes an equality.  Keys are opaque:
    :class:`LiaSolver` passes variable indices, ``TermManager.lia_literal``
    passes term ids.
    """
    if op == ">=" or op == ">":
        pairs = [(v, -c) for v, c in pairs]
        const = -const - 1 if op == ">" else -const
        op = "<="
    elif op == "<":
        const -= 1
        op = "<="
    nonzero = tuple((v, c) for v, c in pairs if c != 0)
    if not nonzero:
        if op == "<=":
            holds = const >= 0
        elif op == "=":
            holds = const == 0
        else:
            holds = const != 0
        return (TRUE if holds else FALSE), (), 0
    if op == "!=":
        return op, nonzero, const
    g = 0
    for _, c in nonzero:
        g = math.gcd(g, c)
    if g > 1:
        if op == "=" and const % g:
            return FALSE, (), 0
        const //= g
        nonzero = tuple((v, c // g) for v, c in nonzero)
    return op, nonzero, const


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
    ) -> None:
        self._names: List[str] = []
        self._les: List[LinearConstraint] = []
        self._eqs: List[LinearConstraint] = []
        self._diseqs: List[LinearConstraint] = []
        self._rows = {"<=": self._les, "=": self._eqs, "!=": self._diseqs}
        self._trivially_unsat: Optional[List[object]] = None
        self._max_branches = max_branches
        self._max_pivots = max_pivots
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
        self.add_normal(*normalize_constraint("<=", coeffs.items(), const), tag)

    def add_ge(self, coeffs: Dict[int, int], const: int, tag: object = None) -> None:
        """Add ``sum(coeffs) >= const`` as ``-sum <= -const``."""
        self.add_normal(*normalize_constraint(">=", coeffs.items(), const), tag)

    def add_lt(self, coeffs: Dict[int, int], const: int, tag: object = None) -> None:
        """Add strict ``sum < const``, i.e. ``sum <= const - 1`` over Z."""
        self.add_normal(*normalize_constraint("<", coeffs.items(), const), tag)

    def add_gt(self, coeffs: Dict[int, int], const: int, tag: object = None) -> None:
        """Add strict ``sum > const``, i.e. ``sum >= const + 1`` over Z."""
        self.add_normal(*normalize_constraint(">", coeffs.items(), const), tag)

    def add_eq(self, coeffs: Dict[int, int], const: int, tag: object = None) -> None:
        """Add ``sum(coeffs) = const`` (with GCD divisibility check)."""
        self.add_normal(*normalize_constraint("=", coeffs.items(), const), tag)

    def add_diseq(self, coeffs: Dict[int, int], const: int, tag: object = None) -> None:
        """Add ``sum(coeffs) != const``."""
        self.add_normal(*normalize_constraint("!=", coeffs.items(), const), tag)

    def add_normal(
        self,
        op: str,
        pairs: Iterable[Tuple[int, int]],
        const: int,
        tag: object = None,
    ) -> None:
        """Add a :func:`normalize_constraint` answer keyed by variable index.

        Every constraint enters here: the ``add_*`` methods normalize
        first, and ``check_theory`` passes a manager's memoized form with
        its term ids replaced by this solver's variables.
        """
        rows = self._rows.get(op)
        if rows is not None:
            rows.append(LinearConstraint(tuple(sorted(pairs)), op, const, tag))
        elif op == FALSE:
            self._mark_unsat([tag])

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
                s = sx.add_row({var_map[v]: c for v, c in coeffs})
                form_slack[coeffs] = s
            return s

        conflict: Optional[List[object]] = None
        for con in self._les:
            s = slack_for(con.coeffs)
            conflict = sx.assert_upper(s, con.const, con.tag)
            if conflict:
                break
        if conflict is None:
            for con in self._eqs:
                s = slack_for(con.coeffs)
                conflict = sx.assert_upper(s, con.const, con.tag)
                if conflict:
                    break
                conflict = sx.assert_lower(s, con.const, con.tag)
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
        from .intervals import BoundsAnalysis

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
                floor_v = math.floor(val)
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
                    conflict = sx.assert_upper(sv, con.const - 1, tag)
                    if conflict is not None:
                        conflict = sx.assert_lower(sv, con.const + 1, tag)
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
                sv, con.const - 1, con.const + 1,
                branch_tag,
                extra_core=[con.tag] if con.tag is not None else [],
            )

        model = {i: res.model[sv] for i, sv in enumerate(var_map)}
        return LiaResult(sat=True, model=model)

    def _split(
        self,
        sx: Simplex,
        var_map: List[int],
        diseq_slacks: List[Tuple[int, LinearConstraint]],
        budget: List[int],
        depth: int,
        split_var: int,
        upper_val: int,
        lower_val: int,
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
