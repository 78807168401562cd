"""Interval (bounds) propagation: a presolver for integer linear arithmetic.

Classic bound tightening: given normalized constraints
``sum(c_i * x_i) <= k`` and ``= k``, repeatedly derive variable bounds

    c_j * x_j  <=  k - sum_{i != j} min(c_i * x_i)

until a fixpoint (or a round budget).  Three outcomes:

- a conflict (``lo > hi`` for some variable) with a provenance core of
  constraint tags — the conjunction is UNSAT without ever pivoting;
- tightened variable bounds that seed the simplex and shrink
  branch-and-bound trees;
- nothing, in which case the full decision procedure takes over.

Every derived bound carries the set of constraint tags it depends on, so
conflicts report valid (if not minimal) unsatisfiable cores.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import FrozenSet, List, Optional, Tuple

__all__ = ["Bound", "BoundsAnalysis"]


@dataclass
class Bound:
    """One side of a variable's interval, with provenance tags."""

    value: int
    tags: FrozenSet[object] = frozenset()


#: ``((variable, nonzero coefficient), ...)``, a :class:`LinearConstraint`'s row
Coeffs = Tuple[Tuple[int, int], ...]


@dataclass
class BoundsAnalysis:
    """Interval propagation over normalized linear integer constraints.

    Coefficients come as the LIA solver stores them: a tuple of
    ``(variable, coefficient)`` pairs with no zero coefficient.

    Usage::

        ba = BoundsAnalysis(num_vars)
        ba.add_le(((0, 2), (1, -1)), 5, tag="c1")   # 2*x0 - x1 <= 5
        outcome = ba.propagate()
        if outcome is not None:     # conflict core
            ...
        lo, hi = ba.interval(0)
    """

    num_vars: int
    max_rounds: int = 30
    _les: List[Tuple[Coeffs, int, object]] = field(default_factory=list)
    _lower: List[Optional[Bound]] = field(default_factory=list)
    _upper: List[Optional[Bound]] = field(default_factory=list)

    def __post_init__(self) -> None:
        self._lower = [None] * self.num_vars
        self._upper = [None] * self.num_vars

    # -- constraint intake -------------------------------------------------

    def add_le(self, coeffs: Coeffs, const: int, tag: object = None) -> None:
        """Register ``sum(coeffs) <= const``."""
        if coeffs:
            self._les.append((coeffs, const, tag))

    def add_eq(self, coeffs: Coeffs, const: int, tag: object = None) -> None:
        """Register ``sum(coeffs) = const`` as two inequalities."""
        self.add_le(coeffs, const, tag)
        self.add_le(tuple((v, -c) for v, c in coeffs), -const, tag)

    # -- propagation -----------------------------------------------------------

    def propagate(self) -> Optional[List[object]]:
        """Run propagation; returns a conflict core or None.

        A returned core is a list of constraint tags whose conjunction is
        integer-infeasible.  Propagation stops at the first conflict, which
        can only follow a tightened bound.
        """
        lower, upper = self._lower, self._upper
        for _round in range(self.max_rounds):
            changed = False
            for coeffs, const, tag in self._les:
                # residual = const - sum over other vars of their minimal
                # contribution; derive a bound for each var in turn
                for var, coeff in coeffs:
                    residual = const
                    for other, c2 in coeffs:
                        if other == var:
                            continue
                        bound = lower[other] if c2 > 0 else upper[other]
                        if bound is None:
                            break
                        residual -= c2 * bound.value
                    else:
                        if coeff > 0:
                            # var <= floor(residual / coeff)
                            value = residual // coeff
                            current = upper[var]
                            if current is not None and value >= current.value:
                                continue
                        else:
                            # var >= ceil(residual / coeff) with coeff < 0
                            value = -(residual // -coeff)
                            current = lower[var]
                            if current is not None and value <= current.value:
                                continue
                        changed = True
                        # the bound's provenance: this constraint and the
                        # bounds its residual used, gathered in that order
                        tags = {tag} if tag is not None else set()
                        for other, c2 in coeffs:
                            if other != var:
                                tags |= (lower[other] if c2 > 0 else upper[other]).tags
                        if coeff > 0:
                            upper[var] = Bound(value, frozenset(tags))
                        else:
                            lower[var] = Bound(value, frozenset(tags))
                        lo, hi = lower[var], upper[var]
                        if lo is not None and hi is not None and lo.value > hi.value:
                            return list(lo.tags | hi.tags)
            if not changed:
                return None
        return None

    # -- results --------------------------------------------------------------

    def interval(self, var: int) -> Tuple[Optional[int], Optional[int]]:
        """Current (lower, upper) bounds of ``var``."""
        lo = self._lower[var].value if self._lower[var] is not None else None
        hi = self._upper[var].value if self._upper[var] is not None else None
        return lo, hi
