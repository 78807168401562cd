"""Tests for interval propagation and its integration into the LIA solver.

The LIA solver always runs the presolve; the answers it must agree with
come from the presolve-free reference in ``tests/_fraction_lia.py``.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.solver import LiaSolver
from repro.solver.intervals import BoundsAnalysis
from tests import _fraction_lia


def _solvers():
    """The live solver (presolve on) and the reference (presolve off)."""
    return LiaSolver(), _fraction_lia.LiaSolver(presolve=False)


class TestBoundsAnalysis:
    def test_unit_upper_bound(self):
        ba = BoundsAnalysis(num_vars=1)
        ba.add_le(((0, 1),), 5)
        assert ba.propagate() is None
        assert ba.interval(0) == (None, 5)

    def test_unit_lower_bound(self):
        ba = BoundsAnalysis(num_vars=1)
        ba.add_le(((0, -1),), -3)  # x >= 3
        assert ba.propagate() is None
        assert ba.interval(0) == (3, None)

    def test_coefficient_division_floors(self):
        ba = BoundsAnalysis(num_vars=1)
        ba.add_le(((0, 2),), 7)  # 2x <= 7 -> x <= 3
        ba.propagate()
        assert ba.interval(0) == (None, 3)

    def test_negative_coefficient_ceils(self):
        ba = BoundsAnalysis(num_vars=1)
        ba.add_le(((0, -2),), -7)  # -2x <= -7 -> x >= 4
        ba.propagate()
        assert ba.interval(0) == (4, None)

    def test_direct_conflict(self):
        ba = BoundsAnalysis(num_vars=1)
        ba.add_le(((0, 1),), 2, tag="hi")
        ba.add_le(((0, -1),), -5, tag="lo")  # x >= 5
        core = ba.propagate()
        assert core is not None
        assert set(core) == {"hi", "lo"}

    def test_transitive_propagation(self):
        # x <= 3, y >= x ... encoded: y - x >= 0 is -(x - y) <= 0
        ba = BoundsAnalysis(num_vars=2)
        ba.add_le(((0, 1),), 3, tag="x<=3")
        ba.add_le(((1, -1), (0, 1)), 0, tag="x<=y")   # x - y <= 0
        ba.add_le(((1, 1),), 1, tag="y<=1")
        # no conflict: x <= y? wait x <= 3 and y <= 1 and x <= y is fine (x=0,y=1)
        assert ba.propagate() is None
        lo, hi = ba.interval(0)
        assert hi is not None and hi <= 1  # x <= y <= 1 propagated

    def test_chain_conflict_with_provenance(self):
        # x >= 10, y >= x, y <= 5: conflict involving all three
        ba = BoundsAnalysis(num_vars=2)
        ba.add_le(((0, -1),), -10, tag="x>=10")
        ba.add_le(((0, 1), (1, -1)), 0, tag="x<=y")
        ba.add_le(((1, 1),), 5, tag="y<=5")
        core = ba.propagate()
        assert core is not None
        assert "y<=5" in core
        assert "x>=10" in core

    def test_equality_bounds_both_sides(self):
        ba = BoundsAnalysis(num_vars=1)
        ba.add_eq(((0, 1),), 7, tag="eq")
        ba.propagate()
        assert ba.interval(0) == (7, 7)

    def test_unbounded_vars_do_not_block(self):
        ba = BoundsAnalysis(num_vars=2)
        ba.add_le(((0, 1), (1, 1)), 10)  # neither var bounded alone
        assert ba.propagate() is None
        assert ba.interval(0) == (None, None)

    def test_only_constrained_vars_get_bounds(self):
        ba = BoundsAnalysis(num_vars=3)
        ba.add_le(((0, 1),), 5)
        ba.add_le(((2, -1),), 0)
        assert ba.propagate() is None
        assert ba.interval(0) == (None, 5)
        assert ba.interval(1) == (None, None)
        assert ba.interval(2) == (0, None)


class TestLiaPresolveIntegration:
    def test_presolve_catches_bound_conflict(self):
        lia = LiaSolver()
        x = lia.new_var("x")
        lia.add_ge({x: 1}, 10, tag="ge")
        lia.add_le({x: 1}, 5, tag="le")
        result = lia.check()
        assert not result.sat
        assert lia.presolve_hit
        assert set(result.core) == {"ge", "le"}

    def test_presolve_off_same_verdict(self):
        for lia in _solvers():
            x = lia.new_var("x")
            lia.add_ge({x: 1}, 10)
            lia.add_le({x: 1}, 5)
            assert not lia.check().sat

    def test_presolve_does_not_break_sat(self):
        lia = LiaSolver()
        x, y = lia.new_var("x"), lia.new_var("y")
        lia.add_ge({x: 1}, 0)
        lia.add_le({x: 1, y: 1}, 10)
        result = lia.check()
        assert result.sat and not lia.presolve_hit

    @given(
        bounds=st.lists(
            st.tuples(
                st.integers(0, 2),               # var
                st.sampled_from(["le", "ge"]),
                st.integers(-20, 20),
            ),
            min_size=1,
            max_size=8,
        )
    )
    @settings(max_examples=80, deadline=None)
    def test_presolve_agrees_with_full_solver(self, bounds):
        results = []
        for lia in _solvers():
            variables = [lia.new_var(f"v{i}") for i in range(3)]
            for var, op, const in bounds:
                if op == "le":
                    lia.add_le({variables[var]: 1}, const)
                else:
                    lia.add_ge({variables[var]: 1}, const)
            results.append(lia.check().sat)
        assert results[0] == results[1]
