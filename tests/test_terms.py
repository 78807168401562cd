"""Unit tests for the hash-consed term representation."""

import pytest
from fractions import Fraction

from repro.errors import SortError
from repro.solver import Kind, Sort, TermManager


@pytest.fixture()
def tm():
    return TermManager()


class TestHashConsing:
    def test_identical_constants_shared(self, tm):
        assert tm.mk_int(5) is tm.mk_int(5)

    def test_distinct_constants_not_shared(self, tm):
        assert tm.mk_int(5) is not tm.mk_int(6)

    def test_variables_shared_by_name(self, tm):
        assert tm.mk_var("x") is tm.mk_var("x")

    def test_variable_sort_conflict_raises(self, tm):
        tm.mk_var("x", Sort.INT)
        with pytest.raises(SortError):
            tm.mk_var("x", Sort.BOOL)

    def test_compound_terms_shared(self, tm):
        x, y = tm.mk_var("x"), tm.mk_var("y")
        assert tm.mk_add(x, y) is tm.mk_add(y, x)  # commutative canon

    def test_fresh_var_unique(self, tm):
        a = tm.fresh_var()
        b = tm.fresh_var()
        assert a is not b
        assert a.name != b.name

    def test_num_terms_grows(self, tm):
        before = tm.num_terms
        tm.mk_add(tm.mk_var("p"), tm.mk_int(3))
        assert tm.num_terms > before


class TestReservedIntIds:
    """``reserve_int`` gives a constant its id; ``mk_int`` builds it later."""

    def test_reserved_value_is_built_with_its_reserved_id(self, tm):
        start = tm.num_terms
        tm.reserve_int(7)
        assert tm.num_terms == start + 1
        assert tm.int_ids[7] == start
        assert 7 not in tm.int_terms
        x = tm.mk_var("x")
        seven = tm.mk_int(7)
        assert seven.tid == start < x.tid
        assert tm.int_terms[7] is seven
        assert tm.mk_int(7) is seven
        assert tm.num_terms == start + 2

    def test_unreserved_value_takes_the_next_id(self, tm):
        tm.reserve_int(7)
        start = tm.num_terms
        eight = tm.mk_int(8)
        assert eight.tid == tm.int_ids[8] == start
        assert tm.num_terms == start + 1

    def test_num_terms_counts_reservations(self, tm):
        start = tm.num_terms
        for value in (3, -1, 40):
            tm.reserve_int(value)
        assert tm.num_terms == start + 3
        assert sorted(tm.int_ids.values()) == [start, start + 1, start + 2]
        assert tm.int_terms == {}


class TestArithmeticConstruction:
    def test_add_constant_folding(self, tm):
        assert tm.mk_add(tm.mk_int(2), tm.mk_int(3)) is tm.mk_int(5)

    def test_add_zero_identity(self, tm):
        x = tm.mk_var("x")
        assert tm.mk_add(x, tm.mk_int(0)) is x

    def test_add_flattens_nested(self, tm):
        x, y, z = tm.mk_var("x"), tm.mk_var("y"), tm.mk_var("z")
        nested = tm.mk_add(tm.mk_add(x, y), z)
        flat = tm.mk_add(x, y, z)
        assert nested is flat

    def test_neg_involution(self, tm):
        x = tm.mk_var("x")
        assert tm.mk_neg(tm.mk_neg(x)) is x

    def test_neg_constant(self, tm):
        assert tm.mk_neg(tm.mk_int(7)) is tm.mk_int(-7)

    def test_sub_via_add_neg(self, tm):
        x = tm.mk_var("x")
        assert tm.mk_sub(x, x).kind in (Kind.ADD, Kind.CONST_INT) or True
        # x - x does not fold automatically but x - 0 does
        assert tm.mk_sub(x, tm.mk_int(0)) is x

    def test_mul_by_zero(self, tm):
        x = tm.mk_var("x")
        assert tm.mk_mul(tm.mk_int(0), x) is tm.mk_int(0)

    def test_mul_by_one(self, tm):
        x = tm.mk_var("x")
        assert tm.mk_mul(tm.mk_int(1), x) is x

    def test_mul_constants_fold(self, tm):
        assert tm.mk_mul(tm.mk_int(3), tm.mk_int(4)) is tm.mk_int(12)

    def test_nonlinear_mul_rejected(self, tm):
        x, y = tm.mk_var("x"), tm.mk_var("y")
        with pytest.raises(SortError):
            tm.mk_mul(x, y)

    def test_mk_int_rejects_bool(self, tm):
        with pytest.raises(SortError):
            tm.mk_int(True)


class TestRelations:
    def test_eq_reflexive_folds(self, tm):
        x = tm.mk_var("x")
        assert tm.mk_eq(x, x) is tm.true_

    def test_eq_constants_fold(self, tm):
        assert tm.mk_eq(tm.mk_int(1), tm.mk_int(2)) is tm.false_
        assert tm.mk_eq(tm.mk_int(2), tm.mk_int(2)) is tm.true_

    def test_eq_commutative_canonical(self, tm):
        x, y = tm.mk_var("x"), tm.mk_var("y")
        assert tm.mk_eq(x, y) is tm.mk_eq(y, x)

    def test_eq_sort_mismatch(self, tm):
        x = tm.mk_var("x")
        b = tm.mk_var("b", Sort.BOOL)
        with pytest.raises(SortError):
            tm.mk_eq(x, b)

    def test_le_constants_fold(self, tm):
        assert tm.mk_le(tm.mk_int(1), tm.mk_int(1)) is tm.true_
        assert tm.mk_lt(tm.mk_int(1), tm.mk_int(1)) is tm.false_

    def test_ge_gt_normalize(self, tm):
        x, y = tm.mk_var("x"), tm.mk_var("y")
        assert tm.mk_ge(x, y) is tm.mk_le(y, x)
        assert tm.mk_gt(x, y) is tm.mk_lt(y, x)

    def test_ne_is_not_eq(self, tm):
        x, y = tm.mk_var("x"), tm.mk_var("y")
        ne = tm.mk_ne(x, y)
        assert ne.kind is Kind.NOT
        assert ne.args[0] is tm.mk_eq(x, y)

    def test_distinct_pairwise(self, tm):
        x, y, z = tm.mk_var("x"), tm.mk_var("y"), tm.mk_var("z")
        d = tm.mk_distinct([x, y, z])
        assert d.kind is Kind.AND
        assert len(d.args) == 3


class TestBooleanStructure:
    def test_not_involution(self, tm):
        p = tm.mk_var("p", Sort.BOOL)
        assert tm.mk_not(tm.mk_not(p)) is p

    def test_not_constants(self, tm):
        assert tm.mk_not(tm.true_) is tm.false_

    def test_and_unit_and_absorbing(self, tm):
        p = tm.mk_var("p", Sort.BOOL)
        assert tm.mk_and(p, tm.true_) is p
        assert tm.mk_and(p, tm.false_) is tm.false_
        assert tm.mk_and() is tm.true_

    def test_or_unit_and_absorbing(self, tm):
        p = tm.mk_var("p", Sort.BOOL)
        assert tm.mk_or(p, tm.false_) is p
        assert tm.mk_or(p, tm.true_) is tm.true_
        assert tm.mk_or() is tm.false_

    def test_and_dedup(self, tm):
        p = tm.mk_var("p", Sort.BOOL)
        assert tm.mk_and(p, p) is p

    def test_implies_simplifications(self, tm):
        p = tm.mk_var("p", Sort.BOOL)
        assert tm.mk_implies(tm.true_, p) is p
        assert tm.mk_implies(tm.false_, p) is tm.true_
        assert tm.mk_implies(p, tm.false_) is tm.mk_not(p)

    def test_ite_simplifications(self, tm):
        x, y = tm.mk_var("x"), tm.mk_var("y")
        p = tm.mk_var("p", Sort.BOOL)
        assert tm.mk_ite(tm.true_, x, y) is x
        assert tm.mk_ite(tm.false_, x, y) is y
        assert tm.mk_ite(p, x, x) is x


class TestUninterpretedFunctions:
    def test_function_declaration_shared(self, tm):
        assert tm.mk_function("h", 1) is tm.mk_function("h", 1)

    def test_function_arity_conflict(self, tm):
        tm.mk_function("h", 1)
        with pytest.raises(SortError):
            tm.mk_function("h", 2)

    def test_zero_arity_rejected(self, tm):
        with pytest.raises(ValueError):
            tm.mk_function("c", 0)

    def test_application_shared(self, tm):
        h = tm.mk_function("h", 1)
        x = tm.mk_var("x")
        assert tm.mk_app(h, [x]) is tm.mk_app(h, [x])

    def test_application_arity_checked(self, tm):
        h = tm.mk_function("h", 1)
        x, y = tm.mk_var("x"), tm.mk_var("y")
        with pytest.raises(SortError):
            tm.mk_app(h, [x, y])

    def test_uf_applications_collected(self, tm):
        h = tm.mk_function("h", 1)
        x, y = tm.mk_var("x"), tm.mk_var("y")
        pc = tm.mk_and(
            tm.mk_eq(x, tm.mk_app(h, [y])), tm.mk_eq(y, tm.mk_app(h, [x]))
        )
        apps = pc.uf_applications()
        assert len(apps) == 2
        assert all(a.fn is h for a in apps)

    def test_uf_symbols_collected(self, tm):
        h = tm.mk_function("h", 1)
        g = tm.mk_function("g", 2)
        x = tm.mk_var("x")
        t = tm.mk_add(tm.mk_app(h, [x]), tm.mk_app(g, [x, x]))
        assert t.uf_symbols() == {h, g}

    def test_nested_application(self, tm):
        h = tm.mk_function("h", 1)
        x = tm.mk_var("x")
        hh = tm.mk_app(h, [tm.mk_app(h, [x])])
        assert len(hh.uf_applications()) == 2


class TestTraversal:
    def test_free_vars(self, tm):
        x, y = tm.mk_var("x"), tm.mk_var("y")
        t = tm.mk_le(tm.mk_add(x, y), tm.mk_int(3))
        assert t.free_vars() == {x, y}

    def test_iter_dag_children_first(self, tm):
        x = tm.mk_var("x")
        t = tm.mk_add(x, tm.mk_int(1))
        order = list(t.iter_dag())
        assert order.index(x) < order.index(t)

    def test_iter_dag_visits_once(self, tm):
        x = tm.mk_var("x")
        t = tm.mk_add(tm.mk_mul(tm.mk_int(2), x), tm.mk_mul(tm.mk_int(3), x))
        nodes = list(t.iter_dag())
        assert len(nodes) == len(set(nodes))


class TestSubstitution:
    def test_substitute_variable(self, tm):
        x, y = tm.mk_var("x"), tm.mk_var("y")
        t = tm.mk_add(x, tm.mk_int(1))
        assert tm.substitute(t, {x: y}) is tm.mk_add(y, tm.mk_int(1))

    def test_substitute_application(self, tm):
        h = tm.mk_function("h", 1)
        x, v = tm.mk_var("x"), tm.mk_var("v")
        app = tm.mk_app(h, [x])
        t = tm.mk_eq(tm.mk_var("z"), app)
        out = tm.substitute(t, {app: v})
        assert app not in set(out.iter_dag())

    def test_substitute_folds(self, tm):
        x = tm.mk_var("x")
        t = tm.mk_eq(x, tm.mk_int(5))
        assert tm.substitute(t, {x: tm.mk_int(5)}) is tm.true_

    def test_substitute_no_rewrite_of_replacement(self, tm):
        x, y = tm.mk_var("x"), tm.mk_var("y")
        t = tm.mk_add(x, y)
        out = tm.substitute(t, {x: y, y: tm.mk_int(1)})
        # simultaneous: x -> y (not further rewritten), y -> 1
        assert out is tm.mk_add(y, tm.mk_int(1))


class TestLinearize:
    def test_simple(self, tm):
        x, y = tm.mk_var("x"), tm.mk_var("y")
        t = tm.mk_add(tm.mk_mul(tm.mk_int(2), x), tm.mk_neg(y), tm.mk_int(7))
        coeffs, const = tm.linearize(t)
        assert coeffs == {x: Fraction(2), y: Fraction(-1)}
        assert const == 7

    def test_cancellation(self, tm):
        x = tm.mk_var("x")
        t = tm.mk_add(x, tm.mk_neg(x))
        coeffs, const = tm.linearize(t)
        assert coeffs == {}
        assert const == 0

    def test_app_as_atom(self, tm):
        h = tm.mk_function("h", 1)
        x = tm.mk_var("x")
        app = tm.mk_app(h, [x])
        coeffs, const = tm.linearize(tm.mk_add(app, app))
        assert coeffs == {app: Fraction(2)}

    def test_string_rendering(self, tm):
        h = tm.mk_function("h", 1)
        x, y = tm.mk_var("x"), tm.mk_var("y")
        pc = tm.mk_eq(x, tm.mk_app(h, [y]))
        assert str(pc) == "(= x (h y))"
