"""The theory-atom memo (``TermManager.linear_atom``) and deep-term walks.

``check_theory`` reads each relational atom's integer linear form from a
per-manager memo instead of re-linearizing it on every lazy-loop
iteration.  These tests pin the memo to a reference ``Fraction``-based
``lhs - rhs`` (pair order included, since pair order decides the LIA
variable numbering), check that a warm memo answers exactly like a cold
one, and keep solver walks over deep linear terms free of recursion.
"""

from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st

from repro.errors import SortError
from repro.solver import (
    Kind,
    Solver,
    Sort,
    SolverSession,
    TermManager,
    evaluate,
    evaluate_with_oracle,
)
from repro.solver.smt import check_theory, eliminate_int_ite

LEAVES = ("x", "y", "z", "hx")


def reference_linearize(term):
    """Recursive ``Fraction`` linear form of one side, zeros dropped."""
    coeffs = {}
    const = Fraction(0)

    def add(t, scale):
        nonlocal const
        if t.kind is Kind.CONST_INT:
            const += scale * t.value
        elif t.kind is Kind.ADD:
            for a in t.args:
                add(a, scale)
        elif t.kind is Kind.NEG:
            add(t.args[0], -scale)
        elif t.kind is Kind.MUL:
            add(t.args[1], scale * t.args[0].value)
        else:
            coeffs[t] = coeffs.get(t, Fraction(0)) + scale

    add(term, Fraction(1))
    return {a: c for a, c in coeffs.items() if c != 0}, const


def reference_linear_atom(atom):
    """``lhs - rhs``: lhs leaves first, then new rhs leaves; cancelled
    leaves keep a 0 entry."""
    lhs, rhs = atom.args
    merged, const_l = reference_linearize(lhs)
    coeffs_r, const_r = reference_linearize(rhs)
    for leaf, c in coeffs_r.items():
        merged[leaf] = merged.get(leaf, Fraction(0)) - c
    return tuple(merged.items()), const_l - const_r


#: a linear term as nested tuples, built per manager by :func:`build`
term_specs = st.recursive(
    st.one_of(st.sampled_from(LEAVES), st.integers(-6, 6)),
    lambda kids: st.one_of(
        st.tuples(st.just("add"), st.lists(kids, min_size=2, max_size=3)),
        st.tuples(st.just("neg"), kids),
        st.tuples(st.just("mul"), st.integers(-3, 3), kids),
    ),
    max_leaves=10,
)


def build(tm, spec):
    if isinstance(spec, int):
        return tm.mk_int(spec)
    if isinstance(spec, str):
        x = tm.mk_var("x")
        if spec == "hx":
            return tm.mk_app(tm.mk_function("h", 1), [x])
        return tm.mk_var(spec)
    op = spec[0]
    if op == "add":
        return tm.mk_add(*(build(tm, s) for s in spec[1]))
    if op == "neg":
        return tm.mk_neg(build(tm, spec[1]))
    return tm.mk_mul(tm.mk_int(spec[1]), build(tm, spec[2]))


RELATIONS = {"eq": "mk_eq", "le": "mk_le", "lt": "mk_lt"}

#: (relation, lhs spec, rhs spec, share): with ``share`` the rhs is
#: ``lhs + rhs`` so every lhs leaf cancels
atom_specs = st.tuples(
    st.sampled_from(sorted(RELATIONS)), term_specs, term_specs, st.booleans()
)


def build_atom(tm, spec):
    relation, lhs_spec, rhs_spec, share = spec
    lhs = build(tm, lhs_spec)
    rhs = build(tm, rhs_spec)
    if share:
        rhs = tm.mk_add(lhs, rhs)
    return getattr(tm, RELATIONS[relation])(lhs, rhs)


class TestLinearAtom:
    @given(spec=atom_specs)
    @settings(max_examples=300, deadline=None)
    def test_matches_fraction_reference_in_order(self, spec):
        tm = TermManager()
        atom = build_atom(tm, spec)
        assume(atom.kind in (Kind.EQ, Kind.LE, Kind.LT))
        pairs, const = tm.linear_atom(atom)
        ref_pairs, ref_const = reference_linear_atom(atom)
        assert [leaf for leaf, _ in pairs] == [leaf for leaf, _ in ref_pairs]
        assert [c for _, c in pairs] == [c for _, c in ref_pairs]
        assert const == ref_const
        assert all(type(c) is int for _, c in pairs) and type(const) is int

    def test_cancelled_leaf_keeps_zero_entry(self):
        tm = TermManager()
        x, y = tm.mk_var("x"), tm.mk_var("y")
        atom = tm.mk_le(tm.mk_add(x, y), tm.mk_add(x, tm.mk_int(3)))
        assert tm.linear_atom(atom) == (((x, 0), (y, 1)), -3)

    def test_memoized_per_atom(self):
        tm = TermManager()
        x = tm.mk_var("x")
        atom = tm.mk_lt(tm.mk_mul(tm.mk_int(2), x), tm.mk_int(7))
        assert tm.linear_atom(atom) is tm.linear_atom(atom)

    def test_rejects_non_relational(self):
        tm = TermManager()
        with pytest.raises(SortError):
            tm.linear_atom(tm.mk_var("b", Sort.BOOL))

    def test_managers_never_share_entries(self):
        tm1, tm2 = TermManager(), TermManager()
        spec = ("le", ("add", ["x", "hx", 4]), ("mul", 2, "y"), False)
        atom1 = build_atom(tm1, spec)
        pairs1, const1 = tm1.linear_atom(atom1)
        assert tm2._linear == {}
        atom2 = build_atom(tm2, spec)
        pairs2, const2 = tm2.linear_atom(atom2)
        assert atom2 not in tm1._linear and atom1 not in tm2._linear
        assert const1 == const2 == 4
        assert [c for _, c in pairs1] == [c for _, c in pairs2]
        assert all(leaf is not other for (leaf, _), (other, _) in zip(pairs1, pairs2))
        assert pairs1[0][0] is tm1.mk_var("x")
        assert pairs2[0][0] is tm2.mk_var("x")


def _bounded_literals(tm, specs, polarities):
    literals = []
    for spec, pol in zip(specs, polarities):
        atom = build_atom(tm, spec)
        if atom.kind in (Kind.EQ, Kind.LE, Kind.LT):
            literals.append((atom, pol))
    for name in ("x", "y", "z"):
        v = tm.mk_var(name)
        literals.append((tm.mk_le(v, tm.mk_int(9)), True))
        literals.append((tm.mk_le(tm.mk_int(-9), v), True))
    return literals


class TestCheckTheoryWarmMemo:
    @given(
        specs=st.lists(atom_specs, min_size=1, max_size=5),
        polarities=st.lists(st.booleans(), min_size=5, max_size=5),
    )
    @settings(max_examples=60, deadline=None)
    def test_cold_and_warm_answers_identical(self, specs, polarities):
        tm = TermManager()
        literals = _bounded_literals(tm, specs, polarities)
        assert tm._linear == {}
        cold = check_theory(tm, literals)
        assert tm._linear
        warm = check_theory(tm, literals)
        assert warm == cold
        # the same query built in a manager with an empty memo
        fresh = TermManager()
        sat, core, model = check_theory(
            fresh, _bounded_literals(fresh, specs, polarities)
        )
        assert (sat, model) == (cold[0], cold[2])
        assert [(str(a), p) for a, p in core] == [
            (str(a), p) for a, p in cold[1]
        ]

    def test_var_ids_follow_first_appearance(self):
        tm = TermManager()
        z, x, y = tm.mk_var("z"), tm.mk_var("x"), tm.mk_var("y")
        # z sorts before x in the first literal, where x cancels to 0
        first = tm.mk_le(tm.mk_add(z, x), tm.mk_add(x, tm.mk_int(1)))
        second = tm.mk_eq(y, tm.mk_int(2))
        sat, core, model = check_theory(tm, [(first, True), (second, True)])
        assert sat and core == []
        assert list(model) == ["z", "x", "y"]
        assert model["y"] == 2 and model["z"] <= 1


def deep_term(tm, depth):
    """``depth`` nested neg / add / mul(-1, ·) levels over an ITE and a UF
    application: the shape a symbolic accumulator updated in a loop has."""
    x = tm.mk_var("x")
    h = tm.mk_function("h", 1)
    acc = tm.mk_add(
        tm.mk_app(h, [x]),
        tm.mk_ite(tm.mk_le(x, tm.mk_int(0)), x, tm.mk_int(2)),
    )
    for i in range(depth):
        step = i % 3
        if step == 0:
            acc = tm.mk_neg(acc)
        elif step == 1:
            acc = tm.mk_add(acc, tm.mk_var(f"y{i % 7}"), tm.mk_int(1))
        else:
            acc = tm.mk_mul(tm.mk_int(-1), acc)
    return acc


DEPTH = 3000


class TestDeepTerms:
    def test_solver_check(self):
        tm = TermManager()
        goal = tm.mk_le(deep_term(tm, DEPTH), tm.mk_int(5))
        result = Solver(tm).check(goal)
        assert result.sat
        assert evaluate(goal, result.model) is True

    def test_session_check(self):
        tm = TermManager()
        goal = tm.mk_le(deep_term(tm, DEPTH), tm.mk_int(5))
        result = SolverSession(tm).check(goal)
        assert result.sat
        assert evaluate(goal, result.model) is True

    def test_linearize_substitute_and_ite_elimination(self):
        tm = TermManager()
        term = deep_term(tm, DEPTH)
        rewritten, sides = eliminate_int_ite(tm, term)
        assert len(sides) == 2
        coeffs, const = tm.linearize(rewritten)
        assert all(type(c) is int for c in coeffs.values())
        app = next(t for t in rewritten.iter_dag() if t.is_app)
        pure = tm.substitute(rewritten, {app: tm.mk_var("a")})
        assert not any(t.is_app for t in pure.iter_dag())


class TestWalkOrder:
    def test_fresh_ite_vars_numbered_left_to_right(self):
        tm = TermManager()
        x, y = tm.mk_var("x"), tm.mk_var("y")
        first = tm.mk_ite(tm.mk_le(x, tm.mk_int(0)), x, tm.mk_int(1))
        second = tm.mk_ite(tm.mk_le(y, tm.mk_int(0)), y, tm.mk_int(2))
        rewritten, sides = eliminate_int_ite(tm, tm.mk_add(first, second))
        fresh = [a for a in rewritten.args if a.is_var]
        assert [v.name for v in fresh] == ["_ite2", "_ite3"]
        assert sides[0].args[0] is first.args[0]
        assert sides[2].args[0] is second.args[0]

    def test_evaluation_short_circuits_left_to_right(self):
        tm = TermManager()
        x = tm.mk_var("x")
        f, g = tm.mk_function("f", 1), tm.mk_function("g", 1)
        fx, gx = tm.mk_app(f, [x]), tm.mk_app(g, [x])
        zero = tm.mk_int(0)
        calls = []

        def oracle(name, args):
            calls.append(name)
            return 1

        # the then-branch is taken: g is never applied
        ite = tm.mk_ite(tm.mk_eq(fx, tm.mk_int(1)), x, gx)
        assert evaluate_with_oracle(ite, {"x": 4}, oracle) == 4
        assert calls == ["f"]
        calls.clear()
        # f(x) = 0 is false, so the conjunction stops before g(x) = 1
        conj = tm.mk_and(tm.mk_eq(fx, zero), tm.mk_eq(gx, tm.mk_int(1)))
        assert evaluate_with_oracle(conj, {"x": 4}, oracle) is False
        assert calls == ["f"]
