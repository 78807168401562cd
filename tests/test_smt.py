"""Unit and property tests for the SMT facade (LIA + EUF via Ackermann)."""

import io
import json

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import SolverError
from repro.obs.journal import RunJournal, install_journal
from repro.solver import Solver, TermManager, evaluate, session, smt
from repro.solver.cache import QueryCache, use_cache
from repro.solver.session import SolverSession


@pytest.fixture()
def tm():
    return TermManager()


@pytest.fixture()
def solver(tm):
    return Solver(tm)


class TestPlainArithmetic:
    def test_empty_sat(self, solver):
        assert solver.check().sat

    def test_equality(self, tm, solver):
        x = tm.mk_var("x")
        solver.add(tm.mk_eq(x, tm.mk_int(42)))
        r = solver.check()
        assert r.sat and r.model.ints["x"] == 42

    def test_window_with_diseq(self, tm, solver):
        x = tm.mk_var("x")
        solver.add(
            tm.mk_gt(x, tm.mk_int(5)),
            tm.mk_lt(x, tm.mk_int(8)),
            tm.mk_ne(x, tm.mk_int(7)),
        )
        r = solver.check()
        assert r.sat and r.model.ints["x"] == 6

    def test_unsat_bounds(self, tm, solver):
        x = tm.mk_var("x")
        solver.add(tm.mk_gt(x, tm.mk_int(5)), tm.mk_lt(x, tm.mk_int(5)))
        assert not solver.check().sat

    def test_parity_unsat(self, tm, solver):
        x, y = tm.mk_var("x"), tm.mk_var("y")
        two_x = tm.mk_mul(tm.mk_int(2), x)
        two_y_plus_1 = tm.mk_add(tm.mk_mul(tm.mk_int(2), y), tm.mk_int(1))
        solver.add(tm.mk_eq(two_x, two_y_plus_1))
        assert not solver.check().sat

    def test_assert_non_bool_rejected(self, tm, solver):
        with pytest.raises(SolverError):
            solver.add(tm.mk_int(1))


class TestBooleanStructure:
    def test_disjunction(self, tm, solver):
        x = tm.mk_var("x")
        solver.add(
            tm.mk_or(tm.mk_eq(x, tm.mk_int(1)), tm.mk_eq(x, tm.mk_int(2))),
            tm.mk_ne(x, tm.mk_int(1)),
        )
        r = solver.check()
        assert r.sat and r.model.ints["x"] == 2

    def test_implication(self, tm, solver):
        x, y = tm.mk_var("x"), tm.mk_var("y")
        solver.add(
            tm.mk_implies(tm.mk_gt(x, tm.mk_int(0)), tm.mk_eq(y, tm.mk_int(9))),
            tm.mk_eq(x, tm.mk_int(5)),
        )
        r = solver.check()
        assert r.sat and r.model.ints["y"] == 9

    def test_bool_vars(self, tm, solver):
        from repro.solver import Sort

        p = tm.mk_var("p", Sort.BOOL)
        q = tm.mk_var("q", Sort.BOOL)
        solver.add(tm.mk_or(p, q), tm.mk_not(p))
        r = solver.check()
        assert r.sat and r.model.bools["q"] is True

    def test_assert_false_unsat(self, tm, solver):
        solver.add(tm.false_)
        assert not solver.check().sat

    def test_nested_ite_int(self, tm, solver):
        x, y = tm.mk_var("x"), tm.mk_var("y")
        ite = tm.mk_ite(tm.mk_gt(x, tm.mk_int(0)), tm.mk_int(10), tm.mk_int(20))
        solver.add(tm.mk_eq(y, ite), tm.mk_eq(x, tm.mk_int(3)))
        r = solver.check()
        assert r.sat and r.model.ints["y"] == 10

    def test_ite_else_branch(self, tm, solver):
        x, y = tm.mk_var("x"), tm.mk_var("y")
        ite = tm.mk_ite(tm.mk_gt(x, tm.mk_int(0)), tm.mk_int(10), tm.mk_int(20))
        solver.add(tm.mk_eq(y, ite), tm.mk_eq(x, tm.mk_int(-3)))
        r = solver.check()
        assert r.sat and r.model.ints["y"] == 20


class TestUninterpretedFunctions:
    def test_simple_application_sat(self, tm, solver):
        h = tm.mk_function("h", 1)
        x, y = tm.mk_var("x"), tm.mk_var("y")
        solver.add(tm.mk_eq(x, tm.mk_app(h, [y])))
        r = solver.check()
        assert r.sat
        hv = r.model.apply(h, (r.model.ints["y"],))
        assert r.model.ints["x"] == hv

    def test_functional_consistency_unsat(self, tm, solver):
        h = tm.mk_function("h", 1)
        x, y = tm.mk_var("x"), tm.mk_var("y")
        solver.add(
            tm.mk_eq(x, y),
            tm.mk_ne(tm.mk_app(h, [x]), tm.mk_app(h, [y])),
        )
        assert not solver.check().sat

    def test_functional_consistency_through_arith(self, tm, solver):
        h = tm.mk_function("h", 1)
        x, y = tm.mk_var("x"), tm.mk_var("y")
        # x = y + 0 -> h(x) = h(y)
        solver.add(
            tm.mk_eq(x, tm.mk_add(y, tm.mk_int(0))),
            tm.mk_ne(tm.mk_app(h, [x]), tm.mk_app(h, [y])),
        )
        assert not solver.check().sat

    def test_nested_applications(self, tm, solver):
        h = tm.mk_function("h", 1)
        x = tm.mk_var("x")
        hx = tm.mk_app(h, [x])
        hhx = tm.mk_app(h, [hx])
        solver.add(tm.mk_eq(hhx, tm.mk_int(7)), tm.mk_eq(hx, x))
        r = solver.check()
        # h(x) = x means h(h(x)) = h(x) = x = 7
        assert r.sat and r.model.ints["x"] == 7

    def test_binary_function(self, tm, solver):
        g = tm.mk_function("g", 2)
        x, y = tm.mk_var("x"), tm.mk_var("y")
        solver.add(
            tm.mk_eq(tm.mk_app(g, [x, y]), tm.mk_int(3)),
            tm.mk_eq(tm.mk_app(g, [y, x]), tm.mk_int(4)),
            tm.mk_eq(x, y),
        )
        # g(x,y) and g(y,x) coincide when x=y: 3 != 4 -> unsat
        assert not solver.check().sat

    def test_sample_constraints(self, tm, solver):
        # encode paper-style antecedent: h(42)=567 /\ x = h(y) /\ y = 42
        h = tm.mk_function("h", 1)
        x, y = tm.mk_var("x"), tm.mk_var("y")
        solver.add(
            tm.mk_eq(tm.mk_app(h, [tm.mk_int(42)]), tm.mk_int(567)),
            tm.mk_eq(x, tm.mk_app(h, [y])),
            tm.mk_eq(y, tm.mk_int(42)),
        )
        r = solver.check()
        assert r.sat and r.model.ints["x"] == 567

    def test_arith_inside_application(self, tm, solver):
        h = tm.mk_function("h", 1)
        x, y = tm.mk_var("x"), tm.mk_var("y")
        solver.add(
            tm.mk_ne(
                tm.mk_app(h, [tm.mk_add(x, tm.mk_int(1))]),
                tm.mk_app(h, [tm.mk_add(tm.mk_int(1), y)]),
            ),
            tm.mk_eq(x, y),
        )
        assert not solver.check().sat


class TestModelQuality:
    def test_model_verification_catches_everything(self, tm):
        # a broad sanity pass: verified models never raise
        solver = Solver(tm)
        x, y = tm.mk_var("x"), tm.mk_var("y")
        h = tm.mk_function("h", 1)
        solver.add(
            tm.mk_eq(tm.mk_app(h, [x]), tm.mk_add(tm.mk_app(h, [y]), tm.mk_int(1))),
            tm.mk_gt(x, y),
        )
        r = solver.check()
        assert r.sat

    def test_model_hides_internal_vars(self, tm, solver):
        x = tm.mk_var("x")
        h = tm.mk_function("h", 1)
        solver.add(tm.mk_gt(tm.mk_app(h, [x]), tm.mk_int(0)))
        r = solver.check()
        assert r.sat
        assert all(not name.startswith("_") for name in r.model.ints)

    def test_evaluate_model_consistency(self, tm, solver):
        x, y = tm.mk_var("x"), tm.mk_var("y")
        f = tm.mk_eq(tm.mk_add(x, y), tm.mk_int(10))
        solver.add(f)
        r = solver.check()
        assert r.sat
        assert evaluate(f, r.model) is True

    @pytest.mark.parametrize("route", ["add-then-check", "check-extra", "session-extra"])
    def test_wrong_theory_model_is_caught(self, tm, monkeypatch, route):
        # a theory solver that zeroes every value proposes x = 0 for 5 < x;
        # the model must be refuted whether the goal was asserted or passed
        # to check() as an extra
        real = smt.check_theory

        def zeroing(manager, literals):
            ok, core, model = real(manager, literals)
            return ok, core, {name: 0 for name in model}

        monkeypatch.setattr(smt, "check_theory", zeroing)
        goal = tm.mk_lt(tm.mk_int(5), tm.mk_var("x"))
        with use_cache(None), pytest.raises(
            SolverError, match="model verification failed"
        ):
            if route == "add-then-check":
                solver = Solver(tm)
                solver.add(goal)
                solver.check()
            elif route == "check-extra":
                Solver(tm).check(goal)
            else:
                SolverSession(tm).check(goal)


class TestPushPop:
    """Assertion scopes live on `SolverSession`; `Solver` has none."""

    def test_scoped_assertions(self, tm):
        x = tm.mk_var("x")
        scoped = SolverSession(tm)
        scoped.assert_base(tm.mk_gt(x, tm.mk_int(0)))
        scoped.push()
        scoped.assert_term(tm.mk_lt(x, tm.mk_int(0)))
        assert not scoped.check().sat
        scoped.pop()
        assert scoped.check().sat

    def test_pop_without_push_raises(self, tm):
        with pytest.raises(SolverError):
            SolverSession(tm).pop()

    def test_check_with_extra(self, tm, solver):
        x = tm.mk_var("x")
        solver.add(tm.mk_gt(x, tm.mk_int(0)))
        assert not solver.check(tm.mk_lt(x, tm.mk_int(0))).sat
        assert solver.check().sat  # extra did not persist

    def test_session_check_with_extra(self, tm):
        x = tm.mk_var("x")
        scoped = SolverSession(tm)
        scoped.assert_base(tm.mk_gt(x, tm.mk_int(0)))
        assert not scoped.check(tm.mk_lt(x, tm.mk_int(0))).sat
        assert scoped.check().sat  # extra did not persist

    def test_non_boolean_assertions_rejected(self, tm, solver):
        with pytest.raises(SolverError, match="non-boolean"):
            solver.add(tm.mk_int(1))
        with pytest.raises(SolverError, match="non-boolean"):
            SolverSession(tm).assert_base(tm.mk_int(1))


class TestStatelessCheck:
    """A `Solver` check is a query-cache front over one fresh session."""

    def _count_sessions(self, monkeypatch):
        built = []
        init = session.SolverSession.__init__

        def counting(self, *args, **kwargs):
            built.append(self)
            init(self, *args, **kwargs)

        monkeypatch.setattr(session.SolverSession, "__init__", counting)
        return built

    def test_miss_builds_one_session_and_a_hit_none(self, tm, monkeypatch):
        built = self._count_sessions(monkeypatch)
        x = tm.mk_var("x")
        goal = [tm.mk_gt(x, tm.mk_int(3)), tm.mk_lt(x, tm.mk_int(9))]
        with use_cache(QueryCache()):
            first = Solver(tm).check(*goal)
            assert len(built) == 1
            again = Solver(tm).check(*goal)
            assert len(built) == 1
        assert first.sat and again.sat
        assert first.model.ints == again.model.ints

    def test_emits_one_solver_query_event(self, tm):
        x = tm.mk_var("x")
        solver = Solver(tm)
        solver.add(tm.mk_gt(x, tm.mk_int(3)))
        sink = io.StringIO()
        with use_cache(None), RunJournal(sink) as journal, \
                install_journal(journal):
            assert solver.check(tm.mk_lt(x, tm.mk_int(9))).sat
        events = [json.loads(line) for line in sink.getvalue().splitlines()]
        queries = [e for e in events if e["kind"] == "solver_query"]
        assert [(e["solver"], e["assertions"]) for e in queries] == [("smt", 2)]


class TestAckermannization:
    """The session's Ackermann reduction (the only one)."""

    def test_rewrites_remove_applications(self, tm):
        h = tm.mk_function("h", 1)
        x = tm.mk_var("x")
        scoped = SolverSession(tm)
        scoped.assert_base(tm.mk_eq(tm.mk_app(h, [x]), tm.mk_int(1)))
        assert len(scoped._app_mapping) == 1
        assert scoped._base.atoms
        for atom in scoped._base.atoms:
            assert not any(t.is_app for t in atom.iter_dag())

    def test_pairwise_constraints_count(self, tm):
        h = tm.mk_function("h", 1)
        xs = [tm.mk_var(f"k{i}") for i in range(4)]
        fs = [tm.mk_eq(tm.mk_app(h, [x]), tm.mk_int(0)) for x in xs]
        scoped = SolverSession(tm)
        scoped.assert_base(*fs)
        assert len(scoped._app_mapping) == 4
        # the four formulas, then one constraint per pair: C(4,2)
        assert len(scoped._base.original) - len(fs) == 6

    def test_nested_apps_use_inner_var(self, tm):
        h = tm.mk_function("h", 1)
        x = tm.mk_var("x")
        hx = tm.mk_app(h, [x])
        hhx = tm.mk_app(h, [hx])
        goal = tm.mk_eq(hhx, tm.mk_int(0))
        scoped = SolverSession(tm)
        scoped.assert_base(goal)
        assert scoped._app_args[hhx] == (scoped._app_mapping[hx],)
        # no APP nodes survive anywhere: not in the consistency
        # constraint, not in the encoded atoms
        constraints = [f for f in scoped._base.original if f is not goal]
        assert len(constraints) == 1
        for formula in constraints:
            assert not any(t.is_app for t in formula.iter_dag())
        for atom in scoped._base.atoms:
            assert not any(t.is_app for t in atom.iter_dag())


@st.composite
def arith_formula(draw, tm_holder):
    """Random small formulas over x, y with +, comparisons, and/or/not."""
    tm = tm_holder["tm"]
    x, y = tm.mk_var("x"), tm.mk_var("y")

    def atom():
        lhs = draw(
            st.sampled_from(
                [x, y, tm.mk_add(x, y), tm.mk_sub(x, y), tm.mk_mul(tm.mk_int(2), x)]
            )
        )
        c = tm.mk_int(draw(st.integers(min_value=-8, max_value=8)))
        op = draw(st.sampled_from(["eq", "le", "lt", "ne"]))
        return {
            "eq": tm.mk_eq,
            "le": tm.mk_le,
            "lt": tm.mk_lt,
            "ne": tm.mk_ne,
        }[op](lhs, c)

    formula = atom()
    for _ in range(draw(st.integers(min_value=0, max_value=3))):
        conn = draw(st.sampled_from(["and", "or", "not"]))
        if conn == "and":
            formula = tm.mk_and(formula, atom())
        elif conn == "or":
            formula = tm.mk_or(formula, atom())
        else:
            formula = tm.mk_not(formula)
    return formula


class TestPropertySat:
    @given(data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_models_always_verify(self, data):
        tm = TermManager()
        holder = {"tm": tm}
        formula = data.draw(arith_formula(holder))
        solver = Solver(tm)
        solver.add(formula)
        # bound the search space to keep branch&bound snappy
        x, y = tm.mk_var("x"), tm.mk_var("y")
        for v in (x, y):
            solver.add(tm.mk_ge(v, tm.mk_int(-32)), tm.mk_le(v, tm.mk_int(32)))
        result = solver.check()
        if result.sat:
            assert evaluate(formula, result.model) is True

    @given(data=st.data())
    @settings(max_examples=40, deadline=None)
    def test_agreement_with_brute_force(self, data):
        tm = TermManager()
        holder = {"tm": tm}
        formula = data.draw(arith_formula(holder))
        solver = Solver(tm)
        solver.add(formula)
        x, y = tm.mk_var("x"), tm.mk_var("y")
        for v in (x, y):
            solver.add(tm.mk_ge(v, tm.mk_int(-10)), tm.mk_le(v, tm.mk_int(10)))
        result = solver.check()

        from repro.solver import Model

        brute = any(
            evaluate(formula, Model(ints={"x": a, "y": b}))
            for a in range(-10, 11)
            for b in range(-10, 11)
        )
        assert result.sat == brute
