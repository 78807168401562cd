"""The solver kernels against references kept beside the tests.

- The CDCL decision order (a ``heapq`` of ``(-activity, var)`` entries)
  must pick what a linear scan picks: the unassigned variable of highest
  activity, ties to the lowest variable.
- The integer-first simplex must give the verdicts, models, cores and
  pivot counts of the all-``Fraction`` simplex it replaced
  (``tests/_fraction_simplex.py``), and ``check_theory`` must answer as
  the from-scratch ``check_theory`` did on the ``LiaSolver`` built on
  that simplex (``tests/_fraction_lia.py``).
"""

import random
from fractions import Fraction

from repro.errors import ResourceLimitError
from repro.solver import LiaSolver, SatSolver, Simplex, SolverSession, TermManager
from repro.solver.budget import DEFAULT_BUDGET, use_budget
from repro.solver.smt import check_theory
from tests import _fraction_lia, _fraction_simplex


# -- decision order -------------------------------------------------------------


class _ScanCheckedSat(SatSolver):
    """A SAT solver that checks every decision against a linear scan."""

    def __init__(self, **kwargs):
        super().__init__(**kwargs)
        self.decisions_checked = 0
        self.rescales = 0

    def _decide(self):
        pick = super()._decide()
        best = 0
        for var in range(1, self._num_vars + 1):
            if self._assign[var - 1] == 0 and (
                best == 0 or self._activity[var - 1] > self._activity[best - 1]
            ):
                best = var
        assert pick == best
        self.decisions_checked += 1
        return pick

    def _bump(self, var):
        inc = self._var_inc
        super()._bump(var)
        if self._var_inc < inc:
            self.rescales += 1


def _holds(clauses, model, assumptions=()):
    return all(
        any(model[abs(lit)] == (lit > 0) for lit in clause) for clause in clauses
    ) and all(model[abs(lit)] == (lit > 0) for lit in assumptions)


def _random_clauses(rng, n, m):
    return [
        [rng.randint(1, n) * rng.choice([1, -1]) for _ in range(rng.randint(2, 4))]
        for _ in range(m)
    ]


def _fresh(n, **kwargs):
    s = _ScanCheckedSat(**kwargs)
    for _ in range(n):
        s.new_var()
    return s


class TestDecisionOrder:
    def test_random_cnf(self):
        checked = 0
        for seed in range(60):
            rng = random.Random(seed)
            n = rng.randint(5, 30)
            clauses = _random_clauses(rng, n, rng.randint(n, 4 * n))
            s = _fresh(n)
            for c in clauses:
                s.add_clause(c)
            result = s.solve()
            if result.sat:
                assert _holds(clauses, result.model)
            checked += s.decisions_checked
        assert checked > 0

    def test_pigeonhole(self):
        holes = 5
        s = _fresh(0)
        var = [[s.new_var() for _ in range(holes)] for _ in range(holes + 1)]
        for row in var:
            s.add_clause(row)
        for h in range(holes):
            for p1 in range(holes + 1):
                for p2 in range(p1 + 1, holes + 1):
                    s.add_clause([-var[p1][h], -var[p2][h]])
        assert not s.solve().sat
        assert s.decisions_checked > 0

    def test_incremental_under_assumptions(self):
        checked = 0
        for seed in range(20):
            rng = random.Random(1000 + seed)
            n = rng.randint(8, 20)
            clauses = _random_clauses(rng, n, 2 * n)
            s = _fresh(n)
            for c in clauses:
                s.add_clause(c)
            for _ in range(30):
                assumptions = [
                    v * rng.choice([1, -1])
                    for v in rng.sample(range(1, n + 1), rng.randint(0, 4))
                ]
                result = s.solve(assumptions)
                if result.sat:
                    assert _holds(clauses, result.model, assumptions)
                extra = _random_clauses(rng, n, 1)[0]
                s.add_clause(extra)
                clauses.append(extra)
            checked += s.decisions_checked
        assert checked > 0

    def test_activity_rescale(self):
        # a decay of 1e-30 multiplies the bump by 1e30 per conflict, so a
        # few conflicts cross the 1e100 rescale threshold
        rescales = 0
        for seed in range(40):
            rng = random.Random(2000 + seed)
            n = 12
            clauses = [
                [rng.randint(1, n) * rng.choice([1, -1]) for _ in range(3)]
                for _ in range(50)
            ]
            s = _fresh(n, activity_decay=1e-30)
            for c in clauses:
                s.add_clause(c)
            for _ in range(30):
                assumptions = [
                    v * rng.choice([1, -1])
                    for v in rng.sample(range(1, n + 1), rng.randint(1, 3))
                ]
                result = s.solve(assumptions)
                if result.sat:
                    assert _holds(clauses, result.model, assumptions)
            rescales += s.rescales
        assert rescales >= 10

    def test_heap_stays_bounded_over_a_long_session(self):
        tm = TermManager()
        xs = [tm.mk_var(f"x{i}") for i in range(6)]
        session = SolverSession(tm)
        session.assert_base(tm.mk_le(tm.mk_int(0), xs[0]))
        rng = random.Random(7)
        sat = session._sat
        for _ in range(200):
            session.push()
            a, b = rng.sample(xs, 2)
            k = tm.mk_int(rng.randint(-5, 5))
            session.assert_term(
                tm.mk_or(tm.mk_lt(tm.mk_add(a, k), b), tm.mk_eq(a, tm.mk_add(b, b)))
            )
            session.check()
            session.pop()
            assert len(sat._heap) <= 3 * sat.num_vars() + 1


# -- simplex --------------------------------------------------------------------


def _random_bound(rng):
    return Fraction(rng.randint(-20, 20), rng.choice([1, 1, 1, 2, 3]))


def _assert_integral_ints(model):
    for value in model.values():
        assert type(value) is int or value.denominator != 1


def _run_simplex_pair(seed):
    """Drive both simplexes through one random sequence; compare as we go."""
    rng = random.Random(seed)
    max_pivots = rng.choice([3, 10, 100_000])
    new, ref = Simplex(max_pivots), _fraction_simplex.Simplex(max_pivots)
    variables = []
    for _ in range(rng.randint(2, 5)):
        assert new.new_var() == ref.new_var()
        variables.append(len(variables))
    snaps = []
    stats = {"checks": 0, "unsat": 0, "fractional": 0, "limit": 0}

    def add_row():
        coeffs = {
            v: rng.randint(-3, 3) for v in variables if rng.random() < 0.7
        }
        assert new.add_row(coeffs) == ref.add_row(
            {v: Fraction(c) for v, c in coeffs.items()}
        )
        variables.append(len(variables))
        snaps.clear()  # a snapshot covers the variables of its time

    for _ in range(rng.randint(1, 4)):
        add_row()
    for _ in range(rng.randint(5, 25)):
        op = rng.random()
        if op < 0.45:
            var, bound = rng.choice(variables), _random_bound(rng)
            method = "assert_upper" if rng.random() < 0.5 else "assert_lower"
            tag = (method, var, bound)
            assert getattr(new, method)(var, bound, tag) == getattr(ref, method)(
                var, bound, tag
            )
        elif op < 0.55:
            snaps.append((new.snapshot(), ref.snapshot()))
        elif op < 0.65 and snaps:
            s_new, s_ref = rng.choice(snaps)
            new.restore(s_new)
            ref.restore(s_ref)
        elif op < 0.7:
            add_row()
        else:
            outcomes = []
            for sx in (new, ref):
                try:
                    outcomes.append(sx.check())
                except ResourceLimitError as exc:
                    outcomes.append(repr(exc))
            got, want = outcomes
            assert new.pivot_count == ref.pivot_count
            if isinstance(want, str):
                assert got == want
                stats["limit"] += 1
                return stats
            stats["checks"] += 1
            assert got.sat == want.sat
            assert got.model == want.model
            assert got.core == want.core
            _assert_integral_ints(got.model)
            stats["unsat"] += not got.sat
            stats["fractional"] += any(
                type(v) is not int for v in got.model.values()
            )
        for var in variables:
            assert new.value(var) == ref.value(var)
            assert new.bounds(var) == ref.bounds(var)
    return stats


class TestSimplex:
    def test_matches_fraction_reference(self):
        totals = {"checks": 0, "unsat": 0, "fractional": 0, "limit": 0}
        for seed in range(400):
            for key, value in _run_simplex_pair(seed).items():
                totals[key] += value
        # the sequences reach every outcome, fractional models included
        assert all(totals.values()), totals

    def test_integral_values_are_ints(self):
        sx = Simplex()
        x, y = sx.new_var(), sx.new_var()
        s = sx.add_row({x: 2, y: 4})
        sx.assert_lower(s, 6, "lo")
        result = sx.check()
        assert result.sat and result.model[s] == 6
        _assert_integral_ints(result.model)
        sx.assert_upper(x, 0, "x")
        sx.assert_upper(y, Fraction(3, 2), "y")
        result = sx.check()
        assert result.sat and result.model[y] == Fraction(3, 2)
        assert type(sx.value(s)) is int


# -- LIA and check_theory -----------------------------------------------------------


def _random_constraints(rng, n):
    out = []
    for _ in range(rng.randint(1, 8)):
        coeffs = {v: rng.randint(-4, 4) for v in range(n) if rng.random() < 0.6}
        out.append((rng.choice(["le", "ge", "lt", "gt", "eq", "diseq"]), coeffs,
                    rng.randint(-12, 12)))
    return out


def _lia_outcome(cls, n, constraints, **kwargs):
    lia = cls(**kwargs)
    for i in range(n):
        lia.new_var(f"x{i}")
    for k, (op, coeffs, const) in enumerate(constraints):
        getattr(lia, f"add_{op}")(coeffs, const, tag=k)
    try:
        r = lia.check()
    except ResourceLimitError as exc:
        return repr(exc)
    return repr((r.sat, r.model, r.core, r.branches))


class TestLia:
    def test_matches_fraction_reference(self):
        branched = 0
        for seed in range(400):
            rng = random.Random(seed)
            n = rng.randint(1, 4)
            constraints = _random_constraints(rng, n)
            kwargs = {"max_branches": rng.choice([3, 2_000])}
            got = _lia_outcome(LiaSolver, n, constraints, **kwargs)
            assert got == _lia_outcome(_fraction_lia.LiaSolver, n, constraints, **kwargs)
            branched += "ResourceLimitError" not in got and not got.endswith(", 1)")
        assert branched > 0


def _random_literals(tm, rng, xs):
    literals = []
    for _ in range(rng.randint(1, 7)):
        terms = [
            tm.mk_mul(tm.mk_int(rng.choice([-3, -2, -1, 1, 2, 3])), x)
            for x in rng.sample(xs, rng.randint(1, len(xs)))
        ]
        lhs = tm.mk_add(*terms) if len(terms) > 1 else terms[0]
        rhs = tm.mk_int(rng.randint(-9, 9))
        atom = rng.choice([tm.mk_le, tm.mk_lt, tm.mk_eq])(lhs, rhs)
        literals.append((atom, rng.random() < 0.6))
    return literals


def _theory_outcome(check, tm, literals):
    try:
        return repr(check(tm, literals))
    except ResourceLimitError as exc:
        return repr(exc)


def _compare_theory(tm, literals):
    got = _theory_outcome(check_theory, tm, literals)
    want = _theory_outcome(_fraction_lia.reference_check_theory, tm, literals)
    assert got == want
    return got


class TestCheckTheory:
    def test_random_literal_sets(self):
        tm = TermManager()
        xs = [tm.mk_var(f"x{i}") for i in range(4)]
        verdicts = set()
        for seed in range(300):
            rng = random.Random(seed)
            got = _compare_theory(tm, _random_literals(tm, rng, xs))
            verdicts.add(got[:6])
        assert {"(True,", "(False"} <= verdicts

    def test_branch_and_bound(self):
        # 3x - 2y = 1 with 0 <= x, y <= 5: the relaxation is fractional
        tm = TermManager()
        x, y = tm.mk_var("x"), tm.mk_var("y")
        lhs = tm.mk_sub(tm.mk_mul(tm.mk_int(3), x), tm.mk_mul(tm.mk_int(2), y))
        literals = [
            (tm.mk_eq(lhs, tm.mk_int(1)), True),
            (tm.mk_le(tm.mk_int(0), x), True),
            (tm.mk_le(x, tm.mk_int(5)), True),
            (tm.mk_le(tm.mk_int(0), y), True),
            (tm.mk_le(y, tm.mk_int(5)), True),
            (tm.mk_le(tm.mk_add(x, y), tm.mk_int(2)), False),
        ]
        assert _compare_theory(tm, literals).startswith("(True,")

    def test_disequality_batch_repair(self):
        tm = TermManager()
        xs = [tm.mk_var(f"d{i}") for i in range(4)]
        zero = tm.mk_int(0)
        repaired = [(tm.mk_eq(x, zero), False) for x in xs]
        assert _compare_theory(tm, repaired).startswith("(True,")
        # the batch's all-below guess fails on x + y = 0; fall back to splits
        fallback = repaired[:2] + [
            (tm.mk_eq(tm.mk_add(xs[0], xs[1]), zero), True),
        ]
        assert _compare_theory(tm, fallback).startswith("(True,")

    def test_resource_limit(self):
        tm = TermManager()
        xs = [tm.mk_var(f"r{i}") for i in range(6)]
        zero = tm.mk_int(0)
        literals = [(tm.mk_eq(x, zero), False) for x in xs]
        literals += [(tm.mk_eq(tm.mk_add(*xs), zero), True)]
        with use_budget(DEFAULT_BUDGET.with_(max_branches=2)):
            got = _compare_theory(tm, literals)
        assert "ResourceLimitError" in got
