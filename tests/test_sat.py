"""Unit and property tests for the CDCL SAT solver."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import SolverError
from repro.solver import SatSolver


def make_solver(n_vars):
    s = SatSolver()
    variables = [s.new_var() for _ in range(n_vars)]
    return s, variables


class TestBasics:
    def test_empty_formula_sat(self):
        s = SatSolver()
        assert s.solve().sat

    def test_single_unit(self):
        s, (v,) = make_solver(1)
        s.add_clause([v])
        r = s.solve()
        assert r.sat and r.model[v] is True

    def test_contradicting_units(self):
        s, (v,) = make_solver(1)
        s.add_clause([v])
        assert not s.add_clause([-v]) or not s.solve().sat

    def test_simple_implication_chain(self):
        s, (a, b, c) = make_solver(3)
        s.add_clause([a])
        s.add_clause([-a, b])
        s.add_clause([-b, c])
        r = s.solve()
        assert r.sat and r.model[a] and r.model[b] and r.model[c]

    def test_requires_search(self):
        s, (a, b) = make_solver(2)
        s.add_clause([a, b])
        s.add_clause([-a, b])
        s.add_clause([a, -b])
        r = s.solve()
        assert r.sat and r.model[a] and r.model[b]

    def test_unsat_4clauses(self):
        s, (a, b) = make_solver(2)
        s.add_clause([a, b])
        s.add_clause([-a, b])
        s.add_clause([a, -b])
        s.add_clause([-a, -b])
        assert not s.solve().sat

    def test_tautology_ignored(self):
        s, (a,) = make_solver(1)
        assert s.add_clause([a, -a])
        assert s.solve().sat

    def test_duplicate_literal_collapsed(self):
        s, (a,) = make_solver(1)
        s.add_clause([a, a])
        r = s.solve()
        assert r.sat and r.model[a]

    def test_unknown_variable_rejected(self):
        s = SatSolver()
        with pytest.raises(SolverError):
            s.add_clause([1])

    def test_solve_twice_stable(self):
        s, (a, b) = make_solver(2)
        s.add_clause([a, b])
        r1 = s.solve()
        r2 = s.solve()
        assert r1.sat and r2.sat

    def test_incremental_clause_addition(self):
        s, (a, b) = make_solver(2)
        s.add_clause([a, b])
        assert s.solve().sat
        s.add_clause([-a])
        r = s.solve()
        assert r.sat and r.model[b]
        s.add_clause([-b])
        assert not s.solve().sat


class TestAssumptions:
    def test_sat_under_assumption(self):
        s, (a, b) = make_solver(2)
        s.add_clause([a, b])
        r = s.solve(assumptions=[-a])
        assert r.sat and r.model[b]

    def test_unsat_under_assumption(self):
        s, (a, b) = make_solver(2)
        s.add_clause([a, b])
        r = s.solve(assumptions=[-a, -b])
        assert not r.sat
        assert r.core  # some failed assumptions reported

    def test_solver_reusable_after_assumption_unsat(self):
        s, (a,) = make_solver(1)
        s.add_clause([a])
        assert not s.solve(assumptions=[-a]).sat
        assert s.solve().sat


def _pigeonhole(holes):
    """PHP(holes+1, holes): unsatisfiable pigeonhole principle."""
    s = SatSolver()
    pigeons = holes + 1
    var = [[s.new_var() for _ in range(holes)] for _ in range(pigeons)]
    for p in range(pigeons):
        s.add_clause([var[p][h] for h in range(holes)])
    for h in range(holes):
        for p1 in range(pigeons):
            for p2 in range(p1 + 1, pigeons):
                s.add_clause([-var[p1][h], -var[p2][h]])
    return s


class TestHardInstances:
    @pytest.mark.parametrize("holes", [2, 3, 4, 5])
    def test_pigeonhole_unsat(self, holes):
        assert not _pigeonhole(holes).solve().sat

    def test_php_learns_clauses(self):
        s = _pigeonhole(4)
        s.solve()
        assert s.stats.conflicts > 0

    def test_chain_xor_sat(self):
        # x1 xor x2, x2 xor x3, ... encoded as CNF; satisfiable
        s = SatSolver()
        n = 20
        v = [s.new_var() for _ in range(n)]
        for i in range(n - 1):
            s.add_clause([v[i], v[i + 1]])
            s.add_clause([-v[i], -v[i + 1]])
        r = s.solve()
        assert r.sat
        for i in range(n - 1):
            assert r.model[v[i]] != r.model[v[i + 1]]


def _check_model(clauses, model):
    return all(
        any((lit > 0) == model[abs(lit)] for lit in clause) for clause in clauses
    )


def _brute_force_sat(clauses, n):
    for bits in range(1 << n):
        model = {v: bool(bits >> (v - 1) & 1) for v in range(1, n + 1)}
        if _check_model(clauses, model):
            return True
    return False


@st.composite
def random_cnf(draw):
    n = draw(st.integers(min_value=1, max_value=8))
    m = draw(st.integers(min_value=1, max_value=24))
    clauses = []
    for _ in range(m):
        width = draw(st.integers(min_value=1, max_value=3))
        clause = [
            draw(st.integers(min_value=1, max_value=n))
            * (1 if draw(st.booleans()) else -1)
            for _ in range(width)
        ]
        clauses.append(clause)
    return n, clauses


class TestAgainstBruteForce:
    @given(random_cnf())
    @settings(max_examples=150, deadline=None)
    def test_matches_brute_force(self, problem):
        n, clauses = problem
        s = SatSolver()
        for _ in range(n):
            s.new_var()
        ok = True
        for c in clauses:
            ok = s.add_clause(c) and ok
        result = s.solve()
        expected = _brute_force_sat(clauses, n)
        assert result.sat == expected
        if result.sat:
            assert _check_model(clauses, result.model)

    @given(st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=30, deadline=None)
    def test_random_3sat_model_is_valid(self, seed):
        rng = random.Random(seed)
        n, m = 12, 40
        s = SatSolver()
        variables = [s.new_var() for _ in range(n)]
        clauses = []
        for _ in range(m):
            clause = [
                rng.choice(variables) * rng.choice([1, -1]) for _ in range(3)
            ]
            clauses.append(clause)
            s.add_clause(clause)
        r = s.solve()
        if r.sat:
            assert _check_model(clauses, r.model)


class TestLuby:
    def test_first_fifteen_terms(self):
        from repro.solver.sat import _luby

        assert [_luby(i) for i in range(1, 16)] == [
            1, 1, 2, 1, 1, 2, 4, 1, 1, 2, 1, 1, 2, 4, 8,
        ]


#: 9 variables; x3, x8 and x9 true satisfies every clause
_UNSOUND_REPRODUCER = [
    [7, -6, 5], [2, 3, -9], [9, 5, -8], [1, -5, 9], [6, 7, 8], [-7, -4, 3],
    [4, 1, -7],
]


def _random_3cnf(rng):
    n = rng.randint(3, 10)
    clauses = [
        [rng.randint(1, n) * rng.choice([1, -1]) for _ in range(3)]
        for _ in range(rng.randint(1, 45))
    ]
    return n, clauses


class TestSoundness:
    def test_random_3cnf_matches_brute_force(self):
        problems = [(9, _UNSOUND_REPRODUCER)]
        rng = random.Random(0)
        problems += [_random_3cnf(rng) for _ in range(300)]
        for n, clauses in problems:
            s = SatSolver()
            for _ in range(n):
                s.new_var()
            for c in clauses:
                s.add_clause(c)
            result = s.solve()
            assert result.sat == _brute_force_sat(clauses, n), clauses
            if result.sat:
                assert _check_model(clauses, result.model)

    def test_long_solve_survives_restarts(self):
        # a conflict under plain decisions once read as an assumption
        # failure, so PHP(6) came back UNSAT after 2 conflicts, no restart
        s = _pigeonhole(6)
        assert not s.solve().sat
        assert s.stats.restarts >= 1
