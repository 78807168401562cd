"""Property tests for the Tseitin CNF converter.

For random boolean formulas over three atoms, the CNF encoding must be
*equisatisfiable per assignment*: for every truth assignment of the
atoms, the SAT solver restricted to that assignment accepts exactly when
the formula evaluates true.
"""

import itertools

from hypothesis import given, settings, strategies as st

from repro.solver import Model, SatSolver, Sort, TermManager, evaluate
from repro.solver.cnf import CnfConverter


def random_formula(tm, draw, depth):
    p = tm.mk_var("p", Sort.BOOL)
    q = tm.mk_var("q", Sort.BOOL)
    r = tm.mk_var("r", Sort.BOOL)
    leaves = [p, q, r, tm.true_, tm.false_]
    if depth == 0:
        return draw(st.sampled_from(leaves))
    op = draw(st.sampled_from(["not", "and", "or", "implies", "ite", "leaf"]))
    if op == "leaf":
        return draw(st.sampled_from(leaves))
    if op == "not":
        return tm.mk_not(random_formula(tm, draw, depth - 1))
    a = random_formula(tm, draw, depth - 1)
    b = random_formula(tm, draw, depth - 1)
    if op == "and":
        return tm.mk_and(a, b)
    if op == "or":
        return tm.mk_or(a, b)
    if op == "implies":
        return tm.mk_implies(a, b)
    c = random_formula(tm, draw, depth - 1)
    return tm.mk_ite(a, b, c)


class TestTseitinEquisatisfiability:
    @given(data=st.data())
    @settings(max_examples=100, deadline=None)
    def test_per_assignment_agreement(self, data):
        tm = TermManager()
        formula = random_formula(tm, data.draw, data.draw(st.integers(1, 3)))
        sat = SatSolver()
        cnf = CnfConverter(tm, sat)
        sat.add_clause([cnf.literal_for(formula)])

        atom_vars = {}
        for name in ("p", "q", "r"):
            var = tm.mk_var(name, Sort.BOOL)
            svar = cnf.atoms.get(var)
            if svar is not None:
                atom_vars[name] = svar

        for bits in itertools.product([False, True], repeat=len(atom_vars)):
            assignment = dict(zip(atom_vars, bits))
            assumptions = [
                (svar if assignment[name] else -svar)
                for name, svar in atom_vars.items()
            ]
            sat_result = sat.solve(assumptions=assumptions)
            model = Model(bools=dict(assignment))
            expected = evaluate(formula, model)
            assert sat_result.sat == bool(expected), (
                f"{formula} under {assignment}"
            )

    def test_atoms_map_is_stable(self):
        tm = TermManager()
        sat = SatSolver()
        cnf = CnfConverter(tm, sat)
        x = tm.mk_var("x")
        atom = tm.mk_gt(x, tm.mk_int(0))
        lit1 = cnf.literal_for(atom)
        lit2 = cnf.literal_for(atom)
        assert lit1 == lit2
        assert cnf.atoms[atom] == abs(lit1)

    def test_model_literals_roundtrip(self):
        tm = TermManager()
        sat = SatSolver()
        cnf = CnfConverter(tm, sat)
        x = tm.mk_var("x")
        a1 = tm.mk_gt(x, tm.mk_int(0))
        a2 = tm.mk_lt(x, tm.mk_int(9))
        sat.add_clause([cnf.literal_for(tm.mk_and(a1, a2))])
        result = sat.solve()
        assert result.sat
        lits = dict(cnf.model_literals(result.model))
        assert lits[a1] is True and lits[a2] is True

    def test_boolean_iff_encoded(self):
        tm = TermManager()
        sat = SatSolver()
        cnf = CnfConverter(tm, sat)
        p = tm.mk_var("p", Sort.BOOL)
        q = tm.mk_var("q", Sort.BOOL)
        sat.add_clause([cnf.literal_for(tm.mk_eq(p, q))])
        sat.add_clause([cnf.literal_for(p)])
        result = sat.solve()
        assert result.sat
        assert result.model[cnf.atoms[q]] is True


class TestSimplexInvariants:
    """After any check(), the tableau must be internally consistent."""

    def _assert_invariants(self, sx):
        from fractions import Fraction

        for basic, row in sx._rows.items():
            expected = sum(
                (c * sx._beta[v] for v, c in row.items()), Fraction(0)
            )
            assert sx._beta[basic] == expected, "row equation violated"
        for var in range(sx._n):
            if var in sx._basic:
                continue
            lo, hi = sx.bounds(var)
            value = sx.value(var)
            if lo is not None:
                assert value >= lo, "nonbasic below lower bound"
            if hi is not None:
                assert value <= hi, "nonbasic above upper bound"

    @given(seed=st.integers(min_value=0, max_value=50_000))
    @settings(max_examples=80, deadline=None)
    def test_invariants_after_random_session(self, seed):
        import random
        from fractions import Fraction

        from repro.solver import Simplex

        rng = random.Random(seed)
        sx = Simplex()
        variables = [sx.new_var() for _ in range(3)]
        rows = [
            sx.add_row(
                {
                    v: Fraction(rng.randint(-3, 3))
                    for v in variables
                    if rng.random() < 0.8
                }
            )
            for _ in range(2)
        ]
        everything = variables + rows
        for _ in range(rng.randint(1, 6)):
            var = rng.choice(everything)
            bound = Fraction(rng.randint(-10, 10))
            if rng.random() < 0.5:
                conflict = sx.assert_upper(var, bound, tag=None)
            else:
                conflict = sx.assert_lower(var, bound, tag=None)
            if conflict is not None:
                return  # immediate bound conflict: nothing more to check
            result = sx.check()
            self._assert_invariants(sx)
            if not result.sat:
                return
