"""Differential sweep: tree-walking vs bytecode execution backends.

PR 7 replaced the recursive AST walker with a register-bytecode VM as the
default execution core.  The contract is byte-for-byte observational
equality: for the same program and inputs, both backends must produce
identical :class:`RunResult`/:class:`ConcolicResult` contents — return
value, error class and line, step counts, branch trace, coverage — and
identical path conditions (same terms, in the same construction order,
so suite digests match).  This file is the executable form of that
contract:

1. every paper example, every concretization mode, a grid of inputs;
2. a fleet of random programs, including tiny step budgets so
   ``StepBudgetExceeded`` fires at the same step count in both cores;
3. handcrafted crash cases (division by zero, array misuse, undeclared
   reads, arity errors) asserting identical error messages and lines,
   and the shapes the concolic VM computes on plain ints (concrete
   division, unary ops, array indices, asserts, callee returns);
4. the compile cache: per-source memoization with hit/miss accounting.

A directed search always runs on the VM; the tree walker stays as the
differential reference these checks compare it against.
"""

import random

import pytest

from repro.apps.paper_programs import PAPER_EXAMPLES, make_paper_natives
from repro.errors import InterpError, StepBudgetExceeded
from repro.lang import (
    Interpreter,
    clear_compile_cache,
    compile_cache_stats,
    compile_program,
    parse_program,
)
from repro.lang.randprog import generate_program
from repro.solver import TermManager
from repro.symbolic import ConcolicEngine, ConcretizationMode

GRID = [-3, 0, 1, 33, 567]


def concrete_snapshot(res):
    """Everything a RunResult observably contains, as a comparable tuple."""
    return (
        res.returned,
        res.error,
        res.error_message,
        res.error_line,
        tuple(res.path),
        frozenset(res.covered),
        res.steps,
    )


def concolic_snapshot(res, tm):
    """Everything a ConcolicResult observably contains, including the
    path constraint.  Term ids and the manager's term count pin term
    creation order: a skipped or extra ``mk_int`` keeps every term's
    text but shifts ids and the count, and two ``mk_int`` calls made in
    the wrong order swap the ids of two interned constants."""
    return (
        res.returned,
        str(res.returned_term),
        None if res.returned_term is None else res.returned_term.tid,
        res.error,
        res.error_message,
        res.error_line,
        tuple(res.path),
        frozenset(res.covered),
        res.steps,
        tuple(
            (str(pc.term), pc.term.tid, pc.branch_id, pc.taken,
             pc.is_concretization, pc.line, pc.path_pos)
            for pc in res.path_conditions
        ),
        tuple((s.fn.name, s.args, s.value) for s in res.samples),
        res.concretizations,
        res.uf_applications,
        tm.num_terms,
        sorted((term.tid, value) for value, term in tm.int_terms.items()),
    )


def run_concrete_outcome(interp, entry, inputs):
    """Run and normalise to (snapshot | exception identity)."""
    try:
        return ("ok", concrete_snapshot(interp.run(entry, dict(inputs))))
    except (StepBudgetExceeded, InterpError) as exc:
        return ("raise", type(exc).__name__, str(exc))


def run_concolic_outcome(engine, entry, inputs):
    try:
        res = engine.run(entry, dict(inputs))
    except (StepBudgetExceeded, InterpError) as exc:
        return (
            "raise", type(exc).__name__, str(exc), engine.tm.num_terms,
            sorted((t.tid, v) for v, t in engine.tm.int_terms.items()),
        )
    return ("ok", concolic_snapshot(res, engine.tm))


@pytest.mark.parametrize("name", sorted(PAPER_EXAMPLES))
def test_paper_example_concrete_equality(name):
    ex = PAPER_EXAMPLES[name]
    program = ex.program()
    tree = Interpreter(program, make_paper_natives(), backend="tree")
    byte = Interpreter(program, make_paper_natives(), backend="bytecode")
    params = program.function(ex.entry).params
    rng = random.Random(7)
    vectors = [dict(zip(params, [v] * len(params))) for v in GRID]
    vectors += [
        {p: rng.randint(-100, 100) for p in params} for _ in range(10)
    ]
    for inputs in vectors:
        expected = run_concrete_outcome(tree, ex.entry, inputs)
        actual = run_concrete_outcome(byte, ex.entry, inputs)
        assert actual == expected, (name, inputs)


@pytest.mark.parametrize("name", sorted(PAPER_EXAMPLES))
@pytest.mark.parametrize("mode", list(ConcretizationMode))
def test_paper_example_concolic_equality(name, mode):
    ex = PAPER_EXAMPLES[name]
    program = ex.program()
    params = program.function(ex.entry).params
    tree = ConcolicEngine(
        program, make_paper_natives(), mode, TermManager(), exec_backend="tree"
    )
    byte = ConcolicEngine(
        program, make_paper_natives(), mode, TermManager(),
        exec_backend="bytecode",
    )
    rng = random.Random(11)
    vectors = [dict(ex.initial_inputs)]
    vectors += [dict(zip(params, [v] * len(params))) for v in GRID]
    vectors += [{p: rng.randint(-100, 100) for p in params} for _ in range(5)]
    for inputs in vectors:
        expected = run_concolic_outcome(tree, ex.entry, inputs)
        actual = run_concolic_outcome(byte, ex.entry, inputs)
        assert actual == expected, (name, mode, inputs)


@pytest.mark.parametrize("seed", range(16))
def test_randprog_differential(seed):
    """Random programs, both engines, generous and tiny step budgets.

    The 40-step budget forces StepBudgetExceeded mid-program so the
    backends must agree on exactly *when* the budget trips, not just on
    full-run results.
    """
    rp = generate_program(seed)
    rng = random.Random(seed * 13 + 5)
    vectors = [rp.random_inputs(rng) for _ in range(4)]
    for budget in (1_000_000, 40):
        tree = Interpreter(
            rp.program, rp.natives(), step_budget=budget, backend="tree"
        )
        byte = Interpreter(
            rp.program, rp.natives(), step_budget=budget, backend="bytecode"
        )
        for inputs in vectors:
            expected = run_concrete_outcome(tree, rp.entry, inputs)
            actual = run_concrete_outcome(byte, rp.entry, inputs)
            assert actual == expected, (seed, budget, inputs)
    for mode in ConcretizationMode:
        for budget in (1_000_000, 40):
            tree = ConcolicEngine(
                rp.program, rp.natives(), mode, TermManager(),
                step_budget=budget, exec_backend="tree",
            )
            byte = ConcolicEngine(
                rp.program, rp.natives(), mode, TermManager(),
                step_budget=budget, exec_backend="bytecode",
            )
            for inputs in vectors:
                expected = run_concolic_outcome(tree, rp.entry, inputs)
                actual = run_concolic_outcome(byte, rp.entry, inputs)
                assert actual == expected, (seed, mode, budget, inputs)


CRASH_CASES = {
    "div_by_zero": """
        int main(int x) {
            return 10 / x;
        }
    """,
    "mod_by_zero": """
        int main(int x) {
            return 10 % x;
        }
    """,
    "array_oob_high": """
        int main(int x) {
            int a[3];
            a[0] = 1;
            return a[x];
        }
    """,
    "array_oob_low": """
        int main(int x) {
            int a[3];
            a[x] = 7;
            return a[0];
        }
    """,
    "error_stmt": """
        int main(int x) {
            if (x == 0) { error("boom"); }
            return x;
        }
    """,
    "assert_failure": """
        int main(int x) {
            assert(x != 0);
            return x;
        }
    """,
    "arity_mismatch": """
        int helper(int a, int b) { return a + b; }
        int main(int x) {
            return helper(x);
        }
    """,
}


#: shapes the concolic VM runs on plain ints without the engine, each
#: next to a symbolic operand so both paths meet in one run
FAST_PATH_CASES = {
    "concrete_div_by_zero": """
        int main(int x) {
            int z = 0;
            int k = 7;
            int q = x + 9;
            if (x > 3) { return q; }
            if (x == 0) { return (k + 1) / (z * 1); }
            return 7 / z;
        }
    """,
    "concrete_mod_by_zero": """
        int main(int x) {
            int z = 0;
            int k = 7;
            if (x > 3) { return x % 4; }
            if (x == 0) { return (k + 1) % (z * 1); }
            return 7 % z + x;
        }
    """,
    "concrete_c_division": """
        int main(int x) {
            int a = -7;
            int b = 2;
            return a / b * 100 + a % b * 10 + (7 / -b) + x / 3;
        }
    """,
    "concrete_unary": """
        int main(int x) {
            int a = 5;
            int b = -a;
            int c = !a;
            int d = !0;
            int e = !b;
            if (b) { d = d + e + 1; }
            if (-x < b && !c) { return b + c + d; }
            return -b + !x;
        }
    """,
    "concrete_logic_and_mixed_operands": """
        int main(int x) {
            int k = 3;
            int z = 0;
            int r = (k && z) + (k || z) * 2 + (x && k) + (z || x);
            if (k < x) { r = r + k * x; }
            if (k == 3) { r = r + 1; }
            return r;
        }
    """,
    "logic_on_fresh_ints": """
        int main(int x) {
            int k = 3;
            int m = 44;
            int n = 45;
            int r = (k && 41) + ((k + 1) && 42) + ((k + 1) || m);
            r = r + (m && n) + ((k + 2) && (m + 1));
            if (x < r) { return r; }
            return x;
        }
    """,
    "concrete_array_index": """
        int main(int x) {
            int a[3];
            int i = 1;
            a[i] = 5;
            a[2] = x;
            if (a[i] + a[2] > 6) { return a[i]; }
            return a[3 - i] + a[i - 1];
        }
    """,
    "concrete_array_oob": """
        int main(int x) {
            int a[2];
            int i = 2;
            if (x > 0) { return a[i]; }
            a[i] = x;
            return 0;
        }
    """,
    "concrete_assert": """
        int main(int x) {
            int k = 1;
            int z = 0;
            assert(k);
            if (x < 1) { assert(z); }
            return x;
        }
    """,
    "fresh_constants_both_sides": """
        int main(int x) {
            int a = 101;
            int b = 202;
            int c = 303;
            int r = 0;
            if (a < b) { r = r + 1; }
            if (c > 404) { r = r + 2; }
            int d = a * 505;
            int e = c - b;
            int f = (d + 606) % (e + 707);
            int g = (f + 808) / e;
            int h = (d + 1111) * 1212;
            if ((a + 909) == (g - 1001)) { r = r + 4; }
            if (x < r + d + f + g + h) { return r; }
            return x;
        }
    """,
    "int_from_callee": """
        int seven(int a) { return 7; }
        int nothing(int a) { return; }
        int main(int x) {
            int r = seven(x) + nothing(x);
            if (r == 7) { r = r * x; }
            return r;
        }
    """,
}

HANDCRAFTED_CASES = {**CRASH_CASES, **FAST_PATH_CASES}


@pytest.mark.parametrize("case", sorted(HANDCRAFTED_CASES))
def test_crash_case_equality(case):
    program = parse_program(HANDCRAFTED_CASES[case])
    tree = Interpreter(program, backend="tree")
    byte = Interpreter(program, backend="bytecode")
    for x in (-2, -1, 0, 1, 2, 5):
        inputs = {"x": x}
        expected = run_concrete_outcome(tree, "main", inputs)
        actual = run_concrete_outcome(byte, "main", inputs)
        assert actual == expected, (case, x)
    for mode in ConcretizationMode:
        ctree = ConcolicEngine(
            program, None, mode, TermManager(), exec_backend="tree"
        )
        cbyte = ConcolicEngine(
            program, None, mode, TermManager(), exec_backend="bytecode"
        )
        for x in (-2, 0, 1, 5):
            inputs = {"x": x}
            expected = run_concolic_outcome(ctree, "main", inputs)
            actual = run_concolic_outcome(cbyte, "main", inputs)
            assert actual == expected, (case, mode, x)


def test_div_by_zero_message_and_line():
    program = parse_program("int main(int x) { return 1 / x; }")
    res = Interpreter(program, backend="bytecode").run("main", {"x": 0})
    assert res.error
    assert res.error_message == "division by zero"
    tree = Interpreter(program, backend="tree").run("main", {"x": 0})
    assert (res.error_message, res.error_line) == (
        tree.error_message, tree.error_line
    )


def test_step_budget_trips_at_same_count():
    program = parse_program(
        """
        int main(int n) {
            int i;
            i = 0;
            while (i < n) { i = i + 1; }
            return i;
        }
        """
    )
    # Find the budget boundary with the tree walker, then assert the
    # bytecode VM trips at exactly the same budget value.
    full = Interpreter(program, backend="tree").run("main", {"n": 10})
    for budget in (full.steps, full.steps - 1):
        outcomes = []
        for backend in ("tree", "bytecode"):
            interp = Interpreter(program, step_budget=budget, backend=backend)
            outcomes.append(run_concrete_outcome(interp, "main", {"n": 10}))
        assert outcomes[0] == outcomes[1], budget
    tripped = run_concrete_outcome(
        Interpreter(program, step_budget=full.steps - 1, backend="bytecode"),
        "main",
        {"n": 10},
    )
    assert tripped[0] == "raise" and tripped[1] == "StepBudgetExceeded"


def test_compile_cache_memoizes_per_source():
    clear_compile_cache()
    program = parse_program("int main(int x) { return x + 1; }")
    before = compile_cache_stats()
    first = compile_program(program)
    second = compile_program(program)
    assert first is second  # per-Program memo
    twin = parse_program("int main(int x) { return x + 1; }")
    third = compile_program(twin)
    assert third is first  # per-source-digest global cache
    after = compile_cache_stats()
    assert after["misses"] == before["misses"] + 1
    assert after["hits"] >= before["hits"] + 1
    assert after["entries"] >= 1


def test_unknown_backend_rejected():
    program = parse_program("int main(int x) { return x; }")
    with pytest.raises(InterpError):
        Interpreter(program, backend="ast")
    with pytest.raises(InterpError):
        ConcolicEngine(program, None, exec_backend="walker")
