"""Differential sweep: the concrete tree walker vs the bytecode VM.

Concrete execution has two implementations: the tree-walking
:class:`~repro.lang.interp.Interpreter` (``backend="tree"``), kept as
the independent oracle, and the register-bytecode VM every search runs.
The contract is byte-for-byte observational equality of their
:class:`RunResult` contents — return value, error class, message and
line, step counts, branch trace, coverage.  This file is the executable
form of that contract:

1. every paper example on a grid of inputs;
2. a fleet of random programs, including tiny step budgets so
   ``StepBudgetExceeded`` fires at the same step count in both cores;
3. handcrafted crash cases (division by zero, array misuse, undeclared
   reads, arity errors) asserting identical error messages and lines,
   and the shapes the concolic VM computes on plain ints (concrete
   division, unary ops, array indices, asserts, callee returns);
4. the compile cache: per-source memoization with hit/miss accounting.

The concolic executor has one implementation, the VM's shadow loop.
Here its concrete side is checked against the same oracle on the paper
examples; its symbolic output (path conditions, term ids, interned
constants) is pinned by ``tests/test_concolic_golden.py``.
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
from tests._concolic_cases import HANDCRAFTED_CASES

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


def run_concrete_outcome(interp, entry, inputs):
    """Run and normalise to (snapshot | exception identity)."""
    try:
        return ("ok", concrete_snapshot(interp.run(entry, dict(inputs))))
    except (StepBudgetExceeded, InterpError) as exc:
        return ("raise", type(exc).__name__, str(exc))


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
    """The concolic executor runs the program the concrete oracle runs:
    its return value, error triple, branch trace, coverage and step
    count equal the tree ``Interpreter``'s, in every mode.  (Its
    symbolic output is pinned by ``tests/test_concolic_golden.py``.)"""
    ex = PAPER_EXAMPLES[name]
    program = ex.program()
    params = program.function(ex.entry).params
    oracle = Interpreter(program, make_paper_natives(), backend="tree")
    engine = ConcolicEngine(program, make_paper_natives(), mode, TermManager())
    rng = random.Random(11)
    vectors = [dict(ex.initial_inputs)]
    vectors += [dict(zip(params, [v] * len(params))) for v in GRID]
    vectors += [{p: rng.randint(-100, 100) for p in params} for _ in range(5)]
    for inputs in vectors:
        expected = run_concrete_outcome(oracle, ex.entry, inputs)
        actual = ("ok", concrete_snapshot(engine.run(ex.entry, dict(inputs))))
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


def test_concolic_engine_has_no_backend_choice():
    program = parse_program("int main(int x) { return x; }")
    with pytest.raises(TypeError, match="exec_backend"):
        ConcolicEngine(program, None, exec_backend="tree")
