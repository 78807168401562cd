"""Tests for `for` loops and resource-limit behaviour."""

import pytest

from repro.errors import ParseError, ResourceLimitError, StepBudgetExceeded
from repro.lang import Interpreter, NativeRegistry, parse_program
from repro.search import DirectedSearch, SearchConfig
from repro.solver import Solver, SolverSession, TermManager
from repro.solver.budget import current_budget, use_budget
from repro.solver.cache import use_cache
from repro.symbolic import ConcolicEngine, ConcretizationMode


class TestForLoops:
    def test_basic_counting(self):
        src = """
        int main(int n) {
            int total = 0;
            for (int i = 1; i <= n; i = i + 1) {
                total = total + i;
            }
            return total;
        }
        """
        assert Interpreter(parse_program(src)).run("main", {"n": 10}).returned == 55

    def test_assignment_init(self):
        src = """
        int main(int n) {
            int i = 100;
            int count = 0;
            for (i = 0; i < n; i = i + 1) { count = count + 2; }
            return count + i;
        }
        """
        assert Interpreter(parse_program(src)).run("main", {"n": 3}).returned == 9

    def test_empty_init_and_update(self):
        src = """
        int main(int n) {
            for (; n > 0;) { n = n - 1; }
            return n;
        }
        """
        assert Interpreter(parse_program(src)).run("main", {"n": 5}).returned == 0

    def test_array_update_clause(self):
        src = """
        int main(int n) {
            int a[4];
            int i = 0;
            for (; i < 4; a[i] = i) { i = i + 1; }
            return a[3];
        }
        """
        # documents evaluation order: the update clause runs AFTER the
        # body, so the body's `i = i + 1` makes the final update write
        # a[4] — out of bounds, surfaced as a confirmable program error
        result = Interpreter(parse_program(src)).run("main", {"n": 0})
        assert result.error and "out of bounds" in result.error_message

    def test_loop_variable_visible_after_loop(self):
        src = """
        int main(int n) {
            for (int i = 0; i < n; i = i + 1) { }
            return 0;
        }
        """
        # desugaring keeps `i` in function scope; verify it parses and runs
        assert Interpreter(parse_program(src)).run("main", {"n": 2}).returned == 0

    def test_for_is_a_branch_site(self):
        src = """
        int main(int n) {
            for (int i = 0; i < n; i = i + 1) { }
            return 0;
        }
        """
        prog = parse_program(src)
        assert prog.num_branches == 1

    def test_concolic_explores_for_loop(self):
        src = """
        int main(int n) {
            int total = 0;
            for (int i = 0; i < n; i = i + 1) { total = total + 1; }
            if (total == 3) { error("three iterations"); }
            return total;
        }
        """
        search = DirectedSearch.for_mode(
            parse_program(src), "main", NativeRegistry(),
            ConcretizationMode.SOUND, SearchConfig(max_runs=30),
        )
        result = search.run({"n": 0})
        assert result.found_error
        assert result.errors[0].inputs["n"] == 3

    def test_pretty_printer_handles_desugared_for(self):
        from repro.lang import pretty_program

        src = """
        int main(int n) {
            for (int i = 0; i < n; i = i + 1) { n = n; }
            return n;
        }
        """
        prog = parse_program(src)
        rendered = pretty_program(prog)
        # renders as the desugared while loop; must re-parse cleanly
        reparsed = parse_program(rendered)
        assert reparsed.num_branches == prog.num_branches

    def test_malformed_for_rejected(self):
        with pytest.raises(ParseError):
            parse_program("int main(int n) { for (int i = 0) { } return 0; }")


class TestResourceLimits:
    def test_concolic_step_budget(self):
        src = "int main(int x) { while (1) { x = x + 1; } return x; }"
        engine = ConcolicEngine(
            parse_program(src), NativeRegistry(),
            ConcretizationMode.SOUND, TermManager(), step_budget=2000,
        )
        with pytest.raises(StepBudgetExceeded):
            engine.run("main", {"x": 0})

    def test_solver_iteration_budget(self):
        tm = TermManager()
        with use_budget(current_budget().with_(max_iterations=1)):
            solver = Solver(tm)
        x = tm.mk_var("x")
        h = tm.mk_function("h", 1)
        # force at least one theory conflict so the loop needs 2 iterations
        solver.add(
            tm.mk_or(
                tm.mk_and(tm.mk_gt(x, tm.mk_int(5)), tm.mk_lt(x, tm.mk_int(3))),
                tm.mk_eq(tm.mk_app(h, [x]), tm.mk_int(1)),
            )
        )
        try:
            solver.check()
        except ResourceLimitError:
            pass  # acceptable: budget genuinely exhausted

    @pytest.mark.parametrize("kind", ["solver", "session"])
    def test_ambient_iteration_budget_is_enforced(self, kind):
        # 5 < x < 3: the first boolean model is refuted by the theory, so
        # the loop needs a second iteration the budget does not allow
        tm = TermManager()
        with use_budget(current_budget().with_(max_iterations=1)):
            checker = Solver(tm) if kind == "solver" else SolverSession(tm)
        x = tm.mk_var("x")
        with use_cache(None), pytest.raises(ResourceLimitError):
            checker.check(tm.mk_gt(x, tm.mk_int(5)), tm.mk_lt(x, tm.mk_int(3)))

    def test_lia_branch_budget(self):
        from repro.solver import LiaSolver

        lia = LiaSolver(max_branches=1)
        x, y = lia.new_var("x"), lia.new_var("y")
        lia.add_ge({x: 2, y: 3}, 7)
        lia.add_le({x: 2, y: 3}, 7)
        with pytest.raises(ResourceLimitError):
            lia.check()
        assert not lia.presolve_hit  # the bounds settle nothing here

    def test_search_multistep_budget_respected(self):
        natives = NativeRegistry()
        natives.register("hash", lambda v: (v * 131 + 17) % 10007)
        src = """
        int main(int x, int y) {
            if (x == hash(y)) {
                if (y == 10) { error("bug"); }
            }
            return 0;
        }
        """
        search = DirectedSearch.for_mode(
            parse_program(src), "main", natives,
            ConcretizationMode.HIGHER_ORDER,
            SearchConfig(max_runs=40, max_multistep_probes=0),
        )
        result = search.run({"x": 1, "y": 2})
        # with zero probes allowed, multi-step strategies cannot resolve;
        # the deep bug stays unfound but nothing crashes
        assert not result.found_error
