"""Tests for input minimization and default-retention generation."""

import pytest

from repro.lang import Interpreter, NativeRegistry, parse_program
from repro.search import DirectedSearch, SearchConfig
from repro.search.minimize import minimize_error_inputs
from repro.symbolic import ConcretizationMode

WINDOW = """
int main(int x, int y, int z) {
    if (x > 100) {
        if (y == x + 1) {
            error("pair bug");
        }
    }
    return z;
}
"""


class TestMinimizer:
    def test_shrinks_toward_zero(self):
        prog = parse_program(WINDOW)
        result = minimize_error_inputs(
            prog, "main", {"x": 987654, "y": 987655, "z": -4242}
        )
        interp = Interpreter(prog)
        replay = interp.run("main", result.inputs)
        assert replay.error
        # x must stay > 100 but shrinks to the boundary; z is irrelevant
        assert result.inputs["x"] == 101
        assert result.inputs["y"] == 102
        assert result.inputs["z"] == 0
        assert result.distance_reduction() > 0

    def test_preserves_exact_error(self):
        src = """
        int main(int a) {
            if (a == 5) { error("first"); }
            if (a > 100) { error("second"); }
            return 0;
        }
        """
        prog = parse_program(src)
        result = minimize_error_inputs(prog, "main", {"a": 500})
        # must keep the "second" error, not drift to the "first"
        replay = Interpreter(prog).run("main", result.inputs)
        assert replay.error_message == "second"
        assert result.inputs["a"] == 101

    def test_custom_targets(self):
        prog = parse_program(WINDOW)
        result = minimize_error_inputs(
            prog, "main", {"x": 987654, "y": 987655, "z": 7},
            targets={"z": 7},
        )
        assert result.inputs["z"] == 7

    def test_rejects_non_error_inputs(self):
        prog = parse_program(WINDOW)
        with pytest.raises(ValueError):
            minimize_error_inputs(prog, "main", {"x": 0, "y": 0, "z": 0})

    def test_run_budget_respected(self):
        prog = parse_program(WINDOW)
        result = minimize_error_inputs(
            prog, "main", {"x": 10**9, "y": 10**9 + 1, "z": 123456},
            max_runs=10,
        )
        assert result.runs_used <= 10
        # even truncated minimization must preserve the error
        assert Interpreter(prog).run("main", result.inputs).error

    def test_changed_list(self):
        prog = parse_program(WINDOW)
        result = minimize_error_inputs(
            prog, "main", {"x": 101, "y": 102, "z": 999}
        )
        assert result.changed == ["z"]


class TestDefaultRetention:
    SRC = """
    int main(int x, int y, int z) {
        if (x == 5) { return 1; }
        return 0;
    }
    """

    def test_unconstrained_inputs_keep_values(self):
        search = DirectedSearch.for_mode(
            parse_program(self.SRC), "main", NativeRegistry(),
            ConcretizationMode.SOUND, SearchConfig(max_runs=10),
        )
        result = search.run({"x": 0, "y": 77, "z": -9})
        for record in result.executions:
            assert record.result.inputs["y"] == 77
            assert record.result.inputs["z"] == -9

    def test_constrained_conjunction_keeps_free_var(self):
        src = """
        int main(int a, int b) {
            if (a + b == 10) {
                if (a == 3) { error("split"); }
            }
            return 0;
        }
        """
        search = DirectedSearch.for_mode(
            parse_program(src), "main", NativeRegistry(),
            ConcretizationMode.SOUND, SearchConfig(max_runs=20),
        )
        result = search.run({"a": 3, "b": 0})
        assert result.found_error
        err = result.errors[0]
        # a must be 3 and b forced to 7; the retention kept a at its seed
        assert err.inputs == {"a": 3, "b": 7}
