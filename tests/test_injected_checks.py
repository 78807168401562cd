"""Tests for §3.2's injected safety checks (div-by-zero, array bounds)."""

import pytest

from repro.lang import Interpreter, NativeRegistry, parse_program
from repro.search import DirectedSearch, SearchConfig
from repro.solver import TermManager
from repro.symbolic import ConcolicEngine, ConcretizationMode

DIV_SRC = """
int main(int x, int y) {
    int q = x / y;
    if (q > 100) { return 1; }
    return 0;
}
"""

OOB_SRC = """
int main(int i) {
    int a[4];
    a[0] = 7;
    return a[i];
}
"""


class TestInjectedConditions:
    def test_div_check_recorded(self):
        engine = ConcolicEngine(
            parse_program(DIV_SRC), NativeRegistry(),
            ConcretizationMode.HIGHER_ORDER, TermManager(),
        )
        run = engine.run("main", {"x": 10, "y": 3})
        div_checks = [
            p for p in run.path_conditions
            if p.branch_id == ConcolicEngine.CHECK_DIV
        ]
        assert len(div_checks) == 1
        assert "(not (= y 0))" in str(div_checks[0].term)

    def test_div_check_not_recorded_for_concrete_divisor(self):
        src = "int main(int x) { return x / 2; }"
        engine = ConcolicEngine(
            parse_program(src), NativeRegistry(),
            ConcretizationMode.HIGHER_ORDER, TermManager(),
        )
        run = engine.run("main", {"x": 10})
        assert all(
            p.branch_id != ConcolicEngine.CHECK_DIV
            for p in run.path_conditions
        )

    def test_bounds_checks_recorded(self):
        engine = ConcolicEngine(
            parse_program(OOB_SRC), NativeRegistry(),
            ConcretizationMode.HIGHER_ORDER, TermManager(),
        )
        run = engine.run("main", {"i": 2})
        ids = [p.branch_id for p in run.path_conditions]
        assert ConcolicEngine.CHECK_BOUNDS_LOW in ids
        assert ConcolicEngine.CHECK_BOUNDS_HIGH in ids

    def test_checks_cannot_be_disabled(self):
        with pytest.raises(TypeError, match="inject_checks"):
            ConcolicEngine(
                parse_program(DIV_SRC), NativeRegistry(),
                ConcretizationMode.HIGHER_ORDER, TermManager(),
                inject_checks=False,
            )


class TestBugFinding:
    def test_search_finds_division_by_zero(self):
        search = DirectedSearch.for_mode(
            parse_program(DIV_SRC), "main", NativeRegistry(),
            ConcretizationMode.HIGHER_ORDER, SearchConfig(max_runs=20),
        )
        result = search.run({"x": 10, "y": 3})
        messages = [e.message for e in result.errors]
        assert "division by zero" in messages
        err = next(e for e in result.errors if e.message == "division by zero")
        assert err.inputs["y"] == 0

    def test_search_finds_both_oob_directions(self):
        search = DirectedSearch.for_mode(
            parse_program(OOB_SRC), "main", NativeRegistry(),
            ConcretizationMode.HIGHER_ORDER, SearchConfig(max_runs=20),
        )
        result = search.run({"i": 2})
        indices = sorted(e.inputs["i"] for e in result.errors)
        assert indices == [-1, 4]

    def test_violations_confirmed_by_execution(self):
        """The paper: generated violations 'should be executed to confirm
        the bug before reporting it' — our reports come from real runs."""
        search = DirectedSearch.for_mode(
            parse_program(DIV_SRC), "main", NativeRegistry(),
            ConcretizationMode.HIGHER_ORDER, SearchConfig(max_runs=20),
        )
        result = search.run({"x": 10, "y": 3})
        interp = Interpreter(parse_program(DIV_SRC))
        for err in result.errors:
            replay = interp.run("main", dict(err.inputs))
            assert replay.error and replay.error_message == err.message

    def test_sound_mode_also_finds_div_zero(self):
        search = DirectedSearch.for_mode(
            parse_program(DIV_SRC), "main", NativeRegistry(),
            ConcretizationMode.SOUND, SearchConfig(max_runs=20),
        )
        result = search.run({"x": 10, "y": 3})
        assert any(e.message == "division by zero" for e in result.errors)

    def test_guarded_division_is_safe(self):
        src = """
        int main(int x, int y) {
            if (y == 0) { return 0 - 1; }
            return x / y;
        }
        """
        search = DirectedSearch.for_mode(
            parse_program(src), "main", NativeRegistry(),
            ConcretizationMode.SOUND, SearchConfig(max_runs=20),
        )
        result = search.run({"x": 10, "y": 3})
        # the guard makes the injected check's negation infeasible
        assert not result.found_error

    def test_check_conditions_never_cause_divergence(self):
        search = DirectedSearch.for_mode(
            parse_program(DIV_SRC), "main", NativeRegistry(),
            ConcretizationMode.HIGHER_ORDER, SearchConfig(max_runs=20),
        )
        result = search.run({"x": 10, "y": 3})
        assert result.divergences == 0
