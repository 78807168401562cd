"""Tests for default-retention generation: unconstrained inputs keep their values."""

from repro.lang import NativeRegistry, parse_program
from repro.search import DirectedSearch, SearchConfig
from repro.symbolic import ConcretizationMode


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
