"""Ablation benchmarks for the design choices DESIGN.md §6 calls out.

Each ablation toggles one mechanism and asserts the qualitative effect the
design rationale predicts, while timing both arms.  Model verification
has no off arm (it always runs), so its group times the one that remains.
"""

import pytest

from repro.solver import SatSolver, TermManager, Solver
from repro.symbolic import ConcretizationMode

from conftest import run_example

HO = ConcretizationMode.HIGHER_ORDER
SOUND = ConcretizationMode.SOUND
DELAYED = ConcretizationMode.SOUND_DELAYED


@pytest.mark.benchmark(group="ABL-antecedent")
class TestAntecedentAblation:
    """Samples-in-antecedent on/off (Example 4 hinges on it)."""

    def test_abl_antecedent_on(self, benchmark):
        result = benchmark(run_example, "pub", HO, 40, True)
        assert result.found_error

    def test_abl_antecedent_off(self, benchmark):
        result = benchmark(run_example, "pub", HO, 40, False)
        assert not result.found_error


@pytest.mark.benchmark(group="ABL-pin-timing")
class TestPinTimingAblation:
    """Eager (Fig.1 line 14) vs delayed (§3.3 end) pin injection."""

    def test_abl_eager_pins(self, benchmark):
        result = benchmark(run_example, "delayed", SOUND)
        assert not result.found_error

    def test_abl_delayed_pins(self, benchmark):
        result = benchmark(run_example, "delayed", DELAYED)
        assert result.found_error


def _php(holes, **kwargs):
    s = SatSolver(**kwargs)
    pigeons = holes + 1
    var = [[s.new_var() for _ in range(holes)] for _ in range(pigeons)]
    for p in range(pigeons):
        s.add_clause([var[p][h] for h in range(holes)])
    for h in range(holes):
        for p1 in range(pigeons):
            for p2 in range(p1 + 1, pigeons):
                s.add_clause([-var[p1][h], -var[p2][h]])
    return s


@pytest.mark.benchmark(group="ABL-sat-heuristics")
class TestSatHeuristicsAblation:
    """VSIDS decay and restarts on/off on a hard UNSAT instance."""

    def test_abl_sat_default_heuristics(self, benchmark):
        def run():
            return _php(5).solve()

        assert not benchmark(run).sat

    def test_abl_sat_no_restarts(self, benchmark):
        def run():
            return _php(5, enable_restarts=False).solve()

        assert not benchmark(run).sat

    def test_abl_sat_no_activity_decay(self, benchmark):
        def run():
            return _php(5, activity_decay=1.0).solve()

        assert not benchmark(run).sat


@pytest.mark.benchmark(group="ABL-model-verify")
class TestModelVerificationAblation:
    """The model-verification safety net, which always runs."""

    @staticmethod
    def _query():
        tm = TermManager()
        s = Solver(tm)
        h = tm.mk_function("h", 1)
        xs = [tm.mk_var(f"x{i}") for i in range(6)]
        for i, x in enumerate(xs):
            s.add(tm.mk_eq(tm.mk_app(h, [x]), tm.mk_int(i % 2)))
        s.add(tm.mk_distinct(xs[:3]))
        return s.check()

    def test_abl_verify_on(self, benchmark):
        assert benchmark(self._query).sat
