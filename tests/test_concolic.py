"""Tests for the concolic machine and its four concretization modes."""

import pytest

from repro.apps.paper_programs import churn_source, make_paper_natives
from repro.lang import NativeRegistry, parse_program
from repro.solver import Kind, TermManager, Solver, evaluate, Model
from repro.symbolic import ConcolicEngine, ConcretizationMode


def make_natives():
    n = NativeRegistry()
    n.register("hash", lambda y: (y * 31 + 7) % 1000)
    return n


def engine_for(src, mode, natives=None, tm=None):
    return ConcolicEngine(
        parse_program(src),
        natives if natives is not None else make_natives(),
        mode,
        tm if tm is not None else TermManager(),
    )


FOO = """
int foo(int x, int y) {
    if (x == hash(y)) {
        if (y == 10) {
            error("bug");
        }
    }
    return 0;
}
"""


class TestSymbolicTracking:
    def test_linear_constraint_built(self):
        src = "int f(int x) { if (2 * x + 1 > 7) { return 1; } return 0; }"
        eng = engine_for(src, ConcretizationMode.SOUND)
        r = eng.run("f", {"x": 5})
        assert len(r.path_conditions) == 1
        assert "x" in str(r.path_conditions[0].term)

    def test_concrete_condition_not_recorded(self):
        src = "int f(int x) { int k = 3; if (k > 1) { return 1; } return 0; }"
        eng = engine_for(src, ConcretizationMode.SOUND)
        r = eng.run("f", {"x": 0})
        assert r.path_conditions == []
        assert r.path == [(0, True)]

    def test_dataflow_through_assignments(self):
        src = """
        int f(int x) {
            int a = x + 1;
            int b = a * 2;
            if (b == 12) { return 1; }
            return 0;
        }
        """
        eng = engine_for(src, ConcretizationMode.SOUND)
        r = eng.run("f", {"x": 5})
        # (x+1)*2 == 12 recorded with x symbolic
        term = r.path_conditions[0].term
        assert any(v.name == "x" for v in term.free_vars())

    def test_dataflow_through_user_functions(self):
        src = """
        int inc(int v) { return v + 1; }
        int f(int x) { if (inc(x) == 5) { return 1; } return 0; }
        """
        eng = engine_for(src, ConcretizationMode.SOUND)
        r = eng.run("f", {"x": 4})
        assert len(r.path_conditions) == 1
        assert r.path_conditions[0].taken

    def test_returned_value_matches_interpreter(self):
        src = """
        int f(int x) {
            int t = 0;
            while (x > 0) { t = t + x; x = x - 1; }
            return t;
        }
        """
        eng = engine_for(src, ConcretizationMode.HIGHER_ORDER)
        assert eng.run("f", {"x": 5}).returned == 15

    def test_error_propagates(self):
        eng = engine_for(FOO, ConcretizationMode.HIGHER_ORDER)
        hv = (10 * 31 + 7) % 1000
        r = eng.run("foo", {"x": hv, "y": 10})
        assert r.error and r.error_message == "bug"


class TestModesOnFoo:
    """The paper §3.2/§3.3 path constraints, verbatim."""

    def test_unsound_pc(self):
        tm = TermManager()
        eng = engine_for(FOO, ConcretizationMode.UNSOUND, tm=tm)
        hv = (42 * 31 + 7) % 1000
        r = eng.run("foo", {"x": hv, "y": 42})
        terms = [str(p) for p in r.path_conditions]
        assert terms == [f"(= x {hv})", "(not (= y 10))"]

    def test_sound_pc_has_pin(self):
        tm = TermManager()
        eng = engine_for(FOO, ConcretizationMode.SOUND, tm=tm)
        hv = (42 * 31 + 7) % 1000
        r = eng.run("foo", {"x": hv, "y": 42})
        assert r.path_conditions[0].is_concretization
        assert str(r.path_conditions[0].term) == "(= y 42)"
        assert len(r.path_conditions) == 3

    def test_higher_order_pc_uses_uf(self):
        tm = TermManager()
        eng = engine_for(FOO, ConcretizationMode.HIGHER_ORDER, tm=tm)
        hv = (42 * 31 + 7) % 1000
        r = eng.run("foo", {"x": hv, "y": 42})
        terms = [str(p) for p in r.path_conditions]
        assert terms == ["(= x (hash y))", "(not (= y 10))"]
        assert r.uf_applications == 1

    def test_samples_recorded_in_all_modes(self):
        for mode in ConcretizationMode:
            eng = engine_for(FOO, mode)
            r = eng.run("foo", {"x": 1, "y": 42})
            assert len(r.samples) == 1
            s = r.samples[0]
            assert s.args == (42,) and s.value == (42 * 31 + 7) % 1000


class TestDelayedConcretization:
    """The §3.3-end example: pin only when the value is actually tested."""

    DELAYED = """
    int f(int x, int y) {
        int v = hash(y);
        if (y == 10) { return 1; }
        return v;
    }
    """

    def test_delayed_mode_keeps_condition_negatable(self):
        eng = engine_for(self.DELAYED, ConcretizationMode.SOUND_DELAYED)
        r = eng.run("f", {"x": 0, "y": 42})
        # hash(y) concretized but never tested: no pin on y
        assert all(not p.is_concretization for p in r.path_conditions)
        assert len(r.path_conditions) == 1

    def test_eager_mode_pins_immediately(self):
        eng = engine_for(self.DELAYED, ConcretizationMode.SOUND)
        r = eng.run("f", {"x": 0, "y": 42})
        pins = [p for p in r.path_conditions if p.is_concretization]
        assert len(pins) == 1
        assert str(pins[0].term) == "(= y 42)"

    def test_delayed_pin_materializes_when_tested(self):
        src = """
        int f(int x, int y) {
            int v = hash(y);
            if (v == x) { return 1; }
            return 0;
        }
        """
        eng = engine_for(src, ConcretizationMode.SOUND_DELAYED)
        r = eng.run("f", {"x": 0, "y": 42})
        pins = [p for p in r.path_conditions if p.is_concretization]
        assert len(pins) == 1  # y pinned because hash(y)'s value was tested


class TestUnknownInstructions:
    """Non-linear arithmetic as UFs (paper §4.1 'unknown instructions')."""

    def test_symbolic_product_becomes_uf(self):
        src = "int f(int x, int y) { if (x * y == 12) { return 1; } return 0; }"
        eng = engine_for(src, ConcretizationMode.HIGHER_ORDER)
        r = eng.run("f", {"x": 3, "y": 4})
        assert "__mul__" in str(r.path_conditions[0].term)
        assert r.samples[0].args == (3, 4) and r.samples[0].value == 12

    def test_symbolic_division_becomes_uf(self):
        src = "int f(int x) { if (x / 3 == 2) { return 1; } return 0; }"
        eng = engine_for(src, ConcretizationMode.HIGHER_ORDER)
        r = eng.run("f", {"x": 7})
        assert "__div__" in str(r.path_conditions[0].term)

    def test_symbolic_mod_becomes_uf(self):
        src = "int f(int x) { if (x % 10 == 3) { return 1; } return 0; }"
        eng = engine_for(src, ConcretizationMode.HIGHER_ORDER)
        r = eng.run("f", {"x": 13})
        assert "__mod__" in str(r.path_conditions[0].term)

    def test_linear_product_stays_precise(self):
        src = "int f(int x) { if (x * 3 == 12) { return 1; } return 0; }"
        eng = engine_for(src, ConcretizationMode.HIGHER_ORDER)
        r = eng.run("f", {"x": 4})
        assert r.uf_applications == 0

    def test_sound_mode_concretizes_nonlinear(self):
        src = "int f(int x, int y) { if (x * y == 12) { return 1; } return 0; }"
        eng = engine_for(src, ConcretizationMode.SOUND)
        r = eng.run("f", {"x": 3, "y": 4})
        pins = [p for p in r.path_conditions if p.is_concretization]
        assert len(pins) == 2  # both x and y pinned


class TestArraysUnderSymbolicIndex:
    SRC = """
    int f(int i) {
        int a[4];
        a[0] = 10;
        a[1] = 20;
        if (a[i] == 20) { return 1; }
        return 0;
    }
    """

    def test_higher_order_pins_symbolic_index(self):
        eng = engine_for(self.SRC, ConcretizationMode.HIGHER_ORDER)
        r = eng.run("f", {"i": 1})
        pins = [p for p in r.path_conditions if p.is_concretization]
        assert len(pins) == 1
        assert str(pins[0].term) == "(= i 1)"

    def test_concrete_index_no_pin(self):
        src = """
        int f(int x) {
            int a[4];
            a[2] = x;
            if (a[2] == 5) { return 1; }
            return 0;
        }
        """
        eng = engine_for(src, ConcretizationMode.HIGHER_ORDER)
        r = eng.run("f", {"x": 5})
        assert all(not p.is_concretization for p in r.path_conditions)
        # the symbolic content flows through the concrete-index cell
        assert any(
            v.name == "x" for v in r.path_conditions[0].term.free_vars()
        )


class TestPathConstraintSoundness:
    """Theorems 2 and 3: every input assignment satisfying a SOUND /
    SOUND_DELAYED / HIGHER_ORDER path constraint *under the real function
    semantics* follows the same program path.  Validated by enumerating a
    grid of input vectors, evaluating the pc with the real natives via
    :func:`evaluate_with_oracle`, and replaying the satisfying ones."""

    PROGRAMS = [
        ("foo", FOO),
        (
            "g",
            """
        int g(int x, int y) {
            int v = hash(x + y);
            if (v % 2 == 0) { if (x > y) { return 1; } }
            return 0;
        }
        """,
        ),
        (
            "h2",
            """
        int h2(int x, int y) {
            if (hash(x) == hash(y)) { return 1; }
            if (x * y > 10) { return 2; }
            return 0;
        }
        """,
        ),
    ]

    def _oracle(self):
        from repro.lang.interp import c_div, c_mod

        def oracle(name, args):
            if name == "hash":
                return (args[0] * 31 + 7) % 1000
            if name == "__mul__":
                return args[0] * args[1]
            if name == "__div__":
                return c_div(args[0], args[1])
            if name == "__mod__":
                return c_mod(args[0], args[1])
            raise AssertionError(f"unexpected oracle call {name}")

        return oracle

    @pytest.mark.parametrize("entry,src", PROGRAMS)
    @pytest.mark.parametrize(
        "mode",
        [
            ConcretizationMode.SOUND,
            ConcretizationMode.SOUND_DELAYED,
            ConcretizationMode.HIGHER_ORDER,
        ],
    )
    @pytest.mark.parametrize("seed", [{"x": 3, "y": 4}, {"x": 42, "y": 42}])
    def test_real_world_satisfying_inputs_replay(self, entry, src, mode, seed):
        from repro.solver.evalmodel import evaluate_with_oracle

        tm = TermManager()
        eng = ConcolicEngine(parse_program(src), make_natives(), mode, tm)
        base = eng.run(entry, seed)
        if not base.path_conditions:
            pytest.skip("no symbolic conditions for this input")
        pc_terms = [p.term for p in base.path_conditions]
        oracle = self._oracle()
        grid = [-7, 0, 3, 4, 10, 42, 100]
        checked = 0
        for x in grid:
            for y in grid:
                ints = {"x": x, "y": y}
                if all(
                    evaluate_with_oracle(t, ints, oracle) is True
                    for t in pc_terms
                ):
                    replay = eng.run(entry, ints)
                    assert replay.path == base.path, (
                        f"inputs {ints} satisfy the pc but diverged"
                    )
                    checked += 1
        assert checked >= 1  # at least the seed itself must satisfy its pc

    def test_unsound_mode_admits_violations(self):
        """Contrast (paper §3.2): an UNSOUND pc can be satisfied by inputs
        that do NOT follow the path — the divergence phenomenon."""
        from repro.solver.evalmodel import evaluate_with_oracle

        tm = TermManager()
        eng = ConcolicEngine(
            parse_program(FOO), make_natives(), ConcretizationMode.UNSOUND, tm
        )
        hv = (42 * 31 + 7) % 1000
        base = eng.run("foo", {"x": hv, "y": 42})
        pc_terms = [p.term for p in base.path_conditions]
        oracle = self._oracle()
        # x = hv, y = 5 satisfies (x = hv) and (y != 10) but hash(5) != hv,
        # so the real execution takes the other branch: unsound
        ints = {"x": hv, "y": 5}
        assert all(
            evaluate_with_oracle(t, ints, oracle) is True for t in pc_terms
        )
        replay = eng.run("foo", ints)
        assert replay.path != base.path


class TestSymbolicIndexWrites:
    """Theorem 2 for array *writes* at a symbolic index.

    The index decides which cell a store changes, and no value carries
    that dependency to a later condition, so every sound mode must pin
    the index when it stores (a deferred pin would be dropped).  For
    every input vector of a small box as the recorded run, every vector
    of the box that satisfies the recorded path constraint must follow
    the recorded path.  (A run that ends in a program error records no
    condition for the check it fails, so only completed runs are bases.)
    """

    PROGRAMS = [
        pytest.param(
            """
        int main(int x) {
            int a[2];
            a[x] = 1;
            if (a[0] == 1) { return 5; }
            return 0;
        }
        """,
            id="other_cell",
        ),
        pytest.param(
            """
        int main(int x) {
            int a[3];
            a[x] = x + 1;
            if (a[1] > 1) { return 1; }
            return 0;
        }
        """,
            id="symbolic_value",
        ),
        pytest.param(
            """
        int main(int x, int y) {
            int a[4];
            a[x] = 1;
            a[y] = 2;
            if (a[0] + a[1] == 3) { return 1; }
            if (a[2] == 2) { return 2; }
            return 0;
        }
        """,
            id="two_writes",
        ),
        pytest.param(
            """
        int put(int i) {
            int a[3];
            a[i] = 9;
            if (a[2] == 9) { return 1; }
            return 0;
        }
        int main(int x) {
            return put(x - 1) + 10;
        }
        """,
            id="callee_write",
        ),
    ]

    @pytest.mark.parametrize("src", PROGRAMS)
    @pytest.mark.parametrize(
        "mode",
        [
            ConcretizationMode.SOUND,
            ConcretizationMode.SOUND_DELAYED,
            ConcretizationMode.HIGHER_ORDER,
        ],
    )
    def test_satisfying_inputs_follow_the_recorded_path(self, src, mode):
        eng = engine_for(src, mode)
        params = eng.program.function("main").params
        box = [-1, 0, 1, 2, 3, 4]
        vectors = [{params[0]: x} for x in box]
        if len(params) == 2:
            vectors = [{params[0]: x, params[1]: y} for x in box for y in box]
        for base_inputs in vectors:
            base = eng.run("main", dict(base_inputs))
            if base.error:
                continue
            pc_terms = [p.term for p in base.path_conditions]
            for ints in vectors:
                if all(evaluate(t, Model(ints=ints)) is True for t in pc_terms):
                    replay = eng.run("main", dict(ints))
                    assert (replay.path, replay.error) == (
                        base.path, base.error
                    ), (base_inputs, ints)

    def test_delayed_mode_pins_a_stored_index(self):
        eng = engine_for(
            self.PROGRAMS[0].values[0], ConcretizationMode.SOUND_DELAYED
        )
        r = eng.run("main", {"x": 1})
        pins = [str(p) for p in r.path_conditions if p.is_concretization]
        assert pins == ["(= x 1) [pin]"]


class TestFailingRunPathConstraints:
    """Theorem 2 for runs that end in a program error.

    A run that fails an injected bounds or division check records no
    condition for that check, so its path constraint also admits inputs
    that complete.  Recording the violated check's negation closes the
    gap; it changes search answers, so it waits for the digest matrix
    (ROADMAP item 5) and is pinned here until then.
    """

    PROGRAMS = [
        pytest.param(
            "int main(int x) { int a[2]; a[x] = 1; return 0; }",
            {"x": -1},
            id="out_of_bounds_write",
        ),
        pytest.param(
            "int main(int x, int y) { return 10 / (x - y); }",
            {"x": -1, "y": -1},
            id="division_by_zero",
        ),
    ]

    @pytest.mark.xfail(
        strict=True,
        reason="a failing check records no condition (ROADMAP item 5)",
    )
    @pytest.mark.parametrize("src,failing", PROGRAMS)
    @pytest.mark.parametrize("mode", list(ConcretizationMode))
    def test_pc_excludes_every_completing_input(self, src, failing, mode):
        from repro.lang.interp import c_div
        from repro.solver.evalmodel import evaluate_with_oracle

        def oracle(name, args):
            assert name == "__div__", name
            return c_div(args[0], args[1])

        eng = engine_for(src, mode)
        base = eng.run("main", dict(failing))
        assert base.error
        pc_terms = [p.term for p in base.path_conditions]
        box = range(-3, 4)
        names = sorted(failing)
        vectors = [{names[0]: x} for x in box]
        if len(names) == 2:
            vectors = [{names[0]: x, names[1]: y} for x in box for y in box]
        for ints in vectors:
            if eng.run("main", dict(ints)).error:
                continue
            assert not all(
                evaluate_with_oracle(t, ints, oracle) is True for t in pc_terms
            ), f"{ints} completes but satisfies the failing run's pc"


class TestConcreteCodeBuildsNoTerms:
    """A plain int reserves a term id and builds no ``Term``."""

    # ``num_terms`` after one churn run: the count the VM gave when it
    # built every plain operand's constant at once
    @pytest.mark.parametrize("mode, num_terms", [
        (ConcretizationMode.UNSOUND, 9724),
        (ConcretizationMode.SOUND, 9726),
        (ConcretizationMode.SOUND_DELAYED, 9726),
        (ConcretizationMode.HIGHER_ORDER, 9726),
    ])
    def test_cold_churn_run_builds_few_constants(self, mode, num_terms):
        tm = TermManager()
        engine = ConcolicEngine(
            parse_program(churn_source(2500, 23, 97)),
            make_paper_natives(), mode, tm,
        )
        res = engine.run("churn", {"x": 5, "y": 9})
        assert len(tm.int_terms) < 50
        assert tm.num_terms == num_terms
        assert res.path_conditions
        seen = set()
        for pc in res.path_conditions:
            for node in pc.term.iter_dag(seen):
                if node.kind is Kind.CONST_INT:
                    assert tm.int_terms[node.value] is node
                    assert tm.int_ids[node.value] == node.tid
