"""Tests for the directed search, coverage tracking, and backends."""

import gc
import weakref

import pytest

from repro.apps.paper_programs import PAPER_EXAMPLES
from repro.core import SampleStore, build_post
from repro.core.hotg import HigherOrderBackend, MultiStepDriver
from repro.errors import ReproError
from repro.lang import NativeRegistry, parse_program
from repro.search import (
    BranchCoverage,
    DirectedSearch,
    ExistentialBackend,
    QuantifierFreeBackend,
    SearchConfig,
)
from repro.search.request import GenerationRequest
from repro.solver import TermManager
from repro.symbolic import ConcolicEngine, ConcretizationMode


def natives_with_hash():
    n = NativeRegistry()
    n.register("hash", lambda y: (y * 31 + 7) % 1000)
    return n


LINEAR = """
int f(int x, int y) {
    if (x > 10) {
        if (y == x + 1) {
            error("both");
        }
        return 1;
    }
    if (y < 0) { return 2; }
    return 0;
}
"""


class TestDirectedSearchBasics:
    def test_full_coverage_on_linear_program(self):
        search = DirectedSearch.for_mode(
            parse_program(LINEAR), "f", NativeRegistry(),
            ConcretizationMode.SOUND, SearchConfig(max_runs=30),
        )
        res = search.run({"x": 0, "y": 0})
        assert res.found_error
        assert res.coverage.ratio() == 1.0

    def test_deterministic_across_sessions(self):
        outs = []
        for _ in range(2):
            search = DirectedSearch.for_mode(
                parse_program(LINEAR), "f", NativeRegistry(),
                ConcretizationMode.SOUND, SearchConfig(max_runs=30),
            )
            res = search.run({"x": 0, "y": 0})
            outs.append(
                (res.runs, res.distinct_paths, len(res.errors))
            )
        assert outs[0] == outs[1]

    def test_released_search_freed_without_gc(self):
        # the multi-step probe runner late-bound into the backend must not
        # tie search -> backend -> search into a cycle: a finished
        # search, and the term manager it owns, go on release
        search = DirectedSearch.for_mode(
            parse_program(LINEAR), "f", NativeRegistry(),
            ConcretizationMode.HIGHER_ORDER, SearchConfig(max_runs=10),
        )
        search.run({"x": 0, "y": 0})
        backend = search.backend
        released = weakref.ref(search)
        gc.disable()
        try:
            del search
            assert released() is None
        finally:
            gc.enable()
        with pytest.raises(ReproError, match="after its DirectedSearch"):
            backend.probe_runner({"x": 0, "y": 0})

    def test_stop_on_first_error(self):
        cfg = SearchConfig(max_runs=50, stop_on_first_error=True)
        search = DirectedSearch.for_mode(
            parse_program(LINEAR), "f", NativeRegistry(),
            ConcretizationMode.SOUND, cfg,
        )
        res = search.run({"x": 0, "y": 0})
        assert len(res.errors) == 1

    def test_run_budget_respected(self):
        cfg = SearchConfig(max_runs=2)
        search = DirectedSearch.for_mode(
            parse_program(LINEAR), "f", NativeRegistry(),
            ConcretizationMode.SOUND, cfg,
        )
        res = search.run({"x": 0, "y": 0})
        assert res.runs <= 2

    def test_input_dedup(self):
        search = DirectedSearch.for_mode(
            parse_program(LINEAR), "f", NativeRegistry(),
            ConcretizationMode.SOUND, SearchConfig(max_runs=50),
        )
        res = search.run({"x": 0, "y": 0})
        vectors = [tuple(sorted(r.result.inputs.items())) for r in res.executions]
        assert len(vectors) == len(set(vectors))

    def test_duplicate_seed_corpus_vectors_run_once(self):
        seed = {"x": 0, "y": 0}
        cfg = SearchConfig(
            max_runs=50, seed_corpus=[dict(seed), {"x": 20, "y": -5}, dict(seed)]
        )
        search = DirectedSearch.for_mode(
            parse_program(LINEAR), "f", NativeRegistry(),
            ConcretizationMode.SOUND, cfg,
        )
        res = search.run(dict(seed))
        inputs = [r.result.inputs for r in res.executions]
        assert inputs.count(seed) == 1
        assert inputs.count({"x": 20, "y": -5}) == 1

    def test_flips_capped_at_max_conditions_per_run(self):
        from repro.search.kernel import MAX_CONDITIONS_PER_RUN

        src = """
        int f(int n) {
            int i = 0;
            while (i < n) { i = i + 1; }
            return i;
        }
        """
        search = DirectedSearch.for_mode(
            parse_program(src), "f", NativeRegistry(),
            ConcretizationMode.SOUND, SearchConfig(max_runs=120),
        )
        res = search.run({"n": 100})
        first = res.executions[0]
        assert len(first.result.path_conditions) > MAX_CONDITIONS_PER_RUN
        # the budget outlasts every capped flip of the first run, so its
        # children stop exactly at the cap
        flipped = sorted(
            r.flipped_index for r in res.executions if r.parent == first.index
        )
        assert flipped == list(range(MAX_CONDITIONS_PER_RUN))

    def test_unconstrained_inputs_keep_previous_values(self):
        src = "int f(int x, int y) { if (x == 5) { return 1; } return 0; }"
        search = DirectedSearch.for_mode(
            parse_program(src), "f", NativeRegistry(),
            ConcretizationMode.SOUND, SearchConfig(max_runs=10),
        )
        res = search.run({"x": 0, "y": 77})
        # every generated vector keeps y = 77: only x was constrained
        assert all(r.result.inputs["y"] == 77 for r in res.executions)

    def test_loop_bounded_exploration(self):
        src = """
        int f(int n) {
            int i = 0;
            while (i < n) { i = i + 1; }
            if (i == 3) { error("loop hit 3"); }
            return i;
        }
        """
        search = DirectedSearch.for_mode(
            parse_program(src), "f", NativeRegistry(),
            ConcretizationMode.SOUND, SearchConfig(max_runs=40),
        )
        res = search.run({"n": 0})
        assert res.found_error
        assert res.errors[0].inputs["n"] == 3

    def test_error_report_rendering(self):
        search = DirectedSearch.for_mode(
            parse_program(LINEAR), "f", NativeRegistry(),
            ConcretizationMode.SOUND, SearchConfig(max_runs=30),
        )
        res = search.run({"x": 0, "y": 0})
        text = str(res.errors[0])
        assert "both" in text and "line" in text

    def test_summary_string(self):
        search = DirectedSearch.for_mode(
            parse_program(LINEAR), "f", NativeRegistry(),
            ConcretizationMode.SOUND, SearchConfig(max_runs=5),
        )
        res = search.run({"x": 0, "y": 0})
        assert "runs=" in res.summary() and "coverage=" in res.summary()


class TestBranchCoverage:
    def test_ratio_and_missing(self):
        prog = parse_program(LINEAR)
        cov = BranchCoverage(prog)
        assert cov.ratio() == 0.0
        cov.record({(0, False), (2, False)})
        assert 0 < cov.ratio() < 1
        missing = cov.missing()
        assert (0, True) in missing and (0, False) not in missing

    def test_history_tracks_runs(self):
        prog = parse_program(LINEAR)
        cov = BranchCoverage(prog)
        cov.record({(0, True)})
        cov.record({(0, True)})
        cov.record({(0, False)})
        assert cov.history == [(1, 1), (2, 1), (3, 2)]

    def test_report_lists_missing(self):
        prog = parse_program(LINEAR)
        cov = BranchCoverage(prog)
        cov.record({(0, True)})
        report = cov.report()
        assert "missing" in report

    def test_program_without_branches(self):
        prog = parse_program("int f(int x) { return x; }")
        cov = BranchCoverage(prog)
        assert cov.ratio() == 1.0
        assert cov.report().startswith("branch coverage: 0/0")


class TestDivergenceDetection:
    def test_unsound_hash_divergence_counted(self):
        src = """
        int f(int x, int y) {
            if (x == hash(y)) {
                if (y == 10) { error("deep"); }
            }
            return 0;
        }
        """
        search = DirectedSearch.for_mode(
            parse_program(src), "f", natives_with_hash(),
            ConcretizationMode.UNSOUND, SearchConfig(max_runs=20),
        )
        hv = (42 * 31 + 7) % 1000
        res = search.run({"x": hv, "y": 42})
        assert res.divergences >= 1
        diverged = [r for r in res.executions if r.diverged]
        assert diverged

    def test_sound_modes_never_diverge(self):
        src = """
        int f(int x, int y) {
            if (x == hash(y)) {
                if (y == 10) { error("deep"); }
            }
            return 0;
        }
        """
        for mode in (
            ConcretizationMode.SOUND,
            ConcretizationMode.SOUND_DELAYED,
            ConcretizationMode.HIGHER_ORDER,
        ):
            search = DirectedSearch.for_mode(
                parse_program(src), "f", natives_with_hash(), mode,
                SearchConfig(max_runs=30),
            )
            res = search.run({"x": 3, "y": 42})
            assert res.divergences == 0, mode


class TestMultiStepDriver:
    def test_resolves_with_existing_samples(self):
        from repro.solver.validity import AppValue, Sample, Strategy

        tm = TermManager()
        h = tm.mk_function("h", 1)
        store = SampleStore()
        store.add(Sample(h, (10,), 66))
        calls = []
        driver = MultiStepDriver(store, calls.append, max_steps=2)
        strategy = Strategy({"x": AppValue(h, (10,)), "y": 10})
        inputs = driver.resolve(strategy, {"x": 0, "y": 0})
        assert inputs == {"x": 66, "y": 10}
        assert calls == []  # no probe needed

    def test_probes_until_sample_learned(self):
        from repro.solver.validity import AppValue, Sample, Strategy

        tm = TermManager()
        h = tm.mk_function("h", 1)
        store = SampleStore()

        def probe(inputs):
            # the "program" hashes its y input
            store.add(Sample(h, (inputs["y"],), inputs["y"] * 7))

        driver = MultiStepDriver(store, probe, max_steps=2)
        strategy = Strategy({"x": AppValue(h, (10,)), "y": 10})
        inputs = driver.resolve(strategy, {"x": 5, "y": 5})
        assert inputs == {"x": 70, "y": 10}
        assert len(driver.probes) == 1
        assert driver.probes[0].resolved

    def test_gives_up_when_probe_learns_nothing(self):
        from repro.solver.validity import AppValue, Strategy

        tm = TermManager()
        h = tm.mk_function("h", 1)
        store = SampleStore()
        driver = MultiStepDriver(store, lambda inputs: None, max_steps=3)
        strategy = Strategy({"x": AppValue(h, (10,)), "y": 10})
        assert driver.resolve(strategy, {}) is None
        assert len(driver.probes) == 1  # stops after a fruitless probe

    def test_offset_applied_after_learning(self):
        from repro.solver.validity import AppValue, Sample, Strategy

        tm = TermManager()
        h = tm.mk_function("h", 1)
        store = SampleStore()

        def probe(inputs):
            store.add(Sample(h, (10,), 100))

        driver = MultiStepDriver(store, probe, max_steps=2)
        strategy = Strategy({"x": AppValue(h, (10,), offset=1), "y": 10})
        inputs = driver.resolve(strategy, {})
        assert inputs == {"x": 101, "y": 10}


class TestHigherOrderBackendDirect:
    def test_generate_returns_none_on_invalid(self):
        tm = TermManager()
        prog = parse_program(
            "int f(int x, int y) {"
            " if (x == hash(y) && y == hash(x)) { error(\"e\"); } return 0; }"
        )
        engine = ConcolicEngine(
            prog, natives_with_hash(), ConcretizationMode.HIGHER_ORDER, tm
        )
        run = engine.run("f", {"x": 3, "y": 4})
        store = SampleStore()
        store.merge_from_run(run)
        backend = HigherOrderBackend(store)
        request = GenerationRequest(
            conditions=list(run.path_conditions),
            index=0,
            input_vars=dict(run.input_vars),
            defaults=dict(run.inputs),
        )
        assert backend.generate(request) is None
        assert backend.verdicts[-1].status.value == "invalid"

    def test_post_formula_rendering(self):
        tm = TermManager()
        prog = parse_program(
            "int f(int x, int y) { if (x == hash(y)) { return 1; } return 0; }"
        )
        engine = ConcolicEngine(
            prog, natives_with_hash(), ConcretizationMode.HIGHER_ORDER, tm
        )
        run = engine.run("f", {"x": 3, "y": 4})
        store = SampleStore()
        store.merge_from_run(run)
        post = build_post(
            tm,
            run.path_conditions,
            0,
            list(run.input_vars.values()),
            store.samples(),
        )
        text = post.render()
        assert "∃" in text and "⇒" in text and "hash" in text


class TestPrivateFlipSolving:
    """Every backend solves its flip on a private copy of the request."""

    @staticmethod
    def _last_flip(mode):
        example = PAPER_EXAMPLES["foo"]
        tm = TermManager()
        engine = ConcolicEngine(example.program(), example.natives(), mode, tm)
        run = engine.run(example.entry, dict(example.initial_inputs))
        store = SampleStore()
        store.merge_from_run(run)
        request = GenerationRequest(
            conditions=list(run.path_conditions),
            index=len(run.path_conditions) - 1,
            input_vars=dict(run.input_vars),
            defaults=dict(run.inputs),
        )
        return tm, store, request

    @pytest.mark.parametrize(
        "mode, make_backend",
        [
            (ConcretizationMode.UNSOUND, lambda store: QuantifierFreeBackend()),
            (ConcretizationMode.HIGHER_ORDER, lambda store: ExistentialBackend()),
            (ConcretizationMode.HIGHER_ORDER, HigherOrderBackend),
        ],
        ids=["quantifier-free", "existential", "higher-order"],
    )
    def test_generate_leaves_the_callers_manager_alone(self, mode, make_backend):
        tm, store, request = self._last_flip(mode)
        backend = make_backend(store)
        before = tm.num_terms
        first = backend.generate(request)
        assert first is not None
        assert tm.num_terms == before
        # unrelated terms interned in the caller's manager do not move
        # the answer: it is a function of the request alone
        for i in range(5):
            tm.mk_lt(tm.mk_var(f"unrelated{i}"), tm.mk_int(i))
        again = backend.generate(request)
        assert again == first
