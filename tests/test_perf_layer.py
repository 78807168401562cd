"""The solver performance layer: sessions, query cache, flip solving.

Three cooperating pieces, each with a determinism obligation:

1. :mod:`repro.solver.session` — incremental sessions must answer exactly
   what a fresh solver would (same sat/unsat; verified models);
2. :mod:`repro.solver.cache` — canonical-key hits must be indistinguishable
   from cold solves, so cache population order is unobservable;
3. ``backend.generate`` — each flip is solved on a private
   :func:`~repro.search.request.import_request` copy whose term ids depend
   only on the request.
"""

import random

import pytest

from repro.errors import SolverError
from repro.lang import NativeRegistry, parse_program
from repro.lang.randprog import generate_program
from repro.obs import MetricsRegistry, use_registry
from repro.search import DirectedSearch, SearchConfig
from repro.search.request import GeneratedTest, GenerationRequest, import_request
from repro.solver import (
    PrefixSession,
    QueryCache,
    Solver,
    SolverSession,
    TermManager,
    use_cache,
)
from repro.solver.evalmodel import evaluate
from repro.solver.terms import canonical_query
from repro.symbolic import ConcolicEngine, ConcretizationMode


def natives_with_hash():
    n = NativeRegistry()
    n.register("hash", lambda y: (y * 31 + 7) % 1000)
    return n


# -- canonical keys ----------------------------------------------------------


class TestCanonicalQuery:
    def test_alpha_equivalent_formulas_share_a_key(self):
        tm1, tm2 = TermManager(), TermManager()
        h1 = tm1.mk_function("h", 1)
        h2 = tm2.mk_function("g", 1)  # different name, same role
        a, b = tm1.mk_var("a"), tm1.mk_var("b")
        x, y = tm2.mk_var("x"), tm2.mk_var("y")
        f1 = tm1.mk_and(
            tm1.mk_eq(a, tm1.mk_app(h1, [b])), tm1.mk_lt(b, tm1.mk_int(7))
        )
        f2 = tm2.mk_and(
            tm2.mk_eq(x, tm2.mk_app(h2, [y])), tm2.mk_lt(y, tm2.mk_int(7))
        )
        assert canonical_query([f1]).key == canonical_query([f2]).key

    def test_structural_difference_changes_the_key(self):
        tm = TermManager()
        x = tm.mk_var("x")
        f1 = tm.mk_lt(x, tm.mk_int(7))
        f2 = tm.mk_lt(x, tm.mk_int(8))
        assert canonical_query([f1]).key != canonical_query([f2]).key

    def test_commutative_argument_order_is_normalized(self):
        tm = TermManager()
        x, y = tm.mk_var("x"), tm.mk_var("y")
        f1 = tm.mk_and(tm.mk_lt(x, y), tm.mk_lt(y, tm.mk_int(3)))
        f2 = tm.mk_and(tm.mk_lt(y, tm.mk_int(3)), tm.mk_lt(x, y))
        assert canonical_query([f1]).key == canonical_query([f2]).key


# -- the query cache ---------------------------------------------------------


class TestQueryCache:
    def test_alpha_variant_query_hits_and_model_translates(self):
        cache = QueryCache()
        with use_cache(cache):
            tm1 = TermManager()
            h = tm1.mk_function("h", 1)
            a, b = tm1.mk_var("a"), tm1.mk_var("b")
            f1 = tm1.mk_and(
                tm1.mk_eq(a, tm1.mk_app(h, [b])), tm1.mk_gt(b, tm1.mk_int(5))
            )
            s1 = Solver(tm1)
            s1.add(f1)
            r1 = s1.check()
            assert r1.sat and cache.misses == 1 and cache.hits == 0

            tm2 = TermManager()
            g = tm2.mk_function("g", 1)
            x, y = tm2.mk_var("x"), tm2.mk_var("y")
            f2 = tm2.mk_and(
                tm2.mk_eq(x, tm2.mk_app(g, [y])), tm2.mk_gt(y, tm2.mk_int(5))
            )
            s2 = Solver(tm2)
            s2.add(f2)
            r2 = s2.check()
            assert r2.sat and cache.hits == 1
            # the hit's model is translated through the asking query's own
            # leaves and still satisfies it
            assert evaluate(f2, r2.model) is True

    def test_lru_eviction(self):
        cache = QueryCache(capacity=2)
        with use_cache(cache):
            tm = TermManager()
            x = tm.mk_var("x")
            for bound in (1, 2, 3):
                s = Solver(tm)
                s.add(tm.mk_gt(x, tm.mk_int(bound)))
                assert s.check().sat
            assert len(cache) == 2  # first entry evicted
            s = Solver(tm)
            s.add(tm.mk_gt(x, tm.mk_int(1)))
            s.check()
            assert cache.misses == 4  # evicted entry re-solved

    def test_disabled_cache_means_cold_solves(self):
        with use_cache(None):
            tm = TermManager()
            x = tm.mk_var("x")
            s = Solver(tm)
            s.add(tm.mk_gt(x, tm.mk_int(0)))
            assert s.check().sat

    def test_hit_metrics_recorded(self):
        registry = MetricsRegistry()
        cache = QueryCache()
        with use_registry(registry), use_cache(cache):
            tm = TermManager()
            x = tm.mk_var("x")
            for _ in range(2):
                s = Solver(tm)
                s.add(tm.mk_gt(x, tm.mk_int(0)))
                s.check()
        snap = registry.snapshot()["counters"]
        assert snap["solver.cache.misses"] == 1
        assert snap["solver.cache.hits"] == 1


# -- incremental sessions ----------------------------------------------------


def _random_formula(tm, rng, variables, fn):
    def leaf():
        choice = rng.randrange(3)
        if choice == 0:
            return rng.choice(variables)
        if choice == 1:
            return tm.mk_int(rng.randint(-8, 8))
        return tm.mk_app(fn, [rng.choice(variables)])

    def atom():
        op = rng.choice([tm.mk_eq, tm.mk_lt, tm.mk_le, tm.mk_gt])
        return op(leaf(), leaf())

    parts = [atom() for _ in range(rng.randint(1, 3))]
    formula = parts[0]
    for part in parts[1:]:
        formula = (tm.mk_and if rng.random() < 0.7 else tm.mk_or)(formula, part)
    if rng.random() < 0.25:
        formula = tm.mk_not(formula)
    return formula


class TestSolverSession:
    def test_session_matches_fresh_solver_randomized(self):
        for seed in range(20):
            rng = random.Random(seed)
            tm = TermManager()
            variables = [tm.mk_var(f"v{i}") for i in range(3)]
            fn = tm.mk_function("h", 1)
            base = _random_formula(tm, rng, variables, fn)

            session = SolverSession(tm)
            session.assert_base(base)
            for _ in range(3):
                extra = _random_formula(tm, rng, variables, fn)
                got = session.check(extra)
                with use_cache(None):
                    cold = Solver(tm)
                    cold.add(base)
                    cold.add(extra)
                    want = cold.check()
                assert got.sat == want.sat, (seed, base, extra)
                if got.sat:
                    assert evaluate(tm.mk_and(base, extra), got.model) is True

    def test_push_pop_scopes(self):
        tm = TermManager()
        x = tm.mk_var("x")
        session = SolverSession(tm)
        session.assert_base(tm.mk_gt(x, tm.mk_int(0)))
        session.push()
        session.assert_term(tm.mk_lt(x, tm.mk_int(0)))
        assert session.check().sat is False
        session.pop()
        assert session.check().sat is True

    def test_assert_base_refused_under_open_scope(self):
        tm = TermManager()
        session = SolverSession(tm)
        session.push()
        with pytest.raises(SolverError):
            session.assert_base(tm.mk_gt(tm.mk_var("x"), tm.mk_int(0)))

    def test_prefix_session_reuses_common_prefix(self):
        registry = MetricsRegistry()
        tm = TermManager()
        x, y = tm.mk_var("x"), tm.mk_var("y")
        c1 = tm.mk_gt(x, tm.mk_int(0))
        c2 = tm.mk_gt(y, tm.mk_int(0))
        c3a = tm.mk_lt(x, y)
        c3b = tm.mk_gt(x, y)
        with use_registry(registry):
            prefix_session = PrefixSession(tm)
            assert prefix_session.solve([c1, c2, c3a]).sat
            assert prefix_session.solve([c1, c2, c3b]).sat  # retains c1, c2
        hist = registry.snapshot()["histograms"]["solver.session.reuse_depth"]
        assert hist["max"] == 2.0  # the second solve kept a 2-deep prefix
        counters = registry.snapshot()["counters"]
        assert counters["solver.session.push"] >= 4
        assert counters["solver.session.pop"] >= 1


# -- flip solving on an imported request --------------------------------------

FOO = """
int main(int x, int y) {
    if (x == hash(y)) {
        if (y == 10) {
            error("foo deep bug");
        }
    }
    return 0;
}
"""


def _suite(source, entry, natives, seed_inputs, mode, cache=True, max_runs=60):
    with use_cache(QueryCache() if cache else None):
        search = DirectedSearch.for_mode(
            parse_program(source), entry, natives, mode,
            SearchConfig(max_runs=max_runs),
        )
        res = search.run(dict(seed_inputs))
    return (
        [
            (r.result.inputs, r.parent, r.flipped_index, r.diverged, r.note)
            for r in res.executions
        ],
        res.divergences,
        res.coverage.ratio(),
        res.distinct_paths,
    )


class TestParallelDeterminism:
    def test_import_request_shares_function_symbols(self):
        tm = TermManager()
        h = tm.mk_function("h", 1)
        y = tm.mk_var("y")
        engine_like = GenerationRequest(
            conditions=[],
            index=0,
            input_vars={"y": y},
            defaults={"y": 3},
        )
        local, copy = import_request(engine_like)
        assert local is not tm
        assert copy.input_vars["y"] is not y
        assert copy.input_vars["y"].name == "y"
        local_app = local.mk_app(h, [copy.input_vars["y"]])
        assert local_app.fn is h  # symbols shared, terms private

    # seed band hand-picked to avoid generated programs whose *cold*
    # searches hit multi-minute solver queries (the cache exists for a
    # reason, but tier-1 must stay fast)
    @pytest.mark.parametrize("seed", [4100, 4101, 4103, 4104, 4105, 4106])
    def test_cached_and_cold_searches_agree(self, seed):
        rp = generate_program(seed)
        seeds = rp.random_inputs(random.Random(seed))
        # a small run budget: a handful of generated programs are
        # pathologically slow for the cold solver (the cache exists for a
        # reason), and this property only needs agreement, not depth
        cold = _suite(
            rp.source, rp.entry, rp.natives(), seeds,
            ConcretizationMode.HIGHER_ORDER, cache=False, max_runs=12,
        )
        warm = _suite(
            rp.source, rp.entry, rp.natives(), dict(seeds),
            ConcretizationMode.HIGHER_ORDER, cache=True, max_runs=12,
        )
        assert cold == warm

    def test_unknown_backend_falls_back_to_inline_generate(self):
        class OddBackend:
            name = "odd"

            def __init__(self):
                self.calls = []

            def generate(self, request):
                self.calls.append(request.index)
                return GeneratedTest(inputs={"x": 7 + request.index, "y": 2})

        backend = OddBackend()
        engine = ConcolicEngine(
            parse_program(FOO),
            natives_with_hash(),
            ConcretizationMode.UNSOUND,
            TermManager(),
        )
        search = DirectedSearch(
            engine, "main", backend, config=SearchConfig(max_runs=5)
        )
        result = search.run({"x": 1, "y": 2})
        # the kernel hands the seed's one flip to the backend's own generate
        # and executes exactly what it returned
        assert backend.calls == [0]
        child = result.executions[1]
        assert (child.parent, child.flipped_index) == (0, 0)
        assert child.result.inputs == {"x": 7, "y": 2}


class TestProbeDedupe:
    CHAIN = """
    int chain(int x, int y, int z) {
        if (x == hash(y)) {
            if (z == hash(x)) {
                if (y == 5) {
                    error("deep");
                }
            }
        }
        return 0;
    }
    """

    def test_no_vector_is_ever_executed_twice(self):
        search = DirectedSearch.for_mode(
            parse_program(self.CHAIN), "chain", natives_with_hash(),
            ConcretizationMode.HIGHER_ORDER, SearchConfig(max_runs=60),
        )
        res = search.run({"x": 1, "y": 2, "z": 3})
        assert res.found_error
        vectors = [
            tuple(sorted(r.result.inputs.items())) for r in res.executions
        ]
        assert len(vectors) == len(set(vectors)), vectors

    def test_probe_of_known_vector_consumes_no_budget(self):
        search = DirectedSearch.for_mode(
            parse_program(FOO), "main", natives_with_hash(),
            ConcretizationMode.HIGHER_ORDER, SearchConfig(max_runs=60),
        )
        result = search.run({"x": 3, "y": 5})
        runs_before = search._result.runs
        # re-probing an already-executed vector is a silent no-op
        search._probe_runner(dict(result.executions[0].result.inputs))
        assert search._result.runs == runs_before
