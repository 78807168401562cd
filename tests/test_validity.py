"""Tests for the validity checker / strategy synthesis engine (paper §4–5)."""

import pytest

from repro.errors import StrategyError
from repro.solver import Model, TermManager, evaluate
from repro.solver.session import SolverSession
from repro.solver.validity import (
    AppValue,
    Sample,
    SampleRequest,
    Strategy,
    ValidityChecker,
    ValidityStatus,
)


@pytest.fixture()
def tm():
    return TermManager()


@pytest.fixture()
def ctx(tm):
    return {
        "x": tm.mk_var("x"),
        "y": tm.mk_var("y"),
        "h": tm.mk_function("h", 1),
        "f": tm.mk_function("f", 1),
        "vc": ValidityChecker(tm),
    }


class TestPaperExamples:
    def test_obscure_with_sample_valid(self, tm, ctx):
        """Paper §4.2: ∃x,y: (h(42)=567) ⇒ x = h(y) is valid."""
        pc = tm.mk_eq(ctx["x"], tm.mk_app(ctx["h"], [ctx["y"]]))
        r = ctx["vc"].check(
            pc, [ctx["x"], ctx["y"]], [Sample(ctx["h"], (42,), 567)],
            defaults={"x": 33, "y": 42},
        )
        assert r.status is ValidityStatus.VALID
        inputs = r.strategy.concretize([Sample(ctx["h"], (42,), 567)])
        assert inputs["x"] == 567 and inputs["y"] == 42

    def test_example3_bar_invalid(self, tm, ctx):
        """Paper Example 3: ∃x,y: x=h(y) ∧ y=h(x) is invalid."""
        pc = tm.mk_and(
            tm.mk_eq(ctx["x"], tm.mk_app(ctx["h"], [ctx["y"]])),
            tm.mk_eq(ctx["y"], tm.mk_app(ctx["h"], [ctx["x"]])),
        )
        samples = [Sample(ctx["h"], (42,), 567), Sample(ctx["h"], (33,), 123)]
        r = ctx["vc"].check(pc, [ctx["x"], ctx["y"]], samples)
        assert r.status is ValidityStatus.INVALID
        assert r.adversary is not None

    def test_example4_pub_without_samples_invalid(self, tm, ctx):
        """Paper Example 4: ∃x,y: h(x)>0 ∧ y=10 invalid without samples."""
        pc = tm.mk_and(
            tm.mk_gt(tm.mk_app(ctx["h"], [ctx["x"]]), tm.mk_int(0)),
            tm.mk_eq(ctx["y"], tm.mk_int(10)),
        )
        r = ctx["vc"].check(pc, [ctx["x"], ctx["y"]], [])
        assert r.status is ValidityStatus.INVALID

    def test_example4_pub_with_sample_valid(self, tm, ctx):
        """Paper Example 4: with h(1)=5 recorded the formula becomes valid."""
        pc = tm.mk_and(
            tm.mk_gt(tm.mk_app(ctx["h"], [ctx["x"]]), tm.mk_int(0)),
            tm.mk_eq(ctx["y"], tm.mk_int(10)),
        )
        r = ctx["vc"].check(pc, [ctx["x"], ctx["y"]], [Sample(ctx["h"], (1,), 5)])
        assert r.status is ValidityStatus.VALID
        inputs = r.strategy.concretize([Sample(ctx["h"], (1,), 5)])
        assert inputs == {"x": 1, "y": 10}

    def test_example5_euf_axiom_valid(self, tm, ctx):
        """Paper Example 5: ∃x,y: f(x)=f(y) valid via strategy x=y."""
        pc = tm.mk_eq(
            tm.mk_app(ctx["f"], [ctx["x"]]), tm.mk_app(ctx["f"], [ctx["y"]])
        )
        r = ctx["vc"].check(pc, [ctx["x"], ctx["y"]], [])
        assert r.status is ValidityStatus.VALID
        inputs = r.strategy.concretize([])
        assert inputs["x"] == inputs["y"]

    def test_example6_antecedent_flips_verdict(self, tm, ctx):
        """Paper Example 6: f(x)=f(y)+1 needs samples f(0)=0, f(1)=1."""
        pc = tm.mk_eq(
            tm.mk_app(ctx["f"], [ctx["x"]]),
            tm.mk_add(tm.mk_app(ctx["f"], [ctx["y"]]), tm.mk_int(1)),
        )
        r_no = ctx["vc"].check(pc, [ctx["x"], ctx["y"]], [])
        assert r_no.status is ValidityStatus.INVALID
        samples = [Sample(ctx["f"], (0,), 0), Sample(ctx["f"], (1,), 1)]
        r_yes = ctx["vc"].check(pc, [ctx["x"], ctx["y"]], samples)
        assert r_yes.status is ValidityStatus.VALID
        inputs = r_yes.strategy.concretize(samples)
        assert inputs == {"x": 1, "y": 0}

    def test_example7_multistep_strategy(self, tm, ctx):
        """Paper Example 7: strategy "y := 10, x := h(10)" with pending sample."""
        pc = tm.mk_and(
            tm.mk_eq(ctx["x"], tm.mk_app(ctx["h"], [ctx["y"]])),
            tm.mk_eq(ctx["y"], tm.mk_int(10)),
        )
        samples = [Sample(ctx["h"], (42,), 567)]
        r = ctx["vc"].check(
            pc, [ctx["x"], ctx["y"]], samples, defaults={"x": 567, "y": 42}
        )
        assert r.status is ValidityStatus.VALID
        pending = r.strategy.pending(samples)
        assert pending == [SampleRequest(ctx["h"], (10,))]
        # once the sample is learned the strategy concretizes
        learned = samples + [Sample(ctx["h"], (10,), 66)]
        assert r.strategy.concretize(learned) == {"x": 66, "y": 10}

    def test_antecedent_disabled_reproduces_paper_contrast(self, tm, ctx):
        """With use_antecedent=False, Example 4's sample is ignored."""
        vc_no_ant = ValidityChecker(tm, use_antecedent=False)
        pc = tm.mk_and(
            tm.mk_gt(tm.mk_app(ctx["h"], [ctx["x"]]), tm.mk_int(0)),
            tm.mk_eq(ctx["y"], tm.mk_int(10)),
        )
        r = vc_no_ant.check(pc, [ctx["x"], ctx["y"]], [Sample(ctx["h"], (1,), 5)])
        assert r.status is ValidityStatus.INVALID


class TestHashInversion:
    """The §7 application shape: invert a hash through recorded samples."""

    def test_single_preimage(self, tm, ctx):
        pc = tm.mk_eq(tm.mk_app(ctx["h"], [ctx["y"]]), tm.mk_int(52))
        samples = [
            Sample(ctx["h"], (7,), 99),
            Sample(ctx["h"], (13,), 52),
            Sample(ctx["h"], (21,), 14),
        ]
        r = ctx["vc"].check(pc, [ctx["y"]], samples)
        assert r.status is ValidityStatus.VALID
        assert r.strategy.concretize(samples)["y"] == 13

    def test_collision_any_preimage_accepted(self, tm, ctx):
        pc = tm.mk_eq(tm.mk_app(ctx["h"], [ctx["y"]]), tm.mk_int(52))
        samples = [Sample(ctx["h"], (13,), 52), Sample(ctx["h"], (99,), 52)]
        r = ctx["vc"].check(pc, [ctx["y"]], samples)
        assert r.status is ValidityStatus.VALID
        assert r.strategy.concretize(samples)["y"] in (13, 99)

    def test_no_preimage_invalid(self, tm, ctx):
        pc = tm.mk_eq(tm.mk_app(ctx["h"], [ctx["y"]]), tm.mk_int(1000))
        samples = [Sample(ctx["h"], (13,), 52)]
        r = ctx["vc"].check(pc, [ctx["y"]], samples)
        # not provably valid: h may have no 1000-preimage
        assert r.status is not ValidityStatus.VALID

    def test_negative_condition_avoids_samples(self, tm, ctx):
        # want h(y) != 52 with full freedom: pick y off the sampled point
        pc = tm.mk_ne(tm.mk_app(ctx["h"], [ctx["y"]]), tm.mk_int(52))
        samples = [Sample(ctx["h"], (13,), 52), Sample(ctx["h"], (7,), 99)]
        r = ctx["vc"].check(pc, [ctx["y"]], samples)
        assert r.status is ValidityStatus.VALID
        assert r.strategy.concretize(samples)["y"] == 7


class TestStrategyObject:
    def test_concretize_constants(self):
        s = Strategy({"x": 5, "y": -3})
        assert s.concretize([]) == {"x": 5, "y": -3}

    def test_concretize_missing_sample_raises(self, tm, ctx):
        s = Strategy({"x": AppValue(ctx["h"], (10,))})
        with pytest.raises(StrategyError):
            s.concretize([])

    def test_pending_lists_only_missing(self, tm, ctx):
        s = Strategy(
            {"a": AppValue(ctx["h"], (10,)), "b": AppValue(ctx["h"], (42,)), "c": 3}
        )
        pending = s.pending([Sample(ctx["h"], (42,), 567)])
        assert pending == [SampleRequest(ctx["h"], (10,))]

    def test_str_render(self, tm, ctx):
        s = Strategy({"x": AppValue(ctx["h"], (10,)), "y": 10})
        assert "x := h(10)" in str(s)


class TestEdgeCases:
    def test_true_pc_trivially_valid(self, tm, ctx):
        r = ctx["vc"].check(tm.true_, [ctx["x"]], [], defaults={"x": 7})
        assert r.status is ValidityStatus.VALID
        assert r.strategy.concretize([]) == {"x": 7}

    def test_false_pc_invalid(self, tm, ctx):
        r = ctx["vc"].check(tm.false_, [ctx["x"]], [])
        assert r.status is ValidityStatus.INVALID

    def test_uf_free_satisfiable(self, tm, ctx):
        pc = tm.mk_eq(tm.mk_add(ctx["x"], ctx["y"]), tm.mk_int(12))
        r = ctx["vc"].check(pc, [ctx["x"], ctx["y"]], [])
        assert r.status is ValidityStatus.VALID
        inputs = r.strategy.concretize([])
        assert inputs["x"] + inputs["y"] == 12

    def test_uf_free_unsat_invalid(self, tm, ctx):
        pc = tm.mk_and(
            tm.mk_gt(ctx["x"], tm.mk_int(0)), tm.mk_lt(ctx["x"], tm.mk_int(0))
        )
        r = ctx["vc"].check(pc, [ctx["x"]], [])
        assert r.status is ValidityStatus.INVALID

    def test_defaults_fill_unconstrained_vars(self, tm, ctx):
        pc = tm.mk_eq(ctx["x"], tm.mk_int(1))
        r = ctx["vc"].check(pc, [ctx["x"], ctx["y"]], [], defaults={"y": 42})
        assert r.status is ValidityStatus.VALID
        assert r.strategy.concretize([])["y"] == 42

    def test_binary_function_samples(self, tm, ctx):
        g = tm.mk_function("g", 2)
        pc = tm.mk_eq(tm.mk_app(g, [ctx["x"], ctx["y"]]), tm.mk_int(7))
        samples = [Sample(g, (2, 3), 7), Sample(g, (5, 5), 1)]
        r = ctx["vc"].check(pc, [ctx["x"], ctx["y"]], samples)
        assert r.status is ValidityStatus.VALID
        assert r.strategy.concretize(samples) == {"x": 2, "y": 3}

    def test_strategy_verified_against_adversaries(self, tm, ctx):
        """Validity answers carry a machine-checked certificate: re-verify
        the returned strategy against a hostile function interpretation."""
        pc = tm.mk_and(
            tm.mk_gt(tm.mk_app(ctx["h"], [ctx["x"]]), tm.mk_int(0)),
            tm.mk_eq(ctx["y"], tm.mk_int(10)),
        )
        samples = [Sample(ctx["h"], (1,), 5)]
        r = ctx["vc"].check(pc, [ctx["x"], ctx["y"]], samples)
        assert r.status is ValidityStatus.VALID
        inputs = r.strategy.concretize(samples)
        # hostile h: 0 everywhere except the recorded sample
        hostile = Model(ints=dict(inputs), default=0)
        hostile.functions[ctx["h"]] = {(1,): 5}
        assert evaluate(pc, hostile) is True


class TestOneSessionPerCheck:
    def test_unverifiable_check_opens_one_session(self, tm, ctx, monkeypatch):
        """``h(x) < x`` with ``h(1) = 1`` recorded: no candidate is valid,
        and the check still opens one solver session, the antecedent
        session that verifies every candidate."""
        import repro.solver.validity as validity

        built = []

        class Recording(SolverSession):
            def __init__(self, *args, **kwargs):
                built.append(args)
                super().__init__(*args, **kwargs)

        monkeypatch.setattr(validity, "SolverSession", Recording)
        x, h = ctx["x"], ctx["h"]
        pc = tm.mk_lt(tm.mk_app(h, [x]), x)
        r = ctx["vc"].check(pc, [x], [Sample(h, (1,), 1)])
        assert r.status is not ValidityStatus.VALID
        assert r.candidates_tried >= 1
        assert len(built) == 1
