"""Tests for validity/invalidity certificates."""

import pytest

from repro.errors import SolverError
from repro.solver import TermManager
from repro.solver.certificates import (
    InvalidityCertificate,
    ValidityCertificate,
    certify,
)
from repro.solver.validity import (
    AppValue,
    Sample,
    Strategy,
    ValidityChecker,
    ValidityResult,
    ValidityStatus,
)


@pytest.fixture()
def ctx():
    tm = TermManager()
    return {
        "tm": tm,
        "x": tm.mk_var("x"),
        "y": tm.mk_var("y"),
        "h": tm.mk_function("h", 1),
        "vc": ValidityChecker(tm),
    }


class TestValidityCertificates:
    def test_certify_valid_verdict(self, ctx):
        tm, x, y, h = ctx["tm"], ctx["x"], ctx["y"], ctx["h"]
        pc = tm.mk_eq(x, tm.mk_app(h, [y]))
        samples = [Sample(h, (42,), 567)]
        verdict = ctx["vc"].check(pc, [x, y], samples)
        cert = certify(tm, verdict, pc, [x, y], samples)
        assert isinstance(cert, ValidityCertificate)
        assert cert.check(tm)

    def test_certificate_smtlib_export(self, ctx):
        tm, x, y, h = ctx["tm"], ctx["x"], ctx["y"], ctx["h"]
        pc = tm.mk_eq(x, tm.mk_app(h, [y]))
        samples = [Sample(h, (42,), 567)]
        verdict = ctx["vc"].check(pc, [x, y], samples)
        cert = certify(tm, verdict, pc, [x, y], samples)
        script = cert.to_smtlib(tm)
        assert "(check-sat)" in script and "(declare-fun h" in script

    def test_bogus_strategy_rejected(self, ctx):
        tm, x, y, h = ctx["tm"], ctx["x"], ctx["y"], ctx["h"]
        pc = tm.mk_eq(x, tm.mk_app(h, [y]))
        bogus = ValidityResult(
            status=ValidityStatus.VALID,
            strategy=Strategy({"x": 1, "y": 2}),  # 1 != h(2) in general
        )
        with pytest.raises(SolverError):
            certify(tm, bogus, pc, [x, y], [Sample(h, (42,), 567)])

    def test_multistep_strategy_certifies(self, ctx):
        tm, x, y, h = ctx["tm"], ctx["x"], ctx["y"], ctx["h"]
        pc = tm.mk_and(
            tm.mk_eq(x, tm.mk_app(h, [y])), tm.mk_eq(y, tm.mk_int(10))
        )
        samples = [Sample(h, (42,), 567)]
        verdict = ctx["vc"].check(pc, [x, y], samples)
        cert = certify(tm, verdict, pc, [x, y], samples)
        # the strategy references the unsampled point h(10) yet the
        # certificate holds for every h: the UNSAT check is symbolic
        assert cert.check(tm)

    def test_incomplete_strategy_fails_check(self, ctx):
        tm, x, y, h = ctx["tm"], ctx["x"], ctx["y"], ctx["h"]
        pc = tm.mk_eq(x, tm.mk_app(h, [y]))
        cert = ValidityCertificate(
            pc=pc, input_vars=[x, y], samples=[], strategy=Strategy({"x": 1})
        )
        assert not cert.check(tm)


class TestInvalidityCertificates:
    def test_certify_invalid_verdict(self, ctx):
        tm, x, y, h = ctx["tm"], ctx["x"], ctx["y"], ctx["h"]
        pc = tm.mk_and(
            tm.mk_eq(x, tm.mk_app(h, [y])), tm.mk_eq(y, tm.mk_app(h, [x]))
        )
        samples = [Sample(h, (42,), 567), Sample(h, (33,), 123)]
        verdict = ctx["vc"].check(pc, [x, y], samples)
        assert verdict.status is ValidityStatus.INVALID
        cert = certify(tm, verdict, pc, [x, y], samples)
        assert isinstance(cert, InvalidityCertificate)
        assert cert.check(tm)

    def test_fastpath_invalid_gets_default_adversary(self, ctx):
        tm, x = ctx["tm"], ctx["x"]
        pc = tm.mk_and(
            tm.mk_gt(x, tm.mk_int(0)), tm.mk_lt(x, tm.mk_int(0))
        )
        verdict = ctx["vc"].check(pc, [x], [])
        cert = certify(tm, verdict, pc, [x], [])
        assert isinstance(cert, InvalidityCertificate)
        assert cert.check(tm)

    def test_unknown_cannot_certify(self, ctx):
        tm, x = ctx["tm"], ctx["x"]
        with pytest.raises(SolverError):
            certify(
                tm,
                ValidityResult(status=ValidityStatus.UNKNOWN),
                tm.mk_gt(x, tm.mk_int(0)),
                [x],
            )

    def test_sample_inconsistent_adversary_fails(self, ctx):
        from repro.solver import Model

        tm, x, h = ctx["tm"], ctx["x"], ctx["h"]
        pc = tm.mk_gt(tm.mk_app(h, [x]), tm.mk_int(0))
        bad = Model(default=0)
        bad.functions[h] = {(1,): 99}  # contradicts the recorded sample
        cert = InvalidityCertificate(
            pc=pc,
            input_vars=[x],
            samples=[Sample(h, (1,), 5)],
            adversary=bad,
        )
        assert not cert.check(tm)


class TestEndToEndCertification:
    @pytest.mark.parametrize(
        "name", ["obscure", "bar", "pub", "euf_eq"]
    )
    def test_all_paper_verdicts_certify(self, name):
        """Every decidable verdict on the paper examples round-trips
        through certification."""
        from repro.apps.paper_programs import PAPER_EXAMPLES, make_paper_natives
        from repro.core import SampleStore, alternate_constraint, negatable_indices
        from repro.symbolic import ConcolicEngine, ConcretizationMode

        ex = PAPER_EXAMPLES[name]
        tm = TermManager()
        engine = ConcolicEngine(
            ex.program(), make_paper_natives(),
            ConcretizationMode.HIGHER_ORDER, tm,
        )
        run = engine.run(ex.entry, dict(ex.initial_inputs))
        store = SampleStore()
        store.merge_from_run(run)
        checker = ValidityChecker(tm)
        for i in negatable_indices(run.path_conditions):
            alt = alternate_constraint(tm, run.path_conditions, i)
            verdict = checker.check(
                alt, list(run.input_vars.values()), store.samples(),
                defaults=dict(run.inputs),
            )
            if verdict.status is ValidityStatus.UNKNOWN:
                continue
            cert = certify(
                tm, verdict, alt, list(run.input_vars.values()), store.samples()
            )
            assert cert.check(tm)


class TestInSearchAudit:
    """Every VALID and INVALID verdict a real search reaches certifies:
    ``ValidityChecker.check`` is wrapped so that each verdict is packaged
    and re-checked by a fresh solver the moment it is returned."""

    @pytest.fixture()
    def audited(self, monkeypatch):
        """The statuses of the certified verdicts; a verdict that fails to
        certify is recorded, not raised, since the search's solver ladder
        would contain the error."""
        verdicts, failures = [], []
        check = ValidityChecker.check

        def audited_check(self, pc, input_vars, samples=(), defaults=None):
            result = check(self, pc, input_vars, samples, defaults)
            if result.status is not ValidityStatus.UNKNOWN:
                witnessed = list(samples) if self.use_antecedent else []
                try:
                    certify(self.tm, result, pc, list(input_vars), witnessed)
                except SolverError as exc:
                    failures.append(f"{result.status.value} {pc}: {exc}")
                verdicts.append(result.status)
            return result

        monkeypatch.setattr(ValidityChecker, "check", audited_check)
        yield verdicts
        assert failures == []

    def test_lexer_search_verdicts_certify(self, audited):
        from repro import api
        from repro.apps.lexer_app import build_lexer_program

        lexer = build_lexer_program()
        result = api.generate_tests(
            lexer.program,
            entry=lexer.entry,
            strategy="hotg",
            config={"max_runs": 30},
            natives=lexer.fresh_natives(),
            seed=lexer.initial_inputs("abc"),
        )
        assert not result.interrupted
        assert ValidityStatus.VALID in audited
        assert ValidityStatus.INVALID in audited

    def test_paper_suite_verdicts_certify(self, audited):
        from repro import api
        from repro.engine import CampaignSpec

        spec = CampaignSpec.paper_suite(
            schedulers=("dfs", "generational", "coverage")
        )
        report = api.Client(workers=1).submit(spec).wait()
        assert not report.failed_jobs
        assert ValidityStatus.VALID in audited
        assert ValidityStatus.INVALID in audited
