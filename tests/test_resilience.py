"""Tests for the resilience layer: fault injection, the solver degradation
ladder, crash containment, journal/checkpoint write tolerance, and
checkpoint/resume determinism."""

import io
import json
import os

import pytest

from repro.apps.paper_programs import PAPER_EXAMPLES
from repro.cli import main
from repro.search.report import suite_digest
from repro.core import SampleStore
from repro.errors import (
    FaultPlanError,
    ResourceLimitError,
    RunBudgetExhausted,
    SearchInterrupted,
    StepBudgetExceeded,
)
from repro.faults import (
    NULL_PLAN,
    FaultPlan,
    FaultRule,
    current_fault_plan,
    use_fault_plan,
)
from repro.lang import NativeRegistry, parse_program
from repro.obs import Observability
from repro.obs.journal import RunJournal
from repro.obs.metrics import MetricsRegistry, use_registry
from repro.search import (
    DirectedSearch,
    QuantifierFreeBackend,
    ReplayCursor,
    SearchConfig,
    SearchResult,
)
from repro.solver import TermManager
from repro.solver.budget import (
    DEFAULT_BUDGET,
    DEGRADED_BUDGET,
    SolverBudget,
    current_budget,
    use_budget,
)
from repro.solver.cache import use_cache
from repro.symbolic import ConcolicEngine, ConcretizationMode


def natives_with_hash():
    n = NativeRegistry()
    n.register("hash", lambda y: (y * 31 + 7) % 1000)
    return n


CHAIN = """
int main(int x, int y, int z) {
    if (x == hash(y)) {
        if (z == hash(x)) {
            if (y == 5) {
                error("three levels deep");
            }
        }
    }
    return 0;
}
"""

#: the flip of ``x > 5`` generates an input whose run blows the step budget
LOOPY = """
int f(int x) {
    if (x > 5) {
        int i;
        int s;
        s = 0;
        for (i = 0; i < 500; i = i + 1) { s = s + 1; }
        return s;
    }
    return 0;
}
"""

#: the flip of ``x > 7`` generates an input that uses an array as a scalar
ARRAY_MISUSE = """
int f(int x) {
    int a[4];
    a[0] = 1;
    if (x > 7) {
        int y;
        y = a + 1;
        return y;
    }
    return 0;
}
"""

#: the flip of ``y == 0`` generates an input that divides by zero
DIV_MID_SEARCH = """
int f(int x, int y) {
    if (y == 0) {
        int r;
        r = 10 / y;
        return r;
    }
    return x;
}
"""


def chain_search(checkpoint_dir=None, resume_from=None, max_runs=60):
    config = SearchConfig(
        max_runs=max_runs,
        checkpoint_dir=checkpoint_dir,
        checkpoint_every=2,
        resume_from=resume_from,
    )
    return DirectedSearch.for_mode(
        parse_program(CHAIN),
        "main",
        natives_with_hash(),
        ConcretizationMode.HIGHER_ORDER,
        config,
    )


CHAIN_SEED = {"x": 1, "y": 2, "z": 3}


class TestFaultPlanParsing:
    def test_parse_and_spec_round_trip(self):
        spec = "solver:rate=0.2,seed=7;interp:at=3+5;kill:at=25"
        plan = FaultPlan.parse(spec)
        reparsed = FaultPlan.parse(plan.spec())
        assert reparsed.spec() == plan.spec()
        assert "interp:at=3+5" in plan.spec()

    def test_unknown_site_rejected(self):
        with pytest.raises(FaultPlanError):
            FaultPlan.parse("disk:at=1")
        # the speculative-planning site went with threaded flip planning
        with pytest.raises(FaultPlanError):
            FaultPlan.parse("worker:at=1")

    def test_bad_option_rejected(self):
        with pytest.raises(FaultPlanError):
            FaultPlan.parse("solver:at=banana")
        with pytest.raises(FaultPlanError):
            FaultPlan.parse("solver:frequency=2")
        with pytest.raises(FaultPlanError):
            FaultPlan.parse("solver")

    def test_exactly_one_trigger_per_rule(self):
        with pytest.raises(FaultPlanError):
            FaultRule("solver", at={1}, every=2)
        with pytest.raises(FaultPlanError):
            FaultRule("solver")

    def test_duplicate_site_rejected(self):
        with pytest.raises(FaultPlanError):
            FaultPlan.parse("solver:at=1;solver:at=2")


class TestFaultPlanFiring:
    def test_at_fires_on_listed_invocations_only(self):
        plan = FaultPlan.parse("solver:at=2+4")
        fired = [plan.should_fire("solver") for _ in range(5)]
        assert fired == [False, True, False, True, False]

    def test_every_fires_periodically(self):
        plan = FaultPlan.parse("interp:every=3")
        fired = [plan.should_fire("interp") for _ in range(6)]
        assert fired == [False, False, True, False, False, True]

    def test_rate_is_deterministic_per_seed(self):
        a = FaultPlan.parse("solver:rate=0.4,seed=11")
        b = FaultPlan.parse("solver:rate=0.4,seed=11")
        decisions_a = [a.should_fire("solver") for _ in range(100)]
        decisions_b = [b.should_fire("solver") for _ in range(100)]
        assert decisions_a == decisions_b
        assert any(decisions_a) and not all(decisions_a)

    def test_fire_raises_site_specific_exceptions(self):
        cases = [
            ("solver", ResourceLimitError),
            ("interp", StepBudgetExceeded),
            ("journal", OSError),
            ("checkpoint", OSError),
            ("kill", SearchInterrupted),
        ]
        for site, exc_type in cases:
            plan = FaultPlan.parse(f"{site}:at=1")
            with pytest.raises(exc_type):
                plan.fire(site)
        assert plan.fired == {"kill": 1}

    def test_state_restore_continues_the_sequence(self):
        plan = FaultPlan.parse("kill:at=3")
        assert not plan.should_fire("kill")
        assert not plan.should_fire("kill")
        resumed = FaultPlan.parse("kill:at=3")
        resumed.restore_state(plan.state())
        assert resumed.should_fire("kill")  # the third invocation overall
        assert not resumed.should_fire("kill")  # one-shot: fired once

    def test_null_plan_is_default_and_never_fires(self):
        assert current_fault_plan() is NULL_PLAN
        NULL_PLAN.fire("solver")  # no-op
        plan = FaultPlan.parse("solver:at=1")
        with use_fault_plan(plan):
            assert current_fault_plan() is plan
        assert current_fault_plan() is NULL_PLAN


class TestCrashContainment:
    def _loopy_search(self, step_budget=200, max_runs=20):
        tm = TermManager()
        engine = ConcolicEngine(
            parse_program(LOOPY),
            NativeRegistry(),
            ConcretizationMode.SOUND,
            tm,
            step_budget=step_budget,
        )
        return DirectedSearch(
            engine,
            "f",
            QuantifierFreeBackend(),
            SampleStore(),
            SearchConfig(max_runs=max_runs),
        )

    def test_step_budget_blowup_is_contained(self):
        result = self._loopy_search().run({"x": 0})
        assert isinstance(result, SearchResult)
        assert result.crashes, "the flipped branch must blow the step budget"
        assert result.crashes[0].bucket.startswith("StepBudgetExceeded@")
        # the suite still contains the non-crashing executions, and the
        # crashing input is a crash record, not a suite entry
        assert result.executions
        crash_inputs = {
            tuple(sorted(c.inputs.items())) for c in result.crashes
        }
        suite_inputs = {
            tuple(sorted(r.result.inputs.items())) for r in result.executions
        }
        assert not crash_inputs & suite_inputs

    def test_crash_buckets_are_stable_across_runs(self):
        buckets = []
        for _ in range(2):
            result = self._loopy_search().run({"x": 0})
            buckets.append([(c.bucket, c.count) for c in result.crashes])
        assert buckets[0] == buckets[1]
        assert buckets[0]

    def test_array_misuse_interp_error_is_contained(self):
        search = DirectedSearch.for_mode(
            parse_program(ARRAY_MISUSE),
            "f",
            NativeRegistry(),
            ConcretizationMode.SOUND,
            SearchConfig(max_runs=20),
        )
        result = search.run({"x": 0})
        assert result.crashes
        crash = result.crashes[0]
        assert crash.bucket.startswith("InterpError@")
        assert crash.line > 0, "array misuse carries its MiniC line"
        assert "array" in crash.message
        assert result.executions  # search survived and kept its suite

    def test_division_by_zero_mid_search_is_survived(self):
        # division by zero is a *modeled* runtime error in this engine
        # (paper-style abort finding), so the generated y == 0 input must
        # land in result.errors — and must not take the session down
        search = DirectedSearch.for_mode(
            parse_program(DIV_MID_SEARCH),
            "f",
            NativeRegistry(),
            ConcretizationMode.SOUND,
            SearchConfig(max_runs=20),
        )
        result = search.run({"x": 1, "y": 3})
        assert any("division by zero" in e.message for e in result.errors)
        assert result.runs >= 2

    def test_injected_interp_fault_becomes_a_crash_record(self):
        plan = FaultPlan.parse("interp:at=2")
        search = chain_search(max_runs=12)
        with use_cache(None), use_fault_plan(plan):
            result = search.run(dict(CHAIN_SEED))
        assert plan.fired.get("interp") == 1
        assert any(
            c.bucket.startswith("StepBudgetExceeded@") for c in result.crashes
        )
        assert result.executions

    def test_crash_bucketing_deduplicates(self):
        # every flip of the loop guard crashes in the same bucket; the
        # record count grows instead of the record list
        result = self._loopy_search(max_runs=30).run({"x": 0})
        buckets = [c.bucket for c in result.crashes]
        assert len(buckets) == len(set(buckets))

    def test_summary_mentions_crashes(self):
        result = self._loopy_search().run({"x": 0})
        assert "crashes=" in result.summary()


class TestDegradationLadder:
    def test_budget_scaling(self):
        scaled = DEFAULT_BUDGET.scaled(2.0)
        assert scaled.max_iterations == 2 * DEFAULT_BUDGET.max_iterations
        assert DEGRADED_BUDGET.max_iterations < DEFAULT_BUDGET.max_iterations
        with use_budget(DEGRADED_BUDGET):
            assert current_budget() is DEGRADED_BUDGET
        assert current_budget() is not DEGRADED_BUDGET

    def test_solver_exhaustion_walks_the_ladder(self):
        plan = FaultPlan.parse("solver:every=2")
        search = chain_search(max_runs=40)
        with use_cache(None), use_fault_plan(plan):
            result = search.run(dict(CHAIN_SEED))
        assert plan.fired.get("solver", 0) > 0
        assert sum(result.downgrades.values()) > 0
        assert result.executions, "degraded search still generates tests"

    def test_degraded_search_is_deterministic(self):
        digests = []
        for _ in range(2):
            plan = FaultPlan.parse("solver:rate=0.5,seed=3")
            search = chain_search(max_runs=40)
            with use_cache(None), use_fault_plan(plan):
                result = search.run(dict(CHAIN_SEED))
            digests.append(suite_digest(result))
        assert digests[0] == digests[1]

    def test_deferred_flips_are_retried_or_abandoned(self):
        plan = FaultPlan.parse("solver:every=1")
        search = chain_search(max_runs=30)
        with use_cache(None), use_fault_plan(plan):
            result = search.run(dict(CHAIN_SEED))
        # with every solver call exhausted, every rung fails: flips are
        # deferred, retried under the escalated budget, and abandoned
        assert result.deferred_flips > 0
        assert result.abandoned_flips > 0
        assert isinstance(result, SearchResult)


#: suite digests of searches in which the escalated retry answers a
#: deferred flip: (program, mode, fault plan) -> digest, recorded with
#: the query cache off and ``max_runs=40``; never re-recorded
ESCALATED_RETRY_PINS = {
    ("chain", "unsound", "solver:rate=0.5,seed=2"):
        "74722a3f04c9f7c87f3ad0664472cd66c5d6ffc1b34eb9f628fcc820fce0aa9f",
    ("foo", "higher_order", "solver:rate=0.5,seed=4"):
        "23344fca5bdfd27e7a8931d63102d3b83c6e84f446f60a5a4d6938590f7f657d",
    ("foo_bis", "higher_order", "solver:rate=0.5,seed=5"):
        "fc8c707f0b0ab0a4446edeae339d9186540f1ffce0a428cdb881e79ef401e0fe",
    ("bar", "unsound", "solver:rate=0.5,seed=4"):
        "44c6cad9b2787bd61f8bc0afdcea249004234d46acbe70f173509487a2fda4ac",
}


class TestEscalatedRetryPins:
    @pytest.mark.parametrize(
        "program, mode, spec", sorted(ESCALATED_RETRY_PINS), ids=str
    )
    def test_escalated_retry_suite_is_pinned(self, program, mode, spec):
        if program == "chain":
            source, entry, natives, seed = (
                CHAIN, "main", natives_with_hash(), CHAIN_SEED,
            )
        else:
            example = PAPER_EXAMPLES[program]
            source, entry, natives, seed = (
                example.source, example.entry, example.natives(),
                example.initial_inputs,
            )
        search = DirectedSearch.for_mode(
            parse_program(source), entry, natives,
            ConcretizationMode(mode), SearchConfig(max_runs=40),
        )
        with use_cache(None), use_fault_plan(FaultPlan.parse(spec)):
            result = search.run(dict(seed))
        # some deferred flip was answered by the retry, not abandoned
        assert result.deferred_flips > result.abandoned_flips
        assert suite_digest(result) == ESCALATED_RETRY_PINS[(program, mode, spec)]


class TestProbeBudgetGraceful:
    def test_run_budget_during_probes_preserves_partial_result(self):
        # a tiny run budget exhausts mid multi-step probe; the strategy
        # must end gracefully with the partial suite, not raise
        search = chain_search(max_runs=4)
        result = search.run(dict(CHAIN_SEED))
        assert isinstance(result, SearchResult)
        assert result.runs <= 4
        assert result.executions


class TestJournalWriteTolerance:
    def test_injected_oserror_disables_the_sink(self):
        registry = MetricsRegistry()
        buf = io.StringIO()
        journal = RunJournal(buf)
        plan = FaultPlan.parse("journal:at=2")
        with use_registry(registry), use_fault_plan(plan):
            assert journal.emit("first") is not None
            assert journal.emit("second") is None  # the injected failure
            assert journal.emit("third") is None  # sink stays disabled
        assert journal.enabled is False
        assert "injected fault" in journal.write_error
        assert journal.events_written == 1
        assert registry.counter("obs.journal.write_errors").value == 1

    def test_search_survives_journal_failure(self, tmp_path):
        journal = RunJournal(str(tmp_path / "events.jsonl"))
        plan = FaultPlan.parse("journal:at=3")
        search = chain_search(max_runs=20)
        search.obs = Observability(journal=journal)
        with use_fault_plan(plan):
            result = search.run(dict(CHAIN_SEED))
        journal.close()
        assert journal.enabled is False
        assert result.executions


class TestCheckpointWriteTolerance:
    def test_injected_oserror_disables_checkpointing(self, tmp_path):
        registry = MetricsRegistry()
        plan = FaultPlan.parse("checkpoint:at=1")
        search = chain_search(checkpoint_dir=str(tmp_path / "ckpt"), max_runs=20)
        with use_registry(registry), use_fault_plan(plan):
            result = search.run(dict(CHAIN_SEED))
        assert result.executions, "search completes without its checkpoint"
        assert registry.counter("search.checkpoint.errors").value == 1

    def test_checkpoint_directory_contents(self, tmp_path):
        ckpt = tmp_path / "ckpt"
        result = chain_search(checkpoint_dir=str(ckpt)).run(dict(CHAIN_SEED))
        assert result.executions
        # the decision log plus what replay cannot recompute, nothing else
        assert sorted(p.name for p in ckpt.iterdir()) == [
            "decisions.jsonl",
            "meta.json",
            "state.json",
        ]
        meta = json.loads((ckpt / "meta.json").read_text())
        assert meta["entry"] == "main"
        state = json.loads((ckpt / "state.json").read_text())
        assert list(state) == ["fault_state"]
        with open(ckpt / "decisions.jsonl", encoding="utf-8") as handle:
            decisions = [json.loads(line) for line in handle]
        assert decisions and all("rung" in d for d in decisions)

    def test_replay_cursor_loads_the_checkpoint(self, tmp_path):
        ckpt = tmp_path / "ckpt"
        with use_fault_plan(FaultPlan.parse("kill:at=1000")):
            chain_search(checkpoint_dir=str(ckpt)).run(dict(CHAIN_SEED))
        cursor = ReplayCursor.load(str(ckpt))
        assert not cursor.exhausted
        assert cursor.fault_state["counts"]["kill"] > 0


class TestResumeDeterminism:
    @pytest.mark.parametrize("kill_at", [2, 5])
    def test_resumed_suite_matches_uninterrupted(self, tmp_path, kill_at):
        baseline = chain_search().run(dict(CHAIN_SEED))
        expected = suite_digest(baseline)

        ckpt = str(tmp_path / "ckpt")
        spec = f"kill:at={kill_at}"
        with use_fault_plan(FaultPlan.parse(spec)):
            with pytest.raises(SearchInterrupted) as info:
                chain_search(checkpoint_dir=ckpt).run(dict(CHAIN_SEED))
        assert info.value.checkpoint_dir == ckpt
        assert isinstance(info.value.partial_result, SearchResult)

        # resuming under the *same* plan must not re-fire the one-shot
        # kill: the checkpoint restored its invocation counters
        with use_fault_plan(FaultPlan.parse(spec)):
            resumed = chain_search(checkpoint_dir=ckpt, resume_from=ckpt).run(
                dict(CHAIN_SEED)
            )
        assert resumed.replayed_decisions > 0
        assert suite_digest(resumed) == expected

    def test_resume_ignores_snapshot_files_of_older_checkpoints(self, tmp_path):
        # checkpoints used to carry advisory snapshots (samples, frontier,
        # corpus, runs/decisions/search in state.json); resume reads none
        expected = suite_digest(chain_search().run(dict(CHAIN_SEED)))
        ckpt = tmp_path / "ckpt"
        with use_fault_plan(FaultPlan.parse("kill:at=3")):
            with pytest.raises(SearchInterrupted):
                chain_search(checkpoint_dir=str(ckpt)).run(dict(CHAIN_SEED))
        state = json.loads((ckpt / "state.json").read_text())
        state.update(runs=2, decisions=1, search={"stop": False})
        (ckpt / "state.json").write_text(json.dumps(state))
        (ckpt / "samples.jsonl").write_text("")
        (ckpt / "frontier.jsonl").write_text("")
        (ckpt / "corpus.json").write_text("{}")
        with use_fault_plan(FaultPlan.parse("kill:at=3")):
            resumed = chain_search(
                checkpoint_dir=str(ckpt), resume_from=str(ckpt)
            ).run(dict(CHAIN_SEED))
        assert resumed.replayed_decisions > 0
        assert suite_digest(resumed) == expected

    def test_resume_from_missing_directory_fails_cleanly(self, tmp_path):
        from repro.errors import ReproError

        search = chain_search(resume_from=str(tmp_path / "nope"))
        with pytest.raises(ReproError):
            search.run(dict(CHAIN_SEED))


class TestResilienceCli:
    def test_kill_then_resume_round_trip(self, tmp_path, capsys):
        program = tmp_path / "chain3.minic"
        program.write_text(CHAIN)
        ckpt = str(tmp_path / "ckpt")
        common = [
            "run",
            str(program),
            "--seed",
            "x=1,y=2,z=3",
            "--max-runs",
            "40",
        ]
        code = main(common + ["--checkpoint", ckpt, "--fault-plan", "kill:at=3"])
        err = capsys.readouterr().err
        assert code == 3
        assert "interrupted" in err
        assert "--resume" in err

        code = main(common + ["--resume", ckpt])
        out = capsys.readouterr().out
        assert code == 0
        assert "resumed:" in out

    def test_fault_plan_ladder_is_reported(self, tmp_path, capsys):
        program = tmp_path / "chain3.minic"
        program.write_text(CHAIN)
        with use_cache(None):
            code = main(
                [
                    "run",
                    str(program),
                    "--seed",
                    "x=1,y=2,z=3",
                    "--max-runs",
                    "30",
                    "--fault-plan",
                    "solver:every=2",
                ]
            )
        out = capsys.readouterr().out
        assert code == 0
        assert "ladder:" in out

    def test_bad_fault_plan_is_a_usage_error(self, tmp_path, capsys):
        program = tmp_path / "p.minic"
        program.write_text("int main(int x) { return x; }")
        code = main(["run", str(program), "--fault-plan", "disk:at=1"])
        assert code != 0
