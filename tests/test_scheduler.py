"""Tests for the staged search kernel's pluggable frontier schedulers:
name resolution, dfs byte-identity against the recorded paper-suite
baselines, checkpoint/resume equivalence per scheduler, the scheduler
fault site, and scheduler identity in campaign job keys."""

import json
import os
import warnings

import pytest

from repro import api
from repro.apps.paper_programs import PAPER_EXAMPLES
from repro.engine.planner import BatchPlanner, CampaignSpec
from repro.engine.runner import build_natives
from repro.errors import ReproError, SearchInterrupted
from repro.faults import FaultPlan, use_fault_plan
from repro.lang import NativeRegistry, parse_program
from repro.obs.metrics import MetricsRegistry, use_registry
from repro.search import (
    DirectedSearch,
    SearchConfig,
    make_scheduler,
    scheduler_names,
)
from repro.search.report import suite_digest
from repro.search.scheduler import (
    CoverageScheduler,
    DfsScheduler,
    GenerationalScheduler,
    SCHEDULERS,
)
from repro.solver.cache import use_cache
from repro.symbolic import ConcretizationMode

BASELINES_PATH = os.path.join(
    os.path.dirname(__file__), "..", "benchmarks", "paper_suite_digests.json"
)


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

CHAIN_SEED = {"x": 1, "y": 2, "z": 3}


def chain_search(
    scheduler="dfs",
    checkpoint_dir=None,
    resume_from=None,
    max_runs=60,
):
    config = SearchConfig(
        max_runs=max_runs,
        scheduler=scheduler,
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


class TestSchedulerRegistry:
    def test_registry_names(self):
        assert scheduler_names() == ("coverage", "dfs", "generational")
        assert set(SCHEDULERS) == {"dfs", "generational", "coverage"}
        assert isinstance(make_scheduler("dfs"), DfsScheduler)
        assert isinstance(make_scheduler("generational"), GenerationalScheduler)
        assert isinstance(make_scheduler("coverage"), CoverageScheduler)

    def test_unknown_name_rejected_with_allowed_set(self):
        with pytest.raises(ReproError, match="coverage, dfs, generational"):
            make_scheduler("bfs")

    def test_config_validate_rejects_unknown_scheduler(self):
        with pytest.raises(ReproError, match="coverage, dfs, generational"):
            SearchConfig(scheduler="random").validate()

    def test_from_options_native_scheduler_is_silent(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            config = SearchConfig.from_options(scheduler="coverage")
        assert config.scheduler == "coverage"


class TestDfsBaselines:
    def test_foo_digest_matches_recorded_baseline(self):
        with open(BASELINES_PATH, "r", encoding="utf-8") as handle:
            baselines = json.load(handle)
        example = PAPER_EXAMPLES["foo"]
        with use_cache(None):
            result = api.generate_tests(
                example.source,
                entry=example.entry,
                strategy="higher_order",
                natives=build_natives("paper"),
                seed=dict(example.initial_inputs),
                config=SearchConfig(max_runs=40, scheduler="dfs"),
            )
        assert suite_digest(result) == baselines["dfs_jobs"]["foo"]


class TestSchedulerDeterminism:
    def test_schedulers_explore_same_chain_but_may_order_differently(self):
        results = {}
        for scheduler in scheduler_names():
            with use_cache(None):
                results[scheduler] = chain_search(scheduler=scheduler).run(
                    dict(CHAIN_SEED)
                )
        # every scheduler finds the deep error in this small program
        for scheduler, result in results.items():
            assert result.found_error, f"{scheduler} missed the chain error"


class TestSchedulerResume:
    @pytest.mark.parametrize("scheduler", ["dfs", "generational", "coverage"])
    @pytest.mark.parametrize("kill_at", [2, 5])
    def test_resumed_suite_matches_uninterrupted(
        self, tmp_path, scheduler, kill_at
    ):
        with use_cache(None):
            baseline = chain_search(scheduler=scheduler).run(dict(CHAIN_SEED))
        expected = suite_digest(baseline)

        ckpt = str(tmp_path / "ckpt")
        with use_fault_plan(FaultPlan.parse(f"kill:at={kill_at}")):
            with pytest.raises(SearchInterrupted):
                with use_cache(None):
                    chain_search(scheduler=scheduler, checkpoint_dir=ckpt).run(
                        dict(CHAIN_SEED)
                    )

        with use_cache(None):
            resumed = chain_search(
                scheduler=scheduler,
                checkpoint_dir=ckpt,
                resume_from=ckpt,
            ).run(dict(CHAIN_SEED))
        assert resumed.replayed_decisions > 0
        assert suite_digest(resumed) == expected

    def test_resume_adopts_checkpoint_scheduler(self, tmp_path):
        """A checkpoint recorded under one scheduler resumes under it even
        when the resuming config names another — the decision log only
        replays faithfully under the scheduler that produced it."""
        with use_cache(None):
            baseline = chain_search(scheduler="coverage").run(dict(CHAIN_SEED))
        expected = suite_digest(baseline)

        ckpt = str(tmp_path / "ckpt")
        with use_fault_plan(FaultPlan.parse("kill:at=3")):
            with pytest.raises(SearchInterrupted):
                with use_cache(None):
                    chain_search(scheduler="coverage", checkpoint_dir=ckpt).run(
                        dict(CHAIN_SEED)
                    )

        registry = MetricsRegistry()
        with use_registry(registry), use_cache(None):
            resumed = chain_search(
                scheduler="dfs", checkpoint_dir=ckpt, resume_from=ckpt
            ).run(dict(CHAIN_SEED))
        assert suite_digest(resumed) == expected
        counters = registry.snapshot()["counters"]
        assert counters.get("search.resume.scheduler_override", 0) == 1


class TestSchedulerFaultSite:
    @pytest.mark.parametrize("scheduler", ["dfs", "generational", "coverage"])
    def test_scheduler_fault_is_contained(self, scheduler):
        plan = FaultPlan.parse("scheduler:at=2")
        registry = MetricsRegistry()
        with use_registry(registry), use_cache(None), use_fault_plan(plan):
            result = chain_search(scheduler=scheduler).run(dict(CHAIN_SEED))
        assert plan.fired.get("scheduler") == 1
        assert result.runs > 0
        counters = registry.snapshot()["counters"]
        assert counters.get("search.scheduler.failures", 0) == 1

    def test_scheduler_fault_keeps_digest_deterministic(self):
        digests = []
        for _ in range(2):
            plan = FaultPlan.parse("scheduler:every=2")
            with use_cache(None), use_fault_plan(plan):
                result = chain_search(scheduler="generational").run(
                    dict(CHAIN_SEED)
                )
            digests.append(suite_digest(result))
        assert digests[0] == digests[1]


class TestCampaignSchedulers:
    def _spec(self, schedulers):
        return CampaignSpec(
            programs=[
                {
                    "name": "chain",
                    "source": CHAIN,
                    "entry": "main",
                    "natives": "paper",
                    "seed": dict(CHAIN_SEED),
                }
            ],
            strategies=["higher_order"],
            schedulers=schedulers,
            max_runs=20,
        )

    def test_job_keys_carry_scheduler(self):
        jobs = BatchPlanner().expand(self._spec(["dfs", "coverage"]))
        assert [j.key for j in jobs] == [
            "chain//main//higher_order//coverage",
            "chain//main//higher_order//dfs",
        ]
        assert all(j.config["scheduler"] == j.key.split("//")[-1] for j in jobs)

    def test_unknown_scheduler_in_spec_rejected(self):
        with pytest.raises(ReproError, match="coverage, dfs, generational"):
            BatchPlanner().expand(self._spec(["bfs"]))

    def test_duplicate_scheduler_in_spec_rejected(self):
        with pytest.raises(ReproError, match="repeat"):
            BatchPlanner().expand(self._spec(["dfs", "dfs"]))

    def test_run_campaign_scheduler_override(self):
        client = api.Client()
        report = client.submit(self._spec(["dfs"]), scheduler="generational").wait()
        assert len(report.jobs) == 1
        job = report.jobs[0]
        assert job.key.endswith("//generational")
        assert job.scheduler == "generational"
        assert job.ok
