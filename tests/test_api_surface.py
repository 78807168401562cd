"""Tests for the stable API surface (repro.api), the batch engine behind
``repro campaign``, the persistent disk cache, and the surface snapshots.

These are contract tests: they pin the facade's ``__all__``, the campaign
CLI flag set, and the determinism/robustness promises documented in
docs/API.md, so an accidental surface change fails loudly here before it
reaches a user.
"""

import importlib
import json
import os
import subprocess
import sys

import pytest

import repro
from repro import api
from repro.apps.paper_programs import PAPER_EXAMPLES, make_paper_natives
from repro.cli import main
from repro.engine import BatchPlanner, CampaignSpec
from repro.errors import ReproError
from repro.search import SearchConfig
from repro.search.corpus import TestCorpus as Corpus
from repro.solver.cache import CachedResult, QueryCache
from repro.solver.diskcache import DISKCACHE_FORMAT, DiskCache


def _tiny_spec(max_runs=12):
    """A two-program, two-strategy campaign that finishes in well under a
    second per job (4 jobs total)."""
    foo = PAPER_EXAMPLES["foo"]
    obscure = PAPER_EXAMPLES["obscure"]
    return CampaignSpec(
        programs=[
            {
                "name": ex.name,
                "source": ex.source,
                "entry": ex.entry,
                "natives": "paper",
                "seed": dict(ex.initial_inputs),
            }
            for ex in (foo, obscure)
        ],
        strategies=["higher_order", "unsound"],
        max_runs=max_runs,
    )


# -- facade smoke tests ------------------------------------------------------


class TestGenerateTests:
    def test_paper_example_end_to_end(self):
        ex = PAPER_EXAMPLES["obscure"]
        result = api.generate_tests(
            ex.source,
            entry=ex.entry,
            strategy="hotg",
            natives=make_paper_natives(),
            seed=dict(ex.initial_inputs),
        )
        assert result.found_error
        assert result.divergences == 0

    def test_accepts_config_dict_and_validates_it(self):
        ex = PAPER_EXAMPLES["foo"]
        result = api.generate_tests(
            ex.source,
            entry=ex.entry,
            natives=make_paper_natives(),
            config={"max_runs": 5},
        )
        assert result.runs <= 5
        with pytest.raises(TypeError):
            api.generate_tests(
                ex.source,
                entry=ex.entry,
                natives=make_paper_natives(),
                config={"max_runs": 5, "not_an_option": 1},
            )

    def test_unknown_strategy_and_entry_are_errors(self):
        ex = PAPER_EXAMPLES["foo"]
        with pytest.raises(ReproError):
            api.generate_tests(ex.source, strategy="quantum")
        with pytest.raises(ReproError):
            api.generate_tests(ex.source, entry="no_such_function")

    def test_replay_round_trip(self, tmp_path):
        ex = PAPER_EXAMPLES["obscure"]
        result = api.generate_tests(
            ex.source,
            entry=ex.entry,
            natives=make_paper_natives(),
            seed=dict(ex.initial_inputs),
        )
        corpus = Corpus()
        assert corpus.add_from_search(result) > 0
        path = str(tmp_path / "corpus.json")
        corpus.save(path)
        report = api.replay(
            path, ex.source, entry=ex.entry, natives=make_paper_natives()
        )
        assert report.all_match


# -- the batch engine --------------------------------------------------------


class TestRunCampaign:
    def test_digest_identical_across_worker_counts(self):
        spec = _tiny_spec()
        serial = api.Client(workers=1).submit(spec).wait()
        pooled = api.Client(workers=2).submit(spec).wait()
        assert len(serial.jobs) == 4
        assert serial.campaign_digest == pooled.campaign_digest
        assert [j.key for j in serial.jobs] == [j.key for j in pooled.jobs]

    def test_disk_cache_warm_run_hits(self, tmp_path):
        spec = _tiny_spec()
        store_dir = str(tmp_path / "store")
        cold = api.Client(workers=1, store_dir=store_dir).submit(spec).wait()
        warm = api.Client(workers=1, store_dir=store_dir).submit(spec).wait()
        assert cold.campaign_digest == warm.campaign_digest
        assert cold.cache_totals()["disk_stores"] > 0
        totals = warm.cache_totals()
        assert totals["disk_hits"] > 0
        assert totals["disk_misses"] == 0

    def test_worker_proc_kill_is_contained_and_digest_stable(self):
        spec = _tiny_spec()
        clean = api.Client(workers=1).submit(spec).wait()
        chaotic = api.Client(workers=1, fault_plan="worker-proc:at=1").submit(
            spec,
        ).wait()
        assert chaotic.killed_workers == 1
        assert sum(1 for j in chaotic.jobs if j.killed_worker) == 1
        assert chaotic.campaign_digest == clean.campaign_digest

    def test_checkpoint_resume_skips_finished_jobs(self, tmp_path):
        spec = _tiny_spec()
        ckpt = str(tmp_path / "ckpt")
        first = api.Client(workers=1).submit(spec, checkpoint=ckpt).wait()
        assert first.resumed_jobs == 0
        second = api.Client(workers=1).submit(spec, checkpoint=ckpt).wait()
        assert second.resumed_jobs == len(first.jobs)
        assert second.campaign_digest == first.campaign_digest

    def test_failing_job_is_contained_not_fatal(self):
        from repro.engine import ProcessPoolRunner, ResultMerger, SearchJob

        good = BatchPlanner().expand(_tiny_spec(max_runs=5))[:1]
        # a job the planner would reject (bogus natives name), standing in
        # for any job whose setup blows up inside the worker
        broken = SearchJob(
            key="broken//main//unsound",
            program_name="broken",
            source="int main(int x) { return x; }",
            entry="main",
            strategy="unsound",
            natives="no_such_registry",
            seed={"x": 0},
        )
        results = ProcessPoolRunner(workers=1).run(good + [broken])
        report = ResultMerger().merge(results, seconds=0.0)
        assert len(report.jobs) == 2
        assert len(report.failed_jobs) == 1
        assert "no_such_registry" in report.failed_jobs[0].error

    def test_planner_rejects_bad_specs(self):
        with pytest.raises(ReproError):
            BatchPlanner().expand(CampaignSpec(programs=[]))
        with pytest.raises(ReproError):
            BatchPlanner().expand(
                CampaignSpec(
                    programs=[{"name": "x", "source": "int main() { return 0; }"}],
                    strategies=["hotg", "higher_order"],  # same mode twice
                )
            )


# -- the persistent disk cache ----------------------------------------------


class TestDiskCache:
    KEY = ("check", ("var", 0), ("fun", 1))

    def _entry(self):
        return CachedResult(
            sat=True,
            iterations=2,
            int_values={0: 42},
            bool_values={1: True},
            tables={1: {(0, 7): 9}},
            default=0,
        )

    def test_round_trip(self, tmp_path):
        cache = DiskCache(str(tmp_path))
        assert cache.lookup(self.KEY) is None
        cache.store(self.KEY, self._entry())
        assert len(cache) == 1
        got = DiskCache(str(tmp_path)).lookup(self.KEY)
        assert got is not None
        assert got.sat and got.int_values == {0: 42}
        assert got.bool_values == {1: True}
        assert got.tables == {1: {(0, 7): 9}}

    def test_corrupt_and_truncated_entries_are_skipped_not_fatal(self, tmp_path):
        cache = DiskCache(str(tmp_path))
        cache.store(self.KEY, self._entry())
        path = cache.path_for(self.KEY)
        for garbage in ("{\"format\":", "not json at all", ""):
            with open(path, "w", encoding="utf-8") as handle:
                handle.write(garbage)
            fresh = DiskCache(str(tmp_path))
            assert fresh.lookup(self.KEY) is None
            assert fresh.skipped == 1
        # a stale format header self-invalidates the same way
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"format": DISKCACHE_FORMAT + 1}, handle)
        assert DiskCache(str(tmp_path)).lookup(self.KEY) is None

    def test_memory_cache_promotes_disk_hits(self, tmp_path):
        disk = DiskCache(str(tmp_path))
        disk.store(self.KEY, self._entry())
        cache = QueryCache(disk=DiskCache(str(tmp_path)))
        assert cache.lookup(self.KEY) is not None
        assert cache.disk_hits == 1
        # second lookup is served from memory: the disk tier is not touched
        assert cache.lookup(self.KEY) is not None
        assert cache.disk_hits == 1
        assert cache.hits == 2


# -- surface snapshots --------------------------------------------------------


class TestSurfaceContracts:
    def test_api_all_snapshot(self):
        assert api.__all__ == [
            "generate_tests",
            "replay",
            "Client",
            "CampaignHandle",
            "ServiceClient",
            "BatchPlanner",
            "CampaignReport",
            "CampaignSpec",
            "JobResult",
            "ProcessPoolRunner",
            "ResultMerger",
            "SearchJob",
            "SearchConfig",
            "SearchResult",
            "ReplayReport",
            "TestCorpus",
            "suite_digest",
        ]
        for name in api.__all__:
            assert getattr(api, name) is not None
        for name in ("generate_tests", "replay", "api"):
            assert hasattr(repro, name)
        assert not hasattr(api, "run_campaign")

    def test_campaign_help_flag_snapshot(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["campaign", "--help"])
        assert excinfo.value.code == 0
        helptext = capsys.readouterr().out
        for flag in (
            "spec",
            "--workers",
            "--store-dir",
            "--checkpoint",
            "--fault-plan",
            "--corpus",
            "--json",
            "--quiet",
            "--expect-errors",
        ):
            assert flag in helptext, f"campaign --help lost {flag}"
        # --store-dir is the only spelling of the persistent solver cache
        assert "--cache-dir" not in helptext

    def test_from_options_rejects_unknown_keys(self):
        with pytest.raises(TypeError, match="not_an_option"):
            SearchConfig.from_options(not_an_option=1)

    @pytest.mark.parametrize(
        "option",
        [
            "jobs", "exec_backend", "threads",
            # fixed at kernel constants: inputs are always deduplicated,
            # MAX_CONDITIONS_PER_RUN = 64, DEFER_SCALE = 4.0
            "dedupe_inputs", "max_conditions_per_run", "defer_scale",
        ],
    )
    def test_from_options_rejects_removed_options(self, option):
        with pytest.raises(TypeError, match=option):
            SearchConfig.from_options(**{option: 2})

    def test_removed_module_and_knob_spellings(self):
        import io

        from repro.engine import SupervisorConfig
        from repro.obs.journal import RunJournal

        with pytest.raises(ImportError):
            importlib.import_module("repro.search.minimize")
        search = importlib.import_module("repro.search")
        for name in ("minimize_error_inputs", "MinimizationResult"):
            with pytest.raises(AttributeError):
                getattr(search, name)
        # RETRY_BACKOFF, DEADLINE_GRACE, MAX_POOL_REBUILDS and
        # DRAIN_TIMEOUT are module constants of repro.engine.supervisor
        for knob in (
            "retry_backoff", "deadline_grace", "max_pool_rebuilds",
            "drain_timeout",
        ):
            with pytest.raises(TypeError, match=knob):
                SupervisorConfig(**{knob: 1})
        # a journal always flushes every flush_every-th event
        with pytest.raises(TypeError, match="autoflush"):
            RunJournal(io.StringIO(), autoflush=False)

    @pytest.mark.parametrize(
        "argv, error",
        [
            pytest.param(argv, error, id=f"{argv[0]}{argv[-2]}")
            for argv, error in [
                (["run", "prog.minic", "--jobs", "2"], "unrecognized arguments"),
                (["run", "prog.minic", "--exec-backend", "tree"], "unrecognized arguments"),
                (["run", "prog.minic", "--frontier", "fifo"], "unrecognized arguments"),
                (["run", "prog.minic", "--cache-dir", "c"], "unrecognized arguments"),
                # the whole `bench` subcommand is gone, flags and all
                (["bench", "prog.minic", "--jobs", "2"], "invalid choice: 'bench'"),
                (["bench", "prog.minic", "--frontier", "fifo"], "invalid choice: 'bench'"),
                (["campaign", "paper", "--jobs", "2"], "unrecognized arguments"),
                (["campaign", "paper", "--exec-backend", "tree"], "unrecognized arguments"),
                (["campaign", "paper", "--cache-dir", "c"], "unrecognized arguments"),
                (["serve", "--state-dir", "svc", "--cache-dir", "c"], "unrecognized arguments"),
                (["submit", "--state-dir", "svc", "paper", "--jobs", "2"], "unrecognized arguments"),
                # `repro stats DIR --follow` is the one live view
                (["top", "ckpt"], "invalid choice: 'top'"),
            ]
        ],
    )
    def test_removed_cli_flags_are_argparse_errors(self, argv, error, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        assert excinfo.value.code == 2
        assert error in capsys.readouterr().err

    def test_removed_solver_spellings(self):
        import repro.solver
        from repro.solver import Solver, smt
        from repro.solver.cnf import CnfConverter

        # one Ackermannization (SolverSession._ackermannize), one encoder
        for module in (repro.solver, smt):
            with pytest.raises(AttributeError):
                module.ackermannize
        assert "ackermannize" not in repro.solver.__all__
        assert not hasattr(CnfConverter, "assert_formula")
        # assertion scopes live on SolverSession; Solver has none
        assert not hasattr(Solver, "push") and not hasattr(Solver, "pop")
        # model verification always runs
        with pytest.raises(TypeError, match="verify_models"):
            Solver(verify_models=False)

    def test_client_rejects_removed_cache_dir(self, tmp_path):
        with pytest.raises(TypeError, match="cache_dir"):
            api.Client(cache_dir=str(tmp_path / "cache"))

    def test_campaign_cli_end_to_end(self, tmp_path, capsys):
        code = main(["campaign", "paper", "--quiet", "--expect-errors"])
        out = capsys.readouterr().out
        assert code == 0
        assert "campaign digest:" in out


# the packages whose __init__ re-exports lazily (repro._lazy)
LAZY_PACKAGES = [
    "repro",
    "repro.apps",
    "repro.core",
    "repro.engine",
    "repro.lang",
    "repro.search",
    "repro.solver",
]


class TestLazyExports:
    @pytest.mark.parametrize("name", LAZY_PACKAGES)
    def test_every_export_resolves(self, name):
        package = importlib.import_module(name)
        for attr in package.__all__:
            assert getattr(package, attr) is not None, f"{name}.{attr}"
        assert set(package.__all__) <= set(dir(package))
        with pytest.raises(AttributeError, match="no_such_name"):
            package.no_such_name

    def test_star_import(self):
        namespace = {}
        exec("from repro import *", namespace)
        assert namespace["generate_tests"] is api.generate_tests
        assert namespace["api"] is api

    def test_worker_imports_only_what_jobs_use(self):
        # a spawned campaign worker's first import is the runner, which
        # the pool pickles run_job from; the facade, the service, the
        # supervisor and unused submodules stay unloaded
        code = "import sys, repro.engine.runner; print(*sorted(sys.modules))"
        env = dict(os.environ, PYTHONPATH=os.path.dirname(repro.__path__[0]))
        loaded = subprocess.run(
            [sys.executable, "-c", code],
            env=env, capture_output=True, text=True, check=True,
        ).stdout.split()
        assert "repro.engine.runner" in loaded
        for unused in (
            "repro.api",
            "repro.service",
            "repro.baselines",
            "repro.engine.merger",
            "repro.engine.supervisor",
            "repro.apps.lexer_app",
            "repro.lang.randprog",
            "repro.solver.certificates",
        ):
            assert unused not in loaded, unused
