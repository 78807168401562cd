"""Tests for the campaign telemetry pipeline (PR 6).

Covers the full chain: the journal's monotonic clock field, per-worker
shard shipping and deterministic merging, kernel stage profiling, the
exporters (JSON / Prometheus text / Chrome trace-event JSON), the
``repro stats`` campaign rollup and ``--follow``/``top`` live view, and
above all the answer-preservation contract — campaign digests are
byte-identical with telemetry on or off, at any ``--workers`` value,
and a journal that starts failing mid-campaign disables itself without
touching the campaign's answers.
"""

import io
import json
import os

import pytest

from repro import api
from repro.apps.paper_programs import PAPER_EXAMPLES
from repro.cli.main import main as cli_main
from repro.engine import CampaignSpec
from repro.obs.export import (
    KERNEL_STAGES,
    journal_to_chrome_trace,
    load_journal,
    render_prometheus,
    snapshot_to_json,
)
from repro.obs.journal import RunJournal
from repro.obs.metrics import MetricsRegistry
from repro.obs.shipper import (
    CAMPAIGN_JOURNAL,
    CampaignStats,
    ShardReader,
    list_shards,
    merge_shards,
    open_shard,
    shard_path,
)


def _tiny_spec(max_runs=12):
    """Two programs x two strategies = four fast jobs."""
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


# -- journal mono field ------------------------------------------------------


class TestJournalMono:
    def test_every_event_has_ts_and_mono(self):
        sink = io.StringIO()
        journal = RunJournal(sink)
        journal.emit("a")
        journal.emit("b", x=1)
        journal.close()
        events = [json.loads(l) for l in sink.getvalue().splitlines()]
        for event in events:
            assert "ts" in event and "mono" in event and "seq" in event

    def test_mono_is_monotone_even_with_clock_skew(self):
        sink = io.StringIO()
        wall = iter([100.0, 50.0, 75.0])  # wall clock jumps backwards
        journal = RunJournal(sink, clock=lambda: next(wall))
        for _ in range(3):
            journal.emit("tick")
        journal.close()
        events = [json.loads(l) for l in sink.getvalue().splitlines()]
        monos = [e["mono"] for e in events]
        assert monos == sorted(monos)
        assert [e["ts"] for e in events] == [100.0, 50.0, 75.0]

    def test_default_journal_flushes_every_event(self):
        class CountingSink(io.StringIO):
            flushes = 0

            def flush(self):
                self.flushes += 1
                super().flush()

        sink = CountingSink()
        journal = RunJournal(sink)
        for i in range(3):
            journal.emit("tick", i=i)
            # each event is on the sink's flushed side before the next
            assert sink.flushes == i + 1
        batched = CountingSink()
        journal = RunJournal(batched, flush_every=2)
        for i in range(4):
            journal.emit("tick", i=i)
        assert batched.flushes == 2

    def test_flush_batching_still_writes_every_event(self):
        sink = io.StringIO()
        journal = RunJournal(sink, flush_every=16)
        for i in range(40):
            journal.emit("tick", i=i)
        journal.close()
        assert len(sink.getvalue().splitlines()) == 40


# -- shard shipping & merging ------------------------------------------------


class TestShardShipping:
    def test_shard_has_header_and_is_listed(self, tmp_path):
        d = str(tmp_path)
        shard = open_shard(d, "prog//entry//hotg//dfs", worker_pid=42)
        shard.emit("search_started", scheduler="dfs")
        shard.close()
        shards = list_shards(d)
        assert shards == [
            ("prog//entry//hotg//dfs", shard_path(d, "prog//entry//hotg//dfs"))
        ]
        events = load_journal(shards[0][1])
        assert events[0]["kind"] == "shard_opened"
        assert events[0]["job"] == "prog//entry//hotg//dfs"
        assert events[0]["worker"] == 42

    def test_hostile_job_keys_cannot_collide(self, tmp_path):
        d = str(tmp_path)
        a = shard_path(d, "x/../../etc passwd")
        b = shard_path(d, "x/……/etc passwd")
        assert a != b
        assert os.path.dirname(a) == os.path.join(d, "shards")
        # no path separators survive sanitization: a hostile key cannot
        # escape the shard directory
        assert "/" not in os.path.basename(a)
        assert os.path.basename(a) != ".." and os.path.basename(b) != ".."

    def test_merge_orders_by_job_key_then_seq(self, tmp_path):
        d = str(tmp_path)
        # written in "wrong" order: zebra first, alpha second
        for key in ("zebra//z//h//dfs", "alpha//a//h//dfs"):
            shard = open_shard(d, key)
            shard.emit("one")
            shard.emit("two")
            shard.close()
        path, count = merge_shards(d)
        events = load_journal(path)
        assert count == len(events) == 6
        jobs = [e["job"] for e in events]
        assert jobs == sorted(jobs)
        assert [e["gseq"] for e in events] == list(range(6))
        # within one job, seq order
        alpha = [e["seq"] for e in events if e["job"].startswith("alpha")]
        assert alpha == sorted(alpha)

    def test_merge_skips_corrupt_lines(self, tmp_path):
        d = str(tmp_path)
        shard = open_shard(d, "j//e//h//dfs")
        shard.emit("fine")
        shard.close()
        with open(shard_path(d, "j//e//h//dfs"), "a", encoding="utf-8") as h:
            h.write('{"kind": "trunca')  # a write cut short mid-line
        path, count = merge_shards(d)
        assert count == 2  # header + fine; the torn line is skipped
        assert all(e["kind"] != "trunca" for e in load_journal(path))

    def test_shard_reader_is_incremental_and_partial_line_safe(self, tmp_path):
        d = str(tmp_path)
        os.makedirs(os.path.join(d, "shards"))
        path = os.path.join(d, "shards", "live.jsonl")
        with open(path, "w", encoding="utf-8") as h:
            h.write('{"seq": 0, "kind": "shard_opened", "job": "j"}\n')
            h.write('{"seq": 1, "kind": "a"}\n')
            h.write('{"seq": 2, "kind"')  # partial write in flight
        reader = ShardReader(d)
        batch = reader.poll()
        assert [e["kind"] for _, e in batch] == ["shard_opened", "a"]
        assert all(job == "j" for job, _ in batch)
        with open(path, "a", encoding="utf-8") as h:
            h.write(': "b"}\n')  # the partial line completes
        batch = reader.poll()
        assert [e["kind"] for _, e in batch] == ["b"]
        assert reader.poll() == []


# -- campaign integration: determinism contract ------------------------------


class TestCampaignTelemetry:
    def test_digest_identical_with_telemetry_on_and_off(self, tmp_path):
        spec = _tiny_spec()
        plain = api.Client().submit(spec).wait()
        shipped = api.Client(telemetry=str(tmp_path / "t1")).submit(
            spec,
        ).wait()
        assert shipped.campaign_digest == plain.campaign_digest
        assert shipped.telemetry_dir == str(tmp_path / "t1")
        assert shipped.journal_events > 0
        assert (tmp_path / "t1" / CAMPAIGN_JOURNAL).exists()

    def test_merged_stream_identical_across_worker_counts(self, tmp_path):
        spec = _tiny_spec()
        streams = {}
        for workers in (1, 2):
            d = str(tmp_path / f"w{workers}")
            report = api.Client(workers=workers, telemetry=d).submit(
                spec,
            ).wait()
            events = load_journal(os.path.join(d, CAMPAIGN_JOURNAL))
            # the deterministic skeleton: ordering and content, not timings
            streams[workers] = [
                (e["job"], e["seq"], e["gseq"], e["kind"]) for e in events
            ]
            assert report.journal_events == len(events)
        assert streams[1] == streams[2]

    def test_rollup_folds_shards_and_checkpoint(self, tmp_path):
        d = str(tmp_path / "camp")
        report = api.Client(telemetry=d).submit(
            _tiny_spec(),
            checkpoint=d,
        ).wait()
        stats = CampaignStats()
        assert stats.fold_checkpoint(d) == len(report.jobs)
        for job, event in ShardReader(d).poll():
            stats.consume(job, event)
        assert len(stats.jobs) == len(report.jobs)
        assert stats.failed_jobs == 0
        assert stats.running_jobs == 0
        by_key = {j.key: j for j in report.jobs}
        for job in stats.ordered_jobs():
            assert job.runs == by_key[job.key].runs
            assert job.tests == len(by_key[job.key].corpus)

    def test_rollup_folds_only_results_resume_would_skip_on(self, tmp_path):
        """``repro stats`` reads jobs.jsonl as resume does: a stale-format
        or malformed result line is a job resume re-runs, not a done job."""
        from repro.cli.stats_cmd import render_campaign_view
        from repro.engine.runner import CampaignCheckpoint

        d = str(tmp_path / "camp")
        report = api.Client().submit(_tiny_spec(), checkpoint=d).wait()
        path = os.path.join(d, "jobs.jsonl")
        with open(path, encoding="utf-8") as handle:
            line = json.loads(handle.readline())
        stale = dict(line, key="stale//main//higher_order//dfs", format=3)
        no_ok = dict(line, key="no-ok//main//higher_order//dfs")
        del no_ok["ok"]
        with open(path, "a", encoding="utf-8") as handle:
            for payload in (stale, no_ok):
                handle.write(json.dumps(payload) + "\n")
        checkpoint = CampaignCheckpoint(d)
        assert checkpoint.completed(stale["key"]) is None
        assert checkpoint.completed(no_ok["key"]) is None

        stats = CampaignStats()
        assert stats.fold_checkpoint(d) == len(report.jobs)
        assert sorted(stats.jobs) == sorted(j.key for j in report.jobs)
        view = render_campaign_view(stats, d)
        assert "stale//" not in view and "no-ok//" not in view

    def test_disk_cache_rollup_in_report_payload(self, tmp_path):
        store_dir = str(tmp_path / "store")
        api.Client(store_dir=store_dir).submit(_tiny_spec()).wait()  # warm
        report = api.Client(store_dir=store_dir).submit(_tiny_spec()).wait()  # hit
        disk = report.disk_cache_stats()
        assert disk["hits"] > 0
        assert disk["hit_rate"] == pytest.approx(
            disk["hits"] / (disk["hits"] + disk["misses"])
        )
        payload = report.to_payload()
        assert payload["disk_cache"]["hits"] == disk["hits"]
        assert payload["disk_cache"]["corrupt_skipped"] == 0
        # corrupt-skip counters are part of the aggregated merge contract
        from repro.engine.merger import ResultMerger

        assert "solver.diskcache.skipped" in ResultMerger.AGGREGATED_COUNTERS

    def test_journal_fault_does_not_kill_campaign_or_change_digest(
        self, tmp_path
    ):
        spec = _tiny_spec()
        baseline = api.Client().submit(spec).wait()
        d = str(tmp_path / "faulty")
        report = api.Client(
            workers=2, telemetry=d, fault_plan="journal:at=2"
        ).submit(spec).wait()
        assert report.campaign_digest == baseline.campaign_digest
        assert all(j.ok for j in report.jobs)
        # every job's journal hit the injected OSError, disabled itself,
        # and counted it exactly once
        errors = [
            j.metrics.get("counters", {}).get("obs.journal.write_errors", 0)
            for j in report.jobs
        ]
        assert all(count == 1 for count in errors)


# -- kernel stage profiling --------------------------------------------------


class TestStageProfiling:
    def _run_with_obs(self, tmp_path):
        from repro.apps.paper_programs import make_paper_natives
        from repro.obs import Observability, Tracer

        trace = str(tmp_path / "run.jsonl")
        journal = RunJournal(trace)
        obs = Observability(
            tracer=Tracer(journal=journal),
            metrics=MetricsRegistry(),
            journal=journal,
        )
        ex = PAPER_EXAMPLES["obscure"]
        result = api.generate_tests(
            ex.source,
            entry=ex.entry,
            strategy="hotg",
            natives=make_paper_natives(),
            seed=dict(ex.initial_inputs),
            obs=obs,
        )
        journal.close()
        return result, obs, trace

    def test_all_five_stages_have_histograms(self, tmp_path):
        result, obs, _ = self._run_with_obs(tmp_path)
        assert result.found_error
        histograms = obs.metrics.snapshot()["histograms"]
        for stage in KERNEL_STAGES:
            summary = histograms[f"kernel.stage.{stage}_seconds"]
            assert summary["count"] > 0
            assert summary["total"] >= 0.0
        # scheduler attribution on the scheduling/solving stages
        assert histograms["kernel.stage.schedule_seconds.dfs"]["count"] > 0
        assert histograms["kernel.stage.generate_seconds.dfs"]["count"] > 0

    def test_iteration_counter_and_cache_gauge(self, tmp_path):
        _, obs, _ = self._run_with_obs(tmp_path)
        snapshot = obs.metrics.snapshot()
        assert snapshot["counters"]["kernel.iterations.dfs"] > 0
        assert "kernel.cache.hit_rate" in snapshot["gauges"]

    def test_run_executed_events_carry_live_coverage_and_cache(self, tmp_path):
        _, _, trace = self._run_with_obs(tmp_path)
        runs = [e for e in load_journal(trace) if e["kind"] == "run_executed"]
        assert runs
        for event in runs:
            assert "cache" in event and "hits" in event["cache"]
        coverages = [e["coverage"] for e in runs if e["coverage"] is not None]
        assert coverages == sorted(coverages)  # coverage only grows


# -- exporters ---------------------------------------------------------------


class TestExporters:
    def _snapshot(self):
        registry = MetricsRegistry()
        registry.counter("smt.checks").inc(7)
        registry.gauge("kernel.cache.hit_rate").set(0.5)
        registry.histogram("smt.check_seconds").observe(0.25)
        registry.histogram("smt.check_seconds").observe(0.75)
        return registry.snapshot()

    def test_snapshot_json_is_deterministic(self):
        text = snapshot_to_json(self._snapshot())
        assert text == snapshot_to_json(self._snapshot())
        assert json.loads(text)["counters"]["smt.checks"] == 7

    def test_prometheus_text_format(self):
        text = render_prometheus(self._snapshot())
        assert "# TYPE repro_smt_checks counter\nrepro_smt_checks 7" in text
        assert "# TYPE repro_kernel_cache_hit_rate gauge" in text
        assert "repro_kernel_cache_hit_rate 0.5" in text
        assert "# TYPE repro_smt_check_seconds summary" in text
        assert "repro_smt_check_seconds_count 2" in text
        assert "repro_smt_check_seconds_sum 1" in text
        assert "repro_smt_check_seconds_min 0.25" in text
        assert "repro_smt_check_seconds_max 0.75" in text
        assert text.endswith("\n")

    def test_chrome_trace_round_trip(self, tmp_path):
        d = str(tmp_path)
        api.Client(telemetry=d).submit(_tiny_spec(max_runs=6)).wait()
        events = load_journal(os.path.join(d, CAMPAIGN_JOURNAL))
        trace = journal_to_chrome_trace(events)
        text = json.dumps(trace)  # must be JSON-serializable
        parsed = json.loads(text)
        slices = {
            e["name"] for e in parsed["traceEvents"] if e.get("ph") == "X"
        }
        for stage in KERNEL_STAGES:
            assert stage in slices
        # one trace process per job plus its metadata record
        meta = [
            e for e in parsed["traceEvents"] if e.get("name") == "process_name"
        ]
        assert len(meta) == 4
        pids = {e["pid"] for e in parsed["traceEvents"] if e.get("ph") == "X"}
        assert pids == {e["pid"] for e in meta}

    def test_spans_are_positioned_on_the_mono_clock(self):
        events = [
            {
                "seq": 0,
                "ts": 1.0,
                "mono": 10.0,
                "kind": "span",
                "label": "execute",
                "seconds": 2.0,
            }
        ]
        trace = journal_to_chrome_trace(events)
        (slice_,) = trace["traceEvents"]
        assert slice_["ts"] == pytest.approx((10.0 - 2.0) * 1e6)
        assert slice_["dur"] == pytest.approx(2.0 * 1e6)

    def test_events_without_mono_are_skipped(self):
        trace = journal_to_chrome_trace([{"seq": 0, "kind": "legacy"}])
        assert trace["traceEvents"] == []


# -- CLI: campaign rollup, follow, top --------------------------------------


class TestStatsCli:
    @pytest.fixture()
    def campaign_dir(self, tmp_path):
        d = str(tmp_path / "camp")
        api.Client(telemetry=d).submit(
            _tiny_spec(max_runs=6),
            checkpoint=d,
        ).wait()
        return d

    def test_stats_accepts_campaign_directory(self, campaign_dir, capsys):
        assert cli_main(["stats", campaign_dir]) == 0
        out = capsys.readouterr().out
        assert "[campaign]" in out
        assert "foo//foo//higher_order//dfs" in out
        assert "done" in out
        assert "cache totals:" in out

    def test_follow_renders_and_stops_after_iterations(
        self, campaign_dir, capsys
    ):
        assert (
            cli_main(
                [
                    "stats",
                    campaign_dir,
                    "--follow",
                    "--iterations",
                    "2",
                    "--interval",
                    "0.01",
                    "--no-clear",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert out.count("[campaign]") == 2
        assert "follow: tick 2" in out

    def test_campaign_trace_export_via_stats(self, campaign_dir, tmp_path):
        out_file = str(tmp_path / "trace.json")
        assert (
            cli_main(["stats", campaign_dir, "--trace-out", out_file])
            == 0
        )
        with open(out_file, "r", encoding="utf-8") as handle:
            trace = json.load(handle)
        assert trace["traceEvents"]

    def test_campaign_cli_telemetry_flag(self, tmp_path, capsys):
        spec = {
            "programs": [
                {
                    "name": "foo",
                    "source": PAPER_EXAMPLES["foo"].source,
                    "entry": "foo",
                    "natives": "paper",
                    "seed": dict(PAPER_EXAMPLES["foo"].initial_inputs),
                }
            ],
            "strategies": ["higher_order"],
            "max_runs": 6,
        }
        spec_file = tmp_path / "spec.json"
        spec_file.write_text(json.dumps(spec), encoding="utf-8")
        d = str(tmp_path / "tele")
        assert (
            cli_main(
                [
                    "campaign",
                    str(spec_file),
                    "--telemetry",
                    d,
                    "--quiet",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "telemetry:" in out
        assert os.path.exists(os.path.join(d, CAMPAIGN_JOURNAL))

    def test_single_run_exports_still_work(self, tmp_path, capsys):
        # one search's exports live on `repro run` (`stats` takes only
        # directories)
        program = tmp_path / "foo.minic"
        program.write_text(PAPER_EXAMPLES["foo"].source, encoding="utf-8")
        prom = str(tmp_path / "m.prom")
        trace = str(tmp_path / "t.json")
        metrics = str(tmp_path / "m.json")
        journal = str(tmp_path / "t.jsonl")
        assert (
            cli_main(
                [
                    "run",
                    str(program),
                    "--max-runs",
                    "10",
                    "--trace-out",
                    trace,
                    "--prom-out",
                    prom,
                    "--metrics-out",
                    metrics,
                    "--trace",
                    journal,
                ]
            )
            == 0
        )
        with open(journal, "r", encoding="utf-8") as handle:
            events = [json.loads(line) for line in handle]
        assert events and all("kind" in e for e in events)
        assert [e["seq"] for e in events] == list(range(len(events)))
        with open(prom, "r", encoding="utf-8") as handle:
            exposition = handle.read()
        assert "# TYPE repro_search_runs counter" in exposition
        assert "repro_kernel_stage_execute_seconds_count" in exposition
        with open(metrics, "r", encoding="utf-8") as handle:
            assert json.load(handle)["counters"]["search.runs"] > 0
        with open(trace, "r", encoding="utf-8") as handle:
            parsed = json.load(handle)
        slices = {
            e["name"] for e in parsed["traceEvents"] if e.get("ph") == "X"
        }
        for stage in KERNEL_STAGES:
            assert stage in slices
