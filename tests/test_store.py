"""Tests for the shared content-addressed store (repro.store).

Covers the store's hard guarantees — atomic publication under
concurrent multi-process writers (same and different keys, no torn
reads), LRU eviction under a byte budget (including while writers are
racing), corrupt-entry quarantine, the one-shot flat-layout migration —
and its integration seams: the DiskCache adapter, campaign-level crash
buckets qualified by program source, deterministic corpus seeding, and
the ``repro store`` CLI verbs.

The load-bearing invariant throughout: the store is answer-neutral.
Campaign digests are byte-identical with the store on or off, warm or
cold, and before or after eviction.
"""

import json
import os
import subprocess
import sys
import threading

import pytest

from repro import api
from repro.apps.paper_programs import PAPER_EXAMPLES
from repro.cli.main import main as cli_main
from repro.engine.merger import ResultMerger
from repro.engine.planner import CampaignSpec, SearchJob, resolve_strategy
from repro.engine.runner import JobResult, run_job
from repro.solver.cache import CachedResult
from repro.solver.diskcache import DISKCACHE_FORMAT, DiskCache
from repro.store import (
    CORPUS_ENTRY_FORMAT,
    ContentStore,
    corpus_group,
    crash_group,
    input_digest,
    source_sha,
)

FOO = PAPER_EXAMPLES["foo"]


def _foo_spec() -> CampaignSpec:
    """A one-job campaign over the paper's foo example."""
    return CampaignSpec.from_payload(
        {
            "programs": [
                {
                    "name": "foo",
                    "source": FOO.source,
                    "entry": FOO.entry,
                    "natives": "paper",
                    "seed": dict(FOO.initial_inputs),
                }
            ],
            "strategies": ["higher_order"],
            "max_runs": 50,
        }
    )


def _foo_job(strategy: str = "higher_order", **config) -> SearchJob:
    options = {"max_runs": 50, "scheduler": "dfs"}
    options.update(config)
    mode = resolve_strategy(strategy)
    return SearchJob(
        key=f"foo//{FOO.entry}//{mode}//dfs",
        program_name="foo",
        source=FOO.source,
        entry=FOO.entry,
        strategy=mode,
        natives="paper",
        seed=dict(FOO.initial_inputs),
        config=options,
    )


class TestStoreBasics:
    def test_flat_round_trip(self, tmp_path):
        store = ContentStore(str(tmp_path))
        path = store.path_for("solver", "ab" * 32)
        assert store.save("solver", path, {"format": 1, "x": 3})
        assert store.load("solver", path) == {"format": 1, "x": 3}
        assert store.counters["store.solver.stores"] == 1
        assert store.counters["store.solver.hits"] == 1

    def test_grouped_round_trip_and_sorted_enumeration(self, tmp_path):
        store = ContentStore(str(tmp_path))
        group = corpus_group(source_sha("src"), "main")
        digests = [input_digest({"x": n}) for n in range(5)]
        for n, digest in enumerate(digests):
            store.save(
                "corpus",
                store.group_path("corpus", group, digest),
                {"format": CORPUS_ENTRY_FORMAT, "inputs": {"x": n}},
            )
        loaded = store.load_group(
            "corpus", group, expected_format=CORPUS_ENTRY_FORMAT
        )
        assert [d for d, _ in loaded] == sorted(digests)
        assert len(loaded) == 5
        # a different group is empty
        assert store.load_group("corpus", corpus_group("other", "main")) == []

    def test_miss_is_none_not_error(self, tmp_path):
        store = ContentStore(str(tmp_path))
        assert store.load("solver", store.path_for("solver", "cd" * 32)) is None
        assert store.counters["store.solver.misses"] == 1

    def test_input_digest_order_insensitive(self):
        assert input_digest({"a": 1, "b": 2}) == input_digest({"b": 2, "a": 1})
        assert input_digest({"a": 1}) != input_digest({"a": 2})

    def test_group_digests_differ_per_identity(self):
        assert corpus_group("s1", "main") != corpus_group("s2", "main")
        assert corpus_group("s1", "main") != corpus_group("s1", "other")
        assert crash_group("s1") != crash_group("s2")


class TestQuarantine:
    def test_corrupt_json_is_quarantined_once(self, tmp_path):
        store = ContentStore(str(tmp_path))
        path = store.path_for("solver", "ab" * 32)
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w", encoding="utf-8") as handle:
            handle.write("{ not json")
        payload, corrupt = store.load_entry("solver", path)
        assert payload is None and corrupt
        assert not os.path.exists(path)
        quarantined = os.listdir(os.path.join(str(tmp_path), "quarantine"))
        assert len(quarantined) == 1
        assert quarantined[0].startswith("solver--")
        # second lookup: clean miss, nothing left to quarantine
        payload, corrupt = store.load_entry("solver", path)
        assert payload is None and not corrupt
        assert store.counters["store.solver.quarantined"] == 1

    def test_stale_format_is_quarantined(self, tmp_path):
        store = ContentStore(str(tmp_path))
        path = store.path_for("corpus", "ef" * 32)
        store.save("corpus", path, {"format": 999, "inputs": {}})
        assert store.load("corpus", path, expected_format=1) is None
        assert not os.path.exists(path)

    def test_verify_sweeps_corrupt_entries(self, tmp_path):
        store = ContentStore(str(tmp_path))
        good = store.path_for("solver", "ab" * 32)
        store.save("solver", good, {"format": 1})
        bad = store.path_for("solver", "cd" * 32)
        os.makedirs(os.path.dirname(bad), exist_ok=True)
        with open(bad, "w", encoding="utf-8") as handle:
            handle.write("garbage")
        outcome = store.verify()
        assert outcome == {"checked": 2, "quarantined": 1}
        assert os.path.exists(good)
        assert not os.path.exists(bad)


_WRITER_SCRIPT = """
import sys
sys.path.insert(0, {src!r})
from repro.store import ContentStore
store = ContentStore({root!r})
wid = int(sys.argv[1])
for round_ in range(30):
    # everyone hammers one shared key...
    shared = store.path_for("solver", "ff" * 32)
    store.save("solver", shared, {{"format": 1, "payload": "x" * 256}})
    loaded = store.load("solver", shared)
    assert loaded is None or loaded["payload"] == "x" * 256, "torn read"
    # ...and also writes its own keys
    own = store.path_for("solver", ("%02x" % wid) * 32)
    store.save("solver", own, {{"format": 1, "wid": wid, "round": round_}})
    got = store.load("solver", own)
    assert got is not None and got["wid"] == wid, "lost own write"
print("ok")
"""


class TestConcurrentWriters:
    def test_multiprocess_writers_no_torn_reads(self, tmp_path):
        src = os.path.join(os.path.dirname(__file__), "..", "src")
        script = _WRITER_SCRIPT.format(
            src=os.path.abspath(src), root=str(tmp_path)
        )
        procs = [
            subprocess.Popen(
                [sys.executable, "-c", script, str(wid)],
                stdout=subprocess.PIPE,
                stderr=subprocess.PIPE,
                text=True,
            )
            for wid in range(4)
        ]
        for proc in procs:
            out, err = proc.communicate(timeout=120)
            assert proc.returncode == 0, err
            assert out.strip() == "ok"
        store = ContentStore(str(tmp_path))
        # every surviving entry parses cleanly — no torn files anywhere
        assert store.verify()["quarantined"] == 0
        shared = store.load("solver", store.path_for("solver", "ff" * 32))
        assert shared is not None and shared["payload"] == "x" * 256

    def test_eviction_under_writers(self, tmp_path):
        """gc racing live writers: never crashes, never leaves torn state."""
        store = ContentStore(str(tmp_path))
        stop = threading.Event()
        errors = []

        def _writer(wid: int) -> None:
            n = 0
            while not stop.is_set():
                digest = ("%02x" % wid) + ("%06x" % (n % 64)).zfill(62)
                try:
                    store.save(
                        "solver",
                        store.path_for("solver", digest),
                        {"format": 1, "fill": "y" * 512},
                    )
                except Exception as exc:  # noqa: BLE001
                    errors.append(exc)
                    return
                n += 1

        threads = [
            threading.Thread(target=_writer, args=(w,)) for w in range(3)
        ]
        for t in threads:
            t.start()
        try:
            for _ in range(10):
                store.gc(4096)  # tight budget: constant eviction pressure
        finally:
            stop.set()
            for t in threads:
                t.join()
        assert not errors
        assert store.verify()["quarantined"] == 0
        final = store.gc(4096)
        assert isinstance(final, dict)
        assert store.stats()["total_bytes"] <= 4096


class TestEviction:
    def test_gc_respects_lru_order(self, tmp_path):
        store = ContentStore(str(tmp_path))
        paths = {}
        for n in range(4):
            digest = ("%02x" % n) * 32
            paths[n] = store.path_for("solver", digest)
            store.save("solver", paths[n], {"format": 1, "fill": "z" * 200})
        # touch 0 and 2 so 1 and 3 are the LRU victims
        store.load("solver", paths[0])
        store.load("solver", paths[2])
        size = os.path.getsize(paths[0])
        evicted = store.gc(2 * size + 10)
        assert evicted == {"solver": 2}
        assert os.path.exists(paths[0]) and os.path.exists(paths[2])
        assert not os.path.exists(paths[1]) and not os.path.exists(paths[3])

    def test_gc_preserves_lifetime_totals_across_compaction(self, tmp_path):
        store = ContentStore(str(tmp_path))
        path = store.path_for("solver", "ab" * 32)
        store.save("solver", path, {"format": 1})
        store.load("solver", path)
        store.gc(10**9)  # no eviction, but compacts the journal
        store.gc(10**9)  # twice: totals must not double or vanish
        stats = store.stats()
        assert stats["stores"] == {"solver": 1}
        assert stats["hits"] == {"solver": 1}

    def test_gc_prunes_empty_group_dirs(self, tmp_path):
        store = ContentStore(str(tmp_path))
        group = corpus_group("src", "main")
        path = store.group_path("corpus", group, "ab" * 32)
        store.save("corpus", path, {"format": 1})
        assert store.gc(0) == {"corpus": 1}
        assert not os.path.exists(store.group_dir("corpus", group))

    def test_compaction_preserves_lru_order(self, tmp_path):
        store = ContentStore(str(tmp_path))
        old = store.path_for("solver", "aa" * 32)
        new = store.path_for("solver", "bb" * 32)
        store.save("solver", old, {"format": 1, "fill": "z" * 200})
        store.save("solver", new, {"format": 1, "fill": "z" * 200})
        store.load("solver", old)  # most recently used, despite older store
        store.gc(10**9)  # compaction rewrites the recency lines
        evicted = ContentStore(str(tmp_path)).gc(os.path.getsize(old) + 10)
        assert evicted == {"solver": 1}
        assert os.path.exists(old) and not os.path.exists(new)

    def test_tenant_accounting(self, tmp_path):
        a = ContentStore(str(tmp_path), tenant="alpha")
        b = ContentStore(str(tmp_path), tenant="beta")
        path = a.path_for("solver", "ab" * 32)
        a.save("solver", path, {"format": 1})
        b.load("solver", path)
        b.load("solver", path)
        tenants = a.stats()["tenants"]
        assert tenants == {"alpha": 1, "beta": 2}


class TestDiskCacheAdapter:
    def test_digests_and_payloads_unchanged_from_flat_layout(self, tmp_path):
        """The adapter moves only the fanout: same digest, same payload."""
        import hashlib

        cache = DiskCache(str(tmp_path))
        key = ("canonical", 1, (2, 3))
        entry = CachedResult(
            sat=True, iterations=2, int_values={0: 1},
            bool_values={1: True}, tables={}, default=5,
        )
        cache.store(key, entry)
        digest = hashlib.sha256(repr(key).encode("utf-8")).hexdigest()
        expected = os.path.join(
            str(tmp_path), "solver", digest[:2], digest + ".json"
        )
        assert cache.path_for(key) == expected
        with open(expected, "r", encoding="utf-8") as handle:
            payload = json.load(handle)
        assert payload["format"] == DISKCACHE_FORMAT
        assert payload["sat"] is True and payload["default"] == 5
        assert len(cache) == 1

    def test_lookup_counts_follow_store(self, tmp_path):
        cache = DiskCache(str(tmp_path))
        key = ("k",)
        assert cache.lookup(key) is None
        cache.store(key, CachedResult(
            sat=False, iterations=1, int_values={}, bool_values={},
            tables={}, default=0,
        ))
        assert cache.lookup(key) is not None
        assert (cache.hits, cache.misses, cache.stores) == (1, 1, 1)
        store_counters = cache.content_store.counters
        assert store_counters["store.solver.hits"] == 1
        assert store_counters["store.solver.misses"] == 1


class TestCampaignIntegration:
    def test_digest_identical_store_on_off_warm_and_after_eviction(
        self, tmp_path
    ):
        spec = _foo_spec()
        reference = api.Client(workers=1).submit(spec).wait()
        store_dir = str(tmp_path / "store")
        cold = api.Client(workers=1, store_dir=store_dir).submit(spec).wait()
        warm = api.Client(workers=1, store_dir=store_dir).submit(spec).wait()
        assert cold.campaign_digest == reference.campaign_digest
        assert warm.campaign_digest == reference.campaign_digest
        assert warm.cache_totals().get("disk_hits", 0) > 0
        # evict everything; the digest must still reproduce
        assert sum(ContentStore(store_dir).gc(0).values()) > 0
        again = api.Client(workers=1, store_dir=store_dir).submit(spec).wait()
        assert again.campaign_digest == reference.campaign_digest

    def test_corpus_and_crashes_persisted(self, tmp_path):
        store_dir = str(tmp_path / "store")
        report = api.Client(workers=1, store_dir=store_dir).submit(
            _foo_spec()
        ).wait()
        job = report.jobs[0]
        assert job.source_sha == source_sha(FOO.source)
        store = ContentStore(store_dir)
        entries = store.load_group(
            "corpus",
            corpus_group(job.source_sha, FOO.entry),
            expected_format=CORPUS_ENTRY_FORMAT,
        )
        assert len(entries) == len(job.corpus) > 0
        assert {input_digest(p["inputs"]) for _d, p in entries} == {
            input_digest(e["inputs"]) for e in job.corpus
        }
        crash_entries = store.load_group("crashes", crash_group(job.source_sha))
        assert {p["bucket"] for _d, p in crash_entries} == {
            str(c.get("bucket")) for c in job.crashes
        }

    def test_store_max_bytes_enforced_after_campaign(self, tmp_path):
        store_dir = str(tmp_path / "store")
        api.Client(
            workers=1, store_dir=store_dir, store_max_bytes=1
        ).submit(_foo_spec()).wait()
        assert ContentStore(store_dir).stats()["total_bytes"] <= 1


class TestSeeding:
    def test_seeded_run_is_deterministic(self, tmp_path):
        """Seeding is a pure function of the store state: two runs from
        identical stores agree byte-for-byte.  (A seeded run persists its
        own corpus back, so the copies keep the states identical.)"""
        import shutil

        store_dir = str(tmp_path / "store")
        run_job(_foo_job(), store_dir=store_dir)
        copy_a = str(tmp_path / "copy-a")
        copy_b = str(tmp_path / "copy-b")
        shutil.copytree(store_dir, copy_a)
        shutil.copytree(store_dir, copy_b)
        one = run_job(_foo_job(), store_dir=copy_a, seed_from_store=True)
        two = run_job(_foo_job(), store_dir=copy_b, seed_from_store=True)
        assert one.suite_digest == two.suite_digest
        assert one.runs == two.runs

    def test_seeding_off_by_default_preserves_digest(self, tmp_path):
        baseline = run_job(_foo_job())
        store_dir = str(tmp_path / "store")
        run_job(_foo_job(), store_dir=store_dir)
        rerun = run_job(_foo_job(), store_dir=store_dir)
        assert rerun.suite_digest == baseline.suite_digest

    def test_seeds_transfer_coverage_across_strategies(self, tmp_path):
        """The paper's foo: unsound concretization alone never reaches the
        error; seeded with the higher-order corpus it must."""
        store_dir = str(tmp_path / "store")
        run_job(_foo_job(), store_dir=store_dir)  # higher_order warms corpus
        unsound = _foo_job("unsound")
        cold = run_job(unsound)
        seeded = run_job(unsound, store_dir=store_dir, seed_from_store=True)
        assert not any("foo bug" in e for e in cold.errors)
        assert any("foo bug" in e for e in seeded.errors)
        assert seeded.paths > cold.paths
        budget = unsound.config["max_runs"]
        # cold, the frontier runs dry before the budget: the plateau is
        # not a budget artifact, no larger budget reaches the bug
        assert cold.runs < budget
        # seeded, the bug falls well inside the same budget
        assert seeded.runs < budget

    def test_explicit_seed_corpus_wins_over_store(self, tmp_path):
        store_dir = str(tmp_path / "store")
        run_job(_foo_job(), store_dir=store_dir)
        explicit = _foo_job(seed_corpus=[dict(FOO.initial_inputs)])
        with_store = run_job(
            explicit, store_dir=store_dir, seed_from_store=True
        )
        without = run_job(explicit)
        assert with_store.suite_digest == without.suite_digest

    def test_seed_corpus_option_validates(self):
        from repro.errors import ReproError
        from repro.search.directed import SearchConfig

        config = SearchConfig.from_options(seed_corpus=[{"x": 1}])
        assert config.seed_corpus == ({"x": 1},)
        with pytest.raises(ReproError):
            SearchConfig.from_options(seed_corpus=[{"x": "not-an-int"}])


class TestCrashBucketQualification:
    def _result(self, key, source, bucket):
        return JobResult(
            key=key,
            source_sha=source_sha(source),
            crashes=[{"bucket": bucket, "count": 1}],
        )

    def test_same_bucket_different_programs_stay_distinct(self):
        report = ResultMerger().merge(
            [
                self._result("a", "int a;", "Error@3"),
                self._result("b", "int b;", "Error@3"),
            ]
        )
        assert len(report.crash_buckets) == 2
        for bucket in report.crash_buckets:
            assert bucket.endswith(":Error@3")

    def test_same_program_same_bucket_folds(self):
        report = ResultMerger().merge(
            [
                self._result("a", "int a;", "Error@3"),
                self._result("b", "int a;", "Error@3"),
            ]
        )
        assert list(report.crash_buckets.values()) == [2]

    def test_legacy_results_without_source_sha_unqualified(self):
        legacy = JobResult(key="a", crashes=[{"bucket": "Error@3", "count": 1}])
        report = ResultMerger().merge([legacy])
        assert report.crash_buckets == {"Error@3": 1}


class TestStoreCli:
    def _write_program(self, tmp_path):
        path = tmp_path / "foo.c"
        path.write_text(FOO.source, encoding="utf-8")
        return str(path)

    def test_run_with_store_then_stats_gc_verify_export(self, tmp_path, capsys):
        program = self._write_program(tmp_path)
        store_dir = str(tmp_path / "store")
        assert cli_main(["run", program, "--store-dir", store_dir]) == 0
        capsys.readouterr()
        assert cli_main(["store", "stats", "--store-dir", store_dir]) == 0
        out = capsys.readouterr().out
        assert "corpus:" in out and "solver:" in out
        assert cli_main(["store", "verify", "--store-dir", store_dir]) == 0
        assert (
            cli_main(
                [
                    "store", "export", "--store-dir", store_dir,
                    "--namespace", "corpus",
                    "--dest", str(tmp_path / "exported"),
                ]
            )
            == 0
        )
        capsys.readouterr()
        assert (
            cli_main(
                ["store", "gc", "--store-dir", store_dir, "--max-bytes", "0"]
            )
            == 0
        )
        assert "evicted" in capsys.readouterr().out
        assert ContentStore(store_dir).stats()["total_bytes"] == 0

    def test_run_seed_from_store_finds_transferred_error(self, tmp_path):
        program = self._write_program(tmp_path)
        store_dir = str(tmp_path / "store")
        assert cli_main(["run", program, "--store-dir", store_dir]) == 0
        rc = cli_main(
            [
                "run", program, "--mode", "unsound",
                "--store-dir", store_dir, "--seed-from-store",
                "--expect-error",
            ]
        )
        assert rc == 0  # the seeded corpus carries the error-triggering input
        # and the corpus namespace recorded hits for the seed loads
        stats = ContentStore(store_dir).stats()
        assert stats["hits"].get("corpus", 0) > 0

    def test_campaign_store_flags(self, tmp_path, capsys):
        spec = tmp_path / "spec.json"
        spec.write_text(
            json.dumps(_foo_spec().as_payload()), encoding="utf-8"
        )
        store_dir = str(tmp_path / "store")
        rc = cli_main(
            ["campaign", str(spec), "--quiet", "--store-dir", store_dir]
        )
        assert rc == 0
        assert "store:" in capsys.readouterr().out
        assert ContentStore(store_dir).stats()["total_bytes"] > 0
        seeded = tmp_path / "seeded.json"
        rc = cli_main(
            [
                "campaign", str(spec), "--quiet", "--store-dir", store_dir,
                "--seed-from-store", "--json", str(seeded),
            ]
        )
        assert rc == 0
        assert json.loads(seeded.read_text())["totals"]["failed_jobs"] == 0
        # the seeded campaign read its seeds from the corpus namespace
        assert ContentStore(store_dir).stats()["hits"].get("corpus", 0) > 0
