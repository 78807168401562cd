"""Tests for the test corpus and the command-line interface."""

import json

import pytest

from repro.cli import main
from repro.lang import NativeRegistry, parse_program
from repro.search import DirectedSearch, SearchConfig
from repro.search.corpus import CorpusEntry
from repro.search.corpus import TestCorpus as Corpus
from repro.symbolic import ConcretizationMode

SRC = """
int main(int x, int y) {
    if (x == hash(y)) {
        if (y == 10) {
            error("deep bug");
        }
    }
    return 0;
}
"""

PLAIN_SRC = """
int main(int x) {
    if (x > 5) { return 1; }
    return 0;
}
"""


def run_search():
    natives = NativeRegistry()
    natives.register("hash", lambda y: (y * 31 + 7) % 1000)
    search = DirectedSearch.for_mode(
        parse_program(SRC), "main", natives,
        ConcretizationMode.HIGHER_ORDER, SearchConfig(max_runs=20),
    )
    return search.run({"x": 33, "y": 42})


class TestCorpusBasics:
    def test_harvest_from_search(self):
        corpus = Corpus()
        result = run_search()
        added = corpus.add_from_search(result)
        assert added == result.runs
        assert len(corpus.error_entries()) >= 1

    def test_dedup(self):
        corpus = Corpus()
        e = CorpusEntry.from_run({"x": 1}, 0, False)
        assert corpus.add(e)
        assert not corpus.add(e)
        assert len(corpus) == 1

    def test_save_load_roundtrip(self, tmp_path):
        corpus = Corpus()
        corpus.add_from_search(run_search())
        path = str(tmp_path / "corpus.json")
        corpus.save(path)
        loaded = Corpus.load(path)
        assert len(loaded) == len(corpus)
        assert [e.inputs for e in loaded] == [e.inputs for e in corpus]

    def test_load_rejects_non_list(self, tmp_path):
        from repro.errors import ReproError

        path = tmp_path / "bad.json"
        path.write_text('{"not": "a list"}')
        with pytest.raises(ReproError):
            Corpus.load(str(path))

    def test_replay_matches_original(self):
        corpus = Corpus()
        corpus.add_from_search(run_search())
        natives = NativeRegistry()
        natives.register("hash", lambda y: (y * 31 + 7) % 1000)
        report = corpus.replay(parse_program(SRC), "main", natives)
        assert report.all_match

    def test_replay_detects_behaviour_drift(self):
        corpus = Corpus()
        corpus.add_from_search(run_search())
        # a "fixed" program: the error was removed
        fixed = SRC.replace('error("deep bug");', "return 7;")
        natives = NativeRegistry()
        natives.register("hash", lambda y: (y * 31 + 7) % 1000)
        report = corpus.replay(parse_program(fixed), "main", natives)
        assert not report.all_match
        assert len(report.mismatches) >= 1

    def test_replay_detects_native_drift(self):
        corpus = Corpus()
        corpus.add_from_search(run_search())
        natives = NativeRegistry()
        natives.register("hash", lambda y: y + 1)  # different hash
        report = corpus.replay(parse_program(SRC), "main", natives)
        assert not report.all_match


@pytest.fixture()
def program_file(tmp_path):
    path = tmp_path / "prog.minic"
    path.write_text(SRC)
    return str(path)


class TestCli:
    def test_run_higher_order_finds_bug(self, program_file, capsys):
        code = main(
            ["run", program_file, "--seed", "x=33,y=42", "--expect-error"]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "errors=1" in out

    def test_run_unsound_misses(self, program_file, capsys):
        code = main(
            [
                "run", program_file, "--mode", "unsound",
                "--seed", "x=33,y=42", "--expect-error",
            ]
        )
        assert code == 1  # expect-error not met

    def test_modes_compares_engines(self, program_file, capsys):
        assert main(["modes", program_file, "--seed", "x=33,y=42"]) == 0
        out = capsys.readouterr().out
        assert "unsound" in out and "higher_order" in out

    def test_fuzz_command(self, tmp_path, capsys):
        path = tmp_path / "plain.minic"
        path.write_text(PLAIN_SRC)
        assert main(["fuzz", str(path), "--runs", "50"]) == 0
        out = capsys.readouterr().out
        assert "[random]" in out

    def test_corpus_save_and_replay(self, program_file, tmp_path, capsys):
        corpus_path = str(tmp_path / "c.json")
        assert main(
            ["run", program_file, "--seed", "x=33,y=42", "--corpus", corpus_path]
        ) == 0
        assert main(["replay", program_file, corpus_path]) == 0
        out = capsys.readouterr().out
        assert "matching" in out

    def test_missing_file_reports_error(self, capsys):
        code = main(["run", "/nonexistent/prog.minic"])
        assert code == 2
        assert "error:" in capsys.readouterr().err

    def test_bad_seed_reports_error(self, program_file, capsys):
        code = main(["run", program_file, "--seed", "garbage"])
        assert code == 2

    @pytest.mark.parametrize(
        "argv",
        [
            ["run", "--seed", "x=abc"],
            ["fuzz", "--range", "5"],
            ["run", "--entry", "nope"],
        ],
        ids=["bad-seed-value", "bad-range", "unknown-entry"],
    )
    def test_bad_input_is_an_error_line_not_a_traceback(
        self, program_file, argv, capsys
    ):
        code = main([argv[0], program_file] + argv[1:])
        assert code == 2
        assert capsys.readouterr().err.startswith("error:")

    def test_run_prints_the_api_suite_digest(self, program_file, capsys):
        from repro import api
        from repro.apps.hashes import standard_registry

        assert main(
            ["run", program_file, "--seed", "x=33,y=42", "--max-runs", "20"]
        ) == 0
        lines = [
            line.strip()
            for line in capsys.readouterr().out.splitlines()
            if "suite digest:" in line
        ]
        expected = api.suite_digest(
            api.generate_tests(
                SRC,
                entry="main",
                strategy="higher_order",
                natives=standard_registry(width=4),
                seed={"x": 33, "y": 42},
                config={"max_runs": 20},
            )
        )
        assert lines == [f"suite digest: {expected}"]

    def test_stats_of_a_program_file_points_at_run_profile(
        self, program_file, capsys
    ):
        assert main(["stats", program_file]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert f"repro run {program_file} --profile" in err

    def test_default_entry_is_main(self, program_file, capsys):
        assert main(["run", program_file, "--seed", "x=33,y=42"]) == 0
