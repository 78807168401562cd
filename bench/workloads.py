"""The five workloads of the benchmark.

``BENCHMARK.json`` names the standing ones, which every run measures;
the others run when named with ``--workload``.

Each workload drives the system only through ``repro.api``, the app
builders and the ``repro`` CLI.  A workload builds its inputs from the
run's seed, sets itself up (:meth:`Workload.setup`, which includes one
warm-up request), and then serves requests: :meth:`Workload.prepare`
does the untimed harness work for one request and returns the call the
benchmark times.  Every call returns an :class:`Outcome` holding plain
data for the oracle, so no search state outlives its request.

See ``bench/README.md`` for why each workload was chosen and which
layer it stresses.
"""

from __future__ import annotations

import os
import random
import shutil
import signal
import subprocess
import sys
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

# module-level functions are called as ``api.<name>`` so that a traced
# run's wrappers, installed on the module later, are the ones called
from repro import api
from repro.api import CampaignSpec, Client, ServiceClient, suite_digest
from repro.apps.hashes import flex_hash, word_to_codes
from repro.apps.lexer_app import (
    DEFAULT_KEYWORDS, build_lexer_program, keyword_hashes,
)
from repro.apps.paper_programs import PAPER_EXAMPLES
from repro.apps.protocol_app import build_protocol_app
from repro.apps.tinyvm_app import build_tinyvm_app
from repro.engine.runner import build_natives
from repro.solver.cache import QueryCache, use_cache

from oracle import Oracle

__all__ = ["WORKLOADS", "Outcome", "Workload"]

#: seconds a single request may take before it counts as failed (the
#: longest takes about 1.5 s; a run must end within 180 s)
REQUEST_TIMEOUT = 60.0

#: the four concretization strategies, by campaign-spec spelling
STRATEGIES = ("higher_order", "unsound", "sound", "sound_delayed")


@dataclass
class Outcome:
    """What one request produced, reduced to what the oracle needs."""

    #: generated tests (distinct input vectors) the request produced
    tests: int = 0
    #: the request failed: an exception, an interrupted search, or a
    #: campaign with failed or quarantined jobs
    failed: bool = False
    #: one digest per search or campaign (printed, some pinned)
    digest: str = ""
    #: (identity, source key, entry, natives factory, program or None,
    #: tests) per program the request tested
    checks: List[tuple] = field(default_factory=list)

    def verify(self, oracle: Oracle) -> None:
        for identity, source, entry, natives, program, tests in self.checks:
            oracle.check(identity, source, entry, natives, tests, program=program)


def _search(program, entry, natives, seed, max_runs, scheduler):
    """One ``repro run``-like search: hotg, with its own query cache."""
    with use_cache(QueryCache()):
        return api.generate_tests(
            program,
            entry=entry,
            strategy="hotg",
            config={"max_runs": max_runs, "scheduler": scheduler},
            natives=natives,
            seed=seed,
        )


def _search_check(identity, program, entry, natives, result) -> tuple:
    tests: Dict[tuple, tuple] = {}
    for record in result.executions:
        run = record.result
        key = tuple(sorted(run.inputs.items()))
        tests.setdefault(
            key, (dict(run.inputs), run.returned, run.error, tuple(run.path))
        )
    return (identity, f"<{identity}>", entry, natives, program, list(tests.values()))


def _searches_outcome(checks: List[tuple], results: list) -> Outcome:
    return Outcome(
        tests=sum(len(check[5]) for check in checks),
        failed=any(result.interrupted for result in results),
        digest="+".join(suite_digest(result) for result in results),
        checks=checks,
    )


def _campaign_outcome(report, sources: Dict[str, Tuple[str, str]],
                      identity: Callable[[str], str]) -> Outcome:
    """Oracle data of a campaign report; ``sources`` maps program name
    to (source, entry), ``identity`` maps it to its coverage identity."""
    natives = lambda: build_natives("paper")  # noqa: E731
    checks = []
    for job in report.jobs:
        name = job.key.split("//", 1)[0]
        source, entry = sources[name]
        tests = [
            (dict(e["inputs"]), e["returned"], bool(e["error"]), None)
            for e in job.corpus
        ]
        checks.append((identity(name), source, entry, natives, None, tests))
    return Outcome(
        tests=report.total_tests,
        failed=bool(report.failed_jobs or report.quarantined_jobs),
        digest=report.campaign_digest,
        checks=checks,
    )


class Workload:
    """One set of inputs the benchmark runs, with its set-up."""

    name = ""
    #: closed-loop client threads issuing requests
    clients = 1
    #: a request's work runs in this process alone (no pool workers, no
    #: server), so the benchmark may pin it to one CPU
    in_process = True
    #: the server must be restarted to pick up tracing
    restart_for_trace = False

    def __init__(self, seed: int, work_dir: str) -> None:
        self.seed = seed
        self.work_dir = work_dir
        os.makedirs(work_dir, exist_ok=True)
        #: infrastructure failures outside any request (server exit codes)
        self.failures = 0

    def setup(self) -> None:
        """(Re)build everything a request needs, then run one warm-up."""
        raise NotImplementedError

    def prepare(self, index: int) -> Callable[[], Outcome]:
        """Untimed harness work for request ``index``; returns the call."""
        raise NotImplementedError

    def close(self) -> None:
        """Stop every process this workload started and wait for it."""

    def _fresh_path(self, *parts: str) -> str:
        """A path under the work dir with nothing at it yet."""
        path = os.path.join(self.work_dir, *parts)
        shutil.rmtree(path, ignore_errors=True)
        return path


class LexerProtocol(Workload):
    """The §7 lexer (hash-guarded keywords) then the CRC-guarded parser."""

    name = "lexer-protocol"

    def __init__(self, seed: int, work_dir: str) -> None:
        super().__init__(seed, work_dir)
        lexer = build_lexer_program()
        self._taken = set(keyword_hashes(DEFAULT_KEYWORDS, lexer.width,
                                         lexer.table_size).values())
        self._width, self._table_size = lexer.width, lexer.table_size

    def word(self, index: int) -> str:
        """The lexer's initial 3-letter chunk for request ``index``.

        The search's work depends on the word (up to 10% more calls), so
        each request draws its own and a run measures a mix of words,
        not one word per seed.  A word whose hash equals a keyword's
        takes the keyword's character check on its first run and covers
        one more branch outcome than any other word: every request must
        test the same branches, so such collisions are drawn again.
        """
        rng = random.Random(f"{self.seed}/{index}")
        letters = "abcdefghijklmnopqrstuvwxyz"
        while True:
            word = "".join(rng.choice(letters) for _ in range(3))
            codes = word_to_codes(word, self._width)
            if flex_hash(codes, self._table_size) not in self._taken:
                return word

    def setup(self) -> None:
        self.lexer = build_lexer_program()
        self.protocol = build_protocol_app()
        self.prepare(-1)()

    def prepare(self, index: int) -> Callable[[], Outcome]:
        word = self.word(index)
        return lambda: self._request(word)

    def _request(self, word: str) -> Outcome:
        lexer, protocol = self.lexer, self.protocol
        lex = _search(
            lexer.program, lexer.entry, lexer.fresh_natives(),
            lexer.initial_inputs(word), 120, "dfs",
        )
        proto = _search(
            protocol.program, protocol.entry, protocol.fresh_natives(),
            protocol.initial_inputs(), 80, "dfs",
        )
        return _searches_outcome(
            [
                _search_check("lexer", lexer.program, lexer.entry,
                              lexer.fresh_natives, lex),
                _search_check("protocol", protocol.program, protocol.entry,
                              protocol.fresh_natives, proto),
            ],
            [lex, proto],
        )


class TinyVm(Workload):
    """A deep generational search of the CRC-guarded bytecode VM."""

    name = "tinyvm"
    #: seed program ADD_ARG DOUBLE DEC CHECK with a wrong checksum: the
    #: search must forge the 6-ary CRC (multi-step) before the VM runs
    OPCODES = (1, 2, 3, 4)
    MAX_RUNS = 100

    def setup(self) -> None:
        self.app = build_tinyvm_app()
        self.prepare(-1)()

    def prepare(self, index: int) -> Callable[[], Outcome]:
        return self._request

    def _request(self) -> Outcome:
        app = self.app
        result = _search(
            app.program, app.entry, app.fresh_natives(),
            app.initial_inputs(self.OPCODES), self.MAX_RUNS, "generational",
        )
        return _searches_outcome(
            [_search_check("tinyvm", app.program, app.entry,
                           app.fresh_natives, result)],
            [result],
        )


#: a 2500-iteration concrete loop before two hash guards: execution
#: dominates, the solver sees only the two guards
CHURN_SOURCE = """
int churn(int x, int y) {{
    int acc = 0;
    int i = 0;
    while (i < 2500) {{
        acc = acc + ((acc * {mult} + i) % {mod});
        i = i + 1;
    }}
    if (x == hash(y + acc - acc)) {{
        error("churn reached");
    }}
    if (hash(x) == hash(y) + 1) {{
        error("churn linked");
    }}
    return acc;
}}
"""


class ExecChurn(Workload):
    """An execution-bound campaign through the local client, in-process."""

    name = "exec-churn"

    def __init__(self, seed: int, work_dir: str) -> None:
        super().__init__(seed, work_dir)
        rng = random.Random(seed)
        self.source = CHURN_SOURCE.format(
            mult=rng.randrange(7, 64), mod=rng.randrange(61, 128)
        )
        self.spec = CampaignSpec(
            programs=[{
                "name": "churn",
                "source": self.source,
                "entry": "churn",
                "natives": "paper",
                "seed": {"x": 5, "y": 9},
            }],
            strategies=["higher_order", "unsound"],
            schedulers=["dfs", "generational"],
            max_runs=60,
        )

    def setup(self) -> None:
        self.prepare(-1)()

    def prepare(self, index: int) -> Callable[[], Outcome]:
        return self._request

    def _request(self) -> Outcome:
        report = Client(workers=1).submit(self.spec).wait(timeout=REQUEST_TIMEOUT)
        return _campaign_outcome(
            report, {"churn": (self.source, "churn")}, lambda name: name
        )


def _paper_sources() -> Dict[str, Tuple[str, str]]:
    return {name: (ex.source, ex.entry) for name, ex in PAPER_EXAMPLES.items()}


class FleetPaper(Workload):
    """The paper matrix on a 2-worker pool against a warm store."""

    name = "fleet-paper"
    in_process = False

    def __init__(self, seed: int, work_dir: str) -> None:
        super().__init__(seed, work_dir)
        self.spec = CampaignSpec.paper_suite(
            strategies=STRATEGIES,
            schedulers=("dfs", "generational", "coverage"),
            max_runs=40,
        )
        self._setups = 0

    def setup(self) -> None:
        self._setups += 1
        self.warm = self._fresh_path(f"warm-store-{self._setups}")
        Client(workers=2, store_dir=self.warm).submit(self.spec).wait(
            timeout=REQUEST_TIMEOUT
        )
        self.prepare(-1)()

    def prepare(self, index: int) -> Callable[[], Outcome]:
        store = self._fresh_path("store")
        telemetry = self._fresh_path("telemetry")
        shutil.copytree(self.warm, store)

        def request() -> Outcome:
            client = Client(workers=2, store_dir=store, telemetry=telemetry)
            report = client.submit(self.spec).wait(timeout=REQUEST_TIMEOUT)
            return _campaign_outcome(report, _paper_sources(), lambda name: name)

        return request


class Service(Workload):
    """Two closed-loop clients submitting to a ``repro serve`` fleet."""

    name = "service"
    clients = 2
    in_process = False
    restart_for_trace = True

    def __init__(self, seed: int, work_dir: str) -> None:
        super().__init__(seed, work_dir)
        self.server: Optional[subprocess.Popen] = None
        self._servers = 0

    def spec(self, tag: str) -> CampaignSpec:
        """Submission ``tag``: 4-8 paper programs x 2 strategies, dfs.

        Program names and a trailing comment are unique per submission,
        so tickets, job keys and corpus groups never deduplicate.
        """
        rng = random.Random(f"{self.seed}/{tag}")
        names = rng.sample(sorted(PAPER_EXAMPLES), rng.randint(4, 8))
        programs = []
        for name in names:
            example = PAPER_EXAMPLES[name]
            programs.append({
                "name": f"{name}-{tag}",
                "source": f"{example.source}\n// submission {tag}\n",
                "entry": example.entry,
                "natives": "paper",
                "seed": dict(example.initial_inputs),
            })
        return CampaignSpec(
            programs=programs,
            strategies=rng.sample(STRATEGIES, 2),
            schedulers=["dfs"],
            max_runs=40,
        )

    def setup(self) -> None:
        self.close()
        self._servers += 1
        base = self._fresh_path(f"server-{self._servers}")
        state_dir = os.path.join(base, "state")
        os.makedirs(base)
        self.client = ServiceClient(state_dir)
        with open(os.path.join(base, "serve.log"), "w", encoding="utf-8") as log:
            self.server = subprocess.Popen(
                [
                    sys.executable, "-m", "repro", "serve",
                    "--state-dir", state_dir,
                    "--workers", "2",
                    "--store-dir", os.path.join(base, "store"),
                    "--quiet",
                ],
                stdout=log,
                stderr=subprocess.STDOUT,
                stdin=subprocess.DEVNULL,
            )
        self.prepare(-self._servers)()

    def prepare(self, index: int) -> Callable[[], Outcome]:
        tag = str(index) if index >= 0 else f"w{-index}"
        spec = self.spec(tag)

        def request() -> Outcome:
            handle = self.client.submit(spec)
            report = handle.wait(timeout=REQUEST_TIMEOUT, poll=0.02)
            return _campaign_outcome(
                report,
                {
                    p["name"]: (p["source"], p["entry"])
                    for p in spec.programs
                },
                lambda name: name.rsplit("-", 1)[0],
            )

        return request

    def close(self) -> None:
        server, self.server = self.server, None
        if server is None:
            return
        if server.poll() is None:
            server.send_signal(signal.SIGTERM)
        try:
            code = server.wait(timeout=60)
        except subprocess.TimeoutExpired:
            server.kill()
            code = server.wait()
        # 3 is the server's drain-and-exit contract on SIGTERM
        if code not in (0, 3):
            self.failures += 1


WORKLOADS = {
    cls.name: cls
    for cls in (LexerProtocol, TinyVm, ExecChurn, FleetPaper, Service)
}
