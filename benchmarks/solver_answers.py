#!/usr/bin/env python
"""Record every solver answer of a fixed workload and digest them.

A change that claims to leave the solver's answers untouched (a faster
kernel, a memo, a cheaper walk) is checked by running this script on
both sides and comparing the printed digest.  It runs five seed-0
lexer-protocol requests (the §7 lexer, then the CRC-guarded protocol
parser, from a packet drawn per request; one warm-up word and four
more, drawn as the standing benchmark draws them) and one generational
tinyvm request, all built
from :mod:`repro.apps`, and records:

- every ``SatSolver.solve``: assumptions, verdict, model, assumption
  core and the solver's cumulative counters;
- every ``LiaSolver.check``: verdict, model, core and branch count;
- every ``check_theory`` answer: verdict, conflict core and model;
- every model ``build_model`` returns: its integer, boolean and
  function entries, in order;
- each search's suite digest.

Terms are recorded by id and by text, so an answer that is equal only
up to renumbered terms still changes the digest.  A raised
:class:`~repro.errors.ResourceLimitError` is recorded as the answer.

Usage::

    PYTHONPATH=src python benchmarks/solver_answers.py
    PYTHONPATH=src python benchmarks/solver_answers.py --json answers.json

It prints one line per record kind (its count and the SHA-256 of that
kind's records alone, so a change that moves solver internals but no
suite shows which kinds moved) and then ``answers digest: <sha256>``
over every record.  ``--json PATH`` also writes the counts, the
per-kind digests, each search's suite digest by name and the combined
digest as JSON.  No digest may depend on ``PYTHONHASHSEED``.

``benchmarks/digest_matrix.py`` reuses :func:`run_requests` to check
the searches' suite digests against the ``solver_searches`` pins of
``benchmarks/paper_suite_digests.json``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import random
import sys
from collections import Counter
from typing import Callable, Collection, Dict, List, Optional

sys.path.insert(
    0, os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src")
)

from repro import api  # noqa: E402
from repro.apps.hashes import flex_hash, word_to_codes  # noqa: E402
from repro.apps.lexer_app import (  # noqa: E402
    DEFAULT_KEYWORDS,
    build_lexer_program,
    keyword_hashes,
)
from repro.apps.protocol_app import build_protocol_app  # noqa: E402
from repro.apps.tinyvm_app import build_tinyvm_app  # noqa: E402
from repro.solver import smt  # noqa: E402
from repro.solver.cache import QueryCache, use_cache  # noqa: E402
from repro.solver.lia import LiaSolver  # noqa: E402
from repro.solver.sat import SatSolver  # noqa: E402
from repro.solver.terms import Term  # noqa: E402

#: lexer-protocol request indices: -1 is the warm-up word
LEXER_REQUESTS = (-1, 0, 1, 2, 3)
LEXER_SEED = 0
TINYVM_OPCODES = (1, 2, 3, 4)


def _plain(value: object) -> object:
    """A JSON-able, hash-order-free rendering of a recorded value."""
    if isinstance(value, Term):
        return ["term", value.tid, str(value)]
    if isinstance(value, (list, tuple)):
        return [_plain(v) for v in value]
    if isinstance(value, dict):
        return [[_plain(k), _plain(v)] for k, v in value.items()]
    if value is None or isinstance(value, (bool, int, str)):
        return value
    return repr(value)


class Recorder:
    """Wraps four solver entry points and digests what they answer."""

    def __init__(self) -> None:
        self.counts: Counter = Counter()
        self._sha = hashlib.sha256()
        self._kind_sha: Dict[str, "hashlib._Hash"] = {}

    def record(self, kind: str, payload: object) -> None:
        self.counts[kind] += 1
        line = json.dumps([kind, _plain(payload)], separators=(",", ":"))
        data = line.encode() + b"\n"
        self._sha.update(data)
        self._kind_sha.setdefault(kind, hashlib.sha256()).update(data)

    @property
    def digest(self) -> str:
        return self._sha.hexdigest()

    def kind_digests(self) -> Dict[str, str]:
        """One digest per record kind, over that kind's records alone."""
        return {kind: sha.hexdigest()
                for kind, sha in sorted(self._kind_sha.items())}

    def _call(self, kind: str, run: Callable[[], object],
              render: Callable[[object], object]) -> object:
        try:
            result = run()
        except Exception as exc:
            self.record(kind, ["raised", type(exc).__name__, str(exc)])
            raise
        self.record(kind, render(result))
        return result

    def install(self) -> Callable[[], None]:
        """Patch the entry points; returns the function that undoes it."""
        sat_solve, lia_check = SatSolver.solve, LiaSolver.check
        theory, build_model = smt.check_theory, smt.build_model
        recorder = self

        def solve(self, assumptions=()):
            def render(r):
                n = self.num_vars()
                model = "".join(
                    "1" if r.model.get(v) else "0" for v in range(1, n + 1)
                ) if r.sat else ""
                return [list(assumptions), r.sat, model, r.core,
                        self.stats.to_dict()]
            return recorder._call(
                "sat", lambda: sat_solve(self, assumptions), render
            )

        def check(self):
            return recorder._call(
                "lia", lambda: lia_check(self),
                lambda r: [r.sat, sorted(r.model.items()), r.core, r.branches],
            )

        def check_theory(tm, literals):
            return recorder._call(
                "theory", lambda: theory(tm, literals), list
            )

        def model(*args):
            return recorder._call(
                "model", lambda: build_model(*args),
                lambda m: [m.ints, m.bools, [
                    [fn.name, table] for fn, table in m.functions.items()
                ], m.default],
            )

        SatSolver.solve, LiaSolver.check = solve, check
        smt.check_theory, smt.build_model = check_theory, model

        def undo() -> None:
            SatSolver.solve, LiaSolver.check = sat_solve, lia_check
            smt.check_theory, smt.build_model = theory, build_model

        return undo


def lexer_word(index: int, seed: int = LEXER_SEED) -> str:
    """The lexer's 3-letter start word for request ``index``.

    Drawn from ``f"{seed}/{index}"``; a word whose hash equals a
    keyword's is drawn again, so every request tests the same branches.
    """
    lexer = build_lexer_program()
    taken = set(keyword_hashes(DEFAULT_KEYWORDS, lexer.width,
                               lexer.table_size).values())
    rng = random.Random(f"{seed}/{index}")
    letters = "abcdefghijklmnopqrstuvwxyz"
    while True:
        word = "".join(rng.choice(letters) for _ in range(3))
        codes = word_to_codes(word, lexer.width)
        if flex_hash(codes, lexer.table_size) not in taken:
            return word


def protocol_inputs(index: int, seed: int = LEXER_SEED) -> Dict[str, int]:
    """The protocol request's seed packet for request ``index``.

    ``kind``, ``a`` and ``b`` are drawn from ``f"{seed}/protocol/{index}"``
    (``checksum`` stays 0), so the five protocol searches start from
    different packets and are different searches.
    """
    rng = random.Random(f"{seed}/protocol/{index}")
    return build_protocol_app().initial_inputs(
        kind=rng.randrange(10), a=rng.randrange(5000), b=rng.randrange(5000)
    )


def _search(app, inputs: Dict[str, int], max_runs: int, scheduler: str):
    with use_cache(QueryCache()):
        return api.generate_tests(
            app.program,
            entry=app.entry,
            strategy="hotg",
            config={"max_runs": max_runs, "scheduler": scheduler},
            natives=app.fresh_natives(),
            seed=inputs,
        )


def run_requests(recorder: Recorder,
                 names: Optional[Collection[str]] = None) -> Dict[str, str]:
    """Run the fixed requests; their suite digests by name.

    Names are ``lexer/<index>`` and ``protocol/<index>`` for the
    :data:`LEXER_REQUESTS` and ``tinyvm``.  ``names`` runs only those
    requests (each search has its own query cache, so a subset answers
    as it does in the full run).
    """
    lexer, protocol = build_lexer_program(), build_protocol_app()
    tinyvm = build_tinyvm_app()
    requests = []
    for index in LEXER_REQUESTS:
        word = lexer_word(index)
        requests += [
            (f"lexer/{index}", lexer, lexer.initial_inputs(word), 120, "dfs"),
            (f"protocol/{index}", protocol, protocol_inputs(index), 80,
             "dfs"),
        ]
    requests.append(("tinyvm", tinyvm, tinyvm.initial_inputs(TINYVM_OPCODES),
                     100, "generational"))
    digests = {
        name: api.suite_digest(_search(app, inputs, max_runs, scheduler))
        for name, app, inputs, max_runs, scheduler in requests
        if names is None or name in names
    }
    for digest in digests.values():
        recorder.record("search", digest)
    return digests


def main(argv: List[str] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--json", metavar="PATH",
                        help="also write the counts and digest as JSON")
    args = parser.parse_args(argv)
    recorder = Recorder()
    undo = recorder.install()
    try:
        searches = run_requests(recorder)
    finally:
        undo()
    kinds = recorder.kind_digests()
    for kind in sorted(recorder.counts):
        print(f"{kind:8s} {recorder.counts[kind]:6d} {kinds[kind]}")
    print(f"answers digest: {recorder.digest}")
    if args.json:
        with open(args.json, "w") as fh:
            json.dump({"counts": dict(sorted(recorder.counts.items())),
                       "kinds": kinds, "searches": searches,
                       "digest": recorder.digest}, fh, indent=2)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
