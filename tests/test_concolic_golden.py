"""Golden concolic digests: the VM's symbolic output, pinned per program.

``concolic_golden.json`` was recorded on the commit *before* the
concolic VM learned to keep concrete values as plain ints, and is not
re-recorded by changes to the execution core: a digest that moves means
the core changed an answer.  Each entry is one SHA-256 per (program,
concretization mode) over every run of a fixed input grid, all runs
sharing one fresh :class:`TermManager`, as a directed search does.  Per
run it covers the branch trace, step count, returned value and returned
term, the error triple, every path condition (text *and* ``tid``, so a
skipped or extra ``mk_int`` shows even when the text agrees), the IOF
samples, the concretization/UF counters and ``tm.num_terms``.  A run
that raises contributes its exception type, message and ``num_terms``.

Programs: every paper example, ``lang/randprog.py`` seeds 0-15 (each
also under a 40-step budget so ``StepBudgetExceeded`` is pinned), and a
fixed instance of the benchmark's execution-bound churn loop.  Those
100 entries (``{case}/{mode}``) are the original record and are never
re-recorded; ``ORIGINAL_ENTRIES_SHA256`` pins them as a whole.

Two later families add the manager's *interning record* to every run
-- ``sorted((tid, value))`` over ``tm.int_ids``, every constant that has
an id whether reserved or built -- so two ``mk_int`` calls (or their
reservations) made in the wrong order show even when neither constant
reaches a path condition:

- ``interned:{case}/{mode}``: the same 100 (case, mode) pairs;
- ``handcrafted:{name}/{mode}``: the crash and fast-path programs of
  ``tests/_concolic_cases.py`` at ``x`` in {-2, 0, 1, 5}.

When the two later families were recorded, each of their records (and
so each run behind the original entries too) was checked equal to the
one the former tree-walking concolic engine gave: this file is now the
differential contract that engine used to enforce.

To print fresh digests (for a deliberate, reviewed change of answers
only): ``PYTHONPATH=src python -m tests.test_concolic_golden``.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import sys

import pytest

from repro.apps.paper_programs import (
    PAPER_EXAMPLES,
    churn_source,
    make_paper_natives,
)
from repro.errors import InterpError, StepBudgetExceeded
from repro.lang import NativeRegistry, parse_program
from repro.lang.randprog import generate_program
from repro.solver import TermManager
from repro.symbolic import ConcolicEngine, ConcretizationMode
from tests._concolic_cases import HANDCRAFTED_CASES

GOLDEN_PATH = os.path.join(os.path.dirname(__file__), "concolic_golden.json")

GRID = [-3, 0, 1, 33, 567]

#: SHA-256 of the 100 original ``{case}/{mode}`` entries (see
#: :func:`_original_entries_sha256`)
ORIGINAL_ENTRIES_SHA256 = (
    "ef1e0972cb32708c704a199b7ca2e0fc4753cf116bb6d9ea3872d62b1a99f2b3"
)

#: a long all-concrete loop (`*`, `+`, `%` on ints) before two hash guards
CHURN_SOURCE = churn_source(300, 37, 101)


def _cases():
    """(key, program, natives factory, entry, budgets, input vectors)."""
    cases = []
    for name in sorted(PAPER_EXAMPLES):
        ex = PAPER_EXAMPLES[name]
        program = ex.program()
        params = program.function(ex.entry).params
        rng = random.Random(11)
        vectors = [dict(ex.initial_inputs)]
        vectors += [dict(zip(params, [v] * len(params))) for v in GRID]
        vectors += [
            {p: rng.randint(-100, 100) for p in params} for _ in range(5)
        ]
        cases.append(
            (f"paper:{name}", program, make_paper_natives, ex.entry,
             (1_000_000,), vectors)
        )
    for seed in range(16):
        rp = generate_program(seed)
        rng = random.Random(seed * 13 + 5)
        vectors = [rp.random_inputs(rng) for _ in range(4)]
        cases.append(
            (f"randprog:{seed}", rp.program, rp.natives, rp.entry,
             (1_000_000, 40), vectors)
        )
    cases.append(
        ("churn", parse_program(CHURN_SOURCE), make_paper_natives, "churn",
         (1_000_000,), [{"x": 5, "y": 9}, {"x": 0, "y": 0}, {"x": -3, "y": 567}])
    )
    return cases


def _handcrafted_cases():
    return [
        (f"handcrafted:{name}", parse_program(source), NativeRegistry,
         "main", (1_000_000,), [{"x": x} for x in (-2, 0, 1, 5)])
        for name, source in sorted(HANDCRAFTED_CASES.items())
    ]


def _interning(tm):
    return sorted((tid, value) for value, tid in tm.int_ids.items())


def _run_record(engine, entry, inputs):
    """One run's record; its last item is the interning record."""
    tm = engine.tm
    try:
        res = engine.run(entry, dict(inputs))
    except (StepBudgetExceeded, InterpError) as exc:
        return [
            "raise", type(exc).__name__, str(exc), tm.num_terms,
            _interning(tm),
        ]
    term = res.returned_term
    return [
        "ok",
        res.returned,
        None if term is None else [str(term), term.tid],
        res.error,
        res.error_message,
        res.error_line,
        [list(p) for p in res.path],
        sorted(list(c) for c in res.covered),
        res.steps,
        [
            [str(pc.term), pc.term.tid, pc.branch_id, pc.taken,
             pc.is_concretization, pc.line, pc.path_pos]
            for pc in res.path_conditions
        ],
        [[s.fn.name, list(s.args), s.value] for s in res.samples],
        res.concretizations,
        res.uf_applications,
        tm.num_terms,
        _interning(tm),
    ]


def case_records(program, natives, entry, budgets, vectors, mode):
    records = []
    for budget in budgets:
        engine = ConcolicEngine(
            program, natives(), mode, TermManager(), step_budget=budget
        )
        for inputs in vectors:
            records.append(
                [budget, sorted(inputs.items()),
                 _run_record(engine, entry, inputs)]
            )
    return records


def _digest(records) -> str:
    blob = json.dumps(records, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def case_digests(program, natives, entry, budgets, vectors, mode):
    """The original digest and the ``interned:`` digest, from one pass:
    an original record is its interned record minus the last item."""
    records = case_records(program, natives, entry, budgets, vectors, mode)
    plain = [[budget, inputs, record[:-1]] for budget, inputs, record in records]
    return _digest(plain), _digest(records)


def compute_digests():
    digests = {}
    for key, program, natives, entry, budgets, vectors in _cases():
        for mode in ConcretizationMode:
            digests[f"{key}/{mode.value}"], digests[
                f"interned:{key}/{mode.value}"
            ] = case_digests(program, natives, entry, budgets, vectors, mode)
    for key, program, natives, entry, budgets, vectors in _handcrafted_cases():
        for mode in ConcretizationMode:
            digests[f"{key}/{mode.value}"] = _digest(
                case_records(program, natives, entry, budgets, vectors, mode)
            )
    return digests


def _original_entries_sha256(golden) -> str:
    """SHA-256 over the original entries' sorted key/value pairs."""
    pairs = sorted(
        (key, value) for key, value in golden.items()
        if not key.startswith(("interned:", "handcrafted:"))
    )
    blob = json.dumps(pairs, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def _golden():
    with open(GOLDEN_PATH, encoding="utf-8") as handle:
        return json.load(handle)


@pytest.mark.parametrize(
    "case", _cases(), ids=lambda case: case[0]
)
@pytest.mark.parametrize("mode", list(ConcretizationMode))
def test_concolic_digest_matches_golden(case, mode):
    key, program, natives, entry, budgets, vectors = case
    plain, interned = case_digests(
        program, natives, entry, budgets, vectors, mode
    )
    golden = _golden()
    assert plain == golden[f"{key}/{mode.value}"]
    assert interned == golden[f"interned:{key}/{mode.value}"]


@pytest.mark.parametrize(
    "case", _handcrafted_cases(), ids=lambda case: case[0]
)
@pytest.mark.parametrize("mode", list(ConcretizationMode))
def test_handcrafted_digest_matches_golden(case, mode):
    key, program, natives, entry, budgets, vectors = case
    records = case_records(program, natives, entry, budgets, vectors, mode)
    assert _digest(records) == _golden()[f"{key}/{mode.value}"]


def test_golden_covers_every_case():
    expected = set()
    for case in _cases():
        for mode in ConcretizationMode:
            expected.add(f"{case[0]}/{mode.value}")
            expected.add(f"interned:{case[0]}/{mode.value}")
    for case in _handcrafted_cases():
        for mode in ConcretizationMode:
            expected.add(f"{case[0]}/{mode.value}")
    assert set(_golden()) == expected


def test_original_entries_are_never_re_recorded():
    assert _original_entries_sha256(_golden()) == ORIGINAL_ENTRIES_SHA256


if __name__ == "__main__":
    json.dump(compute_digests(), sys.stdout, indent=2, sort_keys=True)
    sys.stdout.write("\n")
