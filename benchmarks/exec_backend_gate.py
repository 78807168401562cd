#!/usr/bin/env python
"""CI gate: the VM beats the concrete tree walker 2x; its shadow costs <= 3x.

A register-bytecode VM is the concrete and concolic execution core.
"The tree walker" here is always the concrete one,
``Interpreter(backend="tree")``: the concolic executor has no tree arm
(the VM's shadow loop is its only implementation).  The VM only earns its
keep if it is *substantially* faster on the kind of program the paper's
search actually runs — branch-dense integer code with function calls —
while producing byte-identical results.  This gate measures both claims:

- **throughput** — the mixed workload below runs under both backends
  for ``--rounds`` interleaved rounds (plus one unmeasured warmup) and
  the **minimum** wall time of each arm is compared; min-of-N is the
  standard noise-robust statistic for short benchmarks since scheduling
  noise only ever adds time.  Arms alternate order within each round so
  CPU frequency drift cannot systematically favour either backend.
  Fails when bytecode is less than ``--threshold`` (default 2.0) times
  faster than the tree walker.
- **equality** — every run's observable outcome (return value, step
  count, branch trace, coverage set) must match exactly between
  backends.  A fast VM that disagrees with the reference walker is a
  bug, not a win.
- **shadow overhead** — ``ConcolicEngine.run`` on the VM against the
  concrete VM (``run_concrete``) on :data:`CHURN_SOURCE`, a long
  all-concrete loop before two input guards, in every concretization
  mode.  Nothing in the loop depends on the inputs, so the concolic
  shadow should cost little over concrete execution; fails when the
  min-of-N concolic/concrete ratio of any row exceeds
  :data:`SHADOW_THRESHOLD` (3x).  Each mode has two rows: a warm one
  keeps one engine across its rounds, as a directed search keeps one
  term manager across its runs, and a cold one builds a fresh engine
  and term manager each round, as every campaign job starts.

The workload mixes the shapes that dominate the paper suite: two-sided
conditionals on variables, accumulator arithmetic with a modulus guard,
and a call chain through small helpers.  Array traffic and raw
division-heavy loops are deliberately *not* the centrepiece — those
spend most of their time in bounds/zero checks both backends share, so
they dilute the dispatch-cost signal this gate exists to protect.

Usage::

    PYTHONPATH=src python benchmarks/exec_backend_gate.py
    PYTHONPATH=src python benchmarks/exec_backend_gate.py --rounds 6 --json out.json
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

sys.path.insert(
    0, os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src")
)

from repro.apps.paper_programs import (  # noqa: E402
    churn_source,
    make_paper_natives,
)
from repro.lang import Interpreter, parse_program  # noqa: E402
from repro.solver import TermManager  # noqa: E402
from repro.symbolic import ConcolicEngine, ConcretizationMode  # noqa: E402

#: branch-dense mixed workload: conditionals, accumulator arithmetic
#: with modulus guards, and a two-deep call chain per iteration — the
#: instruction mix of the paper examples, scaled up to benchmark length
MIXED_SOURCE = """
int twist(int x) { return x * 2 + 1; }
int fold(int x) { return twist(x) - 3; }
int main(int n) {
    int a; int b; int acc; int i;
    a = 0; b = 1; acc = 0; i = 0;
    while (i < n) {
        if (i % 2 == 0) { acc = acc + i; } else { acc = acc - 1; }
        if (acc > 100) { acc = acc - 50; }
        a = a + b;
        b = a - b;
        if (a > 1000) { a = a % 997; }
        if (a < b) { a = a + 2; } else { b = b + 3; }
        acc = acc + fold(i) % 13;
        i = i + 1;
    }
    return acc + a + b;
}
"""

#: loop iterations per measured run — large enough that dispatch cost
#: dominates interpreter start-up, small enough for a CI smoke job
ITERATIONS = 20000


#: the standing benchmark's exec-churn shape: a concrete loop, then two
#: guards on the inputs through the opaque ``hash`` native
CHURN_SOURCE = churn_source(2500, 23, 97)

CHURN_INPUTS = {"x": 5, "y": 9}

#: the most a concolic run of the churn loop may cost over a concrete run
SHADOW_THRESHOLD = 3.0


def _outcome(res):
    return (res.returned, res.steps, tuple(res.path), frozenset(res.covered))


def shadow_overhead(rounds: int) -> dict:
    """Min-of-``rounds`` concolic/concrete wall-time ratio per mode,
    keyed ``"{mode} warm"`` and ``"{mode} cold"``."""
    program = parse_program(CHURN_SOURCE)
    concrete = Interpreter(program, make_paper_natives())
    ratios = {}
    for mode in ConcretizationMode:
        engine = ConcolicEngine(
            program, make_paper_natives(), mode, TermManager()
        )
        arms = {
            "warm": lambda: engine.run("churn", dict(CHURN_INPUTS)),
            "cold": lambda: ConcolicEngine(
                program, make_paper_natives(), mode, TermManager()
            ).run("churn", dict(CHURN_INPUTS)),
            "concrete": lambda: concrete.run("churn", dict(CHURN_INPUTS)),
        }
        for run in arms.values():  # warmup
            run()
        times: dict[str, list[float]] = {arm: [] for arm in arms}
        order = tuple(arms)
        for round_index in range(rounds):
            shift = round_index % len(order)
            for arm in order[shift:] + order[:shift]:
                start = time.perf_counter()
                arms[arm]()
                times[arm].append(time.perf_counter() - start)
        base = min(times["concrete"])
        for arm in ("warm", "cold"):
            row = f"{mode.value} {arm}"
            ratios[row] = min(times[arm]) / base
            print(
                f"shadow {row}: concolic {min(times[arm]):.4f}s, "
                f"concrete {base:.4f}s -> {ratios[row]:.2f}x"
            )
    return ratios


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--rounds", type=int, default=5)
    parser.add_argument(
        "--threshold",
        type=float,
        default=2.0,
        help="minimum required tree/bytecode speedup ratio (default 2.0)",
    )
    parser.add_argument("--json", default=None, metavar="FILE")
    args = parser.parse_args()

    program = parse_program(MIXED_SOURCE)
    interps = {
        backend: Interpreter(
            program, step_budget=100_000_000, backend=backend
        )
        for backend in ("tree", "bytecode")
    }
    for interp in interps.values():  # warmup: pyc, compile cache, allocator
        interp.run("main", {"n": 200})

    times: dict[str, list[float]] = {"tree": [], "bytecode": []}
    outcomes = set()
    for round_index in range(args.rounds):
        # alternate which backend goes first so frequency/thermal drift
        # cannot bias the comparison toward either arm
        order = (
            ("tree", "bytecode") if round_index % 2 == 0
            else ("bytecode", "tree")
        )
        for backend in order:
            start = time.perf_counter()
            res = interps[backend].run("main", {"n": ITERATIONS})
            times[backend].append(time.perf_counter() - start)
            outcomes.add(_outcome(res))
        print(
            f"round {round_index + 1}/{args.rounds}: "
            f"tree={times['tree'][-1]:.3f}s "
            f"bytecode={times['bytecode'][-1]:.3f}s"
        )

    tree, byte = min(times["tree"]), min(times["bytecode"])
    ratio = tree / byte
    print(
        f"min wall time: tree {tree:.3f}s, bytecode {byte:.3f}s "
        f"-> speedup {ratio:.2f}x (threshold {args.threshold:.1f}x)"
    )
    payload = {
        "iterations": ITERATIONS,
        "tree_seconds": times["tree"],
        "bytecode_seconds": times["bytecode"],
        "min_tree": tree,
        "min_bytecode": byte,
        "speedup": ratio,
        "threshold": args.threshold,
        "outcomes_identical": len(outcomes) == 1,
    }
    shadow = shadow_overhead(args.rounds)
    payload["shadow_ratios"] = shadow
    payload["shadow_threshold"] = SHADOW_THRESHOLD
    if args.json:
        with open(args.json, "w", encoding="utf-8") as handle:
            json.dump(payload, handle, indent=2, sort_keys=True)
            handle.write("\n")

    if len(outcomes) != 1:
        print("FAIL: run outcomes differed between backends")
        return 1
    print("outcomes identical across all runs and both backends")
    if ratio < args.threshold:
        print("FAIL: bytecode speedup below the gate")
        return 1
    worst = max(shadow.values())
    print(
        f"worst concolic/concrete ratio {worst:.2f}x "
        f"(threshold {SHADOW_THRESHOLD:.1f}x)"
    )
    if worst > SHADOW_THRESHOLD:
        print("FAIL: concolic shadow overhead above the gate")
        return 1
    print("PASS")
    return 0


if __name__ == "__main__":
    sys.exit(main())
