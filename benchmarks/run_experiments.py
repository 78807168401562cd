#!/usr/bin/env python3
"""Regenerate every experiment and print the EXPERIMENTS.md tables.

Run with::

    python benchmarks/run_experiments.py
    python benchmarks/run_experiments.py --json bench.json

This is the source of truth for EXPERIMENTS.md: each row pairs the paper's
claim with what this reproduction measures, across all engines.

With ``--json FILE`` a :class:`repro.obs.MetricsRegistry` is installed as
the process default for the whole run, and the BENCH JSON written to FILE
gains a ``metrics`` section (solver query counts, conflicts, concolic
concretizations, search totals) aggregated across every experiment.
"""

import argparse
import json
import time

from repro.apps import build_lexer_program, build_table_lexer_program, codes_to_word
from repro.apps.paper_programs import PAPER_EXAMPLES, make_paper_natives
from repro.baselines import RandomFuzzer, StaticTestGenerator
from repro.core import SampleStore
from repro.obs import MetricsRegistry, use_registry
from repro.search import DirectedSearch, SearchConfig
from repro.solver import TermManager
from repro.solver.cache import QueryCache, use_cache
from repro.symbolic import ConcolicEngine, ConcretizationMode

def _config(**kwargs):
    return SearchConfig.from_options(**kwargs)


MODES = [
    ("unsound", ConcretizationMode.UNSOUND),
    ("sound", ConcretizationMode.SOUND),
    ("delayed", ConcretizationMode.SOUND_DELAYED),
    ("higher-order", ConcretizationMode.HIGHER_ORDER),
]


def cell(result):
    bug = "BUG" if result.found_error else "—"
    return f"{bug} / r{result.runs} / d{result.divergences} / {result.coverage.ratio():.0%}"


def paper_examples_table():
    print("## Paper examples (E0–E7)")
    print()
    print("Cell format: found-bug / runs / divergences / branch coverage.")
    print()
    header = "| example | section | " + " | ".join(n for n, _ in MODES) + " | static |"
    print(header)
    print("|---" * (len(MODES) + 3) + "|")
    for name, ex in PAPER_EXAMPLES.items():
        cells = []
        for _label, mode in MODES:
            search = DirectedSearch.for_mode(
                ex.program(), ex.entry, make_paper_natives(), mode,
                _config(max_runs=40),
            )
            cells.append(cell(search.run(dict(ex.initial_inputs))))
        static = StaticTestGenerator(
            ex.program(), ex.entry, make_paper_natives(),
            _config(max_runs=40),
        ).run(dict(ex.initial_inputs))
        cells.append(cell(static))
        print(f"| {name} | {ex.section} | " + " | ".join(cells) + " |")
    print()


def lexer_table():
    print("## §7 lexer application (APP)")
    print()
    app = build_lexer_program()
    rows = []

    start = time.perf_counter()
    fuzz = RandomFuzzer(
        app.program, app.entry, app.fresh_natives(),
        ranges={f"c{i}": (0, 127) for i in range(app.width)},
        default_range=(-200, 200), seed=11,
    ).run(max_runs=500)
    rows.append(("blackbox random (500)", fuzz.found_error, fuzz.runs,
                 fuzz.coverage.ratio(), time.perf_counter() - start, ""))

    for label, mode in MODES:
        start = time.perf_counter()
        res = DirectedSearch.for_mode(
            app.program, app.entry, app.fresh_natives(), mode,
            _config(max_runs=120),
        ).run(app.initial_inputs("zzz", 0))
        note = ""
        if res.errors:
            err = res.errors[0]
            word = codes_to_word([err.inputs[f"c{i}"] for i in range(app.width)])
            note = f"word={word!r} arg={err.inputs['arg']}"
        rows.append((label, res.found_error, res.runs, res.coverage.ratio(),
                     time.perf_counter() - start, note))

    print("| technique | bug found | runs | coverage | time | note |")
    print("|---|---|---|---|---|---|")
    for label, bug, runs, cov, elapsed, note in rows:
        print(
            f"| {label} | {'yes' if bug else 'no'} | {runs} | {cov:.0%} | "
            f"{elapsed:.2f}s | {note} |"
        )
    print()

    print("### Figure-4 table-lookup variant (§6 limitation)")
    print()
    table_app = build_table_lexer_program()
    res = DirectedSearch.for_mode(
        table_app.program, table_app.entry, table_app.fresh_natives(),
        ConcretizationMode.HIGHER_ORDER, _config(max_runs=60),
    ).run(table_app.initial_inputs("zzz", 0))
    print(
        f"higher-order on the hash-indexed symbol table: bug found = "
        f"{'yes' if res.found_error else 'no'} (store lookups concretize; "
        f"coverage {res.coverage.ratio():.0%})"
    )
    print()


def learning_table():
    print("## Cross-run sample learning (PRE, hard-coded hash values)")
    print()
    from repro.apps import build_hardcoded_lexer_program

    app = build_hardcoded_lexer_program()
    # cold
    start = time.perf_counter()
    cold = DirectedSearch.for_mode(
        app.program, app.entry, app.fresh_natives(),
        ConcretizationMode.HIGHER_ORDER, _config(max_runs=120),
    ).run(app.initial_inputs("zzz", 0))
    cold_t = time.perf_counter() - start
    # warm
    tm = TermManager()
    store = SampleStore()
    engine = ConcolicEngine(
        app.program, app.fresh_natives(), ConcretizationMode.HIGHER_ORDER, tm
    )
    for kw in app.keywords:
        store.merge_from_run(engine.run(app.entry, app.initial_inputs(kw, 0)))
    start = time.perf_counter()
    warm = DirectedSearch.for_mode(
        app.program, app.entry, app.fresh_natives(),
        ConcretizationMode.HIGHER_ORDER, _config(max_runs=120),
        manager=tm, store=store,
    ).run(app.initial_inputs("zzz", 0))
    warm_t = time.perf_counter() - start
    print("| session | primed samples | bug found | search runs | time |")
    print("|---|---|---|---|---|")
    print(f"| cold | 0 | {'yes' if cold.found_error else 'no'} | {cold.runs} | {cold_t:.2f}s |")
    print(f"| warm (keyword corpus) | {len(store)} | {'yes' if warm.found_error else 'no'} | {warm.runs} | {warm_t:.2f}s |")
    print()


def staged_apps_table():
    print("## Staged applications (APP2–APP5)")
    print()
    from repro.apps import (
        build_auth_app,
        build_calculator_app,
        build_protocol_app,
        build_tinyvm_app,
    )

    rows = []

    def measure(name, app, seed, fuzz_ranges, fuzz_default, max_runs,
                stop_first=False):
        fuzz = RandomFuzzer(
            app.program, app.entry, app.fresh_natives(),
            ranges=fuzz_ranges, default_range=fuzz_default, seed=2,
        ).run(400)
        for label, mode in (
            ("DART", ConcretizationMode.UNSOUND),
            ("HOTG", ConcretizationMode.HIGHER_ORDER),
        ):
            start = time.perf_counter()
            res = DirectedSearch.for_mode(
                app.program, app.entry, app.fresh_natives(), mode,
                _config(max_runs=max_runs, stop_on_first_error=stop_first),
            ).run(dict(seed))
            rows.append((
                name, label, len(res.errors), res.runs,
                res.coverage.ratio(), time.perf_counter() - start,
            ))
        rows.append((name, "random(400)", len(fuzz.errors), fuzz.runs,
                     fuzz.coverage.ratio(), 0.0))

    protocol = build_protocol_app()
    measure("protocol (CRC)", protocol, protocol.initial_inputs(), {},
            (-100000, 100000), 80)
    auth = build_auth_app()
    measure("auth (MAC)", auth, auth.initial_inputs(), {},
            (-(2**31), 2**31), 60)
    calc = build_calculator_app()
    measure(
        "calculator", calc, calc.initial_inputs("zzzz", "qqqq", 1),
        {n: (0, 127) for n in calc.input_names if n != "operand"},
        (-1000, 1000), 200,
    )
    vm = build_tinyvm_app()
    measure(
        "tinyvm", vm, vm.initial_inputs(),
        {f"op{i}": (0, 5) for i in range(vm.code_len)},
        (-100000, 100000), 200, stop_first=True,
    )

    print("| app | technique | bugs | runs | coverage | time |")
    print("|---|---|---|---|---|---|")
    for name, label, bugs, runs, cov, elapsed in rows:
        print(
            f"| {name} | {label} | {bugs} | {runs} | {cov:.0%} | "
            f"{elapsed:.2f}s |"
        )
    print()


def report():
    print("# Experiment report (auto-generated by benchmarks/run_experiments.py)")
    print()
    paper_examples_table()
    lexer_table()
    learning_table()
    staged_apps_table()


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--json",
        default=None,
        metavar="FILE",
        help="write BENCH JSON (with an aggregated metrics section) to FILE",
    )
    parser.add_argument(
        "--no-cache",
        action="store_true",
        help="disable the normalized query cache (cold-solver baseline)",
    )
    args = parser.parse_args(argv)
    cache = None if args.no_cache else QueryCache()
    if args.json is None:
        with use_cache(cache):
            report()
        return
    registry = MetricsRegistry()
    start = time.perf_counter()
    with use_registry(registry), use_cache(cache):
        report()
    payload = {
        "generator": "benchmarks/run_experiments.py",
        "cache": not args.no_cache,
        "cache_hits": cache.hits if cache is not None else 0,
        "cache_misses": cache.misses if cache is not None else 0,
        "cache_hit_rate": round(cache.hit_rate, 4) if cache is not None else 0.0,
        "elapsed_seconds": round(time.perf_counter() - start, 3),
        "metrics": registry.snapshot(),
    }
    with open(args.json, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")
    print(f"BENCH JSON with metrics section written to {args.json}")


if __name__ == "__main__":
    main()
