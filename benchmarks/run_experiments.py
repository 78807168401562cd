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
import os
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


def campaign_bench(path, workers=2, repeats=3):
    """PR 4 batch-engine benchmark: serial vs pooled, cold vs warm disk cache.

    Runs the paper-example campaign (all strategies) four ways and writes
    ``BENCH_pr4.json``:

    - ``serial`` — ``workers=1``, no disk cache (the reference);
    - ``pooled`` — ``workers=N`` process pool, no disk cache (must produce
      the identical campaign digest);
    - ``disk_cold`` — ``workers=1`` against an empty cache directory;
    - ``disk_warm`` — ``workers=1`` against the now-populated directory.

    Timings are medians over ``repeats`` interleaved rounds.  SMT seconds
    come from the per-job metric snapshots, so the cold/warm comparison
    isolates solver work from interpreter work.
    """
    import statistics
    import tempfile

    from repro.api import CampaignSpec, Client

    spec = CampaignSpec.paper_suite(
        strategies=["higher_order", "unsound", "sound"], max_runs=40
    )

    def measure(**kwargs):
        start = time.perf_counter()
        report = Client(**kwargs).submit(spec).wait()
        return time.perf_counter() - start, report

    rounds = {"serial": [], "pooled": [], "disk_cold": [], "disk_warm": []}
    reports = {}
    for _ in range(repeats):
        with tempfile.TemporaryDirectory(prefix="repro-diskcache-") as cache_dir:
            for label, kwargs in (
                ("serial", {"workers": 1}),
                ("pooled", {"workers": workers}),
                ("disk_cold", {"workers": 1, "cache_dir": cache_dir}),
                ("disk_warm", {"workers": 1, "cache_dir": cache_dir}),
            ):
                seconds, rep = measure(**kwargs)
                rounds[label].append((seconds, rep.smt_check_seconds))
                reports[label] = rep

    digests = {label: rep.campaign_digest for label, rep in reports.items()}
    assert len(set(digests.values())) == 1, (
        f"campaign digests diverged across configurations: {digests}"
    )
    warm_cache = reports["disk_warm"].cache_totals()
    payload = {
        "generator": "benchmarks/run_experiments.py --pr4",
        "suite": "paper examples x (higher_order, unsound, sound)",
        "jobs": len(reports["serial"].jobs),
        "workers_pooled": workers,
        "repeats": repeats,
        "campaign_digest": digests["serial"],
        "digests_identical": True,
        "warm_disk_hits": warm_cache.get("disk_hits", 0),
        "warm_disk_misses": warm_cache.get("disk_misses", 0),
        "cpu_count": os.cpu_count(),
        "note": (
            "on a single-core host the pooled configuration pays spawn "
            "overhead without gaining parallelism; the determinism claim "
            "(identical digest at every worker count) is the CI gate"
        ),
    }
    for label, samples in rounds.items():
        payload[f"{label}_wall_seconds"] = round(
            statistics.median(s for s, _ in samples), 6
        )
        payload[f"{label}_smt_seconds"] = round(
            statistics.median(m for _, m in samples), 6
        )
    payload["warm_vs_cold_smt_speedup"] = round(
        payload["disk_cold_smt_seconds"]
        / max(payload["disk_warm_smt_seconds"], 1e-9),
        3,
    )
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")
    print(f"## PR 4 batch-engine benchmark ({payload['jobs']} jobs)")
    print()
    print("| configuration | wall (s) | SMT (s) |")
    print("|---|---|---|")
    for label in ("serial", "pooled", "disk_cold", "disk_warm"):
        print(
            f"| {label} | {payload[f'{label}_wall_seconds']:.3f} | "
            f"{payload[f'{label}_smt_seconds']:.3f} |"
        )
    print()
    print(
        f"warm disk cache: {payload['warm_disk_hits']} hits / "
        f"{payload['warm_disk_misses']} misses; SMT speedup "
        f"{payload['warm_vs_cold_smt_speedup']}x; digest "
        f"{payload['campaign_digest'][:16]}... identical everywhere"
    )
    print(f"BENCH JSON written to {path}")


def scheduler_bench(path, repeats=3):
    """PR 5 frontier-scheduler benchmark: runs-to-coverage-plateau per policy.

    Runs three benchmark apps (lexer, tinyvm, protocol) under every
    frontier scheduler (dfs / generational / coverage) for ``repeats``
    rounds and writes ``BENCH_pr5.json``:

    - ``runs_to_plateau`` — first run index at which the search covers
      the app's *reachable plateau*: the maximum branch-outcome count any
      scheduler reaches within the app's run budget.  (None of these apps
      reaches 100% of static outcomes — some sides are infeasible — so
      the plateau is the honest "full coverage" reference.)
    - ``wall_seconds`` — median end-to-end search time.

    Schedulers are deterministic, so runs_to_plateau is identical across
    rounds; rounds exist to stabilize the wall-clock medians.  The gate:
    the coverage scheduler must reach the plateau on at least one app in
    fewer runs than dfs.
    """
    import statistics

    from repro.apps import (
        build_lexer_program,
        build_protocol_app,
        build_tinyvm_app,
    )
    from repro.search.scheduler import scheduler_names

    apps = {
        "lexer": (build_lexer_program, lambda a: a.initial_inputs("zzz", 0), 120),
        "tinyvm": (build_tinyvm_app, lambda a: a.initial_inputs(), 200),
        "protocol": (build_protocol_app, lambda a: a.initial_inputs(), 80),
    }
    results = {}
    for app_name, (build, seed_fn, max_runs) in apps.items():
        per = {}
        for scheduler in scheduler_names():
            walls = []
            coverage = None
            runs = 0
            for _ in range(repeats):
                app = build()
                config = _config(max_runs=max_runs, scheduler=scheduler)
                start = time.perf_counter()
                with use_cache(QueryCache()):
                    res = DirectedSearch.for_mode(
                        app.program, app.entry, app.fresh_natives(),
                        ConcretizationMode.HIGHER_ORDER, config,
                    ).run(dict(seed_fn(app)))
                walls.append(time.perf_counter() - start)
                coverage, runs = res.coverage, res.runs
            per[scheduler] = {
                "covered": len(coverage.covered),
                "total_outcomes": coverage.total_outcomes,
                "total_runs": runs,
                "history": list(coverage.history),
                "wall_seconds": round(statistics.median(walls), 6),
            }
        plateau = max(row["covered"] for row in per.values())
        for row in per.values():
            row["runs_to_plateau"] = next(
                (r for r, n in row["history"] if n >= plateau), None
            )
            del row["history"]
        results[app_name] = {
            "plateau": plateau,
            "max_runs": max_runs,
            "schedulers": per,
        }

    coverage_wins = [
        name
        for name, data in results.items()
        if data["schedulers"]["coverage"]["runs_to_plateau"] is not None
        and data["schedulers"]["dfs"]["runs_to_plateau"] is not None
        and data["schedulers"]["coverage"]["runs_to_plateau"]
        < data["schedulers"]["dfs"]["runs_to_plateau"]
    ]
    assert coverage_wins, (
        "the coverage scheduler reached no app's plateau in fewer runs "
        f"than dfs: {results}"
    )
    payload = {
        "generator": "benchmarks/run_experiments.py --pr5",
        "repeats": repeats,
        "plateau_definition": (
            "max branch-outcome count any scheduler reaches within the "
            "app's run budget (100% of static outcomes is unreachable: "
            "some branch sides are infeasible)"
        ),
        "coverage_beats_dfs_on": coverage_wins,
        "apps": results,
        "cpu_count": os.cpu_count(),
    }
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")
    print("## PR 5 frontier-scheduler benchmark")
    print()
    print("| app | scheduler | covered | runs to plateau | wall (s) |")
    print("|---|---|---|---|---|")
    for app_name, data in results.items():
        for scheduler, row in data["schedulers"].items():
            hit = row["runs_to_plateau"]
            print(
                f"| {app_name} | {scheduler} | "
                f"{row['covered']}/{row['total_outcomes']} | "
                f"{hit if hit is not None else '—'} | "
                f"{row['wall_seconds']:.3f} |"
            )
    print()
    print(f"coverage beats dfs to the plateau on: {', '.join(coverage_wins)}")
    print(f"BENCH JSON written to {path}")


def exec_backend_bench(path, repeats=3):
    """PR 7 execution-core benchmark: tree walker vs bytecode VM.

    Measures two things and writes ``BENCH_pr7.json``:

    - **concrete throughput** — a branch-dense mixed workload (the same
      shape ``benchmarks/exec_backend_gate.py`` gates on) interpreted
      under each backend; this isolates raw dispatch cost from solver
      time.
    - **compile cache** — compiling every paper-example program cold
      (empty cache) vs warm (second compile of identical source); warm
      compiles are near-free, so per-run compile cost amortizes to zero
      across a campaign.

    Timings are medians over ``repeats`` interleaved rounds; arms
    alternate within each round so frequency drift cannot favour one.
    """
    import statistics

    from repro.lang import (
        Interpreter,
        clear_compile_cache,
        compile_program,
        parse_program,
    )

    mixed = parse_program(
        """
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
    )
    sources = [ex.program() for ex in PAPER_EXAMPLES.values()]

    rounds = {
        "exec_tree": [], "exec_bytecode": [],
        "compile_cold": [], "compile_warm": [],
    }
    exec_outcomes = set()
    for round_index in range(repeats):
        backends = (
            ("tree", "bytecode") if round_index % 2 == 0
            else ("bytecode", "tree")
        )
        for backend in backends:
            interp = Interpreter(
                mixed, step_budget=100_000_000, backend=backend
            )
            interp.run("main", {"n": 200})  # warm the compile cache
            start = time.perf_counter()
            res = interp.run("main", {"n": 20000})
            rounds[f"exec_{backend}"].append(time.perf_counter() - start)
            exec_outcomes.add((res.returned, res.steps))
        clear_compile_cache()
        start = time.perf_counter()
        for program in sources:
            program._bytecode = None  # drop the per-Program memo too
            compile_program(program)
        rounds["compile_cold"].append(time.perf_counter() - start)
        start = time.perf_counter()
        for program in sources:
            program._bytecode = None  # warm = global digest-cache hit
            compile_program(program)
        rounds["compile_warm"].append(time.perf_counter() - start)

    assert len(exec_outcomes) == 1, (
        f"mixed-workload outcomes diverged across backends: {exec_outcomes}"
    )
    payload = {
        "generator": "benchmarks/run_experiments.py --pr7",
        "repeats": repeats,
        "cpu_count": os.cpu_count(),
    }
    for label, samples in rounds.items():
        payload[f"{label}_seconds"] = round(statistics.median(samples), 6)
    payload["exec_speedup"] = round(
        payload["exec_tree_seconds"]
        / max(payload["exec_bytecode_seconds"], 1e-9),
        3,
    )
    payload["compile_warm_vs_cold_speedup"] = round(
        payload["compile_cold_seconds"]
        / max(payload["compile_warm_seconds"], 1e-9),
        3,
    )
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")
    print("## PR 7 execution-core benchmark")
    print()
    print("| measurement | tree (s) | bytecode (s) | speedup |")
    print("|---|---|---|---|")
    print(
        f"| mixed concrete workload | {payload['exec_tree_seconds']:.3f} | "
        f"{payload['exec_bytecode_seconds']:.3f} | "
        f"{payload['exec_speedup']}x |"
    )
    print()
    print(
        f"compile cache: cold {payload['compile_cold_seconds']:.4f}s, warm "
        f"{payload['compile_warm_seconds']:.4f}s "
        f"({payload['compile_warm_vs_cold_speedup']}x)"
    )
    print(f"BENCH JSON written to {path}")


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
    parser.add_argument(
        "--pr4",
        default=None,
        metavar="FILE",
        help=(
            "run the batch-engine benchmark (serial vs pooled, cold vs "
            "warm disk cache) and write its BENCH JSON to FILE"
        ),
    )
    parser.add_argument(
        "--workers",
        type=int,
        default=2,
        help="process-pool size for the --pr4 pooled configuration",
    )
    parser.add_argument(
        "--pr5",
        default=None,
        metavar="FILE",
        help=(
            "run the frontier-scheduler benchmark (runs-to-coverage-"
            "plateau per policy on the benchmark apps) and write its "
            "BENCH JSON to FILE"
        ),
    )
    parser.add_argument(
        "--pr7",
        default=None,
        metavar="FILE",
        help=(
            "run the execution-core benchmark (tree walker vs bytecode "
            "VM, cold vs warm compile cache) and write its BENCH JSON "
            "to FILE"
        ),
    )
    args = parser.parse_args(argv)
    if args.pr4 is not None:
        campaign_bench(args.pr4, workers=args.workers)
        return
    if args.pr5 is not None:
        scheduler_bench(args.pr5)
        return
    if args.pr7 is not None:
        exec_backend_bench(args.pr7)
        return
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
