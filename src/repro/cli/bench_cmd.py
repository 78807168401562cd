"""``repro bench`` — timed search with perf counters and a suite digest."""

from __future__ import annotations

import os

from .. import api
from ..faults import use_fault_plan
from ..obs import MetricsRegistry, Observability, Tracer
from ..search import SearchConfig
from ..search.scheduler import scheduler_names
from ..symbolic import ConcretizationMode
from . import common

__all__ = ["register", "cmd_bench"]


def cmd_bench(args) -> int:
    """Timed search with perf counters and the deterministic suite digest."""
    import json as jsonlib

    from ..search.report import suite_digest
    from ..solver.cache import use_cache

    program = common.load_program(args.program)
    entry = common.default_entry(program, args.entry)
    seed = common.seed_for(program, entry, common.parse_seed(args.seed))
    cache = common.query_cache(args, enabled=not args.no_cache)
    registry = MetricsRegistry()
    obs = Observability(tracer=Tracer(), metrics=registry)
    with use_cache(cache), use_fault_plan(common.fault_plan(args)):
        result = api.generate_tests(
            program,
            entry=entry,
            strategy=args.mode,
            natives=common.natives(),
            seed=seed,
            obs=obs,
            config=SearchConfig.from_options(
                max_runs=args.max_runs, scheduler=args.scheduler
            ),
        )

    snapshot = registry.snapshot()
    counters = snapshot["counters"]
    histograms = snapshot["histograms"]
    disk = cache.disk if cache is not None else None
    payload = {
        "program": os.path.basename(args.program),
        "mode": args.mode,
        "cache": not args.no_cache,
        "cache_dir": getattr(args, "cache_dir", None),
        "disk_hits": disk.hits if disk is not None else 0,
        "disk_misses": disk.misses if disk is not None else 0,
        "disk_stores": disk.stores if disk is not None else 0,
        "runs": result.runs,
        "paths": result.distinct_paths,
        "errors": len(result.errors),
        "divergences": result.divergences,
        "coverage": round(result.coverage.ratio(), 4) if result.coverage else None,
        "solver_calls": result.solver_calls,
        "wall_seconds": round(result.time_total, 6),
        "generate_seconds": round(result.time_generating, 6),
        "execute_seconds": round(result.time_executing, 6),
        "smt_checks": counters.get("smt.checks", 0),
        "smt_check_seconds": round(
            histograms.get("smt.check_seconds", {}).get("total", 0.0), 6
        ),
        "cache_hits": cache.hits if cache is not None else 0,
        "cache_misses": cache.misses if cache is not None else 0,
        "cache_hit_rate": round(cache.hit_rate, 4) if cache is not None else 0.0,
        "session_pushes": counters.get("solver.session.push", 0),
        "session_pops": counters.get("solver.session.pop", 0),
        "suite_digest": suite_digest(result),
    }
    print(f"[{args.mode}] {result.summary()}")
    print(
        f"  wall={payload['wall_seconds']:.3f}s "
        f"solver={payload['smt_check_seconds']:.3f}s "
        f"({payload['smt_checks']} checks) "
        f"execute={payload['execute_seconds']:.3f}s"
    )
    print(
        f"  cache: {payload['cache_hits']} hits / "
        f"{payload['cache_misses']} misses "
        f"(rate {payload['cache_hit_rate']:.1%}); "
        f"session: {payload['session_pushes']} pushes / "
        f"{payload['session_pops']} pops"
    )
    if disk is not None:
        print(
            f"  disk cache: {disk.hits} hits / {disk.misses} misses / "
            f"{disk.stores} stores ({getattr(args, 'cache_dir', None)})"
        )
    print(f"  suite digest: {payload['suite_digest']}")
    if args.json:
        with open(args.json, "w", encoding="utf-8") as handle:
            jsonlib.dump(payload, handle, indent=2, sort_keys=True)
            handle.write("\n")
        print(f"  bench payload written to {args.json}")
    return 0


def register(sub) -> None:
    bench = sub.add_parser(
        "bench", help="timed search with perf counters and a suite digest"
    )
    bench.add_argument("program")
    bench.add_argument("--entry", default=None)
    bench.add_argument("--seed", default="")
    bench.add_argument(
        "--mode",
        default="higher_order",
        choices=[m.value for m in ConcretizationMode],
    )
    bench.add_argument("--max-runs", type=int, default=100)
    bench.add_argument(
        "--scheduler",
        default="dfs",
        choices=list(scheduler_names()),
        help="frontier scheduler (see 'run --scheduler')",
    )
    bench.add_argument(
        "--no-cache",
        action="store_true",
        help="disable the normalized query cache (cold-solver baseline)",
    )
    bench.add_argument(
        "--json", default=None, metavar="FILE", help="write the bench payload as JSON"
    )
    bench.add_argument(
        "--fault-plan",
        default=None,
        metavar="SPEC",
        help="deterministic fault injection (see 'run --fault-plan')",
    )
    bench.add_argument(
        "--cache-dir",
        default=None,
        metavar="DIR",
        help="persistent on-disk solver query cache shared across runs",
    )
    bench.set_defaults(fn=cmd_bench)
