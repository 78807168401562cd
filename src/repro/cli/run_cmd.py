"""``repro run`` — one directed search: the suite, its digest, and
(with ``--profile`` or an export flag) where the time went."""

from __future__ import annotations

import os
from contextlib import nullcontext

from .. import api
from ..faults import use_fault_plan
from ..interrupt import trap_signals
from ..search import DirectedSearch, SearchConfig
from ..search.corpus import TestCorpus
from ..search.scheduler import scheduler_names
from ..symbolic import ConcretizationMode
from . import common

__all__ = ["register", "cmd_run"]


def cmd_run(args) -> int:
    from ..solver.cache import QueryCache, use_cache

    program = common.load_program(args.program)
    entry = common.default_entry(program, args.entry)
    seed = common.seed_for(program, entry, common.parse_seed(args.seed))
    checkpoint_dir = args.checkpoint
    if args.resume and not checkpoint_dir:
        # resuming continues checkpointing into the same directory
        checkpoint_dir = args.resume
    cache = None
    if args.store_dir:
        from ..solver.diskcache import DiskCache

        # the store's solver/ namespace is the persistent query cache
        cache = QueryCache(disk=DiskCache(args.store_dir))
    content_store, src_sha, seed_corpus = common.open_store(
        args, args.program, entry
    )
    store = [None]

    def _capture_store(search: DirectedSearch) -> None:
        store[0] = search.store

    # SIGINT/SIGTERM become a cooperative SearchInterrupted at the next
    # run boundary — the checkpoint flushes and the exit-3 handler prints
    # the resume hint (a second signal aborts hard)
    with trap_signals(), common.CliObservability(args) as cli_obs, \
            use_fault_plan(common.fault_plan(args)):
        with use_cache(cache) if cache is not None else nullcontext():
            result = api.generate_tests(
                program,
                entry=entry,
                strategy=args.mode,
                natives=common.natives(),
                seed=seed,
                obs=cli_obs.obs,
                config=SearchConfig.from_options(
                    max_runs=args.max_runs,
                    scheduler=args.scheduler,
                    checkpoint_dir=checkpoint_dir,
                    checkpoint_every=args.checkpoint_every,
                    resume_from=args.resume,
                    job_deadline=args.job_deadline,
                    seed_corpus=seed_corpus,
                ),
                _search_hook=_capture_store,
            )
    if content_store is not None:
        from ..engine.runner import search_outputs
        from ..store import record_search_outputs

        record_search_outputs(
            content_store, src_sha, entry, *search_outputs(result)
        )
        if args.store_max_bytes is not None:
            content_store.gc(args.store_max_bytes)
    print(f"[{args.mode}] {result.summary()}")
    for error in result.errors:
        print(f"  {error}")
    common.print_resilience(result)
    if args.profile:
        print(
            f"  wall time: {result.time_total:.3f}s "
            f"(executing {result.time_executing:.3f}s, "
            f"generating {result.time_generating:.3f}s)"
        )
    if cache is not None:
        common.print_cache(cache)
    print(f"  suite digest: {api.suite_digest(result)}")
    if args.trace:
        print(
            f"  trace: {cli_obs.journal.events_written} events written "
            f"to {args.trace}"
        )
    if args.corpus:
        corpus = TestCorpus()
        corpus.add_from_search(result)
        corpus.save(args.corpus)
        print(f"  corpus: {len(corpus)} tests saved to {args.corpus}")
    if args.report:
        from ..search.report import render_report

        text = render_report(
            result, program, entry, mode=args.mode, store=store[0],
            title=f"Testing session: {os.path.basename(args.program)}",
        )
        with open(args.report, "w", encoding="utf-8") as handle:
            handle.write(text)
        print(f"  report written to {args.report}")
    if args.profile:
        print()
        print("== span profile ==")
        print(cli_obs.obs.tracer.render_table())
        print()
        print("== metrics ==")
        print(cli_obs.registry.render_table())
    if cli_obs.registry is not None:
        common.write_exports(
            args, cli_obs.registry.snapshot(), cli_obs.trace_events
        )
    return 1 if (args.expect_error and not result.found_error) else 0


def register(sub) -> None:
    run = sub.add_parser(
        "run",
        help="one directed search: its suite, digest and (--profile) profile",
    )
    run.add_argument("program", help="MiniC source file")
    run.add_argument("--entry", default=None, help="entry function (default: main)")
    run.add_argument("--seed", default="", help="seed inputs, e.g. x=1,y=2")
    run.add_argument(
        "--mode",
        default="higher_order",
        choices=[m.value for m in ConcretizationMode],
    )
    run.add_argument("--max-runs", type=int, default=100)
    common.add_supervision_flags(run, deadline_default=0.0, retry_flags=False)
    run.add_argument(
        "--scheduler",
        default="dfs",
        choices=list(scheduler_names()),
        help=(
            "frontier scheduler: dfs (paper order), generational "
            "(SAGE-style), coverage (flip-target guided); see docs/SEARCH.md"
        ),
    )
    run.add_argument("--corpus", default=None, help="save generated tests to JSON")
    run.add_argument("--report", default=None, help="write a markdown session report")
    run.add_argument(
        "--expect-error",
        action="store_true",
        help="exit non-zero when no error is found (for CI scripts)",
    )
    run.add_argument(
        "--trace",
        default=None,
        metavar="FILE",
        help="stream a JSONL journal of session events to FILE",
    )
    run.add_argument(
        "--profile",
        action="store_true",
        help=(
            "print the wall-time split, span profile and metrics tables "
            "after the search"
        ),
    )
    common.add_export_flags(run)
    common.add_fault_plan_flag(run)
    common.add_store_flags(run)
    run.add_argument(
        "--checkpoint",
        default=None,
        metavar="DIR",
        help="persist search progress into DIR for crash/interrupt recovery",
    )
    run.add_argument(
        "--checkpoint-every",
        type=int,
        default=20,
        metavar="N",
        help="flush advisory checkpoint snapshots every N runs (default 20)",
    )
    run.add_argument(
        "--resume",
        default=None,
        metavar="DIR",
        help=(
            "resume an interrupted search from checkpoint DIR (replays its "
            "decision log; produces the same suite as an uninterrupted run)"
        ),
    )
    run.set_defaults(fn=cmd_run)
