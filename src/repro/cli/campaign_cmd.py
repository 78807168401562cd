"""``repro campaign`` — batch engine across worker processes."""

from __future__ import annotations

from .. import api
from ..interrupt import trap_signals
from ..search.scheduler import scheduler_names
from . import common

__all__ = ["register", "cmd_campaign"]


def cmd_campaign(args) -> int:
    """Batch engine: run a campaign of search jobs across worker processes."""
    import json as jsonlib

    def _progress(job) -> None:
        if not args.quiet:
            print(f"  [{job.key}] {job.summary()}")

    telemetry = args.telemetry
    if telemetry is None and args.follow_telemetry:
        telemetry = args.checkpoint
    # SIGINT/SIGTERM request a graceful shutdown: the supervisor drains
    # in-flight jobs, the checkpoint keeps what finished, and the exit-3
    # handler prints the resume hint (a second signal aborts hard)
    with trap_signals():
        client = api.Client(
            workers=args.workers,
            telemetry=telemetry,
            fault_plan=args.fault_plan or "",
            job_deadline=args.job_deadline,
            max_attempts=args.max_attempts,
            stall_timeout=args.stall_timeout,
            store_dir=args.store_dir,
            store_max_bytes=args.store_max_bytes,
            seed_from_store=args.seed_from_store,
        )
        handle = client.submit(
            args.spec,
            checkpoint=args.checkpoint,
            scheduler=args.scheduler,
            progress=_progress,
        )
        report = handle.wait()
    print(f"[campaign] {report.summary()}")
    print(f"  wall time: {report.seconds:.3f}s (workers={args.workers})")
    cache = report.cache_totals()
    if cache:
        print(
            f"  cache: {cache.get('hits', 0)} hits / "
            f"{cache.get('misses', 0)} misses; "
            f"disk: {cache.get('disk_hits', 0)} hits / "
            f"{cache.get('disk_misses', 0)} misses / "
            f"{cache.get('disk_stores', 0)} stores / "
            f"{cache.get('disk_skipped', 0)} corrupt-skips"
        )
        disk = report.disk_cache_stats()
        if disk.get("hit_rate") is not None:
            print(f"  disk-cache hit rate: {disk['hit_rate']:.1%}")
    if args.store_dir:
        from ..store import ContentStore

        stats = ContentStore(args.store_dir).stats()
        spaces = ", ".join(
            f"{ns}: {info['entries']} entries/{info['bytes']}B"
            for ns, info in sorted(stats["namespaces"].items())
            if info["entries"]
        )
        print(f"  store: {stats['total_bytes']}B ({spaces or 'empty'})")
    if report.telemetry_dir:
        print(
            f"  telemetry: {report.journal_events} events merged into "
            f"{report.telemetry_dir}/campaign.jsonl "
            f"(tail live with: repro stats {report.telemetry_dir} --follow)"
        )
    if report.crash_buckets:
        for bucket, count in sorted(report.crash_buckets.items()):
            print(f"  crash bucket [{bucket}] x{count}")
    if report.retried_jobs or report.pool_rebuilds or report.stalled_jobs:
        print(
            f"  supervisor: {report.retried_jobs} retries, "
            f"{report.stalled_jobs} stalls, "
            f"{report.pool_rebuilds} pool rebuilds"
        )
    for job in report.failed_jobs:
        label = "QUARANTINED" if job.quarantined else "FAILED"
        print(f"  {label} [{job.key}]: {job.error}")
    print(f"  campaign digest: {report.campaign_digest}")
    if args.corpus:
        merged = report.merged_corpus()
        with open(args.corpus, "w", encoding="utf-8") as handle:
            jsonlib.dump(merged, handle, indent=2)
        print(f"  corpus: {len(merged)} tests saved to {args.corpus}")
    if args.json:
        with open(args.json, "w", encoding="utf-8") as handle:
            jsonlib.dump(report.to_payload(), handle, indent=2, sort_keys=True)
            handle.write("\n")
        print(f"  campaign payload written to {args.json}")
    return 1 if (args.expect_errors and report.total_errors == 0) else 0


def register(sub) -> None:
    campaign = sub.add_parser(
        "campaign",
        help=(
            "run a batch campaign of search jobs (programs x strategies "
            "x schedulers) across worker processes"
        ),
    )
    campaign.add_argument(
        "spec",
        help=(
            "campaign spec file (.toml or .json; see docs/API.md), or "
            "'paper' for the built-in paper-example suite"
        ),
    )
    campaign.add_argument(
        "--workers",
        type=int,
        default=1,
        help=(
            "worker processes running jobs (campaign digest is identical "
            "at any value; default 1 = in-process)"
        ),
    )
    campaign.add_argument(
        "--scheduler",
        default=None,
        choices=list(scheduler_names()),
        help=(
            "override the spec's scheduler list with one frontier "
            "scheduler for every job"
        ),
    )
    common.add_store_flags(campaign)
    campaign.add_argument(
        "--checkpoint",
        default=None,
        metavar="DIR",
        help=(
            "journal finished jobs into DIR; a rerun pointed at the same "
            "directory skips them"
        ),
    )
    common.add_telemetry_flag(campaign)
    campaign.add_argument(
        "--follow-telemetry",
        action="store_true",
        help=(
            "shorthand: ship telemetry into the --checkpoint directory so "
            "'repro stats <checkpoint-dir> --follow' can watch this "
            "campaign live"
        ),
    )
    common.add_supervision_flags(campaign)
    common.add_fault_plan_flag(
        campaign,
        extra=(
            "'worker-proc' kills a job's worker process, 'hang' wedges a "
            "job until reclaimed, 'pool' breaks the worker pool"
        ),
    )
    campaign.add_argument(
        "--corpus",
        default=None,
        metavar="FILE",
        help="save the merged campaign corpus (tests tagged by job) to FILE",
    )
    campaign.add_argument(
        "--json",
        default=None,
        metavar="FILE",
        help="write the full campaign report as JSON",
    )
    campaign.add_argument(
        "--quiet",
        action="store_true",
        help="suppress per-job progress lines",
    )
    campaign.add_argument(
        "--expect-errors",
        action="store_true",
        help="exit non-zero when the campaign finds no errors (for CI)",
    )
    campaign.set_defaults(fn=cmd_campaign)
