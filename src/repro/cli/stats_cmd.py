"""``repro stats`` — observability reports for campaigns and services.

The positional argument is a directory:

- a **campaign directory** (checkpoint and/or telemetry dir) renders a
  per-job rollup table from the checkpointed results plus any journal
  shards.  ``--follow`` keeps tailing the shards and redrawing — a live
  view over a *running* campaign;
- a **service state dir** renders the scheduler queue per tenant plus
  each running campaign's rollup.

One search's profile is ``repro run PROGRAM --profile``.  The rollup can
export artifacts: ``--metrics-out`` (JSON snapshot), ``--prom-out``
(Prometheus text exposition), ``--trace-out`` (Chrome trace-event JSON
loadable in chrome://tracing / Perfetto).
"""

from __future__ import annotations

import os
import sys
from typing import Callable, List, Optional, Tuple

from ..errors import ReproError
from ..obs.export import load_journal
from ..obs.shipper import CAMPAIGN_JOURNAL, CampaignStats, ShardReader, merge_shards
from . import common

__all__ = [
    "register",
    "cmd_stats",
    "render_campaign_view",
    "render_service_view",
]


def _percent(value: Optional[float]) -> str:
    return f"{value:.0%}" if value is not None else "-"


def render_campaign_view(stats: CampaignStats, directory: str) -> str:
    """The campaign rollup as one printable block (table + totals)."""
    lines: List[str] = []
    lines.append(f"[campaign] {directory}")
    done = (
        stats.finished_jobs - stats.failed_jobs - stats.quarantined_jobs
    )
    jobs_line = (
        f"  jobs: {len(stats.jobs)} "
        f"(done {done}, "
        f"failed {stats.failed_jobs}, running {stats.running_jobs}"
    )
    if stats.quarantined_jobs:
        jobs_line += f", quarantined {stats.quarantined_jobs}"
    lines.append(jobs_line + f"); events: {stats.total_events}")
    header = (
        f"  {'job':<44} {'state':<9} {'sched':<12} {'runs':>5} "
        f"{'tests':>5} {'errs':>4} {'div':>4} {'cov':>5} "
        f"{'solve':>6} {'cache':>6} {'disk':>6} {'secs':>7}"
    )
    lines.append(header)
    lines.append("  " + "-" * (len(header) - 2))
    for job in stats.ordered_jobs():
        key = job.key if len(job.key) <= 44 else job.key[:41] + "..."
        state = {"done-checkpointed": "done", "quarantined": "quarant"}.get(
            job.state, job.state
        )
        if job.attempts > 1 and state == "running":
            state = f"retry-{job.attempts}"
        lines.append(
            f"  {key:<44} {state:<9} {job.scheduler:<12} {job.runs:>5} "
            f"{job.tests:>5} {job.errors:>4} {job.divergences:>4} "
            f"{_percent(job.coverage):>5} {_percent(job.solve_rate):>6} "
            f"{_percent(job.cache_hit_rate):>6} {_percent(job.disk_hit_rate):>6} "
            f"{job.seconds:>7.2f}"
        )
    cache = stats.cache_totals()
    if cache:
        lines.append(
            f"  cache totals: {cache.get('hits', 0)} hits / "
            f"{cache.get('misses', 0)} misses; disk: "
            f"{cache.get('disk_hits', 0)} hits / "
            f"{cache.get('disk_misses', 0)} misses / "
            f"{cache.get('disk_stores', 0)} stores / "
            f"{cache.get('disk_skipped', 0)} corrupt-skips"
        )
    downgrades = stats.downgrade_totals()
    if downgrades:
        parts = " ".join(f"{r}={n}" for r, n in sorted(downgrades.items()))
        lines.append(f"  ladder downgrades: {parts}")
    crashes = stats.crash_buckets()
    if crashes:
        parts = " ".join(f"[{b}]x{n}" for b, n in sorted(crashes.items()))
        lines.append(f"  crash buckets: {parts}")
    if stats.counters:
        sched = {
            k: v
            for k, v in stats.counters.items()
            if k.startswith("search.scheduler.")
        }
        if sched:
            parts = " ".join(
                f"{k.split('search.scheduler.', 1)[1]}={v}"
                for k, v in sorted(sched.items())
            )
            lines.append(f"  scheduler counters: {parts}")
        store_line = _render_store_counters(stats.counters)
        if store_line:
            lines.append(store_line)
    return "\n".join(lines)


def _render_store_counters(counters) -> str:
    """One ``store:`` line folding ``store.<ns>.<what>`` counters per
    namespace (with a hit rate when the namespace saw lookups)."""
    per_ns: dict = {}
    for name, value in counters.items():
        if not name.startswith("store.") or not value:
            continue
        parts = name.split(".")
        if len(parts) != 3:
            continue
        per_ns.setdefault(parts[1], {})[parts[2]] = int(value)
    if not per_ns:
        return ""
    chunks = []
    for ns in sorted(per_ns):
        what = per_ns[ns]
        piece = (
            f"{ns} {what.get('hits', 0)}h/{what.get('misses', 0)}m/"
            f"{what.get('stores', 0)}s/{what.get('evictions', 0)}e"
        )
        lookups = what.get("hits", 0) + what.get("misses", 0)
        if lookups:
            piece += f" ({what.get('hits', 0) / lookups:.0%} hit)"
        chunks.append(piece)
    return "  store: " + "; ".join(chunks)


def render_service_view(directory: str) -> str:
    """A service state dir: scheduler queue + per-job rollups.

    Everything is read from disk (submission records, checkpoints,
    shards), so the view is accurate whether the server is running,
    stopped, or was killed mid-lease: 'leased' counts jobs whose shards
    show activity without a ``job_finished`` seal.
    """
    from ..service.state import ServiceState

    state = ServiceState(directory)
    records = state.records()
    lines: List[str] = [f"[service] {state.state_dir}"]
    if not records:
        lines.append("  (no submissions)")
        return "\n".join(lines)

    # per-campaign stats, folded once and reused for the tenant rollup
    per_campaign = {}
    for record in records:
        if record.status in ("running", "done", "cancelled"):
            per_campaign[record.ticket] = _campaign_snapshot(
                state.campaign_dir(record.ticket)
            )

    tenants = sorted({r.tenant for r in records})
    header = (
        f"  {'tenant':<16} {'queued':>6} {'leased':>6} {'done':>6} "
        f"{'quarantined':>11} {'failed':>6}"
    )
    lines.append(header)
    lines.append("  " + "-" * (len(header) - 2))
    for tenant in tenants:
        queued = leased = done = quarantined = failed = 0
        for record in records:
            if record.tenant != tenant:
                continue
            stats = per_campaign.get(record.ticket)
            if record.status == "queued":
                queued += _queued_jobs(state, record)
            elif record.status == "failed":
                failed += 1
            elif stats is not None:
                finished = stats.finished_jobs
                quarantined += stats.quarantined_jobs
                done += finished - stats.quarantined_jobs
                leased += stats.running_jobs
                if record.status == "running":
                    queued += max(0, len(stats.jobs) - finished - stats.running_jobs)
        lines.append(
            f"  {tenant:<16} {queued:>6} {leased:>6} {done:>6} "
            f"{quarantined:>11} {failed:>6}"
        )

    lines.append("")
    for record in records:
        line = (
            f"  {record.ticket[:12]}  {record.status:<9} "
            f"tenant={record.tenant} priority={record.priority}"
        )
        if record.error:
            line += f"  ({record.error})"
        lines.append(line)
    for record in records:
        if record.status == "running":
            lines.append("")
            lines.append(
                render_campaign_view(
                    per_campaign[record.ticket],
                    f"{record.ticket[:12]} (tenant={record.tenant})",
                )
            )
    return "\n".join(lines)


def _queued_jobs(state, record) -> int:
    """Planned-but-unstarted job count for a queued submission.

    Best effort: a spec that fails to plan here will be marked failed by
    the server anyway, so fall back to 0 rather than crash the view.
    """
    try:
        from ..engine.planner import BatchPlanner, CampaignSpec

        spec = CampaignSpec.from_payload(record.spec).with_overrides(
            scheduler=record.options.get("scheduler"),
            job_deadline=record.options.get("job_deadline"),
        )
        return len(BatchPlanner().expand(spec))
    except Exception:  # noqa: BLE001 - display only
        return 0


def _follow(args, render: Callable[[], str]) -> None:
    """Redraw ``render()`` every ``--interval`` seconds until
    ``--iterations`` redraws (0 = until Ctrl-C)."""
    import time as time_mod

    ticks = 0
    try:
        while True:
            view = render()
            if not args.no_clear:
                sys.stdout.write("\x1b[2J\x1b[H")
            print(view)
            print(
                f"  (follow: tick {ticks + 1}, interval {args.interval}s; "
                f"Ctrl-C to stop)"
            )
            sys.stdout.flush()
            ticks += 1
            if args.iterations and ticks >= args.iterations:
                break
            time_mod.sleep(args.interval)
    except KeyboardInterrupt:
        pass


def _service_stats(args, directory: str) -> int:
    if args.follow:
        _follow(args, lambda: render_service_view(directory))
    else:
        print(render_service_view(directory))
    return 0


def _campaign_snapshot(
    directory: str, events: Optional[List[Tuple[str, dict]]] = None
) -> CampaignStats:
    """Fold checkpointed results and ``events`` (default: every
    currently-readable shard event)."""
    stats = CampaignStats()
    stats.fold_checkpoint(directory)
    if events is None:
        events = ShardReader(directory).poll()
    for job, event in events:
        stats.consume(job, event)
    return stats


def _campaign_journal_path(directory: str) -> str:
    """The merged campaign stream, merging shards on demand if stale."""
    path = os.path.join(directory, CAMPAIGN_JOURNAL)
    shards = os.path.join(directory, "shards")
    if os.path.isdir(shards):
        path, _ = merge_shards(directory)
    return path


def _export_campaign(args, directory: str, stats: CampaignStats) -> None:
    # campaign-level metrics are the counters aggregated across all
    # finished jobs (per-job registries live in the checkpoint)
    snapshot = {"counters": dict(stats.counters), "gauges": {}, "histograms": {}}
    events = None
    if args.trace_out:
        path = _campaign_journal_path(directory)
        events = load_journal(path) if os.path.exists(path) else []
    common.write_exports(args, snapshot, events)


def _campaign_stats(args) -> int:
    directory = args.directory
    reader = ShardReader(directory)
    history: List[Tuple[str, dict]] = []
    stats = CampaignStats()

    def render() -> str:
        nonlocal stats
        # refolded each tick: fold_result/counters are not idempotent
        # under re-folding, and a fresh fold keeps the view exact
        history.extend(reader.poll())
        stats = _campaign_snapshot(directory, history)
        return render_campaign_view(stats, directory)

    if args.follow:
        _follow(args, render)
    else:
        print(render())
    _export_campaign(args, directory, stats)
    return 0


def cmd_stats(args) -> int:
    """Campaign rollup, or service queue view, for a directory."""
    from ..service.state import is_service_dir

    if not os.path.isdir(args.directory):
        raise ReproError(
            f"{args.directory!r} is not a campaign or service directory; "
            f"profile one search with 'repro run {args.directory} --profile'"
        )
    if is_service_dir(args.directory):
        return _service_stats(args, args.directory)
    return _campaign_stats(args)


def register(sub) -> None:
    stats = sub.add_parser(
        "stats",
        help=(
            "observability report: campaign rollup (live with --follow) or "
            "service queue view of a directory"
        ),
    )
    stats.add_argument(
        "directory",
        help=(
            "a campaign checkpoint/telemetry directory, or a service state "
            "dir (scheduler-queue view)"
        ),
    )
    stats.add_argument(
        "--follow",
        action="store_true",
        help="keep tailing shards and redrawing",
    )
    stats.add_argument(
        "--interval",
        type=float,
        default=1.0,
        metavar="SECONDS",
        help="redraw interval for --follow (default 1s)",
    )
    stats.add_argument(
        "--iterations",
        type=int,
        default=0,
        metavar="N",
        help="stop --follow after N redraws (0 = until Ctrl-C)",
    )
    stats.add_argument(
        "--no-clear",
        action="store_true",
        help="don't clear the screen between --follow redraws",
    )
    common.add_export_flags(stats)
    stats.set_defaults(fn=cmd_stats)
