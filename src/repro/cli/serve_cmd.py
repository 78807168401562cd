"""``repro serve`` and its client verbs: ``submit``, ``status``,
``results``, ``cancel``.

The service is filesystem-first: every verb here works against the same
``--state-dir``, and only ``serve`` needs to be *running* — ``submit``
drops a durable submission the server picks up on its next lease,
``status``/``results`` read what is on disk (even after the server has
exited), and ``cancel`` drops a cooperative cancellation marker.
"""

from __future__ import annotations

from typing import Dict

from ..errors import ReproError
from ..interrupt import trap_signals
from ..search.scheduler import scheduler_names
from . import common

__all__ = [
    "register",
    "cmd_serve",
    "cmd_submit",
    "cmd_status",
    "cmd_results",
    "cmd_cancel",
]


def _parse_quotas(specs) -> "tuple[int, Dict[str, int]]":
    """Parse repeated ``--tenant-quota`` values.

    ``N`` sets the default quota for every tenant; ``tenant=N`` overrides
    one tenant.  0 means unlimited.
    """
    default = 0
    quotas: Dict[str, int] = {}
    for spec in specs or ():
        name, sep, value = spec.partition("=")
        try:
            if sep:
                quotas[name.strip()] = int(value)
            else:
                default = int(name)
        except ValueError:
            raise ReproError(
                f"bad --tenant-quota {spec!r} (want N or tenant=N)"
            )
    return default, quotas


def cmd_serve(args) -> int:
    """Run the campaign service until idle (--idle-exit) or signalled."""
    from ..service import CampaignService

    default_quota, quotas = _parse_quotas(args.tenant_quota)

    def _progress(job) -> None:
        if not args.quiet:
            print(f"  [{job.key}] {job.summary()}")

    service = CampaignService(
        args.state_dir,
        workers=args.workers,
        fault_plan=args.fault_plan or "",
        max_attempts=args.max_attempts,
        stall_timeout=args.stall_timeout,
        default_quota=default_quota,
        quotas=quotas,
        poll_interval=args.poll_interval,
        idle_exit=args.idle_exit,
        progress=_progress,
        log=None if args.quiet else print,
        store_dir=args.store_dir,
        store_max_bytes=args.store_max_bytes,
        seed_from_store=args.seed_from_store,
    )
    print(
        f"[serve] state dir {service.state.state_dir} "
        f"(workers={args.workers}"
        + (f", quota={default_quota}" if default_quota else "")
        + (", idle-exit" if args.idle_exit else "")
        + ")"
    )
    # SIGINT/SIGTERM request a graceful shutdown: in-flight jobs drain,
    # unstarted leases go back to their campaigns, and the exit-3
    # handler prints the `repro serve` resume hint
    with trap_signals():
        settled = service.serve()
    print(f"[serve] idle: {settled} jobs settled; exiting")
    return 0


def cmd_submit(args) -> int:
    """Queue one campaign submission; prints its ticket and returns."""
    from ..service import ServiceClient

    client = ServiceClient(args.state_dir)
    handle = client.submit(
        args.spec,
        priority=args.priority,
        tenant=args.tenant,
        scheduler=args.scheduler,
        job_deadline=args.job_deadline,
    )
    record = handle.record()
    print(f"[submit] ticket {handle.ticket}")
    print(
        f"  tenant={record.tenant} priority={record.priority} "
        f"status={record.status}"
    )
    if args.wait:
        report = handle.wait(timeout=args.timeout or None)
        print(f"[campaign] {report.summary()}")
        print(f"  campaign digest: {report.campaign_digest}")
    return 0


def cmd_status(args) -> int:
    """One line per submission in the state dir (or one ticket's detail)."""
    from ..service import ServiceClient

    client = ServiceClient(args.state_dir)
    if args.ticket:
        handle = client.handle(args.ticket)
        record = handle.record()
        print(f"ticket:   {record.ticket}")
        print(f"status:   {record.status}")
        print(f"tenant:   {record.tenant}")
        print(f"priority: {record.priority}")
        if record.error:
            print(f"error:    {record.error}")
        return 0
    records = client.submissions()
    if not records:
        print(f"(no submissions in {client.state.state_dir})")
        return 0
    for record in records:
        line = (
            f"{record.ticket[:12]}  {record.status:<9} "
            f"tenant={record.tenant} priority={record.priority}"
        )
        if record.error:
            line += f"  ({record.error})"
        print(line)
    return 0


def cmd_results(args) -> int:
    """Fetch a finished campaign's report by ticket."""
    import json as jsonlib

    from ..service import ServiceClient

    client = ServiceClient(args.state_dir)
    handle = client.handle(args.ticket)
    report = handle.result()
    print(f"[campaign] {report.summary()}")
    print(f"  status: {handle.status()}")
    print(f"  campaign digest: {report.campaign_digest}")
    for job in report.failed_jobs:
        label = "QUARANTINED" if job.quarantined else "FAILED"
        print(f"  {label} [{job.key}]: {job.error}")
    if args.json:
        with open(args.json, "w", encoding="utf-8") as fh:
            jsonlib.dump(report.to_payload(), fh, indent=2, sort_keys=True)
            fh.write("\n")
        print(f"  campaign payload written to {args.json}")
    return 0


def cmd_cancel(args) -> int:
    """Request cooperative cancellation of a queued/running submission."""
    from ..service import ServiceClient

    client = ServiceClient(args.state_dir)
    handle = client.handle(args.ticket)
    if handle.cancel():
        print(f"[cancel] requested for {handle.ticket[:12]}")
    else:
        print(
            f"[cancel] {handle.ticket[:12]} already terminal "
            f"({handle.status()}); nothing to do"
        )
    return 0


def _add_state_dir(parser) -> None:
    parser.add_argument(
        "--state-dir",
        required=True,
        metavar="DIR",
        help="the service state directory (queue + campaigns)",
    )


def register(sub) -> None:
    serve = sub.add_parser(
        "serve",
        help=(
            "run the campaign service: lease jobs from every queued "
            "campaign onto one shared worker fleet"
        ),
    )
    _add_state_dir(serve)
    serve.add_argument(
        "--workers",
        type=int,
        default=1,
        help=(
            "worker processes in the shared fleet (campaign digests are "
            "identical at any value; default 1 = in-process)"
        ),
    )
    serve.add_argument(
        "--idle-exit",
        action="store_true",
        help="exit once every queued campaign has finished (default: keep serving)",
    )
    serve.add_argument(
        "--tenant-quota",
        action="append",
        default=None,
        metavar="[TENANT=]N",
        help=(
            "max jobs a tenant may have leased at once: N for every "
            "tenant, tenant=N for one (repeatable; 0 = unlimited)"
        ),
    )
    serve.add_argument(
        "--poll-interval",
        type=float,
        default=None,
        metavar="SECONDS",
        help="scheduler/watchdog wait quantum (default 0.2)",
    )
    serve.add_argument(
        "--quiet", action="store_true", help="suppress per-job progress lines"
    )
    common.add_store_flags(serve)
    common.add_supervision_flags(serve, deadline=False)
    common.add_fault_plan_flag(
        serve,
        extra=(
            "'service' interrupts the scheduler mid-lease (restart "
            "recovery drill)"
        ),
    )
    serve.set_defaults(fn=cmd_serve)

    submit = sub.add_parser(
        "submit",
        help="queue a campaign submission for a running (or future) server",
    )
    _add_state_dir(submit)
    submit.add_argument(
        "spec",
        help=(
            "campaign spec file (.toml or .json; see docs/API.md), or "
            "'paper' for the built-in paper-example suite"
        ),
    )
    submit.add_argument(
        "--priority",
        type=int,
        default=0,
        help=(
            "higher wins the next free fleet slot (preemption is "
            "job-granular: running jobs always finish)"
        ),
    )
    submit.add_argument(
        "--tenant",
        default="default",
        help="tenant to bill against (fair-share and quota unit)",
    )
    submit.add_argument(
        "--scheduler",
        default=None,
        choices=list(scheduler_names()),
        help="override the spec's scheduler list for every job",
    )
    submit.add_argument(
        "--wait",
        action="store_true",
        help="block until the campaign finishes and print its report",
    )
    submit.add_argument(
        "--timeout",
        type=float,
        default=0.0,
        metavar="SECONDS",
        help="give up on --wait after this long (0 = wait forever)",
    )
    common.add_supervision_flags(submit, retry_flags=False)
    submit.set_defaults(fn=cmd_submit)

    status = sub.add_parser(
        "status", help="list submissions in a service state dir"
    )
    _add_state_dir(status)
    status.add_argument(
        "ticket",
        nargs="?",
        default=None,
        help="show one submission in detail (ticket prefixes allowed)",
    )
    status.set_defaults(fn=cmd_status)

    results = sub.add_parser(
        "results", help="fetch a finished campaign's report by ticket"
    )
    _add_state_dir(results)
    results.add_argument(
        "ticket", help="the submission ticket (prefixes allowed)"
    )
    results.add_argument(
        "--json",
        default=None,
        metavar="FILE",
        help="write the full campaign report as JSON",
    )
    results.set_defaults(fn=cmd_results)

    cancel = sub.add_parser(
        "cancel", help="request cooperative cancellation of a submission"
    )
    _add_state_dir(cancel)
    cancel.add_argument(
        "ticket", help="the submission ticket (prefixes allowed)"
    )
    cancel.set_defaults(fn=cmd_cancel)
