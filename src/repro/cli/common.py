"""Option helpers shared by every CLI subcommand.

Nothing here parses arguments — these are the bits that turn parsed
``argparse`` namespaces into library objects (programs, seeds, fault
plans, stores, observability bundles) plus the shared report-printing
and artifact-export helpers.  Each ``*_cmd`` module imports what it
needs; the CLI stays a thin wrapper over :mod:`repro.api`.
"""

from __future__ import annotations

import contextlib
import json
import os
import tempfile
from typing import Dict, List, Optional

from ..apps.hashes import standard_registry
from ..errors import ReproError
from ..faults import FaultPlan, NULL_PLAN
from ..lang import NativeRegistry, parse_program
from ..obs import (
    MetricsRegistry,
    Observability,
    RunJournal,
    Tracer,
    set_default_registry,
)
from ..obs.export import (
    journal_to_chrome_trace,
    load_journal,
    render_prometheus,
    snapshot_to_json,
)

__all__ = [
    "parse_seed",
    "parse_range",
    "load_program",
    "natives",
    "default_entry",
    "seed_for",
    "CliObservability",
    "fault_plan",
    "print_cache",
    "print_resilience",
    "add_export_flags",
    "add_fault_plan_flag",
    "add_store_flags",
    "add_supervision_flags",
    "add_telemetry_flag",
    "open_store",
    "write_exports",
]


# -- shared flag groups ------------------------------------------------------
#
# Every command that executes searches shares the same knobs for caching,
# fault injection, supervision, and telemetry.  Defining them once keeps
# the flag names, types, and help text in lockstep across ``repro run``,
# ``repro campaign``, and ``repro serve``/``submit`` — a flag learned on
# one subcommand means the same thing on the others.


def add_store_flags(parser) -> None:
    """The shared content-addressed store group (see docs/STORAGE.md).

    ``--store-dir`` hosts the persistent solver cache and persists
    corpora and crash buckets; ``--store-max-bytes`` gc's it back under
    budget after the run; ``--seed-from-store`` seeds new searches from
    prior corpora.
    """
    group = parser.add_argument_group("content store")
    group.add_argument(
        "--store-dir",
        default=None,
        metavar="DIR",
        help=(
            "shared content-addressed store: the persistent solver query "
            "cache (shared by all workers and future runs), plus generated "
            "corpora and crash buckets"
        ),
    )
    group.add_argument(
        "--store-max-bytes",
        type=int,
        default=None,
        metavar="BYTES",
        help=(
            "evict least-recently-used store entries down to this budget "
            "after the run (answer-neutral: evicted entries recompute to "
            "byte-identical content)"
        ),
    )
    group.add_argument(
        "--seed-from-store",
        action="store_true",
        help=(
            "seed each search from the store's prior corpora for the same "
            "program source and entry point (deterministic given the store "
            "state; off by default, which reproduces classic digests)"
        ),
    )


def add_export_flags(parser) -> None:
    """``--trace-out``/``--metrics-out``/``--prom-out``, written by
    :func:`write_exports` (``repro run``, ``repro stats``)."""
    parser.add_argument(
        "--trace-out",
        default=None,
        metavar="FILE",
        help="export the journal as Chrome trace-event JSON (chrome://tracing)",
    )
    parser.add_argument(
        "--metrics-out",
        default=None,
        metavar="FILE",
        help="export the metrics snapshot as JSON",
    )
    parser.add_argument(
        "--prom-out",
        default=None,
        metavar="FILE",
        help="export the metrics snapshot in Prometheus text format",
    )


def write_exports(
    args, snapshot: Dict[str, object], events: Optional[List[dict]]
) -> None:
    """Write the artifacts the export flags ask for: the metrics
    ``snapshot`` as JSON and/or Prometheus text, and the journal
    ``events`` as a Chrome trace."""
    if args.metrics_out:
        with open(args.metrics_out, "w", encoding="utf-8") as handle:
            handle.write(snapshot_to_json(snapshot))
        print(f"  metrics json -> {args.metrics_out}")
    if args.prom_out:
        with open(args.prom_out, "w", encoding="utf-8") as handle:
            handle.write(render_prometheus(snapshot))
        print(f"  prometheus metrics -> {args.prom_out}")
    if args.trace_out:
        events = events or []
        with open(args.trace_out, "w", encoding="utf-8") as handle:
            json.dump(journal_to_chrome_trace(events), handle)
            handle.write("\n")
        print(f"  chrome trace: {len(events)} events -> {args.trace_out}")


def add_fault_plan_flag(parser, extra: str = "") -> None:
    from ..faults import SITES

    text = (
        "deterministic fault injection, e.g. "
        "'solver:rate=0.2,seed=7;interp:at=3;kill:at=25' "
        f"(sites: {', '.join(SITES)})"
    )
    parser.add_argument(
        "--fault-plan",
        default=None,
        metavar="SPEC",
        help=text + (f"; {extra}" if extra else ""),
    )


def add_supervision_flags(
    parser,
    deadline_default: Optional[float] = None,
    retry_flags: bool = True,
    deadline: bool = True,
) -> None:
    """The supervision policy group: the per-job deadline, and (for
    commands that run a fleet) the retry/watchdog knobs.

    The deadline belongs to the work, so it is spelled where the work is
    defined: ``run``, ``campaign`` and ``submit`` take it, ``serve``
    does not (``deadline=False``).  Fleet-running commands
    (``campaign``, ``serve``) add ``--max-attempts``/``--stall-timeout``;
    ``run`` and ``submit`` pass ``retry_flags=False``.
    """
    group = parser.add_argument_group("supervision")
    if deadline:
        group.add_argument(
            "--job-deadline",
            type=float,
            default=deadline_default,
            metavar="SECONDS",
            help=(
                "per-job wall-clock deadline, enforced cooperatively "
                "inside the search and defensively by the parent; a "
                "blown deadline salvages the partial suite"
                + (" and retries the job" if retry_flags else "; exits 3")
            ),
        )
    if not retry_flags:
        return
    group.add_argument(
        "--max-attempts",
        type=int,
        default=None,
        metavar="N",
        help=(
            "attempts per job before quarantine (default 2; retries are "
            "deterministic and answer-preserving)"
        ),
    )
    group.add_argument(
        "--stall-timeout",
        type=float,
        default=None,
        metavar="SECONDS",
        help=(
            "heartbeat watchdog: declare a worker stalled after this "
            "much telemetry silence and reschedule its job (allow for "
            "shard buffering when choosing it)"
        ),
    )


def add_telemetry_flag(parser) -> None:
    parser.add_argument(
        "--telemetry",
        default=None,
        metavar="DIR",
        help=(
            "ship per-job journal shards into DIR and merge them into "
            "DIR/campaign.jsonl (answer-preserving; tail with "
            "'repro stats DIR --follow')"
        ),
    )


def open_store(args, program_path: str, entry: str):
    """Resolve the ``--store-dir`` flags for a single-program command.

    Returns ``(store, source_sha, seed_corpus)``: the opened
    :class:`~repro.store.ContentStore` (or None without ``--store-dir``),
    the program's source digest, and the stored seed vectors for this
    program+entry when ``--seed-from-store`` was given (else ``()``).
    """
    if not args.store_dir:
        return None, "", ()
    from ..store import ContentStore, source_sha, stored_seed_vectors

    with open(program_path, "r", encoding="utf-8") as handle:
        src_sha = source_sha(handle.read())
    store = ContentStore(args.store_dir)
    seeds = ()
    if args.seed_from_store:
        seeds = tuple(stored_seed_vectors(store, src_sha, entry))
    return store, src_sha, seeds


def parse_seed(text: str) -> Dict[str, int]:
    """Parse ``x=1,y=-2`` into an input dict."""
    out: Dict[str, int] = {}
    if not text:
        return out
    for piece in text.split(","):
        if "=" not in piece:
            raise ReproError(f"bad seed assignment {piece!r} (want name=int)")
        name, _, value = piece.partition("=")
        try:
            out[name.strip()] = int(value.strip())
        except ValueError:
            raise ReproError(
                f"bad seed value {piece!r} (want name=int)"
            ) from None
    return out


def parse_range(text: str):
    """Parse ``lo:hi`` into an int pair."""
    lo, _, hi = text.partition(":")
    try:
        return int(lo), int(hi)
    except ValueError:
        raise ReproError(f"bad range {text!r} (want lo:hi)") from None


def load_program(path: str):
    with open(path, "r", encoding="utf-8") as handle:
        source = handle.read()
    return parse_program(source)


def natives() -> NativeRegistry:
    return standard_registry(width=4)


def default_entry(program, requested: Optional[str]) -> str:
    if requested:
        if requested not in program.functions:
            raise ReproError(
                f"no entry function {requested!r} "
                f"(have: {', '.join(program.functions)})"
            )
        return requested
    if "main" in program.functions:
        return "main"
    return next(iter(program.functions))


def seed_for(program, entry: str, seed: Dict[str, int]) -> Dict[str, int]:
    params = program.function(entry).params
    return {p: seed.get(p, 0) for p in params}


class CliObservability:
    """The journal/registry/obs bundle requested by the CLI flags.

    ``--profile``, ``--trace`` and any export flag turn collection on.
    When it is on, a fresh :class:`MetricsRegistry` is installed as the
    process default (so the solver layers record into it) for the
    lifetime of the ``with`` block; the previous default is restored and
    the journal closed on exit.  ``--trace-out`` renders from the
    journal, so without ``--trace`` it journals to a scratch file that
    is read back into :attr:`trace_events` on exit and then deleted.
    """

    def __init__(self, args) -> None:
        self._trace_out = args.trace_out
        self._scratch: Optional[str] = None
        target = args.trace
        if args.trace_out and not target:
            fd, self._scratch = tempfile.mkstemp(
                prefix="repro-trace-", suffix=".jsonl"
            )
            os.close(fd)
            target = self._scratch
        self._trace_path = target
        self.journal = RunJournal(target) if target else None
        #: the journal read back on exit when ``--trace-out`` asks for it
        self.trace_events: Optional[List[dict]] = None
        self.registry: Optional[MetricsRegistry] = None
        self.obs: Optional[Observability] = None
        self._old_registry: Optional[MetricsRegistry] = None
        collect = (
            args.profile
            or args.metrics_out
            or args.prom_out
            or self.journal is not None
        )
        if collect:
            self.registry = MetricsRegistry()
            self.obs = Observability(
                tracer=Tracer(journal=self.journal),
                metrics=self.registry,
                journal=self.journal,
            )

    def __enter__(self) -> "CliObservability":
        if self.registry is not None:
            self._old_registry = set_default_registry(self.registry)
        return self

    def __exit__(self, exc_type, *exc_info: object) -> None:
        if self.registry is not None:
            set_default_registry(self._old_registry)
        if self.journal is not None:
            self.journal.close()
            if self._trace_out and exc_type is None:
                self.trace_events = load_journal(self._trace_path)
        if self._scratch is not None:
            with contextlib.suppress(OSError):
                os.unlink(self._scratch)


def fault_plan(args):
    spec = args.fault_plan
    return FaultPlan.parse(spec) if spec else NULL_PLAN


def print_cache(cache) -> None:
    if cache is None:
        return
    line = (
        f"  cache: {cache.hits} hits / {cache.misses} misses "
        f"(rate {cache.hit_rate:.1%})"
    )
    disk = cache.disk
    if disk is not None:
        line += (
            f"; disk: {disk.hits} hits / {disk.misses} misses / "
            f"{disk.stores} stores"
        )
    print(line)


def print_resilience(result) -> None:
    """Resilience summary lines: crash buckets, ladder downgrades."""
    for crash in result.crashes:
        print(f"  {crash}")
    rungs = dict(result.downgrades)
    if rungs or result.deferred_flips or result.abandoned_flips:
        parts = [f"{rung}={n}" for rung, n in sorted(rungs.items())]
        parts.append(f"deferred={result.deferred_flips}")
        parts.append(f"abandoned={result.abandoned_flips}")
        print(f"  ladder: {' '.join(parts)}")
    if result.replayed_decisions:
        print(f"  resumed: {result.replayed_decisions} decisions replayed")
