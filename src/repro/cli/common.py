"""Option helpers shared by every CLI subcommand.

Nothing here parses arguments — these are the bits that turn parsed
``argparse`` namespaces into library objects (programs, seeds, fault
plans, caches, observability bundles) plus the shared report-printing
helpers.  Each ``*_cmd`` module imports what it needs; the CLI stays a
thin wrapper over :mod:`repro.api`.
"""

from __future__ import annotations

from typing import Dict, Optional

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

__all__ = [
    "parse_seed",
    "parse_range",
    "load_program",
    "natives",
    "default_entry",
    "seed_for",
    "CliObservability",
    "null_context",
    "print_profile_tables",
    "fault_plan",
    "query_cache",
    "print_cache",
    "print_resilience",
    "add_cache_dir_flag",
    "add_fault_plan_flag",
    "add_store_flags",
    "add_supervision_flags",
    "add_telemetry_flag",
    "open_store",
    "persist_to_store",
]


# -- shared flag groups ------------------------------------------------------
#
# Every command that executes searches shares the same knobs for caching,
# fault injection, supervision, and telemetry.  Defining them once keeps
# the flag names, types, and help text in lockstep across ``repro run``,
# ``repro campaign``, and ``repro serve``/``submit`` — a flag learned on
# one subcommand means the same thing on the others.


def add_cache_dir_flag(parser) -> None:
    parser.add_argument(
        "--cache-dir",
        default=None,
        metavar="DIR",
        help=(
            "persistent on-disk solver query cache shared by all workers "
            "and future runs"
        ),
    )


def add_store_flags(parser, seeding: bool = True) -> None:
    """The shared content-addressed store group (see docs/STORAGE.md).

    ``--store-dir`` persists corpora and crash buckets (and hosts the
    solver cache when ``--cache-dir`` is not given); ``--store-max-bytes``
    gc's it back under budget after the run; ``--seed-from-store`` seeds
    new searches from prior corpora (campaign-style commands only).
    """
    group = parser.add_argument_group("content store")
    group.add_argument(
        "--store-dir",
        default=None,
        metavar="DIR",
        help=(
            "shared content-addressed store: persists generated corpora "
            "and crash buckets, and doubles as the solver cache when "
            "--cache-dir is not given"
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
    if not seeding:
        return
    group.add_argument(
        "--seed-from-store",
        action="store_true",
        help=(
            "seed each search from the store's prior corpora for the same "
            "program source and entry point (deterministic given the store "
            "state; off by default, which reproduces classic digests)"
        ),
    )


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
            "DIR/campaign.jsonl (answer-preserving; tail with 'repro top')"
        ),
    )


def open_store(args, program_path: str, entry: str):
    """Resolve the ``--store-dir`` flags for a single-program command.

    Returns ``(store, source_sha, seed_corpus)``: the opened
    :class:`~repro.store.ContentStore` (or None without ``--store-dir``),
    the program's source digest, and the stored seed vectors for this
    program+entry when ``--seed-from-store`` was given (else ``()``).
    """
    store_dir = getattr(args, "store_dir", None)
    if not store_dir:
        return None, "", ()
    from ..store import (
        CORPUS_ENTRY_FORMAT,
        ContentStore,
        corpus_group,
        source_sha,
    )

    with open(program_path, "r", encoding="utf-8") as handle:
        src_sha = source_sha(handle.read())
    store = ContentStore(store_dir)
    seeds = ()
    if getattr(args, "seed_from_store", False):
        stored = store.load_group(
            "corpus",
            corpus_group(src_sha, entry),
            expected_format=CORPUS_ENTRY_FORMAT,
        )
        seeds = tuple(
            {str(k): int(v) for k, v in dict(payload["inputs"]).items()}
            for _digest, payload in stored
            if isinstance(payload.get("inputs"), dict)
        )
    return store, src_sha, seeds


def persist_to_store(store, src_sha: str, entry: str, result) -> None:
    """Record a finished search's corpus and crash buckets in the store.

    The CLI twin of the engine's per-job persistence: same namespaces,
    same grouping, same keys — a ``repro run`` and a campaign job over
    the same program land on the same entries.
    """
    import os as _os

    from ..search.corpus import TestCorpus
    from ..store import (
        CORPUS_ENTRY_FORMAT,
        CRASH_RECORD_FORMAT,
        corpus_group,
        crash_group,
        input_digest,
        source_sha,
    )

    corpus = TestCorpus()
    corpus.add_from_search(result)
    group = corpus_group(src_sha, entry)
    for test in corpus:
        inputs = test.input_dict()
        path = store.group_path("corpus", group, input_digest(inputs))
        if _os.path.exists(path):
            continue
        store.save(
            "corpus",
            path,
            {
                "format": CORPUS_ENTRY_FORMAT,
                "source_sha": src_sha,
                "entry": entry,
                "inputs": {str(k): int(v) for k, v in inputs.items()},
                "returned": test.returned,
                "error": test.error,
                "error_message": test.error_message,
            },
        )
    group = crash_group(src_sha)
    for crash in result.crashes:
        bucket = str(crash.bucket)
        path = store.group_path("crashes", group, source_sha(bucket))
        if _os.path.exists(path):
            continue
        store.save(
            "crashes",
            path,
            {
                "format": CRASH_RECORD_FORMAT,
                "source_sha": src_sha,
                "entry": entry,
                "bucket": bucket,
                "message": str(crash.message),
                "count": int(crash.count),
            },
        )


def parse_seed(text: str) -> Dict[str, int]:
    """Parse ``x=1,y=-2`` into an input dict."""
    out: Dict[str, int] = {}
    if not text:
        return out
    for piece in text.split(","):
        if "=" not in piece:
            raise ReproError(f"bad seed assignment {piece!r} (want name=int)")
        name, _, value = piece.partition("=")
        out[name.strip()] = int(value.strip())
    return out


def parse_range(text: str):
    lo, _, hi = text.partition(":")
    return int(lo), int(hi)


def load_program(path: str):
    with open(path, "r", encoding="utf-8") as handle:
        source = handle.read()
    return parse_program(source)


def natives() -> NativeRegistry:
    return standard_registry(width=4)


def default_entry(program, requested: Optional[str]) -> str:
    if requested:
        return requested
    if "main" in program.functions:
        return "main"
    return next(iter(program.functions))


def seed_for(program, entry: str, seed: Dict[str, int]) -> Dict[str, int]:
    params = program.function(entry).params
    return {p: seed.get(p, 0) for p in params}


class CliObservability:
    """The journal/registry/obs bundle requested by the CLI flags.

    When collection is on, a fresh :class:`MetricsRegistry` is installed
    as the process default (so the solver layers record into it) for the
    lifetime of the ``with`` block; the previous default is restored and
    the journal closed on exit.
    """

    def __init__(self, args, force: bool = False) -> None:
        trace = getattr(args, "trace", None)
        profile = force or getattr(args, "profile", False)
        self.journal = RunJournal(trace) if trace else None
        self.registry: Optional[MetricsRegistry] = None
        self.obs: Optional[Observability] = None
        self._old_registry: Optional[MetricsRegistry] = None
        if profile or self.journal is not None:
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

    def __exit__(self, *exc_info: object) -> None:
        if self.registry is not None:
            set_default_registry(self._old_registry)
        if self.journal is not None:
            self.journal.close()


def null_context():
    from contextlib import nullcontext

    return nullcontext()


def print_profile_tables(obs, registry) -> None:
    print()
    print("== span profile ==")
    print(obs.tracer.render_table())
    print()
    print("== metrics ==")
    print(registry.render_table())


def fault_plan(args):
    spec = getattr(args, "fault_plan", None)
    return FaultPlan.parse(spec) if spec else NULL_PLAN


def query_cache(args, enabled: bool = True):
    """The query cache the flags ask for (disk-backed with --cache-dir).

    ``--store-dir`` doubles as the cache directory when ``--cache-dir``
    is not given: the store's ``solver/`` namespace *is* the disk cache.
    """
    from ..solver.cache import QueryCache

    if not enabled:
        return None
    cache_dir = getattr(args, "cache_dir", None) or getattr(
        args, "store_dir", None
    )
    if cache_dir:
        from ..solver.diskcache import DiskCache

        return QueryCache(disk=DiskCache(cache_dir))
    return QueryCache()


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
