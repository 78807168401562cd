"""Unified observability: tracing spans, metrics, structured run journals.

Three cooperating pieces (each usable alone):

- :class:`~repro.obs.tracer.Tracer` — nestable ``with tracer.span(...)``
  regions with per-label aggregation (count, inclusive and exclusive wall
  time); the source of the ``repro run --profile`` span table.
- :class:`~repro.obs.metrics.MetricsRegistry` — named counters, gauges,
  and summary histograms.  Solver and executor layers record into the
  process-wide *default registry*, which is a no-op until a session
  installs a real one (:func:`~repro.obs.metrics.set_default_registry`).
- :class:`~repro.obs.journal.RunJournal` — a JSONL stream of structured
  session events (``test_generated``, ``solver_query``, ``branch_flipped``,
  ``sample_recorded``, ``divergence_detected``, …), written for post-hoc
  analysis.  Deep layers emit to the *current journal*
  (:func:`~repro.obs.journal.current_journal`), null unless installed.

:class:`Observability` bundles the three for APIs that thread them
together (the directed search).  The default bundle keeps a real tracer —
span timings feed ``SearchResult.time_*`` either way — but null metrics
and journal, so observability stays effectively free until requested.

Campaign-wide telemetry builds on the same pieces:
:mod:`~repro.obs.shipper` ships per-worker journal shards and merges
them into one deterministic campaign stream, and
:mod:`~repro.obs.export` renders metrics snapshots as JSON/Prometheus
text and journals as Chrome trace-event JSON.

See docs/OBSERVABILITY.md for the event schema and span label catalogue.
"""

from __future__ import annotations

from typing import Optional, Union

from .journal import (
    NULL_JOURNAL,
    NullJournal,
    RunJournal,
    current_journal,
    install_journal,
    set_current_journal,
)
from .metrics import (
    NULL_REGISTRY,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    NullRegistry,
    default_registry,
    set_default_registry,
    use_registry,
)
from .tracer import NULL_TRACER, NullTracer, Span, SpanStats, Tracer
from .export import (
    KERNEL_STAGES,
    journal_to_chrome_trace,
    render_prometheus,
    snapshot_to_json,
)
from .shipper import CampaignStats, ShardReader, merge_shards

__all__ = [
    "KERNEL_STAGES",
    "journal_to_chrome_trace",
    "render_prometheus",
    "snapshot_to_json",
    "CampaignStats",
    "ShardReader",
    "merge_shards",
    "Observability",
    "Tracer",
    "NullTracer",
    "Span",
    "SpanStats",
    "NULL_TRACER",
    "MetricsRegistry",
    "NullRegistry",
    "Counter",
    "Gauge",
    "Histogram",
    "NULL_REGISTRY",
    "default_registry",
    "set_default_registry",
    "use_registry",
    "RunJournal",
    "NullJournal",
    "NULL_JOURNAL",
    "current_journal",
    "set_current_journal",
    "install_journal",
]


class Observability:
    """Bundle of tracer + metrics + journal threaded through a session.

    ``Observability()`` is the cheap default: a real tracer (span timings
    are needed for ``SearchResult.time_*`` compatibility), the process
    default metrics registry (no-op unless installed), and no journal.

    ``Observability.collecting(journal=...)`` builds a fully live bundle
    with a fresh registry — what the CLI's ``--trace``/``--profile``
    flags collect.
    """

    __slots__ = ("tracer", "metrics", "journal")

    def __init__(
        self,
        tracer: Optional[Tracer] = None,
        metrics: Optional[MetricsRegistry] = None,
        journal: Optional[Union[RunJournal, NullJournal]] = None,
    ) -> None:
        self.journal: Union[RunJournal, NullJournal] = (
            journal if journal is not None else NULL_JOURNAL
        )
        self.tracer = tracer if tracer is not None else Tracer(journal=journal)
        self.metrics = metrics if metrics is not None else default_registry()

    @classmethod
    def collecting(
        cls, journal: Optional[Union[RunJournal, NullJournal]] = None
    ) -> "Observability":
        """A live bundle: fresh registry, real tracer, optional journal."""
        return cls(
            tracer=Tracer(journal=journal),
            metrics=MetricsRegistry(),
            journal=journal,
        )

    def emit(self, kind: str, **fields: object):
        """Shortcut for ``self.journal.emit``."""
        return self.journal.emit(kind, **fields)

    def __repr__(self) -> str:
        return (
            f"Observability(journal={'on' if self.journal.enabled else 'off'}, "
            f"metrics={'on' if self.metrics.enabled else 'off'})"
        )
