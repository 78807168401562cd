"""Nestable tracing spans with per-label aggregation.

A :class:`Tracer` hands out :class:`Span` context managers::

    tracer = Tracer()
    with tracer.span("solve", kind="euf"):
        ...

and aggregates, per label: call count, *inclusive* wall time (span entry
to exit) and *exclusive* ("self") wall time (inclusive minus time spent
in child spans).  Exclusive times of all labels sum to the root span's
inclusive time, which is what makes the ``repro run --profile`` table
add up: the per-span totals account for (approximately) 100% of
``SearchResult.time_total``.

When the tracer is built with a journal, every span exit additionally
emits a ``span`` event (label, seconds, depth) so the JSONL trace can be
reconstructed into a timeline.

The :data:`NULL_TRACER` singleton hands out a shared do-nothing span for
code paths that accept an optional tracer.
"""

from __future__ import annotations

from time import perf_counter
from typing import Dict, List, Optional

__all__ = ["Span", "SpanStats", "Tracer", "NullTracer", "NULL_TRACER"]


class SpanStats:
    """Aggregated timings for one span label."""

    __slots__ = ("label", "count", "total", "self_total", "min", "max")

    def __init__(self, label: str) -> None:
        self.label = label
        self.count = 0
        #: inclusive seconds (entry to exit, children included)
        self.total = 0.0
        #: exclusive seconds (children's inclusive time subtracted)
        self.self_total = 0.0
        self.min = float("inf")
        self.max = 0.0

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def to_dict(self) -> Dict[str, float]:
        return {
            "count": self.count,
            "total": self.total,
            "self": self.self_total,
            "mean": self.mean,
            "min": self.min if self.count else 0.0,
            "max": self.max,
        }

    def __repr__(self) -> str:
        return (
            f"SpanStats({self.label}: n={self.count} total={self.total:.6f}s "
            f"self={self.self_total:.6f}s)"
        )


class Span:
    """One timed region; use as a context manager.

    After exit, :attr:`elapsed` holds the inclusive duration in seconds —
    callers that need the measurement (e.g. the directed search filling
    ``SearchResult.time_generating``) read it off the span object.
    """

    __slots__ = ("_tracer", "label", "fields", "start", "elapsed", "_child_time")

    def __init__(self, tracer: "Tracer", label: str, fields: Dict[str, object]) -> None:
        self._tracer = tracer
        self.label = label
        self.fields = fields
        self.start = 0.0
        self.elapsed = 0.0
        self._child_time = 0.0

    def __enter__(self) -> "Span":
        self._tracer._stack.append(self)
        self.start = perf_counter()
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.elapsed = perf_counter() - self.start
        tracer = self._tracer
        stack = tracer._stack
        stack.pop()
        stats = tracer._stats.get(self.label)
        if stats is None:
            stats = tracer._stats[self.label] = SpanStats(self.label)
        stats.count += 1
        stats.total += self.elapsed
        stats.self_total += self.elapsed - self._child_time
        if self.elapsed < stats.min:
            stats.min = self.elapsed
        if self.elapsed > stats.max:
            stats.max = self.elapsed
        if stack:
            stack[-1]._child_time += self.elapsed
        journal = tracer._journal
        if journal is not None and journal.enabled:
            journal.emit(
                "span",
                label=self.label,
                seconds=round(self.elapsed, 6),
                depth=len(stack),
                **self.fields,
            )


class Tracer:
    """Aggregating tracer; see the module docstring."""

    enabled = True

    def __init__(self, journal=None) -> None:
        self._journal = journal
        self._stack: List[Span] = []
        self._stats: Dict[str, SpanStats] = {}

    def span(self, label: str, **fields: object) -> Span:
        """A new nestable timed region labelled ``label``."""
        return Span(self, label, fields)

    # -- aggregation -------------------------------------------------------

    def stats(self) -> Dict[str, SpanStats]:
        """Per-label aggregates, in first-recorded order."""
        return dict(self._stats)

    def total(self, label: str) -> float:
        """Inclusive seconds recorded under ``label`` (0.0 if never seen)."""
        stats = self._stats.get(label)
        return stats.total if stats else 0.0

    def self_time_total(self) -> float:
        """Sum of exclusive times over all labels ≈ root inclusive time."""
        return sum(s.self_total for s in self._stats.values())

    def reset(self) -> None:
        self._stats.clear()

    def render_table(self) -> str:
        """Profile table: label, calls, self/total seconds, share of self time."""
        if not self._stats:
            return "(no spans recorded)"
        grand_self = self.self_time_total() or 1.0
        header = f"{'span':<24} {'calls':>7} {'self(s)':>9} {'total(s)':>9} {'mean(ms)':>9} {'self%':>6}"
        lines = [header, "-" * len(header)]
        ordered = sorted(
            self._stats.values(), key=lambda s: s.self_total, reverse=True
        )
        for s in ordered:
            lines.append(
                f"{s.label:<24} {s.count:>7} {s.self_total:>9.4f} "
                f"{s.total:>9.4f} {s.mean * 1e3:>9.3f} "
                f"{100.0 * s.self_total / grand_self:>5.1f}%"
            )
        lines.append(
            f"{'(sum of self times)':<24} {'':>7} {self.self_time_total():>9.4f}"
        )
        return "\n".join(lines)


class _NullSpan:
    """Shared no-op span (elapsed stays 0.0)."""

    __slots__ = ()
    label = "<null>"
    elapsed = 0.0
    start = 0.0

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc_info: object) -> None:
        pass


_NULL_SPAN = _NullSpan()


class NullTracer(Tracer):
    """Disabled tracer: spans measure nothing and aggregate nothing.

    Note the directed search keeps a *real* tracer even in disabled
    observability mode, because ``SearchResult.time_*`` is built from span
    timings; the null tracer exists for callers that want zero measurement.
    """

    enabled = False

    def __init__(self) -> None:
        super().__init__(journal=None)

    def span(self, label: str, **fields: object):  # type: ignore[override]
        return _NULL_SPAN


NULL_TRACER = NullTracer()
