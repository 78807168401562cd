"""Structured run journals: one JSON object per line, streamed to a file.

A :class:`RunJournal` records the events of a testing session —
``test_generated``, ``branch_flipped``, ``solver_query``,
``sample_recorded``, ``divergence_detected``, … — as JSONL so post-hoc
analysis is one ``json.loads`` per line away.  Every event carries a
monotonically increasing ``seq``, a wall-clock ``ts``, and a monotonic
``mono`` (``time.perf_counter``, immune to clock adjustments — the
timestamp latency analysis and the Chrome-trace exporter use); all
remaining fields are event-specific (see docs/OBSERVABILITY.md for the
schema).

Deeply nested layers (the SMT solver, the validity engine) do not take a
journal parameter through every constructor; instead they emit to the
*current journal*, a process-wide slot that is the no-op
:data:`NULL_JOURNAL` unless a session installs its own (the directed
search does this for the duration of :meth:`DirectedSearch.run`).
"""

from __future__ import annotations

import json
import threading
import time
from contextlib import contextmanager
from typing import Callable, Dict, Iterator, Optional, TextIO, Union

from ..faults import current_fault_plan

#: one shared compact encoder for the emit hot path: building a
#: JSONEncoder per event (what json.dumps does) costs more than the
#: actual C-level encode for the small dicts journals write
_ENCODE = json.JSONEncoder(separators=(",", ":"), default=str).encode

__all__ = [
    "RunJournal",
    "NullJournal",
    "NULL_JOURNAL",
    "current_journal",
    "set_current_journal",
    "install_journal",
]


class RunJournal:
    """Streams structured events to a JSONL file (or file-like object).

    Usage::

        with RunJournal("events.jsonl") as journal:
            journal.emit("search_started", entry="main", max_runs=100)

    Values that are not JSON-serializable are stringified rather than
    raised on, and an ``OSError`` on write (disk full, closed pipe, or an
    injected ``journal`` fault) disables the sink after counting a single
    ``obs.journal.write_errors`` — a journal must never take the session
    down.

    ``flush_every`` batches flushes: the handle is flushed every N-th
    event rather than on each one (campaign worker shards use a small
    batch so the parent's live tail stays fresh without paying one
    ``flush`` syscall per event).  The default ``flush_every=1`` flushes
    every event.
    """

    enabled = True

    def __init__(
        self,
        target: Union[str, TextIO],
        clock: Callable[[], float] = time.time,
        mono_clock: Callable[[], float] = time.perf_counter,
        flush_every: int = 1,
    ) -> None:
        if isinstance(target, str):
            self._handle: TextIO = open(target, "w", encoding="utf-8")
            self._owns_handle = True
        else:
            self._handle = target
            self._owns_handle = False
        self._clock = clock
        self._mono_clock = mono_clock
        self._flush_every = max(1, int(flush_every))
        self._seq = 0
        self._closed = False
        #: a journal may be shared by several threads; the lock keeps seq
        #: assignment and line writes whole
        self._lock = threading.Lock()

    # -- emission ----------------------------------------------------------

    def emit(self, kind: str, **fields: object) -> Optional[Dict[str, object]]:
        """Write one event; returns the event dict (None once closed)."""
        with self._lock:
            if self._closed or not self.enabled:
                return None
            event: Dict[str, object] = {
                "seq": self._seq,
                "ts": round(self._clock(), 6),
                "mono": round(self._mono_clock(), 6),
                "kind": kind,
            }
            event.update(fields)
            try:
                current_fault_plan().fire("journal")
                self._handle.write(_ENCODE(event) + "\n")
                if self._seq % self._flush_every == 0:
                    self._handle.flush()
            except OSError as exc:
                self._disable(exc)
                return None
            self._seq += 1
            return event

    def _disable(self, exc: OSError) -> None:
        """Stop writing after the first failed write; the search goes on."""
        self.enabled = False  # instance attribute shadows the class default
        self.write_error: Optional[str] = str(exc)
        from .metrics import default_registry

        registry = default_registry()
        if registry.enabled:
            registry.counter("obs.journal.write_errors").inc()

    @property
    def events_written(self) -> int:
        return self._seq

    # -- lifecycle ---------------------------------------------------------

    def close(self) -> None:
        with self._lock:
            if self._closed:
                return
            self._closed = True
            try:
                self._handle.flush()
                if self._owns_handle:
                    self._handle.close()
            except OSError:
                # a sink that died mid-session must not raise at close
                pass

    def __enter__(self) -> "RunJournal":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()


class NullJournal:
    """Disabled journal: :meth:`emit` is a no-op."""

    enabled = False
    events_written = 0

    def emit(self, kind: str, **fields: object) -> None:
        return None

    def close(self) -> None:
        pass

    def __enter__(self) -> "NullJournal":
        return self

    def __exit__(self, *exc_info: object) -> None:
        pass


#: the process-wide disabled journal (the default current journal)
NULL_JOURNAL = NullJournal()

_current: Union[RunJournal, NullJournal] = NULL_JOURNAL


def current_journal() -> Union[RunJournal, NullJournal]:
    """The journal deeply nested layers (solvers) emit to."""
    return _current


def set_current_journal(
    journal: Optional[Union[RunJournal, NullJournal]]
) -> Union[RunJournal, NullJournal]:
    """Install ``journal`` as current (None restores the null journal)."""
    global _current
    old = _current
    _current = journal if journal is not None else NULL_JOURNAL
    return old


@contextmanager
def install_journal(
    journal: Union[RunJournal, NullJournal]
) -> Iterator[Union[RunJournal, NullJournal]]:
    """Scoped :func:`set_current_journal`."""
    old = set_current_journal(journal)
    try:
        yield journal
    finally:
        set_current_journal(old)
