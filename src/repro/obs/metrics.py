"""Counters, gauges, and histograms with a process-wide default registry.

The instruments are deliberately tiny: a :class:`Counter` is an integer
that only goes up, a :class:`Gauge` is a last-write-wins value, and a
:class:`Histogram` keeps summary statistics (count/sum/min/max) rather
than buckets — enough to answer "where did the solver effort go" without
taxing the hot paths that record into them.

Instrumented modules (the SAT/SMT/LIA solvers, the validity engine, the
concolic executor) record into the *default registry*.  Out of the box
that is the :data:`NULL_REGISTRY`, whose instruments are shared no-ops, so
an uninstrumented run pays only a module-level lookup and a dead method
call per event.  Enabling collection is one call::

    registry = MetricsRegistry()
    old = set_default_registry(registry)
    try:
        ...  # run the workload
    finally:
        set_default_registry(old)
    print(registry.render_table())

or, scoped, ``with use_registry(MetricsRegistry()) as registry: ...``.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager
from typing import Dict, Iterator, List, Optional

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "NullRegistry",
    "NULL_REGISTRY",
    "default_registry",
    "set_default_registry",
    "use_registry",
]


class Counter:
    """A monotonically increasing integer metric.

    Increments are lock-protected: a registry may be shared by several
    threads (a local campaign runs on a background thread next to its
    caller), and ``+=`` on an attribute is not atomic under the
    interpreter.
    """

    __slots__ = ("name", "value", "_lock")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0
        self._lock = threading.Lock()

    def inc(self, amount: int = 1) -> None:
        with self._lock:
            self.value += amount

    def __repr__(self) -> str:
        return f"Counter({self.name}={self.value})"


class Gauge:
    """A last-write-wins numeric metric."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value: float = 0.0

    def set(self, value: float) -> None:
        self.value = value

    def __repr__(self) -> str:
        return f"Gauge({self.name}={self.value})"


class Histogram:
    """Summary statistics over observed values (count/sum/min/max)."""

    __slots__ = ("name", "count", "total", "min", "max", "_lock")

    def __init__(self, name: str) -> None:
        self.name = name
        self.count = 0
        self.total = 0.0
        self.min: Optional[float] = None
        self.max: Optional[float] = None
        self._lock = threading.Lock()

    def observe(self, value: float) -> None:
        with self._lock:
            self.count += 1
            self.total += value
            if self.min is None or value < self.min:
                self.min = value
            if self.max is None or value > self.max:
                self.max = value

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def to_dict(self) -> Dict[str, float]:
        return {
            "count": self.count,
            "total": self.total,
            "mean": self.mean,
            "min": self.min if self.min is not None else 0.0,
            "max": self.max if self.max is not None else 0.0,
        }

    def __repr__(self) -> str:
        return (
            f"Histogram({self.name}: n={self.count} total={self.total:.6f} "
            f"mean={self.mean:.6f})"
        )


class MetricsRegistry:
    """Creates-on-first-use registry of named instruments.

    Instrument names are dotted paths (``sat.conflicts``,
    ``smt.check_seconds``); the renderer groups rows by their first
    component so ``repro run --profile`` shows one table per subsystem.
    """

    #: instrumented call sites may skip work when the registry is disabled
    enabled = True

    def __init__(self) -> None:
        self._counters: Dict[str, Counter] = {}
        self._gauges: Dict[str, Gauge] = {}
        self._histograms: Dict[str, Histogram] = {}
        self._lock = threading.Lock()

    # -- instrument access -------------------------------------------------
    # create-on-first-use is lock-protected so two threads racing on
    # a new name cannot each create (and partially lose) an instrument

    def counter(self, name: str) -> Counter:
        inst = self._counters.get(name)
        if inst is None:
            with self._lock:
                inst = self._counters.setdefault(name, Counter(name))
        return inst

    def gauge(self, name: str) -> Gauge:
        inst = self._gauges.get(name)
        if inst is None:
            with self._lock:
                inst = self._gauges.setdefault(name, Gauge(name))
        return inst

    def histogram(self, name: str) -> Histogram:
        inst = self._histograms.get(name)
        if inst is None:
            with self._lock:
                inst = self._histograms.setdefault(name, Histogram(name))
        return inst

    # -- introspection -----------------------------------------------------

    def snapshot(self) -> Dict[str, object]:
        """Plain-data view of every instrument (JSON-serializable)."""
        return {
            "counters": {n: c.value for n, c in sorted(self._counters.items())},
            "gauges": {n: g.value for n, g in sorted(self._gauges.items())},
            "histograms": {
                n: h.to_dict() for n, h in sorted(self._histograms.items())
            },
        }

    def reset(self) -> None:
        self._counters.clear()
        self._gauges.clear()
        self._histograms.clear()

    def __len__(self) -> int:
        return len(self._counters) + len(self._gauges) + len(self._histograms)

    def render_table(self) -> str:
        """Aligned text table of all instruments, sorted by name."""
        rows: List[tuple] = []
        for name, c in self._counters.items():
            rows.append((name, str(c.value)))
        for name, g in self._gauges.items():
            rows.append((name, f"{g.value:g}"))
        for name, h in self._histograms.items():
            rows.append(
                (
                    name,
                    f"n={h.count} total={h.total:.4f}s mean={h.mean * 1e3:.2f}ms",
                )
            )
        if not rows:
            return "(no metrics recorded)"
        rows.sort()
        width = max(len(name) for name, _ in rows)
        return "\n".join(f"{name:<{width}}  {value}" for name, value in rows)


class _NullInstrument:
    """Shared no-op counter/gauge/histogram for the disabled registry."""

    __slots__ = ()
    name = "<null>"
    value = 0
    count = 0
    total = 0.0
    mean = 0.0

    def inc(self, amount: int = 1) -> None:
        pass

    def set(self, value: float) -> None:
        pass

    def observe(self, value: float) -> None:
        pass


_NULL_INSTRUMENT = _NullInstrument()


class NullRegistry(MetricsRegistry):
    """Disabled registry: all instruments are shared no-ops.

    Recording into it has no side effects, allocates nothing, and keeps
    the instrumented hot paths within the "observability off" overhead
    budget.
    """

    enabled = False

    def counter(self, name: str):  # type: ignore[override]
        return _NULL_INSTRUMENT

    def gauge(self, name: str):  # type: ignore[override]
        return _NULL_INSTRUMENT

    def histogram(self, name: str):  # type: ignore[override]
        return _NULL_INSTRUMENT


#: the process-wide disabled registry (the default)
NULL_REGISTRY = NullRegistry()

_default: MetricsRegistry = NULL_REGISTRY


def default_registry() -> MetricsRegistry:
    """The process-wide registry instrumented modules record into."""
    return _default


def set_default_registry(registry: Optional[MetricsRegistry]) -> MetricsRegistry:
    """Install ``registry`` (None restores the null registry); returns the old one."""
    global _default
    old = _default
    _default = registry if registry is not None else NULL_REGISTRY
    return old


@contextmanager
def use_registry(registry: MetricsRegistry) -> Iterator[MetricsRegistry]:
    """Scoped :func:`set_default_registry` for tests and one-off sessions."""
    old = set_default_registry(registry)
    try:
        yield registry
    finally:
        set_default_registry(old)
