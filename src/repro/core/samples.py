"""The IOF table: uninterpreted-function samples observed at runtime.

Line 13 of the paper's Figure 3 records, for every unknown-function call,
the pair ``(concrete result, f(concrete args))``.  :class:`SampleStore`
accumulates those pairs across runs of a testing session, deduplicates
them, and can persist them to disk — enabling the paper's §7 suggestion of
*learning samples over time* from previous executions ("use all pairs
recorded in all previous executions in subsequent symbolic executions").
"""

from __future__ import annotations

import json
from typing import Dict, Iterable, List, Optional, Tuple

from ..errors import ReproError
from ..solver.terms import FunctionSymbol, TermManager
from ..solver.validity import Sample

__all__ = ["SampleStore"]


class SampleStore:
    """Accumulates (and optionally persists) IOF samples.

    Samples are keyed by (function symbol, argument tuple); re-recording an
    existing point is a no-op, and recording a *different* value for an
    existing point raises — unknown functions are deterministic (the
    assumption behind the paper's Theorem 3).
    """

    def __init__(self) -> None:
        self._table: Dict[Tuple[FunctionSymbol, Tuple[int, ...]], int] = {}
        self._order: List[Sample] = []

    def __len__(self) -> int:
        return len(self._order)

    def __contains__(self, key: Tuple[FunctionSymbol, Tuple[int, ...]]) -> bool:
        return key in self._table

    def add(self, sample: Sample) -> bool:
        """Record one sample; returns True if it was new."""
        key = (sample.fn, sample.args)
        existing = self._table.get(key)
        if existing is not None:
            if existing != sample.value:
                raise ReproError(
                    f"non-deterministic unknown function: {sample.fn.name}"
                    f"{sample.args} was {existing}, now {sample.value}"
                )
            return False
        self._table[key] = sample.value
        self._order.append(sample)
        return True

    def add_all(self, samples: Iterable[Sample]) -> int:
        """Record many samples; returns how many were new."""
        return sum(1 for s in samples if self.add(s))

    def merge_from_run(self, result) -> int:
        """Record every sample a concolic run observed (Fig. 3 line 13)."""
        return self.add_all(result.samples)

    def samples(self) -> List[Sample]:
        """All recorded samples in observation order."""
        return list(self._order)

    def as_table(self) -> Dict[Tuple[FunctionSymbol, Tuple[int, ...]], int]:
        """The samples as a lookup table (copy)."""
        return dict(self._table)

    def has(self, fn: FunctionSymbol, args: Tuple[int, ...]) -> bool:
        return (fn, args) in self._table

    def value(self, fn: FunctionSymbol, args: Tuple[int, ...]) -> Optional[int]:
        return self._table.get((fn, args))

    # -- persistence (cross-session learning, paper §7) -----------------------

    def save(self, path: str) -> None:
        """Serialize all samples to a JSON file."""
        payload = [
            {
                "fn": s.fn.name,
                "arity": s.fn.arity,
                "args": list(s.args),
                "value": s.value,
            }
            for s in self._order
        ]
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(payload, handle, indent=2)

    @classmethod
    def load(cls, path: str, manager: TermManager) -> "SampleStore":
        """Load samples, re-creating function symbols in ``manager``."""
        store = cls()
        with open(path, "r", encoding="utf-8") as handle:
            payload = json.load(handle)
        for entry in payload:
            fn = manager.mk_function(entry["fn"], entry["arity"])
            store.add(Sample(fn, tuple(entry["args"]), entry["value"]))
        return store

    def __str__(self) -> str:
        inner = ", ".join(str(s) for s in self._order[:8])
        more = f", ... ({len(self._order)} total)" if len(self._order) > 8 else ""
        return f"SampleStore[{inner}{more}]"
