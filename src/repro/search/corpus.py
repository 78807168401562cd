"""Test corpus management: persist, reload, and replay generated tests.

A testing session's value outlives the session: the generated input
vectors are a regression suite, and (per the paper's §7 learning idea)
their executions seed the sample store of future sessions.  A
:class:`TestCorpus` stores input vectors with their observed outcomes and
replays them against a program, reporting behavioural differences.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from ..errors import ReproError
from ..lang.ast import Program
from ..lang.interp import Interpreter
from ..lang.natives import NativeRegistry
from .directed import SearchResult

__all__ = ["CorpusEntry", "TestCorpus", "ReplayReport"]


@dataclass(frozen=True)
class CorpusEntry:
    """One stored test: inputs plus the outcome observed when generated."""

    inputs: Tuple[Tuple[str, int], ...]
    returned: Optional[int]
    error: bool
    error_message: str = ""

    @classmethod
    def from_run(cls, inputs: Dict[str, int], returned, error, message=""):
        return cls(
            inputs=tuple(sorted(inputs.items())),
            returned=returned,
            error=error,
            error_message=message,
        )

    def input_dict(self) -> Dict[str, int]:
        return dict(self.inputs)


@dataclass
class ReplayReport:
    """Outcome of replaying a corpus against a program."""

    total: int = 0
    matching: int = 0
    #: entries whose outcome changed: (entry, new_returned, new_error)
    mismatches: List[Tuple[CorpusEntry, Optional[int], bool]] = field(
        default_factory=list
    )

    @property
    def all_match(self) -> bool:
        return self.matching == self.total

    def summary(self) -> str:
        return f"replayed {self.total}, matching {self.matching}, " \
               f"mismatching {len(self.mismatches)}"


class TestCorpus:
    """An ordered, deduplicated collection of test inputs with outcomes."""

    def __init__(self) -> None:
        self._entries: List[CorpusEntry] = []
        self._seen: set = set()

    def __len__(self) -> int:
        return len(self._entries)

    def __iter__(self):
        return iter(self._entries)

    def add(self, entry: CorpusEntry) -> bool:
        """Add an entry; returns False if its inputs were already stored."""
        if entry.inputs in self._seen:
            return False
        self._seen.add(entry.inputs)
        self._entries.append(entry)
        return True

    def add_from_search(self, result: SearchResult) -> int:
        """Harvest every executed test of a search session."""
        added = 0
        for record in result.executions:
            run = record.result
            entry = CorpusEntry.from_run(
                run.inputs, run.returned, run.error, run.error_message
            )
            if self.add(entry):
                added += 1
        return added

    def error_entries(self) -> List[CorpusEntry]:
        """The stored bug-triggering tests."""
        return [e for e in self._entries if e.error]

    # -- persistence ------------------------------------------------------------

    def save(self, path: str) -> None:
        payload = [
            {
                "inputs": dict(e.inputs),
                "returned": e.returned,
                "error": e.error,
                "error_message": e.error_message,
            }
            for e in self._entries
        ]
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(payload, handle, indent=2)

    @classmethod
    def load(cls, path: str) -> "TestCorpus":
        corpus = cls()
        with open(path, "r", encoding="utf-8") as handle:
            payload = json.load(handle)
        if not isinstance(payload, list):
            raise ReproError(f"corpus file {path!r} is not a JSON list")
        for item in payload:
            corpus.add(
                CorpusEntry(
                    inputs=tuple(sorted(
                        (str(k), int(v)) for k, v in item["inputs"].items()
                    )),
                    returned=item.get("returned"),
                    error=bool(item.get("error", False)),
                    error_message=item.get("error_message", ""),
                )
            )
        return corpus

    # -- replay ------------------------------------------------------------------

    def replay(
        self,
        program: Program,
        entry_fn: str,
        natives: Optional[NativeRegistry] = None,
    ) -> ReplayReport:
        """Re-execute every stored test; report outcome drift.

        A mismatch means the program's behaviour changed since the corpus
        was recorded — a regression (or a fix) worth inspecting.  One
        executor is built (and the program compiled) once, outside the
        per-entry loop.
        """
        interp = Interpreter(program, natives)
        report = ReplayReport()
        for entry in self._entries:
            run = interp.run(entry_fn, entry.input_dict())
            report.total += 1
            if run.error == entry.error and run.returned == entry.returned:
                report.matching += 1
            else:
                report.mismatches.append((entry, run.returned, run.error))
        return report
