"""Output oracle: replay generated tests on the tree-walking interpreter.

The search executes tests on the bytecode VM through the concolic
engine; the oracle re-executes each generated input vector on the
independent recursive ``Interpreter(backend="tree")`` with the same
natives and checks that the outcome (return value and error flag)
agrees, plus the control path for single searches, whose records carry
it.  Coverage and bug counts are taken from the oracle's runs, never
from the program's own report.

Replays are memoised per (program source, entry, inputs): the tree
interpreter is deterministic, so a test repeated across requests is
executed once and every repeat is still compared against that result.
"""

from __future__ import annotations

from typing import Callable, Dict, Iterable, Optional, Set, Tuple

from repro.errors import ReproError
from repro.lang.ast import Program
from repro.lang.interp import Interpreter
from repro.lang.natives import NativeRegistry
from repro.lang.parser import parse_program

__all__ = ["Oracle", "Test"]

#: one generated test: inputs, recorded return value, recorded error
#: flag, and the recorded control path (None when the producer did not
#: record it, as for campaign corpora)
Test = Tuple[Dict[str, int], Optional[int], bool, Optional[tuple]]


class Oracle:
    """Tallies oracle-confirmed coverage, bugs and mismatches."""

    def __init__(self) -> None:
        self._replays: Dict[tuple, tuple] = {}
        self._programs: Dict[str, Program] = {}
        #: branch outcomes covered, per program identity
        self.covered: Dict[str, Set[Tuple[int, bool]]] = {}
        #: (program identity, error line) of every confirmed error
        self.bugs: Set[Tuple[str, int]] = set()
        self.tests = 0
        self.mismatches = 0
        #: first few mismatch descriptions, for the report
        self.examples: list = []

    def program(self, source: str) -> Program:
        """The parsed program for ``source`` (parsed once per source)."""
        program = self._programs.get(source)
        if program is None:
            program = self._programs[source] = parse_program(source)
        return program

    def check(
        self,
        identity: str,
        source: str,
        entry: str,
        natives: Callable[[], NativeRegistry],
        tests: Iterable[Test],
        program: Optional[Program] = None,
    ) -> None:
        """Replay ``tests`` of one program and fold them into the tallies.

        ``identity`` names the program for coverage and bug buckets;
        ``source`` keys the replay memo; ``natives`` builds a fresh
        registry for the interpreter.
        """
        interp = None
        covered = self.covered.setdefault(identity, set())
        for inputs, returned, error, path in tests:
            key = (source, entry, tuple(sorted(inputs.items())))
            replay = self._replays.get(key)
            if replay is None:
                if interp is None:
                    interp = Interpreter(
                        program if program is not None else self.program(source),
                        natives(),
                        backend="tree",
                    )
                try:
                    run = interp.run(entry, dict(inputs))
                    replay = (
                        run.returned,
                        run.error,
                        run.error_line,
                        tuple(run.path),
                        frozenset(run.covered),
                    )
                except ReproError as exc:
                    replay = ("crash", str(exc), 0, (), frozenset())
                self._replays[key] = replay
            self.tests += 1
            agrees = replay[0] == returned and replay[1] == error
            if path is not None and tuple(path) != replay[3]:
                agrees = False
            if not agrees:
                self.mismatches += 1
                if len(self.examples) < 5:
                    self.examples.append(
                        f"{identity} {inputs}: recorded ({returned}, {error}), "
                        f"tree interpreter ({replay[0]}, {replay[1]})"
                    )
                continue
            covered |= replay[4]
            if replay[1]:
                self.bugs.add((identity, replay[2]))

    @property
    def outcomes_covered(self) -> int:
        return sum(len(outcomes) for outcomes in self.covered.values())
