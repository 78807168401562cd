"""Static test generation baseline (paper §1 and §9).

Static test generation analyzes the program without executing it: path
constraints are built by symbolic simulation, and — critically — unknown
functions have no concrete fallback, so the constraint solver treats them
*existentially* and may invent behaviour that the real function does not
have (§4.2's discussion of why satisfiability is the wrong quantifier).

We model it faithfully within the concolic infrastructure:

- path constraints come from higher-order symbolic execution (UF terms for
  unknown functions) — the same constraints a static simulator would build;
- test generation uses :class:`~repro.search.backends.ExistentialBackend`,
  i.e. plain satisfiability with existential UFs and **no runtime
  samples** — the defining limitation of not executing the program;
- each generated test is then validated by a real run, and the divergence
  statistics quantify the paper's claim that "static test generation is
  helpless for a program like this".
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

from ..lang.ast import Program
from ..lang.natives import NativeRegistry
from ..solver.terms import TermManager
from ..symbolic.concolic import ConcolicEngine, ConcretizationMode
from ..search.backends import ExistentialBackend
from ..search.directed import DirectedSearch, SearchConfig, SearchResult

__all__ = ["StaticTestGenerator"]


@dataclass
class StaticTestGenerator:
    """Directed search driven by existential (satisfiability) generation.

    The search loop still *runs* generated tests (we must, to measure what
    they cover), but the generation step itself uses no runtime knowledge:
    no samples, no concrete fallbacks — exactly the information a static
    tool has.
    """

    program: Program
    entry: str
    natives: NativeRegistry
    config: Optional[SearchConfig] = None

    def run(self, seed_inputs: Dict[str, int]) -> SearchResult:
        tm = TermManager()
        engine = ConcolicEngine(
            self.program,
            self.natives,
            ConcretizationMode.HIGHER_ORDER,  # builds the UF path constraints
            tm,
            record_samples=False,  # a static tool observes nothing at runtime
        )
        backend = ExistentialBackend()
        search = DirectedSearch(
            engine, self.entry, backend, config=self.config
        )
        return search.run(seed_inputs)
