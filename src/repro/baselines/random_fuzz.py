"""Blackbox random fuzzing baseline.

The paper's §7 punchline — "regular dynamic test generation is no better
than blackbox random testing [on the lexer] because it is not able to
drive executions through tests involving the hash function" — needs a
blackbox random tester to compare against.  This one draws input vectors
uniformly from a configurable range and tracks the same coverage and error
metrics as the directed search.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from ..lang.ast import Program
from ..lang.interp import Interpreter
from ..lang.natives import NativeRegistry
from ..search.coverage import BranchCoverage
from ..search.directed import ErrorReport

__all__ = ["RandomFuzzer", "FuzzResult"]


@dataclass
class FuzzResult:
    """Outcome of a random-fuzzing session."""

    runs: int = 0
    errors: List[ErrorReport] = field(default_factory=list)
    coverage: Optional[BranchCoverage] = None
    distinct_paths: int = 0

    @property
    def found_error(self) -> bool:
        return bool(self.errors)

    def summary(self) -> str:
        cov = f"{self.coverage.ratio():.0%}" if self.coverage else "n/a"
        return (
            f"runs={self.runs} paths={self.distinct_paths} "
            f"errors={len(self.errors)} coverage={cov}"
        )


@dataclass
class RandomFuzzer:
    """Uniform random input generation over per-variable ranges.

    ``ranges`` maps input names to inclusive (lo, hi) bounds; unranged
    inputs default to ``default_range``.
    """

    program: Program
    entry: str
    natives: NativeRegistry
    ranges: Dict[str, Tuple[int, int]] = field(default_factory=dict)
    default_range: Tuple[int, int] = (-1000, 1000)
    seed: int = 0

    def run(self, max_runs: int = 1000, stop_on_first_error: bool = False) -> FuzzResult:
        rng = random.Random(self.seed)
        interp = Interpreter(self.program, self.natives)
        params = self.program.function(self.entry).params
        result = FuzzResult(coverage=BranchCoverage(self.program))
        seen_paths = set()
        for run_index in range(max_runs):
            inputs = {}
            for p in params:
                lo, hi = self.ranges.get(p, self.default_range)
                inputs[p] = rng.randint(lo, hi)
            run = interp.run(self.entry, inputs)
            result.runs += 1
            result.coverage.record(run.covered)
            seen_paths.add(run.path_key)
            if run.error:
                result.errors.append(
                    ErrorReport(
                        inputs=inputs,
                        message=run.error_message,
                        line=run.error_line,
                        run_index=run_index,
                    )
                )
                if stop_on_first_error:
                    break
        result.distinct_paths = len(seen_paths)
        return result
