"""Test-case minimization: shrink bug-triggering inputs for readability.

Generated error inputs often carry incidental values (solver artifacts,
leftovers from parent runs).  :func:`minimize_error_inputs` greedily
shrinks each input toward a target value (0 or a user-supplied baseline)
while the program keeps failing *with the same error*, using
per-variable binary search — the ddmin idea specialized to integer
vectors.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

from ..lang.ast import Program
from ..lang.interp import Interpreter
from ..lang.natives import NativeRegistry

__all__ = ["MinimizationResult", "minimize_error_inputs"]


@dataclass
class MinimizationResult:
    """Outcome of a minimization run."""

    inputs: Dict[str, int]
    original: Dict[str, int]
    runs_used: int
    #: variables whose values were changed by minimization
    changed: List[str] = field(default_factory=list)

    def distance_reduction(self) -> int:
        """Total |value - target| reduction achieved (absolute)."""
        before = sum(abs(v) for v in self.original.values())
        after = sum(abs(v) for v in self.inputs.values())
        return before - after


def minimize_error_inputs(
    program: Program,
    entry: str,
    inputs: Dict[str, int],
    natives: Optional[NativeRegistry] = None,
    targets: Optional[Dict[str, int]] = None,
    max_runs: int = 200,
) -> MinimizationResult:
    """Shrink ``inputs`` while preserving the error they trigger.

    ``targets`` gives per-variable shrink destinations (default 0).  The
    same error *message and line* must persist — minimization never trades
    one bug for another.  One executor is built (and the program
    compiled) once for the whole shrink loop.
    """
    interp = Interpreter(program, natives)
    baseline = interp.run(entry, dict(inputs))
    if not baseline.error:
        raise ValueError("minimize_error_inputs requires error-triggering inputs")
    signature = (baseline.error_message, baseline.error_line)
    targets = dict(targets or {})
    runs = 0

    def still_fails(candidate: Dict[str, int]) -> bool:
        nonlocal runs
        if runs >= max_runs:
            return False
        runs += 1
        result = interp.run(entry, candidate)
        return result.error and (
            result.error_message, result.error_line
        ) == signature

    def per_variable_pass(current: Dict[str, int]) -> Dict[str, int]:
        """Shrink each variable independently by binary search."""
        for name in sorted(current):
            target = targets.get(name, 0)
            if current[name] == target:
                continue
            trial = dict(current)
            trial[name] = target
            if still_fails(trial):
                current = trial
                continue
            # invariant: the full distance works, distance `low_dist` fails
            direction = 1 if current[name] > target else -1
            best = current[name]
            low_dist, high_dist = 0, abs(current[name] - target)
            while low_dist + 1 < high_dist and runs < max_runs:
                mid = (low_dist + high_dist) // 2
                candidate_value = target + direction * mid
                trial = dict(current)
                trial[name] = candidate_value
                if still_fails(trial):
                    high_dist = mid
                    best = candidate_value
                else:
                    low_dist = mid
            current = dict(current)
            current[name] = best
        return current

    def uniform_shift_pass(current: Dict[str, int]) -> Dict[str, int]:
        """Shift all variables toward their targets by a common delta.

        Handles coupled variables (``y == x + 1``) that per-variable
        shrinking cannot move: a uniform translation preserves pairwise
        differences.
        """
        def shifted(base: Dict[str, int], delta: int) -> Dict[str, int]:
            out = {}
            for name, value in base.items():
                target = targets.get(name, 0)
                if value > target:
                    out[name] = max(target, value - delta)
                elif value < target:
                    out[name] = min(target, value + delta)
                else:
                    out[name] = value
            return out

        max_dist = max(
            (abs(v - targets.get(n, 0)) for n, v in current.items()),
            default=0,
        )
        delta = max_dist
        while delta > 0 and runs < max_runs:
            trial = shifted(current, delta)
            if trial != current and still_fails(trial):
                current = trial
            else:
                delta //= 2
        return current

    current = dict(inputs)
    for _ in range(3):  # alternate phases to a fixpoint
        before = dict(current)
        current = uniform_shift_pass(current)
        current = per_variable_pass(current)
        if current == before or runs >= max_runs:
            break

    changed = [n for n in sorted(inputs) if current[n] != inputs[n]]
    return MinimizationResult(
        inputs=current,
        original=dict(inputs),
        runs_used=runs,
        changed=changed,
    )
