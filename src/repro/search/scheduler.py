"""Pluggable frontier scheduling for the staged search kernel.

The directed search is correct for *any* order of pending branch flips
(paper §2, Theorem 1 holds per flipped condition, not per schedule), so
the order is a policy choice.  This module isolates that choice behind
:class:`FrontierScheduler`: the kernel pushes executed runs onto the
scheduler, the scheduler decides which pending run to expand next
(:meth:`~FrontierScheduler.select`) and in which order to attempt that
run's candidate flips (:meth:`~FrontierScheduler.order_flips`).

Three schedulers ship:

``dfs``
    Bit-for-bit the classic expansion order: runs expand in creation
    order (children after their parent finishes, descending the negation
    tree in decision order), flips in decision order.  The suite digest
    under ``dfs`` is byte-identical to the pre-kernel search.
``generational``
    SAGE-style generational search: score whole runs by how many new
    branch outcomes they covered and expand *all* flips of the
    best-scoring pending run first (ties: oldest run first).
``coverage``
    Flip-level coverage guidance: prefer pending runs with the most
    candidate flips whose branch *targets* — the ``(branch_id, not
    taken)`` outcome a successful flip would exercise — are still
    uncovered per :class:`~repro.search.coverage.BranchCoverage`, and
    attempt uncovered-target flips before already-covered ones (ties
    broken deterministically by decision index).

Every scheduler is deterministic — selection is a pure function of the
pushed items and (for ``coverage``) the coverage set, both of which
evolve identically on every run of the same search — so a checkpoint
stores no queue: replaying the decision log under the same scheduler
rebuilds it exactly.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple, TYPE_CHECKING

from ..errors import ReproError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (directed imports us)
    from .coverage import BranchCoverage
    from .directed import ExecutionRecord

__all__ = [
    "FrontierItem",
    "FrontierScheduler",
    "DfsScheduler",
    "GenerationalScheduler",
    "CoverageScheduler",
    "SCHEDULERS",
    "make_scheduler",
    "scheduler_names",
]


@dataclass
class FrontierItem:
    """One pending expansion: a run, its generational floor, its flips.

    ``start`` is the generational bound (children may only negate
    conditions at positions >= their creating index + 1); ``indices`` are
    the candidate flip positions, derived once when the run was pushed
    (they are a pure function of the run's recorded path constraint).
    ``seq`` is the push order — the tiebreak every scheduler falls back
    to, and the order :meth:`FrontierScheduler.select_oldest` recovers
    when a scheduler fault is contained.
    """

    record: "ExecutionRecord"
    start: int
    indices: Tuple[int, ...]
    seq: int


class FrontierScheduler:
    """Base frontier scheduler: an insertion-ordered queue with a policy.

    Subclasses override :meth:`_pick` (which pending item to expand next,
    as a position into the insertion-ordered queue) and optionally
    :meth:`order_flips` (the order to attempt one record's candidate
    flips).  Both must be deterministic functions of scheduler state —
    no wall clock, no RNG — so suites stay byte-identical across reruns
    and checkpoint resumes.
    """

    name = "base"

    def __init__(self, coverage: Optional["BranchCoverage"] = None) -> None:
        self.coverage = coverage
        self._items: List[FrontierItem] = []
        self._next_seq = 0
        #: times select() returned an item that was not the oldest pending
        self.promotions = 0

    # -- queue management --------------------------------------------------

    def push(
        self, record: "ExecutionRecord", start: int, indices: Sequence[int]
    ) -> FrontierItem:
        """Enqueue one executed run for later expansion."""
        item = FrontierItem(
            record=record,
            start=start,
            indices=tuple(indices),
            seq=self._next_seq,
        )
        self._next_seq += 1
        self._items.append(item)
        return item

    def select(self) -> FrontierItem:
        """Pop the next run to expand, per this scheduler's policy."""
        if not self._items:
            raise IndexError("select() on an empty frontier")
        pos = self._pick()
        item = self._items.pop(pos)
        if pos != 0:
            self.promotions += 1
        return item

    def select_oldest(self) -> FrontierItem:
        """FIFO fallback: the containment path for a failing scheduler."""
        if not self._items:
            raise IndexError("select_oldest() on an empty frontier")
        return self._items.pop(0)

    def _pick(self) -> int:
        """Position (into the insertion-ordered queue) of the next item."""
        raise NotImplementedError

    def order_flips(
        self, record: "ExecutionRecord", indices: Sequence[int]
    ) -> List[int]:
        """The order to attempt one record's candidate flips (default: as
        recorded, i.e. decision order)."""
        return list(indices)

    def __len__(self) -> int:
        return len(self._items)

    def __bool__(self) -> bool:
        return bool(self._items)


class DfsScheduler(FrontierScheduler):
    """The classic order: expand runs in creation order, flips in decision
    order — bit-for-bit the pre-kernel search (and its suite digest)."""

    name = "dfs"

    def _pick(self) -> int:
        return 0


class GenerationalScheduler(FrontierScheduler):
    """SAGE-style generational search: expand the pending run that covered
    the most new branch outcomes first; all of its flips run before the
    next run is considered.  Ties go to the oldest pending run."""

    name = "generational"

    def _pick(self) -> int:
        return max(
            range(len(self._items)),
            key=lambda i: (
                self._items[i].record.new_coverage,
                -self._items[i].record.index,
            ),
        )


class CoverageScheduler(FrontierScheduler):
    """Flip-level coverage guidance against the live coverage set.

    A candidate flip at decision index ``i`` targets the branch outcome
    ``(branch_id, not taken)`` of the condition it negates; the flip is
    *productive* while that outcome is uncovered.  Runs are selected by
    their number of productive pending flips (ties: oldest run), and a
    selected run's flips are attempted productive-first (ties: decision
    index).  Both rankings consult coverage at selection time only, so
    the order is a deterministic function of the search prefix.
    """

    name = "coverage"

    def _flip_uncovered(self, record: "ExecutionRecord", index: int) -> bool:
        conditions = record.result.path_conditions
        if index >= len(conditions):
            return False
        pc = conditions[index]
        if pc.branch_id < 0 or pc.path_pos < 0:
            return False  # non-branch condition: nothing to newly cover
        if self.coverage is None:
            return True
        return not self.coverage.is_covered(pc.branch_id, not pc.taken)

    def _productive_flips(self, item: FrontierItem) -> int:
        return sum(
            1 for i in item.indices if self._flip_uncovered(item.record, i)
        )

    def _pick(self) -> int:
        return max(
            range(len(self._items)),
            key=lambda i: (
                self._productive_flips(self._items[i]),
                -self._items[i].seq,
            ),
        )

    def order_flips(
        self, record: "ExecutionRecord", indices: Sequence[int]
    ) -> List[int]:
        return sorted(
            indices,
            key=lambda i: (0 if self._flip_uncovered(record, i) else 1, i),
        )


#: registered scheduler implementations, by config name
SCHEDULERS: Dict[str, type] = {
    DfsScheduler.name: DfsScheduler,
    GenerationalScheduler.name: GenerationalScheduler,
    CoverageScheduler.name: CoverageScheduler,
}


def scheduler_names() -> Tuple[str, ...]:
    """The allowed ``SearchConfig.scheduler`` values, sorted."""
    return tuple(sorted(SCHEDULERS))


def make_scheduler(
    name: str, coverage: Optional["BranchCoverage"] = None
) -> FrontierScheduler:
    """Instantiate the scheduler registered under ``name``."""
    try:
        cls = SCHEDULERS[name]
    except KeyError:
        raise ReproError(
            f"unknown scheduler {name!r} "
            f"(allowed: {', '.join(scheduler_names())})"
        )
    return cls(coverage=coverage)
