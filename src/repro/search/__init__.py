"""Directed search (systematic dynamic test generation) over MiniC."""

from .backends import (
    ExistentialBackend,
    GeneratedTest,
    GenerationRequest,
    QuantifierFreeBackend,
    TestGenBackend,
)
from .checkpoint import CheckpointWriter, ReplayCursor
from .coverage import BranchCoverage
from .corpus import CorpusEntry, ReplayReport, TestCorpus
from .directed import (
    CrashReport,
    DirectedSearch,
    ErrorReport,
    ExecutionRecord,
    SearchConfig,
    SearchResult,
)
from .kernel import SearchKernel, SearchState
from .minimize import MinimizationResult, minimize_error_inputs
from .report import render_report, suite_digest
from .scheduler import (
    CoverageScheduler,
    DfsScheduler,
    FrontierItem,
    FrontierScheduler,
    GenerationalScheduler,
    SCHEDULERS,
    make_scheduler,
    scheduler_names,
)

__all__ = [
    "CheckpointWriter",
    "ReplayCursor",
    "CrashReport",
    "FrontierItem",
    "FrontierScheduler",
    "DfsScheduler",
    "GenerationalScheduler",
    "CoverageScheduler",
    "SCHEDULERS",
    "make_scheduler",
    "scheduler_names",
    "SearchKernel",
    "SearchState",
    "CorpusEntry",
    "ReplayReport",
    "TestCorpus",
    "MinimizationResult",
    "minimize_error_inputs",
    "ExistentialBackend",
    "GeneratedTest",
    "GenerationRequest",
    "QuantifierFreeBackend",
    "TestGenBackend",
    "BranchCoverage",
    "DirectedSearch",
    "ErrorReport",
    "ExecutionRecord",
    "SearchConfig",
    "SearchResult",
    "render_report",
    "suite_digest",
]
