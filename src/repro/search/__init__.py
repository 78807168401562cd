"""Directed search (systematic dynamic test generation) over MiniC."""

from .._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(
    __name__,
    globals(),
    {
        ".backends": [
            "ExistentialBackend", "GeneratedTest", "GenerationRequest",
            "QuantifierFreeBackend", "TestGenBackend",
        ],
        ".checkpoint": ["CheckpointWriter", "ReplayCursor"],
        ".coverage": ["BranchCoverage"],
        ".corpus": ["CorpusEntry", "ReplayReport", "TestCorpus"],
        ".directed": [
            "CrashReport", "DirectedSearch", "ErrorReport", "ExecutionRecord",
            "SearchConfig", "SearchResult",
        ],
        ".kernel": ["SearchKernel", "SearchState"],
        ".report": ["render_report", "suite_digest"],
        ".scheduler": [
            "CoverageScheduler", "DfsScheduler", "FrontierItem",
            "FrontierScheduler", "GenerationalScheduler", "SCHEDULERS",
            "make_scheduler", "scheduler_names",
        ],
    },
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
