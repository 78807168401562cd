"""Higher-order test generation: samples, POST formulas, multi-step driver."""

from .._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(
    __name__,
    globals(),
    {
        ".samples": ["SampleStore"],
        ".post": [
            "PostFormula", "alternate_constraint", "build_post",
            "negatable_indices",
        ],
        ".hotg": ["HigherOrderBackend", "MultiStepDriver", "ProbeOutcome"],
        ".summaries": [
            "CompositionalReachability", "FunctionSummary", "SummaryCase",
            "SummaryExtractor",
        ],
    },
)

__all__ = [
    "CompositionalReachability",
    "FunctionSummary",
    "SummaryCase",
    "SummaryExtractor",
    "SampleStore",
    "PostFormula",
    "alternate_constraint",
    "build_post",
    "negatable_indices",
    "HigherOrderBackend",
    "MultiStepDriver",
    "ProbeOutcome",
]
