"""repro — a reproduction of "Higher-Order Test Generation" (PLDI 2011).

Patrice Godefroid's paper introduces test generation from *validity
proofs* of first-order formulas with uninterpreted functions, recording
runtime input-output *samples* of unknown functions to make the derived
test strategies concrete.  This package implements the whole stack from
scratch:

- :mod:`repro.solver` — SMT solving (CDCL SAT, EUF congruence closure,
  simplex + branch-and-bound LIA) and the validity/strategy engine;
- :mod:`repro.lang` — MiniC, a small C-like language with a parser and
  concrete interpreter;
- :mod:`repro.symbolic` — the concolic machine with the paper's four
  imprecision treatments (unsound / sound / delayed-sound concretization
  and higher-order UF mode);
- :mod:`repro.core` — higher-order test generation: IOF sample store,
  ``POST(pc)`` construction, multi-step test generation;
- :mod:`repro.search` — the DART-style directed search with divergence
  detection and branch coverage;
- :mod:`repro.apps` — the paper's example programs and the §7 lexer
  application;
- :mod:`repro.baselines` — blackbox random fuzzing and static test
  generation, the techniques the paper contrasts against.

The supported library surface is the :mod:`repro.api` facade —
:func:`generate_tests`, :class:`~repro.api.Client`, :func:`replay` — documented
in docs/API.md.  Deeper imports keep working but are not part of the
compatibility promise.

Quickstart::

    from repro import generate_tests, NativeRegistry

    src = '''
    int obscure(int x, int y) {
        if (x == hash(y)) { error("reached"); }
        return 0;
    }
    '''
    natives = NativeRegistry()
    natives.register("hash", lambda y: (y * 31 + 7) % 1000)
    result = generate_tests(
        src, strategy="hotg", natives=natives, seed={"x": 33, "y": 42},
        config={"max_runs": 20},
    )
    assert result.found_error
"""

from ._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(
    __name__,
    globals(),
    {
        ".errors": [
            "InterpError", "ParseError", "ReproError", "ResourceLimitError",
            "SolverError", "StepBudgetExceeded", "StrategyError",
            "SymbolicExecutionError",
        ],
        ".lang": [
            "Interpreter", "NativeRegistry", "Program", "RunResult",
            "parse_expression", "parse_program",
        ],
        ".solver": [
            "CongruenceClosure", "FunctionSymbol", "LiaSolver", "Model",
            "SatSolver", "Solver", "Sort", "Term", "TermManager", "evaluate",
        ],
        ".solver.validity": [
            "AppValue", "Sample", "SampleRequest", "Strategy",
            "ValidityChecker", "ValidityResult", "ValidityStatus",
        ],
        ".symbolic": [
            "ConcolicEngine", "ConcolicResult", "ConcretizationMode",
            "PathCondition",
        ],
        ".core": [
            "HigherOrderBackend", "MultiStepDriver", "PostFormula",
            "SampleStore", "alternate_constraint", "build_post",
            "negatable_indices",
        ],
        ".search": [
            "BranchCoverage", "DirectedSearch", "ErrorReport",
            "ExistentialBackend", "QuantifierFreeBackend", "SearchConfig",
            "SearchResult",
        ],
        ".baselines": ["FuzzResult", "RandomFuzzer", "StaticTestGenerator"],
        ".": ["api"],
        ".api": [
            "CampaignReport", "CampaignSpec", "JobResult", "SearchJob",
            "generate_tests", "replay",
        ],
    },
)

__version__ = "1.0.0"

__all__ = [
    # errors
    "InterpError",
    "ParseError",
    "ReproError",
    "ResourceLimitError",
    "SolverError",
    "StepBudgetExceeded",
    "StrategyError",
    "SymbolicExecutionError",
    # language
    "Interpreter",
    "NativeRegistry",
    "Program",
    "RunResult",
    "parse_expression",
    "parse_program",
    # solver
    "CongruenceClosure",
    "FunctionSymbol",
    "LiaSolver",
    "Model",
    "SatSolver",
    "Solver",
    "Sort",
    "Term",
    "TermManager",
    "evaluate",
    # validity
    "AppValue",
    "Sample",
    "SampleRequest",
    "Strategy",
    "ValidityChecker",
    "ValidityResult",
    "ValidityStatus",
    # concolic
    "ConcolicEngine",
    "ConcolicResult",
    "ConcretizationMode",
    "PathCondition",
    # core
    "HigherOrderBackend",
    "MultiStepDriver",
    "PostFormula",
    "SampleStore",
    "alternate_constraint",
    "build_post",
    "negatable_indices",
    # search
    "BranchCoverage",
    "DirectedSearch",
    "ErrorReport",
    "ExistentialBackend",
    "QuantifierFreeBackend",
    "SearchConfig",
    "SearchResult",
    # baselines
    "FuzzResult",
    "RandomFuzzer",
    "StaticTestGenerator",
    # the stable facade (docs/API.md)
    "api",
    "generate_tests",
    "replay",
    "CampaignReport",
    "CampaignSpec",
    "JobResult",
    "SearchJob",
    "__version__",
]
