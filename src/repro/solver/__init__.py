"""From-scratch SMT solving stack for quantifier-free LIA + EUF.

Public entry points:

- :class:`~repro.solver.terms.TermManager` — build formulas.
- :class:`~repro.solver.smt.Solver` — satisfiability checking with models.
- :class:`~repro.solver.validity.ValidityChecker` — the paper's validity
  queries ``∀F ∃X (A ⇒ pc)`` with test-strategy extraction.
- :class:`~repro.solver.euf.CongruenceClosure` — standalone EUF reasoning.
- :class:`~repro.solver.lia.LiaSolver` — standalone integer arithmetic.
- :class:`~repro.solver.sat.SatSolver` — standalone CDCL SAT.
"""

from .._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(
    __name__,
    globals(),
    {
        ".terms": ["FunctionSymbol", "Kind", "Sort", "Term", "TermManager"],
        ".sat": ["SatSolver", "SatResult", "SatStats"],
        ".euf": ["CongruenceClosure", "EufResult", "check_euf_conjunction"],
        ".simplex": ["Simplex", "SimplexResult"],
        ".lia": ["LiaSolver", "LiaResult"],
        ".intervals": ["Bound", "BoundsAnalysis"],
        ".cache": [
            "QueryCache", "default_cache", "set_default_cache", "use_cache",
        ],
        ".session": ["PrefixSession", "SolverSession"],
        ".smt": ["Solver", "Model", "CheckResult"],
        ".evalmodel": ["evaluate", "evaluate_with_oracle"],
        ".nnf": ["atoms_of", "conjunctive_branches", "to_nnf"],
        ".printer": [
            "script_for_sat", "script_for_validity", "term_to_smtlib",
        ],
        ".certificates": [
            "InvalidityCertificate", "ValidityCertificate", "certify",
        ],
    },
)

__all__ = [
    "Bound",
    "BoundsAnalysis",
    "evaluate_with_oracle",
    "atoms_of",
    "conjunctive_branches",
    "to_nnf",
    "script_for_sat",
    "script_for_validity",
    "term_to_smtlib",
    "InvalidityCertificate",
    "ValidityCertificate",
    "certify",
    "FunctionSymbol",
    "Kind",
    "Sort",
    "Term",
    "TermManager",
    "SatSolver",
    "SatResult",
    "SatStats",
    "CongruenceClosure",
    "EufResult",
    "check_euf_conjunction",
    "Simplex",
    "SimplexResult",
    "LiaSolver",
    "LiaResult",
    "Solver",
    "Model",
    "CheckResult",
    "evaluate",
    "QueryCache",
    "default_cache",
    "set_default_cache",
    "use_cache",
    "PrefixSession",
    "SolverSession",
]
