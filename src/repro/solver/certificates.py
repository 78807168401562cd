"""Certificates for validity verdicts: independently re-checkable proofs.

The paper's tests are "derived from validity proofs".  This module makes
the proof object explicit so a downstream consumer can re-verify it with a
fresh solver instance (or export it to SMT-LIB for an external check):

- a :class:`ValidityCertificate` packages the strategy σ and asserts
  ``A ∧ ¬pc[σ]`` is UNSAT — the quantifier-free reduction of
  ``∀F (A ⇒ pc[σ])``;
- an :class:`InvalidityCertificate` packages the adversary interpretation
  and asserts ``∃X pc[f_adv]`` is UNSAT while ``f_adv`` agrees with every
  recorded sample.

``certify`` builds the appropriate certificate from a
:class:`~repro.solver.validity.ValidityResult` and re-checks it
immediately, so a buggy strategy or adversary can never be packaged.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from ..errors import SolverError
from .smt import Model, Solver
from .terms import Term, TermManager
from .validity import (
    AppValue,
    Sample,
    Strategy,
    ValidityChecker,
    ValidityResult,
    ValidityStatus,
)

__all__ = ["ValidityCertificate", "InvalidityCertificate", "certify"]


@dataclass
class ValidityCertificate:
    """Proof that ``∀F ∃X (A ⇒ pc)`` is valid, witnessed by strategy σ."""

    pc: Term
    input_vars: List[Term]
    samples: List[Sample]
    strategy: Strategy

    def check(self, manager: TermManager) -> bool:
        """Re-verify: ``A ∧ ¬pc[σ]`` must be UNSAT."""
        checker = ValidityChecker(manager)
        antecedent = checker._antecedent(self.samples)
        mapping: Dict[Term, Term] = {}
        for v in self.input_vars:
            name = v.name or ""
            if name not in self.strategy.assignments:
                return False
            mapping[v] = checker._strategy_term(self.strategy.assignments[name])
        grounded = manager.substitute(self.pc, mapping)
        solver = Solver(manager)
        solver.add(antecedent)
        return not solver.check(manager.mk_not(grounded)).sat

    def to_smtlib(self, manager: TermManager) -> str:
        """The certificate's UNSAT obligation as an SMT-LIB script."""
        from .printer import script_for_sat

        checker = ValidityChecker(manager)
        antecedent = checker._antecedent(self.samples)
        mapping = {
            v: checker._strategy_term(self.strategy.assignments[v.name or ""])
            for v in self.input_vars
        }
        grounded = manager.substitute(self.pc, mapping)
        return script_for_sat([antecedent, manager.mk_not(grounded)])

    def __str__(self) -> str:
        return (
            f"ValidityCertificate(strategy={self.strategy}, "
            f"samples={len(self.samples)})"
        )


@dataclass
class InvalidityCertificate:
    """Proof that ``∀F ∃X (A ⇒ pc)`` is invalid, witnessed by an adversary."""

    pc: Term
    input_vars: List[Term]
    samples: List[Sample]
    adversary: Model

    def check(self, manager: TermManager) -> bool:
        """Re-verify: the adversary respects samples and defeats all X."""
        checker = ValidityChecker(manager)
        if not checker._consistent_with_samples(self.adversary, self.samples):
            return False
        grounded = checker._pc_under_function(self.pc, self.adversary)
        solver = Solver(manager)
        return not solver.check(grounded).sat

    def __str__(self) -> str:
        return (
            f"InvalidityCertificate(adversary default={self.adversary.default}, "
            f"samples={len(self.samples)})"
        )


def certify(
    manager: TermManager,
    result: ValidityResult,
    pc: Term,
    input_vars: Sequence[Term],
    samples: Sequence[Sample] = (),
):
    """Package a verdict into a certificate and re-check it immediately.

    Returns a :class:`ValidityCertificate` or :class:`InvalidityCertificate`.
    Raises :class:`SolverError` for UNKNOWN verdicts, verdicts lacking a
    witness, or witnesses that fail re-verification.
    """
    if result.status is ValidityStatus.VALID:
        if result.strategy is None:
            raise SolverError("VALID verdict without a strategy")
        cert = ValidityCertificate(
            pc=pc,
            input_vars=list(input_vars),
            samples=list(samples),
            strategy=result.strategy,
        )
        if not cert.check(manager):
            raise SolverError(f"strategy failed re-verification: {result.strategy}")
        return cert
    if result.status is ValidityStatus.INVALID:
        if result.adversary is None:
            # the "A ∧ pc unsatisfiable" fast path has no explicit
            # adversary; any sample-consistent interpretation works
            checker = ValidityChecker(manager)
            fns = sorted(pc.uf_symbols(), key=lambda f: f.name)
            adversary = checker._table_adversary(fns, list(samples), default=0)
        else:
            adversary = result.adversary
        cert = InvalidityCertificate(
            pc=pc,
            input_vars=list(input_vars),
            samples=list(samples),
            adversary=adversary,
        )
        if not cert.check(manager):
            raise SolverError("adversary failed re-verification")
        return cert
    raise SolverError("cannot certify an UNKNOWN verdict")
