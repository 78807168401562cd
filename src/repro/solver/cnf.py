"""Tseitin conversion from term-level boolean structure to CNF.

Boolean structure of a formula is encoded into SAT clauses while *theory
atoms* (arithmetic relations over integers) become opaque SAT variables.
The :class:`CnfConverter` keeps the bidirectional mapping between atoms and
SAT variables so the lazy SMT loop can translate boolean models back into
sets of theory literals.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from ..errors import SolverError
from .sat import SatSolver
from .terms import Kind, Sort, Term, TermManager

__all__ = ["CnfConverter"]


class CnfConverter:
    """Incrementally encodes boolean formulas into a :class:`SatSolver`.

    Each distinct theory atom (``=``, ``<=``, ``<`` nodes and boolean
    variables) is assigned one SAT variable.  Internal connectives get
    Tseitin definition variables.  :meth:`literal_for` adds a formula's
    definition clauses and returns its root literal; the caller asserts
    it (unguarded, or guarded by a session frame's activation literal).
    """

    def __init__(self, manager: TermManager, sat: SatSolver) -> None:
        self._tm = manager
        self._sat = sat
        self._atom_to_svar: Dict[Term, int] = {}
        self._svar_to_atom: Dict[int, Term] = {}
        self._defined: Dict[Term, int] = {}  # term -> literal for its truth

    # -- public API ------------------------------------------------------------

    @property
    def atoms(self) -> Dict[Term, int]:
        """Mapping from theory atoms to their SAT variables."""
        return dict(self._atom_to_svar)

    def literal_for(self, formula: Term) -> int:
        """Encode ``formula`` and return a literal equivalent to its truth."""
        return self._encode(formula)

    def model_literals(self, model: Dict[int, bool]) -> List[Tuple[Term, bool]]:
        """Translate a SAT model into (atom, polarity) theory literals."""
        out: List[Tuple[Term, bool]] = []
        for svar, atom in self._svar_to_atom.items():
            if svar in model:
                out.append((atom, model[svar]))
        return out

    # -- encoding ---------------------------------------------------------------

    def _atom_var(self, atom: Term) -> int:
        var = self._atom_to_svar.get(atom)
        if var is None:
            var = self._sat.new_var()
            self._atom_to_svar[atom] = var
            self._svar_to_atom[var] = atom
        return var

    def _encode(self, t: Term) -> int:
        cached = self._defined.get(t)
        if cached is not None:
            return cached
        lit = self._encode_uncached(t)
        self._defined[t] = lit
        return lit

    def _encode_uncached(self, t: Term) -> int:
        k = t.kind
        if k is Kind.CONST_BOOL:
            # a fresh variable pinned true; `false` is its negation
            var = self._sat.new_var()
            self._sat.add_clause([var])
            return var if t.value else -var
        if k is Kind.EQ and t.args[0].sort is Sort.BOOL:
            # boolean equality is an iff, not a theory atom
            a = self._encode(t.args[0])
            b = self._encode(t.args[1])
            out = self._sat.new_var()
            self._sat.add_clause([-out, -a, b])
            self._sat.add_clause([-out, a, -b])
            self._sat.add_clause([out, a, b])
            self._sat.add_clause([out, -a, -b])
            return out
        if t.is_atom:
            return self._atom_var(t)
        if k is Kind.NOT:
            return -self._encode(t.args[0])
        if k is Kind.AND:
            arg_lits = [self._encode(a) for a in t.args]
            out = self._sat.new_var()
            for al in arg_lits:
                self._sat.add_clause([-out, al])
            self._sat.add_clause([out] + [-al for al in arg_lits])
            return out
        if k is Kind.OR:
            arg_lits = [self._encode(a) for a in t.args]
            out = self._sat.new_var()
            for al in arg_lits:
                self._sat.add_clause([out, -al])
            self._sat.add_clause([-out] + arg_lits)
            return out
        if k is Kind.IMPLIES:
            a = self._encode(t.args[0])
            b = self._encode(t.args[1])
            out = self._sat.new_var()
            # out <-> (-a \/ b)
            self._sat.add_clause([-out, -a, b])
            self._sat.add_clause([out, a])
            self._sat.add_clause([out, -b])
            return out
        if k is Kind.ITE and t.sort is Sort.BOOL:
            c = self._encode(t.args[0])
            a = self._encode(t.args[1])
            b = self._encode(t.args[2])
            out = self._sat.new_var()
            self._sat.add_clause([-out, -c, a])
            self._sat.add_clause([-out, c, b])
            self._sat.add_clause([out, -c, -a])
            self._sat.add_clause([out, c, -b])
            return out
        raise SolverError(f"cannot encode term of kind {k}: {t}")
