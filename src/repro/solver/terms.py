"""Hash-consed term representation for the built-in SMT solver.

Terms form an immutable DAG.  Structurally identical terms are shared via a
per-:class:`TermManager` hash-consing table, so syntactic equality is object
identity and terms can be used as dictionary keys cheaply.

The term language covers exactly the fragment the paper needs: linear integer
arithmetic, boolean structure, and applications of uninterpreted functions
(theory ``T ∪ T_EUF`` in the paper's notation).

Example
-------
>>> tm = TermManager()
>>> x, y = tm.mk_var("x"), tm.mk_var("y")
>>> h = tm.mk_function("h", 1)
>>> pc = tm.mk_eq(x, tm.mk_app(h, [y]))
>>> str(pc)
'(= x (h y))'
"""

from __future__ import annotations

import itertools
from enum import Enum
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Set, Tuple

from ..errors import SortError

__all__ = [
    "Sort",
    "Kind",
    "FunctionSymbol",
    "Term",
    "TermManager",
    "CanonicalQuery",
    "canonical_query",
]


class Sort(Enum):
    """The two sorts of the solver's many-sorted logic."""

    INT = "Int"
    BOOL = "Bool"

    def __str__(self) -> str:  # pragma: no cover - trivial
        return self.value


class Kind(Enum):
    """Syntactic constructor of a term node."""

    CONST_INT = "const_int"
    CONST_BOOL = "const_bool"
    VAR = "var"
    APP = "app"          # uninterpreted function application
    ADD = "+"
    SUB = "-"
    MUL = "*"            # at most one non-constant factor (linear arithmetic)
    NEG = "neg"
    EQ = "="
    LE = "<="
    LT = "<"
    NOT = "not"
    AND = "and"
    OR = "or"
    IMPLIES = "=>"
    ITE = "ite"
    DISTINCT = "distinct"


#: Kinds whose children are compared as an ordered tuple; commutative kinds
#: are canonically sorted by the manager before hash-consing.
_COMMUTATIVE_KINDS = frozenset({Kind.ADD, Kind.MUL, Kind.AND, Kind.OR, Kind.EQ})

_RELATIONAL_KINDS = frozenset({Kind.EQ, Kind.LE, Kind.LT})

#: ``(((leaf, coeff), ...), const)``: the result of :meth:`TermManager.linear_atom`
LinearForm = Tuple[Tuple[Tuple["Term", int], ...], int]


class FunctionSymbol:
    """An uninterpreted function symbol with a fixed arity.

    The paper uses these to model "unknown" program functions (hash,
    crypto, OS calls) during symbolic execution.  All argument and result
    sorts are ``Int``, matching the paper's integer-valued examples.
    """

    __slots__ = ("name", "arity", "_id")
    _counter = itertools.count()

    def __init__(self, name: str, arity: int) -> None:
        if arity < 1:
            raise ValueError(f"function symbol {name!r} must have arity >= 1")
        self.name = name
        self.arity = arity
        self._id = next(FunctionSymbol._counter)

    def __repr__(self) -> str:
        return f"FunctionSymbol({self.name!r}, arity={self.arity})"

    def __str__(self) -> str:
        return self.name


class Term:
    """A single hash-consed node of the term DAG.

    Do not construct directly; use :class:`TermManager` factory methods.
    Identity (``is``) coincides with structural equality for terms created
    by the same manager.
    """

    __slots__ = ("kind", "sort", "args", "value", "name", "fn", "tid", "__weakref__")

    def __init__(
        self,
        kind: Kind,
        sort: Sort,
        args: Tuple["Term", ...],
        value: Optional[object],
        name: Optional[str],
        fn: Optional[FunctionSymbol],
        tid: int,
    ) -> None:
        self.kind = kind
        self.sort = sort
        self.args = args
        self.value = value     # int for CONST_INT, bool for CONST_BOOL
        self.name = name       # variable name for VAR
        self.fn = fn           # FunctionSymbol for APP
        self.tid = tid         # manager-unique id; stable iteration order

    # -- predicates ---------------------------------------------------

    @property
    def is_const(self) -> bool:
        return self.kind in (Kind.CONST_INT, Kind.CONST_BOOL)

    @property
    def is_var(self) -> bool:
        return self.kind is Kind.VAR

    @property
    def is_app(self) -> bool:
        return self.kind is Kind.APP

    @property
    def is_atom(self) -> bool:
        """True for boolean atoms: relational terms, bool vars, bool consts."""
        if self.sort is not Sort.BOOL:
            return False
        return self.kind in _RELATIONAL_KINDS or self.kind in (
            Kind.VAR,
            Kind.CONST_BOOL,
            Kind.DISTINCT,
        )

    # -- hashing / equality -------------------------------------------

    def __hash__(self) -> int:
        return self.tid

    def __eq__(self, other: object) -> bool:
        return self is other

    # -- display -------------------------------------------------------

    def __str__(self) -> str:
        return _to_sexpr(self)

    def __repr__(self) -> str:
        return f"<Term {self!s}>"

    # -- traversal ------------------------------------------------------

    def iter_dag(self) -> Iterator["Term"]:
        """Yield every distinct subterm once, children before parents."""
        seen: Set[int] = set()
        stack: List[Tuple[Term, bool]] = [(self, False)]
        while stack:
            node, expanded = stack.pop()
            if node.tid in seen:
                continue
            if expanded:
                seen.add(node.tid)
                yield node
            else:
                stack.append((node, True))
                for child in node.args:
                    if child.tid not in seen:
                        stack.append((child, False))

    def free_vars(self) -> Set["Term"]:
        """Return the set of variable terms occurring in this term."""
        return {t for t in self.iter_dag() if t.is_var}

    def uf_applications(self) -> List["Term"]:
        """Return all uninterpreted-function application subterms.

        Results are ordered by term id, i.e. by creation order, which makes
        downstream processing deterministic.
        """
        apps = [t for t in self.iter_dag() if t.is_app]
        apps.sort(key=lambda t: t.tid)
        return apps

    def uf_symbols(self) -> Set[FunctionSymbol]:
        """Return the set of uninterpreted function symbols used."""
        return {t.fn for t in self.iter_dag() if t.is_app and t.fn is not None}


def _to_sexpr(term: Term) -> str:
    if term.kind is Kind.CONST_INT:
        return str(term.value)
    if term.kind is Kind.CONST_BOOL:
        return "true" if term.value else "false"
    if term.kind is Kind.VAR:
        return str(term.name)
    if term.kind is Kind.APP:
        assert term.fn is not None
        inner = " ".join(_to_sexpr(a) for a in term.args)
        return f"({term.fn.name} {inner})"
    op = term.kind.value
    inner = " ".join(_to_sexpr(a) for a in term.args)
    return f"({op} {inner})"


class TermManager:
    """Factory and hash-consing table for :class:`Term` objects.

    All terms participating in one solver query must come from the same
    manager.  Factory methods perform sort checking and light constant
    folding / canonicalization so that, e.g., ``mk_add(x, 0)`` returns ``x``
    and ``mk_eq(a, b)`` equals ``mk_eq(b, a)``.
    """

    def __init__(self) -> None:
        self._table: Dict[Tuple[object, ...], Term] = {}
        self._next_id = 0
        self._vars: Dict[str, Term] = {}
        self._functions: Dict[str, FunctionSymbol] = {}
        #: relational atom -> memoized :meth:`linear_atom` result
        self._linear: Dict[Term, LinearForm] = {}
        self.true_ = self._intern(Kind.CONST_BOOL, Sort.BOOL, (), True, None, None)
        self.false_ = self._intern(Kind.CONST_BOOL, Sort.BOOL, (), False, None, None)

    # -- interning core --------------------------------------------------

    def _intern(
        self,
        kind: Kind,
        sort: Sort,
        args: Tuple[Term, ...],
        value: Optional[object],
        name: Optional[str],
        fn: Optional[FunctionSymbol],
    ) -> Term:
        key = (kind, sort, args, value, name, fn)
        found = self._table.get(key)
        if found is not None:
            return found
        term = Term(kind, sort, args, value, name, fn, self._next_id)
        self._next_id += 1
        self._table[key] = term
        return term

    @property
    def num_terms(self) -> int:
        """Number of distinct terms created so far."""
        return self._next_id

    # -- leaves -----------------------------------------------------------

    def mk_int(self, value: int) -> Term:
        """An integer constant."""
        if isinstance(value, bool) or not isinstance(value, int):
            raise SortError(f"mk_int expects a Python int, got {value!r}")
        return self._intern(Kind.CONST_INT, Sort.INT, (), value, None, None)

    def mk_bool(self, value: bool) -> Term:
        """A boolean constant (``true`` / ``false``)."""
        return self.true_ if value else self.false_

    def mk_var(self, name: str, sort: Sort = Sort.INT) -> Term:
        """A named variable.  Re-requesting a name returns the same term."""
        existing = self._vars.get(name)
        if existing is not None:
            if existing.sort is not sort:
                raise SortError(
                    f"variable {name!r} already exists with sort {existing.sort}"
                )
            return existing
        term = self._intern(Kind.VAR, sort, (), None, name, None)
        self._vars[name] = term
        return term

    def fresh_var(self, prefix: str = "_t", sort: Sort = Sort.INT) -> Term:
        """A variable with a name not used before in this manager."""
        index = len(self._vars)
        while f"{prefix}{index}" in self._vars:
            index += 1
        return self.mk_var(f"{prefix}{index}", sort)

    def mk_function(self, name: str, arity: int) -> FunctionSymbol:
        """Declare (or fetch) an uninterpreted function symbol."""
        existing = self._functions.get(name)
        if existing is not None:
            if existing.arity != arity:
                raise SortError(
                    f"function {name!r} already declared with arity {existing.arity}"
                )
            return existing
        fn = FunctionSymbol(name, arity)
        self._functions[name] = fn
        return fn

    def mk_app(self, fn: FunctionSymbol, args: Sequence[Term]) -> Term:
        """Apply an uninterpreted function to integer arguments."""
        args = tuple(args)
        if len(args) != fn.arity:
            raise SortError(
                f"function {fn.name} has arity {fn.arity}, got {len(args)} args"
            )
        for a in args:
            if a.sort is not Sort.INT:
                raise SortError(f"argument {a} of {fn.name} is not Int")
        return self._intern(Kind.APP, Sort.INT, args, None, None, fn)

    # -- arithmetic ---------------------------------------------------------

    def _check_int(self, *terms: Term) -> None:
        for t in terms:
            if t.sort is not Sort.INT:
                raise SortError(f"expected Int term, got {t} : {t.sort}")

    def mk_add(self, *terms: Term) -> Term:
        """n-ary addition with constant folding and flattening."""
        self._check_int(*terms)
        flat: List[Term] = []
        const = 0
        for t in terms:
            parts = t.args if t.kind is Kind.ADD else (t,)
            for p in parts:
                if p.kind is Kind.CONST_INT:
                    const += p.value  # type: ignore[operator]
                else:
                    flat.append(p)
        if const != 0 or not flat:
            flat.append(self.mk_int(const))
        if len(flat) == 1:
            return flat[0]
        flat.sort(key=lambda t: t.tid)
        return self._intern(Kind.ADD, Sort.INT, tuple(flat), None, None, None)

    def mk_neg(self, term: Term) -> Term:
        """Arithmetic negation."""
        self._check_int(term)
        if term.kind is Kind.CONST_INT:
            return self.mk_int(-term.value)  # type: ignore[operator]
        if term.kind is Kind.NEG:
            return term.args[0]
        return self._intern(Kind.NEG, Sort.INT, (term,), None, None, None)

    def mk_sub(self, a: Term, b: Term) -> Term:
        """Binary subtraction, normalized to ``a + (-b)``."""
        return self.mk_add(a, self.mk_neg(b))

    def mk_mul(self, a: Term, b: Term) -> Term:
        """Multiplication; at least one factor must be constant (linearity).

        Non-linear products should be modelled with uninterpreted functions,
        which is exactly the paper's treatment of operations outside the
        solver's theory.
        """
        self._check_int(a, b)
        if a.kind is Kind.CONST_INT and b.kind is Kind.CONST_INT:
            return self.mk_int(a.value * b.value)  # type: ignore[operator]
        if b.kind is Kind.CONST_INT:
            a, b = b, a
        if a.kind is not Kind.CONST_INT:
            raise SortError(
                f"non-linear product ({a}) * ({b}); model it with an "
                "uninterpreted function instead"
            )
        if a.value == 0:
            return self.mk_int(0)
        if a.value == 1:
            return b
        return self._intern(Kind.MUL, Sort.INT, (a, b), None, None, None)

    # -- relations ------------------------------------------------------------

    def mk_eq(self, a: Term, b: Term) -> Term:
        """Equality (over Int or Bool operands of matching sort)."""
        if a.sort is not b.sort:
            raise SortError(f"mk_eq sort mismatch: {a} : {a.sort} vs {b} : {b.sort}")
        if a is b:
            return self.true_
        if a.is_const and b.is_const:
            return self.mk_bool(a.value == b.value)
        if a.tid > b.tid:
            a, b = b, a
        return self._intern(Kind.EQ, Sort.BOOL, (a, b), None, None, None)

    def mk_ne(self, a: Term, b: Term) -> Term:
        """Disequality, represented as ``not (= a b)``."""
        return self.mk_not(self.mk_eq(a, b))

    def mk_le(self, a: Term, b: Term) -> Term:
        """Less-than-or-equal over integers."""
        self._check_int(a, b)
        if a is b:
            return self.true_
        if a.kind is Kind.CONST_INT and b.kind is Kind.CONST_INT:
            return self.mk_bool(a.value <= b.value)  # type: ignore[operator]
        return self._intern(Kind.LE, Sort.BOOL, (a, b), None, None, None)

    def mk_lt(self, a: Term, b: Term) -> Term:
        """Strict less-than over integers."""
        self._check_int(a, b)
        if a is b:
            return self.false_
        if a.kind is Kind.CONST_INT and b.kind is Kind.CONST_INT:
            return self.mk_bool(a.value < b.value)  # type: ignore[operator]
        return self._intern(Kind.LT, Sort.BOOL, (a, b), None, None, None)

    def mk_ge(self, a: Term, b: Term) -> Term:
        """``a >= b``, normalized to ``b <= a``."""
        return self.mk_le(b, a)

    def mk_gt(self, a: Term, b: Term) -> Term:
        """``a > b``, normalized to ``b < a``."""
        return self.mk_lt(b, a)

    def mk_distinct(self, terms: Sequence[Term]) -> Term:
        """Pairwise disequality of all given integer terms."""
        terms = tuple(terms)
        self._check_int(*terms)
        if len(terms) < 2:
            return self.true_
        clauses = [
            self.mk_ne(terms[i], terms[j])
            for i in range(len(terms))
            for j in range(i + 1, len(terms))
        ]
        return self.mk_and(*clauses)

    # -- boolean structure -------------------------------------------------------

    def _check_bool(self, *terms: Term) -> None:
        for t in terms:
            if t.sort is not Sort.BOOL:
                raise SortError(f"expected Bool term, got {t} : {t.sort}")

    def mk_not(self, term: Term) -> Term:
        """Boolean negation with double-negation elimination."""
        self._check_bool(term)
        if term.kind is Kind.CONST_BOOL:
            return self.mk_bool(not term.value)
        if term.kind is Kind.NOT:
            return term.args[0]
        return self._intern(Kind.NOT, Sort.BOOL, (term,), None, None, None)

    def mk_and(self, *terms: Term) -> Term:
        """n-ary conjunction with flattening and unit elimination."""
        self._check_bool(*terms)
        flat: List[Term] = []
        seen: Set[int] = set()
        for t in terms:
            parts = t.args if t.kind is Kind.AND else (t,)
            for p in parts:
                if p is self.false_:
                    return self.false_
                if p is self.true_ or p.tid in seen:
                    continue
                seen.add(p.tid)
                flat.append(p)
        if not flat:
            return self.true_
        if len(flat) == 1:
            return flat[0]
        flat.sort(key=lambda t: t.tid)
        return self._intern(Kind.AND, Sort.BOOL, tuple(flat), None, None, None)

    def mk_or(self, *terms: Term) -> Term:
        """n-ary disjunction with flattening and unit elimination."""
        self._check_bool(*terms)
        flat: List[Term] = []
        seen: Set[int] = set()
        for t in terms:
            parts = t.args if t.kind is Kind.OR else (t,)
            for p in parts:
                if p is self.true_:
                    return self.true_
                if p is self.false_ or p.tid in seen:
                    continue
                seen.add(p.tid)
                flat.append(p)
        if not flat:
            return self.false_
        if len(flat) == 1:
            return flat[0]
        flat.sort(key=lambda t: t.tid)
        return self._intern(Kind.OR, Sort.BOOL, tuple(flat), None, None, None)

    def mk_implies(self, antecedent: Term, consequent: Term) -> Term:
        """Logical implication ``antecedent => consequent``."""
        self._check_bool(antecedent, consequent)
        if antecedent is self.true_:
            return consequent
        if antecedent is self.false_ or consequent is self.true_:
            return self.true_
        if consequent is self.false_:
            return self.mk_not(antecedent)
        return self._intern(
            Kind.IMPLIES, Sort.BOOL, (antecedent, consequent), None, None, None
        )

    def mk_ite(self, cond: Term, then_t: Term, else_t: Term) -> Term:
        """If-then-else over terms of a common sort."""
        self._check_bool(cond)
        if then_t.sort is not else_t.sort:
            raise SortError("mk_ite branches have different sorts")
        if cond is self.true_:
            return then_t
        if cond is self.false_:
            return else_t
        if then_t is else_t:
            return then_t
        return self._intern(
            Kind.ITE, then_t.sort, (cond, then_t, else_t), None, None, None
        )

    # -- substitution -----------------------------------------------------------

    def substitute(self, term: Term, mapping: Dict[Term, Term]) -> Term:
        """Simultaneously replace subterms per ``mapping`` (bottom-up).

        Keys may be any terms (typically variables or UF applications).
        The replacement is applied to the original occurrences only; newly
        created terms are not rewritten again.
        """
        cache: Dict[Term, Term] = {}
        # explicit stack, so depth is unbounded; children are rebuilt before
        # parents and left to right, the order that numbers new terms (term
        # ids decide the argument order of commutative nodes)
        stack: List[Tuple[Term, bool]] = [(term, False)]
        while stack:
            node, expanded = stack.pop()
            if expanded:
                new_args = tuple(cache[a] for a in node.args)
                if new_args == node.args:
                    cache[node] = node
                else:
                    cache[node] = self._rebuild(node, new_args)
                continue
            if node in cache:
                continue
            hit = mapping.get(node)
            if hit is not None:
                cache[node] = hit
            elif not node.args:
                cache[node] = node
            else:
                stack.append((node, True))
                for child in reversed(node.args):
                    if child not in cache:
                        stack.append((child, False))
        return cache[term]

    def _rebuild(self, t: Term, args: Tuple[Term, ...]) -> Term:
        """Re-create a node with new children, re-running canonicalization."""
        k = t.kind
        if k is Kind.APP:
            assert t.fn is not None
            return self.mk_app(t.fn, args)
        if k is Kind.ADD:
            return self.mk_add(*args)
        if k is Kind.NEG:
            return self.mk_neg(args[0])
        if k is Kind.MUL:
            return self.mk_mul(args[0], args[1])
        if k is Kind.EQ:
            return self.mk_eq(args[0], args[1])
        if k is Kind.LE:
            return self.mk_le(args[0], args[1])
        if k is Kind.LT:
            return self.mk_lt(args[0], args[1])
        if k is Kind.NOT:
            return self.mk_not(args[0])
        if k is Kind.AND:
            return self.mk_and(*args)
        if k is Kind.OR:
            return self.mk_or(*args)
        if k is Kind.IMPLIES:
            return self.mk_implies(args[0], args[1])
        if k is Kind.ITE:
            return self.mk_ite(args[0], args[1], args[2])
        raise SortError(f"cannot rebuild term of kind {k}")

    # -- cross-manager import ---------------------------------------------------

    def import_term(self, term: Term, cache: Optional[Dict[Term, Term]] = None) -> Term:
        """Recreate a term from *another* manager inside this one.

        Variables are re-interned by name, :class:`FunctionSymbol` objects
        are shared (they are immutable and identity-keyed everywhere), and
        connectives are rebuilt through the factory methods so local
        canonicalization applies.  Passing the same ``cache`` dict across
        calls amortizes shared subterms of related formulas and guarantees
        that identical source terms map to identical local terms.
        """
        if cache is None:
            cache = {}

        # iterative bottom-up walk: children are always imported before
        # their parents, so deep conditions do not hit the recursion limit
        stack: List[Tuple[Term, bool]] = [(term, False)]
        while stack:
            node, expanded = stack.pop()
            if node in cache:
                continue
            if not expanded:
                stack.append((node, True))
                for child in node.args:
                    if child not in cache:
                        stack.append((child, False))
                continue
            if node.kind is Kind.CONST_INT:
                local = self.mk_int(node.value)  # type: ignore[arg-type]
            elif node.kind is Kind.CONST_BOOL:
                local = self.mk_bool(bool(node.value))
            elif node.kind is Kind.VAR:
                local = self.mk_var(node.name or "", node.sort)
            else:
                args = tuple(cache[a] for a in node.args)
                if node.kind is Kind.APP:
                    assert node.fn is not None
                    local = self.mk_app(node.fn, args)
                else:
                    local = self._rebuild(node, args)
            cache[node] = local
        return cache[term]

    # -- linear normal form ----------------------------------------------------

    def linearize(self, term: Term) -> Tuple[Dict[Term, int], int]:
        """Normalize an Int term into ``sum(coeff * atom) + constant``.

        Atoms are variables and UF applications (treated opaquely), keyed
        in left-to-right depth-first order of first appearance; atoms whose
        coefficients cancel are dropped.  Arithmetic is over ``int`` only:
        :meth:`mk_mul` admits integer constant factors alone.  Raises
        :class:`SortError` on ITE nodes, which must be eliminated before
        arithmetic reasoning.
        """
        self._check_int(term)
        coeffs: Dict[Term, int] = {}
        const = 0
        # explicit stack, so depth is unbounded; children are pushed right
        # to left, so atoms are met (and keyed) left to right
        stack: List[Tuple[Term, int]] = [(term, 1)]
        while stack:
            t, scale = stack.pop()
            kind = t.kind
            if kind is Kind.CONST_INT:
                const += scale * t.value  # type: ignore[operator]
            elif kind is Kind.ADD:
                for a in reversed(t.args):
                    stack.append((a, scale))
            elif kind is Kind.NEG:
                stack.append((t.args[0], -scale))
            elif kind is Kind.MUL:
                c, v = t.args
                assert c.kind is Kind.CONST_INT
                stack.append((v, scale * c.value))  # type: ignore[operator]
            elif kind is Kind.VAR or kind is Kind.APP:
                coeffs[t] = coeffs.get(t, 0) + scale
            else:
                raise SortError(f"cannot linearize term of kind {t.kind}: {t}")
        return {a: c for a, c in coeffs.items() if c != 0}, const

    def linear_atom(self, atom: Term) -> LinearForm:
        """``lhs - rhs`` of an ``=``/``<=``/``<`` atom as ``(pairs, const)``.

        ``pairs`` holds each leaf once with its coefficient: the lhs leaves
        in :meth:`linearize` order, then the rhs leaves not already seen.
        A leaf whose lhs and rhs coefficients cancel keeps a 0 entry, so a
        caller numbering leaves in pair order allocates the same variables
        whether or not the sides cancel.  The result is memoized per atom:
        terms are immutable and interned per manager, so an entry stays
        valid for the manager's lifetime.
        """
        hit = self._linear.get(atom)
        if hit is not None:
            return hit
        if atom.kind not in _RELATIONAL_KINDS:
            raise SortError(f"not a relational atom: {atom}")
        lhs, rhs = atom.args
        coeffs, const_l = self.linearize(lhs)
        coeffs_r, const_r = self.linearize(rhs)
        for leaf, c in coeffs_r.items():
            coeffs[leaf] = coeffs.get(leaf, 0) - c
        entry = (tuple(coeffs.items()), const_l - const_r)
        self._linear[atom] = entry
        return entry


class CanonicalQuery:
    """Alpha-renamed canonical form of a solver query (a formula list).

    Two queries have equal ``key`` exactly when they are identical up to a
    bijective renaming of variables and function symbols.  Commutative
    arguments are already tid-sorted by the :class:`TermManager` at
    construction, so the key preserves argument order as stored — which is
    precisely the structure the solver will see.  That makes the key strong
    enough for result caching: a deterministic solver produces the *same*
    answer (modulo the recorded renaming) for any query with the same key.

    ``variables`` and ``functions`` record, in canonical-index order, the
    concrete leaves of *this* query — the translation tables used to map a
    cached model back onto the asking query's names.
    """

    __slots__ = ("key", "variables", "functions")

    def __init__(
        self,
        key: Tuple[object, ...],
        variables: Tuple[Term, ...],
        functions: Tuple[FunctionSymbol, ...],
    ) -> None:
        self.key = key
        self.variables = variables
        self.functions = functions


def canonical_query(formulas: Sequence[Term]) -> CanonicalQuery:
    """Compute the renaming-invariant canonical form of a formula list.

    Variables and function symbols are numbered by first occurrence in a
    deterministic left-to-right, children-first traversal of the formulas
    in the order given.  The resulting key is a hashable nested tuple.
    """
    var_index: Dict[Term, int] = {}
    var_order: List[Term] = []
    fn_index: Dict[FunctionSymbol, int] = {}
    fn_order: List[FunctionSymbol] = []
    memo: Dict[Term, Tuple[object, ...]] = {}

    def encode(root: Term) -> Tuple[object, ...]:
        stack: List[Tuple[Term, bool]] = [(root, False)]
        while stack:
            node, expanded = stack.pop()
            if node in memo:
                continue
            if not expanded:
                stack.append((node, True))
                # reversed so children are encoded left-to-right
                for child in reversed(node.args):
                    if child not in memo:
                        stack.append((child, False))
                continue
            kind = node.kind
            if kind is Kind.CONST_INT:
                enc: Tuple[object, ...] = ("i", node.value)
            elif kind is Kind.CONST_BOOL:
                enc = ("b", bool(node.value))
            elif kind is Kind.VAR:
                idx = var_index.get(node)
                if idx is None:
                    idx = len(var_order)
                    var_index[node] = idx
                    var_order.append(node)
                enc = ("v", node.sort.value, idx)
            elif kind is Kind.APP:
                assert node.fn is not None
                fidx = fn_index.get(node.fn)
                if fidx is None:
                    fidx = len(fn_order)
                    fn_index[node.fn] = fidx
                    fn_order.append(node.fn)
                enc = ("a", fidx, node.fn.arity) + tuple(
                    memo[a] for a in node.args
                )
            else:
                enc = (kind.value,) + tuple(memo[a] for a in node.args)
            memo[node] = enc
        return memo[root]

    key = tuple(encode(f) for f in formulas)
    return CanonicalQuery(key, tuple(var_order), tuple(fn_order))
