"""Evaluation of terms under a :class:`~repro.solver.smt.Model`.

Used both as the solver's model-verification safety net and by the validity
engine to evaluate candidate strategies against adversary functions.
"""

from __future__ import annotations

from typing import Callable, Dict, Generator, Tuple, Union

from ..errors import SolverError
from .smt import Model
from .terms import Kind, Sort, Term

__all__ = ["evaluate", "evaluate_with_oracle"]


def evaluate_with_oracle(
    term: Term,
    ints: Dict[str, int],
    oracle: Callable[[str, Tuple[int, ...]], int],
) -> Union[int, bool]:
    """Evaluate ``term`` calling ``oracle(fn_name, args)`` for UF applications.

    This gives terms their *real-world* semantics: uninterpreted function
    applications are resolved by the actual (opaque) implementation instead
    of a finite model table.  Used to state the paper's soundness theorems
    precisely: an input satisfies a path constraint iff the constraint
    evaluates true under the real functions.
    """

    class _OracleModel(Model):
        def apply(self, fn, args):  # type: ignore[override]
            return oracle(fn.name, args)

    return evaluate(term, _OracleModel(ints=dict(ints)))


def evaluate(term: Term, model: Model) -> Union[int, bool]:
    """Evaluate ``term`` to a Python int or bool under ``model``.

    Unassigned variables take the model's default value; uninterpreted
    function applications are looked up in the model's finite tables, also
    falling back to the default for unlisted points.  Connectives
    short-circuit, so only the subterms that decide the value are evaluated
    (and only those reach ``model.apply``), left to right.
    """
    if not term.args:
        return _eval_leaf(term, model)
    cache: Dict[Term, Union[int, bool]] = {}
    # explicit stack of suspended node evaluations, so depth is unbounded:
    # each yields the children it needs, one at a time, and is sent back
    # their values
    stack = [(term, _eval_node(term, model))]
    value: Union[int, bool, None] = None
    while stack:
        node, steps = stack[-1]
        try:
            child = steps.send(value)
        except StopIteration as done:
            stack.pop()
            value = cache[node] = done.value
            continue
        if not child.args:
            value = _eval_leaf(child, model)
        elif child in cache:
            value = cache[child]
        else:
            stack.append((child, _eval_node(child, model)))
            value = None
    return value  # type: ignore[return-value]


def _eval_leaf(t: Term, model: Model) -> Union[int, bool]:
    k = t.kind
    if k is Kind.CONST_INT:
        return int(t.value)  # type: ignore[arg-type]
    if k is Kind.CONST_BOOL:
        return bool(t.value)
    if k is Kind.VAR:
        if t.sort is Sort.INT:
            return model.ints.get(t.name or "", model.default)
        return model.bools.get(t.name or "", False)
    raise SolverError(f"cannot evaluate term of kind {k}")


def _eval_node(
    t: Term, model: Model
) -> Generator[Term, Union[int, bool], Union[int, bool]]:
    """Evaluate an inner node, yielding each child whose value it needs."""
    k = t.kind
    args = t.args
    if k is Kind.APP:
        assert t.fn is not None
        values = []
        for a in args:
            values.append(int((yield a)))
        return model.apply(t.fn, tuple(values))
    if k is Kind.ADD:
        total = 0
        for a in args:
            total += int((yield a))
        return total
    if k is Kind.NEG:
        return -int((yield args[0]))
    if k is Kind.MUL:
        left = int((yield args[0]))
        return left * int((yield args[1]))
    if k is Kind.EQ:
        left = yield args[0]
        return left == (yield args[1])
    if k is Kind.LE:
        left = int((yield args[0]))
        return left <= int((yield args[1]))
    if k is Kind.LT:
        left = int((yield args[0]))
        return left < int((yield args[1]))
    if k is Kind.NOT:
        return not (yield args[0])
    if k is Kind.AND:
        for a in args:
            if not (yield a):
                return False
        return True
    if k is Kind.OR:
        for a in args:
            if (yield a):
                return True
        return False
    if k is Kind.IMPLIES:
        return (not (yield args[0])) or bool((yield args[1]))
    if k is Kind.ITE:
        return (yield args[1]) if (yield args[0]) else (yield args[2])
    raise SolverError(f"cannot evaluate term of kind {k}")
