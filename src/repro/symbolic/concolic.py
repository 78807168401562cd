"""Side-by-side concrete + symbolic (concolic) execution of MiniC.

This is the paper's ``executeSymbolic`` (Figures 1–3): the program runs on
concrete inputs while a symbolic store tracks how values depend on the
inputs, and a *path constraint* collects input conditions at every
conditional.  The four :class:`ConcretizationMode` values implement the
paper's treatments of imprecision:

``UNSOUND``
    DART's default (Figure 1 without line 14): an expression outside the
    solver's theory is silently replaced by its runtime value.  Path
    constraints may be unsound → divergences (Section 3.2).

``SOUND``
    Figure 1 *with* line 14: every concretization eagerly injects pinning
    constraints ``x_i = I_i`` for all input variables feeding the
    concretized expression (Theorem 2).

``SOUND_DELAYED``
    The variant sketched at the end of Section 3.3: pins are attached to
    the concretized value and only injected into the path constraint when
    (and if) the value actually reaches a recorded condition.

``HIGHER_ORDER``
    Figure 3: native calls and unknown instructions become uninterpreted
    function applications, and every concrete call is recorded as an
    input-output *sample* in the IOF table.

Sources of imprecision handled:

- native (opaque) function calls — the paper's "unknown functions";
- non-linear arithmetic (``x*y``, ``x/y``, ``x%y`` with symbolic operands)
  — the paper's "unknown instructions", modelled in HIGHER_ORDER mode by
  the pure binary UFs ``__mul__``, ``__div__``, ``__mod__``;
- array accesses at symbolic indices — store-dependent, hence *not*
  representable as a pure UF; these use (delayed) sound concretization in
  every mode, as the paper's Section 6 prescribes for stateful operations.

There is one machine: :class:`ConcolicEngine` holds the engine state and
the operand-level helpers, and the bytecode VM's shadow loop
(:func:`repro.lang.bytecode.exec_concolic`) drives them over the
compiled program.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field
from enum import Enum
from typing import Dict, FrozenSet, List, Optional, Sequence, Set, Tuple

from ..errors import InterpError
from ..faults import current_fault_plan
from ..lang.ast import Program
from ..lang.bytecode import compile_program, exec_concolic
from ..lang.interp import DivisionByZero, _ErrorSignal, c_div, c_mod, truthy
from ..lang.natives import NativeRegistry
from ..obs.metrics import default_registry
from ..solver.terms import FunctionSymbol, Term, TermManager
from ..solver.validity import Sample

__all__ = [
    "ConcretizationMode",
    "PathCondition",
    "ConcolicResult",
    "ConcolicEngine",
    "SymValue",
]


class ConcretizationMode(Enum):
    """How symbolic execution deals with expressions outside its theory."""

    UNSOUND = "unsound"
    SOUND = "sound"
    SOUND_DELAYED = "sound_delayed"
    HIGHER_ORDER = "higher_order"


@dataclass(frozen=True)
class SymValue:
    """A value in the side-by-side machine: concrete int + optional term.

    ``term`` is the symbolic expression over input variables (INT sort);
    ``bool_term`` caches a BOOL-sorted form for values produced by
    comparisons/logical operators; ``pins`` carries deferred concretization
    pins (input variable names) in ``SOUND_DELAYED`` mode.
    """

    concrete: int
    term: Optional[Term] = None
    bool_term: Optional[Term] = None
    pins: FrozenSet[str] = frozenset()

    @property
    def is_symbolic(self) -> bool:
        return self.term is not None or self.bool_term is not None

    def as_int_term(self, tm: TermManager) -> Optional[Term]:
        """INT-sorted term, encoding a boolean as ``ite(b, 1, 0)``."""
        if self.term is not None:
            return self.term
        if self.bool_term is not None:
            return tm.mk_ite(self.bool_term, tm.mk_int(1), tm.mk_int(0))
        return None

    def as_bool_term(self, tm: TermManager) -> Optional[Term]:
        """BOOL-sorted term, encoding an int as ``t != 0``."""
        if self.bool_term is not None:
            return self.bool_term
        if self.term is not None:
            return tm.mk_ne(self.term, tm.mk_int(0))
        return None


@dataclass(frozen=True)
class PathCondition:
    """One conjunct of the path constraint.

    ``is_concretization`` marks pinning constraints ``x_i = I_i``, which the
    directed search must never negate (Section 3.3: "concretization
    constraints should not be negated ... their only purpose is to
    guarantee soundness").
    """

    term: Term
    branch_id: int = -1
    taken: bool = True
    is_concretization: bool = False
    line: int = 0
    #: index into the run's branch trace (``ConcolicResult.path``) of the
    #: branch occurrence this condition came from; -1 for pins
    path_pos: int = -1

    def __str__(self) -> str:
        marker = " [pin]" if self.is_concretization else ""
        return f"{self.term}{marker}"


@dataclass
class ConcolicResult:
    """Everything one concolic run produces."""

    inputs: Dict[str, int]
    returned: Optional[int] = None
    #: symbolic expression of the return value over the input variables
    #: (None when the return value is a plain concrete constant)
    returned_term: Optional[Term] = None
    error: bool = False
    error_message: str = ""
    error_line: int = 0
    #: branch trace (branch_id, taken), the control path w
    path: List[Tuple[int, bool]] = field(default_factory=list)
    covered: Set[Tuple[int, bool]] = field(default_factory=set)
    #: the path constraint, in execution order
    path_conditions: List[PathCondition] = field(default_factory=list)
    #: IOF samples observed during this run (HIGHER_ORDER records all calls)
    samples: List[Sample] = field(default_factory=list)
    #: symbolic input variables, name -> Term
    input_vars: Dict[str, Term] = field(default_factory=dict)
    steps: int = 0
    #: count of concretization events (imprecision encountered)
    concretizations: int = 0
    #: count of UF applications created (HIGHER_ORDER)
    uf_applications: int = 0

    @property
    def path_key(self) -> Tuple[Tuple[int, bool], ...]:
        return tuple(self.path)


#: comparison operator -> (concrete test, term constructor)
_COMPARISONS = {
    "==": (operator.eq, TermManager.mk_eq),
    "!=": (operator.ne, TermManager.mk_ne),
    "<": (operator.lt, TermManager.mk_lt),
    "<=": (operator.le, TermManager.mk_le),
    ">": (operator.gt, TermManager.mk_gt),
    ">=": (operator.ge, TermManager.mk_ge),
}


def _int_term_or_const(value: SymValue, tm: TermManager) -> Term:
    """The value's INT term, or its concrete value as a constant."""
    term = value.as_int_term(tm)
    return term if term is not None else tm.mk_int(value.concrete)


class ConcolicEngine:
    """The concolic executor.

    Parameters
    ----------
    program, natives:
        The MiniC program and its native (opaque) function registry.
    mode:
        The concretization mode (see module docstring).
    manager:
        Optional shared :class:`TermManager`; pass the same manager across
        runs of one testing session so input variables and UF symbols stay
        identified (required by the directed search and the HOTG driver).
    record_samples:
        Record IOF samples for *all* native calls even outside
        HIGHER_ORDER mode (useful for the cross-run learning experiments).
    """

    #: names of the unknown-instruction UFs (paper §4.1)
    MUL_UF = "__mul__"
    DIV_UF = "__div__"
    MOD_UF = "__mod__"

    #: synthetic branch ids for injected safety checks (paper §3.2:
    #: "additional constraints are automatically injected in path
    #: constraints for checking additional program properties")
    CHECK_DIV = -10
    CHECK_BOUNDS_LOW = -11
    CHECK_BOUNDS_HIGH = -12

    def __init__(
        self,
        program: Program,
        natives: Optional[NativeRegistry] = None,
        mode: ConcretizationMode = ConcretizationMode.HIGHER_ORDER,
        manager: Optional[TermManager] = None,
        step_budget: int = 1_000_000,
        record_samples: bool = True,
    ) -> None:
        self.program = program
        self.natives = natives if natives is not None else NativeRegistry()
        self.mode = mode
        self.tm = manager if manager is not None else TermManager()
        self.step_budget = step_budget
        self.record_samples = record_samples
        self._fn_symbols: Dict[str, FunctionSymbol] = {}

    # -- public API ----------------------------------------------------------

    def run(self, entry: str, inputs: Dict[str, int]) -> ConcolicResult:
        """Execute ``entry`` concolically on the given concrete inputs.

        The program runs on the bytecode VM's concolic shadow loop
        (:func:`repro.lang.bytecode.exec_concolic`), which calls back into
        the operand helpers below for every value that carries a term.
        """
        # fault-injection site "interp": a forced step-budget blowup, for
        # exercising the search's crash containment deterministically
        current_fault_plan().fire("interp")
        fn = self.program.function(entry)
        missing = [p for p in fn.params if p not in inputs]
        if missing:
            raise InterpError(f"missing inputs for parameters {missing}")
        result = ConcolicResult(inputs=dict(inputs))
        args = []
        for p in fn.params:
            var = self.tm.mk_var(p)
            result.input_vars[p] = var
            args.append(SymValue(concrete=int(inputs[p]), term=var))
        try:
            value = exec_concolic(
                self, compile_program(self.program), entry, args, result
            )
            result.returned = value.concrete
            result.returned_term = value.as_int_term(self.tm)
        except _ErrorSignal as err:
            result.error = True
            result.error_message = err.message
            result.error_line = err.line
        registry = default_registry()
        if registry.enabled:
            # per-run imprecision accounting, recorded once at the run
            # boundary so the per-step hot path stays untouched
            registry.counter("concolic.runs").inc()
            registry.counter("concolic.steps").inc(result.steps)
            registry.counter(
                f"concolic.concretizations.{self.mode.value}"
            ).inc(result.concretizations)
            registry.counter("concolic.uf_applications").inc(
                result.uf_applications
            )
            registry.counter("concolic.samples_recorded").inc(
                len(result.samples)
            )
            if result.error:
                registry.counter("concolic.errors").inc()
        return result

    def function_symbol(self, name: str, arity: int) -> FunctionSymbol:
        """The UF symbol representing a native function (stable per engine)."""
        sym = self._fn_symbols.get(name)
        if sym is None:
            sym = self.tm.mk_function(name, arity)
            self._fn_symbols[name] = sym
        return sym

    # -- concretization machinery ------------------------------------------------

    def _pin_vars(
        self,
        names: Sequence[str],
        result: ConcolicResult,
        already: Optional[Set[str]] = None,
    ) -> None:
        """Inject concretization constraints ``x_i = I_i`` (Fig. 1 line 14)."""
        pinned = {
            pc.term for pc in result.path_conditions if pc.is_concretization
        }
        for name in sorted(set(names)):
            var = result.input_vars.get(name)
            if var is None:
                continue
            pin = self.tm.mk_eq(var, self.tm.mk_int(result.inputs[name]))
            if pin in pinned:
                continue
            result.path_conditions.append(
                PathCondition(term=pin, is_concretization=True)
            )

    def _input_deps(self, value: SymValue, result: ConcolicResult) -> Set[str]:
        """Input variable names the value's symbolic term depends on."""
        term = value.term if value.term is not None else value.bool_term
        if term is None:
            return set()
        names = set()
        for v in term.free_vars():
            if v.name in result.input_vars:
                names.add(v.name)
        return names

    def _concretize(
        self, values: Sequence[SymValue], result: ConcolicResult
    ) -> FrozenSet[str]:
        """Drop symbolic info per the current mode; return deferred pins."""
        result.concretizations += 1
        deps: Set[str] = set()
        for v in values:
            deps |= self._input_deps(v, result)
            deps |= set(v.pins)
        if not deps:
            return frozenset()
        if self.mode is ConcretizationMode.SOUND:
            self._pin_vars(sorted(deps), result)
            return frozenset()
        if self.mode is ConcretizationMode.SOUND_DELAYED:
            return frozenset(deps)
        return frozenset()  # UNSOUND (and HO fallbacks handled by callers)

    def _flush_pins(self, value: SymValue, result: ConcolicResult) -> None:
        """SOUND_DELAYED: materialize deferred pins when a value is tested."""
        if value.pins:
            self._pin_vars(sorted(value.pins), result)

    # -- operand helpers (called by the VM's shadow loop) ---------------------

    def _record_condition(
        self,
        cond: SymValue,
        taken: bool,
        branch_id: int,
        line: int,
        result: ConcolicResult,
    ) -> None:
        if self.mode is ConcretizationMode.SOUND_DELAYED:
            # a concretized value reaching a condition influences control
            # flow even when the condition's truth is concrete: its pins
            # must materialize here to keep the path constraint sound
            self._flush_pins(cond, result)
        bool_term = cond.as_bool_term(self.tm)
        if bool_term is None:
            return  # condition does not depend on inputs
        term = bool_term if taken else self.tm.mk_not(bool_term)
        if term is self.tm.true_:
            return
        result.path_conditions.append(
            PathCondition(
                term=term,
                branch_id=branch_id,
                taken=taken,
                line=line,
                path_pos=len(result.path) - 1,
            )
        )

    def _resolve_index(
        self,
        idx: SymValue,
        arr: list,
        name: str,
        line: int,
        result: ConcolicResult,
        store: bool = False,
    ) -> int:
        """Concretize a (possibly symbolic) array index, soundly per mode.

        Symbolic indices are store-dependent lookups that cannot be
        represented by a pure uninterpreted function, so even HIGHER_ORDER
        mode falls back to sound concretization here (paper §6).  A
        ``store``'s index is pinned eagerly in SOUND_DELAYED mode too: it
        decides which cell changes, and no value carries that dependency
        on to a later condition, so a deferred pin would be lost
        (Theorem 2).  A read's pins travel with the value it reads.
        """
        concrete = idx.concrete
        self._inject_bounds_check(idx, len(arr), line, result)
        if not 0 <= concrete < len(arr):
            raise _ErrorSignal(
                f"array index {concrete} out of bounds for {name}[{len(arr)}]",
                line,
            )
        if idx.is_symbolic or idx.pins:
            if self.mode in (
                ConcretizationMode.SOUND,
                ConcretizationMode.HIGHER_ORDER,
            ) or (store and self.mode is ConcretizationMode.SOUND_DELAYED):
                deps = self._input_deps(idx, result) | set(idx.pins)
                result.concretizations += 1
                self._pin_vars(sorted(deps), result)
            else:
                self._concretize([idx], result)
        return concrete

    def _read_cell(
        self,
        arr: list,
        idx: SymValue,
        name: str,
        line: int,
        result: ConcolicResult,
    ) -> SymValue:
        """Array read past the index evaluation."""
        symbolic_idx = idx.is_symbolic
        concrete_idx = self._resolve_index(idx, arr, name, line, result)
        cell = arr[concrete_idx]
        if symbolic_idx and self.mode is ConcretizationMode.SOUND_DELAYED:
            # the read value inherits the deferred pins of the index
            return SymValue(
                cell.concrete,
                cell.term,
                cell.bool_term,
                cell.pins | idx.pins | frozenset(self._input_deps(idx, result)),
            )
        return cell

    def _apply_unary(self, op: str, operand: SymValue) -> SymValue:
        """Unary operator on an evaluated operand."""
        if op == "-":
            term = operand.as_int_term(self.tm)
            return SymValue(
                -operand.concrete,
                self.tm.mk_neg(term) if term is not None else None,
                pins=operand.pins,
            )
        if op == "!":
            concrete = 0 if truthy(operand.concrete) else 1
            bool_term = operand.as_bool_term(self.tm)
            return SymValue(
                concrete,
                bool_term=(
                    self.tm.mk_not(bool_term) if bool_term is not None else None
                ),
                pins=operand.pins,
            )
        raise InterpError(f"unknown unary operator {op!r}")

    def _apply_binary(
        self,
        op: str,
        left: SymValue,
        right: SymValue,
        line: int,
        result: ConcolicResult,
    ) -> SymValue:
        """Binary operator on evaluated operands.

        Term construction order is part of the determinism contract:
        hash-consed term ids, and so the golden digests
        (``tests/test_concolic_golden.py``), follow the order of the
        ``mk_*`` calls here; the VM's plain-int path repeats the
        ``mk_int`` calls of this method in the same order.
        """
        tm = self.tm
        # strict logical operators (see the interpreter's note: the paper's
        # Example 3 derives both conjuncts of `if (A AND B)` into the pc)
        if op in ("&&", "||"):
            lt, rt = truthy(left.concrete), truthy(right.concrete)
            concrete = (
                1 if (lt and rt if op == "&&" else lt or rt) else 0
            )
            lb, rb = left.as_bool_term(tm), right.as_bool_term(tm)
            bool_term = None
            if lb is not None or rb is not None:
                lb = lb if lb is not None else tm.mk_bool(lt)
                rb = rb if rb is not None else tm.mk_bool(rt)
                bool_term = tm.mk_and(lb, rb) if op == "&&" else tm.mk_or(lb, rb)
            return SymValue(
                concrete, bool_term=bool_term, pins=left.pins | right.pins
            )

        lc, rc = left.concrete, right.concrete
        pins = left.pins | right.pins
        lt = left.as_int_term(tm)
        rt = right.as_int_term(tm)
        symbolic = lt is not None or rt is not None
        lt_full = lt if lt is not None else tm.mk_int(lc)
        rt_full = rt if rt is not None else tm.mk_int(rc)

        if op == "+":
            return SymValue(
                lc + rc, tm.mk_add(lt_full, rt_full) if symbolic else None, pins=pins
            )
        if op == "-":
            return SymValue(
                lc - rc, tm.mk_sub(lt_full, rt_full) if symbolic else None, pins=pins
            )
        if op == "*":
            concrete = lc * rc
            if not symbolic:
                return SymValue(concrete, pins=pins)
            if lt is None or rt is None:
                # linear: one side is a constant
                return SymValue(concrete, tm.mk_mul(lt_full, rt_full), pins=pins)
            return self._unknown_instruction(
                self.MUL_UF, (left, right), concrete, result, pins
            )
        if op in ("/", "%"):
            self._inject_div_check(right, line, result)
            try:
                concrete = c_div(lc, rc) if op == "/" else c_mod(lc, rc)
            except DivisionByZero:
                raise _ErrorSignal("division by zero", line)
            if not symbolic:
                return SymValue(concrete, pins=pins)
            uf_name = self.DIV_UF if op == "/" else self.MOD_UF
            return self._unknown_instruction(
                uf_name, (left, right), concrete, result, pins
            )

        comparison = _COMPARISONS.get(op)
        if comparison is None:
            raise InterpError(f"unknown binary operator {op!r}")
        concrete_fn, term_fn = comparison
        concrete = 1 if concrete_fn(lc, rc) else 0
        bool_term = term_fn(tm, lt_full, rt_full) if symbolic else None
        return SymValue(concrete, bool_term=bool_term, pins=pins)

    def _inject_div_check(
        self, divisor: SymValue, line: int, result: ConcolicResult
    ) -> None:
        """Record the injected safety condition ``divisor != 0`` (§3.2).

        Only input-dependent divisors get a condition (a concrete divisor
        cannot be steered to zero by new inputs).  The condition's truth
        at record time is "nonzero" — we are about to divide successfully
        or raise; the directed search may later negate it, and the
        resulting test confirms the division-by-zero by executing.
        """
        term = divisor.as_int_term(self.tm)
        if term is None:
            return
        if divisor.concrete == 0:
            return  # about to error; no condition to record
        if self.mode is ConcretizationMode.SOUND_DELAYED:
            self._flush_pins(divisor, result)
        result.path_conditions.append(
            PathCondition(
                term=self.tm.mk_ne(term, self.tm.mk_int(0)),
                branch_id=self.CHECK_DIV,
                taken=True,
                line=line,
            )
        )

    def _inject_bounds_check(
        self,
        idx: SymValue,
        size: int,
        line: int,
        result: ConcolicResult,
    ) -> None:
        """Record injected conditions ``0 <= idx`` and ``idx < size``."""
        term = idx.as_int_term(self.tm)
        if term is None:
            return
        if not 0 <= idx.concrete < size:
            return  # about to error; nothing to record
        if self.mode is ConcretizationMode.SOUND_DELAYED:
            self._flush_pins(idx, result)
        result.path_conditions.append(
            PathCondition(
                term=self.tm.mk_ge(term, self.tm.mk_int(0)),
                branch_id=self.CHECK_BOUNDS_LOW,
                taken=True,
                line=line,
            )
        )
        result.path_conditions.append(
            PathCondition(
                term=self.tm.mk_lt(term, self.tm.mk_int(size)),
                branch_id=self.CHECK_BOUNDS_HIGH,
                taken=True,
                line=line,
            )
        )

    def _unknown_instruction(
        self,
        uf_name: str,
        operands: Tuple[SymValue, SymValue],
        concrete: int,
        result: ConcolicResult,
        pins: FrozenSet[str],
    ) -> SymValue:
        """Handle ``x*y``, ``x/y``, ``x%y`` with symbolic operands."""
        tm = self.tm
        if self.mode is ConcretizationMode.HIGHER_ORDER:
            sym = self.function_symbol(uf_name, 2)
            args = [_int_term_or_const(op, tm) for op in operands]
            term = tm.mk_app(sym, args)
            result.uf_applications += 1
            if self.record_samples:
                result.samples.append(
                    Sample(
                        sym,
                        (operands[0].concrete, operands[1].concrete),
                        concrete,
                    )
                )
            return SymValue(concrete, term, pins=pins)
        deferred = self._concretize(list(operands), result)
        return SymValue(concrete, pins=deferred)

    def _apply_native(
        self, name: str, args: List[SymValue], result: ConcolicResult
    ) -> SymValue:
        """Native call on evaluated arguments."""
        tm = self.tm
        concrete_args = tuple(a.concrete for a in args)
        concrete = self.natives.call(name, concrete_args)
        symbolic = any(a.is_symbolic for a in args)
        pins = frozenset().union(*(a.pins for a in args)) if args else frozenset()

        if self.record_samples and args:
            sym = self.function_symbol(name, len(args))
            result.samples.append(Sample(sym, concrete_args, concrete))

        if not symbolic:
            # no input dependence: the call's result is a plain constant
            return SymValue(concrete, pins=pins)

        if self.mode is ConcretizationMode.HIGHER_ORDER:
            sym = self.function_symbol(name, len(args))
            terms = [_int_term_or_const(a, tm) for a in args]
            result.uf_applications += 1
            return SymValue(concrete, tm.mk_app(sym, terms), pins=pins)

        deferred = self._concretize(args, result)
        return SymValue(concrete, pins=deferred)
