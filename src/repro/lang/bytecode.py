"""Flat register bytecode: the shared execution core for MiniC.

A tree walker re-traverses the AST on every run; on search workloads
that interpretation overhead bounds runs/second.  This module lowers a
parsed :class:`Program` *once* into flat register-based bytecode —
numbered instructions, pre-resolved jump targets, interned names and
constants, a per-function frame layout — and executes it with a
dispatch loop.  Two loops share one compiled artifact:

- :func:`run_concrete` — plain-int registers, replacing
  ``Interpreter._exec_block``/``_eval`` for concrete execution;
- :func:`exec_concolic` — the concolic executor: ``ConcolicEngine``'s
  symbolic shadow off the same instruction stream, and the only
  implementation of the paper's ``executeSymbolic``.  Registers stay
  plain ints until a value carries a term: plain operations compute as
  :func:`run_concrete` does, and only values with a term, bool term or
  pins (boxed as ``SymValue``) go through the engine's operand-level
  helpers.  Two traps: the plain path must take the ids of the engine's
  ``mk_int`` calls in the engine's order, because the manager's id
  counter fixes every ``tid`` and so every digest (it reserves them,
  ``TermManager.reserve_int``, and builds no ``Term``); and runtime ints
  are boxed with a fresh ``SymValue``, never the process-global
  compile-time constant table.

Correctness contract (digest-gated by tests and CI): for every program
and input vector :func:`run_concrete` and the tree-walking
:class:`~repro.lang.interp.Interpreter`, kept as the concrete oracle,
produce identical ``RunResult``s — return value, error
class/message/line, branch trace, coverage set, and *step counts*
(``tests/test_exec_backends.py``); and :func:`exec_concolic` matches
the golden digests of ``tests/test_concolic_golden.py``, which pin its
path conditions, term ids and interned constants.  Step counting is
the subtle part: the tree walker ticks once per statement and once per
expression node (pre-order), plus one extra tick per completed loop
body, and both loops count the same.  The compiler folds each run of
consecutive ticks into the *next* emitted instruction's ``ticks``
field (safe: no observable effect separates consecutive ticks), and
flushes pending ticks into an ``OP_TICK`` before every jump target so
loop re-entries never double-count the loop statement's own tick.

Compiled programs are cached two ways: an instance memo on the
``Program`` object, and a process-global table keyed by the SHA-256
digest of the program's source text (programs parsed from identical
source share one artifact).  Programs constructed without source text
still get the per-instance memo.
"""

from __future__ import annotations

import hashlib
import operator
from typing import Dict, List, Optional, Tuple

from ..errors import InterpError, StepBudgetExceeded
from .ast import (
    ArrayAssign,
    ArrayDecl,
    ArrayRef,
    Assign,
    AssertStmt,
    Binary,
    Block,
    Call,
    ErrorStmt,
    Expr,
    ExprStmt,
    FunctionDef,
    If,
    IntLit,
    Program,
    Return,
    Stmt,
    Unary,
    VarDecl,
    VarRef,
    While,
)
from .interp import DivisionByZero, RunResult, _ErrorSignal, c_div, c_mod
from .natives import NativeRegistry

__all__ = [
    "CompiledFunction",
    "CompiledProgram",
    "compile_program",
    "compile_cache_stats",
    "clear_compile_cache",
    "run_concrete",
    "exec_concolic",
]


# -- instruction set ----------------------------------------------------------
#
# An instruction is a plain tuple ``(op, ticks, *operands)``.  ``ticks``
# is the number of tree-walker ticks that precede this instruction's
# effect; the dispatch loops charge it against the step budget before
# executing the operation.

OP_TICK = 0        # ()                                flush folded ticks
OP_LOADK = 1       # (dst, value)                      integer literal
OP_LOADV = 2       # (dst, slot, name, line)           variable read + checks
OP_STORE = 3       # (slot, src)                       unchecked register move
OP_CHECKDECL = 4   # (slot, name, line)                assignment pre-check
OP_ZERO = 5        # (slot,)                           `int x;` default init
OP_NEWARR = 6      # (slot, size)                      array declaration
OP_CHECKARR = 7    # (slot, name, line)                array-ness check
OP_ALOAD = 8       # (dst, slot, idx, name, line)      array read
OP_ABOUND = 9      # (slot, idx, name, line)           concrete bounds check
OP_ASTORE = 10     # (slot, idx, val, name, line)      array write
OP_NEG = 11        # (dst, src)
OP_NOT = 12        # (dst, src)
OP_ADD = 13        # (dst, l, r)
OP_SUB = 14        # (dst, l, r)
OP_MUL = 15        # (dst, l, r)
OP_DIV = 16        # (dst, l, r, line)
OP_MOD = 17        # (dst, l, r, line)
OP_EQ = 18         # (dst, l, r)
OP_NE = 19         # (dst, l, r)
OP_LT = 20         # (dst, l, r)
OP_LE = 21         # (dst, l, r)
OP_GT = 22         # (dst, l, r)
OP_GE = 23         # (dst, l, r)
OP_AND = 24        # (dst, l, r)                       strict logical and
OP_OR = 25         # (dst, l, r)                       strict logical or
OP_JUMP = 26       # (target,)
OP_BR = 27         # (cond, branch_id, line, false_target)
OP_ASSERT = 28     # (cond, branch_id, line)
OP_RET = 29        # (src,)
OP_RETK = 30       # (value,)                          `return;` / fall-off
OP_ERROR = 31      # (message, line)
OP_CALL = 32       # (dst, func_index, argbase, nargs)
OP_NATIVE = 33     # (dst, name, argbase, nargs)
OP_ARITYERR = 34   # (message,)                        static arity mismatch

# Fused superinstructions, produced by the compiler's peephole pass
# (never emitted directly).  Each performs the exact effect sequence of
# its source pair, with the second component's ticks carried as an extra
# operand so the step budget still trips between the two effects.  Pairs
# that consume a dead temporary (operand fusions) skip the temp write;
# this is safe because expression temps (slots >= nlocals) are always
# written before they are read, and the fusion conditions require the
# consumed register to be a temp written by the first instruction.
OP_BRCMP = 35      # (cmp_op, l, r, branch_id, line, false_target)
OP_LOADV2 = 36     # (d1, s1, n1, l1, t2, d2, s2, n2, l2)  two var reads
OP_LOADVK = 37     # (d1, s1, n1, l1, t2, d2, k)           var read + const
OP_BINV = 38       # (bin_op, dst, l, s, n, ln, line)      right = var slot
OP_BINK = 39       # (bin_op, dst, l, k, line)             right = const
OP_BINVK = 40     # (bin_op, dst, s, n, ln, t2, k, line)  var (op) const
OP_GUARDVK = 41   # (cmp_op, s, n, ln, t2, k, branch_id, line, false_target)
OP_BINVV = 42     # (bin_op, dst, s1, n1, l1, t2, s2, n2, l2, line)  var (op) var
OP_GUARDVV = 43   # (cmp_op, s1, n1, l1, t2, s2, n2, l2, branch_id, line,
                  #  false_target)

_BINOP_CODE = {
    "+": OP_ADD,
    "-": OP_SUB,
    "*": OP_MUL,
    "==": OP_EQ,
    "!=": OP_NE,
    "<": OP_LT,
    "<=": OP_LE,
    ">": OP_GT,
    ">=": OP_GE,
    "&&": OP_AND,
    "||": OP_OR,
}

#: opcode -> MiniC operator, for the concolic shadow's operand-level
#: delegation back into ``ConcolicEngine._apply_binary``
_OPSTR = {
    OP_ADD: "+",
    OP_SUB: "-",
    OP_MUL: "*",
    OP_DIV: "/",
    OP_MOD: "%",
    OP_EQ: "==",
    OP_NE: "!=",
    OP_LT: "<",
    OP_LE: "<=",
    OP_GT: ">",
    OP_GE: ">=",
    OP_AND: "&&",
    OP_OR: "||",
}

#: binops eligible for operand fusion (all of them; DIV/MOD carry their
#: error line into the fused instruction's trailing operand)
_FUSABLE_BINOPS = frozenset(range(OP_ADD, OP_OR + 1))
#: comparison opcodes eligible for compare-and-branch fusion
_CMP_OPS = frozenset((OP_EQ, OP_NE, OP_LT, OP_LE, OP_GT, OP_GE))


class _Undef:
    """Sentinel for a frame slot whose declaring statement has not run.

    MiniC scoping is execution-based (a name exists only once its
    declaration executed), so declaredness is a *runtime* property of the
    frame, not a compile-time one.
    """

    __slots__ = ()

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return "<undef>"


UNDEF = _Undef()


class CompiledFunction:
    """One function lowered to a flat instruction tuple."""

    __slots__ = ("name", "params", "nlocals", "nregs", "code", "slot_names")

    def __init__(
        self,
        name: str,
        params: Tuple[str, ...],
        nlocals: int,
        nregs: int,
        code: Tuple[tuple, ...],
        slot_names: Tuple[str, ...],
    ) -> None:
        self.name = name
        self.params = params
        self.nlocals = nlocals
        self.nregs = nregs
        self.code = code
        self.slot_names = slot_names

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"CompiledFunction({self.name}, params={self.params}, "
            f"{len(self.code)} instrs, {self.nregs} regs)"
        )


class CompiledProgram:
    """A program lowered once, executable by both dispatch loops."""

    __slots__ = ("functions", "funcs", "source_digest")

    def __init__(
        self,
        functions: Dict[str, CompiledFunction],
        funcs: List[CompiledFunction],
        source_digest: str,
    ) -> None:
        self.functions = functions
        self.funcs = funcs
        self.source_digest = source_digest

    def function(self, name: str) -> CompiledFunction:
        if name not in self.functions:
            raise KeyError(f"no function named {name!r}")
        return self.functions[name]


# -- compiler ------------------------------------------------------------------


def _collect_slots(fn: FunctionDef) -> Dict[str, int]:
    """Frame layout: params first, then every other name in preorder.

    Every name *mentioned* in the function gets a slot, declared or not
    — declaredness is checked at runtime against the UNDEF sentinel so
    the bytecode reproduces the tree walker's execution-based scoping
    errors exactly.
    """
    slots: Dict[str, int] = {}
    for p in fn.params:
        slots[p] = len(slots)

    def add(name: str) -> None:
        if name not in slots:
            slots[name] = len(slots)

    def walk_expr(e: Expr) -> None:
        if isinstance(e, VarRef):
            add(e.name)
        elif isinstance(e, ArrayRef):
            add(e.name)
            walk_expr(e.index)
        elif isinstance(e, Unary):
            walk_expr(e.operand)
        elif isinstance(e, Binary):
            walk_expr(e.left)
            walk_expr(e.right)
        elif isinstance(e, Call):
            for a in e.args:
                walk_expr(a)

    def walk_stmt(s: Stmt) -> None:
        if isinstance(s, VarDecl):
            add(s.name)
            if s.init is not None:
                walk_expr(s.init)
        elif isinstance(s, ArrayDecl):
            add(s.name)
        elif isinstance(s, Assign):
            add(s.name)
            walk_expr(s.expr)
        elif isinstance(s, ArrayAssign):
            add(s.name)
            walk_expr(s.index)
            walk_expr(s.expr)
        elif isinstance(s, If):
            walk_expr(s.cond)
            for inner in s.then_body.stmts:
                walk_stmt(inner)
            if s.else_body is not None:
                for inner in s.else_body.stmts:
                    walk_stmt(inner)
        elif isinstance(s, While):
            walk_expr(s.cond)
            for inner in s.body.stmts:
                walk_stmt(inner)
        elif isinstance(s, Return):
            if s.expr is not None:
                walk_expr(s.expr)
        elif isinstance(s, ExprStmt):
            walk_expr(s.expr)
        elif isinstance(s, AssertStmt):
            walk_expr(s.cond)
        elif isinstance(s, Block):
            for inner in s.stmts:
                walk_stmt(inner)

    for stmt in fn.body.stmts:
        walk_stmt(stmt)
    return slots


class _FunctionCompiler:
    """Lowers one function body to instructions with folded tick counts."""

    def __init__(
        self, program: Program, fn: FunctionDef, func_index: Dict[str, int]
    ) -> None:
        self.program = program
        self.fn = fn
        self.func_index = func_index
        self.slots = _collect_slots(fn)
        self.param_set = set(fn.params)
        #: names provably declared at the current emission point: their
        #: declaring statement (or an assignment whose CHECKDECL must
        #: have passed) dominates it.  A frame slot never reverts to
        #: UNDEF, so domination is permanent; conditional bodies push a
        #: copy and discard their additions on exit.
        self.declared = set(fn.params)
        self.nlocals = len(self.slots)
        self.temp = self.nlocals
        self.high = self.nlocals
        self.code: List[tuple] = []
        self.pending = 0
        self._next_label = 0
        self.label_pos: Dict[int, int] = {}

    # -- emission helpers ------------------------------------------------

    def emit(self, op: int, *operands) -> None:
        self.code.append((op, self.pending) + operands)
        self.pending = 0

    def new_label(self) -> int:
        self._next_label += 1
        return self._next_label

    def mark(self, label: int) -> None:
        # pending ticks belong to the straight-line path *before* the
        # label; flushing here keeps them off the jump-landing path
        if self.pending:
            self.code.append((OP_TICK, self.pending))
            self.pending = 0
        self.label_pos[label] = len(self.code)

    def alloc(self) -> int:
        reg = self.temp
        self.temp += 1
        if self.temp > self.high:
            self.high = self.temp
        return reg

    # -- expressions -----------------------------------------------------

    def expr(self, e: Expr, dst: int) -> None:
        self.pending += 1  # the tree walker's pre-order expression tick
        if isinstance(e, IntLit):
            self.emit(OP_LOADK, dst, e.value)
        elif isinstance(e, VarRef):
            self.emit(OP_LOADV, dst, self.slots[e.name], e.name, e.line)
        elif isinstance(e, Binary):
            save = self.temp
            left = self.alloc()
            self.expr(e.left, left)
            right = self.alloc()
            self.expr(e.right, right)
            self.temp = save
            if e.op == "/":
                self.emit(OP_DIV, dst, left, right, e.line)
            elif e.op == "%":
                self.emit(OP_MOD, dst, left, right, e.line)
            else:
                code = _BINOP_CODE.get(e.op)
                if code is None:
                    raise InterpError(f"unknown binary operator {e.op!r}")
                self.emit(code, dst, left, right)
        elif isinstance(e, Unary):
            save = self.temp
            operand = self.alloc()
            self.expr(e.operand, operand)
            self.temp = save
            if e.op == "-":
                self.emit(OP_NEG, dst, operand)
            elif e.op == "!":
                self.emit(OP_NOT, dst, operand)
            else:
                raise InterpError(f"unknown unary operator {e.op!r}")
        elif isinstance(e, ArrayRef):
            slot = self.slots[e.name]
            # the array-ness check precedes index evaluation in the tree
            # walker, so it is a separate instruction carrying the ticks
            self.emit(OP_CHECKARR, slot, e.name, e.line)
            save = self.temp
            idx = self.alloc()
            self.expr(e.index, idx)
            self.temp = save
            self.emit(OP_ALOAD, dst, slot, idx, e.name, e.line)
        elif isinstance(e, Call):
            save = self.temp
            base = self.temp
            for a in e.args:
                self.expr(a, self.alloc())
            self.temp = save
            if e.name in self.program.functions:
                callee = self.program.functions[e.name]
                if len(e.args) != len(callee.params):
                    # statically known mismatch, but it must only fire if
                    # the call executes — and after its args evaluated
                    self.emit(
                        OP_ARITYERR,
                        f"{e.name} expects {len(callee.params)} args, got "
                        f"{len(e.args)} (line {e.line})",
                    )
                else:
                    self.emit(
                        OP_CALL, dst, self.func_index[e.name], base, len(e.args)
                    )
            else:
                self.emit(OP_NATIVE, dst, e.name, base, len(e.args))
        else:
            raise InterpError(f"unknown expression {e!r}")

    # -- statements ------------------------------------------------------

    def block(self, b: Block) -> None:
        for s in b.stmts:
            self.stmt(s)

    def stmt(self, s: Stmt) -> None:
        self.pending += 1  # the tree walker's per-statement tick
        if isinstance(s, VarDecl):
            slot = self.slots[s.name]
            if s.init is not None:
                self.expr(s.init, slot)
            else:
                self.emit(OP_ZERO, slot)
            self.declared.add(s.name)
        elif isinstance(s, ArrayDecl):
            self.emit(OP_NEWARR, self.slots[s.name], s.size)
            self.declared.add(s.name)
        elif isinstance(s, Assign):
            slot = self.slots[s.name]
            if s.name not in self.declared:
                # the declaredness check precedes RHS evaluation; it is
                # elided when a dominating declaration (or a previously
                # passed check) proves it can never fire
                self.emit(OP_CHECKDECL, slot, s.name, s.line)
                # control proceeding past the check proves declaredness
                # for everything this statement dominates
                self.declared.add(s.name)
            self.expr(s.expr, slot)
        elif isinstance(s, ArrayAssign):
            slot = self.slots[s.name]
            self.emit(OP_CHECKARR, slot, s.name, s.line)
            save = self.temp
            idx = self.alloc()
            self.expr(s.index, idx)
            # concrete semantics bounds-check before evaluating the RHS;
            # the concolic walker resolves the index after (OP_ABOUND is
            # a no-op in the shadow loop, OP_ASTORE resolves there)
            self.emit(OP_ABOUND, slot, idx, s.name, s.line)
            val = self.alloc()
            self.expr(s.expr, val)
            self.temp = save
            self.emit(OP_ASTORE, slot, idx, val, s.name, s.line)
        elif isinstance(s, If):
            save = self.temp
            cond = self.alloc()
            self.expr(s.cond, cond)
            self.temp = save
            l_else = self.new_label()
            self.emit(OP_BR, cond, s.branch_id, s.line, l_else)
            # declarations inside a conditional body don't dominate the
            # code after it; compile each arm with a discarded copy
            outer = self.declared
            self.declared = set(outer)
            self.block(s.then_body)
            self.declared = outer
            if s.else_body is not None:
                l_end = self.new_label()
                self.emit(OP_JUMP, l_end)
                self.mark(l_else)
                self.declared = set(outer)
                self.block(s.else_body)
                self.declared = outer
                self.mark(l_end)
            else:
                self.mark(l_else)
        elif isinstance(s, While):
            l_head = self.new_label()
            l_exit = self.new_label()
            # mark() flushes the while-statement tick before the head so
            # loop re-entries (which jump to the head) don't recount it
            self.mark(l_head)
            save = self.temp
            cond = self.alloc()
            self.expr(s.cond, cond)
            self.temp = save
            self.emit(OP_BR, cond, s.branch_id, s.line, l_exit)
            outer = self.declared
            self.declared = set(outer)
            self.block(s.body)
            self.declared = outer
            self.pending += 1  # the tree walker's post-body iteration tick
            self.emit(OP_JUMP, l_head)
            self.mark(l_exit)
        elif isinstance(s, Return):
            if s.expr is not None:
                save = self.temp
                value = self.alloc()
                self.expr(s.expr, value)
                self.temp = save
                self.emit(OP_RET, value)
            else:
                self.emit(OP_RETK, 0)
        elif isinstance(s, ErrorStmt):
            self.emit(OP_ERROR, s.message, s.line)
        elif isinstance(s, AssertStmt):
            save = self.temp
            cond = self.alloc()
            self.expr(s.cond, cond)
            self.temp = save
            self.emit(OP_ASSERT, cond, s.branch_id, s.line)
        elif isinstance(s, ExprStmt):
            save = self.temp
            self.expr(s.expr, self.alloc())
            self.temp = save
        elif isinstance(s, Block):
            # bare nested block (for-loop desugaring): its statement tick
            # rides self.pending into the first inner instruction
            self.block(s)
        else:
            raise InterpError(f"unknown statement {s!r}")

    # -- driver ----------------------------------------------------------

    def compile(self) -> CompiledFunction:
        self.block(self.fn.body)
        self.emit(OP_RETK, 0)  # falling off the end returns 0
        self._peephole()
        code = self._resolve_labels()
        slot_names = tuple(
            name for name, _ in sorted(self.slots.items(), key=lambda kv: kv[1])
        )
        return CompiledFunction(
            name=self.fn.name,
            params=tuple(self.fn.params),
            nlocals=self.nlocals,
            nregs=self.high,
            code=code,
            slot_names=slot_names,
        )

    def _peephole(self) -> None:
        """Fuse adjacent instruction pairs into superinstructions.

        Runs to a fixpoint so second-round patterns form (a fused
        ``LOADVK`` feeding a binop becomes ``BINVK``; feeding a fused
        compare-and-branch becomes ``GUARDVK``, the canonical
        ``while (i < N)`` loop guard).  A pair never fuses across a jump
        target — landing mid-superinstruction would skip effects — and
        operand fusions additionally require the consumed register to be
        an expression temp (slot >= nlocals) so a variable's visible
        store is never elided.  Label positions refer to instruction
        indices, so each pass remaps them; jump operands still hold
        label ids and need no patching here.
        """
        changed = True
        while changed:
            changed = False
            targets = set(self.label_pos.values())
            code = self.code
            n = len(code)
            out: List[tuple] = []
            remap: Dict[int, int] = {}
            i = 0
            while i < n:
                remap[i] = len(out)
                if i + 1 < n and (i + 1) not in targets:
                    fused = self._try_fuse(code[i], code[i + 1])
                    if fused is not None:
                        out.append(fused)
                        i += 2
                        changed = True
                        continue
                out.append(code[i])
                i += 1
            remap[n] = len(out)
            self.code = out
            self.label_pos = {
                lbl: remap[idx] for lbl, idx in self.label_pos.items()
            }

    def _try_fuse(self, ins1: tuple, ins2: tuple) -> Optional[tuple]:
        op1 = ins1[0]
        op2 = ins2[0]
        nlocals = self.nlocals
        if op1 == OP_LOADV:
            if op2 == OP_LOADV:
                # effect-identical for any destinations, var or temp
                return (OP_LOADV2,) + ins1[1:] + ins2[1:]
            if op2 == OP_LOADK:
                return (OP_LOADVK,) + ins1[1:] + ins2[1:]
            if (
                op2 in _FUSABLE_BINOPS
                and ins2[1] == 0
                and ins2[4] == ins1[2]
                and ins1[2] >= nlocals
            ):
                # the temp just loaded is the binop's right operand
                bline = ins2[5] if (op2 == OP_DIV or op2 == OP_MOD) else 0
                return (
                    OP_BINV, ins1[1], op2, ins2[2], ins2[3],
                    ins1[3], ins1[4], ins1[5], bline,
                )
            return None
        if op1 == OP_LOADK:
            if (
                op2 in _FUSABLE_BINOPS
                and ins2[1] == 0
                and ins2[4] == ins1[2]
                and ins1[2] >= nlocals
            ):
                bline = ins2[5] if (op2 == OP_DIV or op2 == OP_MOD) else 0
                return (
                    OP_BINK, ins1[1], op2, ins2[2], ins2[3], ins1[3], bline,
                )
            return None
        if op1 == OP_LOADV2:
            # ins1 = (op, t1, d1, s1, n1, l1, t2, d2, s2, n2, l2)
            if (
                op2 in _FUSABLE_BINOPS
                and ins2[1] == 0
                and ins2[3] == ins1[2]
                and ins2[4] == ins1[7]
                and ins1[2] >= nlocals
                and ins1[7] >= nlocals
            ):
                bline = ins2[5] if (op2 == OP_DIV or op2 == OP_MOD) else 0
                return (
                    OP_BINVV, ins1[1], op2, ins2[2],
                    ins1[3], ins1[4], ins1[5], ins1[6],
                    ins1[8], ins1[9], ins1[10], bline,
                )
            if (
                op2 == OP_BRCMP
                and ins2[1] == 0
                and ins2[3] == ins1[2]
                and ins2[4] == ins1[7]
                and ins1[2] >= nlocals
                and ins1[7] >= nlocals
            ):
                # ins2 = (op, t, cop, l, r, bid, line, label)
                return (
                    OP_GUARDVV, ins1[1], ins2[2],
                    ins1[3], ins1[4], ins1[5], ins1[6],
                    ins1[8], ins1[9], ins1[10],
                    ins2[5], ins2[6], ins2[7],
                )
            return None
        if op1 == OP_LOADVK:
            # ins1 = (op, t1, d1, s1, n1, l1, t2, d2, k)
            if (
                op2 in _FUSABLE_BINOPS
                and ins2[1] == 0
                and ins2[3] == ins1[2]
                and ins2[4] == ins1[7]
                and ins1[2] >= nlocals
                and ins1[7] >= nlocals
            ):
                bline = ins2[5] if (op2 == OP_DIV or op2 == OP_MOD) else 0
                return (
                    OP_BINVK, ins1[1], op2, ins2[2],
                    ins1[3], ins1[4], ins1[5], ins1[6], ins1[8], bline,
                )
            if (
                op2 == OP_BRCMP
                and ins2[1] == 0
                and ins2[3] == ins1[2]
                and ins2[4] == ins1[7]
                and ins1[2] >= nlocals
                and ins1[7] >= nlocals
            ):
                # ins2 = (op, t, cop, l, r, bid, line, label)
                return (
                    OP_GUARDVK, ins1[1], ins2[2],
                    ins1[3], ins1[4], ins1[5], ins1[6], ins1[8],
                    ins2[5], ins2[6], ins2[7],
                )
            return None
        if (
            op1 in _CMP_OPS
            and op2 == OP_BR
            and ins2[1] == 0
            and ins2[2] == ins1[2]
            and ins1[2] >= nlocals
        ):
            # ins2 = (op, t, cond, branch_id, line, label)
            return (
                OP_BRCMP, ins1[1], op1, ins1[3], ins1[4],
                ins2[3], ins2[4], ins2[5],
            )
        return None

    def _resolve_labels(self) -> Tuple[tuple, ...]:
        pos = self.label_pos
        resolved: List[tuple] = []
        for ins in self.code:
            op = ins[0]
            if op == OP_JUMP:
                resolved.append((op, ins[1], pos[ins[2]]))
            elif op == OP_BR:
                resolved.append(ins[:5] + (pos[ins[5]],))
            elif op == OP_BRCMP:
                resolved.append(ins[:7] + (pos[ins[7]],))
            elif op == OP_GUARDVK:
                resolved.append(ins[:10] + (pos[ins[10]],))
            elif op == OP_GUARDVV:
                resolved.append(ins[:12] + (pos[ins[12]],))
            else:
                resolved.append(ins)
        return tuple(resolved)


# -- compile cache -------------------------------------------------------------

_COMPILE_CACHE: Dict[str, CompiledProgram] = {}
_cache_hits = 0
_cache_misses = 0


def compile_program(program: Program) -> CompiledProgram:
    """Lower ``program`` to bytecode, reusing cached artifacts.

    Cached per ``Program`` instance (attribute memo) and per source
    digest (process-global), so repeated executions — and repeated
    ``Interpreter``/``ConcolicEngine`` constructions over the same
    source — compile exactly once.
    """
    global _cache_hits, _cache_misses
    cached = getattr(program, "_bytecode", None)
    if cached is not None:
        _cache_hits += 1
        return cached
    digest = ""
    if program.source:
        digest = hashlib.sha256(program.source.encode("utf-8")).hexdigest()
        cached = _COMPILE_CACHE.get(digest)
        if cached is not None:
            _cache_hits += 1
            program._bytecode = cached  # type: ignore[attr-defined]
            return cached
    _cache_misses += 1
    func_index = {name: i for i, name in enumerate(program.functions)}
    funcs: List[CompiledFunction] = []
    functions: Dict[str, CompiledFunction] = {}
    for name, fn in program.functions.items():
        compiled = _FunctionCompiler(program, fn, func_index).compile()
        funcs.append(compiled)
        functions[name] = compiled
    artifact = CompiledProgram(functions, funcs, digest)
    if digest:
        _COMPILE_CACHE[digest] = artifact
    program._bytecode = artifact  # type: ignore[attr-defined]
    return artifact


def compile_cache_stats() -> Dict[str, int]:
    """Hit/miss counters and resident entries of the compile cache."""
    return {
        "hits": _cache_hits,
        "misses": _cache_misses,
        "entries": len(_COMPILE_CACHE),
    }


def clear_compile_cache() -> None:
    """Drop the global compile cache (cold-compile benchmarking)."""
    global _cache_hits, _cache_misses
    _COMPILE_CACHE.clear()
    _cache_hits = 0
    _cache_misses = 0


# -- concrete dispatch loop ----------------------------------------------------


def run_concrete(
    cp: CompiledProgram,
    entry: str,
    inputs: Dict[str, int],
    natives: NativeRegistry,
    step_budget: int = 1_000_000,
) -> RunResult:
    """Execute ``entry`` on the compiled program; tree-walker-identical."""
    cf = cp.function(entry)
    missing = [p for p in cf.params if p not in inputs]
    if missing:
        raise InterpError(f"missing inputs for parameters {missing}")
    result = RunResult(inputs=dict(inputs), returned=None)
    args = [int(inputs[p]) for p in cf.params]
    try:
        result.returned = _frame_concrete(
            cp, cf, args, natives, result, step_budget
        )
    except _ErrorSignal as err:
        result.error = True
        result.error_message = err.message
        result.error_line = err.line
    return result


def _frame_concrete(
    cp: CompiledProgram,
    cf: CompiledFunction,
    args: List[int],
    natives: NativeRegistry,
    res: RunResult,
    budget: int,
):
    """One activation frame of the concrete VM; recursion mirrors calls."""
    regs: List[object] = [UNDEF] * cf.nregs
    regs[: len(args)] = args
    code = cf.code
    funcs = cp.funcs
    path = res.path
    covered = res.covered
    steps = res.steps
    pc = 0
    while True:
        ins = code[pc]
        op = ins[0]
        t = ins[1]
        if t:
            steps += t
            if steps > budget:
                # the first tick past the budget raises, so the recorded
                # count is budget+1 regardless of how many were folded
                res.steps = budget + 1
                raise StepBudgetExceeded(
                    f"execution exceeded {budget} steps"
                )
        if op == OP_LOADV:
            v = regs[ins[3]]
            if v is UNDEF:
                res.steps = steps
                raise InterpError(
                    f"undeclared variable {ins[4]!r} (line {ins[5]})"
                )
            if v.__class__ is list:
                res.steps = steps
                raise InterpError(
                    f"array {ins[4]!r} used as a scalar (line {ins[5]})"
                )
            regs[ins[2]] = v
        elif op == OP_LOADK:
            regs[ins[2]] = ins[3]
        elif op == OP_BR:
            taken = regs[ins[2]] != 0
            bid = ins[3]
            path.append((bid, taken))
            covered.add((bid, taken))
            if taken:
                pc += 1
            else:
                pc = ins[5]
            continue
        elif op == OP_GUARDVK:
            # (cop, s, n, ln, t2, k, bid, line, target): the fused
            # `while (i < N)` guard — checked var read, const compare,
            # branch record, jump — in one dispatch
            v = regs[ins[3]]
            if v is UNDEF:
                res.steps = steps
                raise InterpError(
                    f"undeclared variable {ins[4]!r} (line {ins[5]})"
                )
            if v.__class__ is list:
                res.steps = steps
                raise InterpError(
                    f"array {ins[4]!r} used as a scalar (line {ins[5]})"
                )
            t = ins[6]
            if t:
                steps += t
                if steps > budget:
                    res.steps = budget + 1
                    raise StepBudgetExceeded(
                        f"execution exceeded {budget} steps"
                    )
            cop = ins[2]
            k = ins[7]
            if cop == OP_LT:
                taken = v < k
            elif cop == OP_LE:
                taken = v <= k
            elif cop == OP_GT:
                taken = v > k
            elif cop == OP_GE:
                taken = v >= k
            elif cop == OP_EQ:
                taken = v == k
            else:
                taken = v != k
            bid = ins[8]
            path.append((bid, taken))
            covered.add((bid, taken))
            if taken:
                pc += 1
            else:
                pc = ins[10]
            continue
        elif op == OP_GUARDVV:
            # (cop, s1, n1, l1, t2, s2, n2, l2, bid, line, target)
            v = regs[ins[3]]
            if v is UNDEF:
                res.steps = steps
                raise InterpError(
                    f"undeclared variable {ins[4]!r} (line {ins[5]})"
                )
            if v.__class__ is list:
                res.steps = steps
                raise InterpError(
                    f"array {ins[4]!r} used as a scalar (line {ins[5]})"
                )
            t = ins[6]
            if t:
                steps += t
                if steps > budget:
                    res.steps = budget + 1
                    raise StepBudgetExceeded(
                        f"execution exceeded {budget} steps"
                    )
            w = regs[ins[7]]
            if w is UNDEF:
                res.steps = steps
                raise InterpError(
                    f"undeclared variable {ins[8]!r} (line {ins[9]})"
                )
            if w.__class__ is list:
                res.steps = steps
                raise InterpError(
                    f"array {ins[8]!r} used as a scalar (line {ins[9]})"
                )
            cop = ins[2]
            if cop == OP_LT:
                taken = v < w
            elif cop == OP_LE:
                taken = v <= w
            elif cop == OP_GT:
                taken = v > w
            elif cop == OP_GE:
                taken = v >= w
            elif cop == OP_EQ:
                taken = v == w
            else:
                taken = v != w
            bid = ins[10]
            path.append((bid, taken))
            covered.add((bid, taken))
            if taken:
                pc += 1
            else:
                pc = ins[12]
            continue
        elif op == OP_BRCMP:
            a = regs[ins[3]]
            b = regs[ins[4]]
            cop = ins[2]
            if cop == OP_LT:
                taken = a < b
            elif cop == OP_LE:
                taken = a <= b
            elif cop == OP_GT:
                taken = a > b
            elif cop == OP_GE:
                taken = a >= b
            elif cop == OP_EQ:
                taken = a == b
            else:
                taken = a != b
            bid = ins[5]
            path.append((bid, taken))
            covered.add((bid, taken))
            if taken:
                pc += 1
            else:
                pc = ins[7]
            continue
        elif op == OP_BINVK:
            # (cop, dst, s, n, ln, t2, k, line): var (op) const
            v = regs[ins[4]]
            if v is UNDEF:
                res.steps = steps
                raise InterpError(
                    f"undeclared variable {ins[5]!r} (line {ins[6]})"
                )
            if v.__class__ is list:
                res.steps = steps
                raise InterpError(
                    f"array {ins[5]!r} used as a scalar (line {ins[6]})"
                )
            t = ins[7]
            if t:
                steps += t
                if steps > budget:
                    res.steps = budget + 1
                    raise StepBudgetExceeded(
                        f"execution exceeded {budget} steps"
                    )
            cop = ins[2]
            b = ins[8]
            if cop == OP_ADD:
                out = v + b
            elif cop == OP_SUB:
                out = v - b
            elif cop == OP_MUL:
                out = v * b
            elif cop == OP_LT:
                out = 1 if v < b else 0
            elif cop == OP_LE:
                out = 1 if v <= b else 0
            elif cop == OP_GT:
                out = 1 if v > b else 0
            elif cop == OP_GE:
                out = 1 if v >= b else 0
            elif cop == OP_EQ:
                out = 1 if v == b else 0
            elif cop == OP_NE:
                out = 1 if v != b else 0
            elif cop == OP_AND:
                out = 1 if (v != 0 and b != 0) else 0
            elif cop == OP_OR:
                out = 1 if (v != 0 or b != 0) else 0
            else:
                if b == 0:
                    res.steps = steps
                    raise _ErrorSignal("division by zero", ins[9])
                q = abs(v) // abs(b)
                if (v >= 0) != (b >= 0):
                    q = -q
                out = q if cop == OP_DIV else v - b * q
            regs[ins[3]] = out
        elif op == OP_BINK:
            # (cop, dst, l, k, line): register (op) const
            a = regs[ins[4]]
            b = ins[5]
            cop = ins[2]
            if cop == OP_ADD:
                out = a + b
            elif cop == OP_SUB:
                out = a - b
            elif cop == OP_MUL:
                out = a * b
            elif cop == OP_LT:
                out = 1 if a < b else 0
            elif cop == OP_LE:
                out = 1 if a <= b else 0
            elif cop == OP_GT:
                out = 1 if a > b else 0
            elif cop == OP_GE:
                out = 1 if a >= b else 0
            elif cop == OP_EQ:
                out = 1 if a == b else 0
            elif cop == OP_NE:
                out = 1 if a != b else 0
            elif cop == OP_AND:
                out = 1 if (a != 0 and b != 0) else 0
            elif cop == OP_OR:
                out = 1 if (a != 0 or b != 0) else 0
            else:
                if b == 0:
                    res.steps = steps
                    raise _ErrorSignal("division by zero", ins[6])
                q = abs(a) // abs(b)
                if (a >= 0) != (b >= 0):
                    q = -q
                out = q if cop == OP_DIV else a - b * q
            regs[ins[3]] = out
        elif op == OP_BINV:
            # (cop, dst, l, s, n, ln, line): register (op) checked var
            v = regs[ins[5]]
            if v is UNDEF:
                res.steps = steps
                raise InterpError(
                    f"undeclared variable {ins[6]!r} (line {ins[7]})"
                )
            if v.__class__ is list:
                res.steps = steps
                raise InterpError(
                    f"array {ins[6]!r} used as a scalar (line {ins[7]})"
                )
            a = regs[ins[4]]
            cop = ins[2]
            if cop == OP_ADD:
                out = a + v
            elif cop == OP_SUB:
                out = a - v
            elif cop == OP_MUL:
                out = a * v
            elif cop == OP_LT:
                out = 1 if a < v else 0
            elif cop == OP_LE:
                out = 1 if a <= v else 0
            elif cop == OP_GT:
                out = 1 if a > v else 0
            elif cop == OP_GE:
                out = 1 if a >= v else 0
            elif cop == OP_EQ:
                out = 1 if a == v else 0
            elif cop == OP_NE:
                out = 1 if a != v else 0
            elif cop == OP_AND:
                out = 1 if (a != 0 and v != 0) else 0
            elif cop == OP_OR:
                out = 1 if (a != 0 or v != 0) else 0
            else:
                if v == 0:
                    res.steps = steps
                    raise _ErrorSignal("division by zero", ins[8])
                q = abs(a) // abs(v)
                if (a >= 0) != (v >= 0):
                    q = -q
                out = q if cop == OP_DIV else a - v * q
            regs[ins[3]] = out
        elif op == OP_BINVV:
            # (cop, dst, s1, n1, l1, t2, s2, n2, l2, line): var (op) var
            v = regs[ins[4]]
            if v is UNDEF:
                res.steps = steps
                raise InterpError(
                    f"undeclared variable {ins[5]!r} (line {ins[6]})"
                )
            if v.__class__ is list:
                res.steps = steps
                raise InterpError(
                    f"array {ins[5]!r} used as a scalar (line {ins[6]})"
                )
            t = ins[7]
            if t:
                steps += t
                if steps > budget:
                    res.steps = budget + 1
                    raise StepBudgetExceeded(
                        f"execution exceeded {budget} steps"
                    )
            w = regs[ins[8]]
            if w is UNDEF:
                res.steps = steps
                raise InterpError(
                    f"undeclared variable {ins[9]!r} (line {ins[10]})"
                )
            if w.__class__ is list:
                res.steps = steps
                raise InterpError(
                    f"array {ins[9]!r} used as a scalar (line {ins[10]})"
                )
            cop = ins[2]
            if cop == OP_ADD:
                out = v + w
            elif cop == OP_SUB:
                out = v - w
            elif cop == OP_MUL:
                out = v * w
            elif cop == OP_LT:
                out = 1 if v < w else 0
            elif cop == OP_LE:
                out = 1 if v <= w else 0
            elif cop == OP_GT:
                out = 1 if v > w else 0
            elif cop == OP_GE:
                out = 1 if v >= w else 0
            elif cop == OP_EQ:
                out = 1 if v == w else 0
            elif cop == OP_NE:
                out = 1 if v != w else 0
            elif cop == OP_AND:
                out = 1 if (v != 0 and w != 0) else 0
            elif cop == OP_OR:
                out = 1 if (v != 0 or w != 0) else 0
            else:
                if w == 0:
                    res.steps = steps
                    raise _ErrorSignal("division by zero", ins[11])
                q = abs(v) // abs(w)
                if (v >= 0) != (w >= 0):
                    q = -q
                out = q if cop == OP_DIV else v - w * q
            regs[ins[3]] = out
        elif op == OP_LOADV2:
            # (d1, s1, n1, l1, t2, d2, s2, n2, l2): two checked reads
            v = regs[ins[3]]
            if v is UNDEF:
                res.steps = steps
                raise InterpError(
                    f"undeclared variable {ins[4]!r} (line {ins[5]})"
                )
            if v.__class__ is list:
                res.steps = steps
                raise InterpError(
                    f"array {ins[4]!r} used as a scalar (line {ins[5]})"
                )
            regs[ins[2]] = v
            t = ins[6]
            if t:
                steps += t
                if steps > budget:
                    res.steps = budget + 1
                    raise StepBudgetExceeded(
                        f"execution exceeded {budget} steps"
                    )
            v = regs[ins[8]]
            if v is UNDEF:
                res.steps = steps
                raise InterpError(
                    f"undeclared variable {ins[9]!r} (line {ins[10]})"
                )
            if v.__class__ is list:
                res.steps = steps
                raise InterpError(
                    f"array {ins[9]!r} used as a scalar (line {ins[10]})"
                )
            regs[ins[7]] = v
        elif op == OP_LOADVK:
            # (d1, s1, n1, l1, t2, d2, k): checked read + constant
            v = regs[ins[3]]
            if v is UNDEF:
                res.steps = steps
                raise InterpError(
                    f"undeclared variable {ins[4]!r} (line {ins[5]})"
                )
            if v.__class__ is list:
                res.steps = steps
                raise InterpError(
                    f"array {ins[4]!r} used as a scalar (line {ins[5]})"
                )
            regs[ins[2]] = v
            t = ins[6]
            if t:
                steps += t
                if steps > budget:
                    res.steps = budget + 1
                    raise StepBudgetExceeded(
                        f"execution exceeded {budget} steps"
                    )
            regs[ins[7]] = ins[8]
        elif op == OP_CHECKDECL:
            if regs[ins[2]] is UNDEF:
                res.steps = steps
                raise InterpError(
                    f"assignment to undeclared variable {ins[3]!r} "
                    f"(line {ins[4]})"
                )
        elif op == OP_ADD:
            regs[ins[2]] = regs[ins[3]] + regs[ins[4]]
        elif op == OP_SUB:
            regs[ins[2]] = regs[ins[3]] - regs[ins[4]]
        elif op == OP_MUL:
            regs[ins[2]] = regs[ins[3]] * regs[ins[4]]
        elif op == OP_JUMP:
            pc = ins[2]
            continue
        elif op == OP_EQ:
            regs[ins[2]] = 1 if regs[ins[3]] == regs[ins[4]] else 0
        elif op == OP_NE:
            regs[ins[2]] = 1 if regs[ins[3]] != regs[ins[4]] else 0
        elif op == OP_LT:
            regs[ins[2]] = 1 if regs[ins[3]] < regs[ins[4]] else 0
        elif op == OP_LE:
            regs[ins[2]] = 1 if regs[ins[3]] <= regs[ins[4]] else 0
        elif op == OP_GT:
            regs[ins[2]] = 1 if regs[ins[3]] > regs[ins[4]] else 0
        elif op == OP_GE:
            regs[ins[2]] = 1 if regs[ins[3]] >= regs[ins[4]] else 0
        elif op == OP_STORE:
            regs[ins[2]] = regs[ins[3]]
        elif op == OP_AND:
            regs[ins[2]] = 1 if (regs[ins[3]] != 0 and regs[ins[4]] != 0) else 0
        elif op == OP_OR:
            regs[ins[2]] = 1 if (regs[ins[3]] != 0 or regs[ins[4]] != 0) else 0
        elif op == OP_DIV or op == OP_MOD:
            a = regs[ins[3]]
            b = regs[ins[4]]
            if b == 0:
                res.steps = steps
                raise _ErrorSignal("division by zero", ins[5])
            q = abs(a) // abs(b)
            if (a >= 0) != (b >= 0):
                q = -q
            regs[ins[2]] = q if op == OP_DIV else a - b * q
        elif op == OP_NEG:
            regs[ins[2]] = -regs[ins[3]]
        elif op == OP_NOT:
            regs[ins[2]] = 0 if regs[ins[3]] != 0 else 1
        elif op == OP_ZERO:
            regs[ins[2]] = 0
        elif op == OP_TICK:
            pass
        elif op == OP_CHECKARR:
            if not isinstance(regs[ins[2]], list):
                res.steps = steps
                raise InterpError(
                    f"{ins[3]!r} is not an array (line {ins[4]})"
                )
        elif op == OP_ALOAD:
            arr = regs[ins[3]]
            idx = regs[ins[4]]
            if not 0 <= idx < len(arr):
                res.steps = steps
                raise _ErrorSignal(
                    f"array index {idx} out of bounds for "
                    f"{ins[5]}[{len(arr)}]",
                    ins[6],
                )
            regs[ins[2]] = arr[idx]
        elif op == OP_ABOUND:
            arr = regs[ins[2]]
            idx = regs[ins[3]]
            if not 0 <= idx < len(arr):
                res.steps = steps
                raise _ErrorSignal(
                    f"array index {idx} out of bounds for "
                    f"{ins[4]}[{len(arr)}]",
                    ins[5],
                )
        elif op == OP_ASTORE:
            regs[ins[2]][regs[ins[3]]] = regs[ins[4]]
        elif op == OP_NEWARR:
            regs[ins[2]] = [0] * ins[3]
        elif op == OP_ASSERT:
            ok = regs[ins[2]] != 0
            bid = ins[3]
            path.append((bid, ok))
            covered.add((bid, ok))
            if not ok:
                res.steps = steps
                raise _ErrorSignal("assertion failed", ins[4])
        elif op == OP_CALL:
            res.steps = steps
            regs[ins[2]] = _frame_concrete(
                cp,
                funcs[ins[3]],
                regs[ins[4] : ins[4] + ins[5]],
                natives,
                res,
                budget,
            )
            steps = res.steps
        elif op == OP_NATIVE:
            regs[ins[2]] = natives.call(
                ins[3], tuple(regs[ins[4] : ins[4] + ins[5]])
            )
        elif op == OP_RET:
            res.steps = steps
            return regs[ins[2]]
        elif op == OP_RETK:
            res.steps = steps
            return ins[2]
        elif op == OP_ERROR:
            res.steps = steps
            raise _ErrorSignal(ins[2], ins[3])
        elif op == OP_ARITYERR:
            res.steps = steps
            raise InterpError(ins[2])
        else:  # pragma: no cover - compiler emits no other opcodes
            raise InterpError(f"unknown opcode {op}")
        pc += 1


# -- concolic shadow loop ------------------------------------------------------

#: lazily bound to :mod:`repro.symbolic.concolic` (importing it at module
#: load would cycle back into :mod:`repro.lang`)
_SYM = None
_SYM_CONSTS: Dict[int, object] = {}

#: binary opcode -> the int ``run_concrete`` computes for plain operands;
#: ``/`` and ``%`` raise :class:`DivisionByZero` on a zero divisor
_INT_BINOPS = {
    OP_ADD: operator.add,
    OP_SUB: operator.sub,
    OP_MUL: operator.mul,
    OP_DIV: c_div,
    OP_MOD: c_mod,
    OP_EQ: lambda a, b: 1 if a == b else 0,
    OP_NE: lambda a, b: 1 if a != b else 0,
    OP_LT: lambda a, b: 1 if a < b else 0,
    OP_LE: lambda a, b: 1 if a <= b else 0,
    OP_GT: lambda a, b: 1 if a > b else 0,
    OP_GE: lambda a, b: 1 if a >= b else 0,
    OP_AND: lambda a, b: 1 if (a != 0 and b != 0) else 0,
    OP_OR: lambda a, b: 1 if (a != 0 or b != 0) else 0,
}


def _plain_binop(ints, reserve, cop, a, b, line):
    """``a cop b`` on two plain ints, with the engine's id order.

    ``ConcolicEngine._apply_binary`` calls ``mk_int(a)`` and then
    ``mk_int(b)`` for every arithmetic op and comparison (not for
    ``&&``/``||``), even on two constants, and a term's ``tid`` is its
    rank in the manager's id counter; so each operand without an id
    takes one, in the same order and before a division by zero raises,
    but as a bare reservation: ``ints`` is the manager's ``int_ids`` and
    ``reserve`` its ``reserve_int``, and no ``Term`` is built until the
    value meets a symbolic operand, where ``mk_int`` gives it the
    reserved id.  Then the value is what :func:`run_concrete` computes,
    or the ``"division by zero"`` program error at ``line``.
    """
    if cop < OP_AND:
        if a not in ints:
            reserve(a)
        if b not in ints:
            reserve(b)
    try:
        return _INT_BINOPS[cop](a, b)
    except DivisionByZero:
        raise _ErrorSignal("division by zero", line) from None


def _sym_module():
    global _SYM
    if _SYM is None:
        from ..symbolic import concolic as sym

        _SYM = sym
    return _SYM


def _sym_const(value: int):
    """The shared ``SymValue`` of a compile-time constant."""
    sv = _SYM_CONSTS.get(value)
    if sv is None:
        sv = _SYM.SymValue(value)
        _SYM_CONSTS[value] = sv
    return sv


def _box(value):
    """A register value as a ``SymValue``, for the engine's helpers.

    A runtime int gets a fresh ``SymValue``: :func:`_sym_const`'s
    process-global table would keep every int ever seen alive.
    """
    sym_value = _SYM.SymValue
    return value if value.__class__ is sym_value else sym_value(value)


def _unbox(value):
    """An engine result as a register value: bare unless it carries a
    term, a bool term or pins."""
    if value.term is None and value.bool_term is None and not value.pins:
        return value.concrete
    return value


def exec_concolic(engine, cp: CompiledProgram, entry: str, args, result):
    """Run the concolic shadow over the compiled instruction stream.

    ``engine`` is a :class:`~repro.symbolic.concolic.ConcolicEngine`.
    Registers hold bare ints until a value carries a term: an operation
    on plain ints computes what :func:`run_concrete` computes, and only
    a symbolic operand (or an array, native call or assert, whose engine
    helpers take ``SymValue`` operands) goes through the engine's
    operand-level helpers.  Returns the function's result as a
    ``SymValue``; a program error raises the interpreter's
    ``_ErrorSignal``, as in :func:`run_concrete`.

    The fast path keeps the engine's id order, which fixes every term's
    ``tid`` and so every digest: for an arithmetic op or a comparison on
    two plain ints it reserves an id for the left and then the right
    operand, where the engine would call ``mk_int``, skipping each that
    already has an id; ``&&``, ``||``, unary ops, plain branch
    conditions and plain array indices reserve none.  A reservation
    builds no ``Term``: all-concrete code runs near concrete cost on a
    fresh manager, and a reserved constant that later reaches a
    condition is built with the id it would always have had.
    """
    _sym_module()
    return _box(
        _frame_concolic(engine, cp, cp.function(entry), list(args), result)
    )


def _frame_concolic(engine, cp: CompiledProgram, cf: CompiledFunction, args, res):
    sym_value = _SYM.SymValue
    apply_binary = engine._apply_binary
    record = engine._record_condition
    tm = engine.tm
    ints = tm.int_ids
    reserve = tm.reserve_int
    budget = engine.step_budget
    regs: List[object] = [UNDEF] * cf.nregs
    regs[: len(args)] = args
    code = cf.code
    funcs = cp.funcs
    path = res.path
    covered = res.covered
    steps = res.steps
    pc = 0
    while True:
        ins = code[pc]
        op = ins[0]
        t = ins[1]
        if t:
            steps += t
            if steps > budget:
                res.steps = budget + 1
                raise StepBudgetExceeded(
                    f"concolic execution exceeded {budget} steps"
                )
        if op == OP_LOADV:
            v = regs[ins[3]]
            if v is UNDEF:
                res.steps = steps
                raise InterpError(
                    f"undeclared variable {ins[4]!r} (line {ins[5]})"
                )
            if v.__class__ is list:
                res.steps = steps
                raise InterpError(
                    f"array {ins[4]!r} used as a scalar (line {ins[5]})"
                )
            regs[ins[2]] = v
        elif op == OP_LOADK:
            regs[ins[2]] = ins[3]
        elif op == OP_BR:
            cond = regs[ins[2]]
            symbolic = cond.__class__ is sym_value
            taken = (cond.concrete if symbolic else cond) != 0
            bid = ins[3]
            path.append((bid, taken))
            covered.add((bid, taken))
            if symbolic:
                # a plain condition records nothing in any mode
                res.steps = steps
                record(cond, taken, bid, ins[4], res)
            if taken:
                pc += 1
            else:
                pc = ins[5]
            continue
        elif op == OP_GUARDVK:
            # (cop, s, n, ln, t2, k, bid, line, target)
            v = regs[ins[3]]
            if v is UNDEF:
                res.steps = steps
                raise InterpError(
                    f"undeclared variable {ins[4]!r} (line {ins[5]})"
                )
            if v.__class__ is list:
                res.steps = steps
                raise InterpError(
                    f"array {ins[4]!r} used as a scalar (line {ins[5]})"
                )
            t = ins[6]
            if t:
                steps += t
                if steps > budget:
                    res.steps = budget + 1
                    raise StepBudgetExceeded(
                        f"concolic execution exceeded {budget} steps"
                    )
            k = ins[7]
            if v.__class__ is int:
                cond = None
                taken = _plain_binop(ints, reserve, ins[2], v, k, 0) != 0
            else:
                res.steps = steps
                cond = apply_binary(_OPSTR[ins[2]], _box(v), _sym_const(k), 0, res)
                taken = cond.concrete != 0
            bid = ins[8]
            path.append((bid, taken))
            covered.add((bid, taken))
            if cond is not None:
                record(cond, taken, bid, ins[9], res)
            if taken:
                pc += 1
            else:
                pc = ins[10]
            continue
        elif op == OP_GUARDVV:
            # (cop, s1, n1, l1, t2, s2, n2, l2, bid, line, target)
            v = regs[ins[3]]
            if v is UNDEF:
                res.steps = steps
                raise InterpError(
                    f"undeclared variable {ins[4]!r} (line {ins[5]})"
                )
            if v.__class__ is list:
                res.steps = steps
                raise InterpError(
                    f"array {ins[4]!r} used as a scalar (line {ins[5]})"
                )
            t = ins[6]
            if t:
                steps += t
                if steps > budget:
                    res.steps = budget + 1
                    raise StepBudgetExceeded(
                        f"concolic execution exceeded {budget} steps"
                    )
            w = regs[ins[7]]
            if w is UNDEF:
                res.steps = steps
                raise InterpError(
                    f"undeclared variable {ins[8]!r} (line {ins[9]})"
                )
            if w.__class__ is list:
                res.steps = steps
                raise InterpError(
                    f"array {ins[8]!r} used as a scalar (line {ins[9]})"
                )
            if v.__class__ is int and w.__class__ is int:
                cond = None
                taken = _plain_binop(ints, reserve, ins[2], v, w, 0) != 0
            else:
                res.steps = steps
                cond = apply_binary(_OPSTR[ins[2]], _box(v), _box(w), 0, res)
                taken = cond.concrete != 0
            bid = ins[10]
            path.append((bid, taken))
            covered.add((bid, taken))
            if cond is not None:
                record(cond, taken, bid, ins[11], res)
            if taken:
                pc += 1
            else:
                pc = ins[12]
            continue
        elif op == OP_BINVV:
            # (cop, dst, s1, n1, l1, t2, s2, n2, l2, line)
            v = regs[ins[4]]
            if v is UNDEF:
                res.steps = steps
                raise InterpError(
                    f"undeclared variable {ins[5]!r} (line {ins[6]})"
                )
            if v.__class__ is list:
                res.steps = steps
                raise InterpError(
                    f"array {ins[5]!r} used as a scalar (line {ins[6]})"
                )
            t = ins[7]
            if t:
                steps += t
                if steps > budget:
                    res.steps = budget + 1
                    raise StepBudgetExceeded(
                        f"concolic execution exceeded {budget} steps"
                    )
            w = regs[ins[8]]
            if w is UNDEF:
                res.steps = steps
                raise InterpError(
                    f"undeclared variable {ins[9]!r} (line {ins[10]})"
                )
            if w.__class__ is list:
                res.steps = steps
                raise InterpError(
                    f"array {ins[9]!r} used as a scalar (line {ins[10]})"
                )
            cop = ins[2]
            res.steps = steps
            if v.__class__ is int and w.__class__ is int:
                regs[ins[3]] = _plain_binop(ints, reserve, cop, v, w, ins[11])
            else:
                regs[ins[3]] = _unbox(
                    apply_binary(_OPSTR[cop], _box(v), _box(w), ins[11], res)
                )
        elif op == OP_BRCMP:
            # (cop, l, r, bid, line, target)
            a = regs[ins[3]]
            b = regs[ins[4]]
            if a.__class__ is int and b.__class__ is int:
                cond = None
                taken = _plain_binop(ints, reserve, ins[2], a, b, 0) != 0
            else:
                res.steps = steps
                cond = apply_binary(_OPSTR[ins[2]], _box(a), _box(b), 0, res)
                taken = cond.concrete != 0
            bid = ins[5]
            path.append((bid, taken))
            covered.add((bid, taken))
            if cond is not None:
                record(cond, taken, bid, ins[6], res)
            if taken:
                pc += 1
            else:
                pc = ins[7]
            continue
        elif op == OP_BINVK:
            # (cop, dst, s, n, ln, t2, k, line)
            v = regs[ins[4]]
            if v is UNDEF:
                res.steps = steps
                raise InterpError(
                    f"undeclared variable {ins[5]!r} (line {ins[6]})"
                )
            if v.__class__ is list:
                res.steps = steps
                raise InterpError(
                    f"array {ins[5]!r} used as a scalar (line {ins[6]})"
                )
            t = ins[7]
            if t:
                steps += t
                if steps > budget:
                    res.steps = budget + 1
                    raise StepBudgetExceeded(
                        f"concolic execution exceeded {budget} steps"
                    )
            cop = ins[2]
            k = ins[8]
            res.steps = steps
            if v.__class__ is int:
                regs[ins[3]] = _plain_binop(ints, reserve, cop, v, k, ins[9])
            else:
                regs[ins[3]] = _unbox(
                    apply_binary(_OPSTR[cop], _box(v), _sym_const(k), ins[9], res)
                )
        elif op == OP_BINK:
            # (cop, dst, l, k, line)
            a = regs[ins[4]]
            cop = ins[2]
            k = ins[5]
            res.steps = steps
            if a.__class__ is int:
                regs[ins[3]] = _plain_binop(ints, reserve, cop, a, k, ins[6])
            else:
                regs[ins[3]] = _unbox(
                    apply_binary(_OPSTR[cop], _box(a), _sym_const(k), ins[6], res)
                )
        elif op == OP_BINV:
            # (cop, dst, l, s, n, ln, line)
            v = regs[ins[5]]
            if v is UNDEF:
                res.steps = steps
                raise InterpError(
                    f"undeclared variable {ins[6]!r} (line {ins[7]})"
                )
            if v.__class__ is list:
                res.steps = steps
                raise InterpError(
                    f"array {ins[6]!r} used as a scalar (line {ins[7]})"
                )
            a = regs[ins[4]]
            cop = ins[2]
            res.steps = steps
            if a.__class__ is int and v.__class__ is int:
                regs[ins[3]] = _plain_binop(ints, reserve, cop, a, v, ins[8])
            else:
                regs[ins[3]] = _unbox(
                    apply_binary(_OPSTR[cop], _box(a), _box(v), ins[8], res)
                )
        elif op == OP_LOADV2:
            # (d1, s1, n1, l1, t2, d2, s2, n2, l2)
            v = regs[ins[3]]
            if v is UNDEF:
                res.steps = steps
                raise InterpError(
                    f"undeclared variable {ins[4]!r} (line {ins[5]})"
                )
            if v.__class__ is list:
                res.steps = steps
                raise InterpError(
                    f"array {ins[4]!r} used as a scalar (line {ins[5]})"
                )
            regs[ins[2]] = v
            t = ins[6]
            if t:
                steps += t
                if steps > budget:
                    res.steps = budget + 1
                    raise StepBudgetExceeded(
                        f"concolic execution exceeded {budget} steps"
                    )
            v = regs[ins[8]]
            if v is UNDEF:
                res.steps = steps
                raise InterpError(
                    f"undeclared variable {ins[9]!r} (line {ins[10]})"
                )
            if v.__class__ is list:
                res.steps = steps
                raise InterpError(
                    f"array {ins[9]!r} used as a scalar (line {ins[10]})"
                )
            regs[ins[7]] = v
        elif op == OP_LOADVK:
            # (d1, s1, n1, l1, t2, d2, k)
            v = regs[ins[3]]
            if v is UNDEF:
                res.steps = steps
                raise InterpError(
                    f"undeclared variable {ins[4]!r} (line {ins[5]})"
                )
            if v.__class__ is list:
                res.steps = steps
                raise InterpError(
                    f"array {ins[4]!r} used as a scalar (line {ins[5]})"
                )
            regs[ins[2]] = v
            t = ins[6]
            if t:
                steps += t
                if steps > budget:
                    res.steps = budget + 1
                    raise StepBudgetExceeded(
                        f"concolic execution exceeded {budget} steps"
                    )
            regs[ins[7]] = ins[8]
        elif OP_ADD <= op <= OP_OR:
            a = regs[ins[3]]
            b = regs[ins[4]]
            line = ins[5] if (op == OP_DIV or op == OP_MOD) else 0
            res.steps = steps
            if a.__class__ is int and b.__class__ is int:
                regs[ins[2]] = _plain_binop(ints, reserve, op, a, b, line)
            else:
                regs[ins[2]] = _unbox(
                    apply_binary(_OPSTR[op], _box(a), _box(b), line, res)
                )
        elif op == OP_STORE:
            regs[ins[2]] = regs[ins[3]]
        elif op == OP_JUMP:
            pc = ins[2]
            continue
        elif op == OP_NEG:
            v = regs[ins[3]]
            if v.__class__ is int:
                regs[ins[2]] = -v
            else:
                regs[ins[2]] = _unbox(engine._apply_unary("-", _box(v)))
        elif op == OP_NOT:
            v = regs[ins[3]]
            if v.__class__ is int:
                regs[ins[2]] = 0 if v != 0 else 1
            else:
                regs[ins[2]] = _unbox(engine._apply_unary("!", _box(v)))
        elif op == OP_CHECKDECL:
            if regs[ins[2]] is UNDEF:
                res.steps = steps
                raise InterpError(
                    f"assignment to undeclared variable {ins[3]!r} "
                    f"(line {ins[4]})"
                )
        elif op == OP_ZERO:
            regs[ins[2]] = 0
        elif op == OP_TICK:
            pass
        elif op == OP_CHECKARR:
            if not isinstance(regs[ins[2]], list):
                res.steps = steps
                raise InterpError(
                    f"{ins[3]!r} is not an array (line {ins[4]})"
                )
        elif op == OP_ALOAD:
            res.steps = steps
            regs[ins[2]] = _unbox(
                engine._read_cell(
                    regs[ins[3]], _box(regs[ins[4]]), ins[5], ins[6], res
                )
            )
        elif op == OP_ABOUND:
            pass  # concrete-only: the shadow resolves at OP_ASTORE
        elif op == OP_ASTORE:
            arr = regs[ins[2]]
            res.steps = steps
            concrete_idx = engine._resolve_index(
                _box(regs[ins[3]]), arr, ins[5], ins[6], res, store=True
            )
            arr[concrete_idx] = _box(regs[ins[4]])
        elif op == OP_NEWARR:
            regs[ins[2]] = [_sym_const(0)] * ins[3]
        elif op == OP_ASSERT:
            cond = _box(regs[ins[2]])
            ok = cond.concrete != 0
            bid = ins[3]
            path.append((bid, ok))
            covered.add((bid, ok))
            res.steps = steps
            record(cond, ok, bid, ins[4], res)
            if not ok:
                raise _ErrorSignal("assertion failed", ins[4])
        elif op == OP_CALL:
            res.steps = steps
            regs[ins[2]] = _frame_concolic(
                engine, cp, funcs[ins[3]], regs[ins[4] : ins[4] + ins[5]], res
            )
            steps = res.steps
        elif op == OP_NATIVE:
            res.steps = steps
            regs[ins[2]] = _unbox(
                engine._apply_native(
                    ins[3], [_box(a) for a in regs[ins[4] : ins[4] + ins[5]]], res
                )
            )
        elif op == OP_RET:
            res.steps = steps
            return regs[ins[2]]
        elif op == OP_RETK:
            res.steps = steps
            return ins[2]
        elif op == OP_ERROR:
            res.steps = steps
            raise _ErrorSignal(ins[2], ins[3])
        elif op == OP_ARITYERR:
            res.steps = steps
            raise InterpError(ins[2])
        else:  # pragma: no cover - compiler emits no other opcodes
            raise InterpError(f"unknown opcode {op}")
        pc += 1
