"""Compiles expanded DSL terms to a flat integer bytecode.

The code is a tuple of Python ints, pairs of (op, arg), run by `pykernel`.
The stack machine works on ints: booleans as 0/1, object codes raw,
mapObject packed as (code << 16) | (x << 8) | y, actions as indices into the
primitive table's action list. `get` reads the grid directly, so the map
argument slot is a dummy. Out-of-bounds `get` aborts execution with -1, where
the interpreter raises; callers treat both as a failed imitation.

Every closed, well-typed, first-order, library-expanded program compiles.
Anything else (an unexpanded library call, an open term, an inner lambda, a
name applied to more or fewer arguments than its type has) raises
KernelUnsupportedError; callers inline abstractions first.
"""
from __future__ import annotations

from dataclasses import dataclass

from gridsynth.errors import GridSynthError
from gridsynth.lang import Lambda, Term, Var, spine
from gridsynth.primitives import PrimTable

OP_CONST = 1
OP_VAR_DIR = 2
OP_VAR_MAP = 3
OP_GET = 4
OP_EQ_OBJ = 5
OP_EQ_DIR = 6
OP_GGO = 7
OP_NOT = 8
OP_AND = 9
OP_OR = 10
OP_GETX = 11
OP_GETY = 12
OP_EQX = 13
OP_EQY = 14
OP_GTX = 15
OP_GTY = 16
OP_JF = 17
OP_JMP = 18
OP_RET = 19

_SIMPLE_OPS = {
    "eq-obj?": OP_EQ_OBJ,
    "eq-direction?": OP_EQ_DIR,
    "get-game-obj": OP_GGO,
    "not": OP_NOT,
    "and": OP_AND,
    "or": OP_OR,
    "get-x": OP_GETX,
    "get-y": OP_GETY,
    "eq-x?": OP_EQX,
    "eq-y?": OP_EQY,
    "gt-x?": OP_GTX,
    "gt-y?": OP_GTY,
}


class KernelUnsupportedError(GridSynthError):
    """Term shape the bytecode compiler does not handle."""


@dataclass(frozen=True)
class CompiledProgram:
    code: tuple[int, ...]  # pairs of (op, arg)


class _Emitter:
    def __init__(self, prims: PrimTable, arity: int):
        self.prims = prims
        self.arity = arity
        self.code: list[int] = []
        self.action_ids = {w: i for i, w in enumerate(prims.action_words)}

    def op(self, opcode: int, arg: int = 0) -> int:
        at = len(self.code)
        self.code.extend((opcode, arg))
        return at

    def emit(self, term: Term):
        head, args = spine(term)
        if isinstance(head, Lambda):
            raise KernelUnsupportedError("inner lambda")
        if isinstance(head, Var):
            if args:
                raise KernelUnsupportedError("applied variable")
            self._emit_var(head)
            return
        name = head.name
        entry = self.prims.by_name.get(name)
        if entry is None:
            raise KernelUnsupportedError(f"unknown primitive {name!r}")
        if len(args) != entry.arity:
            raise KernelUnsupportedError(f"{name} takes {entry.arity} arguments, applied to {len(args)}")
        if entry.kind != "function":
            self._emit_const(entry)
            return
        if name == "if":
            self.emit(args[0])
            jf = self.op(OP_JF, 0)
            self.emit(args[1])
            jmp = self.op(OP_JMP, 0)
            self.code[jf + 1] = len(self.code)
            self.emit(args[2])
            self.code[jmp + 1] = len(self.code)
            return
        if name == "get":
            for a in args:
                self.emit(a)
            self.op(OP_GET)
            return
        opcode = _SIMPLE_OPS.get(name)
        if opcode is None:
            raise KernelUnsupportedError(f"no opcode for {name}")
        for a in args:
            self.emit(a)
        self.op(opcode)

    def _emit_var(self, var: Var):
        # arity 2: Var(1) = map, Var(0) = direction; arity 1: Var(0) = map
        if var.index >= self.arity:
            raise KernelUnsupportedError("unbound variable")
        is_map = var.index == self.arity - 1
        self.op(OP_VAR_MAP if is_map else OP_VAR_DIR)

    def _emit_const(self, entry):
        if entry.kind == "action":
            value = self.action_ids[entry.value]
        else:
            value = int(entry.value)
        self.op(OP_CONST, value)


def compile_term(term: Term, prims: PrimTable) -> CompiledProgram:
    """Compile a closed, library-expanded program term."""
    arity = 0
    body = term
    while isinstance(body, Lambda):
        arity += 1
        body = body.body
    if arity not in (1, 2):
        raise KernelUnsupportedError(f"program arity {arity}")
    em = _Emitter(prims, arity)
    em.emit(body)
    em.op(OP_RET)
    return CompiledProgram(code=tuple(em.code))
