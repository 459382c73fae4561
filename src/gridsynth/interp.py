"""Reference evaluator for DSL programs.

Programs are first-order: every primitive, constant and library name is
applied to exactly its arity, and the only binders are the program's own
(the map, and on the maze the direction) and those of library bodies. So a
term is a variable, a full application of a primitive, or a full call of a
library abstraction; anything else (a partial or over-application, an
applied variable, an inner lambda, a name the library lacks) raises
EvalError. A primitive's arity is the number of arguments in its type.

A primitive evaluates all of its arguments first, except `if`, which
evaluates its condition and then only the taken branch. A library call is
call-by-need: an argument is evaluated, once, where the body first uses it,
so one the body leaves on a branch not taken never runs and cannot fail, as
in the inlined term the kernel runs. This is the semantics of record; the
kernel must agree with it exactly, including error behavior. A tracer hook
receives one event per completed primitive or abstraction call, in
evaluation order; the events of an abstraction's body sit one level deeper
than the call's own event, and an argument's events sit where it is first
used, at its caller's level. A call's event shows None for an argument the
body never used.
"""
from __future__ import annotations

import operator
from dataclasses import dataclass
from typing import Callable

from gridsynth.errors import EvalError, OutOfBoundsGetError, TypeMismatchError
from gridsynth.lang import Prim, Term, Var, peel, spine
from gridsynth.primitives import PrimTable
from gridsynth.state import GridState


@dataclass(frozen=True)
class MapObj:
    """A cell fetched from a map: object code plus its coordinates."""

    code: int
    x: int
    y: int


@dataclass(frozen=True)
class Obj:
    code: int


# Tracer callback signature: (callee, args, result, level, accessed_cell, branch)
Tracer = Callable


class _Ctx:
    __slots__ = ("prims", "defs", "tracer", "level")

    def __init__(self, prims, defs, tracer):
        self.prims = prims
        self.defs = defs
        self.tracer = tracer
        self.level = 0


class _Arg:
    """A library call's argument, evaluated at its caller's level where the
    body first uses it; `value` is None until then."""

    __slots__ = ("term", "env", "level", "value")

    def __init__(self, term: Term, env: tuple, level: int):
        self.term, self.env, self.level, self.value = term, env, level, None

    def force(self, ctx: "_Ctx"):
        if self.term is not None:
            level, ctx.level = ctx.level, self.level
            try:
                self.value = _eval(ctx, self.term, self.env)
            finally:
                ctx.level = level
            self.term = self.env = None
        return self.value


def _bind(ctx: _Ctx, term: Term, env: tuple):
    """What a parameter is bound to: a variable's own binding, a constant's
    value (neither can fail or emit events), or the unevaluated argument."""
    if isinstance(term, Var):
        return env[term.index]
    entry = ctx.prims.by_name.get(term.name) if isinstance(term, Prim) else None
    if entry is not None and entry.kind != "function" and term.name not in ctx.defs:
        return _eval(ctx, term, env)
    return _Arg(term, env, ctx.level)


def _emit(ctx: _Ctx, callee, args, result, accessed_cell=None, branch=None):
    if ctx.tracer is not None:
        ctx.tracer(callee, tuple(args), result, ctx.level, accessed_cell, branch)


def _get(m, x, y):
    if not (0 <= x < m.width and 0 <= y < m.height):
        raise OutOfBoundsGetError(x=x, y=y, width=m.width, height=m.height)
    return MapObj(m.cell(x, y), x, y)


# Every function primitive but `if`, by name, on its evaluated arguments.
_BUILTINS = {
    "get": _get,
    "eq-obj?": lambda a, b: a.code == b.code,
    "eq-direction?": operator.eq,
    "eq-x?": operator.eq,
    "eq-y?": operator.eq,
    "gt-x?": operator.gt,
    "gt-y?": operator.gt,
    "get-game-obj": lambda m: Obj(m.code),
    "get-x": lambda m: m.x,
    "get-y": lambda m: m.y,
    "not": operator.not_,
    "and": lambda a, b: a and b,
    "or": lambda a, b: a or b,
}


def _eval(ctx: _Ctx, term: Term, env: tuple):
    head, args = spine(term)
    if isinstance(head, Var):
        if args:
            raise EvalError("applied variable")
        value = env[head.index]
        return value.force(ctx) if isinstance(value, _Arg) else value
    if not isinstance(head, Prim):
        raise EvalError("inner lambda")
    name = head.name
    if name in ctx.defs:
        arity, body = ctx.defs[name]
        if len(args) != arity:
            raise EvalError(f"{name} takes {arity} arguments, applied to {len(args)}")
        bound = [_bind(ctx, a, env) for a in args]
        ctx.level += 1
        try:
            result = _eval(ctx, body, tuple(reversed(bound)))
        finally:
            ctx.level -= 1
        _emit(ctx, name, [b.value if isinstance(b, _Arg) else b for b in bound], result)
        return result
    entry = ctx.prims.by_name.get(name)
    if entry is None:
        raise EvalError(f"{name!r} is neither a primitive nor in the library")
    if len(args) != entry.arity:
        raise EvalError(f"{name} takes {entry.arity} arguments, applied to {len(args)}")
    if entry.kind != "function":
        return Obj(entry.value) if entry.kind == "object" else entry.value
    if name == "if":
        cond = _eval(ctx, args[0], env)
        if not isinstance(cond, bool):
            raise EvalError(f"if condition evaluated to {cond!r}, not a bool")
        result = _eval(ctx, args[1] if cond else args[2], env)
        _emit(ctx, "if", [cond], result, branch="then" if cond else "else")
        return result
    values = [_eval(ctx, a, env) for a in args]
    result = _BUILTINS[name](*values)
    _emit(ctx, name, values, result, accessed_cell=(result.x, result.y) if name == "get" else None)
    return result


def exec_program(
    term: Term,
    state: GridState,
    prims: PrimTable,
    library=None,
    tracer: Tracer | None = None,
) -> str:
    """Run a program on an observation and return the chosen action word.

    A program of one binder gets the grid; one of two binders (map ->
    direction -> action) also gets the state's facing direction, bound
    innermost as in the kernel. Evaluation errors (OutOfBoundsGet in
    particular) propagate to the caller.
    """
    defs = {a.name: peel(a.body) for a in library} if library else {}
    ctx = _Ctx(prims, defs, tracer)
    arity, body = peel(term)
    if arity == 1:
        env = (state,)
    elif arity == 2:
        if state.direction is None:
            raise EvalError("program expects a direction but the state has none")
        env = (state.direction, state)
    else:
        raise EvalError(f"program takes {arity} arguments; expected 1 or 2")
    value = _eval(ctx, body, env)
    if not isinstance(value, str):
        raise TypeMismatchError(
            expected="action", found=repr(value), location="program result"
        )
    if value not in prims.action_words:
        raise TypeMismatchError(
            expected="action", found=value, location="program result"
        )
    return value
