"""Reference evaluator for DSL programs.

Call-by-value except `if`, which evaluates its condition and then only the
taken branch. This is the semantics of record; the bytecode kernel must agree
with it exactly, including error behavior. A tracer hook receives one event
per completed primitive or abstraction call, in evaluation order.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from gridsynth.errors import EvalError, OutOfBoundsGetError, TypeMismatchError
from gridsynth.lang import Apply, Lambda, Prim, Term, Var, spine
from gridsynth.primitives import PrimTable
from gridsynth.state import GridState

ARITIES = {
    "if": 3,
    "eq-obj?": 2,
    "eq-direction?": 2,
    "get": 3,
    "get-game-obj": 1,
    "not": 1,
    "and": 2,
    "or": 2,
    "get-x": 1,
    "get-y": 1,
    "eq-x?": 2,
    "eq-y?": 2,
    "gt-x?": 2,
    "gt-y?": 2,
}


@dataclass(frozen=True)
class MapObj:
    """A cell fetched from a map: object code plus its coordinates."""

    code: int
    x: int
    y: int


@dataclass(frozen=True)
class Obj:
    code: int


@dataclass(frozen=True)
class Closure:
    body: Term
    env: tuple


@dataclass(frozen=True)
class Builtin:
    name: str
    got: tuple = ()


# Tracer callback signature: (callee, args, result, level, accessed_cell, branch)
Tracer = Callable


class _Ctx:
    __slots__ = ("prims", "defs", "tracer", "level")

    def __init__(self, prims, defs, tracer):
        self.prims = prims
        self.defs = defs
        self.tracer = tracer
        self.level = 0


def _emit(ctx: _Ctx, callee, args, result, accessed_cell=None, branch=None):
    if ctx.tracer is not None:
        ctx.tracer(callee, tuple(args), result, ctx.level, accessed_cell, branch)


def _apply_builtin(ctx: _Ctx, name: str, args: list):
    if name == "get":
        m, x, y = args
        if not (0 <= x < m.width and 0 <= y < m.height):
            raise OutOfBoundsGetError(x=x, y=y, width=m.width, height=m.height)
        result = MapObj(m.cell(x, y), x, y)
        _emit(ctx, name, args, result, accessed_cell=(x, y))
        return result
    if name == "eq-obj?":
        result = args[0].code == args[1].code
    elif name == "eq-direction?":
        result = args[0] == args[1]
    elif name == "get-game-obj":
        result = Obj(args[0].code)
    elif name == "not":
        result = not args[0]
    elif name == "and":
        result = args[0] and args[1]
    elif name == "or":
        result = args[0] or args[1]
    elif name == "get-x":
        result = args[0].x
    elif name == "get-y":
        result = args[0].y
    elif name == "eq-x?":
        result = args[0] == args[1]
    elif name == "eq-y?":
        result = args[0] == args[1]
    elif name == "gt-x?":
        result = args[0] > args[1]
    elif name == "gt-y?":
        result = args[0] > args[1]
    elif name == "if":
        # Reached only through exotic partial application; the normal path
        # handles `if` lazily at the spine.
        result = args[1] if args[0] else args[2]
    else:
        raise EvalError(f"unknown builtin {name!r}")
    _emit(ctx, name, args, result)
    return result


def _apply_value(ctx: _Ctx, fn, arg):
    if isinstance(fn, Closure):
        return _eval(ctx, fn.body, (arg,) + fn.env)
    if isinstance(fn, Builtin):
        got = fn.got + (arg,)
        if len(got) == ARITIES[fn.name]:
            return _apply_builtin(ctx, fn.name, list(got))
        return Builtin(fn.name, got)
    raise EvalError(f"cannot apply non-function value {fn!r}")


def _const_value(ctx: _Ctx, entry):
    if entry.kind == "object":
        return Obj(entry.value)
    return entry.value


def _eval(ctx: _Ctx, term: Term, env: tuple):
    if isinstance(term, Var):
        return env[term.index]
    if isinstance(term, Lambda):
        return Closure(term.body, env)
    if isinstance(term, Prim):
        return _prim_value(ctx, term.name)
    head, args = spine(term)
    if isinstance(head, Prim):
        name = head.name
        if name == "if" and len(args) >= 3:
            cond = _eval(ctx, args[0], env)
            if not isinstance(cond, bool):
                raise EvalError(f"if condition evaluated to {cond!r}, not a bool")
            taken = args[1] if cond else args[2]
            result = _eval(ctx, taken, env)
            _emit(ctx, "if", [cond], result, branch="then" if cond else "else")
            for extra in args[3:]:
                result = _apply_value(ctx, result, _eval(ctx, extra, env))
            return result
        if name in ctx.defs:
            return _apply_abstraction(ctx, name, args, env)
        entry = ctx.prims.get(name)
        if entry.kind == "function" and len(args) == ARITIES.get(name, -1):
            vals = [_eval(ctx, a, env) for a in args]
            return _apply_builtin(ctx, name, vals)
    result = _eval(ctx, head, env)
    for a in args:
        result = _apply_value(ctx, result, _eval(ctx, a, env))
    return result


def _prim_value(ctx: _Ctx, name: str):
    if name in ctx.defs:
        return _eval(ctx, ctx.defs[name], ())
    entry = ctx.prims.get(name)
    if entry.kind == "function":
        return Builtin(name)
    return _const_value(ctx, entry)


def _apply_abstraction(ctx: _Ctx, name: str, args, env):
    body = ctx.defs[name]
    arity = 0
    while isinstance(body, Lambda):
        arity += 1
        body = body.body
    if len(args) < arity:
        result = _eval(ctx, ctx.defs[name], ())
        for a in args:
            result = _apply_value(ctx, result, _eval(ctx, a, env))
        return result
    vals = [_eval(ctx, a, env) for a in args[:arity]]
    inner_env = tuple(reversed(vals))
    ctx.level += 1
    try:
        result = _eval(ctx, body, inner_env)
    finally:
        ctx.level -= 1
    _emit(ctx, name, vals, result)
    for extra in args[arity:]:
        result = _apply_value(ctx, result, _eval(ctx, extra, env))
    return result


def exec_program(
    term: Term,
    state: GridState,
    prims: PrimTable,
    library=None,
    tracer: Tracer | None = None,
) -> str:
    """Run a program on an observation and return the chosen action word.

    Programs of type map -> action get the grid; map -> direction -> action
    programs also get the state's facing direction. Evaluation errors
    (OutOfBoundsGet in particular) propagate to the caller.
    """
    defs = {a.name: a.body for a in library} if library else {}
    ctx = _Ctx(prims, defs, tracer)
    value = _eval(ctx, term, ())
    if isinstance(value, (Closure, Builtin)):
        value = _apply_value(ctx, value, state)
    if isinstance(value, (Closure, Builtin)):
        if state.direction is None:
            raise EvalError("program expects a direction but the state has none")
        value = _apply_value(ctx, value, state.direction)
    if not isinstance(value, str):
        raise TypeMismatchError(
            expected="action", found=repr(value), location="program result"
        )
    if value not in prims.action_words:
        raise TypeMismatchError(
            expected="action", found=value, location="program result"
        )
    return value
