"""The closure kernel: compile a library-expanded program once, then run it
on many grids.

`compile_term` turns a term into a tree of Python closures, one per node,
each called as `node(grid, width, height, direction)` on a flat row-major
grid; `execute` runs the root on one grid, and `check_trajectory` counts how
many leading steps of a task it reproduces. Every run-time check of a
program goes through here: candidate checks, dream rollouts, `data.imitates`
and evaluation. The tree interpreter in `gridsynth.interp` stays the
semantics of record: it drives `explain`, and the tests hold the kernel to it.

Constant operands are captured as values, not nodes. Values are ints:
booleans as Python bools, object codes raw, mapObject packed as (code << 16)
| (x << 8) | y, actions as indices into the table's action list. `get` reads
the grid directly, so the map is never a value. `if` evaluates only the
taken branch; every other primitive evaluates all of its operands. An
out-of-bounds `get` fails the imitation: `execute` returns -1 and
`check_trajectory` stops counting. Grids may be lists, tuples or numpy
arrays of ints; lists and tuples are the fast form.

Every closed, well-typed, first-order, library-expanded program compiles;
anything else (an unexpanded library call, an open term, an inner lambda, a
name applied to more or fewer arguments than its type has) raises
KernelUnsupportedError.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from gridsynth.errors import GridSynthError
from gridsynth.lang import Lambda, Term, Var, peel, spine
from gridsynth.primitives import PrimTable


class KernelUnsupportedError(GridSynthError):
    """Term shape the closure compiler does not handle."""


class _OutOfRange(Exception):
    """A `get` outside the grid; never escapes this module."""


BACKEND = "python"


@dataclass(frozen=True)
class CompiledProgram:
    code: Callable  # code(grid, width, height, direction) -> action id


# The map binder: `get` reads the grid itself, so the map needs no closure.
_MAP = object()


def _direction(g, w, h, d):
    return d


def _fn(node):
    """A closure for any operand, constants and the map included."""
    if callable(node):
        return node
    value = 0 if node is _MAP else node
    return lambda g, w, h, d: value


def _if(c, t, e):
    if not (callable(t) or callable(e)):
        return lambda g, w, h, d: t if c(g, w, h, d) else e
    t, e = _fn(t), _fn(e)
    return lambda g, w, h, d: t(g, w, h, d) if c(g, w, h, d) else e(g, w, h, d)


def _get(m, x, y):
    if callable(x) or callable(y) or x < 0 or y < 0:
        x, y = _fn(x), _fn(y)

        def node(g, w, h, d):
            xv = x(g, w, h, d)
            yv = y(g, w, h, d)
            if 0 <= xv < w and 0 <= yv < h:
                return (g[yv * w + xv] << 16) | (xv << 8) | yv
            raise _OutOfRange
    else:
        xy = (x << 8) | y

        def node(g, w, h, d):
            if x < w and y < h:
                return (g[y * w + x] << 16) | xy
            raise _OutOfRange
    if m is _MAP:
        return node

    def with_map(g, w, h, d):  # a map chosen by `if`, whose condition may fail
        m(g, w, h, d)
        return node(g, w, h, d)
    return with_map


def _eq_obj(o, m):
    if not callable(o):
        return lambda g, w, h, d: m(g, w, h, d) >> 16 == o
    return lambda g, w, h, d: o(g, w, h, d) == m(g, w, h, d) >> 16


def _eq(a, b):
    a = _fn(a)
    if not callable(b):
        return lambda g, w, h, d: a(g, w, h, d) == b
    return lambda g, w, h, d: a(g, w, h, d) == b(g, w, h, d)


_BUILDERS = {
    "if": _if,
    "get": _get,
    "eq-obj?": _eq_obj,
    "eq-direction?": _eq,
    "eq-x?": _eq,
    "eq-y?": _eq,
    "gt-x?": lambda a, b: lambda g, w, h, d: a(g, w, h, d) > b(g, w, h, d),
    "gt-y?": lambda a, b: lambda g, w, h, d: a(g, w, h, d) > b(g, w, h, d),
    "get-game-obj": lambda m: lambda g, w, h, d: m(g, w, h, d) >> 16,
    "get-x": lambda m: lambda g, w, h, d: (m(g, w, h, d) >> 8) & 0xFF,
    "get-y": lambda m: lambda g, w, h, d: m(g, w, h, d) & 0xFF,
    "not": lambda a: lambda g, w, h, d: not a(g, w, h, d),
    "and": lambda a, b: lambda g, w, h, d: a(g, w, h, d) & b(g, w, h, d),
    "or": lambda a, b: lambda g, w, h, d: a(g, w, h, d) | b(g, w, h, d),
}


def compile_term(term: Term, prims: PrimTable) -> CompiledProgram:
    """Compile a closed, library-expanded program term."""
    arity, body = peel(term)
    if arity not in (1, 2):
        raise KernelUnsupportedError(f"program arity {arity}")
    action_ids = {w: i for i, w in enumerate(prims.action_words)}

    def build(term: Term):
        """A closure for the node, or the operand itself for a constant or
        the map."""
        head, args = spine(term)
        if isinstance(head, Lambda):
            raise KernelUnsupportedError("inner lambda")
        if isinstance(head, Var):
            if args:
                raise KernelUnsupportedError("applied variable")
            # arity 2: Var(1) = map, Var(0) = direction; arity 1: Var(0) = map
            if head.index >= arity:
                raise KernelUnsupportedError("unbound variable")
            return _MAP if head.index == arity - 1 else _direction
        name = head.name
        entry = prims.by_name.get(name)
        if entry is None:
            raise KernelUnsupportedError(f"unknown primitive {name!r}")
        if len(args) != entry.arity:
            raise KernelUnsupportedError(f"{name} takes {entry.arity} arguments, applied to {len(args)}")
        if entry.kind == "action":
            return action_ids[entry.value]
        if entry.kind != "function":
            return int(entry.value)
        if name not in _BUILDERS:
            raise KernelUnsupportedError(f"no closure for {name}")
        return _BUILDERS[name](*map(build, args))

    return CompiledProgram(code=_fn(build(body)))


def execute(code, grid, width, height, direction):
    """Run one program on one flat grid; action id, or -1 on out-of-bounds."""
    try:
        return code(grid, width, height, direction)
    except _OutOfRange:
        return -1


def check_trajectory(code, grids, dirs, acts, width, height):
    """Count how many leading steps the program reproduces; stops at the
    first mismatch or evaluation error."""
    i = 0
    try:
        for grid, direction, act in zip(grids, dirs, acts):
            if code(grid, width, height, direction) != act:
                break
            i += 1
    except _OutOfRange:
        pass
    return i
