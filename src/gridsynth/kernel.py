"""The kernel: run a library-expanded program on flat grids, one state at a
time as closures or many states at once as bitsets.

`compile_term` turns a term into a tree of Python closures, one per node,
each called as `node(grid, width, height, direction)` on a flat row-major
grid; `execute` runs the root on one grid, and `check_trajectory` counts how
many leading steps of a task it reproduces. Dream rollouts run on closures.
`StateBatch.check` evaluates a program once over every state of a batch,
each node's value a partition of the states by value, and returns the
bitset of the states on which it gives the recorded action. Every imitation
check runs so: search, evaluation and `data.imitates` lay their windows end
to end in one batch, and `covered` turns the bitset of the states a program
gets wrong into the bitset of the windows it imitates. The search builds
its candidates' batch values node by node from their derivations instead,
from what `StateBatch.nodes` resolves each name to, so it passes no terms;
a library call there is built from its abstraction's body, which is built
once per batch as a template of its parameters' values. Both forms, and
those templates, are built by one walk over the term (`_build`), one node
per subterm, with each de Bruijn variable bound to a value: a program's to
the map and the direction, a body's to its parameters. One table, `_OPS`, says
what each primitive but `if` and `get` computes from its operands' values,
and each form lifts it to nodes with one generic builder; each form has its
own `if` and `get`. The tree interpreter in `gridsynth.interp` stays the
semantics of record: it drives `explain`, and the tests hold both forms to
it.

Values are ints: booleans as Python bools, object codes raw, mapObject
packed as (code << 16) | (x << 8) | y, actions as indices into the table's
action list. `get` reads the grid directly, so the map is never a value;
0 stands for it. `if` evaluates only the taken branch; every other
primitive evaluates all of its operands. An out-of-bounds `get` fails the
imitation: `execute` returns -1, `check_trajectory` stops counting, and the
batch leaves the state out of its bitset. Grids may be lists, tuples or
numpy arrays of ints; lists and tuples are the fast form.

Every closed, well-typed, first-order, library-expanded program compiles;
anything else (an unexpanded library call, an open term, an inner lambda, a
name applied to more or fewer arguments than its type has) raises
KernelUnsupportedError.
"""
from __future__ import annotations

import operator
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable

from gridsynth.errors import GridSynthError
from gridsynth.lang import Lambda, Term, Var, peel, spine
from gridsynth.primitives import PrimTable


class KernelUnsupportedError(GridSynthError):
    """Term shape the kernel does not handle."""


class _OutOfRange(Exception):
    """A `get` outside the grid; never escapes this module."""


BACKEND = "python"


@dataclass(frozen=True)
class CompiledProgram:
    code: Callable  # code(grid, width, height, direction) -> action id


# What each primitive but `if` and `get` computes, as a function of its
# operands' values; both forms build their nodes from it.
_OPS = {
    "eq-obj?": lambda o, m: o == m >> 16,
    "eq-direction?": operator.eq,
    "eq-x?": operator.eq,
    "eq-y?": operator.eq,
    "gt-x?": operator.gt,
    "gt-y?": operator.gt,
    "get-game-obj": lambda m: m >> 16,
    "get-x": lambda m: (m >> 8) & 0xFF,
    "get-y": lambda m: m & 0xFF,
    "not": operator.not_,
    "and": operator.and_,
    "or": operator.or_,
}


@lru_cache(maxsize=None)
def _constant(value: int):
    """The closure of a constant, one per value."""
    return lambda g, w, h, d: value


_map = _constant(0)  # `get` reads the grid itself, so the map is never a value


def _direction(g, w, h, d):
    return d


def _closure(f):
    """Builds closure nodes that apply f to their one or two operands' values."""
    def build(a, b=None):
        if b is None:
            return lambda g, w, h, d: f(a(g, w, h, d))
        return lambda g, w, h, d: f(a(g, w, h, d), b(g, w, h, d))
    return build


def _if(c, t, e):
    return lambda g, w, h, d: t(g, w, h, d) if c(g, w, h, d) else e(g, w, h, d)


def _get(m, x, y):
    def node(g, w, h, d):
        m(g, w, h, d)  # a map chosen by `if`, whose condition may fail
        xv = x(g, w, h, d)
        yv = y(g, w, h, d)
        if 0 <= xv < w and 0 <= yv < h:
            return (g[yv * w + xv] << 16) | (xv << 8) | yv
        raise _OutOfRange
    return node


_BUILDERS = {"if": _if, "get": _get, **{name: _closure(f) for name, f in _OPS.items()}}


def _build(body: Term, prims: PrimTable, builders, constant, env):
    """Build a lambda-free term bottom-up: `builders[name]` applied to the
    operands of each name but a constant, `constant(value)` for each
    constant (actions as ids), and `env[i]` for each Var(i)."""

    def build(term: Term):
        head, args = spine(term)
        if isinstance(head, Lambda):
            raise KernelUnsupportedError("inner lambda")
        if isinstance(head, Var):
            if args:
                raise KernelUnsupportedError("applied variable")
            if head.index >= len(env):
                raise KernelUnsupportedError("unbound variable")
            return env[head.index]
        name = head.name
        entry = prims.by_name.get(name)
        if entry is not None:
            if len(args) != entry.arity:
                raise KernelUnsupportedError(f"{name} takes {entry.arity} arguments, applied to {len(args)}")
            if entry.kind != "function":
                return constant(_constant_value(entry, prims))
        builder = builders.get(name)
        if builder is None:
            raise KernelUnsupportedError(f"unknown primitive {name!r}" if entry is None else f"no builder for {name}")
        return builder(*map(build, args))

    return build(body)


def _constant_value(entry, prims: PrimTable) -> int:
    return prims.action_words.index(entry.value) if entry.kind == "action" else int(entry.value)


def _inputs(arity: int, map_value, direction) -> tuple:
    """A program's inputs by de Bruijn index: the map is its first input and
    the direction, for a maze program, its second, so Var(0) is the last."""
    if arity not in (1, 2):
        raise KernelUnsupportedError(f"program arity {arity}")
    return (map_value,) if arity == 1 else (direction, map_value)


def _program(term: Term, prims: PrimTable, builders, constant, map_value, direction):
    """`_build` of a closed, library-expanded program, its inputs bound to
    `map_value` and `direction`."""
    arity, body = peel(term)
    return _build(body, prims, builders, constant, _inputs(arity, map_value, direction))


def compile_term(term: Term, prims: PrimTable) -> CompiledProgram:
    """Compile a closed, library-expanded program term to closures, one per
    node; constants, the map and the direction are nodes too."""
    return CompiledProgram(code=_program(term, prims, _BUILDERS, _constant, _map, _direction))


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


# --- The batch form: one program over many states at once -------------------
#
# A node's batch value is a partition: a dict mapping each value the node
# takes to the bitset of the states on which it takes it, bit i standing for
# state i. The bitsets are disjoint, and the states that none covers are
# those on which evaluating the node fails: every builder intersects its
# operands' bitsets, so a state an operand fails on stays uncovered. Values
# are those of the closure form. A partition holds values of one type, which
# is what lets the keys True and 1 share a dict slot.


def _bitsets(column: bytes) -> dict:
    """{value: bitset of the positions holding it} for a column of byte
    values listed last position first."""
    return {v: int(column.translate(b"0" * v + b"1" + b"0" * (255 - v)), 2) for v in set(column)}


def _batch_if(c, t, e):
    """Each state takes its taken branch's value, so a state on which only the
    branch not taken fails does not fail."""
    parts = {}
    for branch, taken in ((t, c.get(True, 0)), (e, c.get(False, 0))):
        for v, bits in branch.items():
            bits &= taken
            if bits:
                parts[v] = parts.get(v, 0) | bits
    return parts


def _batch(f):
    """A batch node applying f to its one or two operands' values, merging
    equal results; a state on which an operand fails fails."""
    def node(a, b=None):
        parts = {}
        if b is None:
            for v, bits in a.items():
                v = f(v)
                parts[v] = parts.get(v, 0) | bits
            return parts
        for av, ab in a.items():
            for bv, bb in b.items():
                bits = ab & bb
                if bits:
                    v = f(av, bv)
                    parts[v] = parts.get(v, 0) | bits
        return parts
    return node


# `get` reads the states, so each StateBatch adds its own
_BATCH_BUILDERS = {"if": _batch_if, **{name: _batch(f) for name, f in _OPS.items()}}


def _leaf(value):
    """A node that takes no operands: a template of a constant, or the
    builder of a value."""
    return lambda *operands: value


def _lift(builder):
    """Builds template nodes: functions of a call's operands that apply
    `builder` to their own operands' values."""
    def build(*subs):
        return lambda call: builder(*[s(call) for s in subs])
    return build


def _defined(name: str, arity: int, template):
    """The builder of a defined name from the template of its body."""
    def call(*operands):
        if len(operands) != arity:
            raise KernelUnsupportedError(f"{name} takes {arity} arguments, applied to {len(operands)}")
        return template(operands)
    return call


def covered(wrong: int, starts: int, length: int) -> int:
    """The bits of `starts` whose windows, `length` states each from there,
    hold no bit of `wrong`: with `wrong` the states a program gets wrong,
    the windows it imitates. A window of no states is always covered."""
    fold = wrong
    for shift in range(1, length):
        fold |= wrong >> shift
    return starts if length == 0 else starts & ~fold


class StateBatch:
    """Many states laid end to end, for checking a program on all of them at
    once: bit i of every bitset stands for state i.

    `get`'s coordinates are ints, and an int is a constant or an `if` of
    constants, so every `get` is a union of per-cell, per-code bitsets. Each
    cell's are built the first time a program reads it. Grids are flat and
    row-major, as for `check_trajectory`; cell codes, directions and action
    ids must each fit in a byte.
    """

    def __init__(self, grids, dirs, acts, width: int, height: int):
        self.width, self.height = width, height
        self.all = (1 << len(acts)) - 1  # the bitset of every state
        self._acts = _bitsets(bytes(reversed(acts)))
        self._direction = _bitsets(bytes(reversed(dirs)))
        self._map = {0: self.all}  # the map is never a value; 0 stands for it
        self._columns = [bytes(c) for c in zip(*reversed(grids))] or [b""] * (width * height)
        self._cells: dict = {}
        self._builders = {**_BATCH_BUILDERS, "get": self._get}

    def check(self, term: Term, prims: PrimTable) -> int:
        """The bitset of the states on which a closed, library-expanded
        program evaluates, without failing, to the state's recorded action."""
        return self.correct(_program(term, prims, self._builders, self._constant, self._map, self._direction))

    def correct(self, parts: dict) -> int:
        """The bitset of the states on which a program's value `parts` is
        the state's recorded action."""
        correct = 0
        for v, bits in parts.items():
            correct |= bits & self._acts.get(v, 0)
        return correct

    def nodes(self, prims: PrimTable, defs, arity: int) -> tuple[dict, tuple]:
        """What a program of `arity` inputs is built of over this batch, for
        building it node by node: (name -> the builder of the name's value
        from its operands' values, for every primitive and every name that
        `defs` defines; the inputs' values by de Bruijn index).

        A constant's builder takes no operands. A defined name's body, whose
        calls may only be of names defined before it, is built once here,
        by `_build`, as a template: a function of the call's operands to
        the value of the library-expanded body with its parameters bound to
        them. A name of no parameters is evaluated here, once."""
        out = dict(self._builders)
        lifted = {name: _lift(b) for name, b in out.items()}
        for entry in prims.entries:
            if entry.kind != "function":
                out[entry.name] = _leaf(self._constant(_constant_value(entry, prims)))
        for name, body in defs.items():
            n, core = peel(body)
            params = tuple(operator.itemgetter(n - 1 - i) for i in range(n))
            template = _build(core, prims, lifted, lambda v: _leaf(self._constant(v)), params)
            out[name] = _leaf(template(())) if n == 0 else _defined(name, n, template)
            lifted[name] = _lift(out[name])
        return out, _inputs(arity, self._map, self._direction)

    def _constant(self, value) -> dict:
        return {value: self.all}

    def _cell(self, x: int, y: int) -> dict:
        """{packed mapObject: bitset} for the cell at (x, y)."""
        cell = self._cells.get((x, y))
        if cell is None:
            xy = (x << 8) | y
            column = self._columns[y * self.width + x]
            cell = self._cells[x, y] = {(code << 16) | xy: bits for code, bits in _bitsets(column).items()}
        return cell

    def _get(self, m, x, y):
        """A state fails where its map or a coordinate does, or where the
        coordinates fall outside the grid."""
        ok = m.get(0, 0)
        parts = {}
        for xv, xb in x.items():
            for yv, yb in y.items():
                at = xb & yb & ok
                if at and 0 <= xv < self.width and 0 <= yv < self.height:
                    for v, bits in self._cell(xv, yv).items():
                        bits &= at
                        if bits:
                            parts[v] = bits
        return parts
