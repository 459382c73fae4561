"""Core term and type representations for the grid DSL.

Terms are lambda-calculus trees with de Bruijn variables, so alpha-equivalent
programs are structurally equal and rewriting never has to rename binders.
Types are simple: named base types, right-associated arrows, and type
variables that only ever occur in the signature of the polymorphic `if`.
"""
from __future__ import annotations

from dataclasses import dataclass, fields

from gridsynth.errors import GridSynthError


# ---------------------------------------------------------------------------
# Types
#
# Types are interned: constructing one with the fields of an existing one
# returns that object. So equal types are the same object, and they compare
# and hash by identity, in C; the type-keyed tables of the grammar, the
# enumerator and the compressor look types up on every step.

_INTERNED: dict = {}


def _interned(cls, *values):
    key = (cls, *values)
    ty = _INTERNED.get(key)
    if ty is None:
        ty = _INTERNED[key] = object.__new__(cls)
    return ty


@dataclass(frozen=True, eq=False)
class Ty:
    def __reduce__(self):
        # rebuild through the constructor, which returns the interned object
        return type(self), tuple(getattr(self, f.name) for f in fields(self))


@dataclass(frozen=True, eq=False)
class BaseTy(Ty):
    name: str

    def __new__(cls, name):
        return _interned(cls, name)

    def __str__(self):
        return self.name


@dataclass(frozen=True, eq=False)
class Arrow(Ty):
    src: Ty
    dst: Ty

    def __new__(cls, src, dst):
        return _interned(cls, src, dst)

    def __str__(self):
        src = f"({self.src})" if isinstance(self.src, Arrow) else str(self.src)
        return f"{src} -> {self.dst}"


@dataclass(frozen=True, eq=False)
class TyVar(Ty):
    id: int

    def __new__(cls, id):
        return _interned(cls, id)

    def __str__(self):
        return f"t{self.id}"


ACTION = BaseTy("action")
INT = BaseTy("int")
MAP = BaseTy("map")
DIRECTION = BaseTy("direction")
OBJECT = BaseTy("object")
MAP_OBJECT = BaseTy("mapObject")
BOOL = BaseTy("bool")
TX = BaseTy("tx")
TY_COORD = BaseTy("ty")

_BASE_TYPES = {
    t.name: t
    for t in (ACTION, INT, MAP, DIRECTION, OBJECT, MAP_OBJECT, BOOL, TX, TY_COORD)
}


def arrow(*tys: Ty) -> Ty:
    """Right-associated function type: arrow(a, b, c) == a -> (b -> c)."""
    if not tys:
        raise ValueError("arrow() needs at least one type")
    result = tys[-1]
    for t in reversed(tys[:-1]):
        result = Arrow(t, result)
    return result


def arg_types(ty: Ty) -> list[Ty]:
    """Argument types of an arrow chain, outermost first."""
    args = []
    while isinstance(ty, Arrow):
        args.append(ty.src)
        ty = ty.dst
    return args


def return_type(ty: Ty) -> Ty:
    """Final result type of an arrow chain."""
    while isinstance(ty, Arrow):
        ty = ty.dst
    return ty


def parse_type(text: str) -> Ty:
    """Parse a type string like "map -> direction -> action"."""
    text = text.strip()
    parts = _split_arrows(text)
    if len(parts) == 1:
        part = parts[0]
        if part.startswith("(") and part.endswith(")"):
            return parse_type(part[1:-1])
        if part in _BASE_TYPES:
            return _BASE_TYPES[part]
        if part.startswith("t") and part[1:].isdigit():
            return TyVar(int(part[1:]))
        raise ValueError(f"unknown type {part!r}")
    return arrow(*(parse_type(p) for p in parts))


def _split_arrows(text: str) -> list[str]:
    parts, depth, start = [], 0, 0
    i = 0
    while i < len(text):
        c = text[i]
        if c == "(":
            depth += 1
        elif c == ")":
            depth -= 1
        elif depth == 0 and text.startswith("->", i):
            parts.append(text[start:i].strip())
            i += 2
            start = i
            continue
        i += 1
    parts.append(text[start:].strip())
    return parts


# ---------------------------------------------------------------------------
# Terms

@dataclass(frozen=True)
class Term:
    pass


@dataclass(frozen=True)
class Prim(Term):
    """A DSL primitive or a named library abstraction."""

    name: str


@dataclass(frozen=True)
class Var(Term):
    """De Bruijn index; 0 is the innermost binder."""

    index: int


@dataclass(frozen=True)
class Lambda(Term):
    body: Term


@dataclass(frozen=True)
class Apply(Term):
    fn: Term
    arg: Term


def apply_all(head: Term, args: list[Term]) -> Term:
    term = head
    for a in args:
        term = Apply(term, a)
    return term


def spine(term: Term) -> tuple[Term, list[Term]]:
    """Split an application chain into (head, [arg1, ..., argN])."""
    args: list[Term] = []
    while isinstance(term, Apply):
        args.append(term.arg)
        term = term.fn
    args.reverse()
    return term, args


def peel(term: Term) -> tuple[int, Term]:
    """(number of leading lambdas, the body under them): a program's inputs
    or an abstraction's parameters, and what they are bound in."""
    n = 0
    while isinstance(term, Lambda):
        n, term = n + 1, term.body
    return n, term


def depth(term: Term) -> int:
    """Syntax-tree depth in S-expression levels.

    A full application `(f a1 .. an)` is one level above its arguments, a
    lambda binder one level above its body; leaves have depth 1. This is the
    depth that the sampler's and enumerator's d_max bound refers to.
    """
    head, args = spine(term)
    if not args:
        if isinstance(head, Lambda):
            return 1 + depth(head.body)
        return 1
    children = args if isinstance(head, Prim) else [head] + args
    return 1 + max(depth(c) for c in children)


def inline(term: Term, defs) -> Term:
    """Expand every call of a defined name into the name's body.

    `defs` maps names to closed bodies `λ^n. core` whose core holds no
    lambda, and every call applies its name to exactly n arguments (an
    arity-0 name is a bare leaf). A call `(f a1 .. an)` becomes f's core
    with parameter i replaced by the expanded a_i; with no binder inside
    the core, the arguments go in as they are. Bodies may call other
    defined names (a DAG); each body is expanded at most once per call of
    `inline`. Subterms without calls are returned as they are, not rebuilt.
    """
    return _inline(term, defs, {})


def _inline(term: Term, defs, bodies: dict) -> Term:
    if isinstance(term, Apply):
        head = term.fn
        while isinstance(head, Apply):
            head = head.fn
        if isinstance(head, Prim) and head.name in defs:
            return _call(head.name, term, defs, bodies)
        fn = _inline(term.fn, defs, bodies)
        arg = _inline(term.arg, defs, bodies)
        return term if fn is term.fn and arg is term.arg else Apply(fn, arg)
    if isinstance(term, Prim):
        return _call(term.name, term, defs, bodies) if term.name in defs else term
    if isinstance(term, Lambda):
        body = _inline(term.body, defs, bodies)
        return term if body is term.body else Lambda(body)
    return term


def _call(name: str, term: Term, defs, bodies: dict) -> Term:
    """Expand a full application of the defined `name`."""
    _, args = spine(term)
    arity, core = _expanded_body(name, defs, bodies)
    if len(args) != arity:
        raise GridSynthError(
            f"abstraction {name} takes {arity} arguments, applied to {len(args)}"
        )
    if not args:
        return core
    return _instantiate(core, [_inline(a, defs, bodies) for a in reversed(args)])


def _expanded_body(name: str, defs, bodies: dict) -> tuple[int, Term]:
    """(arity, core with its own calls expanded), memoized in `bodies`."""
    if name not in bodies:
        arity, core = peel(defs[name])
        bodies[name] = arity, _inline(core, defs, bodies)
    return bodies[name]


def _instantiate(core: Term, args_rev: list[Term]) -> Term:
    """Replace Var(i) by args_rev[i] in a lambda-free core."""
    if isinstance(core, Apply):
        return Apply(_instantiate(core.fn, args_rev), _instantiate(core.arg, args_rev))
    if isinstance(core, Var):
        return args_rev[core.index]
    if isinstance(core, Prim):
        return core
    raise GridSynthError("abstraction body holds an inner lambda")
