"""Primitive tables for the three environments.

Each environment has its own table: the maze carries direction constants and
`eq-direction?`, the MinAtar-style games carry integer constants up to 9 and
their own object vocabulary. Action constants mirror the environment's legal
action set so that any well-typed program yields an executable action.
"""
from __future__ import annotations

from dataclasses import dataclass, field

from gridsynth.lang import (
    ACTION,
    BOOL,
    DIRECTION,
    INT,
    MAP,
    MAP_OBJECT,
    OBJECT,
    TX,
    TY_COORD,
    Ty,
    TyVar,
    arg_types,
    arrow,
)

ENV_TAGS = ("maze", "asterix", "spaceinvaders")


@dataclass(frozen=True)
class PrimDef:
    name: str
    type: Ty
    kind: str  # "action" | "int" | "direction" | "object" | "function"
    value: object = None
    # Every use applies it to exactly this many arguments: those of its type.
    arity: int = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "arity", len(arg_types(self.type)))


@dataclass(frozen=True)
class PrimTable:
    env_tag: str
    entries: tuple[PrimDef, ...]
    request: Ty
    by_name: dict = field(repr=False, hash=False, compare=False, default=None)
    action_words: tuple[str, ...] = field(init=False, repr=False, hash=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "by_name", {p.name: p for p in self.entries})
        words = tuple(p.value for p in self.entries if p.kind == "action")
        object.__setattr__(self, "action_words", words)

    def __contains__(self, name: str) -> bool:
        return name in self.by_name

    def get(self, name: str) -> PrimDef:
        return self.by_name[name]

    def object_name(self, code: int) -> str:
        for p in self.entries:
            if p.kind == "object" and p.value == code:
                return p.name
        return f"obj{code}"


_IF_TYPE = arrow(BOOL, TyVar(0), TyVar(0), TyVar(0))

_COMMON_FUNCTIONS = [
    PrimDef("if", _IF_TYPE, "function"),
    # Table-3 order would be mapObject -> object, but the worked example
    # program calls (eq-obj? wall-obj (get ...)), so the object comes first.
    PrimDef("eq-obj?", arrow(OBJECT, MAP_OBJECT, BOOL), "function"),
    PrimDef("get", arrow(MAP, INT, INT, MAP_OBJECT), "function"),
    PrimDef("get-game-obj", arrow(MAP_OBJECT, OBJECT), "function"),
    PrimDef("not", arrow(BOOL, BOOL), "function"),
    PrimDef("and", arrow(BOOL, BOOL, BOOL), "function"),
    PrimDef("or", arrow(BOOL, BOOL, BOOL), "function"),
    PrimDef("get-x", arrow(MAP_OBJECT, TX), "function"),
    PrimDef("get-y", arrow(MAP_OBJECT, TY_COORD), "function"),
    PrimDef("eq-x?", arrow(TX, TX, BOOL), "function"),
    PrimDef("eq-y?", arrow(TY_COORD, TY_COORD, BOOL), "function"),
    PrimDef("gt-x?", arrow(TX, TX, BOOL), "function"),
    PrimDef("gt-y?", arrow(TY_COORD, TY_COORD, BOOL), "function"),
]


def _actions(words):
    return [PrimDef(f"{w}-action", ACTION, "action", w) for w in words]


def _ints(limit):
    return [PrimDef(str(i), INT, "int", i) for i in range(limit + 1)]


def _objects(pairs):
    return [PrimDef(name, OBJECT, "object", code) for name, code in pairs]


def _maze_table() -> PrimTable:
    entries = (
        _actions(["left", "right", "forward"])
        + _ints(5)
        + [PrimDef(f"direction-{d}", DIRECTION, "direction", d) for d in range(4)]
        + _objects([("empty-obj", 1), ("wall-obj", 2), ("goal-obj", 3)])
        + [PrimDef("eq-direction?", arrow(DIRECTION, DIRECTION, BOOL), "function")]
        + _COMMON_FUNCTIONS
    )
    return PrimTable("maze", tuple(entries), arrow(MAP, DIRECTION, ACTION))


def _asterix_table() -> PrimTable:
    entries = (
        _actions(["left", "right", "up", "down", "no-op"])
        + _ints(9)
        + _objects(
            [
                ("empty-obj", 0),
                ("player-obj", 1),
                ("gold-obj", 2),
                ("enemy-obj", 3),
                ("trail-obj", 4),
            ]
        )
        + _COMMON_FUNCTIONS
    )
    return PrimTable("asterix", tuple(entries), arrow(MAP, ACTION))


def _spaceinvaders_table() -> PrimTable:
    entries = (
        _actions(["left", "right", "fire", "no-op"])
        + _ints(9)
        + _objects(
            [
                ("empty-obj", 0),
                ("cannon-obj", 1),
                ("alien-obj", 2),
                ("friendly-bullet-obj", 3),
                ("enemy-bullet-obj", 4),
            ]
        )
        + _COMMON_FUNCTIONS
    )
    return PrimTable("spaceinvaders", tuple(entries), arrow(MAP, ACTION))


_TABLES = {
    "maze": _maze_table(),
    "asterix": _asterix_table(),
    "spaceinvaders": _spaceinvaders_table(),
}


def primitive_table(env_tag: str) -> PrimTable:
    if env_tag not in _TABLES:
        raise KeyError(f"unknown environment {env_tag!r}; expected one of {ENV_TAGS}")
    return _TABLES[env_tag]


def arg_types_at(sig: Ty, ty: Ty) -> list[Ty]:
    """The argument types of `sig` at a use of type `ty`.

    Only `if` is polymorphic, and its type variable is always the type asked
    for where it stands, so a type-variable argument is read as `ty`.
    """
    return [ty if isinstance(a, TyVar) else a for a in arg_types(sig)]
