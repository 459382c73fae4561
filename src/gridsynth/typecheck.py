"""Type checking of DSL terms, top down, by one rule.

The DSL is first order: every name and variable is applied to exactly as
many arguments as its type has parameters, and the only polymorphic name is
`if`, whose type variable is always the type asked for where the `if`
stands. So a term is checked against a known type in one pass, with no
unification:

- a λ against an arrow checks its body against the arrow's result, with
  the arrow's argument as the binder's type;
- a variable or a name takes exactly its parameters' worth of arguments,
  its result must be the type asked for, and each argument is checked
  against its parameter type (`primitives.arg_types_at`).

With no request, the term is a program: its n <= 2 binders are the map and
then the direction, and it returns an action. Only maze programs may take
the direction: `data.checked_program` accepts `map -> action` programs and
those of the environment's request.
"""
from __future__ import annotations

from typing import Mapping

from gridsynth.errors import TypeMismatchError, UnboundVariableError
from gridsynth.lang import (
    ACTION, DIRECTION, MAP, Arrow, Lambda, Term, Ty, TyVar, Var, arrow, peel, return_type, spine,
)
from gridsynth.primitives import PrimTable, arg_types_at
from gridsynth.sexpr import print_program

_PROGRAM_INPUTS = (MAP, DIRECTION)


def _loc(term: Term, env: tuple) -> str:
    """`term` as the whole program prints it, under the binders of `env`."""
    return print_program(term, depth=len(env))


def signature_map(prims: PrimTable, library=None) -> dict[str, Ty]:
    """Name -> type of every primitive and library abstraction."""
    sigs = {entry.name: entry.type for entry in prims.entries}
    sigs.update((abst.name, abst.type) for abst in library or ())
    return sigs


def _check(term: Term, ty: Ty, env: tuple[Ty, ...], sigs: Mapping[str, Ty]) -> None:
    """Raise unless `term` has type `ty` with de Bruijn binder types `env`."""
    head, args = spine(term)
    if isinstance(head, Lambda):
        if args or not isinstance(ty, Arrow):
            raise TypeMismatchError(str(ty), "a λ", _loc(term, env))
        _check(head.body, ty.dst, (ty.src,) + env, sigs)
        return
    if isinstance(head, Var):
        if head.index >= len(env):
            raise UnboundVariableError(f"unbound variable index {head.index}")
        sig = env[head.index]
    else:
        sig = sigs.get(head.name)
        if sig is None:
            raise TypeMismatchError("known primitive", head.name, head.name)
    params = arg_types_at(sig, ty)
    result = return_type(sig)
    if len(args) != len(params):
        raise TypeMismatchError(f"{len(params)} arguments", str(len(args)), _loc(term, env))
    if result != ty and not isinstance(result, TyVar):
        raise TypeMismatchError(str(ty), str(result), _loc(term, env))
    for arg, param in zip(args, params):
        _check(arg, param, env, sigs)


def infer_type(
    term: Term,
    prims: PrimTable,
    library=None,
    request: Ty | None = None,
    env: tuple[Ty, ...] = (),
) -> Ty:
    """The type of `term`: `request` if given, else the program type of its
    binders. `env` gives de Bruijn binder types for open terms.

    Raises TypeMismatchError on ill-typed terms, with the offending subterm
    in `location`, and UnboundVariableError on a variable outside `env`.
    """
    if request is None:
        n, _ = peel(term)
        if n > len(_PROGRAM_INPUTS):
            raise TypeMismatchError(
                f"at most {len(_PROGRAM_INPUTS)} inputs", str(n), _loc(term, env)
            )
        request = arrow(*_PROGRAM_INPUTS[:n], ACTION)
    _check(term, request, env, signature_map(prims, library))
    return request
