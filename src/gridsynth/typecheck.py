"""Type inference for DSL terms via unification.

The only polymorphic primitive is `if`; everything else is monomorphic, so
inference is a small Hindley-Milner fragment without generalization.
"""
from __future__ import annotations

from typing import Mapping

from gridsynth.errors import TypeMismatchError, UnboundVariableError
from gridsynth.lang import DIRECTION, MAP, Apply, Arrow, Lambda, Prim, Term, Ty, TyVar, Var
from gridsynth.primitives import PrimTable
from gridsynth.sexpr import print_program


class _Infer:
    def __init__(self, sigs: Mapping[str, Ty]):
        self.sigs = sigs
        self.subst: dict[int, Ty] = {}
        self.counter = 1000  # primitive signatures use small TyVar ids

    def fresh(self) -> TyVar:
        self.counter += 1
        return TyVar(self.counter)

    def resolve(self, ty: Ty) -> Ty:
        if isinstance(ty, TyVar):
            got = self.subst.get(ty.id)
            return ty if got is None else self.resolve(got)
        if isinstance(ty, Arrow):
            return Arrow(self.resolve(ty.src), self.resolve(ty.dst))
        return ty

    def unify(self, a: Ty, b: Ty, location: str) -> None:
        a = self.resolve(a)
        b = self.resolve(b)
        if a == b:
            return
        if isinstance(a, TyVar):
            self.subst[a.id] = b
            return
        if isinstance(b, TyVar):
            self.subst[b.id] = a
            return
        if isinstance(a, Arrow) and isinstance(b, Arrow):
            self.unify(a.src, b.src, location)
            self.unify(a.dst, b.dst, location)
            return
        raise TypeMismatchError(expected=str(a), found=str(b), location=location)

    def instantiate(self, ty: Ty) -> Ty:
        mapping: dict[int, TyVar] = {}

        def go(t: Ty) -> Ty:
            if isinstance(t, TyVar):
                if t.id not in mapping:
                    mapping[t.id] = self.fresh()
                return mapping[t.id]
            if isinstance(t, Arrow):
                return Arrow(go(t.src), go(t.dst))
            return t

        return go(ty)

    def infer(self, term: Term, env: list[Ty]) -> Ty:
        if isinstance(term, Var):
            if term.index >= len(env):
                raise UnboundVariableError(f"unbound variable index {term.index}")
            return env[term.index]
        if isinstance(term, Prim):
            sig = self.sigs.get(term.name)
            if sig is None:
                raise TypeMismatchError(
                    expected="known primitive",
                    found=term.name,
                    location=term.name,
                )
            return self.instantiate(sig)
        if isinstance(term, Lambda):
            a = self.fresh()
            result = self.infer(term.body, [a] + env)
            return Arrow(self.resolve(a), result)
        if isinstance(term, Apply):
            fn_ty = self.infer(term.fn, env)
            arg_ty = self.infer(term.arg, env)
            out = self.fresh()
            self.unify(fn_ty, Arrow(arg_ty, out), _loc(term))
            return self.resolve(out)
        raise TypeMismatchError(expected="term", found=repr(term), location="?")


def _loc(term: Term) -> str:
    try:
        return print_program(term)
    except Exception:
        return repr(term)


def signature_map(prims: PrimTable, library=None) -> dict[str, Ty]:
    """Name -> type of every primitive and library abstraction."""
    sigs = {entry.name: entry.type for entry in prims.entries}
    sigs.update((abst.name, abst.type) for abst in library or ())
    return sigs


def infer_type(
    term: Term,
    prims: PrimTable,
    library=None,
    request: Ty | None = None,
    env: tuple[Ty, ...] = (),
) -> Ty:
    """Infer the type of `term`; optionally check it against `request`.

    Raises TypeMismatchError on ill-typed terms, with the offending subterm
    in `location`. `env` gives de Bruijn binder types for open terms.
    """
    inf = _Infer(signature_map(prims, library))
    ty = inf.infer(term, list(env))
    if request is not None:
        inf.unify(ty, request, _loc(term))
    out = inf.resolve(ty)
    # An unused binder leaves its argument type unconstrained; program inputs
    # are always the map and (maze only) the direction, in that order.
    defaults = (MAP, DIRECTION)
    cur, i = out, 0
    while isinstance(cur, Arrow) and i < len(defaults):
        if isinstance(inf.resolve(cur.src), TyVar):
            inf.unify(cur.src, defaults[i], _loc(term))
        cur = inf.resolve(cur.dst)
        i += 1
    out = inf.resolve(out)
    if _has_tyvar(out):
        # Unconstrained `if` branches can only happen in degenerate terms;
        # pin them down as ill-typed rather than returning an open type.
        raise TypeMismatchError(
            expected="ground type", found=str(out), location=_loc(term)
        )
    return out


def _has_tyvar(ty: Ty) -> bool:
    if isinstance(ty, TyVar):
        return True
    if isinstance(ty, Arrow):
        return _has_tyvar(ty.src) or _has_tyvar(ty.dst)
    return False
