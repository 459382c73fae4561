"""Concrete syntax: S-expression parsing and printing for DSL programs.

Input accepts both the `λ` glyph and the ASCII keyword `lambda`, multi-name
binder lists `(λ (m a b) ...)`, and redundant grouping parentheses. Output is
canonical: one binder per `λ`, names assigned outermost-first, `λ` emitted.
"""
from __future__ import annotations

from typing import Iterable, Mapping

from gridsynth.errors import ParseError, UnknownPrimitiveError
from gridsynth.lang import Lambda, Prim, Term, Var, apply_all, spine
from gridsynth.primitives import PrimTable

LAMBDA_TOKENS = ("λ", "lambda")

_DEFAULT_NAMES = "xyzuvw"


def binder_name(level: int) -> str:
    """Canonical binder name for the level-th enclosing lambda (0 = outermost)."""
    if level < len(_DEFAULT_NAMES):
        return _DEFAULT_NAMES[level]
    return f"x{level}"


def _tokenize(text: str) -> list[str]:
    tokens = []
    atom = []
    for c in text:
        if c in "()":
            if atom:
                tokens.append("".join(atom))
                atom = []
            tokens.append(c)
        elif c.isspace():
            if atom:
                tokens.append("".join(atom))
                atom = []
        else:
            atom.append(c)
    if atom:
        tokens.append("".join(atom))
    return tokens


def _read(tokens: list[str], pos: int):
    if pos >= len(tokens):
        raise ParseError("unexpected end of input")
    tok = tokens[pos]
    if tok == "(":
        items = []
        pos += 1
        while True:
            if pos >= len(tokens):
                raise ParseError("unbalanced parenthesis: missing ')'")
            if tokens[pos] == ")":
                return items, pos + 1
            item, pos = _read(tokens, pos)
            items.append(item)
    if tok == ")":
        raise ParseError("unexpected ')'")
    return tok, pos + 1


def _read_all(text: str):
    tokens = _tokenize(text)
    if not tokens:
        raise ParseError("empty program text")
    forms = []
    pos = 0
    while pos < len(tokens):
        form, pos = _read(tokens, pos)
        forms.append(form)
    # A bare top-level lambda like `λ(x) (...)` reads as several forms;
    # treat the whole input as one implicit list in that case.
    if len(forms) == 1:
        return forms[0]
    return forms


def _convert(sexp, env: list[str], known) -> Term:
    if isinstance(sexp, str):
        if sexp in env:
            return Var(env.index(sexp))
        if sexp in known:
            return Prim(sexp)
        if sexp in LAMBDA_TOKENS:
            raise ParseError("lambda needs a binder list and a body")
        raise UnknownPrimitiveError(f"unknown symbol {sexp!r}")
    if not sexp:
        raise ParseError("empty parentheses")
    head = sexp[0]
    if isinstance(head, str) and head in LAMBDA_TOKENS:
        if len(sexp) < 3:
            raise ParseError("lambda needs a binder list and a body")
        binders = sexp[1]
        if isinstance(binders, str):
            binders = [binders]
        if not binders or not all(isinstance(b, str) for b in binders):
            raise ParseError(f"bad binder list {binders!r}")
        body_forms = sexp[2:]
        body = body_forms[0] if len(body_forms) == 1 else body_forms
        inner_env = list(binders[::-1]) + env
        term = _convert(_unwrap(body), inner_env, known)
        for _ in binders:
            term = Lambda(term)
        return term
    if len(sexp) == 1:
        return _convert(sexp[0], env, known)
    fn = _convert(_unwrap(head), env, known)
    args = [_convert(_unwrap(a), env, known) for a in sexp[1:]]
    return apply_all(fn, args)


def _unwrap(sexp):
    """Strip redundant grouping parentheses: ((expr)) -> expr."""
    while isinstance(sexp, list) and len(sexp) == 1:
        sexp = sexp[0]
    return sexp


def parse_program(
    text: str, prims: PrimTable, extra: Iterable[str] | Mapping | None = None
) -> Term:
    """Parse program text into a de Bruijn term.

    `extra` supplies additional known symbols (library abstraction names).
    The term is closed: only a name that an enclosing λ binds is a variable.
    """
    known = set(prims.by_name)
    if extra:
        known.update(extra)
    sexp = _read_all(text)
    return _convert(_unwrap(sexp), [], known)


def print_program(term: Term, binder_names=None, depth: int = 0) -> str:
    """Canonical S-expression text, stable across runs.

    `binder_names` overrides the default x, y, z, ... naming (library bodies
    print their argument slots as $0, $1, $2). `depth` prints `term` as a
    subterm under that many enclosing binders, so its free variables get the
    names those binders print with.
    """

    def name_for(level):
        if binder_names is not None and level < len(binder_names):
            return binder_names[level]
        return binder_name(level)

    def render(t: Term, level: int) -> str:
        if isinstance(t, Lambda):
            return f"(λ({name_for(level)}) {render(t.body, level + 1)})"
        head, args = spine(t)
        if not args:
            return _leaf(t, level)
        parts = [render(head, level)] + [render(a, level) for a in args]
        return "(" + " ".join(parts) + ")"

    def _leaf(t: Term, level: int) -> str:
        if isinstance(t, Prim):
            return t.name
        if isinstance(t, Var):
            # level counts enclosing binders; de Bruijn 0 is the innermost
            return name_for(level - 1 - t.index)
        raise ParseError(f"cannot print {t!r}")

    return render(term, depth)
