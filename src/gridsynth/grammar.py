"""Probabilistic grammar over DSL productions, with sampling, description
length, and refitting.

Weights are stored raw (nats) and normalized per compatible-choice set at
query time, so per-set probabilities always sum to one by construction. The
initial grammar carries weight 0.0 everywhere (uniform); `refit` replaces
weights with log(1 + count), which normalizes to Laplace-smoothed frequencies.
"""
from __future__ import annotations

import json
import math
import random
from bisect import bisect_left
from collections import Counter
from dataclasses import dataclass
from functools import cached_property, lru_cache
from itertools import accumulate

from gridsynth.errors import DepthUnsatisfiableError, NotDerivableError
from gridsynth.lang import (
    Lambda,
    Prim,
    Term,
    Ty,
    TyVar,
    Var,
    apply_all,
    arg_types,
    parse_type,
    peel,
    return_type,
    spine,
)
from gridsynth.primitives import PrimTable, arg_types_at, primitive_table

GRAMMAR_SCHEMA = "gridsynth-grammar-v1"


@dataclass(frozen=True)
class Production:
    name: str
    type: Ty
    logp: float


@dataclass(frozen=True)
class Grammar:
    env_tag: str
    productions: tuple[Production, ...]
    var_logp: float

    @property
    def request(self) -> Ty:
        """The type of the environment's programs."""
        return primitive_table(self.env_tag).request

    def production(self, name: str) -> Production | None:
        for p in self.productions:
            if p.name == name:
                return p
        return None

    def __hash__(self) -> int:
        # `tables_for` is keyed by the grammar and looked up once per sampled
        # dream, and hashing walks every production's type; so the hash is
        # computed once.
        h = self.__dict__.get("_hash")
        if h is None:
            h = hash((self.env_tag, self.productions, self.var_logp))
            object.__setattr__(self, "_hash", h)
        return h


def uniform_grammar(prims: PrimTable) -> Grammar:
    return Grammar(
        env_tag=prims.env_tag,
        productions=tuple(Production(p.name, p.type, 0.0) for p in prims.entries),
        var_logp=0.0,
    )


@dataclass(frozen=True)
class Choice:
    """One normalized option at a (request type, binder environment) site."""

    kind: str  # "prim" | "var"
    name: str | None
    var_index: int | None
    args: tuple[Ty, ...]
    cost: float  # -log probability, nats


class Tables:
    """Per-request candidate sets, min depths, admissible DL bounds, and the
    `site` of each (type, remaining depth) that sampling or search visits.

    Binder environments are constant throughout a program body (no primitive
    takes a function argument), so one table serves the whole search.

    `extend` derives the tables of a grammar with productions appended, as
    `add_abstractions` makes it, by rebuilding only the choice sets those
    productions join and their `by_head` entries; compression prices each
    candidate that way. `min_depth` and `min_dl` are computed on first use,
    since compression reads neither. `signatures` holds each production's
    return and argument types, read off its type once when the tables are
    built and carried over by `extend`.
    """

    def __init__(self, grammar: Grammar, request: Ty):
        self.grammar = grammar
        self.request = request
        self.binders = arg_types(request)  # outermost first
        self.env = tuple(reversed(self.binders))  # de Bruijn indexed
        self.body_request = return_type(request)
        self.signatures = [_signature(p) for p in grammar.productions]
        self.choices: dict[Ty, tuple[Choice, ...]] = {
            ty: self._choice_set(ty) for ty in self._reachable_types()
        }
        self.by_head = _index_heads(self.choices)
        self._sites: dict[tuple, Site] = {}

    def extend(self, grammar: Grammar) -> "Tables":
        """The tables of `grammar`, which must be this table's grammar with
        productions appended, for the same request. Equal to
        `Tables(grammar, self.request)`.

        Raises ValueError if `grammar` is not such an extension, or if an
        added production that can appear here takes an argument of a type
        that cannot: that would make new types reachable."""
        n = len(self.grammar.productions)
        if (
            grammar.productions[:n] != self.grammar.productions
            or grammar.var_logp != self.grammar.var_logp
        ):
            raise ValueError("grammar does not extend this table's grammar")
        new = object.__new__(Tables)
        new.grammar = grammar
        new.request = self.request
        new.binders = self.binders
        new.env = self.env
        new.body_request = self.body_request
        added = [_signature(p) for p in grammar.productions[n:]]
        new.signatures = self.signatures + added
        new.choices = dict(self.choices)
        changed = set()
        for p, rt, args in added:
            for ty in self.choices if rt is None else [rt]:
                if ty not in self.choices:
                    continue
                arg_tys = args if args is not None else arg_types_at(p.type, ty)
                unreachable = [a for a in arg_tys if a not in self.choices]
                if unreachable:
                    raise ValueError(f"{p.name} takes unreachable argument type {unreachable[0]}")
                changed.add(ty)
        for ty in changed:
            new.choices[ty] = new._choice_set(ty)
        # a changed choice set keeps every choice it had, so its new entries
        # replace all of its old ones
        new.by_head = {**self.by_head, **_index_heads({ty: new.choices[ty] for ty in changed})}
        new._sites = {}
        return new

    def _reachable_types(self) -> list[Ty]:
        seen = {self.body_request}
        frontier = [self.body_request]
        while frontier:
            ty = frontier.pop()
            for p, rt, args in self.signatures:
                if rt is None or rt == ty:
                    for arg in args if args is not None else arg_types_at(p.type, ty):
                        if arg not in seen:
                            seen.add(arg)
                            frontier.append(arg)
        return list(seen)

    def _choice_set(self, ty: Ty) -> tuple[Choice, ...]:
        """Every production that can return `ty`, in grammar order, then the
        variables of type `ty`, with costs normalized over the set."""
        raw = []
        for p, rt, args in self.signatures:
            if rt is None or rt == ty:
                arg_tys = args if args is not None else tuple(arg_types_at(p.type, ty))
                raw.append(("prim", p.name, None, arg_tys, p.logp))
        for i, binder_ty in enumerate(self.env):
            if binder_ty == ty:
                raw.append(("var", None, i, (), self.grammar.var_logp))
        if not raw:
            return ()
        lse = _logsumexp([r[4] for r in raw])
        return tuple(
            Choice(kind, name, idx, args, -(w - lse))
            for kind, name, idx, args, w in raw
        )

    @cached_property
    def min_depth(self) -> dict[Ty, float]:
        md = {ty: math.inf for ty in self.choices}
        changed = True
        while changed:
            changed = False
            for ty, cands in self.choices.items():
                best = math.inf
                for c in cands:
                    if not c.args:
                        best = min(best, 1)
                    else:
                        worst = max(md.get(a, math.inf) for a in c.args)
                        best = min(best, 1 + worst)
                if best < md[ty]:
                    md[ty] = best
                    changed = True
        return md

    @cached_property
    def min_dl(self) -> dict[Ty, float]:
        dl = {ty: math.inf for ty in self.choices}
        for _ in range(10_000):
            changed = False
            for ty, cands in self.choices.items():
                best = math.inf
                for c in cands:
                    total = c.cost
                    for a in c.args:
                        total += dl.get(a, math.inf)
                    best = min(best, total)
                if best < dl[ty] - 1e-12:
                    dl[ty] = best
                    changed = True
            if not changed:
                break
        return dl

    def site(self, ty: Ty, remaining: int) -> "Site":
        """The choices at `ty` that a term of depth at most `remaining` can
        start with, and their weights, built on first use and kept."""
        key = (ty, remaining)
        site = self._sites.get(key)
        if site is None:
            site = self._sites[key] = self._site(ty, remaining)
        return site

    def _site(self, ty: Ty, remaining: int) -> "Site":
        cands = self.choices.get(ty, ())
        feasible = []
        for i, c in enumerate(cands):
            if not c.args:
                feasible.append(i)
            elif remaining >= 2:
                need = max(self.min_depth.get(a, math.inf) for a in c.args)
                if need <= remaining - 1:
                    feasible.append(i)
        weights = [math.exp(-cands[i].cost) for i in feasible]
        return Site(
            tuple(feasible),
            tuple(cands[i] for i in feasible),
            tuple(accumulate(weights)),
            sum(weights),
        )


@dataclass(frozen=True)
class Site:
    """The choices open at one (type, remaining depth) of a derivation.

    `bounds` are the running sums of the choices' weights exp(-cost), added
    left to right. A draw scales by `total`, the builtin `sum` of the
    weights, which since Python 3.12 can differ from the last bound in the
    last digit."""

    feasible: tuple[int, ...]  # indices into `Tables.choices[ty]`
    choices: tuple[Choice, ...]
    bounds: tuple[float, ...]
    total: float


def _signature(p: Production) -> tuple:
    """(p, its return type, its argument types); either is None where it
    holds a type variable, which reads as the type asked for."""
    rt = return_type(p.type)
    args = tuple(arg_types(p.type))
    if any(isinstance(a, TyVar) for a in args):
        args = None
    return p, None if isinstance(rt, TyVar) else rt, args


@lru_cache(maxsize=64)
def tables_for(grammar: Grammar, request: Ty) -> Tables:
    return Tables(grammar, request)


def _logsumexp(xs) -> float:
    m = max(xs)
    return m + math.log(sum(math.exp(x - m) for x in xs))


def sample_program(grammar: Grammar, d_max: int, seed: int) -> Term:
    """Draw one well-typed program of the grammar's request, depth at most
    d_max; equal seeds draw equal programs.

    Type-directed descent with per-node renormalization over choices that can
    still complete within the depth budget; no rejection loops.
    """
    tables = tables_for(grammar, grammar.request)
    budget = d_max - len(tables.binders)
    need = tables.min_depth.get(tables.body_request, math.inf)
    if budget < need:
        raise DepthUnsatisfiableError(
            f"no {tables.body_request} term fits depth {d_max}"
        )
    rng = random.Random(seed)
    body = _sample_node(tables, tables.body_request, budget, rng)
    for _ in tables.binders:
        body = Lambda(body)
    return body


def _sample_node(tables: Tables, ty: Ty, remaining: int, rng) -> Term:
    choice = _pick(tables, ty, remaining, rng)
    if choice.kind == "var":
        return Var(choice.var_index)
    head = Prim(choice.name)
    args = [_sample_node(tables, a, remaining - 1, rng) for a in choice.args]
    return apply_all(head, args)


def _pick(tables: Tables, ty: Ty, remaining: int, rng) -> Choice:
    """Draw a feasible choice with probability proportional to its weight:
    the first whose running weight sum reaches rng.random() * total."""
    site = tables.site(ty, remaining)
    if not site.choices:
        raise DepthUnsatisfiableError(f"no {ty} term fits remaining depth {remaining}")
    k = bisect_left(site.bounds, rng.random() * site.total)
    return site.choices[k] if k < len(site.choices) else site.choices[-1]


def description_length(grammar: Grammar, term: Term, request: Ty | None = None) -> float:
    """Negative log-probability (nats) of the term's derivation."""
    if request is None:
        request = grammar.request
    return term_dl(tables_for(grammar, request), term)


def term_dl(tables: Tables, term: Term) -> float:
    """`description_length` under tables already looked up for the request."""
    return _dl_node(tables, _strip_binders(tables, term), tables.body_request)


def choice_counts(tables: Tables, term: Term) -> dict:
    """Uses of each (type, production name or variable index) along the
    term's derivation; `counts_dl` prices them under any grammar that keeps
    these choices."""
    counts: dict = {}
    _count_choices(tables, _strip_binders(tables, term), tables.body_request, counts)
    return counts


def counts_dl(tables: Tables, counts: dict) -> float:
    """Description length of a derivation given by `choice_counts`."""
    by_head = tables.by_head
    return sum(n * by_head[key].cost for key, n in counts.items())


def _strip_binders(tables: Tables, term: Term) -> Term:
    n, body = peel(term)
    if n != len(tables.binders):
        raise NotDerivableError(f"term has {n} binders, the request {len(tables.binders)}")
    return body


def _head_key(c: Choice):
    return c.name if c.kind == "prim" else c.var_index


def _index_heads(choices: dict) -> dict:
    """(type, production name or variable index) -> the choice it derives."""
    by_head: dict[tuple, Choice] = {}
    for ty, cands in choices.items():
        for c in cands:
            by_head.setdefault((ty, _head_key(c)), c)
    return by_head


def _derive(tables: Tables, term: Term, ty: Ty):
    """The choice deriving `term` at type `ty`, and the term's arguments."""
    head, args = spine(term)
    if isinstance(head, Var):
        if args:
            raise NotDerivableError("applied variable")
        c = tables.by_head.get((ty, head.index))
        if c is None:
            raise NotDerivableError(f"no variable of type {ty} at index {head.index}")
        return c, args
    if isinstance(head, Lambda):
        raise NotDerivableError("lambda at a base-type position")
    c = tables.by_head.get((ty, head.name))
    if c is None:
        raise NotDerivableError(f"production {head.name!r} unavailable at type {ty}")
    if len(args) != len(c.args):
        raise NotDerivableError(f"partial application of {head.name}")
    return c, args


def _dl_node(tables: Tables, term: Term, ty: Ty) -> float:
    c, args = _derive(tables, term, ty)
    total = c.cost
    for a, aty in zip(args, c.args):
        total += _dl_node(tables, a, aty)
    return total


def _count_choices(tables: Tables, term: Term, ty: Ty, counts: dict) -> None:
    c, args = _derive(tables, term, ty)
    key = (ty, _head_key(c))
    counts[key] = counts.get(key, 0) + 1
    for a, aty in zip(args, c.args):
        _count_choices(tables, a, aty, counts)


def refit(grammar: Grammar, solved) -> Grammar:
    """Laplace-smoothed (alpha=1) usage frequencies from the solved corpus,
    an iterable of terms that may repeat.

    Raw weight log(1 + count) per production normalizes per choice set to
    (1 + count) / sum(1 + count); an empty corpus yields the uniform grammar.
    Each distinct program is counted once and its counts are multiplied by
    its copies; they are ints, so the sums are exact.
    """
    counts: dict[str, int] = {}
    var_count = 0
    tables = tables_for(grammar, grammar.request)
    for term, copies in Counter(solved).items():
        for (_, head), n in choice_counts(tables, term).items():
            if isinstance(head, int):
                var_count += n * copies
            else:
                counts[head] = counts.get(head, 0) + n * copies
    prods = tuple(
        Production(p.name, p.type, math.log1p(counts.get(p.name, 0)))
        for p in grammar.productions
    )
    return Grammar(
        env_tag=grammar.env_tag,
        productions=prods,
        var_logp=math.log1p(var_count),
    )


def add_abstractions(grammar: Grammar, abstractions) -> Grammar:
    """Extend the grammar with library abstractions as ordinary productions.

    New productions start at raw weight 0.0 (an unseen count under refit)."""
    existing = {p.name for p in grammar.productions}
    new = [
        Production(a.name, a.type, 0.0)
        for a in abstractions
        if a.name not in existing
    ]
    return Grammar(
        env_tag=grammar.env_tag,
        productions=grammar.productions + tuple(new),
        var_logp=grammar.var_logp,
    )


def grammar_to_json(grammar: Grammar) -> dict:
    return {
        "schema": GRAMMAR_SCHEMA,
        "envTag": grammar.env_tag,
        "varLogp": grammar.var_logp,
        "requests": [str(grammar.request)],
        "productions": [
            {"name": p.name, "type": str(p.type), "logp": p.logp}
            for p in grammar.productions
        ],
    }


def grammar_from_json(doc: dict) -> Grammar:
    """Raises ValueError unless `requests` is exactly the env's request."""
    if doc.get("schema") != GRAMMAR_SCHEMA:
        raise ValueError(f"unexpected grammar schema {doc.get('schema')!r}")
    grammar = Grammar(
        env_tag=doc["envTag"],
        productions=tuple(
            Production(p["name"], parse_type(p["type"]), float(p["logp"]))
            for p in doc["productions"]
        ),
        var_logp=float(doc["varLogp"]),
    )
    if [parse_type(t) for t in doc["requests"]] != [grammar.request]:
        raise ValueError(f"grammar requests {doc['requests']} are not [{grammar.request}]")
    return grammar


def save_grammar(grammar: Grammar, path) -> None:
    with open(path, "w") as fh:
        json.dump(grammar_to_json(grammar), fh, indent=2, sort_keys=True)
        fh.write("\n")


def load_grammar(path) -> Grammar:
    with open(path) as fh:
        return grammar_from_json(json.load(fh))
