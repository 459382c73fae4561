"""Library learning: a top-down candidate search, MDL compression, expansion.

A candidate is a core: a full application with at most `max_arity`
argument slots $0..$k, numbered by first use. It keeps at least two
non-slot nodes, leaves every program variable in a slot, and matches
subtrees in two corpus programs, copies counted. Matching is typed because
`if` is polymorphic: a core of type ρ matches only subtrees derived at ρ.

Each greedy step numbers every distinct (subtree, type) of the corpus with
an int, children first, and finds its candidates with one search over
patterns: cores with open holes. A pattern's match locations are fragment
ids, each with the ids of the subtrees at its holes and slots. The search
starts from each (head, argument count, type) bucket of fragments and fills
the first hole of a pattern in each way that keeps two copies matched: with
a head that subtrees there share (the locations split by head), with a new
slot, or with an earlier slot of its type, at the locations where both
values are equal. So it meets every core once. Patterns are taken from a
heap, highest bound first, so that the pruning threshold rises early.

A candidate's gain is the drop in total description length: the corpus
under the extended grammar, rewritten to call the candidate, plus the
candidate's body stored once. `compress` keeps accepting the step's winner
while the total strictly drops. The winner is found among the candidates
within 2·`_EPS` of the step's best gain: in text order, one replaces the
winner so far if its gain exceeds `_EPS` (before any is kept) or the
winner's gain plus `_EPS`.

The search drops a pattern, with every core completing it, when its bound
is at most max(`_EPS`, best exact gain so far - 2·`_EPS`) less a slack; so
every candidate that can win is priced. Say the pattern returns ρ. Adding a
production returning ρ changes only ρ's choice set, whatever its argument
types, so under the extended program-request tables each subtree has one
DL′ and a call one cost `call`. Rewriting a location f whose slots hold v_i
replaces DL′(f) by call + Σ DL′(v_i), a slot used twice counted once, and
its arguments are then rewritten as locations of their own; the rest of the
derivation keeps its choices. So rewriting saves
s(f) = DL′(f) - Σ DL′(v_i) - call at each of at most `uses(f)` occurrences
(copies included). The current choice counts cost `growth` more under the
extended tables, the earlier bodies cost more too, and the new body costs
at least `fixed`: its non-slot nodes' costs at the request ρ, which lacks
the body's variables and so makes no choice dearer. A completion matches
some of the pattern's locations, keeps its slots and their values, and
adds slots, whose values cost at least 0, and non-slot nodes. So every
completion's gain is at most
    Σ over the pattern's locations of uses(f) · max(0, s(f)) - growth - fixed.
The bound adds its floats in another order than the exact price, so the
threshold is lowered by `_SLACK` of the step's DL: each sum has far fewer
than 10^5 terms whose sizes add up to a few times the step's DL, so each is
within about 10^-10 of the step's DL of its real value.

Exact pricing touches only the match set: the programs outside it keep
their derivations and are priced as their (type, production) counts, taken
once per step, times the extended grammar's costs; only the matched
programs are rewritten and walked, with the abstraction bodies. The
reported dl_before and dl_after price every distinct program once and add
the prices in corpus key order, one per key.

A corpus of solved windows holds many copies of a few programs, so
`compress` groups it once, at entry, into its distinct programs and their
copies. A step counts, numbers, rewrites and prices each distinct program
once and multiplies by its copies. Rewriting keeps distinct programs
distinct (inlining the new abstraction undoes it), so a winner's rewritten
programs replace their own positions. Dropping an underused abstraction
inlines it into each distinct program once, use counts multiply by copies,
and the corpus is rebuilt in key order once, at the end. An extended
grammar's tables are derived from the current grammar's (`Tables.extend`),
once per production type and request, and kept out of `tables_for`'s cache.
A step starts from the tables the previous winner was priced under and
brings other requests' up to date the same way, so a call builds tables
only for requests it has not met.

The library is one list, earlier entries first. An abstraction keeps its
name, body, type and use count; its arity (the body's leading lambdas) and
children (the abstractions it calls) are read off the body. `compress`
appends what it learns after the input library, then removes each new entry
used fewer than twice, inlining its current body into the corpus and the
other entries.

Abstraction bodies are stored as closed lambda terms; their serialized form
prints argument slots as $0..$2, and writes arity and children from the
body.
"""
from __future__ import annotations

import dataclasses
import heapq
import itertools
import json
import re
from dataclasses import dataclass
from pathlib import Path
from typing import NamedTuple

from gridsynth.errors import GridSynthError, UnknownAbstractionError
from gridsynth.grammar import (
    Grammar,
    Production,
    Tables,
    add_abstractions,
    choice_counts,
    counts_dl,
    description_length,
    tables_for,
    term_dl,
)
from gridsynth.lang import (
    Apply,
    Lambda,
    Prim,
    Term,
    Ty,
    Var,
    apply_all,
    arg_types,
    arrow,
    inline,
    parse_type,
    peel,
    return_type,
    spine,
)
from gridsynth.primitives import PrimTable, arg_types_at, primitive_table
from gridsynth.sexpr import parse_program, print_program
from gridsynth.typecheck import infer_type, signature_map

LIBRARY_SCHEMA = "gridsynth-library-v1"
# argument slot name -> slot index: a dict lookup, not a regex match, since
# `_match` tests every primitive of a core against it
_SLOTS = {f"${i}": i for i in range(10)}
_ABS_RE = re.compile(r"^f\d+$")
_EPS = 1e-9
# The search drops a pattern only if its bound is below the step's threshold
# by this share of the step's DL (see the module docstring).
_SLACK = 1e-9
# the fields `library_from_json` reads from each entry, with their JSON kinds
_ENTRY_FIELDS = (("name", str), ("arity", int), ("type", str), ("body", str), ("useCount", int))


@dataclass(frozen=True)
class Abstraction:
    """A named reusable function: `body` is a closed term whose leading
    lambdas bind its arguments. Arity and children are read off the body."""

    name: str
    body: Term
    type: Ty
    use_count: int

    @property
    def arity(self) -> int:
        return peel(self.body)[0]

    @property
    def children(self) -> tuple[str, ...]:
        """The abstractions the body calls, sorted by name."""
        return tuple(_called(self.body))


@dataclass(frozen=True)
class CompressionResult:
    grammar: Grammar
    library: tuple[Abstraction, ...]  # full library, earlier entries first
    new_abstractions: tuple[Abstraction, ...]
    rewritten: dict
    dl_before: float
    dl_after: float
    # {"steps": greedy steps, the last of which accepts nothing, "scored":
    # patterns bounded, partial ones included, "priced": candidates priced
    # exactly}
    candidate_counts: dict = dataclasses.field(default_factory=dict)


def core_to_lambda(core: Term, arity: int) -> Term:
    """Slot prims $i become de Bruijn vars under `arity` wrapping lambdas."""

    def conv(t: Term) -> Term:
        if isinstance(t, Prim):
            i = _SLOTS.get(t.name)
            return t if i is None else Var(arity - 1 - i)
        if isinstance(t, Apply):
            return Apply(conv(t.fn), conv(t.arg))
        raise GridSynthError(f"unexpected node in abstraction core: {t!r}")

    body = conv(core)
    for _ in range(arity):
        body = Lambda(body)
    return body


def body_text(a: Abstraction) -> str:
    """The body's core, its parameters printed as the slots $0, $1, ..."""
    arity, core = peel(a.body)
    return print_program(core, binder_names=[f"${i}" for i in range(arity)], depth=arity)


def definitions(library) -> dict:
    return {a.name: a.body for a in library or ()}


def expand(term: Term, library) -> Term:
    """Inline every abstraction call down to base primitives."""
    defs = definitions(library)
    missing = [name for name in _called(term) if name not in defs]
    if missing:
        raise UnknownAbstractionError(f"term references unknown abstractions: {missing}")
    return inline(term, defs)


def _prims_in(term: Term):
    if isinstance(term, Prim):
        yield term
    elif isinstance(term, Apply):
        yield from _prims_in(term.fn)
        yield from _prims_in(term.arg)
    elif isinstance(term, Lambda):
        yield from _prims_in(term.body)


def _called(term: Term) -> list[str]:
    """The abstraction names `term` calls, sorted."""
    return sorted({p.name for p in _prims_in(term) if _ABS_RE.match(p.name)})


def count_calls(term: Term, name: str) -> int:
    return sum(1 for p in _prims_in(term) if p.name == name)


def _match(core: Term, term: Term, binding: dict) -> bool:
    if isinstance(core, Prim):
        i = _SLOTS.get(core.name)
        if i is None:
            return core == term
        if i in binding:
            return binding[i] == term
        binding[i] = term
        return True
    if isinstance(core, Apply):
        return (
            isinstance(term, Apply)
            and _match(core.fn, term.fn, binding)
            and _match(core.arg, term.arg, binding)
        )
    return core == term


@dataclass(frozen=True)
class _Candidate:
    core: Term
    arg_types: tuple
    ret: Ty
    text: str
    programs: frozenset  # positions of the distinct programs holding a match

    @property
    def arity(self) -> int:
        return len(self.arg_types)

    @property
    def type(self) -> Ty:
        return arrow(*self.arg_types, self.ret) if self.arg_types else self.ret


def rewrite(term: Term, cand: _Candidate, name: str, ty: Ty, sig: dict) -> Term:
    """Replace matches of the candidate's core with calls to `name`,
    outermost first. `term` has type `ty` under the signatures `sig`.

    The core matches only at positions of its own return type: a core headed
    by the polymorphic `if` would otherwise also match an `if` of another
    type, and the call put there would not be derivable. Nodes whose head
    or argument count differ from the core's are not matched at all."""
    core_head, core_args = spine(cand.core)
    core_name, core_arity = core_head.name, len(core_args)

    def walk(term: Term, ty: Ty) -> Term:
        if isinstance(term, Lambda):
            return Lambda(walk(term.body, ty.dst))
        head, args = spine(term)
        if not args or not isinstance(head, Prim):
            return term
        binding: dict = {}
        if (
            head.name == core_name
            and len(args) == core_arity
            and ty == cand.ret
            and _match(cand.core, term, binding)
        ):
            return apply_all(
                Prim(name), [walk(binding[i], t) for i, t in enumerate(cand.arg_types)]
            )
        arg_ts = arg_types_at(sig[head.name], ty)
        return apply_all(head, [walk(a, t) for a, t in zip(args, arg_ts)])

    return walk(term, ty)


def _core(pre) -> Term:
    """The core whose nodes in preorder are `pre`: a (head name, argument
    count) pair or a slot index each."""
    nodes = iter(pre)

    def build() -> Term:
        node = next(nodes)
        if isinstance(node, int):
            return Prim(f"${node}")
        name, n = node
        return apply_all(Prim(name), [build() for _ in range(n)])

    return build()


class _Pattern(NamedTuple):
    """A core being built top down, and where it matches."""

    bound: float  # on the gain of every core that completes it
    ret: Ty
    pre: tuple  # its nodes so far in preorder (see `_core`)
    holes: tuple  # the types of its open holes, leftmost first
    slots: tuple  # the type of each slot
    fixed: float  # its non-slot nodes' cost at the request of its return type
    # per match location: (fragment id, the node ids at the open holes and
    # at the slots, the fragment's DL less its slot values')
    locs: list


class _Prices(NamedTuple):
    """Under the grammar extended with a candidate returning one type."""

    dl: list  # each node's DL, at the program request
    call: float  # the cost of a call, at the program request
    growth: float  # how much the DL of the step's corpus counts grows
    # (type, head) -> the choice at the request of the return type: it costs
    # at most what it costs in the body, which adds variables to its choice
    # set
    least: dict


def _next_index(library) -> int:
    best = -1
    for a in library or ():
        m = _ABS_RE.match(a.name)
        if m:
            best = max(best, int(a.name[1:]))
    return best + 1


def _abstraction_from(cand: _Candidate, name: str) -> Abstraction:
    return Abstraction(name, core_to_lambda(cand.core, cand.arity), cand.type, 0)


def _total_dl(programs, owner, grammar: Grammar, request: Ty, bodies) -> float:
    """The DL of a grouped corpus, `programs[owner[k]]` standing for its k-th
    entry, plus that of `bodies`. Each distinct program is priced once, and
    the prices are added in corpus order."""
    tables = tables_for(grammar, request)
    dls = [term_dl(tables, term) for term in programs]
    return sum(dls[d] for d in owner) + sum(
        description_length(grammar, a.body, a.type) for a in bodies
    )


def _tables_at(cache: dict, grammar: Grammar, request: Ty) -> Tables:
    """`grammar`'s tables for `request`. `cache` maps a request to the tables
    of `grammar` or of a grammar that `grammar` extends; those are brought up
    to date with `Tables.extend` and kept."""
    tables = cache.get(request)
    if tables is None:
        tables = tables_for(grammar, request)
    elif tables.grammar is not grammar:
        tables = tables.extend(grammar)
    cache[request] = tables
    return tables


class _Step:
    """One greedy step of `compress`: the corpus and the bodies learned at
    earlier steps under the current grammar `g`, the search for candidates
    and the exact gain of one (see the module docstring). `cache` is the
    call's tables cache (`_tables_at`).

    The step numbers every distinct (subtree, type) of its programs, bottom
    up, so that a node's id follows its children's: `keys`, `types` and
    `kids` hold each node's head (a name, or a variable's index), type and
    child ids, `uses` its occurrences, copies included, and `progs` the
    positions of the distinct programs holding it."""

    def __init__(
        self, programs, copies, g: Grammar, earlier, name: str, request: Ty, sig: dict, cache
    ):
        self.programs, self.copies = programs, copies
        self.g, self.earlier, self.name, self.request, self.sig = g, earlier, name, request, sig
        self.cache = cache
        tables = _tables_at(cache, g, request)
        self.counts = [choice_counts(tables, t) for t in programs]
        self.corpus_counts: dict = {}
        for c, k in zip(self.counts, copies):
            for key, n in c.items():
                self.corpus_counts[key] = self.corpus_counts.get(key, 0) + n * k
        self.corpus_dl = counts_dl(tables, self.corpus_counts)
        self.now = self.corpus_dl + sum(
            term_dl(_tables_at(cache, g, a.type), a.body) for a in earlier
        )
        self.extended: dict = {}  # production type -> (grammar, {request: tables})
        self.earlier_dl: dict = {}  # production type -> the earlier bodies' DL
        self.by_ret: dict = {}  # return type -> its _Prices
        self.ids: dict = {}  # (head, child ids, type) -> node id
        self.keys, self.types, self.kids, self.uses, self.progs = [], [], [], [], []
        ret = return_type(request)
        for d, program in enumerate(programs):
            self._node(peel(program)[1], ret, d, copies[d])
        self.scored = 0  # patterns bounded

    def _node(self, term: Term, ty: Ty, d: int, k: int) -> int:
        """The id of `term` at `ty`, one of `k` occurrences in program `d`."""
        head, args = spine(term)
        if isinstance(head, Var):
            key = (head.index, (), ty)
        else:
            arg_ts = arg_types_at(self.sig[head.name], ty) if args else ()
            key = (head.name, tuple(self._node(a, t, d, k) for a, t in zip(args, arg_ts)), ty)
        i = self.ids.get(key)
        if i is None:
            i = self.ids[key] = len(self.keys)
            self.keys.append(key[0])
            self.kids.append(key[1])
            self.types.append(ty)
            self.uses.append(0)
            self.progs.append(set())
        self.uses[i] += k
        self.progs[i].add(d)
        return i

    def tables(self, ty: Ty, request: Ty) -> Tables:
        """The tables for `request` of `g` extended with a production of type
        `ty`, named as the step names its candidate; each extended grammar
        and each of its tables is made once, the tables from `g`'s."""
        if ty not in self.extended:
            self.extended[ty] = (add_abstractions(self.g, [Production(self.name, ty, 0.0)]), {})
        grammar, tables = self.extended[ty]
        if request not in tables:
            tables[request] = _tables_at(self.cache, self.g, request).extend(grammar)
        return tables[request]

    def prices(self, ret: Ty) -> _Prices:
        """What bounds the gain of every candidate returning `ret` (see
        `_Prices`). Only the choice set of `ret` changes with the candidate,
        and it changes the same way whatever its argument types."""
        found = self.by_ret.get(ret)
        if found is None:
            tables = self.tables(ret, self.request)
            by_head = tables.by_head
            dl: list = []
            for key, ty, kids in zip(self.keys, self.types, self.kids):
                dl.append(by_head[(ty, key)].cost + sum(dl[c] for c in kids))
            growth = counts_dl(tables, self.corpus_counts) - self.corpus_dl
            call = by_head[(ret, self.name)].cost
            found = self.by_ret[ret] = _Prices(dl, call, growth, self.tables(ret, ret).by_head)
        return found

    def _pattern(self, ret, pre, holes, slots, fixed, locs) -> _Pattern:
        prices = self.prices(ret)
        call, uses = prices.call, self.uses
        self.scored += 1
        saved = sum(uses[f] * max(0.0, room - call) for f, _, _, room in locs)
        return _Pattern(saved - prices.growth - fixed, ret, pre, holes, slots, fixed, locs)

    def _two_copies(self, frags) -> bool:
        """Whether the programs holding the fragments add up to two copies."""
        first = None
        for f in frags:
            for d in self.progs[f]:
                if self.copies[d] > 1 or first not in (None, d):
                    return True
                first = d
        return False

    def search(self, max_arity: int, keep):
        """Yield every candidate whose core has at most `max_arity` slots and
        two non-slot nodes and matches two program copies, unless `keep` is
        false for a pattern it completes.

        Patterns are taken best first, by bound, from a heap that starts with
        one per (head, argument count, type) bucket of fragments. Taking one
        fills its first open hole in each way that keeps two copies matched:
        with a head that subtrees there share, with a new slot, or with an
        earlier slot of its type at the locations where the two values are
        equal."""
        buckets: dict = {}
        for f, kids in enumerate(self.kids):
            if kids:
                buckets.setdefault((self.keys[f], len(kids), self.types[f]), []).append(f)
        heap: list = []  # (-bound, tiebreak, pattern)
        tiebreak = itertools.count()
        for (head, n, ret), frags in buckets.items():
            if self._two_copies(frags):
                prices = self.prices(ret)
                locs = [(f, self.kids[f], (), prices.dl[f]) for f in frags]
                holes = tuple(self.types[c] for c in self.kids[frags[0]])
                fixed = prices.least[(ret, head)].cost
                pat = self._pattern(ret, ((head, n),), holes, (), fixed, locs)
                heapq.heappush(heap, (-pat.bound, next(tiebreak), pat))
        while heap:
            pat = heapq.heappop(heap)[2]
            if not keep(pat):
                continue
            if pat.holes:
                for child in self._children(pat, max_arity):
                    heapq.heappush(heap, (-child.bound, next(tiebreak), child))
            elif sum(isinstance(node, tuple) for node in pat.pre) >= 2:
                core = _core(pat.pre)
                programs = frozenset().union(*(self.progs[loc[0]] for loc in pat.locs))
                yield _Candidate(core, pat.slots, pat.ret, print_program(core), programs)

    def _children(self, pat: _Pattern, max_arity: int) -> list:
        """The patterns that fill the first open hole of `pat`."""
        ret, pre, slots, fixed = pat.ret, pat.pre, pat.slots, pat.fixed
        ty, holes = pat.holes[0], pat.holes[1:]
        prices = self.prices(ret)
        out = []
        heads: dict = {}
        for loc in pat.locs:
            v = loc[1][0]
            if isinstance(self.keys[v], str):  # variables are always cut
                heads.setdefault((self.keys[v], len(self.kids[v])), []).append(loc)
        for head, group in heads.items():
            if self._two_copies(loc[0] for loc in group):
                kids = self.kids[group[0][1][0]]
                locs = [(f, self.kids[at[0]] + at[1:], vals, room) for f, at, vals, room in group]
                kid_tys = tuple(self.types[c] for c in kids)
                more = fixed + prices.least[(ty, head[0])].cost
                out.append(self._pattern(ret, pre + (head,), kid_tys + holes, slots, more, locs))
        if len(slots) < max_arity:
            dl = prices.dl
            locs = [(f, at[1:], vals + (at[0],), room - dl[at[0]]) for f, at, vals, room in pat.locs]
            out.append(self._pattern(ret, pre + (len(slots),), holes, slots + (ty,), fixed, locs))
        for j, slot_ty in enumerate(slots):
            if slot_ty == ty:
                locs = [(f, at[1:], vals, room) for f, at, vals, room in pat.locs if at[0] == vals[j]]
                if self._two_copies(loc[0] for loc in locs):
                    out.append(self._pattern(ret, pre + (j,), holes, slots, fixed, locs))
        return out

    def gain(self, cand: _Candidate, abs_: Abstraction) -> tuple[float, dict]:
        """The drop in total DL from accepting `cand` as `abs_`, and the
        matched distinct programs rewritten: {position: term}."""
        ty = abs_.type
        if ty not in self.earlier_dl:
            self.earlier_dl[ty] = sum(term_dl(self.tables(ty, a.type), a.body) for a in self.earlier)
        tables = self.tables(ty, self.request)
        # Programs without a match keep their derivation; only the choice
        # costs change, so they are priced from their counts. A matched
        # program is rewritten and priced once, and its price counts once
        # per copy.
        untouched = dict(self.corpus_counts)
        rewritten: dict = {}
        touched_dl = 0.0
        for d in sorted(cand.programs):
            k = self.copies[d]
            for key, n in self.counts[d].items():
                untouched[key] -= n * k
            term = rewrite(self.programs[d], cand, self.name, self.request, self.sig)
            rewritten[d] = term
            touched_dl += k * term_dl(tables, term)
        bodies_dl = self.earlier_dl[ty] + term_dl(self.tables(ty, ty), abs_.body)
        total = counts_dl(tables, untouched) + touched_dl + bodies_dl
        return self.now - total, rewritten


def _winner(step: _Step, max_arity: int):
    """The step's winner as (gain, abstraction, rewritten programs), or None,
    and how many candidates the step priced exactly."""
    slack = _SLACK * step.now
    floor = _EPS  # no candidate with a gain at most `floor` can win

    def keep(pat: _Pattern) -> bool:
        return pat.bound > floor - slack

    priced = []
    for cand in step.search(max_arity, keep):
        abs_ = _abstraction_from(cand, step.name)
        gain, rewritten = step.gain(cand, abs_)
        priced.append((cand.text, str(cand.ret), gain, abs_, rewritten))
        floor = max(floor, gain - 2 * _EPS)
    best = None
    for _, _, gain, abs_, rewritten in sorted(priced, key=lambda p: p[:2]):
        if gain > floor and gain > (_EPS if best is None else best[0] + _EPS):
            best = (gain, abs_, rewritten)
    return best, len(priced)


def compress(
    corpus: dict, grammar: Grammar, library=(), max_arity: int = 3
) -> CompressionResult:
    """Greedy MDL compression; accepts candidates while total DL strictly drops."""
    prims = primitive_table(grammar.env_tag)
    request = prims.request
    n0 = len(library)
    lib = list(library)
    # the distinct programs, in order of first occurrence, each corpus key's
    # position among them and each one's copies; rewriting keeps them
    # distinct, so they are grouped once
    index: dict = {}
    owner = [index.setdefault(term, len(index)) for term in corpus.values()]
    programs = list(index)
    copies = [0] * len(programs)
    for d in owner:
        copies[d] += 1
    g = grammar
    dl_before = _total_dl(programs, owner, g, request, [])
    cache: dict = {}
    tally = {"steps": 0, "scored": 0, "priced": 0}
    while True:
        sig = signature_map(prims, lib)
        step = _Step(programs, copies, g, lib[n0:], f"f{_next_index(lib)}", request, sig, cache)
        best, priced = _winner(step, max_arity)
        tally["steps"] += 1
        tally["scored"] += step.scored
        tally["priced"] += priced
        if best is None:
            break
        _, abs_, rewritten = best
        # the next step starts from the tables the winner was priced under
        g, tables = step.extended[abs_.type]
        cache.update(tables)
        for d, term in rewritten.items():
            programs[d] = term
        lib.append(abs_)
    lib, programs = _drop_underused(lib, n0, programs, copies)
    g = add_abstractions(grammar, lib)
    uses = _use_counts(programs, copies, lib)
    counted = [dataclasses.replace(a, use_count=uses[a.name]) for a in lib]
    return CompressionResult(
        grammar=g,
        library=tuple(counted),
        new_abstractions=tuple(counted[n0:]),
        rewritten={key: programs[d] for key, d in zip(corpus, owner)},
        dl_before=dl_before,
        dl_after=_total_dl(programs, owner, g, request, counted[n0:]),
        candidate_counts=tally,
    )


def _use_counts(programs, copies, lib) -> dict:
    """Calls of each abstraction of `lib` in the corpus, each distinct
    program counted times its copies, and in the bodies of the library's
    other abstractions, counted in one walk."""
    uses = dict.fromkeys((a.name for a in lib), 0)
    walks = [*zip(programs, copies, [None] * len(programs)), *((a.body, 1, a.name) for a in lib)]
    for term, k, own in walks:
        for p in _prims_in(term):
            if p.name in uses and p.name != own:
                uses[p.name] += k
    return uses


def _drop_underused(lib, n0, programs, copies):
    """Inline and remove the abstractions from index `n0` on (the freshly
    added ones) that are used fewer than twice; `programs` are the corpus's
    distinct programs and `copies` their copies."""
    lib = list(lib)
    while True:
        uses = _use_counts(programs, copies, lib)
        victim = next((a for a in lib[n0:] if uses[a.name] < 2), None)
        if victim is None:
            return lib, programs
        defs = {victim.name: victim.body}
        programs = [inline(t, defs) for t in programs]
        lib = [
            dataclasses.replace(a, body=inline(a.body, defs)) for a in lib if a is not victim
        ]


def library_to_json(library) -> dict:
    return {
        "schema": LIBRARY_SCHEMA,
        "abstractions": [
            {
                "name": a.name,
                "arity": a.arity,
                "type": str(a.type),
                "body": body_text(a),
                "children": list(a.children),
                "useCount": a.use_count,
            }
            for a in library
        ],
    }


def library_from_json(doc, prims: PrimTable):
    """The library a `library.json` document holds; GridSynthError with one
    line if the document is malformed."""
    if not isinstance(doc, dict):
        raise GridSynthError("library document is not a JSON object")
    if doc.get("schema") != LIBRARY_SCHEMA:
        raise GridSynthError(f"unexpected library schema {doc.get('schema')!r}")
    entries = doc.get("abstractions")
    if not isinstance(entries, list):
        raise GridSynthError("library document has no 'abstractions' list")
    out: list[Abstraction] = []
    for n, entry in enumerate(entries):
        if not isinstance(entry, dict):
            raise GridSynthError(f"library entry {n} is not a JSON object")
        where = f"library entry {n} ({entry.get('name', 'unnamed')})"
        for key, kind in _ENTRY_FIELDS:
            if key not in entry:
                raise GridSynthError(f"{where} has no {key!r} field")
            value = entry[key]
            if not isinstance(value, kind) or isinstance(value, bool):
                what = "a string" if kind is str else "an integer"
                raise GridSynthError(f"{where} has a bad {key!r} field: {value!r} is not {what}")
        try:
            ty = parse_type(entry["type"])
        except ValueError as exc:
            raise GridSynthError(f"{where} has a bad 'type' field: {exc}") from exc
        arity = entry["arity"]
        if arity != len(arg_types(ty)):
            raise GridSynthError(
                f"{where} has a bad 'arity' field: {arity}, but its type takes "
                f"{len(arg_types(ty))} arguments"
            )
        extra = [f"${i}" for i in range(arity)] + [a.name for a in out]
        body = core_to_lambda(parse_program(entry["body"], prims, extra=extra), arity)
        try:
            infer_type(body, prims, library=out, request=ty)
        except GridSynthError as exc:
            raise GridSynthError(f"{where} has a bad 'body' field: {exc}") from exc
        out.append(Abstraction(entry["name"], body, ty, entry["useCount"]))
    return out


def save_library(library, path) -> None:
    Path(path).write_text(json.dumps(library_to_json(library), indent=2) + "\n", encoding="utf-8")


def load_library(path, prims: PrimTable):
    return library_from_json(json.loads(Path(path).read_text(encoding="utf-8")), prims)


def library_report(library) -> str:
    """One line per function with its fully expanded base-primitive form."""
    lines = []
    for a in library:
        expanded = expand(a.body, library)
        shown = print_program(expanded, binder_names=[f"${i}" for i in range(a.arity)])
        lines.append(
            f"{a.name} (arity {a.arity}, uses {a.use_count}) : {a.type} = "
            f"{body_text(a)}  expands to {shown}"
        )
    return "\n".join(lines)
