"""Library learning: anti-unification candidates, MDL compression, expansion.

Candidates come from anti-unifying pairs of full-application subtrees drawn
from different corpus programs: mismatching subtrees become argument slots
(at most three), repeated mismatches share a slot, and slots are numbered by
first use. Each candidate carries its match set: the programs holding a
subtree its core matches, found by matching the core against the distinct
fragments with its head, argument count and type, without building terms.
It also carries `hits`, the occurrences of those fragments, copies included.
Only candidates matched in at least two corpus programs, copies counted,
are kept. Matching is typed because `if` is polymorphic: a core headed by
`if` matches only at positions of its own type.

The greedy compressor scores each candidate by its gain: the drop in total
description length (corpus under the extended grammar, rewritten to call the
candidate, plus the candidate body stored once). It keeps accepting the best
candidate while that total strictly drops. Candidates are taken in text
order, and one replaces the best only if its gain exceeds the threshold:
`_EPS` before any is kept, then the best gain plus `_EPS`.

A candidate is priced exactly only if a cheap upper bound on its gain can
beat the threshold. Say it returns ρ. Under the extended program-request
tables, `core` is the DL of its core's non-slot nodes at ρ and `call` the
cost of the new production at ρ. `hits` counts every occurrence, copies
included, of every fragment the core matches. Rewriting replaces at most
`hits` occurrences, each by a call whose arguments are the slots' subtrees
at the same types; the rest of every derivation keeps its choices. So the
corpus costs at least its current choice counts priced under the extended
tables, less hits · max(0, core - call). Those counts grow by `growth`: the
new production joins ρ's choice set and raises the cost of every other
choice there. The earlier bodies grow the same way, which the bound leaves
out, and the new body costs its DL. So the gain is at most
hits · max(0, core - call) - growth - body.
A core that uses a slot twice also drops a duplicate argument, which this
does not cover; such a candidate is always priced. A candidate is skipped
only if its bound is below the threshold by `_SLACK` of the step's DL,
since the bound adds its floats in another order than the exact price: each
is a sum of far fewer than 10^5 terms whose sizes add up to a few times the
step's DL, so each is within about 10^-10 of the step's DL of its real
value. A skipped candidate cannot be the step's winner, so every step keeps
the winner that pricing every candidate finds.

Exact pricing touches only the match set: each greedy step counts every
program's uses of each (type, production) once, the programs outside the
match set keep their derivations and are priced as those counts times the
extended grammar's costs, and only the matched programs are rewritten and
walked, together with the abstraction bodies. The reported dl_before and
dl_after are full passes over the corpus.

Each step does only what is new, and each piece of work is done once per
distinct program. A corpus of solved windows holds many copies of a few
programs, so `compress` groups it once, at entry, into its distinct
programs (in order of first occurrence) and each one's copies, and every
step works on that grouping: a program is counted, walked, rewritten and
priced once, and its counts and price are multiplied by its copies. The
grouping never changes within a call, since rewriting keeps distinct
programs distinct (inlining the new abstraction undoes it): a winner's
rewritten programs replace their own positions, and the corpus is rebuilt
in its key order once, after the last step. The grammar extended with a
candidate differs from the current one only in the choice set of the
candidate's return type, so its tables are derived from the current
grammar's (`Tables.extend`), once per candidate type and request, and kept
out of `tables_for`'s cache. A step starts from the tables that the previous
step's winner was priced under, and brings the tables of other requests up
to date with `Tables.extend` too, so a call builds tables afresh only for a
request it has not met. A `compress` call keeps, for all of its steps, an
int id for each distinct (fragment, type), the fragment ids of each distinct
program, the anti-unifier of each pair of fragment ids, and whether each
candidate core matches each fragment id (`_Memo`). A step adds a name but
changes no signature, so all of these stay valid: only the programs that the
previous step rewrote are walked again, and only the fragments first met in
them are anti-unified and matched.

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
import json
import math
import re
from dataclasses import dataclass
from pathlib import Path

from gridsynth.errors import GridSynthError, UnknownAbstractionError
from gridsynth.grammar import (
    Grammar,
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
    arrow,
    free_vars,
    inline,
    parse_type,
    peel,
    return_type,
    spine,
)
from gridsynth.primitives import PrimTable, arg_types_at, primitive_table
from gridsynth.sexpr import parse_program, print_program
from gridsynth.typecheck import signature_map

LIBRARY_SCHEMA = "gridsynth-library-v1"
# argument slot name -> slot index: a dict lookup, not a regex match, since
# `_match` tests every primitive of a core against it
_SLOTS = {f"${i}": i for i in range(10)}
_ABS_RE = re.compile(r"^f\d+$")
_EPS = 1e-9
# A candidate is priced exactly unless its bound is below the step's
# threshold by this share of the step's DL (see the module docstring).
_SLACK = 1e-9
_UNSEEN = object()


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
    # candidates bounded, "priced": candidates priced exactly}
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


def lambda_to_core(body: Term) -> Term:
    """Inverse of core_to_lambda; bodies contain no internal lambdas."""
    arity, body = peel(body)

    def conv(t: Term) -> Term:
        if isinstance(t, Var):
            if t.index >= arity:
                raise GridSynthError("abstraction body is not closed")
            return Prim(f"${arity - 1 - t.index}")
        if isinstance(t, Apply):
            return Apply(conv(t.fn), conv(t.arg))
        if isinstance(t, Prim):
            return t
        raise GridSynthError(f"unexpected node in abstraction body: {t!r}")

    return conv(body)


def body_text(a: Abstraction) -> str:
    return print_program(lambda_to_core(a.body))


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


def _typed_fragments(node: Term, ret: Ty, sig: dict, out: list) -> None:
    """Every full-application subtree paired with its (syntax-directed) type."""
    if not isinstance(node, Apply):
        return
    out.append((node, ret))
    head, args = spine(node)
    if isinstance(head, Prim):
        for a, t in zip(args, arg_types_at(sig[head.name], ret)):
            _typed_fragments(a, t, sig, out)


class _AuSlots:
    def __init__(self):
        self.by_key = {}
        self.types = []

    def slot(self, key, ty: Ty) -> Term:
        if key not in self.by_key:
            self.by_key[key] = len(self.types)
            self.types.append(ty)
        return Prim(f"${self.by_key[key]}")


def _anti_unify(t1: Term, t2: Term, ret: Ty, sig: dict, slots: _AuSlots) -> Term:
    if t1 == t2 and not free_vars(t1):
        return t1
    h1, a1 = spine(t1)
    h2, a2 = spine(t2)
    if (
        isinstance(h1, Prim)
        and isinstance(h2, Prim)
        and h1.name == h2.name
        and len(a1) == len(a2)
        and a1
    ):
        arg_ts = arg_types_at(sig[h1.name], ret)
        if len(arg_ts) == len(a1):
            return apply_all(
                h1, [_anti_unify(x, y, t, sig, slots) for x, y, t in zip(a1, a2, arg_ts)]
            )
    return slots.slot((t1, t2), ret)


def _non_slot_nodes(core: Term) -> int:
    if isinstance(core, Prim):
        return 0 if core.name in _SLOTS else 1
    if isinstance(core, Apply):
        return _non_slot_nodes(core.fn) + _non_slot_nodes(core.arg)
    return 0


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
    hits: int = 0  # occurrences of the fragments it matches, copies included

    @property
    def arity(self) -> int:
        return len(self.arg_types)

    @property
    def repeats_slot(self) -> bool:
        return sum(1 for p in _prims_in(self.core) if p.name in _SLOTS) > self.arity

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


def _generalize(f1: Term, f2: Term, ty: Ty, sig: dict, max_arity: int):
    """The anti-unifier of two fragments of type `ty` as (printed core, core,
    slot types), or None if it needs more than `max_arity` slots or keeps
    fewer than two non-slot nodes."""
    slots = _AuSlots()
    core = _anti_unify(f1, f2, ty, sig, slots)
    if len(slots.types) > max_arity or _non_slot_nodes(core) < 2:
        return None
    return print_program(core), core, tuple(slots.types)


class _Memo:
    """What one `compress` call keeps across its greedy steps (see the module
    docstring), keyed by int ids: a fragment id per distinct (fragment,
    type) and a proposal id per distinct (core text, type) that
    anti-unification yields. It stays valid while `prims` and `max_arity`
    stay the same and the library only grows."""

    def __init__(self):
        self.fragment_ids: dict = {}  # (fragment, type) -> fragment id
        self.fragments: list = []  # fragment id -> fragment
        self.buckets: list = []  # fragment id -> (head name, argument count, type)
        self.programs: dict = {}  # program -> the ids of its typed fragments
        self.pairs: dict = {}  # (fragment id, fragment id) -> proposal id or None
        self.proposal_ids: dict = {}  # (core text, type) -> proposal id
        self.proposals: list = []  # proposal id -> _Candidate with no programs
        self.matches: list = []  # proposal id -> {fragment id: core matches it}

    def program_fragments(self, program: Term, ret: Ty, sig: dict) -> list:
        ids = self.programs.get(program)
        if ids is None:
            frags: list = []
            _typed_fragments(peel(program)[1], ret, sig, frags)
            ids = self.programs[program] = [self._fragment_id(f, ty) for f, ty in frags]
        return ids

    def _fragment_id(self, frag: Term, ty: Ty) -> int:
        f = self.fragment_ids.get((frag, ty))
        if f is None:
            f = self.fragment_ids[(frag, ty)] = len(self.fragments)
            head, args = spine(frag)
            self.fragments.append(frag)
            self.buckets.append((head.name, len(args), ty) if isinstance(head, Prim) else None)
        return f

    def proposal(self, f1: int, f2: int, sig: dict, max_arity: int):
        """The proposal id of the anti-unifier of two fragments of one
        bucket, or None if `_generalize` rejects it."""
        ty = self.buckets[f1][2]
        found = _generalize(self.fragments[f1], self.fragments[f2], ty, sig, max_arity)
        if found is None:
            return None
        text, core, arg_tys = found
        p = self.proposal_ids.get((text, ty))
        if p is None:
            p = self.proposal_ids[(text, ty)] = len(self.proposals)
            self.proposals.append(_Candidate(core, arg_tys, ty, text, frozenset()))
            self.matches.append({})
        return p


def propose_candidates(
    programs, copies, max_arity: int, prims: PrimTable, library=(), memo: _Memo | None = None
) -> list:
    """Candidate patterns (core with $-slots, argTypes, ret), sorted by text.

    `programs` are the corpus's distinct programs and `copies[d]` how often
    `programs[d]` occurs; a candidate's `programs` are positions in it, and
    it is kept if their copies add up to at least two. A core matches only
    fragments with its head, argument count and type, so only those are
    matched, every one of them: each candidate's `hits` adds up the
    occurrences, copies included, of all it matches.

    `memo`, if given, is kept by the caller across calls (see `_Memo`), as
    `compress` keeps one for each call: then each program's fragments are
    listed, each fragment pair anti-unified and each core matched against
    each fragment once for the whole call. Without it, nothing outlives the
    call."""
    if memo is None:
        memo = _Memo()
    sig = signature_map(prims, library)
    ret = return_type(prims.request)
    frag_progs: dict = {}  # fragment id -> the distinct programs holding it
    frag_uses: dict = {}  # fragment id -> its occurrences, copies included
    for d, program in enumerate(programs):
        for f in memo.program_fragments(program, ret, sig):
            frag_progs.setdefault(f, set()).add(d)
            frag_uses[f] = frag_uses.get(f, 0) + copies[d]
    buckets: dict = {}
    for f in frag_progs:
        key = memo.buckets[f]
        if key is not None:
            buckets.setdefault(key, []).append(f)
    pairs = memo.pairs
    seen: set = set()
    for bucket in buckets.values():
        for i, f1 in enumerate(bucket):
            p1 = frag_progs[f1]
            # a fragment of one program only pairs with fragments of others
            lone = len(p1) == 1 and copies[next(iter(p1))] == 1
            for f2 in bucket[i:]:
                if lone and (f1 == f2 or p1 == frag_progs[f2]):
                    continue
                p = pairs.get((f1, f2), _UNSEEN)
                if p is _UNSEEN:
                    p = pairs[(f1, f2)] = memo.proposal(f1, f2, sig, max_arity)
                if p is not None:
                    seen.add(p)
    out = []
    for p in sorted(seen, key=lambda p: (memo.proposals[p].text, str(memo.proposals[p].ret))):
        cand = memo.proposals[p]
        matches = memo.matches[p]
        head, args = spine(cand.core)
        found: set = set()
        hits = 0
        for f in buckets[(head.name, len(args), cand.ret)]:
            hit = matches.get(f)
            if hit is None:
                hit = matches[f] = _match(cand.core, memo.fragments[f], {})
            if hit:
                found |= frag_progs[f]
                hits += frag_uses[f]
        if sum(copies[d] for d in found) >= 2:
            out.append(dataclasses.replace(cand, programs=frozenset(found), hits=hits))
    return out


def _next_index(library) -> int:
    best = -1
    for a in library or ():
        m = _ABS_RE.match(a.name)
        if m:
            best = max(best, int(a.name[1:]))
    return best + 1


def _abstraction_from(cand: _Candidate, name: str) -> Abstraction:
    return Abstraction(name, core_to_lambda(cand.core, cand.arity), cand.type, 0)


def _corpus_dl(corpus: dict, grammar: Grammar, request: Ty) -> float:
    tables = tables_for(grammar, request)
    return sum(term_dl(tables, term) for term in corpus.values())


def _body_dl(a: Abstraction, grammar: Grammar) -> float:
    return description_length(grammar, a.body, a.type)


def _total_dl(corpus: dict, grammar: Grammar, request: Ty, bodies) -> float:
    return _corpus_dl(corpus, grammar, request) + sum(_body_dl(a, grammar) for a in bodies)


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


def _core_dl(tables: Tables, core: Term, ty: Ty) -> float:
    """The DL of the core's nodes other than its slots, derived at `ty`."""
    head, args = spine(core)
    if head.name in _SLOTS:
        return 0.0
    c = tables.by_head[(ty, head.name)]
    total = c.cost
    for a, aty in zip(args, c.args):
        total += _core_dl(tables, a, aty)
    return total


class _Extension:
    """A step's grammar extended with the production of one candidate type,
    and its tables: for the program request and the type at first, and for
    the types of the bodies learned at earlier steps once a candidate of the
    type is priced exactly."""

    def __init__(self, step: "_Step", abs_: Abstraction):
        self.grammar = add_abstractions(step.g, [abs_])
        self.tables = {
            r: _tables_at(step.cache, step.g, r).extend(self.grammar)
            for r in (step.request, abs_.type)
        }
        # how much the DL of the corpus counts grows
        self.growth = counts_dl(self.tables[step.request], step.corpus_counts) - step.corpus_dl
        self.earlier_dl: float | None = None


class _Step:
    """One greedy step of `compress`: the corpus and the bodies learned at
    earlier steps under the current grammar `g`, and the bound and the exact
    gain of a candidate against them (see the module docstring). `cache` is
    the call's tables cache (`_tables_at`)."""

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
        self.extended: dict = {}  # candidate type -> _Extension

    def extension(self, abs_: Abstraction) -> _Extension:
        """The extension by `abs_`, made once per candidate type: the
        extended grammar depends only on the type."""
        ext = self.extended.get(abs_.type)
        if ext is None:
            ext = self.extended[abs_.type] = _Extension(self, abs_)
        return ext

    def bound(self, cand: _Candidate, abs_: Abstraction) -> float:
        """An upper bound on the gain of accepting `cand` as `abs_`."""
        if cand.repeats_slot:
            return math.inf
        ext = self.extension(abs_)
        tables = ext.tables[self.request]
        saved = _core_dl(tables, cand.core, cand.ret) - tables.by_head[(cand.ret, self.name)].cost
        body_dl = term_dl(ext.tables[abs_.type], abs_.body)
        return cand.hits * max(0.0, saved) - ext.growth - body_dl

    def gain(self, cand: _Candidate, abs_: Abstraction) -> tuple[float, dict]:
        """The drop in total DL from accepting `cand` as `abs_`, and the
        matched distinct programs rewritten: {position: term}."""
        ext = self.extension(abs_)
        if ext.earlier_dl is None:
            for a in self.earlier:
                if a.type not in ext.tables:
                    ext.tables[a.type] = _tables_at(self.cache, self.g, a.type).extend(ext.grammar)
            ext.earlier_dl = sum(term_dl(ext.tables[a.type], a.body) for a in self.earlier)
        tables = ext.tables[self.request]
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
        bodies_dl = ext.earlier_dl + term_dl(ext.tables[abs_.type], abs_.body)
        total = counts_dl(tables, untouched) + touched_dl + bodies_dl
        return self.now - total, rewritten


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
    dl_before = _total_dl(corpus, g, request, [])
    memo = _Memo()
    cache: dict = {}
    tally = {"steps": 0, "scored": 0, "priced": 0}
    while True:
        candidates = propose_candidates(programs, copies, max_arity, prims, lib, memo)
        sig = signature_map(prims, lib)
        step = _Step(programs, copies, g, lib[n0:], f"f{_next_index(lib)}", request, sig, cache)
        slack = _SLACK * step.now
        best = None
        for cand in candidates:
            abs_ = _abstraction_from(cand, step.name)
            threshold = _EPS if best is None else best[0] + _EPS
            if step.bound(cand, abs_) <= threshold - slack:
                continue
            tally["priced"] += 1
            gain, rewritten = step.gain(cand, abs_)
            if gain > threshold:
                best = (gain, abs_, rewritten)
        tally["steps"] += 1
        tally["scored"] += len(candidates)
        if best is None:
            break
        _, abs_, rewritten = best
        # the next step starts from the tables the winner was priced under
        ext = step.extended[abs_.type]
        g = ext.grammar
        cache.update(ext.tables)
        for d, term in rewritten.items():
            programs[d] = term
        lib.append(abs_)
    current = {key: programs[d] for key, d in zip(corpus, owner)}
    lib, current = _drop_underused(lib, n0, current)
    g = add_abstractions(grammar, lib)
    uses = _use_counts(current, lib)
    counted = [dataclasses.replace(a, use_count=uses[a.name]) for a in lib]
    return CompressionResult(
        grammar=g,
        library=tuple(counted),
        new_abstractions=tuple(counted[n0:]),
        rewritten=current,
        dl_before=dl_before,
        dl_after=_total_dl(current, g, request, counted[n0:]),
        candidate_counts=tally,
    )


def _use_counts(corpus: dict, lib) -> dict:
    """Calls of each abstraction of `lib` in the corpus programs and in the
    bodies of the library's other abstractions, counted in one walk."""
    uses = dict.fromkeys((a.name for a in lib), 0)
    walks = [(t, None) for t in corpus.values()] + [(a.body, a.name) for a in lib]
    for term, own in walks:
        for p in _prims_in(term):
            if p.name in uses and p.name != own:
                uses[p.name] += 1
    return uses


def _drop_underused(lib, n0, corpus):
    """Inline and remove the abstractions from index `n0` on (the freshly
    added ones) that are used fewer than twice."""
    lib = list(lib)
    while True:
        uses = _use_counts(corpus, lib)
        victim = next((a for a in lib[n0:] if uses[a.name] < 2), None)
        if victim is None:
            return lib, corpus
        defs = {victim.name: victim.body}
        corpus = {tid: inline(t, defs) for tid, t in corpus.items()}
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


def library_from_json(doc: dict, prims: PrimTable):
    if doc.get("schema") != LIBRARY_SCHEMA:
        raise GridSynthError(f"unexpected library schema {doc.get('schema')!r}")
    out: list[Abstraction] = []
    for n, entry in enumerate(doc["abstractions"]):
        where = f"library entry {n} ({entry.get('name', 'unnamed')})"
        missing = [k for k in ("name", "arity", "type", "body", "useCount") if k not in entry]
        if missing:
            raise GridSynthError(f"{where} has no {missing[0]!r} field")
        try:
            ty = parse_type(entry["type"])
        except ValueError as exc:
            raise GridSynthError(f"{where} has a bad 'type' field: {exc}") from exc
        arity = entry["arity"]
        extra = [f"${i}" for i in range(arity)] + [a.name for a in out]
        core = parse_program(entry["body"], prims, extra=extra)
        out.append(Abstraction(entry["name"], core_to_lambda(core, arity), ty, entry["useCount"]))
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
