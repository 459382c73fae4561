"""Library-learning contracts: proposals, MDL compression, expansion."""
import itertools
import json
import random
import re
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import grouped, maze_state, search_candidates
from gridsynth.errors import (
    EvalError,
    GridSynthError,
    UnknownAbstractionError,
)
from gridsynth.grammar import (
    add_abstractions,
    description_length,
    refit,
    sample_program,
    uniform_grammar,
)
from gridsynth import library as library_module
from gridsynth.interp import exec_program
from gridsynth.kernel import compile_term, execute
from gridsynth.lang import ACTION, INT, MAP, MAP_OBJECT, Prim, apply_all, arrow, peel, return_type, spine
from gridsynth.library import (
    Abstraction,
    CompressionResult,
    _Candidate,
    _abstraction_from,
    _drop_underused,
    _next_index,
    body_text,
    compress,
    core_to_lambda,
    count_calls,
    expand,
    library_from_json,
    library_report,
    library_to_json,
    load_library,
    rewrite,
    save_library,
)
from gridsynth.primitives import arg_types_at, primitive_table
from gridsynth.sexpr import parse_program, print_program
from gridsynth.typecheck import signature_map

PRIMS = primitive_table("maze")


def parse(text):
    return parse_program(text, PRIMS)


def wall_check(a, b, then="left-action", els="forward-action"):
    return parse(f"(λ(x) (λ(y) (if (eq-obj? wall-obj (get x {a} {b})) {then} {els})))")


def ten_program_corpus():
    coords = [(1, 0), (0, 1), (2, 0), (1, 1), (3, 0), (0, 2), (2, 1), (1, 2), (4, 0), (0, 0)]
    return {f"t{i}": wall_check(a, b) for i, (a, b) in enumerate(coords)}


def random_states(n, seed=0):
    rng = random.Random(seed)
    out = []
    for _ in range(n):
        walls = [(rng.randrange(5), rng.randrange(5)) for _ in range(rng.randrange(6))]
        out.append(maze_state(wall_at=walls, direction=rng.randrange(4)))
    return out


def sampled_corpus(grammar, prims, seeds, d_max):
    return {
        f"p{i}": sample_program(grammar, d_max, seed)
        for i, seed in enumerate(seeds)
    }


def fuzzed_corpora():
    grammar = uniform_grammar(PRIMS)
    rng = random.Random(11)
    for _ in range(6):
        yield sampled_corpus(grammar, PRIMS, [rng.randrange(1 << 30) for _ in range(14)], 5)


_HOLE = Prim("?")


def cuts(term, ty, sig, max_arity):
    """Every way to cut subtrees out of `term` at `ty`, variables always:
    (the term with a hole for each cut, the cut (subtree, type) pairs in
    preorder), with at most `max_arity` distinct cuts."""
    out = [(_HOLE, [(term, ty)])]
    head, args = spine(term)
    if isinstance(head, Prim):
        options = [cuts(a, t, sig, max_arity) for a, t in zip(args, arg_types_at(sig[head.name], ty))]
        for combo in itertools.product(*options):
            cut = [c for _, part in combo for c in part]
            if len(set(cut)) <= max_arity:
                out.append((apply_all(head, [kept for kept, _ in combo]), cut))
    return out


def slot_numbers(cut, max_arity, opened=()):
    """Each way to give the cuts slots, numbered by first use: a cut opens a
    new slot or shares one opened by an equal cut."""
    if not cut:
        yield []
        return
    choices = [j for j, value in enumerate(opened) if value == cut[0]]
    if len(opened) < max_arity:
        choices.append(len(opened))
    for j in choices:
        grown = opened if j < len(opened) else (*opened, cut[0])
        for rest in slot_numbers(cut[1:], max_arity, grown):
            yield [j, *rest]


def fill(core, slots):
    """`core` with its holes, in preorder, replaced by the slots $j."""
    if core == _HOLE:
        return Prim(f"${next(slots)}")
    head, args = spine(core)
    return apply_all(head, [fill(a, slots) for a in args])


def generalizations(programs, sig, ret, max_arity):
    """{(text, type): candidate} for every generalization of every typed
    fragment of `programs`, the fragment's head kept, with at least two
    non-slot nodes; whether it matches two programs is left to the caller."""
    fragments = []

    def collect(term, ty):
        head, args = spine(term)
        if args:
            fragments.append((term, ty))
            for a, t in zip(args, arg_types_at(sig[head.name], ty)):
                collect(a, t)

    for program in programs:
        collect(peel(program)[1], ret)
    out = {}
    for fragment, ty in set(fragments):
        for core, cut in cuts(fragment, ty, sig, max_arity)[1:]:
            for numbers in slot_numbers(cut, max_arity):
                full = fill(core, iter(numbers))
                text = print_program(full)
                if sum(not word.startswith("$") for word in re.findall(r"[^\s()]+", text)) < 2:
                    continue
                arg_types = [None] * (max(numbers, default=-1) + 1)
                for j, (_, t) in zip(numbers, cut):
                    arg_types[j] = t
                out[(text, ty)] = _Candidate(full, tuple(arg_types), ty, text, frozenset())
    return out


def choose(scored):
    """The winner among (text, type, gain, ...) entries: the first in text
    order that the _EPS rule keeps among those within 2 _EPS of the best
    gain, or None."""
    eps = library_module._EPS
    top = max((entry[2] for entry in scored), default=0.0)
    best = None
    for entry in sorted(scored, key=lambda e: (e[0], str(e[1]))):
        if entry[2] > top - 2 * eps and entry[2] > (eps if best is None else best[2] + eps):
            best = entry
    return best


def reference_compress(corpus, grammar, library=(), max_arity=3):
    """The greedy scorer with no search, bound or usage counts: every
    generalization of every fragment is a candidate, and each one rewrites
    every program and rescores the whole corpus with `description_length`."""
    prims = primitive_table(grammar.env_tag)
    request = prims.request

    def total_dl(programs, g, bodies):
        return sum(description_length(g, t, request) for t in programs.values()) + sum(
            description_length(g, a.body, a.type) for a in bodies
        )

    n0 = len(library)
    lib = list(library)
    current = dict(corpus)
    g = grammar
    dl_before = total_dl(current, g, [])
    while True:
        sig = signature_map(prims, lib)
        ret = return_type(request)
        candidates = generalizations(set(current.values()), sig, ret, max_arity)
        now = total_dl(current, g, lib[n0:])
        name = f"f{_next_index(lib)}"
        scored = []
        for (text, ty), cand in candidates.items():
            abs_ = _abstraction_from(cand, name)
            g2 = add_abstractions(g, [abs_])
            rewritten = {
                tid: rewrite(t, cand, name, request, sig) for tid, t in current.items()
            }
            if sum(1 for t in rewritten.values() if count_calls(t, name)) < 2:
                continue
            gain = now - total_dl(rewritten, g2, lib[n0:] + [abs_])
            scored.append((text, ty, gain, abs_, g2, rewritten))
        best = choose(scored)
        if best is None:
            break
        _, _, _, abs_, g, current = best
        lib.append(abs_)
    lib, programs = _drop_underused(lib, n0, list(current.values()), [1] * len(current))
    current = dict(zip(current, programs))
    g = add_abstractions(grammar, lib)
    counted = []
    for a in lib:
        uses = sum(count_calls(t, a.name) for t in current.values())
        uses += sum(count_calls(b.body, a.name) for b in lib if b.name != a.name)
        counted.append(Abstraction(a.name, a.body, a.type, uses))
    return CompressionResult(
        grammar=g,
        library=tuple(counted),
        new_abstractions=tuple(counted[n0:]),
        rewritten=current,
        dl_before=dl_before,
        dl_after=total_dl(current, g, counted[n0:]),
    )


def duplicated_corpus(grammar, seed, copies=40):
    """The ten largest of 60 sampled programs, the largest of them `copies`
    times more and the next three times more, shuffled; each copy is a term
    of its own."""
    rng = random.Random(seed)
    seeds = [rng.randrange(1 << 30) for _ in range(60)]
    sizes = {print_program(sample_program(grammar, 5, s)): s for s in seeds}
    largest = [sizes[text] for text in sorted(sizes, key=len, reverse=True)[:10]]
    draws = largest + [largest[0]] * copies + [largest[1]] * 3
    rng.shuffle(draws)
    return {f"p{i}": sample_program(grammar, 5, s) for i, s in enumerate(draws)}


def assert_matches_reference(corpus, grammar, library=()):
    want = reference_compress(corpus, grammar, library=library)
    got = compress(corpus, grammar, library=library)
    assert got.library == want.library
    assert got.new_abstractions == want.new_abstractions
    assert list(got.rewritten.items()) == list(want.rewritten.items())
    assert got.grammar == want.grammar
    assert got.dl_before == want.dl_before
    assert got.dl_after == want.dl_after


def preorder(core):
    """The nodes of a candidate core in preorder, as the search lists them:
    (head name, argument count) or a slot index."""
    head, args = spine(core)
    if head.name.startswith("$"):
        return (int(head.name[1:]),)
    return ((head.name, len(args)), *(node for a in args for node in preorder(a)))


def compress_steps(corpus, grammar, library=()):
    """`compress`'s result and, per greedy step: the distinct corpus
    programs and their copies as the step began, the step, every candidate
    that its search finds with nothing pruned, and the bound of every
    pattern it meets, by (type, preorder)."""
    steps = []

    class Recording(library_module._Step):
        def __init__(self, *args):
            super().__init__(*args)
            bounds = {}

            def keep(pat):
                bounds[(pat.ret, pat.pre)] = pat.bound
                return True

            candidates = list(self.search(3, keep))
            steps.append((list(self.programs), list(self.copies), self, candidates, bounds))

    with mock.patch.object(library_module, "_Step", Recording):
        result = compress(corpus, grammar, library=library)
    return result, steps


def assert_match_sets(corpus, grammar, library=()):
    """At every greedy step, the distinct programs are pairwise distinct and
    each candidate's match set is the set of their positions that rewriting
    with it changes; returns the steps."""
    prims = primitive_table(grammar.env_tag)
    _, steps = compress_steps(corpus, grammar, library)
    assert sum(steps[0][1]) == len(corpus)
    for programs, copies, step, candidates, _ in steps:
        assert len(set(programs)) == len(programs) == len(copies)
        for cand in candidates:
            by_rewrite = {
                d
                for d, t in enumerate(programs)
                if count_calls(rewrite(t, cand, "$match", prims.request, step.sig), "$match")
            }
            assert cand.programs == by_rewrite, cand.text
    return steps


def calls(term):
    """The abstraction names a term calls, sorted, read off its printed form."""
    return sorted(set(re.findall(r"\bf\d+\b", print_program(term))))


def same_behavior(t1, t2, states):
    for s in states:
        try:
            r1 = exec_program(t1, s, PRIMS)
        except EvalError:
            r1 = "error"
        try:
            r2 = exec_program(t2, s, PRIMS)
        except EvalError:
            r2 = "error"
        if r1 != r2:
            return False
    return True


class TestProposals:
    def test_spec_anti_unification_example(self):
        p1 = wall_check(1, 0)
        p2 = wall_check(0, 1, then="right-action")
        texts = {c.text for c in search_candidates(*grouped([p1, p2]), 3, PRIMS)}
        assert "(eq-obj? wall-obj (get $0 $1 $2))" in texts

    def test_disjoint_programs_give_nothing(self):
        p1 = parse("(λ(x) (λ(y) left-action))")
        p2 = parse("(λ(x) (λ(y) (if (eq-direction? y direction-0) right-action forward-action)))")
        assert search_candidates(*grouped([p1, p2]), 3, PRIMS) == []

    def test_identical_subtree_proposed_closed(self):
        shared = "(eq-obj? wall-obj (get x 1 0))"
        progs = [
            parse(f"(λ(x) (λ(y) (if {shared} left-action forward-action)))"),
            parse(f"(λ(x) (λ(y) (if {shared} right-action forward-action)))"),
            parse(f"(λ(x) (λ(y) (if {shared} forward-action left-action)))"),
        ]
        cands = search_candidates(*grouped(progs), 3, PRIMS)
        by_text = {c.text: c for c in cands}
        key = "(eq-obj? wall-obj (get $0 1 0))"
        assert key in by_text and by_text[key].arity == 1
        # the map argument is a program variable, so one slot remains

    def test_repeated_program_proposed_whole(self):
        """A program with two copies pairs with its own copy, so copies count
        toward the two-program rule; a program with one pairs with nothing."""
        cands = search_candidates([wall_check(1, 0)], [2], 3, PRIMS)
        texts = {c.text for c in cands}
        assert "(if (eq-obj? wall-obj (get $0 1 0)) left-action forward-action)" in texts
        assert all(c.programs == {0} for c in cands)
        assert search_candidates([wall_check(1, 0)], [1], 3, PRIMS) == []

    def test_match_sets_are_positions_in_programs(self):
        """A candidate's `programs` are positions in `programs`."""
        programs = [wall_check(2, 2), wall_check(1, 0), wall_check(0, 1, then="right-action")]
        cands = search_candidates(programs, [1, 3, 2], 3, PRIMS)
        by_text = {c.text: c for c in cands}
        whole = by_text["(if (eq-obj? wall-obj (get $0 1 0)) left-action forward-action)"]
        assert whole.programs == {1}
        cond = by_text["(eq-obj? wall-obj (get $0 $1 $2))"]
        assert cond.programs == {0, 1, 2}

    def test_slot_shared_where_its_values_are_equal(self):
        """A slot is shared at the locations where both values are equal:
        the shared core matches two of the three programs, whose pairwise
        anti-unifiers share no slot with all three."""
        progs = [wall_check(1, 1), wall_check(2, 2), wall_check(1, 2)]
        by_text = {c.text: c for c in search_candidates(*grouped(progs), 3, PRIMS)}
        assert by_text["(eq-obj? wall-obj (get $0 $1 $1))"].programs == {0, 1}
        assert by_text["(eq-obj? wall-obj (get $0 $1 $2))"].programs == {0, 1, 2}

    @pytest.mark.parametrize("max_arity", [0, 1, 3])
    def test_search_finds_every_generalization(self, max_arity):
        """The search finds exactly the generalizations of the fragments
        that match two program copies."""
        sig = signature_map(PRIMS, ())
        for corpus in [ten_program_corpus(), *fuzzed_corpora()]:
            programs, copies = grouped(corpus.values())
            found = search_candidates(programs, copies, max_arity, PRIMS)
            want = set()
            for key, cand in generalizations(programs, sig, return_type(PRIMS.request), max_arity).items():
                matched = [
                    k for t, k in zip(programs, copies)
                    if count_calls(rewrite(t, cand, "$match", PRIMS.request, sig), "$match")
                ]
                if sum(matched) >= 2:
                    want.add(key)
            assert [(c.text, c.ret) for c in found] == sorted(want, key=lambda k: (k[0], str(k[1])))

    def test_if_core_rewrites_only_at_its_type(self):
        cond = "(eq-obj? wall-obj (get x 1 0))"
        object_if = f"(if {cond} wall-obj empty-obj)"
        program = parse(
            f"(λ(x) (λ(y) (if (eq-obj? {object_if} (get x 0 1)) "
            f"(if {cond} left-action forward-action) right-action)))"
        )
        core = parse_program(
            "(if (eq-obj? wall-obj (get $0 1 0)) $1 $2)", PRIMS, extra=["$0", "$1", "$2"]
        )
        cand = _Candidate(core, (MAP, ACTION, ACTION), ACTION, print_program(core), frozenset())
        got = rewrite(program, cand, "f9", PRIMS.request, signature_map(PRIMS, ()))
        # Only the action-typed `if` becomes a call; the object-typed one stays.
        assert count_calls(got, "f9") == 1
        assert object_if in print_program(got)

    def test_arity_bound_respected(self):
        p1 = wall_check(1, 0)
        p2 = wall_check(0, 1, then="right-action")
        for cap in (0, 1, 2, 3):
            for cand in search_candidates(*grouped([p1, p2]), cap, PRIMS):
                assert cand.arity <= cap


class TestCompress:
    def test_repeated_structure_compresses(self):
        corpus = ten_program_corpus()
        res = compress(corpus, uniform_grammar(PRIMS))
        assert res.new_abstractions
        assert res.dl_after < res.dl_before

    def test_semantic_preservation(self):
        corpus = ten_program_corpus()
        res = compress(corpus, uniform_grammar(PRIMS))
        states = random_states(50, seed=3)
        for tid, term in corpus.items():
            assert same_behavior(term, expand(res.rewritten[tid], res.library), states)

    def test_singleton_corpus_unchanged(self):
        res = compress({"only": wall_check(1, 0)}, uniform_grammar(PRIMS))
        assert res.new_abstractions == ()
        assert res.dl_after == res.dl_before
        assert res.rewritten["only"] == wall_check(1, 0)

    def test_use_count_and_arity_invariants(self):
        res = compress(ten_program_corpus(), uniform_grammar(PRIMS))
        for a in res.new_abstractions:
            assert a.use_count >= 2
            assert a.arity <= 3

    def test_idempotence(self):
        res = compress(ten_program_corpus(), uniform_grammar(PRIMS))
        res2 = compress(res.rewritten, res.grammar, library=res.library)
        assert res2.new_abstractions == ()
        assert res2.dl_after == res2.dl_before

    def test_deterministic(self):
        a = compress(ten_program_corpus(), uniform_grammar(PRIMS))
        b = compress(ten_program_corpus(), uniform_grammar(PRIMS))
        assert [x.name for x in a.library] == [x.name for x in b.library]
        assert [body_text(x) for x in a.library] == [body_text(x) for x in b.library]
        assert a.rewritten == b.rewritten
        assert a.dl_after == b.dl_after

    def test_grammar_gains_productions(self):
        res = compress(ten_program_corpus(), uniform_grammar(PRIMS))
        names = {p.name for p in res.grammar.productions}
        for a in res.new_abstractions:
            assert a.name in names

    def test_fuzzed_corpora_hold_invariants(self):
        grammar = uniform_grammar(PRIMS)
        states = random_states(20, seed=7)
        for corpus in fuzzed_corpora():
            res = compress(corpus, grammar)
            assert res.dl_after <= res.dl_before + 1e-9
            for a in res.new_abstractions:
                assert a.use_count >= 2 and a.arity <= 3
            for a in res.library:
                assert list(a.children) == calls(a.body)
            assert library_from_json(library_to_json(res.library), PRIMS) == list(res.library)
            for tid, term in corpus.items():
                assert same_behavior(term, expand(res.rewritten[tid], res.library), states)


class TestScoringMatchesReference:
    """`compress` scores candidates from match sets and usage counts; the
    reference rewrites and rescores the whole corpus for every candidate."""

    def test_ten_program_corpus(self):
        assert_matches_reference(ten_program_corpus(), uniform_grammar(PRIMS))
        assert_match_sets(ten_program_corpus(), uniform_grammar(PRIMS))

    def test_fuzzed_corpora(self):
        grammar = uniform_grammar(PRIMS)
        for corpus in fuzzed_corpora():
            assert_matches_reference(corpus, grammar)
            assert_match_sets(corpus, grammar)

    def test_fuzzed_corpora_with_starting_library(self):
        base = compress(ten_program_corpus(), uniform_grammar(PRIMS))
        for corpus in fuzzed_corpora():
            corpus = {**corpus, **base.rewritten}
            assert_matches_reference(corpus, base.grammar, base.library)
            assert_match_sets(corpus, base.grammar, base.library)

    @settings(max_examples=30, deadline=None, derandomize=True)
    @given(
        env_tag=st.sampled_from(["maze", "asterix", "spaceinvaders"]),
        seeds=st.lists(st.integers(0, 1 << 30), min_size=2, max_size=12),
        d_max=st.integers(3, 6),
        with_library=st.booleans(),
    )
    def test_sampled_corpora(self, env_tag, seeds, d_max, with_library):
        prims = primitive_table(env_tag)
        grammar = uniform_grammar(prims)
        library = ()
        if with_library:
            first = compress(sampled_corpus(grammar, prims, range(12), 5), grammar)
            grammar, library = first.grammar, first.library
        corpus = sampled_corpus(grammar, prims, seeds, d_max)
        assert_matches_reference(corpus, grammar, library)
        assert_match_sets(corpus, grammar, library)


    def test_polymorphic_if_core_with_learned_library(self):
        """The learned library here yields an `if`-headed core typed action
        whose text also fits an `if` at an object position; compression used
        to rewrite that one too and fail with NotDerivableError."""
        grammar = uniform_grammar(PRIMS)
        first = compress(sampled_corpus(grammar, PRIMS, range(12), 5), grammar)
        corpus = sampled_corpus(first.grammar, PRIMS, range(100, 112), 6)
        res = compress(corpus, first.grammar, first.library)
        assert res.dl_after <= res.dl_before + 1e-9
        states = random_states(20, seed=5)
        for tid, term in corpus.items():
            assert same_behavior(
                expand(term, first.library), expand(res.rewritten[tid], res.library), states
            )
        assert_matches_reference(corpus, first.grammar, first.library)
        assert_match_sets(corpus, first.grammar, first.library)

    @pytest.mark.parametrize("env_tag", ["maze", "asterix", "spaceinvaders"])
    def test_heavily_duplicated_corpus(self, env_tag):
        """One program repeated dozens of times among a few others, as in a
        solved corpus where most windows share one program."""
        prims = primitive_table(env_tag)
        grammar = uniform_grammar(prims)
        corpus = duplicated_corpus(grammar, seed=4)
        assert len(set(corpus.values())) < len(corpus) / 4
        assert_matches_reference(corpus, grammar)
        steps = assert_match_sets(corpus, grammar)
        assert len(steps) > 1

    def test_later_steps_match_rewritten_programs(self):
        """Programs that one step rewrote are matched by a later step's
        best candidate and rewritten again."""
        corpus = {
            **ten_program_corpus(),
            **{f"d{i}": wall_check(1, 0) for i in range(12)},
            **{f"e{i}": wall_check(0, 1, then="right-action") for i in range(5)},
        }
        grammar = uniform_grammar(PRIMS)
        assert_matches_reference(corpus, grammar)
        steps = assert_match_sets(corpus, grammar)
        programs = [step[0] for step in steps]
        changes = [
            sum(before[d] != after[d] for before, after in zip(programs, programs[1:]))
            for d in range(len(programs[0]))
        ]
        assert max(changes) >= 2


def bounds_and_gains(corpus, grammar, library=()):
    """For every candidate of every greedy step of `compress`: the candidate,
    the bounds of the patterns it completes, itself last, its exact gain, and
    the slack that `compress` allows a bound at that step. The exact gain is
    priced as `reference_compress` prices it: every program rewritten and
    the whole corpus, each copy of each distinct program, and every body
    rescored with `description_length`."""
    request = primitive_table(grammar.env_tag).request

    def total_dl(programs, g, bodies):
        return sum(description_length(g, t, request) for t in programs) + sum(
            description_length(g, a.body, a.type) for a in bodies
        )

    _, steps = compress_steps(corpus, grammar, library)
    out = []
    for programs, copies, step, candidates, bounds in steps:
        terms = [t for t, k in zip(programs, copies) for _ in range(k)]
        now = total_dl(terms, step.g, step.earlier)
        for cand in candidates:
            abs_ = _abstraction_from(cand, step.name)
            rewritten = [rewrite(t, cand, step.name, request, step.sig) for t in terms]
            g2 = add_abstractions(step.g, [abs_])
            gain = now - total_dl(rewritten, g2, [*step.earlier, abs_])
            pre = preorder(cand.core)
            path = [bounds[(cand.ret, pre[:k])] for k in range(1, len(pre) + 1)]
            out.append((cand, path, gain, library_module._SLACK * step.now))
    return out


def bound_violations(corpus, grammar, library=()):
    """The candidates whose exact gain exceeds the bound of a pattern they
    complete by more than the slack, as (text, bounds, gain)."""
    return [
        (cand.text, path, gain)
        for cand, path, gain, slack in bounds_and_gains(corpus, grammar, library)
        if gain > min(path) + slack
    ]


def learned_start(env_tag):
    """A uniform grammar and library learned from 12 sampled programs."""
    prims = primitive_table(env_tag)
    grammar = uniform_grammar(prims)
    first = compress(sampled_corpus(grammar, prims, range(12), 5), grammar)
    return first.grammar, first.library


class TestGainBound:
    """The search drops a pattern unless its bound can beat the step's best,
    so a pattern's bound must never be below the gain of a core completing
    it."""

    def test_fuzzed_corpora(self):
        grammar = uniform_grammar(PRIMS)
        base = compress(ten_program_corpus(), grammar)
        for corpus in fuzzed_corpora():
            assert bound_violations(corpus, grammar) == []
            corpus = {**corpus, **base.rewritten}
            assert bound_violations(corpus, base.grammar, base.library) == []

    @pytest.mark.parametrize("env_tag", ["maze", "asterix", "spaceinvaders"])
    @pytest.mark.parametrize("with_library", [False, True])
    def test_duplicated_corpora(self, env_tag, with_library):
        grammar, library = uniform_grammar(primitive_table(env_tag)), ()
        if with_library:
            grammar, library = learned_start(env_tag)
        found = bounds_and_gains(duplicated_corpus(grammar, seed=4), grammar, library)
        assert [c.text for c, path, gain, slack in found if gain > min(path) + slack] == []
        # the bound is finite and below the threshold for some candidates
        assert any(path[-1] < 0 for _, path, _, _ in found)
        # partial patterns are bounded too, and their bounds tighten
        assert any(len(path) > 2 and path[0] > path[-1] for _, path, _, _ in found)

    @settings(max_examples=20, deadline=None, derandomize=True)
    @given(
        env_tag=st.sampled_from(["maze", "asterix", "spaceinvaders"]),
        seeds=st.lists(st.integers(0, 1 << 30), min_size=2, max_size=12),
        d_max=st.integers(3, 6),
        with_library=st.booleans(),
    )
    def test_sampled_corpora(self, env_tag, seeds, d_max, with_library):
        prims = primitive_table(env_tag)
        grammar, library = uniform_grammar(prims), ()
        if with_library:
            grammar, library = learned_start(env_tag)
        corpus = sampled_corpus(grammar, prims, seeds, d_max)
        assert bound_violations(corpus, grammar, library) == []

    def test_halved_occurrence_counts_trip_the_check(self):
        """A seeded mutation: with each fragment's occurrence count halved
        the bound falls below the gain of a candidate that pays."""

        class Halved(library_module._Step):
            def __init__(self, *args):
                super().__init__(*args)
                self.uses = [n // 2 for n in self.uses]

        with mock.patch.object(library_module, "_Step", Halved):
            assert bound_violations(ten_program_corpus(), uniform_grammar(PRIMS))
            assert bound_violations(next(fuzzed_corpora()), uniform_grammar(PRIMS))

    def test_repeated_slot_core_matches_reference(self):
        """Checking one cell for a wall or the goal: the core uses each slot
        twice, so rewriting also drops the duplicate arguments."""
        cells = [(1, 0), (0, 1), (2, 0), (1, 1), (3, 0), (0, 2)]
        corpus = {
            f"t{i}": parse(
                f"(λ(x) (λ(y) (if (or (eq-obj? wall-obj (get x {a} {b})) "
                f"(eq-obj? goal-obj (get x {a} {b}))) left-action forward-action)))"
            )
            for i, (a, b) in enumerate(cells)
        }
        grammar = uniform_grammar(PRIMS)
        res = compress(corpus, grammar)
        slots = re.findall(r"\$\d", body_text(res.new_abstractions[0]))
        assert len(slots) > len(set(slots)) == res.new_abstractions[0].arity
        assert_matches_reference(corpus, grammar)
        assert bound_violations(corpus, grammar) == []

    def test_pruning_skips_candidates_on_the_benchmark_corpus(self):
        path = Path(__file__).resolve().parent.parent / "perfbench" / "data" / "asterix-corpus.json"
        doc = json.loads(path.read_text(encoding="utf-8"))
        prims = primitive_table(doc["envTag"])
        corpus = {e["key"]: parse_program(e["program"], prims) for e in doc["programs"]}
        grammar = refit(uniform_grammar(prims), list(corpus.values()))
        counts = compress(corpus, grammar).candidate_counts
        assert counts["steps"] >= 2
        assert counts["steps"] - 1 <= counts["priced"] and 4 * counts["priced"] < counts["scored"]


def chain_library():
    """f0 <- f1 <- f2: f2 calls f1, and f1 calls f0."""
    entries = [
        ("f0", "map -> bool", "(eq-obj? wall-obj (get $0 1 0))", []),
        ("f1", "map -> bool", "(and (f0 $0) (eq-obj? wall-obj (get $0 0 1)))", ["f0"]),
        ("f2", "map -> action", "(if (f1 $0) left-action forward-action)", ["f1"]),
    ]
    doc = {
        "schema": "gridsynth-library-v1",
        "abstractions": [
            {"name": n, "arity": 1, "type": t, "body": b, "children": c, "useCount": 0}
            for n, t, b, c in entries
        ],
    }
    return library_from_json(doc, PRIMS)


class TestDropUnderused:
    """Dropping an abstraction inlines its current body, so a caller never
    ends up calling an entry dropped before it."""

    @pytest.mark.parametrize(
        "programs, kept",
        [
            (["(f2 x)", "(f2 x)"], ["f2"]),
            (["(f2 x)", "(f2 x)", "(if (f0 x) right-action left-action)"], ["f0", "f2"]),
        ],
        ids=["f0-and-f1-dropped", "f1-dropped-f0-kept"],
    )
    def test_chain(self, programs, kept):
        lib = chain_library()
        corpus = {
            f"p{i}": parse_program(f"(λ(x) (λ(y) {p}))", PRIMS, extra=["f0", "f1", "f2"])
            for i, p in enumerate(programs)
        }
        new_lib, programs = _drop_underused(lib, 0, list(corpus.values()), [1] * len(corpus))
        new_corpus = dict(zip(corpus, programs))
        assert [a.name for a in new_lib] == kept
        for term in [*new_corpus.values(), *(a.body for a in new_lib)]:
            assert set(calls(term)) <= set(kept)
        for a in new_lib:
            assert list(a.children) == calls(a.body)
        assert library_from_json(library_to_json(new_lib), PRIMS) == new_lib
        for tid, term in corpus.items():
            assert expand(new_corpus[tid], new_lib) == expand(term, lib)


class TestExpand:
    def test_plain_term_unchanged(self):
        t = wall_check(2, 2)
        assert expand(t, []) == t

    def test_unknown_abstraction_raises(self):
        t = parse_program("(λ(x) (λ(y) (f9 x)))", PRIMS, extra=["f9"])
        with pytest.raises(UnknownAbstractionError):
            expand(t, [])

    def test_nested_flattening(self):
        res = compress(ten_program_corpus(), uniform_grammar(PRIMS))
        assert any(a.children for a in res.library), "expected a multi-level library"
        states = random_states(100, seed=9)
        for tid, term in ten_program_corpus().items():
            flat = expand(res.rewritten[tid], res.library)
            assert not any(a.name in print_program(flat) for a in res.library)
            assert same_behavior(term, flat, states)


_CLOSED_BOOL = (
    "(and (eq-direction? direction-0 direction-1) (eq-direction? direction-2 direction-3))"
)


def closed_bool_corpus():
    """The closed bool under four different parents: it compresses to an
    arity-0 abstraction."""
    c = _CLOSED_BOOL
    texts = [
        f"(λ(x) (λ(y) (if {c} left-action forward-action)))",
        f"(λ(x) (λ(y) (if (or {c} (eq-direction? y direction-1)) right-action left-action)))",
        f"(λ(x) (λ(y) (if (and (eq-obj? wall-obj (get x 1 0)) {c}) forward-action right-action)))",
        f"(λ(x) (λ(y) (if (or (eq-direction? y direction-2) {c}) left-action right-action)))",
    ]
    return {f"t{i}": parse(t) for i, t in enumerate(texts)}


class TestArityZero:
    @pytest.fixture(scope="class")
    def result(self):
        res = compress(closed_bool_corpus(), uniform_grammar(PRIMS))
        assert [(a.name, a.arity, str(a.type)) for a in res.library] == [("f0", 0, "bool")]
        assert body_text(res.library[0]) == _CLOSED_BOOL
        assert all(count_calls(t, "f0") == 1 for t in res.rewritten.values())
        return res

    def test_round_trips_through_library_json(self, result, tmp_path):
        path = tmp_path / "library.json"
        save_library(result.library, path)
        loaded = load_library(path, PRIMS)
        assert loaded == list(result.library)
        for term in result.rewritten.values():
            assert parse_program(print_program(term), PRIMS, extra=["f0"]) == term

    def test_expands_compiles_and_agrees_with_interpreter(self, result):
        states = random_states(60, seed=5)
        corpus = closed_bool_corpus()
        for tid, term in result.rewritten.items():
            flat = expand(term, result.library)
            assert flat == corpus[tid]
            code = compile_term(flat, PRIMS).code
            for s in states:
                want = exec_program(term, s, PRIMS, library=result.library)
                got = execute(code, s.flat(), s.width, s.height, s.direction)
                assert PRIMS.action_words[got] == want


class TestSerialization:
    def test_round_trip(self, tmp_path):
        res = compress(ten_program_corpus(), uniform_grammar(PRIMS))
        doc = library_to_json(res.library)
        assert doc["schema"] == "gridsynth-library-v1"
        for entry in doc["abstractions"]:
            assert set(entry) == {"name", "arity", "type", "body", "children", "useCount"}
        assert library_from_json(doc, PRIMS) == list(res.library)
        path = tmp_path / "library.json"
        save_library(res.library, path)
        assert load_library(path, PRIMS) == list(res.library)

    def test_bad_schema_rejected(self):
        with pytest.raises(GridSynthError):
            library_from_json({"schema": "nope", "abstractions": []}, PRIMS)

    def test_body_lambdas_must_match_the_arity(self):
        core = parse_program("(get $0 1 $1)", PRIMS, extra=["$0", "$1"])
        body = core_to_lambda(core, 2)
        a = Abstraction("f0", body, arrow(MAP, INT, MAP_OBJECT), 0)
        assert body_text(a) == "(get $0 1 $1)"
        assert parse_program(body_text(a), PRIMS, extra=["$0", "$1"]) == core
        assert a.arity == 2

    def test_report_mentions_every_function(self):
        res = compress(ten_program_corpus(), uniform_grammar(PRIMS))
        report = library_report(res.library)
        for a in res.library:
            assert a.name in report
            assert body_text(a) in report
