"""Grammar sampling, description length, and refit."""
import math
import random

import pytest

from gridsynth.errors import DepthUnsatisfiableError, NotDerivableError
from gridsynth.grammar import (
    Production,
    Tables,
    add_abstractions,
    choice_counts,
    counts_dl,
    description_length,
    grammar_from_json,
    grammar_to_json,
    refit,
    sample_program,
    tables_for,
    uniform_grammar,
)
from gridsynth.lang import ACTION, DIRECTION, MAP, Lambda, Prim, Var, apply_all, arrow, depth
from gridsynth.library import _abstraction_from, _next_index
from gridsynth.primitives import primitive_table
from gridsynth.sexpr import parse_program, print_program
from gridsynth.typecheck import infer_type

from conftest import LISTING_WALL_CHECK, grouped, learned_grammar, search_candidates


@pytest.fixture
def maze_grammar(maze_prims):
    return uniform_grammar(maze_prims)


def test_sample_is_deterministic(maze_grammar):
    assert sample_program(maze_grammar, 6, 1) == sample_program(maze_grammar, 6, 1)


def test_samples_are_well_typed_and_bounded(maze_grammar, maze_prims):
    for seed in range(300):
        term = sample_program(maze_grammar, 6, seed)
        assert depth(term) <= 6
        assert infer_type(term, maze_prims, request=maze_prims.request)


def test_depth_3_samples_are_constant_lambdas(maze_prims):
    grammar = uniform_grammar(maze_prims)
    words = set()
    for seed in range(60):
        text = print_program(sample_program(grammar, 3, seed))
        assert text in {
            "(λ(x) (λ(y) left-action))",
            "(λ(x) (λ(y) right-action))",
            "(λ(x) (λ(y) forward-action))",
        }
        words.add(text)
    assert len(words) == 3


def test_depth_unsatisfiable(maze_grammar):
    with pytest.raises(DepthUnsatisfiableError):
        sample_program(maze_grammar, 1, 0)


def test_sampling_consistency_at_root(maze_prims):
    # With a deep budget the root choice is unfiltered: four candidates
    # (three actions, if) at probability 1/4 each.
    grammar = uniform_grammar(maze_prims)
    from gridsynth.lang import Prim, spine

    n = 8000
    if_count = 0
    for seed in range(n):
        term = sample_program(grammar, 8, seed)
        head, _ = spine(term.body.body)
        if head == Prim("if"):
            if_count += 1
    p = if_count / n
    se = math.sqrt(0.25 * 0.75 / n)
    assert abs(p - 0.25) <= 3 * se


def test_dl_of_constant_program(maze_grammar, maze_prims):
    # Action-typed choice set: {left, right, forward, if} -> ln 4.
    term = parse_program("(λ(x) (λ(y) left-action))", maze_prims)
    dl = description_length(maze_grammar, term)
    assert dl == pytest.approx(math.log(4), abs=1e-9)


def test_dl_wall_check_from_counting_oracle(maze_grammar, maze_prims):
    # Independent hand count of choice-set sizes under the uniform grammar
    # at request map -> action: action 4, bool 10, object 5, mapObject 2,
    # map 2, int 7.
    expected = (
        math.log(4)      # if at the action root
        + math.log(10)   # eq-obj? at bool
        + math.log(5)    # wall-obj at object
        + math.log(2)    # get at mapObject
        + math.log(2)    # x at map
        + 2 * math.log(7)  # 1 and 0 at int
        + 2 * math.log(4)  # left-action, forward-action
    )
    term = parse_program(LISTING_WALL_CHECK, maze_prims)
    dl = description_length(maze_grammar, term, request=arrow(MAP, ACTION))
    assert dl == pytest.approx(expected, abs=1e-9)


def test_dl_monotone_in_size(maze_grammar, maze_prims):
    small = parse_program("(λ(x) left-action)", maze_prims)
    big = parse_program(LISTING_WALL_CHECK, maze_prims)
    req = arrow(MAP, ACTION)
    assert description_length(maze_grammar, big, req) > description_length(
        maze_grammar, small, req
    )


def test_dl_not_derivable(maze_grammar, asterix_prims):
    term = parse_program("(λ(m) no-op-action)", asterix_prims)
    with pytest.raises(NotDerivableError):
        description_length(maze_grammar, term, request=arrow(MAP, ACTION))


@pytest.mark.parametrize(
    "text",
    [
        "(λ(m) left-action)",  # one binder short of map -> direction -> action
        "(λ(m) (λ(d) (λ(e) left-action)))",  # one binder more than the request
    ],
)
def test_wrong_binder_count_is_not_derivable(maze_grammar, maze_prims, text):
    term = parse_program(text, maze_prims)
    tables = tables_for(maze_grammar, maze_prims.request)
    with pytest.raises(NotDerivableError):
        description_length(maze_grammar, term)
    with pytest.raises(NotDerivableError):
        choice_counts(tables, term)


def test_choice_sets_normalize(maze_grammar, maze_prims):
    tables = tables_for(maze_grammar, maze_prims.request)
    for ty, cands in tables.choices.items():
        if not cands:
            continue
        total = sum(math.exp(-c.cost) for c in cands)
        assert total == pytest.approx(1.0, abs=1e-9)


def test_refit_empty_returns_uniform(maze_grammar):
    assert refit(maze_grammar, []) == maze_grammar


def test_refit_frequency_dominance(maze_grammar, maze_prims):
    solved = [parse_program("(λ(x) (λ(y) left-action))", maze_prims)] * 100
    g2 = refit(maze_grammar, solved)
    left = g2.production("left-action").logp
    right = g2.production("right-action").logp
    assert left > right
    assert left == pytest.approx(math.log(101), abs=1e-9)
    assert right == pytest.approx(math.log(1), abs=1e-9)


def test_refit_normalizes(maze_prims):
    grammar = uniform_grammar(maze_prims)
    solved = [parse_program("(λ(m) (λ(d) (if (eq-obj? wall-obj (get m 1 0)) left-action forward-action)))", maze_prims)]
    g2 = refit(grammar, solved)
    tables = tables_for(g2, maze_prims.request)
    for ty, cands in tables.choices.items():
        if not cands:
            continue
        total = sum(math.exp(-c.cost) for c in cands)
        assert total == pytest.approx(1.0, abs=1e-9)


def test_refit_counts_repeats_like_each_copy(maze_grammar, maze_prims):
    """Repeated programs, some equal without being the same object, refit
    to the weights of counts summed over every copy."""
    samples = [sample_program(maze_grammar, 6, s) for s in range(6)]
    solved = [samples[i] for i in (0, 3, 0, 0, 5, 1, 3, 0, 2, 2, 0, 4, 1, 0)]
    solved += [parse_program(print_program(samples[3]), maze_prims)] * 7
    tables = tables_for(maze_grammar, maze_prims.request)
    counts: dict = {}
    var_count = 0
    for term in solved:
        for (_, head), n in choice_counts(tables, term).items():
            if isinstance(head, int):
                var_count += n
            else:
                counts[head] = counts.get(head, 0) + n
    assert var_count and len(set(solved)) < len(solved)
    got = refit(maze_grammar, solved)
    assert got.var_logp == math.log1p(var_count)
    assert [(p.name, p.logp) for p in got.productions] == [
        (p.name, math.log1p(counts.get(p.name, 0))) for p in maze_grammar.productions
    ]
    assert refit(maze_grammar, iter(solved)) == got  # any iterable, such as dict values


def test_usage_counts_price_like_the_derivation(maze_grammar, maze_prims):
    samples = [sample_program(maze_grammar, 6, s) for s in range(40)]
    wall_check = parse_program(LISTING_WALL_CHECK, maze_prims)
    for grammar in (maze_grammar, refit(maze_grammar, samples)):
        tables = tables_for(grammar, maze_prims.request)
        for term in samples:
            counts = choice_counts(tables, term)
            assert counts_dl(tables, counts) == pytest.approx(
                description_length(grammar, term), abs=1e-9
            )
        with pytest.raises(NotDerivableError):
            choice_counts(tables, wall_check)  # one binder short of the request


def test_grammar_json_round_trip(maze_grammar):
    doc = grammar_to_json(maze_grammar)
    assert doc["schema"] == "gridsynth-grammar-v1"
    assert grammar_from_json(doc) == maze_grammar


@pytest.mark.parametrize("env_tag", ["maze", "asterix", "spaceinvaders"])
def test_grammar_json_requests_is_the_env_request(env_tag):
    prims = primitive_table(env_tag)
    grammar = uniform_grammar(prims)
    assert grammar.request == prims.request
    doc = grammar_to_json(grammar)
    assert doc["requests"] == [str(prims.request)]
    for requests in ([], [str(arrow(MAP, DIRECTION))], [str(prims.request)] * 2):
        with pytest.raises(ValueError, match="requests"):
            grammar_from_json({**doc, "requests": requests})


# --- the memoized sampler against the uncached one --------------------------


def reference_feasible(tables, ty, remaining):
    """The feasible choice indices at (ty, remaining), computed anew."""
    out = []
    for i, c in enumerate(tables.choices.get(ty, ())):
        if not c.args:
            out.append(i)
        elif remaining >= 2:
            need = max(tables.min_depth.get(a, math.inf) for a in c.args)
            if need <= remaining - 1:
                out.append(i)
    return out


def reference_pick(tables, ty, remaining, rng):
    feasible = reference_feasible(tables, ty, remaining)
    if not feasible:
        raise DepthUnsatisfiableError(f"no {ty} term fits remaining depth {remaining}")
    cands = tables.choices[ty]
    weights = [math.exp(-cands[i].cost) for i in feasible]
    total = sum(weights)
    r = rng.random() * total
    acc = 0.0
    for i, w in zip(feasible, weights):
        acc += w
        if r <= acc:
            return i
    return feasible[-1]


def reference_sample(grammar, d_max, seed):
    """`sample_program` on freshly built tables, weighing every node anew."""
    tables = Tables(grammar, grammar.request)
    budget = d_max - len(tables.binders)
    if budget < tables.min_depth.get(tables.body_request, math.inf):
        raise DepthUnsatisfiableError(f"no term fits depth {d_max}")
    rng = random.Random(seed)

    def node(ty, remaining):
        choice = tables.choices[ty][reference_pick(tables, ty, remaining, rng)]
        if choice.kind == "var":
            return Var(choice.var_index)
        return apply_all(Prim(choice.name), [node(a, remaining - 1) for a in choice.args])

    body = node(tables.body_request, budget)
    for _ in tables.binders:
        body = Lambda(body)
    return body


_D_MAX = {"maze": range(3, 9), "asterix": range(2, 9), "spaceinvaders": range(2, 9)}


@pytest.mark.parametrize("learned", [False, True], ids=["uniform", "learned-library"])
@pytest.mark.parametrize("env_tag", ["maze", "asterix", "spaceinvaders"])
def test_sampler_matches_uncached_reference(env_tag, learned):
    prims = primitive_table(env_tag)
    grammar = learned_grammar(prims)[0] if learned else uniform_grammar(prims)
    d_maxes = _D_MAX[env_tag]
    for seed in range(200):
        d_max = d_maxes[seed % len(d_maxes)]
        assert sample_program(grammar, d_max, seed) == reference_sample(grammar, d_max, seed), seed
    tables = tables_for(grammar, prims.request)
    for ty in tables.choices:
        for remaining in range(10):
            assert list(tables.site(ty, remaining).feasible) == reference_feasible(tables, ty, remaining)


# --- tables derived for an extended grammar ---------------------------------


def assert_same_tables(got, want):
    assert got.choices == want.choices
    assert got.by_head == want.by_head
    assert got.min_depth == want.min_depth
    assert got.min_dl == want.min_dl
    for ty in want.choices:
        for remaining in range(9):
            assert got.site(ty, remaining) == want.site(ty, remaining), (ty, remaining)


@pytest.mark.parametrize("learned", [False, True], ids=["uniform", "learned-library"])
@pytest.mark.parametrize("env_tag", ["maze", "asterix", "spaceinvaders"])
def test_extended_tables_match_a_fresh_build(env_tag, learned):
    """Every candidate of one compression step, priced as `compress` prices
    it: the base tables extended with the candidate, for the program request
    and each abstraction type."""
    prims = primitive_table(env_tag)
    grammar, library = learned_grammar(prims) if learned else (uniform_grammar(prims), ())
    corpus = [sample_program(grammar, 6, s) for s in range(24)]
    candidates = search_candidates(*grouped(corpus), 3, prims, library)
    assert len(candidates) >= 10
    name = f"f{_next_index(library)}"
    for cand in candidates:
        abs_ = _abstraction_from(cand, name)
        g2 = add_abstractions(grammar, [abs_])
        for request in {prims.request, abs_.type, *(a.type for a in library)}:
            assert_same_tables(tables_for(grammar, request).extend(g2), Tables(g2, request))


def test_extension_reaching_a_new_type_raises(asterix_prims):
    grammar = uniform_grammar(asterix_prims)
    tables = tables_for(grammar, asterix_prims.request)
    assert DIRECTION not in tables.choices  # no asterix primitive reads a direction
    needs_direction = add_abstractions(grammar, [Production("f0", arrow(DIRECTION, ACTION), 0.0)])
    assert DIRECTION in Tables(needs_direction, asterix_prims.request).choices
    with pytest.raises(ValueError):
        tables.extend(needs_direction)
    # A production returning an unreachable type joins no choice set.
    gives_direction = add_abstractions(grammar, [Production("f0", arrow(ACTION, DIRECTION), 0.0)])
    assert_same_tables(tables.extend(gives_direction), Tables(gives_direction, asterix_prims.request))


def test_extension_of_another_grammar_raises(maze_grammar, maze_prims):
    refitted = refit(maze_grammar, [parse_program("(λ(x) (λ(y) left-action))", maze_prims)])
    with pytest.raises(ValueError):
        tables_for(maze_grammar, maze_prims.request).extend(refitted)


# --- the grammar's kept hash ------------------------------------------------


def test_equal_grammars_hash_equal_and_share_tables(maze_grammar, maze_prims):
    grammar = refit(maze_grammar, [parse_program("(λ(x) (λ(y) left-action))", maze_prims)])
    twin = grammar_from_json(grammar_to_json(grammar))
    assert twin is not grammar and twin == grammar
    assert hash(grammar) == hash(twin) == hash(grammar)
    assert vars(grammar)["_hash"] == hash(grammar)  # kept after the first call
    assert tables_for(grammar, maze_prims.request) is tables_for(twin, maze_prims.request)
    assert hash(grammar) != hash(maze_grammar)
