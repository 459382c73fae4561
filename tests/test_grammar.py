"""Grammar sampling, description length, and refit."""
import math

import pytest

from gridsynth.errors import DepthUnsatisfiableError, NotDerivableError
from gridsynth.grammar import (
    SampleConfig,
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
from gridsynth.lang import ACTION, MAP, arrow, depth
from gridsynth.sexpr import parse_program, print_program
from gridsynth.typecheck import infer_type

from conftest import LISTING_WALL_CHECK


@pytest.fixture
def maze_grammar(maze_prims):
    return uniform_grammar(maze_prims)


def test_sample_is_deterministic(maze_grammar, maze_prims):
    cfg = SampleConfig(d_max=6, request=maze_prims.request, seed=1)
    a = sample_program(maze_grammar, cfg)
    b = sample_program(maze_grammar, cfg)
    assert a == b


def test_samples_are_well_typed_and_bounded(maze_grammar, maze_prims):
    for seed in range(300):
        cfg = SampleConfig(d_max=6, request=maze_prims.request, seed=seed)
        term = sample_program(maze_grammar, cfg)
        assert depth(term) <= 6
        assert infer_type(term, maze_prims, request=maze_prims.request)


def test_depth_2_samples_are_constant_lambdas(maze_prims):
    grammar = uniform_grammar(maze_prims)
    words = set()
    for seed in range(60):
        cfg = SampleConfig(d_max=2, request=arrow(MAP, ACTION), seed=seed)
        term = sample_program(grammar, cfg)
        text = print_program(term)
        assert text in {
            "(λ(x) left-action)",
            "(λ(x) right-action)",
            "(λ(x) forward-action)",
        }
        words.add(text)
    assert len(words) == 3


def test_depth_unsatisfiable(maze_grammar, maze_prims):
    cfg = SampleConfig(d_max=1, request=maze_prims.request, seed=0)
    with pytest.raises(DepthUnsatisfiableError):
        sample_program(maze_grammar, cfg)


def test_sampling_consistency_at_root(maze_prims):
    # With a deep budget the root choice is unfiltered: four candidates
    # (three actions, if) at probability 1/4 each.
    grammar = uniform_grammar(maze_prims)
    from gridsynth.lang import Prim, spine

    n = 8000
    if_count = 0
    for seed in range(n):
        cfg = SampleConfig(d_max=8, request=maze_prims.request, seed=seed)
        term = sample_program(grammar, cfg)
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


def test_usage_counts_price_like_the_derivation(maze_grammar, maze_prims):
    samples = [
        sample_program(maze_grammar, SampleConfig(d_max=6, request=maze_prims.request, seed=s))
        for s in range(40)
    ]
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
