import pytest

from gridsynth.errors import EvalError
from gridsynth.grammar import add_abstractions, refit, uniform_grammar
from gridsynth.interp import exec_program
from gridsynth.library import _next_index, _Step, compress
from gridsynth.primitives import primitive_table
from gridsynth.sexpr import parse_program
from gridsynth.state import GridState
from gridsynth.typecheck import signature_map

# The wall-check example program, kept in its original loose layout to make
# sure the parser accepts grouping parens and a bare top-level lambda.
LISTING_WALL_CHECK = """\
λ(x) (
  (if (eq-obj? wall-obj (get x 1 0))
        left-action forward-action)
)
"""


@pytest.fixture
def maze_prims():
    return primitive_table("maze")


@pytest.fixture
def asterix_prims():
    return primitive_table("asterix")


@pytest.fixture
def si_prims():
    return primitive_table("spaceinvaders")


def maze_state(wall_at=(), direction=0) -> GridState:
    """A 5x5 maze observation: all empty except walls at the given cells."""
    cells = [1] * 25
    for x, y in wall_at:
        cells[y * 5 + x] = 2
    return GridState.from_flat(cells, 5, direction=direction)


def interp_imitates(term, task, prims, library=()) -> bool:
    """The interpreter, the semantics of record, gives the recorded action
    on every step of the task, running library calls by need; a step whose
    evaluation fails (EvalError) is a miss."""
    try:
        return all(exec_program(term, state, prims, library) == action for state, action in task.steps)
    except EvalError:
        return False


def learned_grammar(prims):
    """(grammar, library): the library that `compress` learns from six
    programs of one shape, and the grammar refit on the rewritten programs
    with the library's abstractions among its productions."""
    objs = [p.name for p in prims.entries if p.kind == "object"]
    acts = [p.name for p in prims.entries if p.kind == "action"]
    corpus = {}
    for i in range(6):
        body = (
            f"(if (and (eq-obj? {objs[i % len(objs)]} (get x {i % 3} 1))"
            f" (eq-obj? {objs[(i + 1) % len(objs)]} (get x 1 {i % 4}))) {acts[i % 2]} {acts[2]})"
        )
        text = f"(λ(x) (λ(y) {body}))" if prims.env_tag == "maze" else f"(λ(x) {body})"
        corpus[f"p{i}"] = parse_program(text, prims)
    res = compress(corpus, uniform_grammar(prims), max_arity=3)
    assert len(res.library) >= 2
    return refit(res.grammar, list(res.rewritten.values())), res.library


def grouped(terms) -> tuple[list, list]:
    """(programs, copies): the distinct terms in order of first occurrence
    and how often each occurs, the corpus as a compression step takes it."""
    copies: dict = {}
    for term in terms:
        copies[term] = copies.get(term, 0) + 1
    return list(copies), list(copies.values())


def search_candidates(programs, copies, max_arity, prims, library=()):
    """Every candidate that a compression step's search finds in `programs`
    with their `copies`, none pruned, sorted by text."""
    grammar = add_abstractions(uniform_grammar(prims), library)
    name = f"f{_next_index(library)}"
    sig = signature_map(prims, library)
    step = _Step(programs, copies, grammar, [], name, prims.request, sig, {})
    found = step.search(max_arity, lambda pattern: True)
    return sorted(found, key=lambda c: (c.text, str(c.ret)))
