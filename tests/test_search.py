"""Enumeration order, completeness against a brute-force oracle, solving."""
import itertools
import math

import pytest

from gridsynth.grammar import (
    SampleConfig,
    description_length,
    refit,
    sample_program,
    uniform_grammar,
)
from gridsynth.lang import Lambda, Prim, Term, TyVar, Var, apply_all, arg_types, depth, return_type
from gridsynth.primitives import instantiate
from gridsynth.search import (
    SearchBudget,
    enumerate_programs,
    enumerate_with_dl,
    solve_many,
    solve_task,
)
from gridsynth.sexpr import print_program
from gridsynth.state import GridState
from gridsynth.typecheck import infer_type

from conftest import maze_state


@pytest.fixture
def maze_grammar(maze_prims):
    return uniform_grammar(maze_prims)


class FakeTask:
    def __init__(self, task_id, env_tag, steps):
        self.task_id = task_id
        self.env_tag = env_tag
        self.steps = tuple(steps)


def brute_force_terms(prims, request, max_depth):
    """All closed terms of the request type within the depth bound, built by
    exhaustive bottom-up generation over the primitive table (independent of
    the grammar machinery)."""
    binders = arg_types(request)
    env = tuple(reversed(binders))
    body_budget = max_depth - len(binders)
    pool: dict[tuple, set[Term]] = {}

    def terms(ty, budget) -> set[Term]:
        if budget <= 0:
            return set()
        key = (str(ty), budget)
        if key in pool:
            return pool[key]
        pool[key] = set()
        out = set()
        for i, binder_ty in enumerate(env):
            if binder_ty == ty:
                out.add(Var(i))
        for entry in prims.entries:
            rt = return_type(entry.type)
            if rt != ty and not isinstance(rt, TyVar):
                continue
            sig = instantiate(entry.type, ty)
            args = arg_types(sig)
            if not args:
                out.add(Prim(entry.name))
                continue
            if budget < 2:
                continue
            arg_sets = [terms(a, budget - 1) for a in args]
            for combo in itertools.product(*arg_sets):
                out.add(apply_all(Prim(entry.name), list(combo)))
        pool[key] = out
        return out

    result = set()
    for body in terms(return_type(request), body_budget):
        term = body
        for _ in binders:
            term = Lambda(term)
        if depth(term) <= max_depth:
            result.add(term)
    return result


def test_first_yields_are_constant_lambdas(maze_grammar, maze_prims):
    stream = enumerate_programs(maze_grammar, maze_prims.request)
    first = [print_program(t) for t in itertools.islice(stream, 3)]
    assert sorted(first) == [
        "(λ(x) (λ(y) forward-action))",
        "(λ(x) (λ(y) left-action))",
        "(λ(x) (λ(y) right-action))",
    ]


def test_dls_non_decreasing(maze_grammar, maze_prims):
    last = -math.inf
    for dl, _ in itertools.islice(
        enumerate_with_dl(maze_grammar, maze_prims.request), 2000
    ):
        assert dl >= last - 1e-9
        last = dl


def test_no_duplicates(maze_grammar, maze_prims):
    seen = set()
    for term in itertools.islice(
        enumerate_programs(maze_grammar, maze_prims.request), 2000
    ):
        assert term not in seen
        seen.add(term)


def test_depth4_completeness_against_brute_force(maze_grammar, maze_prims):
    oracle = brute_force_terms(maze_prims, maze_prims.request, 4)
    assert len(oracle) == 3  # the three constant-action lambdas
    got = set(enumerate_programs(maze_grammar, maze_prims.request, max_depth=4))
    assert got == oracle


def test_depth5_completeness_against_brute_force(maze_grammar, maze_prims):
    oracle = brute_force_terms(maze_prims, maze_prims.request, 5)
    # 3 constants plus if(eq-direction? d1 d2, a1, a2): 5*5*3*3 combinations
    assert len(oracle) == 228
    got = set(enumerate_programs(maze_grammar, maze_prims.request, max_depth=5))
    assert got == oracle


def test_yielded_terms_are_well_typed(maze_grammar, maze_prims):
    for term in itertools.islice(
        enumerate_programs(maze_grammar, maze_prims.request), 500
    ):
        assert infer_type(term, maze_prims, request=maze_prims.request)


def test_enumeration_exhausts_bounded_depth(maze_grammar, maze_prims):
    got = list(enumerate_programs(maze_grammar, maze_prims.request, max_depth=4))
    assert len(got) == 3


def test_solve_single_step_task(maze_grammar):
    task = FakeTask("t0", "maze", [(maze_state(direction=0), "left")])
    result = solve_task(maze_grammar, task, SearchBudget(timeout_sec=10, top_k=1))
    assert result.solved
    assert result.candidates_tried <= 20
    assert print_program(result.programs[0]) == "(λ(x) (λ(y) left-action))"


def test_solve_contradictory_task_fails(maze_grammar):
    state = maze_state(direction=0)
    task = FakeTask("t1", "maze", [(state, "left"), (state, "right")])
    result = solve_task(
        maze_grammar, task, SearchBudget(timeout_sec=None, max_candidates=3000)
    )
    assert not result.solved
    assert result.candidates_tried == 3000


def test_stop_reasons(maze_grammar):
    easy = FakeTask("t0", "maze", [(maze_state(direction=0), "left")])
    state = maze_state(direction=0)
    never = FakeTask("t1", "maze", [(state, "left"), (state, "right")])
    top_k = solve_task(maze_grammar, easy, SearchBudget(timeout_sec=10, top_k=1))
    assert top_k.stop_reason == "top-k"
    capped = solve_task(maze_grammar, never, SearchBudget(timeout_sec=None, max_candidates=50))
    assert capped.stop_reason == "candidates" and capped.candidates_tried == 50
    exhausted = solve_task(maze_grammar, never, SearchBudget(timeout_sec=10), max_depth=4)
    assert exhausted.stop_reason == "exhausted" and exhausted.candidates_tried == 3
    timed_out = solve_task(maze_grammar, never, SearchBudget(timeout_sec=1e-9, max_candidates=None))
    assert timed_out.stop_reason == "timeout" and timed_out.candidates_tried == 128


def test_solve_wall_check_task(maze_grammar, maze_prims):
    # States follow the wall-at-(1,0) rule; the solver must find a program
    # that behaves like the generator on these states.
    steps = [
        (maze_state(wall_at=[(1, 0)], direction=0), "left"),
        (maze_state(direction=1), "forward"),
        (maze_state(wall_at=[(1, 0), (3, 3)], direction=2), "left"),
    ]
    task = FakeTask("t2", "maze", steps)
    result = solve_task(maze_grammar, task, SearchBudget(timeout_sec=60, top_k=1))
    assert result.solved
    program = result.programs[0]
    from gridsynth.interp import exec_program

    for state, action in steps:
        assert exec_program(program, state, maze_prims) == action


def test_solved_programs_sorted_by_dl_then_print(maze_grammar):
    task = FakeTask("t3", "maze", [(maze_state(direction=0), "forward")])
    result = solve_task(maze_grammar, task, SearchBudget(timeout_sec=10, top_k=5))
    ranked = [
        (dl, print_program(p)) for dl, p in zip(result.dl_nats, result.programs)
    ]
    assert ranked == sorted(ranked)


def test_refit_speeds_up_target(maze_grammar, maze_prims):
    # After refitting on copies of the wall-check program, the enumerator
    # reaches it in strictly fewer candidates.
    text = "(λ(m) (λ(d) (if (eq-obj? wall-obj (get m 1 0)) left-action forward-action)))"
    from gridsynth.sexpr import parse_program

    target = parse_program(text, maze_prims)

    def candidates_until(grammar):
        for i, term in enumerate(
            enumerate_programs(grammar, maze_prims.request, max_depth=6)
        ):
            if term == target:
                return i
            if i > 2_000_000:
                return None
        return None

    uniform_rank = candidates_until(maze_grammar)
    refitted = refit(maze_grammar, [target] * 50)
    refit_rank = candidates_until(refitted)
    assert uniform_rank is not None and refit_rank is not None
    assert refit_rank < uniform_rank


def test_solve_many_matches_sequential(maze_grammar):
    tasks = [
        FakeTask("a", "maze", [(maze_state(direction=0), "left")]),
        FakeTask("b", "maze", [(maze_state(direction=1), "right")]),
        FakeTask("c", "maze", [(maze_state(wall_at=[(2, 2)], direction=2), "forward")]),
    ]
    budget = SearchBudget(timeout_sec=None, max_candidates=500, top_k=2)
    seq = solve_many(maze_grammar, tasks, budget, jobs=1)
    par = solve_many(maze_grammar, tasks, budget, jobs=3)
    assert seq.keys() == par.keys()
    for key in seq:
        assert seq[key].programs == par[key].programs
        assert seq[key].dl_nats == par[key].dl_nats
        assert seq[key].candidates_tried == par[key].candidates_tried
