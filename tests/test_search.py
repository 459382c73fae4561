"""Enumeration order, completeness against a brute-force oracle, solving, and
the stage scan, batch-checked over every window at once, against per-task
searches on the closure kernel."""
import itertools
import math
from dataclasses import replace
from functools import lru_cache

import pytest

from gridsynth import search
from gridsynth.data import collect_oracle_rollouts, slice_tasks, task_inputs, window_batch
from gridsynth.grammar import add_abstractions, refit, tables_for, uniform_grammar
from gridsynth.kernel import check_trajectory, compile_term
from gridsynth.lang import (
    INT, MAP, MAP_OBJECT, Lambda, Prim, Term, TyVar, Var, apply_all, arg_types, arrow, depth, inline, return_type,
)
from gridsynth.library import Abstraction, _prims_in, compress, definitions
from gridsynth.primitives import arg_types_at, primitive_table
from gridsynth.search import SearchBudget, SolvedTask, solve_many, solve_task
from gridsynth.sexpr import print_program
from gridsynth.state import GridState
from gridsynth.typecheck import infer_type

from conftest import learned_grammar, maze_state


@pytest.fixture
def maze_grammar(maze_prims):
    return uniform_grammar(maze_prims)


def stream(grammar, max_depth):
    """(dl, term) for each program of depth at most max_depth, in search order."""
    return search._stream(tables_for(grammar, grammar.request), max_depth)


def programs(grammar, max_depth):
    return (term for _, term in stream(grammar, max_depth))


def solve(grammar, task, budget, library=(), max_depth=6):
    """A lone search: `solve_task`, a scan of one window."""
    return solve_task(grammar, task, budget, library, max_depth)


def reference(grammar, task, budget, library=(), max_depth=6):
    """A lone search on the closure kernel, the reference for the batch
    check: each candidate is compiled by `compile_term` and checked by
    `check_trajectory`, with `solve_task`'s top-k, candidate cap and hit
    order. Its callers' budgets never let a timeout bind, so it has none."""
    prims = primitive_table(grammar.env_tag)
    defs = definitions(library)
    grids, dirs, acts, width, height = task_inputs(task, prims)
    hits, tried, stop_reason = [], 0, "exhausted"
    for dl, term in stream(grammar, max_depth):
        tried += 1
        code = compile_term(inline(term, defs) if defs else term, prims).code
        if check_trajectory(code, grids, dirs, acts, width, height) == len(acts):
            hits.append((dl, print_program(term), term))
            if len(hits) >= budget.top_k:
                stop_reason = "top-k"
                break
        if budget.max_candidates is not None and tried >= budget.max_candidates:
            stop_reason = "candidates"
            break
    hits.sort(key=lambda h: h[:2])
    programs, dls = tuple(h[2] for h in hits), tuple(h[0] for h in hits)
    return SolvedTask(task.task_id, programs, dls, tried, 0.0, stop_reason)


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
            args = arg_types_at(entry.type, ty)
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


def test_first_yields_are_constant_lambdas(maze_grammar):
    first = [print_program(t) for t in itertools.islice(programs(maze_grammar, 6), 3)]
    assert sorted(first) == [
        "(λ(x) (λ(y) forward-action))",
        "(λ(x) (λ(y) left-action))",
        "(λ(x) (λ(y) right-action))",
    ]


def test_dls_non_decreasing(maze_grammar):
    last = -math.inf
    for dl, _ in itertools.islice(stream(maze_grammar, 6), 2000):
        assert dl >= last - 1e-9
        last = dl


def test_no_duplicates(maze_grammar):
    seen = set()
    for term in itertools.islice(programs(maze_grammar, 6), 2000):
        assert term not in seen
        seen.add(term)


def test_depth4_completeness_against_brute_force(maze_grammar, maze_prims):
    oracle = brute_force_terms(maze_prims, maze_prims.request, 4)
    assert len(oracle) == 3  # the three constant-action lambdas
    got = set(programs(maze_grammar, 4))
    assert got == oracle


def test_depth5_completeness_against_brute_force(maze_grammar, maze_prims):
    oracle = brute_force_terms(maze_prims, maze_prims.request, 5)
    # 3 constants plus if(eq-direction? d1 d2, a1, a2): 5*5*3*3 combinations
    assert len(oracle) == 228
    got = set(programs(maze_grammar, 5))
    assert got == oracle


def test_yielded_terms_are_well_typed(maze_grammar, maze_prims):
    for term in itertools.islice(programs(maze_grammar, 6), 500):
        assert infer_type(term, maze_prims, request=maze_prims.request)


def test_enumeration_exhausts_bounded_depth(maze_grammar):
    got = list(programs(maze_grammar, 4))
    assert len(got) == 3


@pytest.mark.parametrize("env_tag, d", [("maze", 6), ("asterix", 5), ("spaceinvaders", 6)])
def test_bounded_stream_is_the_deeper_stream_filtered(env_tag, d):
    """The stream at depth d lists the programs of depth at most d in the
    order, and with the DLs, that the stream at depth d + 2 gives them: a
    deeper bound only interleaves deeper programs. So a prefix read at one
    bound is what any bound above it yields, filtered."""
    grammar = uniform_grammar(primitive_table(env_tag))
    n = 3000
    want = list(itertools.islice(stream(grammar, d), n))
    assert len(want) == n
    shallow = ((dl, t) for dl, t in stream(grammar, d + 2) if depth(t) <= d)
    assert list(itertools.islice(shallow, n)) == want


def test_solve_single_step_task(maze_grammar):
    task = FakeTask("t0", "maze", [(maze_state(direction=0), "left")])
    result = solve(maze_grammar, task, SearchBudget(timeout_sec=10, top_k=1))
    assert result.solved
    assert result.candidates_tried <= 20
    assert print_program(result.programs[0]) == "(λ(x) (λ(y) left-action))"


def test_solve_contradictory_task_fails(maze_grammar):
    state = maze_state(direction=0)
    task = FakeTask("t1", "maze", [(state, "left"), (state, "right")])
    result = solve(maze_grammar, task, SearchBudget(timeout_sec=None, max_candidates=3000))
    assert not result.solved
    assert result.candidates_tried == 3000


def test_stop_reasons(maze_grammar):
    easy = FakeTask("t0", "maze", [(maze_state(direction=0), "left")])
    state = maze_state(direction=0)
    never = FakeTask("t1", "maze", [(state, "left"), (state, "right")])
    top_k = solve(maze_grammar, easy, SearchBudget(timeout_sec=10, top_k=1))
    assert top_k.stop_reason == "top-k"
    capped = solve(maze_grammar, never, SearchBudget(timeout_sec=None, max_candidates=50))
    assert capped.stop_reason == "candidates" and capped.candidates_tried == 50
    exhausted = solve(maze_grammar, never, SearchBudget(timeout_sec=10), max_depth=4)
    assert exhausted.stop_reason == "exhausted" and exhausted.candidates_tried == 3
    timed_out = solve(maze_grammar, never, SearchBudget(timeout_sec=1e-9, max_candidates=None))
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
    result = solve(maze_grammar, task, SearchBudget(timeout_sec=60, top_k=1))
    assert result.solved
    program = result.programs[0]
    from gridsynth.interp import exec_program

    for state, action in steps:
        assert exec_program(program, state, maze_prims) == action


def test_solved_programs_sorted_by_dl_then_print(maze_grammar):
    task = FakeTask("t3", "maze", [(maze_state(direction=0), "forward")])
    result = solve(maze_grammar, task, SearchBudget(timeout_sec=10, top_k=5))
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
        for i, term in enumerate(programs(grammar, 6)):
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


# --- the stage scan against per-task reference searches --------------------

_STAGE_CAP = 500


@lru_cache(maxsize=None)
def _stage(env_tag, learned):
    """Grammar, library, tasks and depth bound of one solve stage on oracle
    windows of length 3. `learned` refits on the library-free stage's first
    programs and compresses them into a library, as the curriculum does."""
    prims = primitive_table(env_tag)
    grammar = uniform_grammar(prims)
    episodes, d_max = {"maze": (4, 6), "spaceinvaders": (2, 20)}[env_tag]
    tasks = tuple(slice_tasks(collect_oracle_rollouts(env_tag, episodes, seed=3), 3).tasks)
    if not learned:
        return grammar, (), tasks, d_max
    budget = SearchBudget(timeout_sec=None, max_candidates=_STAGE_CAP, top_k=2)
    solved = solve_many(grammar, tasks, budget, (), d_max)
    corpus = {tid: r.programs[0] for tid, r in solved.items() if r.programs}
    res = compress(corpus, refit(grammar, list(corpus.values())), max_arity=3)
    assert res.library
    return res.grammar, res.library, tasks, d_max


def _outcome(result):
    return result.programs, result.dl_nats, result.candidates_tried, result.stop_reason


def assert_shared_matches_reference(grammar, tasks, budget, library, max_depth):
    """solve_many gives every task exactly what a lone search on the closure
    kernel gives it. Returns the reference."""
    want = {t.task_id: reference(grammar, t, budget, library, max_depth) for t in tasks}
    got = solve_many(grammar, tasks, budget, library, max_depth)
    assert list(got) == list(want)
    for tid, ref in want.items():
        assert _outcome(got[tid]) == _outcome(ref), tid
    return want


@pytest.mark.parametrize("learned", [False, True], ids=["no-library", "learned-library"])
@pytest.mark.parametrize("env_tag", ["maze", "spaceinvaders"])
def test_shared_list_matches_per_task_search(env_tag, learned):
    grammar, library, tasks, d_max = _stage(env_tag, learned)
    budget = SearchBudget(timeout_sec=None, max_candidates=_STAGE_CAP, top_k=2)
    want = assert_shared_matches_reference(grammar, tasks, budget, library, d_max)
    assert {r.stop_reason for r in want.values()} == {"top-k", "candidates"}


def test_scans_stopping_for_each_reason_share_one_list(maze_grammar):
    # At depth 5 the maze stream holds 228 terms. The first two tasks stop on
    # top-k, at different candidates, and the last goes on alone to the cap
    # or the stream's end.
    state = maze_state(direction=0)
    easy = FakeTask("easy", "maze", [(state, "left")])
    turn = FakeTask("turn", "maze", [(maze_state(direction=2), "forward"),
                                     (maze_state(direction=1), "left")])
    never = FakeTask("never", "maze", [(state, "left"), (state, "right")])
    tasks = [easy, turn, never]
    capped = SearchBudget(timeout_sec=None, max_candidates=150, top_k=1)
    want = assert_shared_matches_reference(maze_grammar, tasks, capped, (), 5)
    assert [r.stop_reason for r in want.values()] == ["top-k", "top-k", "candidates"]
    uncapped = SearchBudget(timeout_sec=60, max_candidates=None, top_k=1)
    want = assert_shared_matches_reference(maze_grammar, tasks, uncapped, (), 5)
    assert [r.stop_reason for r in want.values()] == ["top-k", "top-k", "exhausted"]
    assert want["never"].candidates_tried == 228
    assert want["easy"].candidates_tried < want["turn"].candidates_tried == 87


def test_empty_window_is_imitated_by_every_candidate(maze_grammar):
    """A window of no steps has no state to get wrong, so its first top-k
    candidates imitate it, in a stage of its own and beside a window with
    states."""
    empty = FakeTask("empty", "maze", [])
    easy = FakeTask("easy", "maze", [(maze_state(direction=0), "left")])
    budget = SearchBudget(timeout_sec=None, max_candidates=50, top_k=3)
    alone = solve(maze_grammar, empty, budget)
    assert _outcome(alone) == _outcome(reference(maze_grammar, empty, budget))
    assert alone.candidates_tried == 3 and alone.stop_reason == "top-k"
    want = assert_shared_matches_reference(maze_grammar, [easy, empty], budget, (), 6)
    assert _outcome(want["empty"]) == _outcome(alone)


def test_each_distinct_window_is_searched_once(monkeypatch):
    """Tasks with equal steps get exactly what their own searches would give,
    under their own ids; copies sit before, between and after the tasks they
    copy. One scan gets the first task of each window, and no other."""
    grammar, library, tasks, d_max = _stage("spaceinvaders", True)
    base = list(tasks[:9])

    def copy(task, tag):
        return FakeTask(f"{tag}-{task.task_id}", task.env_tag, task.steps)

    mixed = [copy(base[8], "front")] + base[:5] + [copy(base[0], "mid")] + base[5:]
    mixed += [copy(t, "back") for t in base[::4]] + [copy(base[0], "back2")]
    budget = SearchBudget(timeout_sec=None, max_candidates=_STAGE_CAP, top_k=2)
    want = [reference(grammar, t, budget, library, d_max) for t in mixed]
    scans = []
    scan = search._scan

    def counting(grammar, windows, *rest):
        scans.append([w.task_id for w in windows])
        return scan(grammar, windows, *rest)

    monkeypatch.setattr(search, "_scan", counting)
    got = solve_many(grammar, mixed, budget, library, d_max)
    assert list(got) == [t.task_id for t in mixed]
    for ref in want:
        assert (got[ref.task_id].task_id, *_outcome(got[ref.task_id])) == (ref.task_id, *_outcome(ref))
    [searched] = scans
    assert len(searched) == len({t.steps for t in mixed}) == len({t.steps for t in base})
    assert searched[0] == "front-" + base[8].task_id and base[8].task_id not in searched


@pytest.mark.parametrize("learned", [False, True], ids=["no-library", "learned-library"])
def test_each_candidate_compiled_once_per_stage(monkeypatch, learned):
    """Each candidate is checked from its derivation over all of the stage's
    states by one batch evaluation."""
    grammar, library, tasks, d_max = _stage("spaceinvaders", learned)
    checked = []
    check = search._check

    def counting(batch, nodes, path):
        checked.append(path)
        return check(batch, nodes, path)

    monkeypatch.setattr(search, "_check", counting)
    budget = SearchBudget(timeout_sec=None, max_candidates=_STAGE_CAP, top_k=2)
    got = solve_many(grammar, tasks, budget, library, d_max)
    longest = max(r.candidates_tried for r in got.values())
    assert got.candidates_compiled == len(checked) == longest == _STAGE_CAP
    assert len({id(path) for path in checked}) == len(checked)
    assert sum(r.candidates_tried for r in got.values()) > 10 * len(checked)


def _differential_stage(env_tag, learned):
    """Grammar, library, tasks and depth bound of a stage for the derivation
    check's differential test. The learned library is `learned_grammar`'s,
    whose abstractions take one to three parameters and call each other,
    plus two more: `k0` takes no parameters and `k1`, of one, calls it."""
    prims = primitive_table(env_tag)
    tasks = tuple(slice_tasks(collect_oracle_rollouts(env_tag, 2, seed=3), 3).tasks)
    d_max = 6 if env_tag == "maze" else 8
    if not learned:
        return uniform_grammar(prims), (), tasks, d_max
    grammar, library = learned_grammar(prims)
    more = [
        Abstraction("k0", Prim("2"), INT, 0),
        Abstraction("k1", Lambda(apply_all(Prim("get"), [Var(0), Prim("k0"), Prim("1")])), arrow(MAP, MAP_OBJECT), 0),
    ]
    grammar = add_abstractions(grammar, more)
    # weighted up, so that the first candidates call both directly
    prods = tuple(replace(p, logp=3.0) if p.name in ("k0", "k1") else p for p in grammar.productions)
    return replace(grammar, productions=prods), tuple(library) + tuple(more), tasks, d_max


@pytest.mark.parametrize("learned", [False, True], ids=["no-library", "learned-library"])
@pytest.mark.parametrize("env_tag", ["maze", "asterix", "spaceinvaders"])
def test_derivation_check_is_the_term_check(monkeypatch, env_tag, learned):
    """For each of a stage's first 500 derivations, the check straight from
    the derivation gives the bitset that `StateBatch.check` gives for its
    library-expanded term. A scan builds the term of a candidate that hits
    a window once, and builds none for a candidate that hits none."""
    grammar, library, tasks, d_max = _differential_stage(env_tag, learned)
    prims = primitive_table(env_tag)
    defs = definitions(library)
    tables = tables_for(grammar, grammar.request)
    batch, _ = window_batch(tasks, prims)
    nodes = search._nodes(tables, batch, prims, defs)
    used, values = set(), set()
    for _, path in itertools.islice(search._derivations(tables, d_max), _STAGE_CAP):
        term = search._reconstruct(tables, path)
        want = batch.check(inline(term, defs), prims)
        assert search._check(batch, nodes, path) == want, print_program(term)
        used.update(p.name for p in _prims_in(term))
        values.add(want)
    assert len(values) >= 5
    if learned:
        arities = {a.name: a.arity for a in library}
        assert {"k0", "k1"} <= used and any(arities.get(name, 0) > 1 for name in used)

    built = []
    reconstruct = search._reconstruct

    def counting(tables, path):
        built.append(reconstruct(tables, path))
        return built[-1]

    monkeypatch.setattr(search, "_reconstruct", counting)
    budget = SearchBudget(timeout_sec=None, max_candidates=_STAGE_CAP, top_k=10**6)
    got = solve_many(grammar, tasks, budget, library, d_max)
    hits = {term for r in got.values() for term in r.programs}
    assert hits and len(built) == len(hits) and set(built) == hits


def test_texts_are_the_printed_programs():
    """Each result carries the texts of its programs, as the scan printed
    them, and no texts when it has no programs."""
    grammar, library, tasks, d_max = _stage("spaceinvaders", True)
    budget = SearchBudget(timeout_sec=None, max_candidates=_STAGE_CAP, top_k=2)
    got = solve_many(grammar, tasks, budget, library, d_max)
    assert {r.solved for r in got.values()} == {True, False}
    for r in got.values():
        assert r.texts == tuple(print_program(p) for p in r.programs)
        assert (r.texts == ()) == (r.programs == ())
    assert any(a.name in text for r in got.values() for text in r.texts for a in library)


def test_solve_many_of_no_tasks_is_empty(maze_grammar):
    budget = SearchBudget(timeout_sec=None, max_candidates=10)
    got = solve_many(maze_grammar, [], budget, (), 6)
    assert got == {} and got.candidates_compiled == 0
