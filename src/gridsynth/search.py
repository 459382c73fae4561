"""Best-first enumeration of programs and per-task solving.

The enumerator runs uniform-cost search over partial derivations. A state is
a stack of typed holes plus the path of choices taken so far; the priority is
accumulated cost plus an admissible completion bound (the per-type minimum
description length), so terms stream out in exactly non-decreasing DL order.
Terms are only materialized when a derivation completes.
"""
from __future__ import annotations

import heapq
import math
import time
from dataclasses import dataclass
from multiprocessing import get_context

from gridsynth.grammar import Grammar, Tables, tables_for
from gridsynth.kernel import check_trajectory, compile_term
from gridsynth.lang import Lambda, Prim, Term, Ty, Var, apply_all, inline
from gridsynth.library import definitions
from gridsynth.primitives import primitive_table
from gridsynth.sexpr import print_program


@dataclass(frozen=True)
class SearchBudget:
    """At least one of timeout_sec / max_candidates must be set for solving;
    candidate budgets are what make runs reproducible across machines."""

    timeout_sec: float | None = 30.0
    top_k: int = 5
    max_candidates: int | None = None


@dataclass(frozen=True)
class SolvedTask:
    task_id: str
    programs: tuple[Term, ...]
    dl_nats: tuple[float, ...]
    candidates_tried: int
    wall_time_sec: float
    # Why the search stopped: "top-k" hits found, the "candidates" cap reached,
    # the "timeout" passed (machine-dependent), or the stream "exhausted".
    stop_reason: str = "exhausted"

    @property
    def solved(self) -> bool:
        return bool(self.programs)


def _stream(tables: Tables, max_depth: int | None):
    """Yield (dl, term) in non-decreasing dl order."""
    body_ty = tables.body_request
    budget = None if max_depth is None else max_depth - len(tables.binders)
    if budget is not None and tables.min_depth.get(body_ty, math.inf) > budget:
        return
    if tables.min_dl.get(body_ty, math.inf) == math.inf:
        return
    # Heap entry: (f, seq, g, holes, path); holes and path are linked tuples.
    heap = [(tables.min_dl[body_ty], 0, 0.0, ((body_ty, budget), None), None)]
    seq = 1
    while heap:
        f, _, g, holes, path = heapq.heappop(heap)
        if holes is None:
            yield g, _reconstruct(tables, path)
            continue
        (ty, remaining), rest = holes
        cands = tables.choices[ty]
        for idx in _feasible(tables, ty, remaining):
            c = cands[idx]
            new_g = g + c.cost
            new_h = f - g - tables.min_dl[ty]
            new_holes = rest
            arg_budget = None if remaining is None else remaining - 1
            for a in reversed(c.args):
                new_holes = ((a, arg_budget), new_holes)
                new_h += tables.min_dl[a]
            heapq.heappush(
                heap, (new_g + new_h, seq, new_g, new_holes, (idx, path))
            )
            seq += 1


def _feasible(tables: Tables, ty: Ty, remaining):
    if remaining is None:
        return [
            i
            for i, c in enumerate(tables.choices[ty])
            if all(tables.min_depth.get(a, math.inf) < math.inf for a in c.args)
        ]
    return tables.feasible(ty, remaining)


def _reconstruct(tables: Tables, path) -> Term:
    indices = []
    while path is not None:
        idx, path = path
        indices.append(idx)
    indices.reverse()
    it = iter(indices)

    def build(ty: Ty) -> Term:
        c = tables.choices[ty][next(it)]
        if c.kind == "var":
            return Var(c.var_index)
        return apply_all(Prim(c.name), [build(a) for a in c.args])

    term = build(tables.body_request)
    for _ in tables.binders:
        term = Lambda(term)
    return term


def enumerate_programs(
    grammar: Grammar,
    request: Ty,
    budget: SearchBudget | None = None,
    max_depth: int | None = None,
):
    """Ordered stream of well-typed closed terms of the requested type.

    Stops after budget.max_candidates yields when given; the stream is lazy,
    so callers can also just stop consuming.
    """
    tables = tables_for(grammar, request)
    limit = budget.max_candidates if budget and budget.max_candidates else None
    for i, (_, term) in enumerate(_stream(tables, max_depth)):
        if limit is not None and i >= limit:
            return
        yield term


def enumerate_with_dl(
    grammar: Grammar, request: Ty, max_depth: int | None = None
):
    tables = tables_for(grammar, request)
    yield from _stream(tables, max_depth)


def _prepare_task(task, prims):
    ids = {w: i for i, w in enumerate(prims.action_words)}
    grids = [s.flat() for s, _ in task.steps]
    dirs = [s.direction or 0 for s, _ in task.steps]
    acts = [ids[a] for _, a in task.steps]
    first = task.steps[0][0]
    return grids, dirs, acts, first.width, first.height


def solve_task(
    grammar: Grammar,
    task,
    budget: SearchBudget,
    library=(),
    max_depth: int | None = None,
) -> SolvedTask:
    """Filter the enumeration stream through the imitation check."""
    if budget.timeout_sec is None and budget.max_candidates is None:
        raise ValueError("search budget needs a timeout or a candidate cap")
    prims = primitive_table(task.env_tag)
    tables = tables_for(grammar, grammar.requests[0])
    grids, dirs, acts, width, height = _prepare_task(task, prims)
    n = len(acts)
    defs = definitions(library)
    hits: list[tuple[float, str, Term]] = []
    tried = 0
    start = time.monotonic()
    deadline = None if budget.timeout_sec is None else start + budget.timeout_sec
    stop_reason = "exhausted"
    for dl, term in _stream(tables, max_depth):
        tried += 1
        flat = inline(term, defs) if defs else term
        code = compile_term(flat, prims).code
        matched = check_trajectory(code, grids, dirs, acts, width, height)
        if matched == n:
            hits.append((dl, print_program(term), term))
            if len(hits) >= budget.top_k:
                stop_reason = "top-k"
                break
        if budget.max_candidates is not None and tried >= budget.max_candidates:
            stop_reason = "candidates"
            break
        if deadline is not None and tried % 128 == 0 and time.monotonic() > deadline:
            stop_reason = "timeout"
            break
    hits.sort(key=lambda h: (h[0], h[1]))
    return SolvedTask(
        task_id=task.task_id,
        programs=tuple(h[2] for h in hits),
        dl_nats=tuple(h[0] for h in hits),
        candidates_tried=tried,
        wall_time_sec=time.monotonic() - start,
        stop_reason=stop_reason,
    )


def _solve_one(packed):
    grammar, task, budget, library, max_depth = packed
    return solve_task(grammar, task, budget, library, max_depth)


def solve_many(
    grammar: Grammar,
    tasks,
    budget: SearchBudget,
    library=(),
    max_depth: int | None = None,
    jobs: int = 1,
) -> dict[str, SolvedTask]:
    """Solve tasks independently; results keyed by task id in task order.

    The per-task work is identical regardless of `jobs`, so the solved set
    and every program list are too.
    """
    if jobs <= 1 or len(tasks) <= 1:
        results = [solve_task(grammar, t, budget, library, max_depth) for t in tasks]
    else:
        packed = [(grammar, t, budget, library, max_depth) for t in tasks]
        with get_context("fork").Pool(processes=jobs) as pool:
            results = pool.map(_solve_one, packed)
    return {r.task_id: r for r in results}
