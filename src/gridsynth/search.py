"""Best-first enumeration of programs and per-task solving.

The enumerator runs uniform-cost search over partial derivations. A state is
a stack of typed holes plus the path of choices taken so far; the priority is
accumulated cost plus an admissible completion bound (the per-type minimum
description length), so terms stream out in exactly non-decreasing DL order.
Terms are only materialized when a derivation completes.

The stream depends only on the grammar, the library and the depth bound, which
a solve stage fixes for all of its tasks. So `solve_many` keeps the stream as
one `CandidateList` per stage, built for the stage's windows: each candidate
is enumerated and expanded the first time any task's scan reaches it, and
evaluated once over every state of every window at once, as bitsets
(`kernel.StateBatch`). Each task then scans the list from its start with its
own top-k, candidate cap and deadline, and a candidate imitates the task when
the bitset of states it gets right covers the task's window. Tasks with
equal steps are searched once. With `jobs` > 1 the searched tasks are split
into contiguous chunks, one forked worker and one shared list per chunk, and
the results are joined in task order.
"""
from __future__ import annotations

import heapq
import math
import time
from dataclasses import dataclass, replace
from multiprocessing import get_context

from gridsynth.data import task_inputs
from gridsynth.envs import env_spec
from gridsynth.grammar import Grammar, Tables, tables_for
from gridsynth.kernel import StateBatch
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


# Why a search stopped: "top-k" hits found, the "candidates" cap reached, the
# "timeout" passed (machine-dependent), or the stream "exhausted".
STOP_REASONS = ("top-k", "candidates", "timeout", "exhausted")


@dataclass(frozen=True)
class SolvedTask:
    task_id: str
    programs: tuple[Term, ...]
    dl_nats: tuple[float, ...]
    candidates_tried: int
    wall_time_sec: float
    stop_reason: str = "exhausted"  # one of STOP_REASONS

    @property
    def solved(self) -> bool:
        return bool(self.programs)


def _stream(tables: Tables, max_depth: int):
    """Yield (dl, term) for every term of depth at most `max_depth`, in
    non-decreasing dl order."""
    body_ty = tables.body_request
    budget = max_depth - len(tables.binders)
    if tables.min_depth.get(body_ty, math.inf) > budget:
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
        for idx in tables.site(ty, remaining).feasible:
            c = cands[idx]
            new_g = g + c.cost
            new_h = f - g - tables.min_dl[ty]
            new_holes = rest
            for a in reversed(c.args):
                new_holes = ((a, remaining - 1), new_holes)
                new_h += tables.min_dl[a]
            heapq.heappush(
                heap, (new_g + new_h, seq, new_g, new_holes, (idx, path))
            )
            seq += 1


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


class CandidateList:
    """A solve stage's candidate stream, extended lazily and shared by its tasks.

    The list is built for the stage's windows, `tasks`, whose states it lays
    end to end in one `StateBatch`. Entry i is (dl, term, correct) for the
    i-th program of depth at most `max_depth` in `_stream`: its DL, the term
    itself, and the bitset of the stage's states on which its library
    expansion gives the recorded action. An entry is enumerated, expanded
    and checked over every state the first time a scan reaches it.
    Iterating yields the entries from the first; a scan that passes the end
    of the list extends it, and the scan's caller pays for that.
    """

    def __init__(self, grammar: Grammar, library, max_depth: int, tasks):
        self.prims = primitive_table(grammar.env_tag)
        self.entries: list[tuple[float, Term, int]] = []
        self._stream = _stream(tables_for(grammar, grammar.request), max_depth)
        self._defs = definitions(library)
        grids, dirs, acts = [], [], []
        self.masks = {}  # steps -> the bitset of a window's states
        for task in tasks:
            g, d, a, _, _ = task_inputs(task, self.prims)
            self.masks[task.steps] = ((1 << len(a)) - 1) << len(acts)
            grids += g
            dirs += d
            acts += a
        height, width = env_spec(grammar.env_tag).obs_shape
        self.states = StateBatch(grids, dirs, acts, width, height)

    def __len__(self) -> int:
        return len(self.entries)

    def __iter__(self):
        entries = self.entries
        yield from entries  # a list iterator also yields entries appended meanwhile
        i = len(entries)
        while True:
            if i == len(entries):
                nxt = next(self._stream, None)
                if nxt is None:
                    return
                dl, term = nxt
                flat = inline(term, self._defs) if self._defs else term
                entries.append((dl, term, self.states.check(flat, self.prims)))
            yield entries[i]
            i += 1


def solve_task(candidates: CandidateList, task, budget: SearchBudget) -> SolvedTask:
    """Scan `candidates` from the start for programs that imitate every step
    of `task`, one of the windows the list was built for, until the budget's
    top-k hits, candidate cap or timeout, or the list's end."""
    if budget.timeout_sec is None and budget.max_candidates is None:
        raise ValueError("search budget needs a timeout or a candidate cap")
    mask = candidates.masks[task.steps]
    hits: list[tuple[float, str, Term]] = []
    tried = 0
    start = time.monotonic()
    deadline = None if budget.timeout_sec is None else start + budget.timeout_sec
    stop_reason = "exhausted"
    for tried, (dl, term, correct) in enumerate(candidates, 1):
        if correct & mask == mask:
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


class StageResults(dict):
    """Solved tasks keyed by task id, in task order, plus `candidates_compiled`:
    the total length of the candidate lists the stage built."""

    candidates_compiled: int = 0


def _solve_chunk(grammar, tasks, budget, library, max_depth):
    """Solve tasks in order against one shared candidate list."""
    shared = CandidateList(grammar, library, max_depth, tasks)
    results = [solve_task(shared, t, budget) for t in tasks]
    return results, len(shared)


def solve_many(
    grammar: Grammar, tasks, budget: SearchBudget, library, max_depth: int, jobs: int = 1
) -> StageResults:
    """Solve tasks independently; results keyed by task id in task order.

    Only the first task of each distinct window is searched, and tasks with
    equal steps get its result under their own ids. With a candidate cap that
    is what their own searches would return; without one, a duplicate shares
    its group's result instead of racing the clock again. The searched tasks
    share one `CandidateList`, so each candidate is enumerated, expanded and
    checked at most once, while each scan, stop reason and hit list is that
    of a `solve_task` call on a list of its own; only a timeout can come
    later, since reading entries another task checked is faster than
    checking them. The list grows to the longest scan: at most
    `budget.max_candidates`, or without a cap as far as the timeout allows.
    `jobs` > 1 splits the searched tasks into contiguous chunks, each solved
    in a forked worker with its own list, so no result depends on `jobs`.
    """
    first = {}  # steps -> the first task with them, the one searched
    for t in tasks:
        first.setdefault(t.steps, t)
    firsts = list(first.values())
    if jobs <= 1 or len(firsts) <= 1:
        parts = [_solve_chunk(grammar, firsts, budget, library, max_depth)]
    else:
        jobs = min(jobs, len(firsts))
        chunks = [firsts[i * len(firsts) // jobs:(i + 1) * len(firsts) // jobs] for i in range(jobs)]
        with get_context("fork").Pool(processes=jobs) as pool:
            parts = pool.starmap(
                _solve_chunk, [(grammar, c, budget, library, max_depth) for c in chunks]
            )
    solved = {r.task_id: r for results, _ in parts for r in results}
    out = StageResults()
    for t in tasks:
        r = solved[first[t.steps].task_id]
        out[t.task_id] = r if r.task_id == t.task_id else replace(r, task_id=t.task_id)
    out.candidates_compiled = sum(n for _, n in parts)
    return out
