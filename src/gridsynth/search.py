"""Best-first enumeration of programs and solving a stage's windows in one scan.

The enumerator runs uniform-cost search over partial derivations. A state is
a stack of typed holes plus the path of choices taken so far; the priority is
accumulated cost plus an admissible completion bound (the per-type minimum
description length), so derivations stream out in exactly non-decreasing DL
order. A completed derivation is its choice path, last choice first.

The stream depends only on the grammar, the library and the depth bound, which
a solve stage fixes for all of its windows. So `solve_many` reads it once per
stage, in one `_scan` of every searched window: the windows' states lie end to
end in one `kernel.StateBatch` (`data.window_batch`), each candidate is
enumerated and checked once over all of them, straight from its derivation,
and `kernel.covered` reads off every window it imitates. The check resolves
each choice of the stage's tables once to a batch value or builder
(`StateBatch.nodes`; a library call builds its abstraction's expanded body),
so no term is built or library-expanded for the check; only a candidate that
imitates a window is built (`_reconstruct`) and printed. Each window stops on
its own top-k; the rest stop together at the candidate cap, at the stream's
end or at the scan's one deadline, so each window gets what a lone search of
it would, a timeout aside. Windows with equal steps are searched once.
"""
from __future__ import annotations

import heapq
import math
import time
from dataclasses import dataclass

from gridsynth.data import window_batch
from gridsynth.grammar import Grammar, Tables, tables_for
from gridsynth.kernel import covered
from gridsynth.lang import Lambda, Prim, Term, Var, apply_all
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
    texts: tuple[str, ...] = ()  # `print_program` of each of `programs`

    @property
    def solved(self) -> bool:
        return bool(self.programs)


def _derivations(tables: Tables, max_depth: int):
    """Yield (dl, derivation) for every term of depth at most `max_depth`,
    in non-decreasing dl order. A derivation is the choices that build the
    term, last first, as a linked tuple (choice, rest)."""
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
            yield g, path
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
                heap, (new_g + new_h, seq, new_g, new_holes, (c, path))
            )
            seq += 1


def _stream(tables: Tables, max_depth: int):
    """Yield (dl, term) for every term of depth at most `max_depth`, in
    non-decreasing dl order: `_derivations` with each term built."""
    for dl, path in _derivations(tables, max_depth):
        yield dl, _reconstruct(tables, path)


def _reconstruct(tables: Tables, path) -> Term:
    """The program of a derivation. Its choices, last first, are the term's
    nodes in reverse prefix order, so each node's operands are built, the
    first on top of the stack, before the node itself."""
    stack = []
    while path is not None:
        c, path = path
        if c.kind == "var":
            stack.append(Var(c.var_index))
        else:
            stack.append(apply_all(Prim(c.name), [stack.pop() for _ in c.args]))
    term = stack.pop()
    for _ in tables.binders:
        term = Lambda(term)
    return term


def _nodes(tables: Tables, batch, prims, defs) -> dict:
    """id of each choice of `tables` -> (its operand count, its builder over
    `batch`, or its value there if it takes no operands). Keyed by id, which
    hashes in C: each (type, choice index) of the tables is one `Choice`
    object, held by the tables for as long as the scan reads them."""
    builders, inputs = batch.nodes(prims, defs, len(tables.binders))
    nodes = {}
    for cands in tables.choices.values():
        for c in cands:
            if c.kind == "var":
                nodes[id(c)] = 0, inputs[c.var_index]
            else:
                x = builders[c.name]
                nodes[id(c)] = len(c.args), x if c.args else x()
    return nodes


def _check(batch, nodes: dict, path) -> int:
    """`batch.check` of the program of a derivation, built node by node from
    `_nodes` as `_reconstruct` builds its term: the bitset of the states on
    which the library-expanded program gives the recorded action."""
    stack = []
    push, pop = stack.append, stack.pop
    while path is not None:
        c, path = path
        n, x = nodes[id(c)]
        if n == 0:
            push(x)
        elif n == 1:
            push(x(pop()))
        elif n == 2:
            push(x(pop(), pop()))
        elif n == 3:
            push(x(pop(), pop(), pop()))
        else:
            push(x(*[pop() for _ in range(n)]))
    return batch.correct(pop())


def _scan(grammar: Grammar, windows, budget: SearchBudget, library, max_depth: int):
    """Search the distinct `windows` at once for programs that imitate every
    step of them. Returns a `SolvedTask` per window, in window order, the
    number of candidates checked and the DL of the last one (inf when the
    stream ran out). Each candidate is checked from its derivation; only
    one that imitates a window is built as a term and printed."""
    if budget.timeout_sec is None and budget.max_candidates is None:
        raise ValueError("search budget needs a timeout or a candidate cap")
    prims = primitive_table(grammar.env_tag)
    tables = tables_for(grammar, grammar.request)
    stream = _derivations(tables, max_depth)
    batch, starts = window_batch(windows, prims)
    nodes = _nodes(tables, batch, prims, definitions(library))
    owner: dict[int, dict[int, int]] = {}  # length -> {first state's bit: window}
    for i, (w, s) in enumerate(zip(windows, starts)):
        owner.setdefault(len(w.steps), {})[s] = i
    active = {n: sum(1 << s for s in group) for n, group in owner.items()}
    hits: list[list] = [[] for _ in windows]
    stops: list = [None] * len(windows)  # (candidates tried, seconds, stop reason)
    start = time.monotonic()
    deadline = None if budget.timeout_sec is None else start + budget.timeout_sec
    tried, left, reason, dl = 0, len(windows), "exhausted", math.inf
    while left:
        dl, path = next(stream, (math.inf, None))
        if path is None:
            break
        tried += 1
        wrong = batch.all ^ _check(batch, nodes, path)
        hit = None
        for n, bits in active.items():
            new = covered(wrong, bits, n)
            while new:
                low = new & -new
                new ^= low
                i = owner[n][low.bit_length() - 1]
                if hit is None:
                    term = _reconstruct(tables, path)
                    hit = (dl, print_program(term), term)
                hits[i].append(hit)
                if len(hits[i]) >= budget.top_k:
                    active[n] ^= low
                    left -= 1
                    stops[i] = (tried, time.monotonic() - start, "top-k")
        if budget.max_candidates is not None and tried >= budget.max_candidates:
            reason = "candidates"
            break
        if deadline is not None and tried % 128 == 0 and time.monotonic() > deadline:
            reason = "timeout"
            break
    rest = (tried, time.monotonic() - start, reason)
    results = []
    for w, found, stop in zip(windows, hits, stops):
        found.sort(key=lambda h: h[:2])
        dls, texts, programs = (tuple(h[i] for h in found) for i in range(3))
        results.append(SolvedTask(w.task_id, programs, dls, *(stop or rest), texts))
    return results, tried, dl


def solve_task(grammar: Grammar, task, budget: SearchBudget, library, max_depth: int) -> SolvedTask:
    """A lone search: `_scan` of one window, until the budget's top-k hits,
    candidate cap or timeout, or the stream's end."""
    return _scan(grammar, [task], budget, library, max_depth)[0][0]


class StageResults(dict):
    """Solved tasks keyed by task id, in task order, plus `candidates_compiled`:
    the number of candidates the stage's scan checked, and `last_dl`: the DL
    of the last of them, or inf when the stream ran out."""

    candidates_compiled: int = 0
    last_dl: float = math.inf


def solve_many(grammar: Grammar, tasks, budget: SearchBudget, library, max_depth: int) -> StageResults:
    """Solve tasks independently; results keyed by task id in task order.

    Only the first task of each distinct window is searched, and tasks with
    equal steps get its result under their own ids. With a candidate cap that
    is what their own searches would return; without one, a duplicate shares
    its group's result instead of racing the clock again. The searched tasks
    share one `_scan`, so each candidate is enumerated and checked once,
    while each task gets what its own `solve_task` gives, a timeout aside.
    """
    group = {}  # steps -> the index of their window
    index = [group.setdefault(t.steps, len(group)) for t in tasks]
    windows = []  # the first task of each group, the one searched
    for t, k in zip(tasks, index):
        if k == len(windows):
            windows.append(t)
    results, tried, last_dl = _scan(grammar, windows, budget, library, max_depth)
    out = StageResults()
    for t, k in zip(tasks, index):
        r = results[k]
        out[t.task_id] = r if r.task_id == t.task_id else SolvedTask(
            t.task_id, r.programs, r.dl_nats, r.candidates_tried, r.wall_time_sec, r.stop_reason, r.texts
        )
    out.candidates_compiled = tried
    out.last_dl = last_dl
    return out
