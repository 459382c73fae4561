"""Output checks. Each check item is one operation; a failed check fails it.

The checks hold the outputs to the interpreter (`interp.exec_program`, the
semantics of record) or to properties the method must have. They never
compare against a stored copy of an earlier output. Every item is a plain
function of explicit data so that `selftest.py` can hand it a corrupted
artifact and see it rejected.
"""
from __future__ import annotations

import csv
import json
import math
import random
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from gridsynth.data import collect_oracle_rollouts, load_task_set, slice_tasks
from gridsynth.envs import make_env
from gridsynth.errors import EvalError
from gridsynth.grammar import description_length, load_grammar
from gridsynth.interp import exec_program
from gridsynth.kernel import check_trajectory, compile_term, execute
from gridsynth.lang import Apply, Lambda, Prim, depth
from gridsynth.library import definitions, expand, load_library
from gridsynth.sexpr import parse_program
from gridsynth.typecheck import infer_type

DL_TOL = 1e-9
FRESH_STATES = 40


class Tally:
    """Counts check items; keeps the labels of the ones that failed."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def item(self, label: str, check, *args) -> bool:
        self.attempted += 1
        try:
            ok = bool(check(*args))
        except Exception as exc:  # noqa: BLE001 - a crashing check is a failed item
            ok = False
            label = f"{label}: {type(exc).__name__}: {exc}"
        if not ok:
            self.failed += 1
            self.failures.append(label)
        return ok


def _close(a: float, b: float) -> bool:
    return math.isclose(a, b, rel_tol=DL_TOL, abs_tol=DL_TOL)


def _parse(text: str, lib, prims):
    return parse_program(text, prims, extra=definitions(lib))


def _calls(term, name: str) -> int:
    if isinstance(term, Prim):
        return int(term.name == name)
    if isinstance(term, Apply):
        return _calls(term.fn, name) + _calls(term.arg, name)
    if isinstance(term, Lambda):
        return _calls(term.body, name)
    return 0


def interp_action(term, state, prims):
    """The interpreter's action, or None where evaluation fails."""
    try:
        return exec_program(term, state, prims)
    except EvalError:
        return None


def kernel_action(term, state, prims):
    code = compile_term(term, prims).code
    grid = np.asarray(state.flat(), dtype=np.int64)
    direction = state.direction if state.direction is not None else 0
    aid = execute(code, grid, state.width, state.height, direction)
    return None if aid < 0 else prims.action_words[aid]


# --- solved programs -------------------------------------------------------


def program_imitates(text: str, lib, task, prims) -> bool:
    """The program, expanded with the library it was found under, reproduces
    every recorded action of its task under the interpreter."""
    return imitates_expanded(_parse(text, lib, prims), lib, task, prims)


def dl_matches(entry: dict, grammar, lib, prims) -> bool:
    """dlNats is non-decreasing and equals the grammar's description length."""
    dls = entry["dlNats"]
    if len(dls) != len(entry["programs"]):
        return False
    if any(b < a - DL_TOL for a, b in zip(dls, dls[1:])):
        return False
    return all(
        _close(dl, description_length(grammar, _parse(text, lib, prims), prims.request))
        for text, dl in zip(entry["programs"], dls)
    )


def within_candidate_cap(entry: dict, cap: int) -> bool:
    return 0 < entry["candidatesTried"] <= cap


def stopped_on_timeout(result, budget) -> bool:
    """The search ran out of time before its top-k or its candidate cap."""
    capped = budget.max_candidates is not None and result.candidates_tried >= budget.max_candidates
    full = len(result.programs) >= budget.top_k
    late = budget.timeout_sec is not None and result.wall_time_sec >= budget.timeout_sec
    return late and not (capped or full)


def search_stop_ok(result, budget) -> bool:
    """A timeout stop depends on the machine's speed, so it fails the item."""
    return not stopped_on_timeout(result, budget)


# --- dreams ----------------------------------------------------------------


def dream_well_formed(text: str, lib, prims, d_max: int) -> bool:
    term = _parse(text, lib, prims)
    if depth(term) > d_max:
        return False
    infer_type(term, prims, library=lib, request=prims.request)
    return True


@dataclass(frozen=True)
class DreamRecord:
    """What a replay needs of one dream rollout. States are kept as hashes so
    that holding the sample does not inflate the run's peak memory."""

    traj_id: str
    env_tag: str
    provenance: str
    seeds: tuple
    actions: tuple
    state_hashes: tuple

    @staticmethod
    def of(traj) -> "DreamRecord":
        return DreamRecord(
            traj.traj_id,
            traj.env_tag,
            traj.provenance,
            traj.seeds,
            tuple(a for _, a in traj.steps),
            tuple(hash(s) for s, _ in traj.steps),
        )


def dream_replays(dream: DreamRecord, lib, prims, warmup_max: int) -> bool:
    """Resetting the environment with the dream's seeds and acting with the
    interpreter reproduces every recorded state and action."""
    term = expand(_parse(dream.provenance, lib, prims), lib)
    env = make_env(dream.env_tag)
    obs = env.reset(*dream.seeds)
    for _ in range(warmup_max):
        if hash(obs) == dream.state_hashes[0]:
            break
        obs, done = env.step(env.oracle_action())
        if done:
            return False
    for state_hash, action in zip(dream.state_hashes, dream.actions):
        if hash(obs) != state_hash or interp_action(term, obs, prims) != action:
            return False
        obs, _ = env.step(action)
    return True


# --- libraries -------------------------------------------------------------


def expands_to(after, after_lib, before, before_lib) -> bool:
    return expand(after, after_lib) == expand(before, before_lib)


def abstraction_sound(abstraction, lib, rewritten: dict, prims) -> bool:
    """Type-checks against its declared type and is called at least twice.

    The declared type may instantiate a polymorphic body (an `if` over slot
    arguments), so the body is checked against it rather than compared with
    its most general type."""
    earlier = lib[: [a.name for a in lib].index(abstraction.name)]
    ty = infer_type(abstraction.body, prims, library=earlier, request=abstraction.type)
    if ty != abstraction.type:
        return False
    calls = sum(_calls(t, abstraction.name) for t in rewritten.values())
    calls += sum(_calls(a.body, abstraction.name) for a in lib if a.name != abstraction.name)
    return calls >= 2


def dl_accounted(corpus_in: dict, grammar_in, result, prims) -> bool:
    """dl_after <= dl_before, and both equal a recomputation: the corpus
    under the grammar, plus new abstraction bodies stored once."""
    req = prims.request
    before = sum(description_length(grammar_in, t, req) for t in corpus_in.values())
    after = sum(description_length(result.grammar, t, req) for t in result.rewritten.values())
    after += sum(description_length(result.grammar, a.body, a.type) for a in result.new_abstractions)
    return (
        result.dl_after <= result.dl_before + DL_TOL
        and _close(before, result.dl_before)
        and _close(after, result.dl_after)
    )


def report_matches(report: dict, result) -> bool:
    """report.json records the compressor's DL and new abstractions."""
    return (
        report["dlBefore"] == result.dl_before
        and report["dlAfter"] == result.dl_after
        and report["newAbstractions"] == [a.name for a in result.new_abstractions]
    )


def check_compression(corpus_in: dict, grammar_in, lib_in, result, prims, tally, label: str):
    lib = list(result.library)
    tally.item(f"{label}: rewritten keys", lambda: set(result.rewritten) == set(corpus_in))
    for key in sorted(result.rewritten):
        tally.item(
            f"{label}: rewrite {key} expands to its input",
            expands_to,
            result.rewritten[key],
            lib,
            corpus_in[key],
            list(lib_in),
        )
    for a in result.new_abstractions:
        tally.item(f"{label}: abstraction {a.name}", abstraction_sound, a, lib, result.rewritten, prims)
    tally.item(f"{label}: description length", dl_accounted, corpus_in, grammar_in, result, prims)


# --- eval and fresh states -------------------------------------------------


def _task_arrays(task, prims):
    ids = {w: i for i, w in enumerate(prims.action_words)}
    grids = np.array([s.flat() for s, _ in task.steps], dtype=np.int64)
    dirs = np.array([s.direction or 0 for s, _ in task.steps], dtype=np.int64)
    acts = np.array([ids[a] for _, a in task.steps], dtype=np.int64)
    first = task.steps[0][0]
    return grids, dirs, acts, first.width, first.height


def eval_rows_cover(rows: list, history) -> bool:
    Ls = sorted({h["L"] for h in history})
    return rows[0] == ["L", "accuracy", "n_tasks"] and [int(r[0]) for r in rows[1:]] == Ls


def eval_row_matches(row: list, L: int, fresh, codes, prims) -> bool:
    """The row's n_tasks and accuracy equal a recount with the kernel."""
    tasks = slice_tasks(fresh, L)
    hits = 0
    for task in tasks.tasks:
        grids, dirs, acts, w, h = _task_arrays(task, prims)
        if any(check_trajectory(c, grids, dirs, acts, w, h) == len(acts) for c in codes):
            hits += 1
    n = tasks.n
    return int(row[0]) == L and int(row[2]) == n > 0 and row[1] == f"{hits / n:.6f}"


def fresh_states(env_tag: str, episodes: int, seed: int, count: int = FRESH_STATES):
    """A seeded sample of states from fresh oracle episodes."""
    trajs = collect_oracle_rollouts(env_tag, episodes, seed=seed)
    states = [s for t in trajs for s, _ in t.steps]
    return random.Random(seed).sample(states, min(count, len(states)))


def kernel_agrees(term, lib, states, prims) -> bool:
    """Interpreter and bytecode kernel pick the same action (or both fail)."""
    flat = expand(term, lib)
    return all(interp_action(flat, s, prims) == kernel_action(flat, s, prims) for s in states)


def imitates_expanded(term, lib, task, prims) -> bool:
    """The term, expanded with `lib`, reproduces every recorded action of the
    task under the interpreter."""
    flat = expand(term, lib)
    return all(interp_action(flat, s, prims) == a for s, a in task.steps)


def check_on_states(lib, programs: dict, states, prims, tally, label: str) -> None:
    for key in sorted(programs):
        tally.item(f"{label} {key}: kernel agrees with interpreter", kernel_agrees, programs[key], lib, states, prims)


# --- whole curriculum runs -------------------------------------------------


def _read_json(path: Path):
    return json.loads(path.read_text(encoding="utf-8"))


def check_run(out: Path, doc: dict, kept: dict, prims, tally) -> None:
    """Every check of a curriculum run: solved programs, dreams, libraries, eval."""
    config = doc["config"]
    history = doc["history"]
    tally.item(
        "run: one capture of each stage per iteration",
        lambda: len(kept["dreams"]) == len(kept["searches"]) == len(kept["compressions"]) == len(history),
    )
    lib_before: list = []
    for i, h in enumerate(history):
        it = out / f"iter-{h['iteration']}"
        grammar = load_grammar(it / "grammar.json")
        tasks = load_task_set(it / "taskset.json")
        solved = _read_json(it / "solved.json")
        for entry in solved["solved"]:
            tid = entry["taskId"]
            task = tasks.by_id(tid)
            tally.item(f"iter {i} {tid}: dlNats", dl_matches, entry, grammar, lib_before, prims)
            tally.item(
                f"iter {i} {tid}: candidatesTried",
                within_candidate_cap,
                entry,
                config["programs_per_task"],
            )
            for j, text in enumerate(entry["programs"]):
                tally.item(
                    f"iter {i} {tid}: program {j} imitates",
                    program_imitates,
                    text,
                    lib_before,
                    task,
                    prims,
                )
        if i < len(kept["searches"]):
            budget, results = kept["searches"][i]
            for tid in sorted(results):
                tally.item(f"iter {i} {tid}: search stop", search_stop_ok, results[tid], budget)
        if config["corpus_size"] > 0:
            corpus = _read_json(it / "corpus.json")
            for j, text in enumerate(corpus["programs"]):
                tally.item(
                    f"iter {i} dream {j}: depth and type",
                    dream_well_formed,
                    text,
                    lib_before,
                    prims,
                    config["d_max"],
                )
            if i < len(kept["dreams"]):
                params, lib, picked = kept["dreams"][i]
                for dream in picked:
                    tally.item(
                        f"iter {i} {dream.traj_id}: replay",
                        dream_replays,
                        dream,
                        list(lib),
                        prims,
                        params.warmup_max,
                    )
        if i < len(kept["compressions"]):
            corpus_in, grammar_in, lib_in, result = kept["compressions"][i]
            check_compression(corpus_in, grammar_in, lib_in, result, prims, tally, f"iter {i}")
            report = _read_json(it / "report.json")
            tally.item(f"iter {i}: report.json", report_matches, report, result)
        lib_before = load_library(it / "library.json", prims)
    _check_eval(out, history, kept, prims, tally)


def final_corpus(out: Path, doc: dict, prims):
    """The last iteration's library and its rewritten corpus, parsed."""
    last = out / f"iter-{doc['history'][-1]['iteration']}"
    lib = load_library(last / "library.json", prims)
    report = _read_json(last / "report.json")
    texts = sorted({entry["program"] for entry in report["rewritten"]})
    return lib, [_parse(text, lib, prims) for text in texts]


def _check_eval(out: Path, history, kept, prims, tally) -> None:
    with open(out / "eval.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    tally.item("eval.csv: one row per L visited", eval_rows_cover, rows, history)
    lib, programs = final_corpus(out, {"history": history}, prims)
    codes = [compile_term(expand(p, lib), prims).code for p in programs]
    fresh = kept["oracle"][-1]
    for row in rows[1:]:
        tally.item(f"eval.csv: L={row[0]}", eval_row_matches, row, int(row[0]), fresh, codes, prims)
