"""Show that every output check accepts real artifacts and rejects corrupted ones.

    python3 perfbench/selftest.py

Runs a small maze curriculum (two iterations, 30 dreams) and compresses the
first 80 programs of the committed corpus, checks both in full, then hands
each check a corrupted copy of one artifact. Exits 1 if a real artifact fails
or a corruption gets through.
"""
from __future__ import annotations

import csv
import dataclasses
import json
import shutil
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import checks  # noqa: E402
import workloads  # noqa: E402
from tracing import Capture  # noqa: E402

from gridsynth import curriculum, library  # noqa: E402
from gridsynth.data import Task, load_task_set  # noqa: E402
from gridsynth.grammar import load_grammar, refit, uniform_grammar  # noqa: E402
from gridsynth.lang import Prim, parse_type  # noqa: E402
from gridsynth.search import SolvedTask  # noqa: E402

WORK = ROOT / "perfbench_out" / "selftest"


def _maze_run():
    wl = workloads.CurriculumWorkload("selftest", "maze")
    inputs = wl.setup(seed=3)
    cap = Capture()
    kept = wl.capture(cap, inputs)
    config = curriculum.default_config(
        "maze", profile="desk", out_dir=str(WORK / "maze"), seed=7, jobs=1,
        corpus_size=30, oracle_episodes=4, max_iterations=2,
    )
    try:
        doc = curriculum.run_curriculum(config)
    finally:
        cap.uninstall()
    return wl, inputs, kept, doc


def _corpus_run():
    inputs = workloads.CompressWorkload().setup(seed=3)
    keys = sorted(inputs["corpus"])[:80]
    inputs["corpus"] = {k: inputs["corpus"][k] for k in keys}
    inputs["grammar"] = refit(uniform_grammar(inputs["prims"]), list(inputs["corpus"].values()))
    result = library.compress(inputs["corpus"], inputs["grammar"], library=(), max_arity=3)
    return inputs, result


def _flip_actions(actions: tuple, prims) -> tuple:
    """The same actions with the last one changed."""
    other = next(w for w in prims.action_words if w != actions[-1])
    return actions[:-1] + (other,)


def _flip(task: Task, prims) -> Task:
    """The same window with its last recorded action changed."""
    actions = _flip_actions(tuple(a for _, a in task.steps), prims)
    return Task(task.task_id, task.env_tag, tuple((s, a) for (s, _), a in zip(task.steps, actions)))


def main() -> int:
    shutil.rmtree(WORK, ignore_errors=True)
    wl, inputs, kept, doc = _maze_run()
    prims = inputs["prims"]
    out = WORK / "maze"
    bad = []

    tally = checks.Tally()
    wl.check(doc, out, kept, inputs, tally)
    print(f"maze run: {tally.attempted} checks, {tally.failed} failed")
    bad += tally.failures

    cinputs, cresult = _corpus_run()
    ctally = checks.Tally()
    workloads.CompressWorkload().check(cresult, WORK, {}, cinputs, ctally)
    print(f"corpus of 80: {ctally.attempted} checks, {ctally.failed} failed")
    bad += ctally.failures

    it0 = out / "iter-0"
    tasks = load_task_set(it0 / "taskset.json")
    grammar = load_grammar(it0 / "grammar.json")
    entry = json.loads((it0 / "solved.json").read_text())["solved"][0]
    task = tasks.by_id(entry["taskId"])
    cap = doc["config"]["programs_per_task"]
    budget, _ = kept["searches"][0]
    params, dream_lib, dreams = kept["dreams"][0]
    dream = dreams[0]
    result = kept["compressions"][0][3]
    with open(out / "eval.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    final_lib, programs = checks.final_corpus(out, doc, prims)
    codes = [checks.compile_term(checks.expand(p, final_lib), prims).code for p in programs]
    fresh = kept["oracle"][-1]
    states = checks.fresh_states("maze", 2, 3)
    key0 = sorted(cresult.rewritten)[0]
    key1 = next(k for k in sorted(cresult.rewritten) if cinputs["corpus"][k] != cinputs["corpus"][key0])
    abstraction = cresult.new_abstractions[0]
    timed_out = SolvedTask("t", (), (), 10, budget.timeout_sec + 1.0)
    slow_budget = dataclasses.replace(budget, max_candidates=1000)

    corruptions = [
        ("solved program misses one recorded action", checks.program_imitates,
         (entry["programs"][0], [], _flip(task, prims), prims)),
        ("solved program calling an abstraction its library lacks", checks.program_imitates,
         ("(λ(x) (λ(y) (f0 left-action)))", [], task, prims)),
        ("dlNats off by half a nat", checks.dl_matches,
         ({**entry, "dlNats": [d + 0.5 for d in entry["dlNats"]]}, grammar, [], prims)),
        ("dlNats decreasing", checks.dl_matches,
         ({**entry, "programs": entry["programs"][:1] * 2, "dlNats": [entry["dlNats"][0] + 1, entry["dlNats"][0]]},
          grammar, [], prims)),
        ("candidatesTried above programs_per_task", checks.within_candidate_cap,
         ({**entry, "candidatesTried": cap + 1}, cap)),
        ("search stopped on its timeout", checks.search_stop_ok, (timed_out, slow_budget)),
        ("dream deeper than d_max", checks.dream_well_formed,
         ("(λ(x) (λ(y) (if (not (not (not (not (eq-direction? direction-0 y))))) left-action right-action)))",
          [], prims, 6)),
        ("dream that does not type-check", checks.dream_well_formed,
         ("(λ(x) (λ(y) (if wall-obj left-action right-action)))", [], prims, 6)),
        ("dream with one recorded action changed", checks.dream_replays,
         (dataclasses.replace(dream, actions=_flip_actions(dream.actions, prims)),
          list(dream_lib), prims, params.warmup_max)),
        ("dream replayed from the wrong seeds", checks.dream_replays,
         (dataclasses.replace(dream, seeds=(dream.seeds[0] + 1, dream.seeds[1])),
          list(dream_lib), prims, params.warmup_max)),
        ("dream with one recorded state changed", checks.dream_replays,
         (dataclasses.replace(dream, state_hashes=(dream.state_hashes[0] + 1,) + dream.state_hashes[1:]),
          list(dream_lib), prims, params.warmup_max)),
        ("rewritten program that no longer expands to its input", checks.expands_to,
         (cresult.rewritten[key1], list(cresult.library), cinputs["corpus"][key0], [])),
        ("abstraction with a wrong declared type", checks.abstraction_sound,
         (dataclasses.replace(abstraction, type=parse_type("map -> action")),
          [dataclasses.replace(abstraction, type=parse_type("map -> action"))], cresult.rewritten, cinputs["prims"])),
        ("abstraction called only once", checks.abstraction_sound,
         (abstraction, list(cresult.library), {"only": Prim(abstraction.name)}, cinputs["prims"])),
        ("dl_after above dl_before", checks.dl_accounted,
         (cinputs["corpus"], cinputs["grammar"], dataclasses.replace(cresult, dl_after=cresult.dl_before + 1.0),
          cinputs["prims"])),
        ("dl_after that no recomputation gives", checks.dl_accounted,
         (cinputs["corpus"], cinputs["grammar"], dataclasses.replace(cresult, dl_after=cresult.dl_after - 1e-3),
          cinputs["prims"])),
        ("report.json with another dlAfter", checks.report_matches,
         ({**json.loads((it0 / "report.json").read_text()), "dlAfter": result.dl_after + 1}, result)),
        ("eval.csv missing the row of one L", checks.eval_rows_cover, (rows[:-1], doc["history"])),
        ("eval.csv accuracy changed", checks.eval_row_matches,
         ([rows[1][0], f"{float(rows[1][1]) + 0.01:.6f}", rows[1][2]], int(rows[1][0]), fresh, codes, prims)),
        ("eval.csv n_tasks changed", checks.eval_row_matches,
         ([rows[1][0], rows[1][1], str(int(rows[1][2]) + 1)], int(rows[1][0]), fresh, codes, prims)),
        ("compressed corpus task with one action changed", checks.imitates_expanded,
         (cresult.rewritten[key0], list(cresult.library), _flip(cinputs["tasks"][key0], cinputs["prims"]),
          cinputs["prims"])),
    ]
    for label, check, args in corruptions:
        rejected = not checks.Tally().item(label, check, *args)
        print(f"  {'rejects' if rejected else 'MISSES '}  {label}")
        if not rejected:
            bad.append(label)

    # A kernel that disagrees with the interpreter on some state.
    original = checks.execute
    checks.execute = lambda code, grid, w, h, d: (original(code, grid, w, h, d) + 1) % len(prims.action_words)
    try:
        rejected = not checks.Tally().item("kernel", checks.kernel_agrees, programs[0], final_lib, states, prims)
    finally:
        checks.execute = original
    print(f"  {'rejects' if rejected else 'MISSES '}  kernel that picks another action than the interpreter")
    if not rejected:
        bad.append("kernel disagreement")

    shutil.rmtree(WORK, ignore_errors=True)
    if bad:
        print("FAILED:", *bad, sep="\n  ")
        return 1
    print("ok: every check accepts the real artifacts and rejects each corruption")
    return 0


if __name__ == "__main__":
    sys.exit(main())
