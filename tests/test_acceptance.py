"""Acceptance suite: the ten primary criteria, one test (= one line) each.

Criteria 5 and 10 piggyback on the end-to-end desk run of criterion 7; the
session-scoped fixture below executes that run once through the real CLI.
"""

import json
import random
import zlib

import pytest

from conftest import LISTING_WALL_CHECK, maze_state
from gridsynth.cli import main
from gridsynth.data import (
    RolloutParams,
    Task,
    accuracy,
    collect_oracle_rollouts,
    collect_program_rollouts,
    imitates,
    load_task_set,
    slice_tasks,
)
from gridsynth.envs import env_spec, make_env
from gridsynth.errors import GridSynthError
from gridsynth.explain import render_svg, trace_execution
from gridsynth.grammar import (
    add_abstractions,
    description_length,
    load_grammar,
    sample_program,
    tables_for,
    uniform_grammar,
)
from gridsynth.interp import exec_program
from gridsynth.lang import BOOL, Apply, Lambda, Prim, Var
from gridsynth.library import compress, expand, load_library
from gridsynth.primitives import primitive_table
from gridsynth.search import SearchBudget, _stream, solve_many
from gridsynth.sexpr import parse_program, print_program
from gridsynth.state import GridState
from gridsynth.typecheck import infer_type

MAZE = primitive_table("maze")

# Five-step maze reference prompt, frozen byte for byte.
GOLDEN_PROMPT = (
    "22222222221222212222122220 left "
    "12222222221222222222222223 left "
    "11121121221211122222222222 left "
    "22222222221111122122111211 forward "
    "22222222221111121222112111 forward"
)


@pytest.fixture(scope="session")
def desk_run(tmp_path_factory):
    out = tmp_path_factory.mktemp("acceptance") / "desk-a"
    code = main(["run", "--env", "maze", "--profile", "desk", "--seed", "7",
                 "--out", str(out)])
    assert code == 0
    return out


def test_criterion_01_dsl_contract():
    term = parse_program(LISTING_WALL_CHECK, MAZE)
    assert str(infer_type(term, MAZE)) == "map -> action"
    assert exec_program(term, maze_state(wall_at=[(1, 0)]), MAZE) == "left"
    for state in (maze_state(), maze_state(wall_at=[(2, 2), (0, 4)])):
        assert exec_program(term, state, MAZE) == "forward"


def test_criterion_02_prompt_byte_equality():
    from gridsynth.data import encode_prompt

    segments = GOLDEN_PROMPT.split(" ")
    steps = []
    for digits, action in zip(segments[0::2], segments[1::2]):
        assert len(digits) == 26
        state = GridState.from_digits(digits[:25], 5, direction=int(digits[25]))
        steps.append((state, action))
    task = Task(task_id="golden", env_tag="maze", steps=tuple(steps))
    assert encode_prompt(task) == GOLDEN_PROMPT


def _brute_force_terms(prims, request, max_depth):
    """Independent generation oracle: every eta-long term of the request type
    whose s-expression depth fits the budget."""
    sig = {p.name: p.type for p in prims.entries}
    binders = []
    ty = request
    while hasattr(ty, "src"):
        binders.append(ty.src)
        ty = ty.dst
    ret = ty

    def leaves(want, env):
        out = [Var(i) for i, t in enumerate(env) if t == want]
        out += [Prim(n) for n, t in sig.items() if t == want]
        return out

    def terms(want, depth, env):
        if depth < 1:
            return []
        found = list(leaves(want, env))
        if depth == 1:
            return found
        for name, ty in sig.items():
            if not hasattr(ty, "src"):
                continue
            if name == "if":
                arg_tys, r = [BOOL, want, want], want
            else:
                arg_tys, r = [], ty
                while hasattr(r, "src"):
                    arg_tys.append(r.src)
                    r = r.dst
            if r != want:
                continue
            pools = [terms(t, depth - 1, env) for t in arg_tys]
            combos = [[]]
            for pool in pools:
                combos = [c + [a] for c in combos for a in pool]
            for args in combos:
                node = Prim(name)
                for a in args:
                    node = Apply(node, a)
                found.append(node)
        return found

    env = tuple(reversed(binders))
    bodies = terms(ret, max_depth - len(binders), env)
    out = set()
    for body in bodies:
        term = body
        for _ in binders:
            term = Lambda(term)
        out.add(print_program(term))
    return out


def test_criterion_03_enumeration_order_and_completeness():
    tables = tables_for(uniform_grammar(MAZE), MAZE.request)
    stream = _stream(tables, 6)
    prev = float("-inf")
    for _ in range(10000):
        dl, _term = next(stream)
        assert dl >= prev - 1e-9
        prev = dl
    yielded = {print_program(t) for _, t in _stream(tables, 4)}
    brute = _brute_force_terms(MAZE, MAZE.request, 4)
    assert yielded == brute and len(brute) == 3


def test_criterion_04_resolve_rate():
    grammar = uniform_grammar(MAZE)
    params = RolloutParams(t_min=5, t_max=60)
    trajs = collect_program_rollouts(
        grammar, "maze", 40, params, seed=404, d_max=4
    )
    tasks = slice_tasks(trajs, 3)
    assert tasks.n >= 200
    full = {t.traj_id: Task(t.traj_id, "maze", t.steps) for t in trajs}
    budget = SearchBudget(timeout_sec=5.0, top_k=1, max_candidates=None)
    results = solve_many(grammar, tasks.tasks[:200], budget, (), 6)
    good = 0
    for task in tasks.tasks[:200]:
        res = results[task.task_id]
        if not res.programs:
            continue
        holdout = full[task.task_id.rsplit(":", 1)[0]]
        if imitates(res.programs[0], holdout, MAZE):
            good += 1
    assert good / 200 >= 0.90


def _acc_entry_task(run_dir):
    """Map accumulated-corpus keys (L<k>:<taskId>) back to Task objects."""
    lookup = {}
    for it in sorted(run_dir.glob("iter-*")):
        tasks = load_task_set(it / "taskset.json")
        for task in tasks.tasks:
            lookup[(tasks.L, task.task_id)] = task
    return lookup


def test_criterion_05_compression_soundness(desk_run):
    lookup = _acc_entry_task(desk_run)
    iters = sorted(desk_run.glob("iter-*"), key=lambda p: int(p.name.split("-")[1]))
    assert iters
    for it in iters:
        report = json.loads((it / "report.json").read_text())
        assert report["dlAfter"] <= report["dlBefore"] + 1e-9
        library = load_library(it / "library.json", MAZE)
        defs = {a.name: a.body for a in library}
        for a in library:
            assert a.use_count >= 2 and a.arity <= 3
        for entry in report["rewritten"]:
            l_part, task_id = entry["key"].split(":", 1)
            task = lookup[(int(l_part[1:]), task_id)]
            term = parse_program(entry["program"], MAZE, extra=defs)
            assert imitates(term, task, MAZE, library=library)
    # Idempotence at the fixpoint reached by the run.
    last = iters[-1]
    report = json.loads((last / "report.json").read_text())
    library = load_library(last / "library.json", MAZE)
    defs = {a.name: a.body for a in library}
    corpus = {
        e["key"]: parse_program(e["program"], MAZE, extra=defs)
        for e in report["rewritten"]
    }
    grammar = add_abstractions(load_grammar(last / "grammar.json"), library)
    again = compress(corpus, grammar, library=library, max_arity=3)
    assert again.new_abstractions == ()
    assert again.dl_after == pytest.approx(again.dl_before, abs=1e-9)


def test_criterion_06_curriculum_advance_table():
    from gridsynth.curriculum import CurriculumState, advance

    state = CurriculumState(L=3)
    seq = []
    for rate in [0.12, 0.05, 0.11, 0.04, 0.03]:
        seq.append(state.L)
        state = advance(state, rate)
        if state.stopped:
            seq.append("Stop")
            break
    assert seq == [3, 4, 4, 5, 5, "Stop"]


def test_criterion_07_end_to_end_desk_run(desk_run, capsys):
    doc = json.loads((desk_run / "run.json").read_text())
    history = doc["history"]
    assert len(history) >= 3
    assert max(h["L"] for h in history) >= 4
    assert history[0]["L"] == 3 and history[0]["solveRate"] >= 0.10
    final_lib = json.loads(
        (desk_run / f"iter-{history[-1]['iteration']}" / "library.json").read_text()
    )
    assert len(final_lib["abstractions"]) >= 1
    assert main(["library", str(desk_run)]) == 0
    out = capsys.readouterr().out
    assert "Number of extracted functions:" in out

    # An abstraction introduced earlier must appear in a later program and
    # be cheaper as a call than fully expanded, under that iteration's grammar.
    introduced = {}
    for h in history:
        for name in h["newAbstractions"]:
            introduced.setdefault(name, h["iteration"])
    witnessed = False
    for h in history:
        k = h["iteration"]
        it = desk_run / f"iter-{k}"
        solved = json.loads((it / "solved.json").read_text())
        library = load_library(it / "library.json", MAZE)
        defs = {a.name: a.body for a in library}
        grammar = load_grammar(it / "grammar.json")
        for entry in solved["solved"]:
            for text in entry["programs"]:
                called = [
                    n for n in introduced
                    if introduced[n] < k and (f"({n} " in text or f"({n})" in text)
                ]
                if not called:
                    continue
                term = parse_program(text, MAZE, extra=defs)
                dl_call = description_length(grammar, term, MAZE.request)
                dl_flat = description_length(
                    grammar, expand(term, library), MAZE.request
                )
                assert dl_call < dl_flat
                witnessed = True
    assert witnessed


def _brute_accuracy(solutions, tasks, prims):
    """No early abort: every candidate evaluated on every step."""
    if not tasks.tasks:
        return 0.0
    hits = 0
    for task in tasks.tasks:
        task_ok = False
        for prog in solutions.get(task.task_id, ()):
            term = parse_program(prog, prims) if isinstance(prog, str) else prog
            results = []
            for state, action in task.steps:
                try:
                    results.append(exec_program(term, state, prims) == action)
                except GridSynthError:
                    results.append(False)
            if all(results):
                task_ok = True
        if task_ok:
            hits += 1
    return hits / len(tasks.tasks)


def test_criterion_08_accuracy_matches_brute_force():
    trajs = collect_oracle_rollouts("maze", 6, seed=88)
    tasks = slice_tasks(trajs, 3)
    pool_texts = [
        "(λ(x) (λ(y) left-action))",
        "(λ(x) (λ(y) right-action))",
        "(λ(x) (λ(y) forward-action))",
        "(λ(x) (λ(y) (if (eq-direction? y direction-0) forward-action left-action)))",
        "(λ(x) (λ(y) (if (eq-obj? wall-obj (get x 1 2)) left-action forward-action)))",
        "(λ(x) (λ(y) (if (eq-obj? wall-obj (get x 5 5)) left-action forward-action)))",
    ]
    pool = [parse_program(t, MAZE) for t in pool_texts]
    rng = random.Random(777)
    ids = [t.task_id for t in tasks.tasks]
    for trial in range(500):
        chosen = rng.sample(ids, k=rng.randint(0, len(ids)))
        solutions = {
            tid: [rng.choice(pool) for _ in range(rng.randint(1, 2))]
            for tid in chosen
        }
        assert accuracy(solutions, tasks) == _brute_accuracy(solutions, tasks, MAZE)


class _RecordingState(GridState):
    def __init__(self, state):
        super().__init__(cells=state.cells, width=state.width, direction=state.direction)
        object.__setattr__(self, "reads", set())

    def cell(self, x, y):
        self.reads.add((x, y))
        return super().cell(x, y)


def test_criterion_09_explanation_agreement():
    checked = 0
    for env_tag, n in [("maze", 334), ("asterix", 333), ("spaceinvaders", 333)]:
        prims = primitive_table(env_tag)
        grammar = uniform_grammar(prims)
        rng = random.Random(zlib.crc32(env_tag.encode()))
        env = make_env(env_tag)
        actions = env_spec(env_tag).actions
        states = []
        while len(states) < 40:
            env.reset(rng.randrange(1 << 30), rng.randrange(1 << 30))
            for _ in range(8):
                states.append(env.observe())
                if env.done or len(states) >= 40:
                    break
                env.step(rng.choice(actions))
        for k in range(n):
            term = sample_program(grammar, 5, 5000 + k)
            state = states[k % len(states)]
            rec = _RecordingState(state)
            try:
                want = exec_program(term, rec, prims)
            except GridSynthError as exc:
                want = ("error", type(exc).__name__)
            expl = trace_execution(term, state, prims)
            if isinstance(want, tuple):
                assert expl.chosen_action is None
                assert expl.error.split(":")[0] == want[1]
            else:
                assert expl.chosen_action == want and expl.error is None
            assert set(expl.highlighted_cells) == rec.reads
            checked += 1
    assert checked == 1000
    # Golden: the wall-check program's SVG highlights exactly cell (1,0).
    expl = trace_execution(
        parse_program(LISTING_WALL_CHECK, MAZE), maze_state(wall_at=[(1, 0)]), MAZE
    )
    svg = render_svg(expl, "maze")
    marks = [l for l in svg.splitlines() if "#ffd400" in l]
    assert len(marks) == 1 and 'x="32" y="0"' in marks[0]


def test_criterion_10_determinism(desk_run, tmp_path_factory):
    out = tmp_path_factory.mktemp("acceptance-det") / "desk-b"
    watched = ("solved.json", "library.json", "eval.csv")

    def snapshot(run_dir):
        return {
            p.relative_to(run_dir).as_posix(): p.read_bytes()
            for p in sorted(run_dir.rglob("*"))
            if p.name in watched
        }

    want = snapshot(desk_run)
    assert any(k.endswith("eval.csv") for k in want)
    assert main(["run", "--env", "maze", "--profile", "desk", "--seed", "7",
                 "--out", str(out)]) == 0
    assert snapshot(out) == want
