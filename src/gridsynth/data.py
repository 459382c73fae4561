"""Imitation data: rollouts, sub-trajectory tasks, accuracy, text prompts.

Trajectories come either from the scripted oracle or from sampled programs
run inside a seeded environment. A trajectory is sliced into non-overlapping
length-L windows, each of which becomes one imitation task: find a program
whose action matches the recorded action on every state of the window.
Rollouts of sampled programs run on the interpreter, the semantics of
record (`ProgramRunner`). Every imitation check (search, `imitated`,
`imitates`, `accuracy`) lays its windows' states end to end in one
`kernel.StateBatch` (`window_batch`), checks each program once over all of
them and reads the windows it imitates off the states it gets wrong
(`kernel.covered`). The search checks each candidate from its derivation;
the checks here take the library-expanded term (`StateBatch.check`).

Trajectories are stored as rollouts JSON (`save_rollouts`), each grid as
its digit string (`GridState.digits`), as in prompts; a task-set file names
a rollouts file and L (`task_set_ref`) instead of holding steps. A dream's
trajectory also holds its sampled term (`Trajectory.program`), which dream
recovery prices; the file keeps only its text.
"""
from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from itertools import cycle, islice
from pathlib import Path

from gridsynth.envs import env_spec, make_env
from gridsynth.errors import (
    GridSynthError, IllegalActionError, OutOfBoundsGetError, TypeMismatchError, UnknownTaskIdError,
)
from gridsynth.grammar import Grammar, sample_program
from gridsynth.interp import exec_program
from gridsynth.kernel import StateBatch, covered
from gridsynth.lang import ACTION, MAP, Term, arrow, inline
from gridsynth.library import definitions
from gridsynth.primitives import PrimTable, primitive_table
from gridsynth.sexpr import parse_program, print_program
from gridsynth.state import GridState
from gridsynth.typecheck import infer_type

TASKSET_SCHEMA = "gridsynth-taskset-v2"
ROLLOUTS_SCHEMA = "gridsynth-rollouts-v2"
_SEED_RANGE = 1 << 62


@dataclass(frozen=True)
class RolloutParams:
    """Program-rollout length bounds plus the MinAtar oracle warmup cap."""

    t_min: int
    t_max: int
    warmup_max: int = 0


def default_params(env_tag: str) -> RolloutParams:
    if env_tag == "maze":
        return RolloutParams(t_min=5, t_max=60, warmup_max=0)
    return RolloutParams(t_min=3, t_max=20, warmup_max=20)


@dataclass(frozen=True)
class Trajectory:
    traj_id: str
    env_tag: str
    steps: tuple  # ((GridState, action word), ...)
    provenance: str  # "oracle" or the generating program text
    seeds: tuple  # (layout seed, dynamics seed)
    # the sampled term `provenance` prints; None for the oracle's and for
    # loaded rollouts, and not saved
    program: Term | None = field(default=None, compare=False, repr=False)


@dataclass(frozen=True)
class Task:
    """One sub-trajectory: the unit the synthesizer tries to imitate."""

    task_id: str
    env_tag: str
    steps: tuple


@dataclass(frozen=True)
class TaskSet:
    env_tag: str
    L: int
    tasks: tuple

    @property
    def n(self) -> int:
        return len(self.tasks)

    def by_id(self, task_id: str) -> Task:
        for task in self.tasks:
            if task.task_id == task_id:
                return task
        raise UnknownTaskIdError(f"no task with id {task_id!r}")


def _as_term(program, prims: PrimTable, library=None) -> Term:
    if isinstance(program, str):
        return parse_program(program, prims, extra=definitions(library))
    return program


class ProgramRunner:
    """Executes one program on observations with the interpreter.

    The program is library-expanded once, so `run` evaluates a term of
    primitives alone and builds no library definitions per step.
    """

    def __init__(self, term: Term, prims: PrimTable, library=None):
        defs = definitions(library)
        self.term = inline(term, defs) if defs else term
        self.prims = prims

    def run(self, state: GridState) -> str | None:
        """Action word for one state, or None if a `get` falls outside the
        grid; any other evaluation error propagates."""
        try:
            return exec_program(self.term, state, self.prims)
        except OutOfBoundsGetError:
            return None


def collect_oracle_rollouts(env_tag: str, count: int, seed: int, max_steps: int = 200):
    """Full oracle episodes, truncated at max_steps, one fresh env per episode."""
    rng = random.Random(seed)
    out = []
    for i in range(count):
        layout = rng.randrange(_SEED_RANGE)
        dynamics = rng.randrange(_SEED_RANGE)
        env = make_env(env_tag)
        obs = env.reset(layout, dynamics)
        steps = []
        for _ in range(max_steps):
            action = env.oracle_action()
            steps.append((obs, action))
            obs, done = env.step(action)
            if done:
                break
        out.append(Trajectory(f"oracle-{i:04d}", env_tag, tuple(steps), "oracle", (layout, dynamics)))
    return out


def collect_program_rollouts(
    grammar: Grammar,
    env_tag: str,
    count: int,
    params: RolloutParams,
    seed: int,
    d_max: int,
    library=None,
):
    """Rollouts whose actions come from sampled programs, states from the env.

    Each program runs for t ~ Uniform[t_min, t_max] steps after an optional
    oracle warmup of Uniform[0, warmup_max] steps. The episode ending or the
    program's `get` falling outside the grid truncates the trajectory; empty
    trajectories are dropped.

    The result is the same as running the program on every step, with less
    work. Each distinct sampled program is inlined and printed once, and
    each trajectory holds its term (`program`). Where the env has a
    `state_key`, a dream that comes back to a state it was in has entered a
    cycle: the program is deterministic, so the steps from that state's
    first visit repeat until t, and are copied instead of stepped. An
    episode in a cycle never ends, since it would have ended on the cycle's
    first pass.
    """
    prims = primitive_table(env_tag)
    rng = random.Random(seed)
    programs: dict = {}  # sampled term -> (runner, printed text)
    out = []
    for i in range(count):
        term = sample_program(grammar, d_max, rng.randrange(_SEED_RANGE))
        t = rng.randint(params.t_min, params.t_max)
        layout = rng.randrange(_SEED_RANGE)
        dynamics = rng.randrange(_SEED_RANGE)
        env = make_env(env_tag)
        obs = env.reset(layout, dynamics)
        done = False
        if params.warmup_max > 0:
            for _ in range(rng.randint(0, params.warmup_max)):
                obs, done = env.step(env.oracle_action())
                if done:
                    break
        program = programs.get(term)
        if program is None:
            program = programs[term] = (ProgramRunner(term, prims, library), print_program(term))
        runner, text = program
        steps = []
        first: dict = {}  # state key -> index of the step taken from that state
        while not done and len(steps) < t:
            key = env.state_key()
            if key is not None:
                start = first.setdefault(key, len(steps))
                if start < len(steps):
                    steps.extend(islice(cycle(steps[start:]), t - len(steps)))
                    break
            action = runner.run(obs)
            if action is None:
                break
            steps.append((obs, action))
            obs, done = env.step(action)
        if steps:
            out.append(Trajectory(f"prog-{i:05d}", env_tag, tuple(steps), text, (layout, dynamics), term))
    return out


def slice_tasks(trajs, L: int) -> TaskSet:
    """Non-overlapping length-L windows; a tail shorter than L is dropped."""
    if not isinstance(L, int) or L < 1:
        raise GridSynthError(f"slice length must be an integer of at least 1, got {L!r}")
    if not trajs:
        raise GridSynthError("cannot slice an empty trajectory list")
    env_tag = trajs[0].env_tag
    tasks = []
    for traj in trajs:
        if traj.env_tag != env_tag:
            raise GridSynthError("all trajectories in a slice must share one environment")
        for off in range(0, len(traj.steps) - L + 1, L):
            tasks.append(Task(f"{traj.traj_id}:{off:03d}", env_tag, traj.steps[off : off + L]))
    return TaskSet(env_tag, L, tuple(tasks))


def checked_program(program, prims: PrimTable, library=None) -> Term:
    """A program, given as text or as a term, type-checked and expanded with
    its library, as the kernel runs it.

    The kernel runs whatever it is given, so the program is type-checked
    first: it must take the map (on the maze, the direction too) and return
    an action, or TypeMismatchError is raised.
    """
    term = _as_term(program, prims, library)
    ty = infer_type(term, prims, library)
    if ty not in (prims.request, arrow(MAP, ACTION)):
        raise TypeMismatchError(expected=str(prims.request), found=str(ty), location="program")
    defs = definitions(library)
    return inline(term, defs) if defs else term


def window_batch(tasks, prims: PrimTable):
    """The tasks' states laid end to end in one `StateBatch`, directions 0
    where a state has none, and the bit of each task's first state."""
    ids = {w: i for i, w in enumerate(prims.action_words)}
    grids, dirs, acts, starts = [], [], [], []
    for task in tasks:
        illegal = [a for _, a in task.steps if a not in ids]
        if illegal:
            raise IllegalActionError(f"task {task.task_id} records {illegal[0]!r}, not one of {prims.action_words}")
        starts.append(len(acts))
        grids += [s.flat() for s, _ in task.steps]
        dirs += [s.direction or 0 for s, _ in task.steps]
        acts += [ids[a] for _, a in task.steps]
    height, width = env_spec(prims.env_tag).obs_shape
    return StateBatch(grids, dirs, acts, width, height), starts


def imitated(terms, tasks, prims: PrimTable) -> list[bool]:
    """For each task, whether one of the checked programs (`checked_program`)
    reproduces every recorded action of it; a program that fails to
    evaluate on a step does not. Each program is checked once over every
    task's states."""
    batch, starts = window_batch(tasks, prims)
    lengths = [len(t.steps) for t in tasks]
    windows = {}  # length -> the first bits of the windows of that length
    for n, s in zip(lengths, starts):
        windows[n] = windows.get(n, 0) | 1 << s
    hit = dict.fromkeys(windows, 0)
    for term in terms:
        wrong = batch.all ^ batch.check(term, prims)
        for n, bits in windows.items():
            hit[n] |= covered(wrong, bits & ~hit[n], n)
    return [bool(hit[n] >> s & 1) for n, s in zip(lengths, starts)]


def imitates(program, task: Task, prims: PrimTable | None = None, library=None) -> bool:
    """True iff the program reproduces every recorded action; a step it fails
    to evaluate is a mismatch. An empty task is imitated by every program, and
    an ill-typed program raises TypeMismatchError."""
    prims = prims or primitive_table(task.env_tag)
    return imitated([checked_program(program, prims, library)], [task], prims)[0]


def accuracy(solutions: dict, tasks: TaskSet, library=None) -> float:
    """Fraction of tasks with at least one re-verified imitating program."""
    prims = primitive_table(tasks.env_tag)
    known = {t.task_id for t in tasks.tasks}
    unknown = set(solutions) - known
    if unknown:
        raise UnknownTaskIdError(f"solutions reference unknown tasks: {sorted(unknown)[:3]}")
    if not tasks.tasks:
        return 0.0
    hits = 0
    for task in tasks.tasks:
        if any(imitates(p, task, prims, library) for p in solutions.get(task.task_id, ())):
            hits += 1
    return hits / len(tasks.tasks)


def encode_prompt(task) -> str:
    """Digit-string encoding: grid digits, maze direction digit, action word."""
    segments = []
    for state, action in task.steps:
        digits = state.digits()
        if state.direction is not None:
            digits += str(state.direction)
        segments.append(f"{digits} {action}")
    return " ".join(segments)


def export_prompts(tasks: TaskSet, path) -> None:
    """One prompt per line, each ending in a newline, so no prompts is an
    empty file; the conventional extension is .prompts.txt."""
    text = "".join(encode_prompt(task) + "\n" for task in tasks.tasks)
    Path(path).write_text(text, encoding="utf-8")


def _step_json(state: GridState, action: str) -> dict:
    step = {"grid": state.digits(), "action": action}
    if state.direction is not None:
        step["direction"] = state.direction
    return step


def check_schema(doc, schema: str, what: str) -> None:
    """GridSynthError unless `doc` is a JSON object of schema `schema`."""
    found = doc.get("schema") if isinstance(doc, dict) else None
    if found != schema:
        raise GridSynthError(f"unexpected {what} schema {found!r}")


def task_set_ref(env_tag: str, L: int, oracle: str) -> dict:
    """The task set of the length-L windows of the rollouts file `oracle`, a
    path relative to the task set's own file."""
    return {"schema": TASKSET_SCHEMA, "envTag": env_tag, "L": L, "oracle": oracle}


def load_task_set(path) -> TaskSet:
    """The windows a task-set file (`task_set_ref`) names: its rollouts file,
    sliced at its L. GridSynthError with one line if either document is
    malformed or the two name different environments."""
    path = Path(path)
    doc = json.loads(path.read_text(encoding="utf-8"))
    check_schema(doc, TASKSET_SCHEMA, "task-set")
    try:
        env_tag, L, oracle = doc["envTag"], doc["L"], doc["oracle"]
    except KeyError as exc:
        raise GridSynthError(f"task-set document has no {exc} field") from exc
    if not isinstance(oracle, str):
        raise GridSynthError(f"task-set oracle {oracle!r} is not a path")
    trajs = load_rollouts(path.parent / oracle)
    if trajs and trajs[0].env_tag != env_tag:
        raise GridSynthError(f"task set is for {env_tag!r}, but its oracle is for {trajs[0].env_tag!r}")
    return slice_tasks(trajs, L)


def rollouts_to_json(trajs) -> dict:
    return {
        "schema": ROLLOUTS_SCHEMA,
        "envTag": trajs[0].env_tag if trajs else None,
        "rollouts": [
            {
                "id": t.traj_id,
                "provenance": t.provenance,
                "seeds": list(t.seeds),
                "steps": [_step_json(s, a) for s, a in t.steps],
            }
            for t in trajs
        ],
    }


def _step_direction(step: dict, env_tag: str) -> int | None:
    """A maze step's direction, an int in 0-3; a MinAtar step has none."""
    if env_tag != "maze":
        if "direction" in step:
            raise ValueError(f"{env_tag} steps have no direction, but one has {step['direction']!r:.40}")
        return None
    direction = step["direction"]
    if type(direction) is not int or not 0 <= direction < 4:  # True is an int
        raise ValueError(f"a maze direction must be an int in 0-3, not {direction!r:.40}")
    return direction


def rollouts_from_json(doc):
    """The trajectories of a rollouts document; GridSynthError with one line
    if it is malformed, such as a missing field, a grid that is not a digit
    string of the env's height by width, or a direction on a MinAtar step
    or not in 0-3 on a maze step."""
    check_schema(doc, ROLLOUTS_SCHEMA, "rollouts")
    out = []
    try:
        env_tag, rollouts = doc["envTag"], doc["rollouts"]
        height, width = env_spec(env_tag).obs_shape if rollouts else (0, 0)
        for r in rollouts:
            steps = []
            for step in r["steps"]:
                state = GridState.from_digits(step["grid"], width, _step_direction(step, env_tag))
                if len(state.cells) != height * width:
                    raise ValueError(f"a grid of {len(state.cells)} cells is not {height}x{width}")
                steps.append((state, step["action"]))
            out.append(Trajectory(r["id"], env_tag, tuple(steps), r["provenance"], tuple(r["seeds"])))
    except KeyError as exc:
        raise GridSynthError(f"rollouts document has no {exc} field") from exc
    except (TypeError, ValueError) as exc:
        raise GridSynthError(f"malformed rollouts document: {exc}") from exc
    return out


def save_rollouts(trajs, path) -> None:
    """Write `json.dumps(rollouts_to_json(trajs), indent=2)` and a newline;
    MultiDigitCodeError, and no file, if a cell code is not one digit."""
    Path(path).write_text(json.dumps(rollouts_to_json(trajs), indent=2) + "\n", encoding="utf-8")


def load_rollouts(path):
    return rollouts_from_json(json.loads(Path(path).read_text(encoding="utf-8")))
