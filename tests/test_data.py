"""Imitation-data contracts: prompts, slicing, imitates, accuracy, rollouts."""
import json
import random
from dataclasses import replace

import pytest

from conftest import LISTING_WALL_CHECK, learned_grammar, maze_state
from gridsynth import data
from gridsynth.data import (
    ProgramRunner,
    RolloutParams,
    Task,
    TaskSet,
    Trajectory,
    accuracy,
    collect_oracle_rollouts,
    collect_program_rollouts,
    default_params,
    encode_prompt,
    export_prompts,
    imitates,
    load_rollouts,
    load_task_set,
    rollouts_from_json,
    rollouts_to_json,
    save_rollouts,
    slice_tasks,
)
from gridsynth.envs import MazeEnv, make_env
from gridsynth.errors import (
    EvalError,
    GridSynthError,
    IllegalActionError,
    MultiDigitCodeError,
    TypeMismatchError,
    UnknownTaskIdError,
)
from gridsynth.grammar import Grammar, Production, sample_program, uniform_grammar
from gridsynth.interp import exec_program
from gridsynth.lang import ACTION
from gridsynth.primitives import primitive_table
from gridsynth.sexpr import parse_program, print_program
from gridsynth.state import GridState

GOLDEN_PROMPT = (
    "22222222221222212222122220 left 12222222221222222222222223 left "
    "11121121221211122222222222 left 22222222221111122122111211 forward "
    "22222222221111121222112111 forward"
)


def golden_task() -> Task:
    """Rebuild the five-step reference sequence from its own digit strings."""
    steps = []
    for seg_state, seg_action in zip(GOLDEN_PROMPT.split()[0::2], GOLDEN_PROMPT.split()[1::2]):
        state = GridState.from_digits(seg_state[:25], 5, int(seg_state[25]))
        steps.append((state, seg_action))
    return Task("golden:000", "maze", tuple(steps))


def make_traj(n, traj_id="oracle-0000", env_tag="maze"):
    steps = tuple((maze_state(direction=i % 4), "left") for i in range(n))
    return Trajectory(traj_id, env_tag, steps, "oracle", (0, 0))


class TestEncodePrompt:
    def test_golden_prompt_byte_equality(self):
        assert encode_prompt(golden_task()) == GOLDEN_PROMPT

    def test_tiny_grid_concatenation(self):
        state = GridState.from_flat([1, 1, 1, 1], 2)
        task = Task("t", "maze", ((state, "no-op"),))
        assert encode_prompt(task) == "1111 no-op"

    def test_spaceinvaders_segment_is_100_digits(self):
        state = GridState.from_flat([0] * 100, 10)
        task = Task("t", "spaceinvaders", ((state, "fire"),))
        digits, word = encode_prompt(task).split()
        assert len(digits) == 100 and word == "fire"

    def test_segment_length_includes_maze_direction(self):
        prompt = encode_prompt(golden_task())
        for digits in prompt.split()[0::2]:
            assert len(digits) == 26

    def test_multi_digit_code_rejected(self):
        state = GridState.from_flat([12], 1)
        with pytest.raises(MultiDigitCodeError):
            encode_prompt(Task("t", "maze", ((state, "left"),)))


class TestSlice:
    def test_length_seven_gives_two_tasks(self):
        ts = slice_tasks([make_traj(7)], 3)
        assert ts.n == 2 and ts.L == 3
        assert [t.task_id for t in ts.tasks] == ["oracle-0000:000", "oracle-0000:003"]

    def test_short_trajectory_gives_zero_tasks(self):
        assert slice_tasks([make_traj(2)], 3).n == 0

    def test_content_preserved(self):
        traj = make_traj(11)
        ts = slice_tasks([traj], 4)
        rebuilt = sum((list(t.steps) for t in ts.tasks), [])
        assert tuple(rebuilt) == traj.steps[:8]
        assert traj.steps[8:] == traj.steps[2 * 4 :]

    def test_mixed_envs_rejected(self):
        trajs = [make_traj(3), make_traj(3, env_tag="asterix")]
        with pytest.raises(GridSynthError):
            slice_tasks(trajs, 3)


class TestImitates:
    def test_listing_one_on_wall_states(self):
        task = Task(
            "t",
            "maze",
            tuple((maze_state(wall_at=[(1, 0)], direction=0), "left") for _ in range(3)),
        )
        assert imitates(LISTING_WALL_CHECK, task)

    def test_first_mismatch_is_false(self):
        steps = ((maze_state(direction=0), "left"),)  # no wall, yet action left
        assert not imitates(LISTING_WALL_CHECK, Task("t", "maze", steps))

    def test_out_of_bounds_get_is_false(self):
        prog = "(λ(m) (λ(d) (if (eq-obj? wall-obj (get m 5 5)) left-action forward-action)))"
        task = Task("t", "maze", ((maze_state(direction=0), "left"),))
        assert not imitates(prog, task)

    @pytest.mark.parametrize(
        "env_tag,learned",
        [("maze", False), ("asterix", False), ("spaceinvaders", False), ("maze", True)],
        ids=["maze", "asterix", "spaceinvaders", "maze-learned-library"],
    )
    def test_early_abort_matches_full_conjunction(self, env_tag, learned):
        """The kernel-backed `imitates` agrees with the interpreter run on
        every step, with abstractions called rather than inlined."""
        prims = primitive_table(env_tag)
        grammar, library = learned_grammar(prims) if learned else (uniform_grammar(prims), ())
        d_max = 6 if env_tag == "maze" else 5  # both leave a body depth of 4
        rng = random.Random(5)
        outcomes = []
        for trial in range(300):
            term = sample_program(grammar, d_max, rng.randrange(1 << 30))
            steps = []
            for _ in range(3):
                if env_tag == "maze":
                    walls = [(rng.randrange(5), rng.randrange(5)) for _ in range(3)]
                    state = maze_state(wall_at=walls, direction=rng.randrange(4))
                else:
                    state = GridState.from_flat([rng.randrange(5) for _ in range(100)], 10)
                steps.append((state, rng.choice(prims.action_words)))
            if trial % 2:  # record the interpreter's own actions where it has one
                steps = [(s, _interp_action(term, s, prims, library) or a) for s, a in steps]
            task = Task("t", env_tag, tuple(steps))
            full = True
            for state, action in task.steps:  # unoptimized reference: no early abort
                full &= _interp_action(term, state, prims, library) == action
            assert imitates(term, task, prims, library) == full
            outcomes.append(full)
        assert 0 < sum(outcomes) < len(outcomes)

    def test_empty_task_is_imitated(self):
        assert imitates(LISTING_WALL_CHECK, Task("t", "maze", ()))

    @pytest.mark.parametrize(
        "env_tag,text",
        [
            ("maze", "(λ(x) (λ(y) 1))"),  # an int where the action goes; 1 is right-action's id
            ("maze", "(λ(d) (if (eq-direction? d direction-0) right-action left-action))"),  # map as direction
            ("maze", "(λ(x) (λ(y) (if (eq-obj? wall-obj (get y 1 0)) right-action left-action)))"),  # direction as map
            ("asterix", "(λ(x) (λ(y) right-action))"),  # a direction the state does not have
        ],
    )
    def test_ill_typed_program_raises(self, env_tag, text):
        state = maze_state(direction=0) if env_tag == "maze" else GridState.from_flat([0] * 100, 10)
        with pytest.raises(TypeMismatchError):
            imitates(text, Task("t", env_tag, ((state, "right"),)))

    def test_action_outside_the_action_set_raises(self):
        task = Task("t", "maze", ((maze_state(direction=0), "warp"),))
        with pytest.raises(IllegalActionError):
            imitates(LISTING_WALL_CHECK, task)


def _interp_action(term, state, prims, library):
    try:
        return exec_program(term, state, prims, library=library)
    except EvalError:
        return None


def reference_program_rollouts(grammar, env_tag, count, params, seed, d_max, library):
    """`collect_program_rollouts` with the program run on every step, and the
    number of dreams cut short by a failed evaluation."""
    prims = primitive_table(env_tag)
    rng = random.Random(seed)
    out, failed = [], 0
    for i in range(count):
        term = sample_program(grammar, d_max, rng.randrange(1 << 62))
        t = rng.randint(params.t_min, params.t_max)
        layout, dynamics = rng.randrange(1 << 62), rng.randrange(1 << 62)
        env = make_env(env_tag)
        obs = env.reset(layout, dynamics)
        done = False
        if params.warmup_max > 0:
            for _ in range(rng.randint(0, params.warmup_max)):
                obs, done = env.step(env.oracle_action())
                if done:
                    break
        runner = ProgramRunner(term, prims, library)
        steps = []
        while not done and len(steps) < t:
            action = runner.run(obs)
            if action is None:
                failed += 1
                break
            steps.append((obs, action))
            obs, done = env.step(action)
        if steps:
            out.append(Trajectory(f"prog-{i:05d}", env_tag, tuple(steps), print_program(term), (layout, dynamics)))
    return out, failed


class TestAccuracy:
    def wall_tasks(self, n):
        tasks = tuple(
            Task(
                f"t{i:02d}",
                "maze",
                tuple((maze_state(wall_at=[(1, 0)], direction=0), "left") for _ in range(2)),
            )
            for i in range(n)
        )
        return TaskSet("maze", 2, tasks)

    def test_empty_solutions(self):
        assert accuracy({}, self.wall_tasks(4)) == 0.0

    def test_all_solved(self):
        ts = self.wall_tasks(4)
        sols = {t.task_id: [LISTING_WALL_CHECK] for t in ts.tasks}
        assert accuracy(sols, ts) == 1.0

    def test_three_of_ten(self):
        ts = self.wall_tasks(10)
        good = LISTING_WALL_CHECK
        bad = "(λ(x) (λ(y) forward-action))"
        sols = {t.task_id: [good] for t in ts.tasks[:3]}
        sols.update({t.task_id: [bad] for t in ts.tasks[3:6]})
        assert accuracy(sols, ts) == pytest.approx(0.3)

    def test_unknown_task_id(self):
        with pytest.raises(UnknownTaskIdError):
            accuracy({"nope": ["(λ(x) (λ(y) left-action))"]}, self.wall_tasks(2))

    def test_monotone_in_programs(self):
        ts = self.wall_tasks(6)
        bad = "(λ(x) (λ(y) forward-action))"
        sols = {t.task_id: [bad] for t in ts.tasks}
        base = accuracy(sols, ts)
        sols2 = {k: v + [LISTING_WALL_CHECK] for k, v in sols.items()}
        assert accuracy(sols2, ts) >= base
        assert accuracy(sols2, ts) == 1.0


class TestCollect:
    def test_oracle_rollouts_deterministic(self):
        a = collect_oracle_rollouts("maze", 3, seed=2)
        b = collect_oracle_rollouts("maze", 3, seed=2)
        assert [t.steps for t in a] == [t.steps for t in b]
        assert [t.seeds for t in a] == [t.seeds for t in b]

    def test_oracle_rollouts_reach_goal(self):
        for traj in collect_oracle_rollouts("maze", 5, seed=0, max_steps=144):
            assert 1 <= len(traj.steps) <= 144
            assert traj.provenance == "oracle" and traj.program is None
            assert all(a in ("left", "right", "forward") for _, a in traj.steps)

    def test_program_rollout_lengths_in_bounds(self):
        prims = primitive_table("maze")
        grammar = uniform_grammar(prims)
        trajs = collect_program_rollouts(
            grammar, "maze", 20, default_params("maze"), seed=3, d_max=4
        )
        assert trajs, "expected at least one nonempty rollout"
        for traj in trajs:
            assert 5 <= len(traj.steps) <= 60
            assert traj.provenance.startswith("(λ(")

    def test_constant_noop_program_records_noops(self):
        prims = primitive_table("spaceinvaders")
        grammar = Grammar("spaceinvaders", (Production("no-op-action", ACTION, 0.0),), 0.0)
        params = RolloutParams(t_min=3, t_max=8, warmup_max=0)
        trajs = collect_program_rollouts(grammar, "spaceinvaders", 4, params, seed=1, d_max=3)
        assert trajs
        for traj in trajs:
            assert traj.provenance == "(λ(x) no-op-action)"
            assert all(a == "no-op" for _, a in traj.steps)

    @pytest.mark.parametrize("learned", [False, True], ids=["uniform", "learned-library"])
    @pytest.mark.parametrize("env_tag", ["maze", "asterix", "spaceinvaders"])
    def test_program_rollouts_match_a_run_on_every_step(self, env_tag, learned):
        """A dream shares its program's runner with the other dreams of that
        program and copies a cycle's steps; the reference runs the program on
        every step. On the maze, the ints reach past the 5x5 view, so some
        programs fail to evaluate. Each dream holds the term it sampled,
        which its provenance prints and parses back to."""
        prims = primitive_table(env_tag)
        grammar, library = learned_grammar(prims) if learned else (uniform_grammar(prims), ())
        params = RolloutParams(t_min=5, t_max=40, warmup_max=0 if env_tag == "maze" else 10)
        d_max = 8 if env_tag == "maze" else 6
        got = collect_program_rollouts(grammar, env_tag, 30, params, seed=4, d_max=d_max, library=library)
        want, failed = reference_program_rollouts(grammar, env_tag, 30, params, 4, d_max, library)
        assert got == want
        assert sum(len(t.steps) for t in got) > 100
        if env_tag == "maze":
            assert failed > 0
        names = [a.name for a in library]
        for t in got:
            assert print_program(t.program) == t.provenance
            assert parse_program(t.provenance, prims, extra=names) == t.program
        assert not learned or any(name in t.provenance for t in got for name in names)

    def test_rollout_reuse_tells_headings_apart(self, monkeypatch):
        """One grid seen under four headings is four observations."""
        prims = primitive_table("maze")
        term = parse_program(
            "(λ(x) (λ(y) (if (eq-direction? y direction-0) left-action right-action)))", prims
        )

        class TurningEnv:
            def reset(self, layout, dynamics):
                self.obs = maze_state(direction=0)
                return self.obs

            def step(self, action):
                self.obs = maze_state(direction=(self.obs.direction + 1) % 4)
                return self.obs, False

            def state_key(self):
                return None

        monkeypatch.setattr(data, "make_env", lambda env_tag: TurningEnv())
        monkeypatch.setattr(data, "sample_program", lambda grammar, d_max, seed: term)
        params = RolloutParams(t_min=8, t_max=8)
        (traj,) = collect_program_rollouts(uniform_grammar(prims), "maze", 1, params, seed=0, d_max=6)
        assert [a for _, a in traj.steps] == ["left", "right", "right", "right"] * 2

    def test_maze_dreams_fill_cycles_and_share_programs(self, monkeypatch):
        """At the maze's default params most dream steps repeat a cycle, and
        many dreams sample the same program. Filled cycles and shared
        programs give the trajectories of a run on every step, with fewer
        env steps than recorded steps and one compile per distinct program."""
        prims = primitive_table("maze")
        grammar = uniform_grammar(prims)
        params = default_params("maze")
        assert params.t_max == 60
        want, _ = reference_program_rollouts(grammar, "maze", 200, params, 9, 6, ())
        calls = {"step": 0, "compile": 0}
        sampled = set()
        step, compile_term, sample = MazeEnv.step, data.compile_term, data.sample_program

        def counted_step(env, action):
            calls["step"] += 1
            return step(env, action)

        def counted_compile(term, prims):
            calls["compile"] += 1
            return compile_term(term, prims)

        def recorded_sample(grammar, d_max, seed):
            term = sample(grammar, d_max, seed)
            sampled.add(term)
            return term

        monkeypatch.setattr(MazeEnv, "step", counted_step)
        monkeypatch.setattr(data, "compile_term", counted_compile)
        monkeypatch.setattr(data, "sample_program", recorded_sample)
        got = collect_program_rollouts(grammar, "maze", 200, params, seed=9, d_max=6)
        assert got == want
        recorded = sum(len(t.steps) for t in got)
        assert calls["step"] < recorded // 2
        assert calls["compile"] == len(sampled) < 200

    def test_minatar_default_params(self):
        assert default_params("maze") == RolloutParams(5, 60, 0)
        assert default_params("asterix") == RolloutParams(3, 20, 20)


class TestSerialization:
    def test_rollouts_round_trip(self, tmp_path):
        """Oracle rollouts and dreams load back equal; the file keeps a
        dream's provenance but not its term, so a loaded dream holds none."""
        for env_tag in ("maze", "asterix", "spaceinvaders"):
            grammar = uniform_grammar(primitive_table(env_tag))
            dreams = collect_program_rollouts(grammar, env_tag, 10, default_params(env_tag), seed=2, d_max=6)
            assert dreams and all(t.program is not None for t in dreams)
            trajs = collect_oracle_rollouts(env_tag, 2, seed=9, max_steps=30) + dreams
            doc = rollouts_to_json(trajs)
            assert doc["schema"] == "gridsynth-rollouts-v2"
            assert all(s["grid"] == state.digits() for r, t in zip(doc["rollouts"], trajs)
                       for s, (state, _) in zip(r["steps"], t.steps))
            path = tmp_path / f"{env_tag}.json"
            save_rollouts(trajs, path)
            loaded = load_rollouts(path)
            assert loaded == trajs
            assert all(t.program is None for t in loaded)
            assert all(type(state.cells) is tuple for t in loaded for state, _ in t.steps)

    @pytest.mark.parametrize("env_tag", ["maze", "asterix", "spaceinvaders"])
    def test_files_are_indented_json(self, env_tag, tmp_path):
        """Rollout files hold `json.dumps(doc, indent=2)` and a newline, byte
        for byte: with the maze's direction and with no rollouts."""
        trajs = collect_oracle_rollouts(env_tag, 3, seed=17, max_steps=40)
        path = tmp_path / "out.json"
        for rollouts in (trajs, []):
            save_rollouts(rollouts, path)
            assert path.read_text(encoding="utf-8") == json.dumps(rollouts_to_json(rollouts), indent=2) + "\n"

    @pytest.mark.parametrize("code", [12, -1])
    def test_multi_digit_code_writes_no_file(self, code, tmp_path):
        """A grid is stored as one digit per cell, so a code of two digits or
        a negative one is an error, and no file is written."""
        (traj,) = collect_oracle_rollouts("asterix", 1, seed=17, max_steps=5)
        (state, action), *rest = traj.steps
        wide = replace(state, cells=state.cells[:-1] + (code,))
        path = tmp_path / "out.json"
        with pytest.raises(MultiDigitCodeError, match=f"cell code {code} does not fit a single digit"):
            save_rollouts([replace(traj, steps=((wide, action), *rest))], path)
        assert not path.exists()

    def test_bad_schema_rejected(self, tmp_path):
        with pytest.raises(GridSynthError, match="unexpected rollouts schema 'nope'"):
            rollouts_from_json({"schema": "nope", "envTag": "maze", "rollouts": []})
        path = tmp_path / "taskset.json"
        path.write_text(json.dumps({"schema": "gridsynth-taskset-v1", "envTag": "maze", "L": 1, "tasks": []}))
        with pytest.raises(GridSynthError, match="unexpected task-set schema 'gridsynth-taskset-v1'"):
            load_task_set(path)

    def test_export_prompts(self, tmp_path):
        ts = slice_tasks(collect_oracle_rollouts("maze", 2, seed=4), 3)
        path = tmp_path / "tasks.prompts.txt"
        export_prompts(ts, path)
        lines = path.read_text(encoding="utf-8").splitlines()
        assert len(lines) == ts.n
        assert all(len(line.split()) == 2 * ts.L for line in lines)

    def test_export_of_no_prompts_is_an_empty_file(self, tmp_path):
        trajs = collect_oracle_rollouts("maze", 1, seed=0)
        path = tmp_path / "tasks.prompts.txt"
        empty = slice_tasks(trajs, 500)
        assert empty.n == 0
        export_prompts(empty, path)
        assert path.read_bytes() == b""
        tasks = slice_tasks(trajs, 3)
        export_prompts(tasks, path)
        expected = "\n".join(encode_prompt(t) for t in tasks.tasks) + "\n"
        assert tasks.n >= 1 and path.read_text(encoding="utf-8") == expected
