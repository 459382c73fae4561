"""Execution traces, highlight completeness, and renderer goldens."""

import random

import pytest

from conftest import LISTING_WALL_CHECK, maze_state
from gridsynth.data import Task, collect_oracle_rollouts, slice_tasks
from gridsynth.envs import env_spec, make_env
from gridsynth.envs.asterix import Entity
from gridsynth.errors import GridSynthError
from gridsynth.explain import (
    MANIFEST_SCHEMA,
    TRACE_SCHEMA,
    render,
    render_ascii,
    render_svg,
    trace_execution,
    explain_task,
    write_bundle,
)
from gridsynth.grammar import sample_program, uniform_grammar
from gridsynth.interp import exec_program
from gridsynth.lang import BOOL, MAP, arrow
from gridsynth.library import Abstraction
from gridsynth.primitives import primitive_table
from gridsynth.sexpr import parse_program
from gridsynth.state import GridState

MAZE = primitive_table("maze")
LISTING = parse_program(LISTING_WALL_CHECK, MAZE)


class RecordingState(GridState):
    """Independent read-set oracle: records every cell the evaluator reads."""

    def __init__(self, state: GridState):
        super().__init__(cells=state.cells, width=state.width, direction=state.direction)
        object.__setattr__(self, "reads", set())

    def cell(self, x, y):
        self.reads.add((x, y))
        return super().cell(x, y)


class TestTrace:
    def test_listing1_wall_events(self):
        expl = trace_execution(LISTING, maze_state(wall_at=[(1, 0)]), MAZE)
        assert expl.chosen_action == "left" and expl.error is None
        assert [e.callee for e in expl.events] == ["get", "eq-obj?", "if"]
        get_e, eq_e, if_e = expl.events
        assert get_e.accessed_cell == (1, 0)
        assert get_e.args == ("map", 1, 0)
        assert get_e.result == "wall-obj@(1,0)"
        assert eq_e.result is True
        assert if_e.branch == "then" and if_e.args == (True,)
        assert set(expl.highlighted_cells) == {(1, 0)}

    def test_listing1_open_takes_else(self):
        expl = trace_execution(LISTING, maze_state(), MAZE)
        assert expl.chosen_action == "forward"
        assert expl.events[-1].branch == "else"
        assert set(expl.highlighted_cells) == {(1, 0)}

    def test_constant_program_empty_highlights(self):
        prog = parse_program("(λ(m) forward-action)", MAZE)
        expl = trace_execution(prog, maze_state(), MAZE)
        assert expl.chosen_action == "forward"
        assert expl.highlighted_cells == frozenset()
        assert expl.events == ()

    def test_repeated_access_single_highlight_with_count(self):
        text = (
            "(λ(x) (if (and (eq-obj? wall-obj (get x 1 0))"
            " (eq-obj? wall-obj (get x 1 0))) left-action forward-action))"
        )
        prog = parse_program(text, MAZE)
        expl = trace_execution(prog, maze_state(wall_at=[(1, 0)]), MAZE)
        assert set(expl.highlighted_cells) == {(1, 0)}
        assert expl.access_counts == {(1, 0): 2}
        assert sum(1 for e in expl.events if e.callee == "get") == 2

    def test_abstraction_call_and_nested_events(self):
        body = parse_program("(λ(m) (eq-obj? wall-obj (get m 1 0)))", MAZE)
        lib = [Abstraction("f0", body, arrow(MAP, BOOL), 2)]
        text = (
            "(λ(x) (if (and (f0 x) (eq-obj? wall-obj (get x 1 0)))"
            " left-action forward-action))"
        )
        prog = parse_program(text, MAZE, extra={"f0": body})
        expl = trace_execution(prog, maze_state(wall_at=[(1, 0)]), MAZE, library=lib)
        assert expl.chosen_action == "left"
        f0_events = [e for e in expl.events if e.callee == "f0"]
        assert len(f0_events) == 1 and f0_events[0].level == 0
        gets = [e for e in expl.events if e.callee == "get"]
        assert {e.level for e in gets} == {0, 1}
        # checked twice, highlighted once
        assert set(expl.highlighted_cells) == {(1, 0)}
        assert expl.access_counts == {(1, 0): 2}

    def test_arity_zero_abstraction_call_has_its_own_event(self):
        f0_body = parse_program(
            "(and (eq-direction? direction-0 direction-1) (eq-direction? direction-2 direction-3))", MAZE
        )
        f1_body = parse_program("(λ(m) (or f0 (eq-obj? wall-obj (get m 1 0))))", MAZE, extra={"f0"})
        lib = [
            Abstraction("f0", f0_body, BOOL, 4),
            Abstraction("f1", f1_body, arrow(MAP, BOOL), 2),
        ]
        f0_events = [("eq-direction?", 1), ("eq-direction?", 1), ("and", 1), ("f0", 0)]
        for call, deeper in (("f0", 0), ("(f1 x)", 1)):
            prog = parse_program(
                f"(λ(x) (λ(y) (if {call} left-action forward-action)))", MAZE, extra={"f0", "f1"}
            )
            expl = trace_execution(prog, maze_state(), MAZE, library=lib)
            assert expl.chosen_action == "forward"
            got = [(e.callee, e.level) for e in expl.events]
            assert got[:4] == [(name, level + deeper) for name, level in f0_events]
            assert got[-1] == ("if", 0)
        assert got[4:-1] == [("get", 1), ("eq-obj?", 1), ("or", 1), ("f1", 0)]
        assert expl.events[3].args == () and expl.events[3].result is False

    def test_error_marker_partial_trace(self):
        prog = parse_program(
            "(λ(x) (if (eq-obj? wall-obj (get x 5 5)) left-action forward-action))",
            MAZE,
        )
        expl = trace_execution(prog, maze_state(), MAZE)
        assert expl.chosen_action is None
        assert expl.error.startswith("OutOfBoundsGetError")
        assert expl.highlighted_cells == frozenset()


GOLDEN_WALL_ASCII = (
    "facing direction-0 (east)\n"
    ".*...\n"
    ".....\n"
    "A....\n"
    ".....\n"
    ".....\n"
)

GOLDEN_PLAIN_ASCII = (
    "facing direction-0 (east)\n"
    ".#...\n"
    ".....\n"
    "A....\n"
    ".....\n"
    ".....\n"
)


class TestRenderAscii:
    def test_golden_listing1(self):
        expl = trace_execution(LISTING, maze_state(wall_at=[(1, 0)]), MAZE)
        assert render_ascii(expl, "maze") == GOLDEN_WALL_ASCII

    def test_no_highlight_keeps_wall_glyph(self):
        prog = parse_program("(λ(m) forward-action)", MAZE)
        expl = trace_execution(prog, maze_state(wall_at=[(1, 0)]), MAZE)
        assert render_ascii(expl, "maze") == GOLDEN_PLAIN_ASCII

    def test_direction_label_follows_state(self):
        prog = parse_program("(λ(m) forward-action)", MAZE)
        expl = trace_execution(prog, maze_state(direction=3), MAZE)
        assert render_ascii(expl, "maze").splitlines()[0] == "facing direction-3 (north)"

    def test_asterix_digits_and_agent(self):
        env = make_env("asterix")
        env.reset(0, 0)
        env.entities.append(Entity(x=4, row=2, vel=1, gold=False))
        prims = primitive_table("asterix")
        prog = parse_program("(λ(m) no-op-action)", prims)
        expl = trace_execution(prog, env.observe(), prims)
        lines = render_ascii(expl, "asterix").splitlines()
        assert lines[5][5] == "A"
        assert lines[2][4] == "3"
        assert set("".join(lines)) <= set(".A34*")

    def test_pure_function_of_input(self):
        expl = trace_execution(LISTING, maze_state(wall_at=[(1, 0)]), MAZE)
        assert render_ascii(expl, "maze") == render_ascii(expl, "maze")
        assert render_svg(expl, "maze") == render_svg(expl, "maze")


class TestRenderSvg:
    def test_golden_single_highlight(self):
        expl = trace_execution(LISTING, maze_state(wall_at=[(1, 0)]), MAZE)
        svg = render_svg(expl, "maze")
        marks = [l for l in svg.splitlines() if "#ffd400" in l]
        assert len(marks) == 1
        assert 'x="32" y="0"' in marks[0]
        assert 'fill-opacity="0.6"' in marks[0]

    def test_colors_and_layout(self):
        expl = trace_execution(LISTING, maze_state(wall_at=[(1, 0)]), MAZE)
        svg = render_svg(expl, "maze")
        assert svg.startswith('<svg xmlns="http://www.w3.org/2000/svg"')
        assert 'viewBox="0 0 160 160"' in svg
        assert svg.count("#808080") == 1
        agent = [l for l in svg.splitlines() if "#1f4e9c" in l]
        assert len(agent) == 1 and 'x="0" y="64"' in agent[0]
        assert "direction-0 (east)" in svg

    def test_empty_highlights_no_overlay(self):
        prog = parse_program("(λ(m) forward-action)", MAZE)
        expl = trace_execution(prog, maze_state(), MAZE)
        assert "#ffd400" not in render_svg(expl, "maze")

    def test_render_dispatch(self):
        expl = trace_execution(LISTING, maze_state(), MAZE)
        assert render(expl, "maze", "ascii") == render_ascii(expl, "maze")
        assert render(expl, "maze", "svg") == render_svg(expl, "maze")
        with pytest.raises(GridSynthError):
            render(expl, "maze", "png")


def random_states(env_tag, count, seed):
    rng = random.Random(seed)
    env = make_env(env_tag)
    spec_actions = env_spec(env_tag).actions
    states = []
    while len(states) < count:
        env.reset(rng.randrange(1 << 30), rng.randrange(1 << 30))
        for _ in range(10):
            states.append(env.observe())
            if len(states) >= count or env.done:
                break
            env.step(rng.choice(spec_actions))
    return states[:count]


class TestAgreementFuzz:
    @pytest.mark.parametrize("env_tag", ["maze", "asterix", "spaceinvaders"])
    def test_action_and_readset_agreement(self, env_tag):
        prims = primitive_table(env_tag)
        grammar = uniform_grammar(prims)
        states = random_states(env_tag, 20, seed=5)
        checked = 0
        for k in range(60):
            prog = sample_program(grammar, 5, 900 + k)
            state = states[k % len(states)]
            rec = RecordingState(state)
            try:
                want = exec_program(prog, rec, prims)
                err = None
            except GridSynthError as exc:
                want, err = None, type(exc).__name__
            expl = trace_execution(prog, state, prims)
            if err is None:
                assert expl.chosen_action == want and expl.error is None
            else:
                assert expl.chosen_action is None
                assert expl.error.split(":")[0] == err
            assert set(expl.highlighted_cells) == rec.reads
            checked += 1
        assert checked == 60


@pytest.fixture(scope="module")
def task():
    trajs = collect_oracle_rollouts("maze", 1, seed=3)
    return slice_tasks(trajs, 3).tasks[0]


class TestBundle:

    def test_bundle_files_and_manifest(self, tmp_path, task):
        out = write_bundle(tmp_path / "bundle", LISTING, task)
        manifest = (out / "manifest.json").read_text()
        trace = (out / "trace.json").read_text()
        assert MANIFEST_SCHEMA in manifest and TRACE_SCHEMA in trace
        for i in range(len(task.steps)):
            assert (out / f"step-{i:03d}.txt").exists()
            assert (out / f"step-{i:03d}.svg").exists()

    def test_manifest_program_forms(self, tmp_path, task):
        import json

        body = parse_program("(λ(m) (eq-obj? wall-obj (get m 1 0)))", MAZE)
        lib = [Abstraction("f0", body, arrow(MAP, BOOL), 2)]
        prog = parse_program(
            "(λ(x) (if (f0 x) left-action forward-action))", MAZE, extra={"f0": body}
        )
        out = write_bundle(tmp_path / "libform", prog, task, library=lib)
        doc = json.loads((out / "manifest.json").read_text())
        assert "f0" in doc["programLibraryForm"]
        assert "f0" not in doc["programExpandedForm"]
        assert "eq-obj?" in doc["programExpandedForm"]
        assert len(doc["steps"]) == len(task.steps)
        for step in doc["steps"]:
            assert "recordedAction" in step and "chosenAction" in step

    def test_trace_json_counts_only_in_json(self, tmp_path, task):
        import json

        text = (
            "(λ(x) (if (and (eq-obj? wall-obj (get x 1 0))"
            " (eq-obj? wall-obj (get x 1 0))) left-action forward-action))"
        )
        prog = parse_program(text, MAZE)
        out = write_bundle(tmp_path / "counts", prog, task)
        doc = json.loads((out / "trace.json").read_text())
        step = doc["steps"][0]
        cells = [(h["x"], h["y"]) for h in step["highlights"]]
        assert cells == sorted(set(cells))
        assert all(h["count"] == 2 for h in step["highlights"])
        svg = (out / "step-000.svg").read_text()
        assert svg.count("#ffd400") == 1

    def test_bundle_deterministic(self, tmp_path, task):
        a = write_bundle(tmp_path / "a", LISTING, task)
        b = write_bundle(tmp_path / "b", LISTING, task)
        for name in ("manifest.json", "trace.json", "step-000.svg", "step-000.txt"):
            assert (a / name).read_bytes() == (b / name).read_bytes()

    def test_explain_task_in_memory(self, task):
        doc = explain_task(LISTING, task, formats=("ascii",))
        assert doc["taskId"] == task.task_id
        assert len(doc["steps"]) == len(task.steps)
        assert all("ascii" in s and "svg" not in s for s in doc["steps"])
