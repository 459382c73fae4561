"""Differential tests: the kernel against the reference interpreter.

Every sampled program must compile, and the batch form must set each
state's bit exactly where the interpreter gives the recorded action, so
`execute` picks the interpreter's action on every state, with -1 for an
out-of-bounds `get`. Programs are drawn from the uniform grammar and from
grammars with a learned library; the latter are library-expanded before the
kernel runs them, while the interpreter runs their library calls by need.
"""

import random
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import learned_grammar, maze_state
from gridsynth.data import collect_oracle_rollouts
from gridsynth import kernel
from gridsynth.envs import env_spec, make_env
from gridsynth.errors import EvalError, OutOfBoundsGetError, TypeMismatchError
from gridsynth.grammar import sample_program, uniform_grammar
from gridsynth.interp import exec_program
from gridsynth.lang import Lambda, Prim, depth, parse_type, spine
from gridsynth.kernel import (
    BACKEND,
    KernelUnsupportedError,
    StateBatch,
    check_trajectory,
    compile_term,
    covered,
    execute,
)
from gridsynth.library import compress, expand
from gridsynth.primitives import primitive_table
from gridsynth.sexpr import parse_program
from gridsynth.state import GridState
from gridsynth.typecheck import infer_type

ENVS = ["maze", "asterix", "spaceinvaders"]
DIRECTION_REQUEST = parse_type("map -> direction -> action")


def _interp_result(term, state, prims, library=None):
    try:
        return exec_program(term, state, prims, library)
    except EvalError:
        return None


def _kernel_result(compiled, state, prims):
    direction = state.direction if state.direction is not None else 0
    aid = execute(compiled.code, state.flat(), state.width, state.height, direction)
    return None if aid < 0 else prims.action_words[aid]


def _env_states(env_tag, count, seed):
    rng = random.Random(seed)
    env = make_env(env_tag)
    actions = env_spec(env_tag).actions
    states = []
    while len(states) < count:
        env.reset(rng.randrange(1 << 30), rng.randrange(1 << 30))
        for _ in range(8):
            states.append(env.observe())
            if len(states) >= count or env.done:
                break
            env.step(rng.choice(actions))
    return states[:count]


def _sample(grammar, seed, d_max=6):
    return sample_program(grammar, d_max, seed)


@lru_cache(maxsize=None)
def _learned(env_tag):
    """A grammar and library learned from 12 sampled programs plus 8 wall
    checks; uniform MinAtar samples alone share too little to compress."""
    prims = primitive_table(env_tag)
    grammar = uniform_grammar(prims)
    objs = [e.name for e in prims.entries if e.kind == "object"]
    acts = [e.name for e in prims.entries if e.kind == "action"]
    wrap = "(λ(x) (λ(y) {}))" if prims.request == DIRECTION_REQUEST else "(λ(x) {})"
    corpus = {f"p{i}": _sample(grammar, i, d_max=5) for i in range(12)}
    for i in range(8):
        check = f"(if (eq-obj? {objs[i % 2]} (get x {i % 4} {i // 4})) {acts[i % 3]} {acts[(i + 1) % 3]})"
        corpus[f"t{i}"] = parse_program(wrap.format(check), prims)
    res = compress(corpus, grammar)
    return res.grammar, res.library, list(res.rewritten.values())


@lru_cache(maxsize=None)
def _relearned(env_tag):
    """The grammar and library that `compress` learns from 16 programs
    sampled under the conftest library and expanded to primitives; unlike
    `_learned`'s, every one of its abstractions takes arguments."""
    prims = primitive_table(env_tag)
    grammar, library = learned_grammar(prims)
    corpus = {f"p{i}": expand(_sample(grammar, i), library) for i in range(16)}
    res = compress(corpus, uniform_grammar(prims), max_arity=3)
    assert res.library and all(a.arity for a in res.library)
    return res.grammar, res.library


def _assert_agree(term, states, prims, library=()):
    """Interpreter and kernel agree on every state; returns the number of
    states on which evaluation failed (out-of-bounds `get`)."""
    flat = expand(term, library)
    compiled = compile_term(flat, prims)
    failed = 0
    for state in states:
        want = _interp_result(term, state, prims, library)
        assert _kernel_result(compiled, state, prims) == want
        failed += want is None
    return failed


def _batches(states, prims):
    """One StateBatch per action over the states, each recording that action
    on every state."""
    grids = [s.flat() for s in states]
    dirs = [s.direction or 0 for s in states]
    width, height = states[0].width, states[0].height
    return [StateBatch(grids, dirs, [a] * len(states), width, height) for a in range(len(prims.action_words))]


def _batch_results(term, batches, prims, library=()):
    """Each state's action as the batch form gives it: the action whose
    batch sets the state's bit, or None where none does."""
    flat = expand(term, library)
    results = {}
    for word, batch in zip(prims.action_words, batches):
        bits = batch.check(flat, prims)
        for i in range(bits.bit_length()):
            if bits >> i & 1:
                assert i not in results
                results[i] = word
    return results


def _assert_batch_agrees(term, states, batches, prims, library=()):
    """The batch form gives each state the interpreter's action, and no
    action where the interpreter fails; returns how many states failed."""
    want = [_interp_result(term, s, prims, library) for s in states]
    got = _batch_results(term, batches, prims, library)
    assert [got.get(i) for i in range(len(states))] == want
    return want.count(None)


def _oracle_states(env_tag, seed):
    """Seeded fresh oracle states, and on the maze border states whose
    `get`s fall off the grid."""
    states = [s for t in collect_oracle_rollouts(env_tag, 2, seed, max_steps=25) for s, _ in t.steps]
    return states + _border_states(env_tag, 10, seed)


def _border_states(env_tag, count, seed):
    """Seeded observations with a random object code in every cell, the
    border rows and columns included, and on the maze a random heading."""
    prims = primitive_table(env_tag)
    codes = [e.value for e in prims.entries if e.kind == "object"]
    width = 5 if env_tag == "maze" else 10
    rng = random.Random(seed)
    return [
        GridState.from_flat(
            [rng.choice(codes) for _ in range(width * width)],
            width,
            rng.randrange(4) if env_tag == "maze" else None,
        )
        for _ in range(count)
    ]


def _call_args(body, names):
    """The arguments of every library call in a program body."""
    head, args = spine(body)
    found = list(args) if isinstance(head, Prim) and head.name in names else []
    for a in args:
        found += _call_args(a, names)
    return found


def _fails_alone(arg, binders, state, prims, library):
    """Evaluating the argument by itself, under the program's binders, runs
    an out-of-range `get`."""
    for _ in range(binders):
        arg = Lambda(arg)
    try:
        exec_program(arg, state, prims, library)
    except OutOfBoundsGetError:
        return True
    except TypeMismatchError:  # not an action, but it evaluated
        pass
    return False


def test_backend_is_python():
    assert BACKEND == "python"


def test_every_function_primitive_has_kernel_semantics():
    """`_OPS` with the batch form's `if` and `get` covers every function
    primitive of the three environments, and nothing else, so a primitive
    added without kernel support fails here, not in the middle of a run."""
    names = {e.name for env in ENVS for e in primitive_table(env).entries if e.kind == "function"}
    assert set(kernel._OPS) | {"if", "get"} == names


class TestEquivalenceFuzz:
    @pytest.mark.parametrize("env_tag", ENVS)
    def test_sampled_programs_agree(self, env_tag):
        prims = primitive_table(env_tag)
        grammar = uniform_grammar(prims)
        states = _env_states(env_tag, 15, seed=21)
        failed = 0
        for k in range(120):
            term = _sample(grammar, 4000 + k)
            failed += _assert_agree(term, states[k % 15 : k % 15 + 3], prims)
        if env_tag == "maze":
            # coordinates up to 5 on a 5x5 grid: some `get`s fall outside
            assert failed > 0

    @pytest.mark.parametrize("env_tag", ENVS)
    def test_library_programs_agree(self, env_tag):
        prims = primitive_table(env_tag)
        grammar, library, rewritten = _learned(env_tag)
        assert library, "expected the sampled corpus to compress"
        states = _env_states(env_tag, 15, seed=22)
        programs = rewritten + [_sample(grammar, 5000 + k) for k in range(60)]
        for k, term in enumerate(programs):
            _assert_agree(term, states[k % 15 : k % 15 + 3], prims, library)
        if env_tag == "maze":  # `_learned`'s maze abstractions take no arguments
            grammar, library = _relearned(env_tag)
            names = {a.name for a in library}
            calls = 0
            for k in range(60):
                term = _sample(grammar, 5000 + k)
                _assert_agree(term, states[k % 15 : k % 15 + 3], prims, library)
                calls += bool(_call_args(term.body.body, names))
            assert calls > 0

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(
        env_tag=st.sampled_from(ENVS),
        seed=st.integers(0, 1 << 30),
        d_max=st.integers(3, 8),
        with_library=st.booleans(),
        state_seed=st.integers(0, 1 << 30),
    )
    def test_drawn_programs_agree(self, env_tag, seed, d_max, with_library, state_seed):
        """On the maze, a library draw runs under `_learned`'s library and
        under `_relearned`'s, whose abstractions take arguments."""
        prims = primitive_table(env_tag)
        if not with_library:
            libraries = [(uniform_grammar(prims), ())]
        elif env_tag == "maze":
            libraries = [_learned(env_tag)[:2], _relearned(env_tag)]
        else:
            libraries = [_learned(env_tag)[:2]]
        states = _env_states(env_tag, 4, state_seed)
        for grammar, library in libraries:
            _assert_agree(_sample(grammar, seed, d_max), states, prims, library)

    def test_oob_get_maps_to_minus_one(self):
        prims = primitive_table("maze")
        state = maze_state()
        for cell in ["5 5", "5 0", "0 5", "5 3"]:
            term = parse_program(
                f"(λ(x) (if (eq-obj? wall-obj (get x {cell})) left-action forward-action))",
                prims,
            )
            assert _interp_result(term, state, prims) is None
            assert _kernel_result(compile_term(term, prims), state, prims) is None

    def test_direction_program_uses_direction(self):
        prims = primitive_table("maze")
        term = parse_program(
            "(λ(x) (λ(y) (if (eq-direction? y direction-2) left-action forward-action)))",
            prims,
        )
        compiled = compile_term(term, prims)
        for d, want in [(2, "left"), (0, "forward")]:
            state = maze_state(direction=d)
            assert _interp_result(term, state, prims) == want
            assert _kernel_result(compiled, state, prims) == want

    @pytest.mark.parametrize("source", ["conftest", "resampled"])
    @pytest.mark.parametrize("env_tag", ENVS)
    def test_library_calls_agree_with_call_by_need(self, env_tag, source):
        """Deep library-using programs, under the conftest library and under
        the one `compress` learns from programs sampled with it. Where an
        argument would fail on its own but the body never uses it, the
        interpreter still gives an action, as the kernel does. On the maze,
        whose 5x5 grid the constants 0-5 overrun, that must happen; on the
        10x10 MinAtar grids no `get` falls outside."""
        prims = primitive_table(env_tag)
        if source == "conftest":
            grammar, library = learned_grammar(prims)
        else:
            grammar, library = _relearned(env_tag)
        names = {a.name for a in library}
        binders = 2 if prims.request == DIRECTION_REQUEST else 1
        states = _border_states(env_tag, 12, seed=31)
        unused_failing = 0
        for k in range(80):
            term = _sample(grammar, 9000 + k, d_max=9)
            picked = states[k % 12 : k % 12 + 3]
            _assert_agree(term, picked, prims, library)
            args = _call_args(term.body.body if binders == 2 else term.body, names)
            for state in picked:
                if _interp_result(term, state, prims, library) is not None:
                    unused_failing += any(_fails_alone(a, binders, state, prims, library) for a in args)
        if env_tag == "maze":
            assert unused_failing > 0


class TestBatch:
    """The batch form against the interpreter on sampled programs."""

    @pytest.mark.parametrize("learned", [False, True], ids=["no-library", "learned-library"])
    @pytest.mark.parametrize("env_tag", ENVS)
    def test_sampled_programs_agree(self, env_tag, learned):
        prims = primitive_table(env_tag)
        states = _oracle_states(env_tag, seed=41)
        batches = _batches(states, prims)
        if learned:
            grammar, library, programs = _learned(env_tag)
        else:
            grammar, library, programs = uniform_grammar(prims), (), []
        programs = programs + [_sample(grammar, 6000 + k, d_max=7) for k in range(150)]
        failed = sum(_assert_batch_agrees(t, states, batches, prims, library) for t in programs)
        if env_tag == "maze":
            assert failed > 0
        if env_tag == "maze" and learned:  # `_learned`'s maze abstractions take no arguments
            grammar, library = _relearned(env_tag)
            for k in range(60):
                _assert_batch_agrees(_sample(grammar, 6500 + k), states, batches, prims, library)

    def test_no_states_is_the_empty_bitset(self):
        prims = primitive_table("maze")
        empty = StateBatch([], [], [], 5, 5)
        for k in range(30):
            assert empty.check(_sample(uniform_grammar(prims), 7000 + k), prims) == 0


@pytest.mark.parametrize("length", range(9))
def test_covered_matches_per_window_check(length):
    """`covered` against a window-by-window scan of the wrong states, on
    seeded random bitsets; every batch has a window that ends on its top
    bit, and windows of no states are always covered."""
    rng = random.Random(length)
    for _ in range(300):
        n = rng.randint(length, 48)
        wrong = rng.getrandbits(n) & rng.getrandbits(n) & rng.getrandbits(n)
        starts = {rng.randrange(n - length + 1) for _ in range(rng.randint(0, 8))} | {n - length}
        want = {s for s in starts if not any(wrong >> i & 1 for i in range(s, s + length))}
        assert covered(wrong, sum(1 << s for s in starts), length) == sum(1 << s for s in want)


class TestOutOfRangeGet:
    """An out-of-range `get` fails the program where it is evaluated and only
    there: `if` skips its branch not taken, `and`, `or` and the comparisons
    evaluate all of their operands, and a `get` fails where its map or a
    coordinate does."""

    @staticmethod
    def _run(text):
        """The action on an empty maze, the same from the interpreter,
        `execute`, `check_trajectory` and the batch form; None if evaluation
        fails."""
        prims = primitive_table("maze")
        term = parse_program(text, prims)
        infer_type(term, prims)
        state = maze_state()
        code = compile_term(term, prims).code
        want = _interp_result(term, state, prims)
        aid = -1 if want is None else prims.action_words.index(want)
        assert execute(code, state.flat(), 5, 5, 0) == aid
        for a in range(len(prims.action_words)):
            assert check_trajectory(code, [state.flat()], [0], [a], 5, 5) == (a == aid)
            assert StateBatch([state.flat()], [0], [a], 5, 5).check(term, prims) == (a == aid)
        return want

    @pytest.mark.parametrize("taken", ["then", "else"])
    def test_failing_branch_not_taken_gives_the_other_branch(self, taken):
        bad = "(if (eq-obj? wall-obj (get x 5 0)) right-action forward-action)"
        if taken == "then":
            text = f"(λ(x) (if (eq-obj? empty-obj (get x 0 0)) left-action {bad}))"
        else:
            text = f"(λ(x) (if (eq-obj? wall-obj (get x 0 0)) {bad} left-action))"
        assert self._run(text) == "left"

    @pytest.mark.parametrize("bad_first", [True, False])
    @pytest.mark.parametrize("op, decider", [("and", "wall-obj"), ("or", "empty-obj")])
    def test_failing_operand_fails_even_when_the_other_decides(self, op, decider, bad_first):
        # on an empty maze `decider`'s check alone decides: false for and, true for or
        good = f"(eq-obj? {decider} (get x 0 0))"
        bad = "(eq-obj? wall-obj (get x 0 5))"
        pair = f"{bad} {good}" if bad_first else f"{good} {bad}"
        assert self._run(f"(λ(x) (if ({op} {pair}) left-action right-action))") is None

    @pytest.mark.parametrize(
        "test",
        [
            "(eq-obj? (get-game-obj (get x 5 5)) (get x 0 0))",
            "(eq-obj? empty-obj (get x 0 5))",
            *(
                f"({op} {pair})"
                for op, good, bad in [
                    ("eq-x?", "(get-x (get x 0 0))", "(get-x (get x 5 0))"),
                    ("gt-x?", "(get-x (get x 0 0))", "(get-x (get x 0 5))"),
                    ("eq-y?", "(get-y (get x 0 0))", "(get-y (get x 5 1))"),
                    ("gt-y?", "(get-y (get x 1 1))", "(get-y (get x 2 5))"),
                    ("eq-direction?", "direction-0",
                     "(if (eq-obj? wall-obj (get x 5 0)) direction-0 direction-1)"),
                ]
                for pair in (f"{good} {bad}", f"{bad} {good}")
            ),
        ],
    )
    def test_failing_comparison_operand_fails(self, test):
        assert self._run(f"(λ(x) (if {test} left-action right-action))") is None

    @pytest.mark.parametrize("cond, want", [("empty-obj", None), ("wall-obj", "left")])
    def test_coordinates_chosen_by_if(self, cond, want):
        """On an empty maze the condition picks x = 5, off the grid, when it
        tests for empty-obj, and x = 0 when it tests for wall-obj."""
        at = f"(get x (if (eq-obj? {cond} (get x 0 0)) 5 0) 0)"
        assert self._run(f"(λ(x) (if (eq-obj? empty-obj {at}) left-action right-action))") == want

    @pytest.mark.parametrize("cond, want", [("(get x 5 0)", None), ("(get x 0 0)", "right")])
    def test_map_chosen_by_if(self, cond, want):
        """A `get` of a map chosen by `if` fails where the condition does."""
        at = f"(get (if (eq-obj? wall-obj {cond}) x x) 1 1)"
        assert self._run(f"(λ(x) (if (eq-obj? wall-obj {at}) left-action right-action))") == want


class TestCompile:
    def test_deep_program_compiles(self):
        """A right-nested `and` chain keeps one value per level on the stack,
        so a term over 150 levels deep needs more than the 128 slots a fixed
        stack once had."""
        prims = primitive_table("maze")
        cond = "(eq-obj? empty-obj (get x {} {}))"
        body = cond.format(0, 0)
        for i in range(150):
            body = f"(and {cond.format(i % 5, (i // 5) % 5)} {body})"
        term = parse_program(f"(λ(x) (if {body} left-action forward-action))", prims)
        assert depth(term) > 150
        compiled = compile_term(term, prims)
        walls = [(1, 2), (3, 3)]
        for state in (maze_state(), maze_state(wall_at=walls)):
            assert _kernel_result(compiled, state, prims) == _interp_result(term, state, prims)
        assert _kernel_result(compiled, maze_state(), prims) == "left"

    def test_compile_rejects_up_front_and_execute_takes_lists_tuples_and_arrays(self):
        """`compile_term` rejects a term the kernel does not handle even
        where no state would evaluate the part it does not handle, and
        `execute` gives the interpreter's action id on a grid passed as a
        list, a tuple or a numpy array, the forms the benchmark passes."""
        prims = primitive_table("maze")
        text = "(λ(x) (λ(y) (if (eq-obj? wall-obj (get x 0 0)) (f0 x) left-action)))"
        unexpanded = parse_program(text, prims, extra=["f0"])
        assert _interp_result(unexpanded, maze_state(), prims) == "left"
        with pytest.raises(KernelUnsupportedError):
            compile_term(unexpanded, prims)
        states = _env_states("maze", 6, seed=3) + _border_states("maze", 6, seed=3)
        for k in range(30):
            term = _sample(uniform_grammar(prims), 8000 + k)
            code = compile_term(term, prims).code
            for state in states:
                want = _interp_result(term, state, prims)
                aid = -1 if want is None else prims.action_words.index(want)
                for grid in (list(state.flat()), state.flat(), np.array(state.flat(), dtype=np.int64)):
                    got = execute(code, grid, 5, 5, state.direction)
                    assert type(got) is int and got == aid

    @pytest.mark.parametrize(
        "text",
        [
            "(λ(x) (λ(y) (f0 x)))",  # unexpanded library call
            "(λ(x) (λ(y) (λ(z) left-action)))",  # arity 3
        ],
    )
    def test_terms_outside_the_dsl_are_rejected(self, text):
        prims = primitive_table("maze")
        term = parse_program(text, prims, extra=["f0"])
        with pytest.raises(KernelUnsupportedError):
            compile_term(term, prims)


class TestCheckTrajectory:
    ACTIONS = ["left", "forward", "left", "right", "forward", "left"]

    def _cases(self):
        prims = primitive_table("maze")
        grammar = uniform_grammar(prims)
        states = _env_states("maze", len(self.ACTIONS), seed=9)
        for k in range(60):
            term = _sample(grammar, 7000 + k, d_max=5)
            manual = 0
            for s, a in zip(states, self.ACTIONS):
                if _interp_result(term, s, prims) != a:
                    break
                manual += 1
            yield compile_term(term, prims).code, manual, states, prims

    def test_matches_manual_prefix_count(self):
        for code, manual, states, prims in self._cases():
            grids = [s.flat() for s in states]
            dirs = [s.direction for s in states]
            acts = [prims.action_words.index(a) for a in self.ACTIONS]
            assert check_trajectory(code, grids, dirs, acts, 5, 5) == manual

    def test_numpy_arrays_match_manual_prefix_count(self):
        for code, manual, states, prims in self._cases():
            grids = np.array([s.flat() for s in states], dtype=np.int64)
            dirs = np.array([s.direction for s in states], dtype=np.int64)
            acts = np.array([prims.action_words.index(a) for a in self.ACTIONS], dtype=np.int64)
            assert check_trajectory(code, grids, dirs, acts, 5, 5) == manual
