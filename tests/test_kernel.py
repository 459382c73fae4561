"""Differential tests: the bytecode kernel against the reference interpreter.

Every sampled program must compile, and the kernel must pick the same action
as the interpreter on every state, including the error-to-(-1) mapping for
out-of-bounds `get`. Programs are drawn from the uniform grammar and from a
grammar with a learned library; the latter are library-expanded before they
are compiled.
"""

import random
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import maze_state
from gridsynth.envs import env_spec, make_env
from gridsynth.errors import EvalError
from gridsynth.grammar import SampleConfig, sample_program, uniform_grammar
from gridsynth.interp import exec_program
from gridsynth.lang import depth, parse_type
from gridsynth.kernel import (
    BACKEND,
    KernelUnsupportedError,
    check_trajectory,
    compile_term,
    execute,
)
from gridsynth.library import compress, expand
from gridsynth.primitives import primitive_table
from gridsynth.sexpr import parse_program

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


def _sample(grammar, prims, seed, d_max=6):
    return sample_program(grammar, SampleConfig(d_max=d_max, request=prims.request, seed=seed))


@lru_cache(maxsize=None)
def _learned(env_tag):
    """A grammar and library learned from 12 sampled programs plus 8 wall
    checks; uniform MinAtar samples alone share too little to compress."""
    prims = primitive_table(env_tag)
    grammar = uniform_grammar(prims)
    objs = [e.name for e in prims.entries if e.kind == "object"]
    acts = [e.name for e in prims.entries if e.kind == "action"]
    wrap = "(λ(x) (λ(y) {}))" if prims.request == DIRECTION_REQUEST else "(λ(x) {})"
    corpus = {f"p{i}": _sample(grammar, prims, i, d_max=5) for i in range(12)}
    for i in range(8):
        check = f"(if (eq-obj? {objs[i % 2]} (get x {i % 4} {i // 4})) {acts[i % 3]} {acts[(i + 1) % 3]})"
        corpus[f"t{i}"] = parse_program(wrap.format(check), prims)
    res = compress(corpus, grammar)
    return res.grammar, res.library, list(res.rewritten.values())


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


def test_backend_is_python():
    assert BACKEND == "python"


class TestEquivalenceFuzz:
    @pytest.mark.parametrize("env_tag", ENVS)
    def test_sampled_programs_agree(self, env_tag):
        prims = primitive_table(env_tag)
        grammar = uniform_grammar(prims)
        states = _env_states(env_tag, 15, seed=21)
        failed = 0
        for k in range(120):
            term = _sample(grammar, prims, 4000 + k)
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
        programs = rewritten + [_sample(grammar, prims, 5000 + k) for k in range(60)]
        for k, term in enumerate(programs):
            _assert_agree(term, states[k % 15 : k % 15 + 3], prims, library)

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(
        env_tag=st.sampled_from(ENVS),
        seed=st.integers(0, 1 << 30),
        d_max=st.integers(3, 8),
        with_library=st.booleans(),
        state_seed=st.integers(0, 1 << 30),
    )
    def test_drawn_programs_agree(self, env_tag, seed, d_max, with_library, state_seed):
        prims = primitive_table(env_tag)
        if with_library:
            grammar, library, _ = _learned(env_tag)
        else:
            grammar, library = uniform_grammar(prims), ()
        term = _sample(grammar, prims, seed, d_max)
        _assert_agree(term, _env_states(env_tag, 4, state_seed), prims, library)

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

    def test_code_is_a_tuple_of_ints(self):
        prims = primitive_table("maze")
        code = compile_term(_sample(uniform_grammar(prims), prims, 1), prims).code
        assert isinstance(code, tuple) and all(type(v) is int for v in code)

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
            term = _sample(grammar, prims, 7000 + k, d_max=5)
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
            assert check_trajectory(np.array(code), grids, dirs, acts, 5, 5) == manual
