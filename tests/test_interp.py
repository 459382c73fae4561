"""Reference evaluator semantics."""
import pytest

from gridsynth.errors import EvalError, OutOfBoundsGetError, TypeMismatchError
from gridsynth.interp import _BUILTINS, exec_program
from gridsynth.kernel import KernelUnsupportedError, compile_term
from gridsynth.lang import BOOL, MAP, arrow
from gridsynth.data import ProgramRunner
from gridsynth.library import Abstraction, definitions
from gridsynth.primitives import primitive_table
from gridsynth.sexpr import parse_program
from gridsynth.state import GridState

from conftest import LISTING_WALL_CHECK, learned_grammar, maze_state


@pytest.mark.parametrize("env_tag", ["maze", "asterix", "spaceinvaders"])
def test_every_function_primitive_but_if_is_a_builtin(env_tag):
    prims = primitive_table(env_tag)
    functions = {e.name for e in prims.entries if e.kind == "function"}
    assert functions - {"if"} <= set(_BUILTINS)


def test_wall_check_chooses_left_on_wall(maze_prims):
    term = parse_program(LISTING_WALL_CHECK, maze_prims)
    assert exec_program(term, maze_state(wall_at=[(1, 0)]), maze_prims) == "left"


def test_wall_check_chooses_forward_otherwise(maze_prims):
    term = parse_program(LISTING_WALL_CHECK, maze_prims)
    assert exec_program(term, maze_state(), maze_prims) == "forward"


def test_constant_program(si_prims):
    term = parse_program("(λ(m) no-op-action)", si_prims)
    state = GridState.from_flat([0] * 100, 10)
    assert exec_program(term, state, si_prims) == "no-op"


def test_two_argument_program_receives_direction(maze_prims):
    text = "(λ(m) (λ(d) (if (eq-direction? d direction-2) left-action forward-action)))"
    term = parse_program(text, maze_prims)
    assert exec_program(term, maze_state(direction=2), maze_prims) == "left"
    assert exec_program(term, maze_state(direction=0), maze_prims) == "forward"


def test_direction_required(maze_prims):
    text = "(λ(m) (λ(d) left-action))"
    term = parse_program(text, maze_prims)
    state = GridState.from_flat([1] * 25, 5, direction=None)
    with pytest.raises((EvalError, TypeMismatchError)):
        exec_program(term, state, maze_prims)


def test_out_of_bounds_get_raises(maze_prims):
    term = parse_program("(λ(x) (if (eq-obj? wall-obj (get x 5 5)) left-action forward-action))", maze_prims)
    with pytest.raises(OutOfBoundsGetError):
        exec_program(term, maze_state(), maze_prims)


def test_if_is_lazy(maze_prims):
    # The untaken branch would raise OutOfBoundsGet if evaluated.
    text = (
        "(λ(x) (if (eq-obj? wall-obj (get x 1 0))"
        " left-action"
        " (if (eq-obj? goal-obj (get x 5 5)) right-action forward-action)))"
    )
    term = parse_program(text, maze_prims)
    assert exec_program(term, maze_state(wall_at=[(1, 0)]), maze_prims) == "left"
    with pytest.raises(OutOfBoundsGetError):
        exec_program(term, maze_state(), maze_prims)


def test_condition_evaluated_before_branch(maze_prims):
    text = "(λ(x) (if (eq-obj? wall-obj (get x 5 5)) left-action forward-action))"
    term = parse_program(text, maze_prims)
    with pytest.raises(OutOfBoundsGetError):
        exec_program(term, maze_state(), maze_prims)


def test_boolean_operators(maze_prims):
    text = (
        "(λ(x) (if (and (eq-obj? empty-obj (get x 1 0))"
        " (not (eq-obj? wall-obj (get x 0 1))))"
        " forward-action left-action))"
    )
    term = parse_program(text, maze_prims)
    assert exec_program(term, maze_state(), maze_prims) == "forward"
    assert exec_program(term, maze_state(wall_at=[(1, 0)]), maze_prims) == "left"
    assert exec_program(term, maze_state(wall_at=[(0, 1)]), maze_prims) == "left"


def test_coordinate_projections(asterix_prims):
    text = "(λ(m) (if (eq-obj? gold-obj (get m 3 4)) up-action down-action))"
    cells = [0] * 100
    cells[4 * 10 + 3] = 2
    term = parse_program(text, asterix_prims)
    state = GridState.from_flat(cells, 10)
    assert exec_program(term, state, asterix_prims) == "up"


def test_get_x_get_y(asterix_prims):
    text = "(λ(m) (if (eq-x? (get-x (get m 7 2)) 7) up-action down-action))"
    term = parse_program(text, asterix_prims)
    state = GridState.from_flat([0] * 100, 10)
    assert exec_program(term, state, asterix_prims) == "up"
    text = "(λ(m) (if (gt-y? (get-y (get m 7 2)) 3) up-action down-action))"
    term = parse_program(text, asterix_prims)
    assert exec_program(term, state, asterix_prims) == "down"


def test_purity(maze_prims):
    term = parse_program(LISTING_WALL_CHECK, maze_prims)
    state = maze_state(wall_at=[(1, 0)])
    assert exec_program(term, state, maze_prims) == exec_program(term, state, maze_prims)


def test_trace_events_in_evaluation_order(maze_prims):
    term = parse_program(LISTING_WALL_CHECK, maze_prims)
    events = []

    def tracer(callee, args, result, level, accessed_cell, branch):
        events.append((callee, accessed_cell, branch))

    exec_program(term, maze_state(wall_at=[(1, 0)]), maze_prims, tracer=tracer)
    assert [e[0] for e in events] == ["get", "eq-obj?", "if"]
    assert events[0][1] == (1, 0)
    assert events[2][2] == "then"


@pytest.mark.parametrize(
    "text",
    [
        "(λ(x) (if (eq-obj? wall-obj) left-action forward-action))",  # partial application
        "(λ(x) (if (not (eq-obj? wall-obj (get x 1 0)) x) left-action forward-action))",  # over-application
        "(λ(x) (x left-action))",  # applied variable
        "(λ(x) (if (eq-obj? wall-obj (get x 1 0)) left-action forward-action right-action))",  # over-applied if
        "(λ(x) (left-action x))",  # applied constant
        "(λ(x) (λ(y) (λ(z) left-action)))",  # a program of three binders
        "(λ(x) (if f0 left-action forward-action))",  # a library call without the library
    ],
)
def test_terms_outside_the_first_order_dsl_are_rejected(maze_prims, text):
    term = parse_program(text, maze_prims, extra={"f0"})
    with pytest.raises(EvalError):
        exec_program(term, maze_state(), maze_prims)
    with pytest.raises(KernelUnsupportedError):
        compile_term(term, maze_prims)


def test_library_call_with_wrong_argument_count_is_rejected(maze_prims):
    body = parse_program("(λ(m) (eq-obj? wall-obj (get m 1 0)))", maze_prims)
    lib = [Abstraction("f0", body, arrow(MAP, BOOL), 1)]
    for call in ("f0", "(f0 x x)"):
        term = parse_program(f"(λ(x) (if {call} left-action forward-action))", maze_prims, extra={"f0"})
        with pytest.raises(EvalError):
            exec_program(term, maze_state(), maze_prims, library=lib)


def test_library_argument_on_an_untaken_branch_is_not_evaluated(maze_prims):
    """With the learned maze library, `f2`'s third argument sits on the `if`
    branch that its body (through `f1`) does not take on an empty maze, so
    the argument's out-of-range `get` (`f0` reads cell (5, 1)) never runs:
    the interpreter gives `forward`, as the kernel does on the inlined
    term."""
    _, library = learned_grammar(maze_prims)
    term = parse_program(
        "(λ(x) (λ(y) (f2 x 2 (if (f0 empty-obj x 5) left-action right-action))))",
        maze_prims,
        extra=definitions(library),
    )
    state = maze_state(direction=0)
    events = []
    assert exec_program(term, state, maze_prims, library, tracer=lambda *e: events.append(e)) == "forward"
    assert ProgramRunner(term, maze_prims, library).run(state) == "forward"
    # the call's event shows the argument it never used as None
    assert events[-1][:2] == ("f2", (state, 2, None))


def test_library_argument_is_evaluated_once_where_first_used(maze_prims):
    body = parse_program("(λ(b) (and (not b) b))", maze_prims)
    lib = [Abstraction("f0", body, arrow(BOOL, BOOL), 1)]
    term = parse_program(
        "(λ(x) (if (f0 (eq-obj? wall-obj (get x 1 0))) left-action forward-action))",
        maze_prims,
        extra={"f0"},
    )
    events = []
    exec_program(term, maze_state(wall_at=[(1, 0)]), maze_prims, lib, tracer=lambda *e: events.append(e))
    # the argument's events sit at the caller's level, before `not` uses it
    got = [(callee, level) for callee, _, _, level, _, _ in events]
    assert got == [("get", 0), ("eq-obj?", 0), ("not", 1), ("and", 1), ("f0", 0), ("if", 0)]
    assert events[4][1] == (True,)
