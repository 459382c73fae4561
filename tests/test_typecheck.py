"""Type inference against the Table 3 signatures."""
import pytest

from gridsynth.errors import TypeMismatchError
from gridsynth.lang import ACTION, DIRECTION, MAP, arrow, parse_type
from gridsynth.sexpr import parse_program
from gridsynth.typecheck import infer_type

from conftest import LISTING_WALL_CHECK


def test_wall_check_types_to_map_action(maze_prims):
    term = parse_program(LISTING_WALL_CHECK, maze_prims)
    assert infer_type(term, maze_prims) == arrow(MAP, ACTION)


def test_two_argument_maze_program(maze_prims):
    text = "(λ(m) (λ(d) (if (eq-direction? direction-3 d) left-action forward-action)))"
    term = parse_program(text, maze_prims)
    assert infer_type(term, maze_prims) == arrow(MAP, DIRECTION, ACTION)


def test_eq_obj_is_asymmetric(maze_prims):
    # Both arguments are bare object constants; one must come from the map.
    term = parse_program("(λ(m) (eq-obj? wall-obj wall-obj))", maze_prims)
    with pytest.raises(TypeMismatchError):
        infer_type(term, maze_prims)


def test_if_instantiates_per_use(maze_prims):
    text = (
        "(λ(m) (λ(d) (if (eq-obj? wall-obj (get m 1 0))"
        " (if (eq-direction? d direction-0) left-action right-action)"
        " forward-action)))"
    )
    term = parse_program(text, maze_prims)
    assert infer_type(term, maze_prims) == parse_type("map -> direction -> action")


def test_request_checking(maze_prims):
    term = parse_program("(λ(x) left-action)", maze_prims)
    assert infer_type(term, maze_prims, request=arrow(MAP, ACTION)) == arrow(MAP, ACTION)
    with pytest.raises(TypeMismatchError):
        infer_type(term, maze_prims, request=arrow(MAP, DIRECTION, ACTION))


def test_mismatch_reports_location(maze_prims):
    term = parse_program("(λ(m) (eq-obj? wall-obj wall-obj))", maze_prims)
    with pytest.raises(TypeMismatchError) as err:
        infer_type(term, maze_prims)
    assert err.value.location


def test_get_arguments_are_ints(maze_prims):
    term = parse_program("(λ(m) (get m direction-0 0))", maze_prims)
    with pytest.raises(TypeMismatchError):
        infer_type(term, maze_prims)


def test_coordinate_types_distinct(asterix_prims):
    # get-x yields tx which cannot meet a ty from get-y
    text = "(λ(m) (eq-x? (get-x (get m 1 0)) (get-y (get m 1 0))))"
    term = parse_program(text, asterix_prims)
    with pytest.raises(TypeMismatchError):
        infer_type(term, asterix_prims)


def test_minatar_request(asterix_prims):
    term = parse_program("(λ(m) no-op-action)", asterix_prims)
    assert infer_type(term, asterix_prims) == parse_type("map -> action")


def test_open_term_with_env(maze_prims):
    from gridsynth.lang import Var

    assert infer_type(Var(0), maze_prims, env=(ACTION,)) == ACTION


@pytest.mark.parametrize(
    "text, location",
    [
        ("(λ(m) (get m direction-0 0))", "(get x direction-0 0)"),
        ("(λ(m) (λ(d) (if (eq-direction? m d) left-action forward-action)))", "x"),
    ],
)
def test_location_names_binders_as_the_program_prints_them(maze_prims, text, location):
    with pytest.raises(TypeMismatchError) as err:
        infer_type(parse_program(text, maze_prims), maze_prims)
    assert err.value.location == location
