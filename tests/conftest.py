import pytest

from gridsynth.primitives import primitive_table
from gridsynth.state import GridState

# The wall-check example program, kept in its original loose layout to make
# sure the parser accepts grouping parens and a bare top-level lambda.
LISTING_WALL_CHECK = """\
λ(x) (
  (if (eq-obj? wall-obj (get x 1 0))
        left-action forward-action)
)
"""


@pytest.fixture
def maze_prims():
    return primitive_table("maze")


@pytest.fixture
def asterix_prims():
    return primitive_table("asterix")


@pytest.fixture
def si_prims():
    return primitive_table("spaceinvaders")


def maze_state(wall_at=(), direction=0) -> GridState:
    """A 5x5 maze observation: all empty except walls at the given cells."""
    cells = [1] * 25
    for x, y in wall_at:
        cells[y * 5 + x] = 2
    return GridState.from_flat(cells, 5, direction=direction)
