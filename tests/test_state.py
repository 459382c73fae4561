"""GridState: one row-major tuple of cells, read by index and stored as-is."""
import numpy as np
import pytest

from gridsynth.state import GridState


def test_flat_is_cells():
    state = GridState.from_flat(range(6), 3, direction=1)
    assert state.flat() is state.cells
    assert state.cells == (0, 1, 2, 3, 4, 5)


def test_cell_indexes_row_major():
    state = GridState.from_flat([7, 1, 2, 3, 4, 5, 6, 8], 4)
    assert (state.width, state.height) == (4, 2)
    for y in range(state.height):
        for x in range(state.width):
            assert state.cell(x, y) == state.cells[y * state.width + x]
    assert state.cell(3, 0) == 3 and state.cell(0, 1) == 4


def test_from_flat_coerces_to_int():
    state = GridState.from_flat(np.array([1, 2, 3, 4], dtype=np.int64), 2)
    assert type(state.cells) is tuple
    assert all(type(c) is int for c in state.cells)
    assert state == GridState((1, 2, 3, 4), 2)


@pytest.mark.parametrize("flat, width", [([1, 2, 3, 4], 0), ([1, 2, 3, 4], 3), ([1], -1)])
def test_from_flat_rejects_bad_width(flat, width):
    with pytest.raises(ValueError):
        GridState.from_flat(flat, width)
