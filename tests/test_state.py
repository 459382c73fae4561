"""GridState: one row-major tuple of cells, read by index, stored as its digit string."""
import numpy as np
import pytest

from gridsynth.errors import MultiDigitCodeError
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


@pytest.mark.parametrize("cells, width, direction", [((0, 1, 9, 3, 5, 7), 3, 2), ((4,) * 25, 5, None), ((), 1, None)])
def test_digits_round_trip(cells, width, direction):
    state = GridState(cells, width, direction)
    text = state.digits()
    assert text == "".join(map(str, cells))
    assert GridState.from_digits(text, width, direction) == state
    assert all(type(c) is int for c in GridState.from_digits(text, width).cells)


@pytest.mark.parametrize("code", [10, 12, 255, 256, -1])
def test_digits_rejects_multi_digit_codes(code):
    with pytest.raises(MultiDigitCodeError, match=f"cell code {code} does not fit a single digit"):
        GridState((1, code, 2, 3), 2).digits()


@pytest.mark.parametrize(
    "text, message",
    [
        ([1, 2, 3, 4], "a grid must be a string of ASCII digits, not [1, 2, 3, 4]"),
        (1234, "a grid must be a string of ASCII digits, not 1234"),
        ("123", "a grid of 3 digits does not split into rows of 2"),
        ("12a4", "a grid must be a string of ASCII digits, not '12a4'"),
        ("12 4", "a grid must be a string of ASCII digits, not '12 4'"),
        ("12\u06634", "a grid must be a string of ASCII digits, not '12\u06634'"),
    ],
    ids=["not-a-string", "int", "wrong-length", "non-digit", "space", "non-ascii-digit"],
)
def test_from_digits_rejects(text, message):
    """`"\u0663".isdigit()` is true (ARABIC-INDIC DIGIT THREE), but it is
    not a cell code."""
    with pytest.raises(ValueError) as exc:
        GridState.from_digits(text, 2)
    assert str(exc.value) == message
