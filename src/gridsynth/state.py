"""Observed grid states: the `map` values DSL programs consume."""
from __future__ import annotations

from dataclasses import dataclass

from gridsynth.errors import MultiDigitCodeError

_TO_DIGIT = bytes.maketrans(bytes(range(10)), b"0123456789")
_FROM_DIGIT = bytes.maketrans(b"0123456789", bytes(range(10)))


@dataclass(frozen=True)
class GridState:
    """An egocentric observation grid plus optional facing direction.

    `cells` holds the grid row-major: cell (x, y), with y increasing
    downward, is cells[y * width + x]. This one tuple is what the kernel and
    the search read. Cell values are small integer object codes of one digit
    each; prompts and rollouts files hold a grid as its digit string
    (`digits`, `from_digits`). `direction` is set for environments whose
    programs take a direction argument (maze) and None otherwise.
    """

    cells: tuple[int, ...]
    width: int
    direction: int | None = None

    @property
    def height(self) -> int:
        return len(self.cells) // self.width

    def cell(self, x: int, y: int) -> int:
        return self.cells[y * self.width + x]

    def flat(self) -> tuple[int, ...]:
        return self.cells

    def digits(self) -> str:
        """Row-major digit string; rejects codes that need more than one digit."""
        low, high = min(self.cells, default=0), max(self.cells, default=0)
        if low < 0 or high > 9:
            raise MultiDigitCodeError(f"cell code {low if low < 0 else high} does not fit a single digit")
        return bytes(self.cells).translate(_TO_DIGIT).decode("ascii")

    @staticmethod
    def from_digits(text, width: int, direction: int | None = None) -> "GridState":
        """The state whose `digits()` is `text`. ValueError unless `text` is a
        string of ASCII digits whose length is a multiple of `width`."""
        if not isinstance(text, str) or text.strip("0123456789"):  # not isdigit(): "٣".isdigit() is true
            raise ValueError(f"a grid must be a string of ASCII digits, not {text!r:.40}")
        if width <= 0 or len(text) % width != 0:
            raise ValueError(f"a grid of {len(text)} digits does not split into rows of {width}")
        return GridState(tuple(text.encode("ascii").translate(_FROM_DIGIT)), width, direction)

    @staticmethod
    def from_flat(flat, width: int, direction: int | None = None) -> "GridState":
        cells = tuple(int(c) for c in flat)
        if width <= 0 or len(cells) % width != 0:
            raise ValueError(f"flat length {len(cells)} not divisible by width {width}")
        return GridState(cells, width, direction)
