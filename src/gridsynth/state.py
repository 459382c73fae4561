"""Observed grid states: the `map` values DSL programs consume."""
from __future__ import annotations

from dataclasses import dataclass

from gridsynth.errors import MultiDigitCodeError


@dataclass(frozen=True)
class GridState:
    """An egocentric observation grid plus optional facing direction.

    `cells` holds the grid row-major: cell (x, y), with y increasing
    downward, is cells[y * width + x]. This one tuple is what the kernel, the
    search and the rollouts JSON read. Cell values are small integer object
    codes. `direction` is set for environments whose programs take a
    direction argument (maze) and None otherwise.
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
        for code in self.cells:
            if not 0 <= code <= 9:
                raise MultiDigitCodeError(f"cell code {code} does not fit a single digit")
        return "".join(map(str, self.cells))

    @staticmethod
    def from_flat(flat, width: int, direction: int | None = None) -> "GridState":
        cells = tuple(int(c) for c in flat)
        if width <= 0 or len(cells) % width != 0:
            raise ValueError(f"flat length {len(cells)} not divisible by width {width}")
        return GridState(cells, width, direction)
