"""Space Invaders environment, MinAtar style.

A single 10x10 grid. A 6x3 alien block starts at columns 2..7, rows 1..3,
marching sideways one cell every second tick and dropping one row when it
reaches a wall. The cannon sits on the bottom row, may keep one shot in
the air, and dies if a bomb lands on it or an alien reaches its row. Bombs
fall from the lowest alien of a column drawn from the dynamics seed at a
fixed cadence. Codes: 0 empty, 1 cannon, 2 alien, 3 friendly-bullet,
4 enemy-bullet.
"""
from __future__ import annotations

import random
from dataclasses import dataclass, field

from gridsynth.errors import IllegalActionError
from gridsynth.state import GridState

SIZE = 10
ACTIONS = ("left", "right", "fire", "no-op")
EMPTY, CANNON, ALIEN, FRIENDLY, BOMB = 0, 1, 2, 3, 4
CANNON_ROW = 9
MARCH_PERIOD = 2
BOMB_PERIOD = 5


def _initial_aliens() -> set:
    return {(x, y) for x in range(2, 8) for y in range(1, 4)}


@dataclass
class SpaceInvadersEnv:
    """Marching alien block versus a one-shot cannon."""

    env_tag = "spaceinvaders"
    cannon_x: int = 5
    aliens: set = field(default_factory=_initial_aliens)
    alien_vel: int = 1
    shot: tuple[int, int] | None = None
    bombs: list = field(default_factory=list)
    tick: int = 0
    score: int = 0
    done: bool = False
    rng: random.Random = field(default_factory=random.Random, repr=False)

    def reset(self, layout_seed: int, dynamics_seed: int = 0) -> GridState:
        del layout_seed  # the board layout is fixed; only bomb columns vary
        self.cannon_x = 5
        self.aliens = _initial_aliens()
        self.alien_vel = 1
        self.shot = None
        self.bombs = []
        self.tick = 0
        self.score = 0
        self.done = False
        self.rng = random.Random(dynamics_seed)
        return self.observe()

    def state_key(self) -> None:
        """None: the next state depends on random draws as well."""
        return None

    def observe(self) -> GridState:
        cells = [EMPTY] * (SIZE * SIZE)
        for x, y in self.aliens:
            cells[y * SIZE + x] = ALIEN
        for x, y in self.bombs:
            if 0 <= y < SIZE:
                cells[y * SIZE + x] = BOMB
        if self.shot is not None:
            sx, sy = self.shot
            if 0 <= sy < SIZE:
                cells[sy * SIZE + sx] = FRIENDLY
        cells[CANNON_ROW * SIZE + self.cannon_x] = CANNON
        return GridState(tuple(cells), SIZE)

    def step(self, action: str) -> tuple[GridState, bool]:
        if action not in ACTIONS:
            raise IllegalActionError(
                f"spaceinvaders action must be one of {ACTIONS}, got {action!r}"
            )
        # Bullets in flight move before the action lands, so a fresh shot
        # shows up one row above the cannon on this very observation.
        if self.shot is not None:
            sx, sy = self.shot
            self.shot = (sx, sy - 1) if sy > 0 else None
        if self.shot is not None and self.shot in self.aliens:
            self.aliens.discard(self.shot)
            self.score += 1
            self.shot = None
        moved = []
        for x, y in self.bombs:
            y += 1
            if (x, y) == (self.cannon_x, CANNON_ROW):
                self.done = True
            elif y < SIZE:
                moved.append((x, y))
        self.bombs = moved
        if action == "left":
            self.cannon_x = max(0, self.cannon_x - 1)
        elif action == "right":
            self.cannon_x = min(SIZE - 1, self.cannon_x + 1)
        elif action == "fire" and self.shot is None:
            self.shot = (self.cannon_x, CANNON_ROW - 1)
        self.tick += 1
        if self.tick % MARCH_PERIOD == 0 and self.aliens:
            shifted = {(x + self.alien_vel, y) for x, y in self.aliens}
            if any(x < 0 or x >= SIZE for x, _ in shifted):
                self.alien_vel = -self.alien_vel
                self.aliens = {(x, y + 1) for x, y in self.aliens}
            else:
                self.aliens = shifted
            if any(y >= CANNON_ROW for _, y in self.aliens):
                self.done = True
        if self.tick % BOMB_PERIOD == 0 and self.aliens:
            cols = sorted({x for x, _ in self.aliens})
            col = self.rng.choice(cols)
            low = max(y for x, y in self.aliens if x == col)
            self.bombs.append((col, low + 1))
        if not self.aliens:
            self.done = True
        return self.observe(), self.done

    def oracle_action(self) -> str:
        """Align under the closest alien column, fire, and sidestep bombs."""
        px = self.cannon_x
        threat = [b for b in self.bombs if b[0] == px and b[1] >= CANNON_ROW - 4]
        if threat:
            left_clear = px > 0 and not any(
                b[0] == px - 1 and b[1] >= CANNON_ROW - 4 for b in self.bombs
            )
            if left_clear:
                return "left"
            if px < SIZE - 1:
                return "right"
            return "left"
        if not self.aliens:
            return "no-op"
        cols = sorted({x for x, _ in self.aliens})
        if px in cols:
            return "fire" if self.shot is None else "no-op"
        target = min(cols, key=lambda c: (abs(c - px), c))
        return "right" if target > px else "left"
