"""Asterix environment: collect gold, dodge enemies, MinAtar style.

A single 10x10 grid. The player moves one cell per action inside rows 1..8.
Entities enter from the left or right edge on a free row in 1..8 and march
straight across, advancing one cell every second tick; enemies drop a trail
code on the cell they just left so their heading is readable from one
observation. Walking into gold collects it; walking into an enemy ends the
episode. Spawns draw from the dynamics seed only, so fixed seeds reproduce
episodes exactly. Codes: 0 empty, 1 player, 2 gold, 3 enemy, 4 trail.
"""
from __future__ import annotations

import random
from dataclasses import dataclass, field

from gridsynth.errors import IllegalActionError
from gridsynth.state import GridState

SIZE = 10
ACTIONS = ("left", "right", "up", "down", "no-op")
EMPTY, PLAYER, GOLD, ENEMY, TRAIL = 0, 1, 2, 3, 4
SPAWN_PERIOD = 3
MOVE_PERIOD = 2
GOLD_CHANCE = 1 / 3


@dataclass
class Entity:
    x: int
    row: int
    vel: int  # +1 marching right, -1 marching left
    gold: bool
    trail_x: int | None = None


@dataclass
class AsterixEnv:
    """Horizontal-traffic grid world with a free-moving player."""

    env_tag = "asterix"
    player: tuple[int, int] = (5, 5)
    entities: list = field(default_factory=list)
    tick: int = 0
    score: int = 0
    done: bool = False
    rng: random.Random = field(default_factory=random.Random, repr=False)

    def reset(self, layout_seed: int, dynamics_seed: int = 0) -> GridState:
        del layout_seed  # the board layout is fixed; only dynamics vary
        self.player = (5, 5)
        self.entities = []
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
        for e in self.entities:
            if not e.gold and e.trail_x is not None and 0 <= e.trail_x < SIZE:
                cells[e.row * SIZE + e.trail_x] = TRAIL
        for e in self.entities:
            if 0 <= e.x < SIZE:
                cells[e.row * SIZE + e.x] = GOLD if e.gold else ENEMY
        px, py = self.player
        cells[py * SIZE + px] = PLAYER
        return GridState(tuple(cells), SIZE)

    def step(self, action: str) -> tuple[GridState, bool]:
        if action not in ACTIONS:
            raise IllegalActionError(f"asterix action must be one of {ACTIONS}, got {action!r}")
        px, py = self.player
        if action == "left":
            px = max(0, px - 1)
        elif action == "right":
            px = min(SIZE - 1, px + 1)
        elif action == "up":
            py = max(1, py - 1)
        elif action == "down":
            py = min(SIZE - 2, py + 1)
        self.player = (px, py)
        self._collide()
        self.tick += 1
        if self.tick % MOVE_PERIOD == 0:
            for e in self.entities:
                e.trail_x = e.x
                e.x += e.vel
            self.entities = [e for e in self.entities if 0 <= e.x < SIZE]
            self._collide()
        if self.tick % SPAWN_PERIOD == 0:
            self._spawn()
        return self.observe(), self.done

    def _collide(self) -> None:
        px, py = self.player
        keep = []
        for e in self.entities:
            if (e.x, e.row) == (px, py):
                if e.gold:
                    self.score += 1
                else:
                    self.done = True
                    keep.append(e)
            else:
                keep.append(e)
        self.entities = keep

    def _spawn(self) -> None:
        taken = {e.row for e in self.entities}
        free = [row for row in range(1, SIZE - 1) if row not in taken]
        if not free:
            return
        row = self.rng.choice(free)
        from_left = self.rng.random() < 0.5
        gold = self.rng.random() < GOLD_CHANCE
        x, vel = (0, 1) if from_left else (SIZE - 1, -1)
        self.entities.append(Entity(x=x, row=row, vel=vel, gold=gold))

    def oracle_action(self) -> str:
        """Greedy gold chaser that backs off from any adjacent enemy."""
        px, py = self.player
        for e in self.entities:
            if e.gold:
                continue
            dx, dy = e.x - px, e.row - py
            if abs(dx) + abs(dy) == 1:
                if dx == 1:
                    return "left" if px > 0 else "up"
                if dx == -1:
                    return "right" if px < SIZE - 1 else "up"
                if dy == 1:
                    return "up" if py > 1 else "left"
                return "down" if py < SIZE - 2 else "left"
        golds = [e for e in self.entities if e.gold]
        if not golds:
            return "no-op"
        target = min(golds, key=lambda e: (abs(e.x - px) + abs(e.row - py), e.row, e.x))
        dx, dy = target.x - px, target.row - py
        if abs(dx) >= abs(dy) and dx != 0:
            return "right" if dx > 0 else "left"
        if dy != 0:
            return "down" if dy > 0 else "up"
        return "no-op"
