"""Maze environment: a medium perfect maze seen through an egocentric 5x5 view.

The world is a 13x13 grid of wall and floor cells carved with a seeded
recursive backtracker, so every pair of floor cells is joined by exactly
one path. The agent observes a 5x5 window rotated into its own frame: it
sits at view cell (0, 2) facing +x, which shows four cells ahead and two to
each side. The world is carved
straight into one flat row-major tuple inside a border of VIEW - 1 walls,
so cells outside the world read as walls and the view is 25 fixed offsets
per direction, read on every observation. Codes: 1 empty, 2 wall, 3 goal.

Directions are absolute: 0 east, 1 south, 2 west, 3 north (screen axes,
y grows downward). `left` and `right` rotate in place, `forward` advances
one world cell unless a wall blocks it.
"""
from __future__ import annotations

import random
from collections import deque
from dataclasses import dataclass, field
from functools import lru_cache
from math import isqrt
from typing import NamedTuple

from gridsynth.errors import IllegalActionError
from gridsynth.state import GridState

EMPTY, WALL, GOAL = 1, 2, 3
MAZE_CELLS = 6
VIEW = 5
PAD = VIEW - 1  # walls around the world: the view reaches VIEW - 1 cells out
ACTIONS = ("left", "right", "forward")

# Heading vectors indexed by direction; right-hand vector is (-ay, ax).
DIRS = ((1, 0), (0, 1), (-1, 0), (0, -1))


@lru_cache(maxsize=None)
def view_offsets(stride: int) -> tuple[tuple[int, ...], ...]:
    """Per direction, the offset of each view cell (row-major) from the
    agent's own cell, in a padded world `stride` cells wide: view cell
    (vx, vy) lies vx cells ahead and vy - 2 cells to the right."""
    return tuple(
        tuple(
            (ay * vx + ax * (vy - 2)) * stride + ax * vx - ay * (vy - 2)
            for vy in range(VIEW)
            for vx in range(VIEW)
        )
        for ax, ay in DIRS
    )


class _Cells(NamedTuple):
    """Tables of a (2*cells+1)^2 wall grid inside its padded world, with
    cell (cx, cy) numbered cy * cells + cx and a set of cells held as a
    bitmask of those numbers."""

    stride: int  # width of the padded world
    near: tuple[int, ...]  # per cell, the set of its in-bounds neighbours
    free: tuple[dict, ...]  # per cell, each subset of `near` -> its members in DIRS order
    spots: tuple[tuple[int, int], ...]  # per cell, its grid (x, y)
    at: tuple[int, ...]  # per cell, its padded world index


@lru_cache(maxsize=None)
def _cell_tables(cells: int) -> _Cells:
    stride = 2 * cells + 1 + 2 * PAD
    near, free = [], []
    for cy in range(cells):
        for cx in range(cells):
            nbrs = [
                (cy + dy) * cells + cx + dx
                for dx, dy in DIRS
                if 0 <= cx + dx < cells and 0 <= cy + dy < cells
            ]
            near.append(sum(1 << n for n in nbrs))
            picks = (tuple(n for j, n in enumerate(nbrs) if k >> j & 1) for k in range(1 << len(nbrs)))
            free.append({sum(1 << n for n in pick): pick for pick in picks})
    spots = tuple((2 * cx + 1, 2 * cy + 1) for cy in range(cells) for cx in range(cells))
    at = tuple((y + PAD) * stride + x + PAD for x, y in spots)
    return _Cells(stride, tuple(near), tuple(free), spots, at)


def carve_world(cells: int, rng: random.Random) -> list[int]:
    """Recursive-backtracker carving of a (2*cells+1)^2 wall grid, straight
    into its padded row-major world."""
    stride, near, free, _, at = _cell_tables(cells)
    world = [WALL] * (stride * stride)
    sx = rng.randrange(cells)
    start = rng.randrange(cells) * cells + sx
    world[at[start]] = EMPTY
    unseen = ((1 << cells * cells) - 1) ^ (1 << start)
    stack = [start]
    choice = rng.choice
    while unseen:  # backing up once every cell is carved draws nothing
        here = stack[-1]
        nbrs = free[here][near[here] & unseen]  # unseen neighbours, in DIRS order
        if not nbrs:
            stack.pop()
            continue
        n = choice(nbrs)
        world[(at[here] + at[n]) >> 1] = EMPTY  # the wall between the two cells
        world[at[n]] = EMPTY
        unseen ^= 1 << n
        stack.append(n)
    return world


def carve_maze(cells: int, rng: random.Random) -> list[list[int]]:
    """The maze `carve_world` carves, as rows grid[y][x] without padding."""
    world = carve_world(cells, rng)
    size, stride = 2 * cells + 1, _cell_tables(cells).stride
    starts = ((y + PAD) * stride + PAD for y in range(size))
    return [world[i : i + size] for i in starts]


@dataclass
class MazeEnv:
    """Single-agent perfect-maze world with rotation and forward movement."""

    env_tag = "maze"
    cells: int = MAZE_CELLS
    world: tuple[int, ...] = ()  # padded, row-major, `stride` cells wide
    stride: int = 0
    pos: tuple[int, int] = (1, 1)
    direction: int = 0
    goal: tuple[int, int] = (1, 1)
    done: bool = False
    _dist: dict | None = field(default=None, repr=False)

    def reset(self, layout_seed: int, dynamics_seed: int = 0) -> GridState:
        del dynamics_seed  # the maze has no stochastic dynamics
        rng = random.Random(layout_seed)
        world = carve_world(self.cells, rng)
        tables = _cell_tables(self.cells)
        start, goal = rng.sample(tables.spots, 2)
        world[(goal[1] + PAD) * tables.stride + goal[0] + PAD] = GOAL
        return self.install(world, start, goal, rng.randrange(4))

    def install(self, world, start, goal, direction: int) -> GridState:
        """Enter a square world, given row-major with PAD walls on every
        side and its goal marked; place the agent and return its first
        observation."""
        self.world = tuple(world)
        self.stride = isqrt(len(self.world))
        self.pos = start
        self.goal = goal
        self.direction = direction
        self.done = False
        self._dist = None
        return self.observe()

    def _index(self, x: int, y: int) -> int:
        return (y + PAD) * self.stride + x + PAD

    def _moves(self) -> tuple[int, ...]:
        """World-index step of each heading in DIRS."""
        return tuple(dy * self.stride + dx for dx, dy in DIRS)

    def state_key(self) -> int:
        """4 * the agent's world index + its heading. The world does not
        change within an episode, so this fixes the view and where each
        action leads."""
        return 4 * self._index(*self.pos) + self.direction

    def observe(self) -> GridState:
        """The view from the agent's cell and heading."""
        world, at = self.world, self._index(*self.pos)
        view = tuple([world[at + o] for o in view_offsets(self.stride)[self.direction]])
        return GridState(view, VIEW, self.direction)

    def step(self, action: str) -> tuple[GridState, bool]:
        if action not in ACTIONS:
            raise IllegalActionError(f"maze action must be one of {ACTIONS}, got {action!r}")
        if action == "left":
            self.direction = (self.direction - 1) % 4
        elif action == "right":
            self.direction = (self.direction + 1) % 4
        else:
            ax, ay = DIRS[self.direction]
            nx, ny = self.pos[0] + ax, self.pos[1] + ay
            if self.world[self._index(nx, ny)] != WALL:
                self.pos = (nx, ny)
        self.done = self.pos == self.goal
        return self.observe(), self.done

    def _distances(self) -> dict:
        """BFS distance to the goal for every floor cell, by world index."""
        world = self.world
        moves = self._moves()
        goal = self._index(*self.goal)
        dist = {goal: 0}
        queue = deque([goal])
        while queue:
            at = queue.popleft()
            for move in moves:
                n = at + move
                if n not in dist and world[n] != WALL:
                    dist[n] = dist[at] + 1
                    queue.append(n)
        return dist

    def oracle_action(self) -> str:
        """Shortest-path policy: rotate toward the next cell on a geodesic.

        The heuristic depends only on the agent's position, so repeated
        rotations always converge on `forward` and the policy can never
        livelock the way a turn-by-turn wall follower can at junctions.
        """
        if self.pos == self.goal:
            return "forward"
        if self._dist is None:
            self._dist = self._distances()
        at = self._index(*self.pos)
        best = None
        for i, move in enumerate(self._moves()):
            d = self._dist.get(at + move)
            if d is not None and (best is None or d < best[0]):
                best = (d, i)
        if best is None:
            return "forward"
        delta = (best[1] - self.direction) % 4
        if delta == 0:
            return "forward"
        if delta == 3:
            return "left"
        return "right"
