"""Environment contracts: determinism, maze structure, oracles, observations."""
import copy
import random
from collections import deque

import pytest

from gridsynth.data import collect_oracle_rollouts, collect_program_rollouts, default_params
from gridsynth.envs import env_spec, make_env
from gridsynth.envs.asterix import AsterixEnv, Entity
from gridsynth.envs.maze import DIRS, EMPTY, GOAL, MAZE_CELLS, PAD, VIEW, WALL, MazeEnv, carve_maze
from gridsynth.envs.spaceinvaders import SpaceInvadersEnv
from gridsynth.errors import IllegalActionError
from gridsynth.grammar import uniform_grammar
from gridsynth.primitives import primitive_table


def fresh_maze(seed=0):
    env = make_env("maze")
    env.reset(seed)
    return env


def padded(grid):
    """A square world given as rows, grid[y][x], in the form `install`
    takes: row-major inside a border of PAD walls."""
    stride = len(grid) + 2 * PAD
    world = [WALL] * (stride * stride)
    for y, row in enumerate(grid):
        at = (y + PAD) * stride + PAD
        world[at : at + len(row)] = row
    return world


def hand_maze():
    """2-cell test world: agent at (1,1) facing east, wall ahead, goal south."""
    env = MazeEnv(cells=2)
    env.install(padded(HAND_GRID), start=(1, 1), goal=(1, 3), direction=0)
    return env


HAND_GRID = (
    (2, 2, 2, 2, 2),
    (2, 1, 2, 1, 2),
    (2, 1, 2, 1, 2),
    (2, 3, 1, 1, 2),
    (2, 2, 2, 2, 2),
)


def reference_view(grid, pos, direction):
    """The maze view by its definition: view cell (vx, vy) is the world cell
    vx steps ahead and vy - 2 steps to the right of the agent, rotated by
    its heading, and a wall outside the world."""
    size = len(grid)
    ax, ay = DIRS[direction]
    rx, ry = -ay, ax
    px, py = pos
    view = []
    for vy in range(VIEW):
        side = vy - 2
        for vx in range(VIEW):
            x, y = px + ax * vx + rx * side, py + ay * vx + ry * side
            view.append(grid[y][x] if 0 <= x < size and 0 <= y < size else WALL)
    return tuple(view)


def reference_carve(cells, rng):
    """Recursive-backtracker carving by its definition: from a random cell,
    step to a random unvisited neighbour (listed in DIRS order) and open the
    wall between, backing up when none is left."""
    size = 2 * cells + 1
    grid = [[WALL] * size for _ in range(size)]
    start = (rng.randrange(cells), rng.randrange(cells))
    grid[2 * start[1] + 1][2 * start[0] + 1] = EMPTY
    seen = {start}
    stack = [start]
    while stack:
        cx, cy = stack[-1]
        nbrs = [
            (cx + dx, cy + dy)
            for dx, dy in DIRS
            if 0 <= cx + dx < cells and 0 <= cy + dy < cells and (cx + dx, cy + dy) not in seen
        ]
        if not nbrs:
            stack.pop()
            continue
        nx, ny = rng.choice(nbrs)
        grid[cy + ny + 1][cx + nx + 1] = EMPTY
        grid[2 * ny + 1][2 * nx + 1] = EMPTY
        seen.add((nx, ny))
        stack.append((nx, ny))
    return grid


def reference_reset(seed):
    """(world, pos, goal, direction) of `MazeEnv.reset(seed)`: a carved
    maze, two distinct cells for the start and goal, a heading, and the
    world padded with PAD walls on every side."""
    rng = random.Random(seed)
    grid = reference_carve(MAZE_CELLS, rng)
    spots = [(2 * cx + 1, 2 * cy + 1) for cy in range(MAZE_CELLS) for cx in range(MAZE_CELLS)]
    start, goal = rng.sample(spots, 2)
    grid[goal[1]][goal[0]] = GOAL
    direction = rng.randrange(4)
    size = len(grid)
    world = tuple(
        grid[y - PAD][x - PAD] if PAD <= x < size + PAD and PAD <= y < size + PAD else WALL
        for y in range(size + 2 * PAD)
        for x in range(size + 2 * PAD)
    )
    return world, start, goal, direction


def assert_views_match_reference(env, grid):
    """Every floor cell of `grid`, in all four directions."""
    for y, row in enumerate(grid):
        for x, code in enumerate(row):
            if code == WALL:
                continue
            for d in range(4):
                env.pos, env.direction = (x, y), d
                obs = env.observe()
                assert obs.width == VIEW and obs.direction == d
                assert obs.flat() == reference_view(grid, (x, y), d), (x, y, d)


class TestMaze:
    def test_reset_deterministic(self):
        a = fresh_maze(11).observe()
        b = fresh_maze(11).observe()
        assert a.digits() == b.digits() and a.direction == b.direction

    def test_reset_varies_with_seed(self):
        layouts = {fresh_maze(s).world for s in range(10)}
        assert len(layouts) > 1

    def test_perfect_maze_independent_check(self):
        # BFS oracle: the cells are floor, every cell is reachable, 35 walls
        # between cells are open and no other spot is floor, on carved mazes
        # and on the padded worlds, goal marked, that reset builds
        grids = [carve_maze(6, random.Random(seed)) for seed in range(20)]
        env, size = MazeEnv(), 2 * MAZE_CELLS + 1
        for seed in range(200):
            env.reset(seed)
            grid = [list(env.world[(y + PAD) * env.stride + PAD :][:size]) for y in range(size)]
            assert padded(grid) == list(env.world), seed  # walls all round
            grids.append(grid)
        for grid in grids:
            open_walls = 0
            for cy in range(6):
                for cx in range(6):
                    assert grid[2 * cy + 1][2 * cx + 1] != WALL
                    if cx + 1 < 6 and grid[2 * cy + 1][2 * cx + 2] != WALL:
                        open_walls += 1
                    if cy + 1 < 6 and grid[2 * cy + 2][2 * cx + 1] != WALL:
                        open_walls += 1
            assert open_walls == 35
            assert sum(code != WALL for row in grid for code in row) == 36 + 35
            seen = {(0, 0)}
            queue = deque([(0, 0)])
            while queue:
                cx, cy = queue.popleft()
                for dx, dy in ((1, 0), (0, 1), (-1, 0), (0, -1)):
                    nx, ny = cx + dx, cy + dy
                    if not (0 <= nx < 6 and 0 <= ny < 6) or (nx, ny) in seen:
                        continue
                    if grid[cy + ny + 1][cx + nx + 1] != WALL:
                        seen.add((nx, ny))
                        queue.append((nx, ny))
            assert len(seen) == 36

    def test_carving_matches_reference(self):
        for cells in (1, 2, 3, MAZE_CELLS):
            for seed in range(500 if cells == MAZE_CELLS else 50):
                rng, ref = random.Random(seed), random.Random(seed)
                assert carve_maze(cells, rng) == reference_carve(cells, ref), (cells, seed)
                assert rng.random() == ref.random()  # the same draws were taken

    def test_reset_matches_reference(self):
        env = MazeEnv()
        for seed in range(100):
            obs = env.reset(seed)
            world, pos, goal, direction = reference_reset(seed)
            assert (env.world, env.pos, env.goal, env.direction) == (world, pos, goal, direction)
            assert env.stride * env.stride == len(world)
            assert obs.direction == direction and not env.done

    def test_install_forgets_the_last_worlds_views(self):
        env = hand_maze()
        before = env.observe()
        assert env.observe() == before
        opened = [list(row) for row in HAND_GRID]
        opened[1][2] = EMPTY  # the wall ahead of the agent
        obs = env.install(padded(opened), start=(1, 1), goal=(1, 3), direction=0)
        assert obs != before
        assert obs.flat() == reference_view(opened, (1, 1), 0)

    def test_oracle_reaches_goal_100_of_100(self):
        budget = 4 * 36
        for seed in range(100):
            env = fresh_maze(seed)
            for _ in range(budget):
                _, done = env.step(env.oracle_action())
                if done:
                    break
            assert env.done, f"seed {seed} did not reach the goal in {budget} steps"

    def test_observation_shape_and_codes(self):
        for seed in range(5):
            env = fresh_maze(seed)
            for _ in range(30):
                obs = env.observe()
                assert obs.height == 5 and obs.width == 5
                assert set(obs.flat()) <= {EMPTY, WALL, GOAL}
                assert obs.direction in (0, 1, 2, 3)
                x, y = env.pos
                assert env.world[(y + PAD) * env.stride + x + PAD] != WALL
                if env.done:
                    break
                env.step(env.oracle_action())

    def test_forward_into_wall_is_a_no_op(self):
        env = hand_maze()  # wall directly ahead
        before = env.observe()
        obs, done = env.step("forward")
        assert env.pos == (1, 1) and not done
        assert obs.digits() == before.digits()

    def test_left_right_rotate_only(self):
        env = hand_maze()
        env.step("left")
        assert env.direction == 3 and env.pos == (1, 1)
        env.step("right")
        env.step("right")
        assert env.direction == 1 and env.pos == (1, 1)

    def test_forward_moves_when_open(self):
        env = hand_maze()
        env.direction = 1  # south, corridor below
        env.step("forward")
        assert env.pos == (1, 2)

    def test_oracle_wall_ahead_open_right(self):
        env = hand_maze()  # goal lies down the southern corridor
        assert env.oracle_action() == "right"

    def test_egocentric_anchor(self):
        env = hand_maze()
        env.direction = 1  # facing south down the corridor
        obs = env.observe()
        # Own cell at view (0,2); next cells ahead at (1,2) and (2,2).
        assert obs.cell(0, 2) == EMPTY
        assert obs.cell(1, 2) == EMPTY
        assert obs.cell(2, 2) == GOAL

    def test_out_of_world_reads_as_wall(self):
        env = hand_maze()
        env.direction = 2  # facing west, straight at the border
        obs = env.observe()
        assert obs.cell(1, 2) == WALL and obs.cell(4, 2) == WALL

    def test_illegal_action(self):
        with pytest.raises(IllegalActionError):
            fresh_maze().step("fire")

    def test_padded_view_matches_reference_on_seeded_mazes(self):
        for seed in range(20):
            rng = random.Random(seed)
            grid = carve_maze(MAZE_CELLS, rng)
            goal = (2 * rng.randrange(MAZE_CELLS) + 1, 2 * rng.randrange(MAZE_CELLS) + 1)
            grid[goal[1]][goal[0]] = GOAL
            env = MazeEnv()
            env.install(padded(grid), start=(1, 1), goal=goal, direction=0)
            assert_views_match_reference(env, grid)

    def test_padded_view_matches_reference_at_the_border(self):
        assert_views_match_reference(hand_maze(), HAND_GRID)

    def test_reset_view_matches_reference(self):
        for seed in range(5):
            env = MazeEnv()
            obs = env.reset(seed)
            rng = random.Random(seed)
            grid = carve_maze(MAZE_CELLS, rng)
            grid[env.goal[1]][env.goal[0]] = GOAL
            assert obs.flat() == reference_view(grid, env.pos, env.direction)

    def test_distances_built_only_for_the_oracle(self, monkeypatch):
        calls = []
        distances = MazeEnv._distances

        def counted(env):
            calls.append(env)
            return distances(env)

        monkeypatch.setattr(MazeEnv, "_distances", counted)
        prims = primitive_table("maze")
        dreams = collect_program_rollouts(
            uniform_grammar(prims), "maze", 10, default_params("maze"), seed=3, d_max=5
        )
        assert sum(len(t.steps) for t in dreams) > 0
        assert calls == []
        oracle = collect_oracle_rollouts("maze", 3, seed=3)
        assert len(calls) == len(oracle) == 3

    def test_equal_state_keys_are_equal_states(self):
        """Within a seeded episode, two visits with one `state_key` see the
        same view, by its definition, and each action leads both to one
        successor key and `done`."""
        rng = random.Random(4)
        revisits = 0
        for seed in range(20):
            env = fresh_maze(seed)
            size = 2 * env.cells + 1
            starts = ((y + PAD) * env.stride + PAD for y in range(size))
            rows = [env.world[i : i + size] for i in starts]
            known = {}
            for _ in range(200):
                obs = env.observe()
                assert obs.flat() == reference_view(rows, env.pos, env.direction)
                successors = []
                for action in ("left", "right", "forward"):
                    probe = copy.copy(env)
                    probe.step(action)
                    successors.append((probe.state_key(), probe.done))
                state = (obs.flat(), obs.direction, successors)
                revisits += env.state_key() in known
                assert known.setdefault(env.state_key(), state) == state
                env.step(rng.choice(("left", "right", "forward")))
                if env.done:
                    break
        assert revisits > 1000

    def test_goal_ends_episode(self):
        env = hand_maze()
        env.direction = 1
        for _ in range(10):
            _, done = env.step(env.oracle_action())
            if done:
                break
        assert env.done and env.pos == env.goal


class TestAsterix:
    def test_reset_single_player(self):
        obs = make_env("asterix").reset(0, dynamics_seed=4)
        assert obs.flat().count(1) == 1
        assert obs.height == 10 and obs.width == 10

    def test_determinism(self):
        runs = []
        for _ in range(2):
            env = make_env("asterix")
            trace = [env.reset(0, dynamics_seed=9).digits()]
            for _ in range(100):
                obs, done = env.step(env.oracle_action())
                trace.append(obs.digits())
                if done:
                    break
            runs.append(trace)
        assert runs[0] == runs[1]

    def test_codes_in_table(self):
        env = make_env("asterix")
        env.reset(0, dynamics_seed=1)
        for _ in range(120):
            obs, done = env.step(env.oracle_action())
            assert set(obs.flat()) <= {0, 1, 2, 3, 4}
            if done:
                break

    def test_enemy_leaves_trail(self):
        env = AsterixEnv()
        env.reset(0, dynamics_seed=0)
        env.entities = [Entity(x=4, row=2, vel=1, gold=False)]
        env.tick = 1  # entities move on even ticks
        obs, _ = env.step("no-op")
        assert obs.cell(5, 2) == 3 and obs.cell(4, 2) == 4

    def test_player_row_clamp(self):
        env = AsterixEnv()
        env.reset(0, dynamics_seed=0)
        for _ in range(12):
            env.step("up")
        assert env.player[1] == 1
        for _ in range(12):
            env.step("down")
        assert env.player[1] == 8

    def test_gold_collection_and_enemy_death(self):
        env = AsterixEnv()
        env.reset(0, dynamics_seed=0)
        env.entities = [Entity(x=6, row=5, vel=1, gold=True)]
        env.step("right")
        assert env.score == 1 and not env.done and env.entities == []
        env.entities = [Entity(x=7, row=5, vel=-1, gold=False)]
        env.step("right")
        assert env.done

    def test_oracle_backs_away_from_adjacent_enemy(self):
        env = AsterixEnv()
        env.reset(0, dynamics_seed=0)
        env.entities = [Entity(x=6, row=5, vel=-1, gold=False)]
        assert env.oracle_action() == "left"

    def test_oracle_chases_gold(self):
        env = AsterixEnv()
        env.reset(0, dynamics_seed=0)
        env.entities = [Entity(x=8, row=5, vel=1, gold=True)]
        assert env.oracle_action() == "right"
        env.entities = [Entity(x=5, row=8, vel=1, gold=True)]
        assert env.oracle_action() == "down"

    def test_illegal_action(self):
        env = make_env("asterix")
        env.reset(0)
        with pytest.raises(IllegalActionError):
            env.step("forward")


class TestSpaceInvaders:
    def test_reset_layout(self):
        obs = make_env("spaceinvaders").reset(0, dynamics_seed=2)
        aliens = [(x, y) for y in range(10) for x in range(10) if obs.cell(x, y) == 2]
        assert aliens == [(x, y) for y in range(1, 4) for x in range(2, 8)]
        assert obs.cell(5, 9) == 1

    def test_fire_spawns_bullet_above_cannon(self):
        env = make_env("spaceinvaders")
        env.reset(0, dynamics_seed=0)
        obs, _ = env.step("fire")
        assert obs.cell(5, 8) == 3

    def test_one_shot_in_flight(self):
        env = SpaceInvadersEnv()
        env.reset(0, dynamics_seed=0)
        env.step("fire")
        first = env.shot
        env.step("fire")  # ignored while the first shot flies
        assert env.shot == (first[0], first[1] - 1)

    def test_march_and_descend(self):
        env = SpaceInvadersEnv()
        env.reset(0, dynamics_seed=0)
        env.step("no-op")
        env.step("no-op")  # tick 2: first march
        assert {(x, y) for x, y in env.aliens} == {(x, y) for x in range(3, 9) for y in range(1, 4)}
        for _ in range(4):
            env.step("no-op")  # tick 6: the block would leave the board, so it descends
        assert {(x, y) for x, y in env.aliens} == {(x, y) for x in range(4, 10) for y in range(2, 5)}
        assert env.alien_vel == -1

    def test_oracle_fires_when_aligned(self):
        env = SpaceInvadersEnv()
        env.reset(0, dynamics_seed=0)
        assert env.oracle_action() == "fire"

    def test_oracle_dodges_bomb(self):
        env = SpaceInvadersEnv()
        env.reset(0, dynamics_seed=0)
        env.bombs = [(5, 7)]
        assert env.oracle_action() == "left"

    def test_bomb_hit_ends_episode(self):
        env = SpaceInvadersEnv()
        env.reset(0, dynamics_seed=0)
        env.bombs = [(5, 8)]
        _, done = env.step("no-op")
        assert done

    def test_determinism(self):
        runs = []
        for _ in range(2):
            env = make_env("spaceinvaders")
            trace = [env.reset(0, dynamics_seed=6).digits()]
            for _ in range(100):
                obs, done = env.step(env.oracle_action())
                trace.append(obs.digits())
                if done:
                    break
            runs.append(trace)
        assert runs[0] == runs[1]

    def test_illegal_action(self):
        env = make_env("spaceinvaders")
        env.reset(0)
        with pytest.raises(IllegalActionError):
            env.step("up")


class TestRegistry:
    def test_specs(self):
        maze = env_spec("maze")
        assert maze.actions == ("left", "right", "forward")
        assert maze.obs_shape == (5, 5)
        assert str(maze.request) == "map -> direction -> action"
        si = env_spec("spaceinvaders")
        assert si.actions == ("left", "right", "fire", "no-op")
        assert str(env_spec("asterix").request) == "map -> action"

    def test_codes(self):
        assert env_spec("maze").codes == ((1, "empty"), (2, "wall"), (3, "goal"))
        assert env_spec("asterix").codes == (
            (0, "empty"), (1, "player"), (2, "gold"), (3, "enemy"), (4, "trail"),
        )
        assert env_spec("spaceinvaders").codes == (
            (0, "empty"),
            (1, "cannon"),
            (2, "alien"),
            (3, "friendly-bullet"),
            (4, "enemy-bullet"),
        )

    def test_oracle_totality_fuzz(self):
        rng = random.Random(0)
        for tag in ("maze", "asterix", "spaceinvaders"):
            spec = env_spec(tag)
            for trial in range(40):
                env = make_env(tag)
                env.reset(trial, dynamics_seed=trial + 1)
                for _ in range(25):
                    word = env.oracle_action()
                    assert word in spec.actions
                    if rng.random() < 0.3:
                        word = rng.choice(spec.actions)
                    _, done = env.step(word)
                    if done:
                        break
