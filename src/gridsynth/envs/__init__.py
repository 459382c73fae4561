"""Environment registry: deterministic simulators behind a tiny common API.

Every environment exposes `reset(layout_seed, dynamics_seed)`, `step(action)`
returning `(observation, done)`, `observe()`, `oracle_action()`,
`state_key()`, and a `done` flag. Observations are `GridState` values whose
codes match the environment's primitive table, so oracle rollouts feed
straight into program search.

`state_key()` is a hashable value that, within one episode, fixes what the
agent observes next and the state each action leads to, or None when the
environment has no such value. Two equal keys in one episode are the same
state: a deterministic program that comes back to a key repeats the steps
it took since that key's first visit, which is how program rollouts fill a
cycle instead of stepping it. The maze's key is its agent's world index and
heading; Asterix and Space Invaders draw random spawns and bombs, so theirs
is None.
"""
from __future__ import annotations

from dataclasses import dataclass

from gridsynth.errors import GridSynthError
from gridsynth.lang import Ty
from gridsynth.primitives import ENV_TAGS, primitive_table

from .asterix import AsterixEnv
from .maze import MazeEnv
from .spaceinvaders import SpaceInvadersEnv


@dataclass(frozen=True)
class EnvSpec:
    env_tag: str
    actions: tuple[str, ...]
    codes: tuple[tuple[int, str], ...]
    obs_shape: tuple[int, int]  # (height, width)
    request: Ty


_ENV_CLASSES = {
    "maze": MazeEnv,
    "asterix": AsterixEnv,
    "spaceinvaders": SpaceInvadersEnv,
}

_SHAPES = {"maze": (5, 5), "asterix": (10, 10), "spaceinvaders": (10, 10)}


def env_spec(env_tag: str) -> EnvSpec:
    if env_tag not in _ENV_CLASSES:
        raise GridSynthError(f"unknown environment {env_tag!r}; expected one of {ENV_TAGS}")
    prims = primitive_table(env_tag)
    return EnvSpec(
        env_tag=env_tag,
        actions=prims.action_words,
        codes=tuple(
            (p.value, p.name.removesuffix("-obj")) for p in prims.entries if p.kind == "object"
        ),
        obs_shape=_SHAPES[env_tag],
        request=prims.request,
    )


def make_env(env_tag: str):
    if env_tag not in _ENV_CLASSES:
        raise GridSynthError(f"unknown environment {env_tag!r}; expected one of {ENV_TAGS}")
    return _ENV_CLASSES[env_tag]()


__all__ = [
    "AsterixEnv",
    "EnvSpec",
    "MazeEnv",
    "SpaceInvadersEnv",
    "env_spec",
    "make_env",
]
