"""GridState: one row-major tuple of cells, read by index and stored as-is."""
import json

import numpy as np
import pytest

from gridsynth.data import (
    collect_oracle_rollouts,
    load_task_set,
    save_task_set,
    slice_tasks,
)
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


def test_task_set_json_round_trip_unchanged(tmp_path):
    for env_tag in ("maze", "asterix", "spaceinvaders"):
        tasks = slice_tasks(collect_oracle_rollouts(env_tag, 2, seed=8, max_steps=40), 3)
        path = tmp_path / f"{env_tag}.json"
        save_task_set(tasks, path)
        loaded = load_task_set(path)
        assert loaded == tasks
        for task in loaded.tasks:
            for state, _ in task.steps:
                assert type(state.cells) is tuple
        again = tmp_path / f"{env_tag}-again.json"
        save_task_set(loaded, again)
        assert again.read_text(encoding="utf-8") == path.read_text(encoding="utf-8")
        doc = json.loads(path.read_text(encoding="utf-8"))
        first = doc["tasks"][0]["steps"][0]["grid"]
        assert first == list(tasks.tasks[0].steps[0][0].cells)
